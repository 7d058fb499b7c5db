//! The campaign executor behind `epvf inject`, `shard`, `merge`,
//! `run-sharded`, and `serve --shards`.
//!
//! A campaign over `draw_specs(N, seed)` is partitioned by striding:
//! shard `i` of `S` runs the global spec indices `{g : g % S == i}`. The
//! executor does three jobs, each in one place:
//!
//! - [`run_slice`] runs one slice in this process, optionally streaming
//!   it into a crash-safe WAL that it creates or resumes. `epvf inject`
//!   is the whole slice ([`ShardSpec::WHOLE`]), whose fingerprint and WAL
//!   bytes equal `epvf shard --index 0 --of 1`'s. A real shard's
//!   fingerprint is domain-separated by `(i, S)`, so its log can never
//!   resume, or merge, under the wrong partition geometry.
//! - [`launch`] runs `S` concurrent `epvf shard` workers under the
//!   fault-tolerant supervisor, for `epvf run-sharded` and
//!   `epvf serve --shards`.
//! - [`merge_wals`] folds the shard WALs back into one `CampaignResult`,
//!   and [`report`] checks and renders it: the same summary bytes as a
//!   single-process `epvf inject` of the whole campaign.
//!
//! The `shard`, `merge`, and `run-sharded` commands are thin front ends
//! over those jobs and live here too.

use crate::{flag_value, parse_inject_opts, resolve, summary, CliError, InjectOpts, Target};
use epvf_core::{analyze, EpvfConfig, EpvfResult};
use epvf_interp::InjectionSpec;
use epvf_llfi::{
    read_wal_fingerprint, Campaign, CampaignAggregate, CampaignConfig, CampaignKey, CampaignResult,
    ChaosConfig, Draw, FailureKind, InjOutcome, RunSession, ShardOutcomes, ShardPlan, ShardSpec,
    SupervisorConfig, SupervisorEvent, SupervisorReport, WalSink,
};
use epvf_telemetry::{add, Ctr, MetricsReport, MetricsSnapshot};
use epvf_workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Build the campaign that the inject options describe over `t`.
pub(crate) fn build_campaign<'m>(
    t: &'m Target,
    config: CampaignConfig,
    opts: &InjectOpts,
) -> Result<Campaign<'m>, CliError> {
    Campaign::with_model(
        &t.module,
        Workload::ENTRY,
        &t.args,
        config,
        opts.fault_model(),
    )
    .map_err(CliError::campaign)
}

/// ePVF analysis of the campaign's golden trace: the crash map that the
/// summary's recall, precision, and model crash-rate lines come from.
pub(crate) fn analyze_golden(campaign: &Campaign<'_>) -> Result<EpvfResult, CliError> {
    let trace = campaign
        .golden()
        .trace
        .as_ref()
        .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
    Ok(analyze(campaign.module(), trace, EpvfConfig::default()))
}

/// Records recovered from a WAL, keyed by global run index.
type Records = BTreeMap<usize, (InjectionSpec, InjOutcome)>;

/// Run `body` against the WAL at `path`: a fresh log stamped with `fp`,
/// or, with `resume`, the recovered log, whose intact records `body`
/// receives. Flushes on the way out; a write error the sink deferred
/// becomes an I/O failure (exit 6).
pub(crate) fn with_wal<R>(
    path: &Path,
    fp: u64,
    resume: bool,
    body: impl FnOnce(&WalSink, Records) -> Result<R, CliError>,
) -> Result<R, CliError> {
    let (sink, records) = if resume {
        let (sink, rec) = WalSink::recover(path, fp)?;
        (sink, rec.outcomes)
    } else {
        (WalSink::create(path, fp)?, Records::new())
    };
    let out = body(&sink, records)?;
    sink.flush();
    match sink.take_error() {
        Some(e) => Err(CliError::io(format!("writing WAL {}: {e}", path.display()))),
        None => Ok(out),
    }
}

/// Run slice `shard` of the campaign's spec draw in this process. With a
/// `wal`, every completed run is appended to it; with `resume` as well,
/// the log is recovered first and only its missing runs execute, so the
/// result is byte-identical to an uninterrupted run. The result holds
/// the slice's runs in local order.
pub(crate) fn run_slice(
    campaign: &Campaign<'_>,
    specs: &[InjectionSpec],
    shard: ShardSpec,
    wal: Option<&Path>,
    resume: bool,
) -> Result<CampaignResult, CliError> {
    let local: Vec<InjectionSpec> = shard.indices(specs.len()).map(|g| specs[g]).collect();
    let Some(path) = wal else {
        return Ok(campaign.run_specs(&local));
    };
    let fp = CampaignKey::of(campaign, Draw::Specs(specs))
        .shard(shard)
        .fingerprint();
    with_wal(path, fp, resume, |sink, records| {
        let mut recovered = BTreeMap::new();
        for (g, (spec, outcome)) in records {
            if !shard.owns(g) {
                return Err(CliError::input(format!(
                    "WAL record {g} does not belong to shard {shard} \
                     (same fingerprint but divergent content)"
                )));
            }
            if specs.get(g) != Some(&spec) {
                return Err(CliError::input(format!(
                    "WAL record {g} does not match the drawn spec list \
                     (same fingerprint but divergent content)"
                )));
            }
            recovered.insert(shard.to_local(g), outcome);
        }
        // Records carry global indices, so shard WALs union without any
        // per-shard remapping.
        let session = RunSession {
            recovered,
            wal: Some(sink),
            index_base: shard.index(),
            index_stride: shard.of(),
            ..RunSession::default()
        };
        Ok(campaign.run_specs_session(&local, &session))
    })
}

/// Apply `flag` to `policy` if it is one of the supervisor-policy flags
/// that `run-sharded` and `serve` share; `Ok(false)` when it is not.
pub(crate) fn policy_flag(
    policy: &mut SupervisorConfig,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, CliError> {
    match flag {
        "--shard-retries" => policy.retries = flag_value(it, flag)?,
        "--stall-timeout-ms" => {
            policy.stall_timeout = Some(Duration::from_millis(flag_value(it, flag)?));
        }
        "--shard-deadline-ms" => {
            policy.deadline = Some(Duration::from_millis(flag_value(it, flag)?));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Run `shards` concurrent `epvf shard` workers under the supervisor
/// `policy`, for the campaign that the raw target token `spec` and the
/// inject flags `forwarded` describe. Worker `i` writes
/// `dir/shard-i.wal` (its heartbeat, resumed on restart) and
/// `dir/shard-i.stderr`. `emit` receives every supervision event with
/// its narration line, if it has one. Returns the supervisor's report
/// and the WAL paths in shard order.
pub(crate) fn launch(
    spec: &str,
    forwarded: &[String],
    shards: usize,
    dir: &Path,
    policy: &SupervisorConfig,
    emit: &mut dyn FnMut(&SupervisorEvent, Option<String>),
) -> Result<(SupervisorReport, Vec<PathBuf>), CliError> {
    let program = std::env::current_exe()
        .map_err(|e| CliError::io(format!("locating the epvf binary: {e}")))?;
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::io(format!("creating {}: {e}", dir.display())))?;
    let plans: Vec<ShardPlan> = (0..shards)
        .map(|i| {
            let wal = dir.join(format!("shard-{i}.wal"));
            let mut fresh_args: Vec<String> = vec!["shard".into(), spec.into()];
            fresh_args.extend(forwarded.iter().cloned());
            fresh_args.extend([
                "--index".into(),
                i.to_string(),
                "--of".into(),
                shards.to_string(),
                "--wal".into(),
                wal.display().to_string(),
            ]);
            let mut resume_args = fresh_args.clone();
            resume_args.push("--resume".into());
            ShardPlan {
                index: i,
                program: program.clone(),
                fresh_args,
                resume_args,
                wal,
                stderr_path: dir.join(format!("shard-{i}.stderr")),
            }
        })
        .collect();
    let report = epvf_llfi::supervise(&plans, policy, &mut |event| {
        let line = narrate(&event, shards, dir);
        emit(&event, line);
    })
    .map_err(|e| CliError::io(format!("supervising shard workers: {e}")))?;
    Ok((report, plans.into_iter().map(|p| p.wal).collect()))
}

/// The fail-closed message (exit 5) naming every shard that exhausted
/// its retry budget and how its last attempt failed; `None` when every
/// shard finished.
pub(crate) fn exhausted(report: &SupervisorReport) -> Option<String> {
    let causes: Vec<String> = report
        .shards
        .iter()
        .filter(|s| !s.ok)
        .map(|s| {
            format!(
                "shard {} ({} after {} attempt(s))",
                s.index,
                s.last_failure
                    .map_or_else(|| "unknown failure".into(), |k| k.to_string()),
                s.attempts
            )
        })
        .collect();
    (!causes.is_empty()).then(|| {
        format!(
            "{} of {} shards failed past the retry budget: {}",
            causes.len(),
            report.shards.len(),
            causes.join(", ")
        )
    })
}

/// One narration line per notable supervision event, naming the failure
/// family distinctly (signal vs. nonzero exit vs. stall vs. deadline, as
/// the exit-code table documents) and appending the tail of the failed
/// worker's captured stderr.
fn narrate(event: &SupervisorEvent, shards: usize, dir: &Path) -> Option<String> {
    match event {
        SupervisorEvent::Spawned {
            shard,
            attempt,
            resumed,
        } => (*attempt > 1 || *resumed).then(|| {
            format!(
                "supervisor: shard {shard}/{shards} attempt {attempt} started{}",
                if *resumed {
                    " (resuming from WAL)"
                } else {
                    " (fresh)"
                }
            )
        }),
        SupervisorEvent::Failed {
            shard,
            attempt,
            kind,
            will_retry,
            backoff,
        } => {
            let cause = match kind {
                FailureKind::Signal(sig) => format!("crashed (killed by signal {sig})"),
                FailureKind::Exit(code) => format!("failed (exited with code {code})"),
                FailureKind::Stalled => "hung (stalled: no WAL progress)".to_string(),
                FailureKind::DeadlineExceeded => "hung (exceeded the shard deadline)".to_string(),
                FailureKind::SpawnError => "failed (could not spawn)".to_string(),
            };
            let next = if *will_retry {
                format!("restarting in {} ms", backoff.as_millis())
            } else {
                "retry budget exhausted".to_string()
            };
            let tail = stderr_tail(&dir.join(format!("shard-{shard}.stderr")));
            Some(format!(
                "supervisor: shard {shard}/{shards} attempt {attempt} {cause}; {next}{tail}"
            ))
        }
        SupervisorEvent::Succeeded { shard, attempt } => (*attempt > 1)
            .then(|| format!("supervisor: shard {shard}/{shards} recovered on attempt {attempt}")),
        SupervisorEvent::Chaos { shard, action } => {
            Some(format!("supervisor: chaos {action} -> shard {shard}"))
        }
    }
}

/// ` [stderr: …]` holding the last 512 bytes of a worker's captured
/// stderr flattened to one line, or nothing when there are none.
fn stderr_tail(path: &Path) -> String {
    let Ok(bytes) = std::fs::read(path) else {
        return String::new();
    };
    let tail = String::from_utf8_lossy(&bytes[bytes.len().saturating_sub(512)..])
        .trim()
        .replace('\n', " | ");
    if tail.is_empty() {
        tail
    } else {
        format!(" [stderr: {tail}]")
    }
}

/// Identify which shard of `0..of` wrote each WAL by matching its header
/// fingerprint against the expected partition geometry. Rejects foreign
/// files, duplicates, and incomplete shard sets with exit 4.
fn assign_shard_wals(
    wals: &[PathBuf],
    fingerprint: impl Fn(ShardSpec) -> u64,
) -> Result<Vec<(ShardSpec, &PathBuf)>, CliError> {
    let of = wals.len();
    let expect: BTreeMap<u64, usize> = (0..of)
        .map(|i| (fingerprint(ShardSpec::new(i, of).expect("i < of")), i))
        .collect();
    let mut seen: BTreeMap<usize, &PathBuf> = BTreeMap::new();
    for path in wals {
        let fp = read_wal_fingerprint(path)?;
        let Some(&i) = expect.get(&fp) else {
            return Err(CliError::input(format!(
                "{} is not a shard of this campaign (fingerprint {fp:#018x} matches no \
                 shard 0..{of}; wrong target, run count, seed, fault model, or --of?)",
                path.display()
            )));
        };
        if let Some(prev) = seen.insert(i, path) {
            return Err(CliError::input(format!(
                "{} and {} are both shard {i}/{of} of this campaign",
                prev.display(),
                path.display()
            )));
        }
    }
    Ok(seen
        .into_iter()
        .map(|(i, p)| (ShardSpec::new(i, of).expect("validated geometry"), p))
        .collect())
}

/// Fold a campaign's shard WALs into one result over `specs`.
///
/// A complete merge (`failed` is `None`) identifies each WAL by its
/// header and rejects foreign, duplicated, or torn logs and any gap
/// (exit 4). A salvage, given the shards that exhausted their retries,
/// reads WAL `i` as shard `i`, keeps whatever intact prefix each log
/// holds (a log without a usable header adds nothing), and tolerates
/// gaps. The second value counts the runs still missing.
pub(crate) fn merge_wals(
    campaign: &Campaign<'_>,
    specs: &[InjectionSpec],
    wals: &[PathBuf],
    failed: Option<&[usize]>,
) -> Result<(CampaignResult, usize), CliError> {
    let whole = CampaignKey::of(campaign, Draw::Specs(specs)).fingerprint();
    let fingerprint = |shard| CampaignKey::hashed(whole).shard(shard).fingerprint();
    let assigned = match failed {
        None => assign_shard_wals(wals, fingerprint)?,
        Some(_) => wals
            .iter()
            .enumerate()
            .map(|(i, p)| (ShardSpec::new(i, wals.len()).expect("i < len"), p))
            .collect(),
    };
    let mut merged = ShardOutcomes::empty();
    let mut salvaged = 0u64;
    for (shard, path) in assigned {
        let outcomes = match (WalSink::recover(path, fingerprint(shard)), failed) {
            (Ok((_, rec)), None) if rec.torn > 0 => {
                return Err(CliError::input(format!(
                    "{}: {} torn record(s) — shard {shard} did not finish; re-run it with --resume",
                    path.display(),
                    rec.torn
                )))
            }
            (Ok((_, rec)), _) => ShardOutcomes::from_recovered(&rec),
            (Err(e), None) => return Err(e.into()),
            (Err(_), Some(_)) => ShardOutcomes::empty(),
        };
        if failed.is_some_and(|f| f.contains(&shard.index())) {
            salvaged += outcomes.len() as u64;
        }
        merged = merged.merge(outcomes).map_err(CliError::input)?;
    }
    if failed.is_some() {
        add(Ctr::SupervisorSalvagedRuns, salvaged);
        return merged.into_partial_result(specs).map_err(CliError::input);
    }
    add(Ctr::MergeShardWals, wals.len() as u64);
    let fi = merged.into_result(specs).map_err(CliError::input)?;
    Ok((fi, 0))
}

/// Check a campaign result against the aggregate algebra's conservation
/// laws and render its `epvf inject` summary, analyzing the golden trace
/// unless `cached` already holds that analysis. Returns the summary and
/// the aggregate.
pub(crate) fn report(
    label: &str,
    seed: u64,
    campaign: &Campaign<'_>,
    fi: &CampaignResult,
    cached: Option<&EpvfResult>,
) -> Result<(String, CampaignAggregate), CliError> {
    let fresh;
    let res = match cached {
        Some(res) => res,
        None => {
            fresh = analyze_golden(campaign)?;
            &fresh
        }
    };
    let agg = CampaignAggregate::from_result(fi, campaign.sites(), Some(&res.crash_map));
    agg.check()
        .map_err(|e| CliError::campaign(format!("merged aggregate inconsistent: {e}")))?;
    Ok((summary::inject_summary(label, seed, campaign, res, fi), agg))
}

/// Pull `--index I` and `--of S` out of the raw argument list, returning
/// the validated shard spec plus the remaining arguments.
fn extract_shard_spec(rest: &[String]) -> Result<(ShardSpec, Vec<String>), CliError> {
    let mut index: Option<usize> = None;
    let mut of: Option<usize> = None;
    let mut remaining = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => index = Some(flag_value(&mut it, a)?),
            "--of" => of = Some(flag_value(&mut it, a)?),
            _ => remaining.push(a.clone()),
        }
    }
    let index = index.ok_or_else(|| CliError::usage("shard requires --index I"))?;
    let of = of.ok_or_else(|| CliError::usage("shard requires --of S"))?;
    let shard = ShardSpec::new(index, of).ok_or_else(|| {
        CliError::usage(format!(
            "invalid shard geometry: --index {index} --of {of} (need 0 <= index < of)"
        ))
    })?;
    Ok((shard, remaining))
}

/// `epvf shard <target> [N] [SEED] --index I --of S --wal FILE [...]`
///
/// Runs one strided slice of the campaign as an independent OS process.
/// The WAL is mandatory: a shard's only durable product is its log, which
/// `epvf merge` folds back into the aggregate.
pub(crate) fn cmd_shard(t: Target, rest: &[String]) -> Result<(), CliError> {
    let (shard, rest) = extract_shard_spec(rest)?;
    let (config, opts) = parse_inject_opts(&rest)?;
    if opts.sample {
        return Err(CliError::usage(
            "shard does not support --sample (adaptive sampling is a sequential policy; \
             shard the exhaustive draw instead)",
        ));
    }
    let wal = opts
        .wal
        .as_deref()
        .ok_or_else(|| CliError::usage("shard requires --wal FILE"))?;
    let campaign = build_campaign(&t, config, &opts)?;
    let specs = campaign.draw_specs(opts.runs, opts.seed);
    let fi = run_slice(&campaign, &specs, shard, Some(wal), opts.resume)?;
    print!(
        "{}",
        summary::shard_summary(&t.label, opts.seed, shard, specs.len(), &campaign, &fi)
    );
    summary::finish_campaign(
        &t.label,
        &campaign,
        &fi,
        opts.quarantine_dir.as_deref(),
        opts.max_unsound,
    )
}

/// Pull every occurrence of `--flag VALUE` out of the argument list.
fn extract_all(rest: &mut Vec<String>, flag: &str) -> Result<Vec<PathBuf>, CliError> {
    let mut out = Vec::new();
    while let Some(i) = rest.iter().position(|a| a == flag) {
        if i + 1 >= rest.len() {
            return Err(CliError::usage(format!("{flag} needs a path")));
        }
        out.push(PathBuf::from(rest.remove(i + 1)));
        rest.remove(i);
    }
    Ok(out)
}

/// `epvf merge <target> [N] [SEED] --wal FILE... [--metrics-in FILE...]
/// [--metrics-merged FILE]`
///
/// The shard count is the number of `--wal` flags. For a complete shard
/// set the stdout is byte-identical to the single-process `epvf inject`
/// of the same campaign.
pub(crate) fn cmd_merge(t: Target, rest: &[String]) -> Result<(), CliError> {
    let mut rest = rest.to_vec();
    let wals = extract_all(&mut rest, "--wal")?;
    let metrics_in = extract_all(&mut rest, "--metrics-in")?;
    let mut metrics_merged = extract_all(&mut rest, "--metrics-merged")?;
    if metrics_merged.len() > 1 {
        return Err(CliError::usage("--metrics-merged given more than once"));
    }
    let (config, opts) = parse_inject_opts(&rest)?;
    if wals.is_empty() {
        return Err(CliError::usage("merge requires --wal FILE (one per shard)"));
    }
    if opts.resume || opts.sample {
        return Err(CliError::usage("merge takes neither --resume nor --sample"));
    }

    let campaign = build_campaign(&t, config, &opts)?;
    let specs = campaign.draw_specs(opts.runs, opts.seed);
    let (fi, _) = merge_wals(&campaign, &specs, &wals, None)?;
    let (text, _) = report(&t.label, opts.seed, &campaign, &fi, None)?;
    print!("{text}");

    if !metrics_in.is_empty() {
        let merged = merge_metrics_files(&metrics_in)?;
        let violations = merged.check_conservation();
        for v in &violations {
            eprintln!("merged metrics: conservation violation: {v}");
        }
        if !violations.is_empty() {
            return Err(CliError::Metrics(format!(
                "merged shard metrics break {} conservation law(s)",
                violations.len()
            )));
        }
        // Status, not summary: stdout must stay byte-identical to the
        // single-process `epvf inject` run.
        eprintln!(
            "metrics   : merged {} shard snapshot(s), conservation ok",
            metrics_in.len()
        );
        if let Some(path) = metrics_merged.pop() {
            MetricsReport::new(merged)
                .with_meta("tool", "epvf")
                .with_meta("command", "merge")
                .with_meta("shards", metrics_in.len().to_string())
                .write_file(&path)
                .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))?;
        }
    } else if !metrics_merged.is_empty() {
        return Err(CliError::usage("--metrics-merged requires --metrics-in"));
    }

    summary::finish_campaign(&t.label, &campaign, &fi, None, opts.max_unsound)
}

/// Parse every line of every `--metrics-in` file and fold the snapshots
/// with the associative/commutative snapshot merge.
fn merge_metrics_files(files: &[PathBuf]) -> Result<MetricsSnapshot, CliError> {
    let mut merged = MetricsSnapshot::default();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::io(format!("reading {}: {e}", file.display())))?;
        let mut parsed = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let report = MetricsReport::parse(line)
                .map_err(|e| CliError::input(format!("{}: {e}", file.display())))?;
            merged
                .merge(&report.snapshot)
                .map_err(|e| CliError::input(format!("{}: {e}", file.display())))?;
            parsed += 1;
        }
        if parsed == 0 {
            return Err(CliError::input(format!(
                "{}: no metrics documents",
                file.display()
            )));
        }
    }
    Ok(merged)
}

/// `run-sharded`'s own flags, pulled out of the argument list before the
/// rest is both parsed locally and forwarded verbatim to the workers.
struct RunShardedOpts {
    shards: usize,
    policy: SupervisorConfig,
    allow_partial: bool,
    work_dir: Option<PathBuf>,
    counters_out: Option<PathBuf>,
}

fn extract_run_sharded_opts(rest: &[String]) -> Result<(RunShardedOpts, Vec<String>), CliError> {
    let mut opts = RunShardedOpts {
        shards: 0,
        policy: SupervisorConfig::default(),
        allow_partial: false,
        work_dir: None,
        counters_out: None,
    };
    let mut forwarded = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => opts.shards = flag_value(&mut it, a)?,
            "--backoff-ms" => {
                let ms: u64 = flag_value(&mut it, a)?;
                opts.policy.backoff_base = Duration::from_millis(ms.max(1));
            }
            "--allow-partial" => opts.allow_partial = true,
            "--work-dir" => opts.work_dir = Some(flag_value(&mut it, a)?),
            "--counters-out" => opts.counters_out = Some(flag_value(&mut it, a)?),
            "--chaos" => {
                let spec: String = flag_value(&mut it, a)?;
                opts.policy.chaos = Some(
                    ChaosConfig::parse(&spec)
                        .map_err(|e| CliError::usage(format!("--chaos: {e}")))?,
                );
            }
            flag => {
                if !policy_flag(&mut opts.policy, flag, &mut it)? {
                    forwarded.push(a.clone());
                }
            }
        }
    }
    if opts.shards == 0 {
        return Err(CliError::usage("run-sharded requires --shards S (S >= 1)"));
    }
    Ok((opts, forwarded))
}

/// `epvf run-sharded <target> [N] [SEED] --shards S [...]`: the whole
/// sharded campaign under the fault-tolerant supervisor, merged into the
/// same summary bytes a single-process `epvf inject` prints.
///
/// When a shard exhausts its retries the command fails with exit 5,
/// unless `--allow-partial` is given: then the merge salvages the
/// completed shards plus the failed shards' WAL prefixes, prints the
/// summary over the salvaged runs plus a `partial:` line, and exits 9 so
/// scripts can tell "complete" from "best effort" without parsing stdout.
pub(crate) fn cmd_run_sharded(rest: &[String]) -> Result<(), CliError> {
    let (spec, rest) = rest
        .split_first()
        .ok_or_else(|| CliError::usage("missing <target>"))?;
    let (mut sup, forwarded) = extract_run_sharded_opts(rest)?;
    let (config, opts) = parse_inject_opts(&forwarded)?;
    if opts.wal.is_some() || opts.resume || opts.sample {
        return Err(CliError::usage(
            "run-sharded takes neither --wal, --resume nor --sample \
             (it owns the shard WALs itself)",
        ));
    }

    let t = resolve(spec)?;
    let campaign = build_campaign(&t, config, &opts)?;
    let specs = campaign.draw_specs(opts.runs, opts.seed);
    sup.policy.seed = opts.seed;
    let dir = sup.work_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("epvf-run-sharded-{}", std::process::id()))
    });
    let merged = launch(
        spec,
        &forwarded,
        sup.shards,
        &dir,
        &sup.policy,
        &mut |_, line| {
            if let Some(line) = line {
                eprintln!("{line}");
            }
        },
    )
    .and_then(|(report, wals)| {
        let failed = report.failed_shards();
        match exhausted(&report) {
            Some(why) if !sup.allow_partial => Err(CliError::campaign(format!(
                "{why} (re-run with --allow-partial to salvage their WAL prefixes)"
            ))),
            _ => {
                let salvage = (!failed.is_empty()).then_some(failed.as_slice());
                let (fi, missing) = merge_wals(&campaign, &specs, &wals, salvage)?;
                Ok((fi, missing, failed))
            }
        }
    });
    if sup.work_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (fi, missing, failed) = merged?;

    let (text, agg) = report(&t.label, opts.seed, &campaign, &fi, None)?;
    print!("{text}");
    if let Some(path) = &sup.counters_out {
        write_class_counters(path, &agg)?;
    }
    if failed.is_empty() {
        return summary::finish_campaign(&t.label, &campaign, &fi, None, opts.max_unsound);
    }
    let failed_list: Vec<String> = failed.iter().map(usize::to_string).collect();
    let retries = sup.policy.retries;
    let partial_line = format!(
        "partial: salvaged {}/{} runs ({missing} missing) after shard(s) {} \
         exhausted {retries} retr{}; rates above cover salvaged runs only",
        fi.n(),
        specs.len(),
        failed_list.join(","),
        if retries == 1 { "y" } else { "ies" },
    );
    println!("{partial_line}");
    Err(CliError::Partial(partial_line))
}

/// Write the merged campaign's `llfi.campaign.runs_*` class counters as
/// a standalone metrics document derived from the WAL records alone.
/// The parent registry is no use here: killed worker attempts lose
/// their in-memory counts and resumed attempts do not re-count
/// recovered runs, but the WAL union *is* the campaign — so these
/// counters match a single-process run byte-for-byte, which is exactly
/// what the chaos harness diffs.
fn write_class_counters(path: &Path, agg: &CampaignAggregate) -> Result<(), CliError> {
    let mut snap = MetricsSnapshot::default();
    snap.counters
        .insert("llfi.campaign.runs_total".into(), agg.n);
    for (name, &count) in CampaignAggregate::CLASS_NAMES.iter().zip(&agg.classes) {
        snap.counters
            .insert(format!("llfi.campaign.runs_{name}"), count);
    }
    MetricsReport::new(snap)
        .with_meta("tool", "epvf")
        .with_meta("command", "run-sharded")
        .write_file(path)
        .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))
}
