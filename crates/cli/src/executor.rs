//! The campaign executor behind `epvf inject`, `shard`, and `merge`.
//!
//! A campaign over `draw_specs(N, seed)` is partitioned by striding:
//! shard `i` of `S` runs the global spec indices `{g : g % S == i}`. The
//! executor does two jobs, each in one place:
//!
//! - [`run_slice`] runs one slice in this process, optionally streaming
//!   it into a crash-safe WAL that it creates or resumes. `epvf inject`
//!   is the whole slice ([`ShardSpec::WHOLE`]), whose fingerprint and WAL
//!   bytes equal `epvf shard --index 0 --of 1`'s. A real shard's
//!   fingerprint is domain-separated by `(i, S)`, so its log can never
//!   resume, or merge, under the wrong partition geometry.
//! - [`merge_wals`] reads the shard WALs, leaving them as they are, and
//!   folds them back into one `CampaignResult`, which renders the same
//!   summary bytes as a single-process `epvf inject` of the whole
//!   campaign.
//!
//! The `shard` and `merge` commands are thin front ends over those jobs
//! and live here too.

use crate::{flag_value, parse_inject_opts, read_text, summary, CliError, InjectOpts, Target};
use epvf_core::{analyze, EpvfConfig, EpvfResult};
use epvf_interp::InjectionSpec;
use epvf_llfi::{
    read_wal_fingerprint, Campaign, CampaignConfig, CampaignKey, CampaignResult, Draw, InjOutcome,
    RecoveredWal, RunSession, ShardOutcomes, ShardSpec, WalSink,
};
use epvf_telemetry::{add, Ctr, MetricsReport, MetricsSnapshot};
use epvf_workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// Fold a campaign's shard WALs into one result over `specs`. Each WAL
/// is identified by its header and read without being changed; foreign,
/// duplicated, or torn logs and any gap are malformed input (exit 4).
fn merge_wals(
    campaign: &Campaign<'_>,
    specs: &[InjectionSpec],
    wals: &[PathBuf],
) -> Result<CampaignResult, CliError> {
    let whole = CampaignKey::of(campaign, Draw::Specs(specs)).fingerprint();
    let fingerprint = |shard| CampaignKey::hashed(whole).shard(shard).fingerprint();
    let mut merged = ShardOutcomes::empty();
    for (shard, path) in assign_shard_wals(wals, fingerprint)? {
        let rec = RecoveredWal::read(path, fingerprint(shard))?;
        if rec.torn > 0 {
            return Err(CliError::input(format!(
                "{}: {} torn record(s) — shard {shard} did not finish; re-run it with --resume",
                path.display(),
                rec.torn
            )));
        }
        merged = merged
            .merge(ShardOutcomes::from_recovered(&rec))
            .map_err(CliError::input)?;
    }
    add(Ctr::MergeShardWals, wals.len() as u64);
    merged.into_result(specs).map_err(CliError::input)
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
    out!(
        "{}",
        summary::shard_summary(&t.label, opts.seed, shard, specs.len(), &campaign, &fi)
    )?;
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
    let fi = merge_wals(&campaign, &specs, &wals)?;
    let res = analyze_golden(&campaign)?;
    out!(
        "{}",
        summary::inject_summary(&t.label, opts.seed, &campaign, &res, &fi)
    )?;

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
        let text = read_text(file)?;
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
