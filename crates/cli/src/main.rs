//! `epvf` — command-line front end for the ePVF toolchain.
//!
//! ```text
//! epvf list                          the built-in benchmark suite
//! epvf dump <target>                 print a program's textual IR
//! epvf run <target>                  golden run: outputs + trace size
//! epvf analyze <target>              PVF / ePVF / crash-rate metrics
//! epvf inject <target> [N] [SEED]    fault-injection campaign summary
//! epvf oracle <target>               exhaustive ground truth vs the models
//! epvf protect <target> [BUDGET]     §V selective-duplication comparison
//! epvf metrics-check <file>...       validate --metrics-out / bench JSON
//! ```
//!
//! Every command accepts `--metrics-out FILE`, which dumps the pipeline's
//! telemetry registry (counters + phase timers) as one line of versioned
//! JSON on successful exit.
//!
//! `<target>` is a built-in benchmark name (`epvf list`), optionally
//! suffixed `:tiny` / `:small` / `:standard`, or a path to a textual IR
//! file (as produced by `epvf dump`); file targets run their `main`
//! function with no arguments.

use epvf_core::{
    analyze, analyze_compositional, parse_fault_model, per_instruction_scores, AceConfig,
    EpvfConfig, FaultModel, SectionCache,
};
use epvf_interp::{ExecConfig, Interpreter};
use epvf_ir::{parse_module, Module};
use epvf_llfi::{
    Campaign, CampaignConfig, CampaignKey, Draw, RunSession, SamplerConfig, ShardSpec, WalError,
};
use epvf_oracle::{
    calibrate, differential_check, hard_invariant_scan, outcome_label, parse_repro, replay_repro,
    sweep, write_repros, ReplayError, ReproContext,
};
use epvf_protect::{plan_protection, rank_instructions, RankingStrategy};
use epvf_telemetry::{MetricsReport, Progress};
use epvf_workloads::{by_name, extended_suite, Scale, Workload};
use std::process::ExitCode;

/// `print!` through [`write_stdout`]: evaluates to its `Result`.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]: evaluates to its `Result`.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod executor;
mod summary;

/// Write to stdout. A reader that closed it early makes this
/// [`CliError::StdoutClosed`]; any other failure is an I/O error.
fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    use std::io::Write as _;
    std::io::stdout()
        .write_fmt(args)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::StdoutClosed,
            _ => CliError::io(format!("writing stdout: {e}")),
        })
}

/// Structured CLI failure: every variant maps to a distinct, documented
/// exit code (see the bottom of `epvf --help`) so scripts and CI can
/// distinguish "you typed it wrong" from "your input is malformed" from
/// "the campaign degraded".
#[derive(Debug)]
enum CliError {
    /// Exit 2 — bad command line (unknown command/flag, malformed value).
    Usage(String),
    /// Exit 3 — the campaign finished, but its quarantine + timeout rate
    /// exceeded the `--max-unsound` threshold: results are partial.
    Degraded(String),
    /// Exit 4 — malformed input file (IR parse/verify error, bad repro,
    /// WAL from a different campaign).
    Input(String),
    /// Exit 5 — campaign/interpreter setup failure (golden run failed,
    /// no injectable sites, internal invariant).
    Campaign(String),
    /// Exit 6 — filesystem I/O failure.
    Io(String),
    /// Exit 7 — a metrics artifact failed schema validation or broke a
    /// conservation law.
    Metrics(String),
    /// Exit 8 — oracle hard-invariant violation or repro replay
    /// divergence.
    Oracle(String),
    /// Exit 0, quietly — the reader of stdout closed it (`epvf … | head`),
    /// so the command stops writing.
    StdoutClosed,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
    fn input(msg: impl std::fmt::Display) -> Self {
        CliError::Input(msg.to_string())
    }
    fn campaign(msg: impl std::fmt::Display) -> Self {
        CliError::Campaign(msg.to_string())
    }
    fn io(msg: impl std::fmt::Display) -> Self {
        CliError::Io(msg.to_string())
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Degraded(_) => 3,
            CliError::Input(_) => 4,
            CliError::Campaign(_) => 5,
            CliError::Io(_) => 6,
            CliError::Metrics(_) => 7,
            CliError::Oracle(_) => 8,
            CliError::StdoutClosed => 0,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Degraded(m)
            | CliError::Input(m)
            | CliError::Campaign(m)
            | CliError::Io(m)
            | CliError::Metrics(m)
            | CliError::Oracle(m) => m,
            CliError::StdoutClosed => "stdout closed",
        }
    }
}

/// Read a text input file. Bytes that are not UTF-8 make the file
/// malformed input (exit 4), like any other parse failure; a missing or
/// unreadable file is an I/O failure (exit 6).
fn read_text(path: impl AsRef<std::path::Path>) -> Result<String, CliError> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| {
        let msg = format!("reading {}: {e}", path.display());
        match e.kind() {
            std::io::ErrorKind::InvalidData => CliError::input(msg),
            _ => CliError::io(msg),
        }
    })
}

/// Map a [`WalError`] to the right CLI class: filesystem problems are
/// I/O, everything else means the file's *content* is unusable.
impl From<WalError> for CliError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(_) => CliError::io(e),
            _ => CliError::input(e),
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_out = match extract_metrics_out(&mut args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {}", e.message());
            return ExitCode::from(e.exit_code());
        }
    };
    // Scoped so the span lands in the registry before `write_metrics`
    // snapshots it.
    let result = {
        let _span = epvf_telemetry::span(epvf_telemetry::Tmr::CliCommand);
        match args.first().map(String::as_str) {
            Some("list") => cmd_list(args.get(1..).unwrap_or(&[])),
            Some("dump") => with_target(&args, cmd_dump),
            Some("run") => with_target(&args, cmd_run),
            Some("analyze") => with_target(&args, cmd_analyze),
            Some("inject") => with_target(&args, cmd_inject),
            Some("shard") => with_target(&args, executor::cmd_shard),
            Some("merge") => with_target(&args, executor::cmd_merge),
            Some("oracle") => cmd_oracle(args.get(1..).unwrap_or(&[])),
            Some("protect") => with_target(&args, cmd_protect),
            Some("metrics-check") => cmd_metrics_check(args.get(1..).unwrap_or(&[])),
            Some("--help" | "-h" | "help") | None => {
                eprint!("{}", USAGE);
                Ok(())
            }
            Some(other) => Err(CliError::usage(format!(
                "unknown command `{other}`\n{USAGE}"
            ))),
        }
    };
    // A degraded campaign still writes its metrics — partial results are
    // the whole point of graceful degradation.
    let metrics_result = write_metrics(metrics_out.as_deref(), &args);
    let result = match (result, metrics_result) {
        (Ok(()) | Err(CliError::StdoutClosed), r) => r,
        (err, _) => err,
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Pull `--metrics-out <path>` (valid on every command) out of the raw
/// argument list so the per-command parsers never see it.
fn extract_metrics_out(args: &mut Vec<String>) -> Result<Option<std::path::PathBuf>, CliError> {
    let Some(i) = args.iter().position(|a| a == "--metrics-out") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(CliError::usage("--metrics-out needs a path"));
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Ok(Some(path.into()))
}

/// Dump the process-global telemetry registry to `path` as one line of
/// versioned JSON, stamped with the command line that produced it.
fn write_metrics(path: Option<&std::path::Path>, args: &[String]) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let report = MetricsReport::new(epvf_telemetry::global_snapshot())
        .with_meta("tool", "epvf")
        .with_meta("command", args.first().map_or("", String::as_str))
        .with_meta("argv", args.join(" "));
    report
        .write_file(path)
        .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))
}

/// Validate `--metrics-out` / `BENCH_*.json` artifacts: every line must
/// parse under the current schema version and satisfy the pipeline's
/// conservation laws.
fn cmd_metrics_check(args: &[String]) -> Result<(), CliError> {
    // `--diff-counters PREFIX A B`: compare every counter under PREFIX
    // between two metrics files — the shard-smoke CI gate uses this to
    // assert a merged multi-shard campaign produced exactly the
    // single-process `llfi.campaign.` counters.
    if args.first().map(String::as_str) == Some("--diff-counters") {
        let [prefix, a, b] = args
            .get(1..4)
            .and_then(|s| <&[String; 3]>::try_from(s).ok())
            .ok_or(CliError::usage(
                "--diff-counters needs PREFIX FILE_A FILE_B",
            ))?;
        if let Some(extra) = args.get(4) {
            return Err(CliError::usage(format!("unexpected argument `{extra}`")));
        }
        return diff_counters(prefix, a, b);
    }
    let files = args;
    if files.is_empty() {
        return Err(CliError::usage("metrics-check needs at least one file"));
    }
    let mut bad = 0usize;
    for file in files {
        let text = match read_text(file) {
            Ok(text) => text,
            // A file that is not UTF-8 is one more malformed document.
            Err(CliError::Input(_)) => {
                eprintln!("{file}: schema error: not valid UTF-8");
                bad += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let where_ = if text.lines().filter(|l| !l.trim().is_empty()).count() > 1 {
                format!("{file}:{}", lineno + 1)
            } else {
                file.clone()
            };
            match MetricsReport::parse(line) {
                Err(e) => {
                    eprintln!("{where_}: schema error: {e}");
                    bad += 1;
                }
                Ok(report) => {
                    let violations = report.snapshot.check_conservation();
                    for v in &violations {
                        eprintln!("{where_}: conservation violation: {v}");
                    }
                    if violations.is_empty() {
                        outln!(
                            "{where_}: ok ({} counters, {} timers)",
                            report.snapshot.counters.len(),
                            report.snapshot.timers.len()
                        )?;
                    } else {
                        bad += 1;
                    }
                }
            }
        }
    }
    if bad > 0 {
        Err(CliError::Metrics(format!(
            "{bad} invalid metrics document(s)"
        )))
    } else {
        Ok(())
    }
}

/// Load the single metrics document a `--diff-counters` operand must
/// contain.
fn load_metrics(file: &str) -> Result<MetricsReport, CliError> {
    let text = read_text(file)?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let line = lines
        .next()
        .ok_or_else(|| CliError::input(format!("{file}: no metrics documents")))?;
    if lines.next().is_some() {
        return Err(CliError::input(format!(
            "{file}: --diff-counters expects exactly one metrics document"
        )));
    }
    MetricsReport::parse(line).map_err(|e| CliError::input(format!("{file}: {e}")))
}

/// Compare every counter whose name starts with `prefix` between two
/// metrics files; exit 7 on any difference.
fn diff_counters(prefix: &str, file_a: &str, file_b: &str) -> Result<(), CliError> {
    let a = load_metrics(file_a)?.snapshot;
    let b = load_metrics(file_b)?.snapshot;
    let names: std::collections::BTreeSet<&String> = a
        .counters
        .keys()
        .chain(b.counters.keys())
        .filter(|n| n.starts_with(prefix))
        .collect();
    if names.is_empty() {
        return Err(CliError::usage(format!(
            "no counters match prefix `{prefix}`"
        )));
    }
    let mut mismatches = 0usize;
    for name in &names {
        let (va, vb) = (a.counter(name), b.counter(name));
        if va != vb {
            eprintln!("{name}: {va} ({file_a}) != {vb} ({file_b})");
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        Err(CliError::Metrics(format!(
            "{mismatches} of {} `{prefix}` counter(s) differ",
            names.len()
        )))
    } else {
        outln!(
            "ok: {} `{prefix}` counter(s) identical across {file_a} and {file_b}",
            names.len()
        )?;
        Ok(())
    }
}

const USAGE: &str = "\
usage: epvf <command> [args]

  list                         list built-in benchmarks
  dump <target>                print textual IR
  run <target>                 golden run summary
  analyze <target>             PVF / ePVF metrics
    --section-cache DIR        compositional analysis with a persistent
                               per-section summary cache in DIR: a warm
                               re-analysis replays unchanged sections in
                               O(diff) and prints hit/miss stats; results
                               are byte-identical to the monolithic pass
  inject <target> [N] [SEED]   fault-injection campaign (default 1000, 42)
    --ckpt-interval K          replay checkpoint spacing in dyn insts
                               (0 = full from-scratch replays; default auto)
    --threads T                campaign worker threads (default: all cores)
    --wal FILE                 append completed runs to a crash-safe
                               write-ahead log
    --resume                   recover FILE (requires --wal) and run only
                               the missing specs; aggregates are
                               byte-identical to an uninterrupted run
    --fuel N                   kill injected runs after N dyn insts
                               (outcome: timed out, deterministic)
    --max-unsound R            exit 3 (degraded) when the quarantined +
                               timed-out fraction exceeds R (default 0.05)
    --quarantine-dir DIR       write a replayable .repro per quarantined
                               run to DIR
    --poison-at N              test hook: panic every injected run at dyn
                               inst N (exercises panic isolation)
    --sample                   adaptive stratified sampling: stop when the
                               95% CI half-width on the SDC and crash
                               rates is under --target-ci, instead of
                               running a fixed draw; a positional run
                               count becomes the hard cap
    --target-ci W              CI half-width target (implies --sample;
                               default 0.02)
    --pilot N                  pilot draws per stratum (default 16)
    --batch N                  max runs allocated per round (default 256)
    --fault-model M            fault model: bitflip (default), dest
                               (destination-register flip), burst[:N]
                               (N adjacent flips, default 2), skip
                               (instruction skip), wrong-branch,
                               store-addr, ecc[:W] (SEC-DED memory word,
                               report window W dyn insts, default 100)
  shard <target> [N] [SEED]    run one strided slice of an inject campaign
    --index I --of S           this process owns spec indices ≡ I (mod S)
    --wal FILE                 required: the shard's crash-safe log, its
                               fingerprint domain-separated by (I, S) so it
                               cannot resume or merge under the wrong
                               partition geometry
    --resume                   recover FILE and run only the missing slice
    (other inject flags as above; --sample is not shardable)
  merge <target> [N] [SEED]    fold shard WALs into the full aggregate;
                               stdout is byte-identical to the equivalent
                               single-process `epvf inject`
    --wal FILE                 one per shard (the shard count is the number
                               of --wal flags); incomplete, foreign,
                               duplicated, or torn shard sets exit 4;
                               merge only reads the WALs
    --metrics-in FILE          per-shard --metrics-out snapshots to fold
                               with the snapshot merge algebra
    --metrics-merged FILE      write the folded snapshot (requires
                               --metrics-in); conservation laws re-checked
  oracle <target>              exhaustive bit-flip oracle vs crash model
    --workload NAME            alternative way to name the target
    --limit N                  subsample the sweep to ~N runs (0 = all)
    --max-repros K             disagreement repros to keep (default 8)
    --repro-dir DIR            write replayable .repro files to DIR
    --replay FILE              re-execute one .repro file instead, under
                               the fault model it records; a spec that is
                               not one of the program's injection points
                               exits 4
    --calibrate W              also run an adaptive sampled campaign with
                               CI target W and check its estimates
                               bracket the exhaustive truth (exit 8 when
                               they don't)
    --fault-model M            sweep M's injection universe instead of
                               single-bit flips (models as for inject)
    --ckpt-interval K / --threads T   as for inject
  protect <target> [BUDGET]    ePVF vs hot-path duplication (default 0.24)
  metrics-check <file>...      validate metrics JSON artifacts (schema +
                               conservation laws); nonzero exit on violation
  metrics-check --diff-counters PREFIX A B
                               compare every counter under PREFIX between
                               two metrics files; exit 7 on any difference

  --metrics-out FILE           (any command) write pipeline telemetry as
                               one line of versioned JSON

<target> = benchmark[:tiny|:small|:standard] or a .ir file path

exit codes:
  0  success
  2  usage error (unknown command/flag, malformed value)
  3  degraded campaign (quarantine + timeout rate over --max-unsound;
     partial results and metrics are still written)
  4  invalid input file (IR parse/verify, bad repro, foreign WAL, shard
     WAL resumed or merged under the wrong --index/--of geometry,
     incomplete or duplicated shard set)
  5  campaign setup failure (golden run failed, no injectable sites)
  6  I/O error
  7  metrics validation failure (schema or conservation law)
  8  oracle violation (hard invariant, or replay diverged)
";

/// Resolved target: a module plus how to run it.
struct Target {
    /// The benchmark's name or the IR file's path, as `target` lines print it.
    label: String,
    /// The benchmark's scale; `None` for an IR file.
    scale: Option<Scale>,
    module: Module,
    args: Vec<u64>,
}

impl Target {
    /// The label with the scale (`lud:tiny`), as repro files carry it in
    /// their names and `# label:` lines: a program's scales are different
    /// programs, so their repros must neither share a name nor pass for
    /// one another.
    fn scaled_label(&self) -> String {
        match self.scale {
            Some(s) => format!("{}:{}", self.label, s.pick("tiny", "small", "standard")),
            None => self.label.clone(),
        }
    }
}

fn resolve(spec: &str) -> Result<Target, CliError> {
    let (name, scale) = match spec.split_once(':') {
        Some((n, "tiny")) => (n, Scale::Tiny),
        Some((n, "small")) => (n, Scale::Small),
        Some((n, "standard")) => (n, Scale::Standard),
        // Any other suffix is a scale typo, unless the whole spec names a
        // file (`lud:v2.ir`).
        Some((_, s)) if !std::path::Path::new(spec).exists() => {
            return Err(CliError::usage(format!("unknown scale `{s}`")))
        }
        _ => (spec, Scale::Small),
    };
    if let Some(w) = by_name(name, scale) {
        return Ok(Target {
            label: w.name.to_string(),
            scale: Some(scale),
            module: w.module,
            args: w.args,
        });
    }
    if std::path::Path::new(spec).exists() {
        let text = read_text(spec)?;
        let module =
            parse_module(&text).map_err(|e| CliError::input(format!("parsing {spec}: {e}")))?;
        return Ok(Target {
            label: spec.to_string(),
            scale: None,
            module,
            args: vec![],
        });
    }
    Err(CliError::usage(format!(
        "`{spec}` is neither a benchmark (see `epvf list`) nor an IR file"
    )))
}

fn with_target(
    args: &[String],
    f: impl FnOnce(Target, &[String]) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let spec = args.get(1).ok_or(CliError::usage("missing <target>"))?;
    f(resolve(spec)?, args.get(2..).unwrap_or(&[]))
}

fn cmd_list(rest: &[String]) -> Result<(), CliError> {
    positionals(rest, 0)?;
    outln!(
        "{:15} {:20} {:>12} {:>9}",
        "name",
        "domain",
        "dyn insts",
        "outputs"
    )?;
    for w in extended_suite(Scale::Small) {
        let g = w.golden();
        outln!(
            "{:15} {:20} {:>12} {:>9}",
            w.name,
            w.domain,
            g.dyn_insts,
            g.outputs.len()
        )?;
    }
    Ok(())
}

fn cmd_dump(t: Target, rest: &[String]) -> Result<(), CliError> {
    positionals(rest, 0)?;
    out!("{}", t.module)?;
    Ok(())
}

fn cmd_run(t: Target, rest: &[String]) -> Result<(), CliError> {
    positionals(rest, 0)?;
    let r = Interpreter::new(&t.module, ExecConfig::default())
        .run(Workload::ENTRY, &t.args, None)
        .map_err(CliError::campaign)?;
    outln!("outcome      : {}", r.outcome)?;
    outln!("dyn IR insts : {}", r.dyn_insts)?;
    outln!("outputs      : {}", r.outputs.len())?;
    for (bits, ty) in r.outputs.iter().zip(&r.output_tys).take(16) {
        if ty.is_float() {
            outln!("  {ty} {}", f64::from_bits(*bits))?;
        } else {
            outln!("  {ty} {}", ty.sign_extend(*bits))?;
        }
    }
    if r.outputs.len() > 16 {
        outln!("  … ({} more)", r.outputs.len() - 16)?;
    }
    Ok(())
}

fn cmd_analyze(t: Target, rest: &[String]) -> Result<(), CliError> {
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--section-cache" => cache_dir = Some(flag_value(&mut it, a)?),
            other => return Err(stray(other)),
        }
    }
    let golden = Interpreter::new(&t.module, ExecConfig::default())
        .golden_run(Workload::ENTRY, &t.args)
        .map_err(CliError::campaign)?;
    let trace = golden
        .trace
        .as_ref()
        .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
    let config = EpvfConfig::default();
    // `--section-cache` switches to the compositional engine (O(diff) on a
    // warm cache), which produces byte-identical metrics to `analyze`.
    let mut cache =
        match &cache_dir {
            Some(dir) => Some(SectionCache::persistent(dir).map_err(|e| {
                CliError::io(format!("opening section cache {}: {e}", dir.display()))
            })?),
            None => None,
        };
    let res = match &mut cache {
        Some(cache) => analyze_compositional(&t.module, trace, config, cache),
        None => analyze(&t.module, trace, config),
    };
    let m = &res.metrics;
    outln!("target        : {}", t.label)?;
    outln!("dyn IR insts  : {}", m.dyn_insts)?;
    outln!("DDG nodes     : {}", m.ddg_nodes)?;
    outln!("ACE nodes     : {}", m.ace_nodes)?;
    outln!("PVF           : {:.4}", m.pvf)?;
    outln!("ePVF          : {:.4}", m.epvf)?;
    outln!(
        "crash bits    : {} of {} ACE register bits",
        m.crash_register_bits,
        m.ace_register_bits
    )?;
    outln!("crash rate est: {:.1}%", 100.0 * m.crash_rate_estimate)?;
    outln!(
        "analysis time : {:.1} ms graph + {:.1} ms models",
        m.graph_time.as_secs_f64() * 1e3,
        m.model_time.as_secs_f64() * 1e3
    )?;
    if let Some(cache) = &cache {
        let s = cache.stats();
        outln!(
            "section cache : {} hits / {} misses of {} sections",
            s.hits,
            s.misses,
            s.sections
        )?;
    }
    Ok(())
}

/// Parsed `inject` options beyond the shared campaign config.
#[derive(Default)]
struct InjectOpts {
    runs: usize,
    /// Whether the run count was given explicitly (in `--sample` mode an
    /// explicit count becomes the hard cap; omitted means "up to the
    /// whole population").
    runs_given: bool,
    seed: u64,
    wal: Option<std::path::PathBuf>,
    resume: bool,
    max_unsound: f64,
    quarantine_dir: Option<std::path::PathBuf>,
    sample: bool,
    target_ci: f64,
    pilot: usize,
    batch: usize,
    /// `--fault-model`; `None` means the default single-bit flip.
    model: Option<std::sync::Arc<dyn FaultModel>>,
}

impl InjectOpts {
    /// The `--fault-model`, or the default single-bit flip.
    fn fault_model(&self) -> std::sync::Arc<dyn FaultModel> {
        self.model
            .clone()
            .unwrap_or_else(epvf_core::default_fault_model)
    }
}

fn parse_inject_opts(rest: &[String]) -> Result<(CampaignConfig, InjectOpts), CliError> {
    let mut config = CampaignConfig::default();
    let mut opts = InjectOpts {
        runs: 1000,
        seed: 42,
        max_unsound: 0.05,
        target_ci: SamplerConfig::default().target_ci,
        pilot: SamplerConfig::default().pilot,
        batch: SamplerConfig::default().batch,
        ..InjectOpts::default()
    };
    let mut positional: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ckpt-interval" => {
                let k: u64 = flag_value(&mut it, a)?;
                config.ckpt_interval = if k == 0 { CampaignConfig::CKPT_OFF } else { k };
            }
            "--threads" => config.threads = flag_value::<usize>(&mut it, a)?.max(1),
            "--fuel" => config.exec.fuel = Some(flag_value(&mut it, a)?),
            "--poison-at" => config.exec.poison_at = Some(flag_value(&mut it, a)?),
            "--wal" => opts.wal = Some(flag_value(&mut it, a)?),
            "--resume" => opts.resume = true,
            "--fault-model" => {
                let spec: String = flag_value(&mut it, a)?;
                opts.model = Some(parse_fault_model(&spec).map_err(CliError::usage)?);
            }
            "--sample" => opts.sample = true,
            "--target-ci" => {
                opts.sample = true;
                opts.target_ci = flag_value(&mut it, a)?;
                if !(opts.target_ci.is_finite() && opts.target_ci >= 0.0) {
                    return Err(bad_arg(a));
                }
            }
            "--pilot" => {
                opts.pilot = flag_value(&mut it, a)?;
                if opts.pilot == 0 {
                    return Err(bad_arg(a));
                }
            }
            "--batch" => {
                opts.batch = flag_value(&mut it, a)?;
                if opts.batch == 0 {
                    return Err(bad_arg(a));
                }
            }
            "--max-unsound" => opts.max_unsound = flag_value(&mut it, a)?,
            "--quarantine-dir" => opts.quarantine_dir = Some(flag_value(&mut it, a)?),
            flag if flag.starts_with("--") => return Err(stray(flag)),
            _ => positional.push(a),
        }
    }
    if opts.resume && opts.wal.is_none() {
        return Err(CliError::usage("--resume requires --wal FILE"));
    }
    opts.runs_given = !positional.is_empty();
    opts.runs = positional
        .first()
        .map_or(Ok(1000), |s| s.parse().map_err(|_| bad_arg("run count")))?;
    opts.seed = positional
        .get(1)
        .map_or(Ok(42), |s| s.parse().map_err(|_| bad_arg("seed")))?;
    if let Some(extra) = positional.get(2) {
        return Err(CliError::usage(format!("unexpected argument `{extra}`")));
    }
    Ok((config, opts))
}

fn bad_arg(what: &str) -> CliError {
    CliError::usage(format!("bad {what}"))
}

/// The usage error for an argument no parser claimed: an unknown flag or
/// an unexpected positional.
fn stray(arg: &str) -> CliError {
    if arg.starts_with("--") {
        CliError::usage(format!("unknown flag `{arg}`"))
    } else {
        CliError::usage(format!("unexpected argument `{arg}`"))
    }
}

/// `rest` as at most `max` positional arguments; any flag, or any
/// argument past `max`, is a usage error (exit 2).
fn positionals(rest: &[String], max: usize) -> Result<&[String], CliError> {
    match rest.iter().find(|a| a.starts_with("--")).or(rest.get(max)) {
        Some(arg) => Err(stray(arg)),
        None => Ok(rest),
    }
}

/// Parse the value of `flag` from the next argument: exit 2 when it is
/// missing or malformed.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    it.next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| bad_arg(flag))
}

fn cmd_inject(t: Target, rest: &[String]) -> Result<(), CliError> {
    let (config, opts) = parse_inject_opts(rest)?;
    let campaign = executor::build_campaign(&t, config, &opts)?;
    if opts.sample {
        return cmd_inject_sampled(&t, &campaign, &opts);
    }
    let res = executor::analyze_golden(&campaign)?;
    let specs = campaign.draw_specs(opts.runs, opts.seed);

    // With --wal, completed runs stream into a crash-safe log;
    // --resume salvages a previous log first and re-runs only what's
    // missing, reproducing byte-identical aggregates.
    let fi = executor::run_slice(
        &campaign,
        &specs,
        ShardSpec::WHOLE,
        opts.wal.as_deref(),
        opts.resume,
    )?;

    // The summary renderer is shared with `epvf merge`: a merged N-shard
    // campaign must reproduce these bytes exactly (the differential
    // shard-equivalence suite diffs the two outputs).
    out!(
        "{}",
        summary::inject_summary(&t.label, opts.seed, &campaign, &res, &fi)
    )?;
    summary::finish_campaign(
        &t.scaled_label(),
        &campaign,
        &fi,
        opts.quarantine_dir.as_deref(),
        opts.max_unsound,
    )
}

/// `epvf inject --sample`: adaptive stratified campaign that stops when
/// the 95% CI half-width on both the SDC and crash rates drops under
/// `--target-ci`, instead of enumerating (or uniformly subsampling) the
/// flip universe.
fn cmd_inject_sampled(t: &Target, campaign: &Campaign, opts: &InjectOpts) -> Result<(), CliError> {
    let cfg = SamplerConfig {
        target_ci: opts.target_ci,
        pilot: opts.pilot,
        batch: opts.batch,
        // An explicit positional run count becomes the hard cap; omitted
        // means "spend what the CI target needs, up to the population".
        max_runs: if opts.runs_given { opts.runs } else { 0 },
        seed: opts.seed,
    };

    let report = match &opts.wal {
        Some(path) => {
            let fp = CampaignKey::of(campaign, Draw::Sampler(cfg)).fingerprint();
            executor::with_wal(path, fp, opts.resume, |sink, records| {
                // Records are keyed by global run index in the
                // deterministic execution sequence; the sampler replays
                // them in place.
                let session = RunSession {
                    recovered: records.into_iter().map(|(i, (_, o))| (i, o)).collect(),
                    wal: Some(sink),
                    ..RunSession::default()
                };
                Ok(campaign.run_adaptive_session(cfg, &session))
            })?
        }
        None => campaign.run_adaptive(cfg),
    };

    outln!("target    : {} (sampled, seed {})", t.label, opts.seed)?;
    let model_name = campaign.model().name();
    if model_name != epvf_core::DEFAULT_MODEL {
        outln!("model     : {model_name}")?;
    }
    outln!(
        "sampling  : {} of {} flips in {} round(s), {:.1}x fewer runs",
        report.executed,
        report.population,
        report.rounds,
        report.savings()
    )?;
    outln!(
        "stopping  : {} (target ci ±{:.4})",
        if report.converged {
            "converged"
        } else if (report.executed as u64) >= report.population {
            "population exhausted"
        } else {
            "run cap reached"
        },
        report.target_ci
    )?;
    for (label, est) in [("sdc", &report.sdc), ("crash", &report.crash)] {
        outln!(
            "{label:9} : {:.4} ±{:.4}  wilson [{:.4}, {:.4}]  exact [{:.4}, {:.4}]",
            est.rate,
            est.half_width,
            est.wilson.0,
            est.wilson.1,
            est.clopper_pearson.0,
            est.clopper_pearson.1
        )?;
    }
    outln!(
        "{:22} {:>10} {:>8} {:>6} {:>7} {:>7}",
        "stratum",
        "population",
        "drawn",
        "fill",
        "sdc",
        "crash"
    )?;
    for s in &report.strata {
        outln!(
            "{:22} {:>10} {:>8} {:>5.0}% {:>7} {:>7}",
            s.class.to_string(),
            s.population,
            s.executed,
            100.0 * s.fill(),
            s.sdc,
            s.crash
        )?;
    }

    if let Some(dir) = &opts.quarantine_dir {
        if !report.quarantines.is_empty() {
            let prefix = t.scaled_label().replace([':', '/'], "-");
            let paths = campaign
                .write_quarantine_repros(dir, &prefix, &report.quarantines)
                .map_err(|e| CliError::io(format!("writing quarantine repros: {e}")))?;
            outln!(
                "quarantine: {} repro file(s) in {}",
                paths.len(),
                dir.display()
            )?;
        }
    }

    // Same graceful-degradation contract as the exhaustive path. Sampled
    // reports fold supervised kills into per-stratum `other`, so the gate
    // is on the quarantine fraction (the replayable, diagnosable part).
    let quarantined = report.quarantines.len() as f64 / report.executed.max(1) as f64;
    if quarantined > opts.max_unsound {
        let msg = format!(
            "campaign degraded: {:.1}% of sampled runs quarantined \
             (threshold {:.1}%); estimates above are partial",
            100.0 * quarantined,
            100.0 * opts.max_unsound
        );
        Progress::new("inject", 0).note(&msg);
        return Err(CliError::Degraded(msg));
    }
    Ok(())
}

fn cmd_oracle(rest: &[String]) -> Result<(), CliError> {
    let mut config = CampaignConfig::default();
    let mut target: Option<String> = None;
    let mut limit = 0usize;
    let mut max_repros = 8usize;
    let mut repro_dir: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut calibrate_ci: Option<f64> = None;
    let mut model: Option<std::sync::Arc<dyn FaultModel>> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let name: String = flag_value(&mut it, a)?;
                if target.is_some() {
                    return Err(stray(&name));
                }
                target = Some(name);
            }
            "--limit" => limit = flag_value(&mut it, a)?,
            "--max-repros" => max_repros = flag_value(&mut it, a)?,
            "--repro-dir" => repro_dir = Some(flag_value(&mut it, a)?),
            "--replay" => replay = Some(flag_value(&mut it, a)?),
            "--fault-model" => {
                let spec: String = flag_value(&mut it, a)?;
                model = Some(parse_fault_model(&spec).map_err(CliError::usage)?);
            }
            "--calibrate" => {
                let w: f64 = flag_value(&mut it, a)?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(bad_arg(a));
                }
                calibrate_ci = Some(w);
            }
            "--ckpt-interval" => {
                let k: u64 = flag_value(&mut it, a)?;
                config.ckpt_interval = if k == 0 { CampaignConfig::CKPT_OFF } else { k };
            }
            "--threads" => config.threads = flag_value::<usize>(&mut it, a)?.max(1),
            flag if flag.starts_with("--") => return Err(stray(flag)),
            positional if target.is_some() => return Err(stray(positional)),
            positional => target = Some(positional.to_string()),
        }
    }

    if let Some(path) = replay {
        let text = read_text(&path)?;
        let repro = parse_repro(&text).map_err(CliError::input)?;
        // A spec outside the program's injection space did not come from
        // this program: the file is malformed, not the campaign.
        let outcome = replay_repro(&repro).map_err(|e| match e {
            ReplayError::Campaign(_) => CliError::campaign(e),
            ReplayError::OutsideSpace { .. } => CliError::input(e),
        })?;
        let observed = outcome_label(outcome);
        outln!("repro     : {path}")?;
        outln!("spec      : {}", repro.spec)?;
        outln!("recorded  : {}", repro.observed)?;
        outln!("replayed  : {observed}")?;
        return if observed == repro.observed {
            outln!("verdict   : reproduced")?;
            Ok(())
        } else {
            Err(CliError::Oracle(
                "replay diverged from the recorded outcome".into(),
            ))
        };
    }

    let t = resolve(&target.ok_or(CliError::usage(
        "missing <target> (or --workload NAME / --replay FILE)",
    ))?)?;
    let model = model.unwrap_or_else(epvf_core::default_fault_model);
    let campaign = Campaign::with_model(&t.module, Workload::ENTRY, &t.args, config, model)
        .map_err(CliError::campaign)?;
    let trace = campaign
        .golden()
        .trace
        .as_ref()
        .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
    let res = analyze(&t.module, trace, EpvfConfig::default());
    let gt = sweep(&campaign, limit);
    let report = differential_check(&campaign, &res, &gt, max_repros);
    let violations = hard_invariant_scan(&campaign, &res, &gt);

    let [crash, sdc, benign, hang, detected, timed_out, quarantined] = gt.tally();
    outln!(
        "target    : {} ({} of {} possible flips{})",
        t.label,
        gt.runs.len(),
        gt.universe,
        if gt.is_exhaustive() {
            ", exhaustive"
        } else {
            ""
        }
    )?;
    let model_name = campaign.model().name();
    if model_name != epvf_core::DEFAULT_MODEL {
        outln!("model     : {model_name}")?;
    }
    outln!(
        "outcomes  : crash {crash}  sdc {sdc}  benign {benign}  hang {hang}  detected {detected}"
    )?;
    if timed_out + quarantined > 0 {
        outln!("supervised: timed-out {timed_out}  quarantined {quarantined}")?;
    }
    let c = report.confusion;
    outln!(
        "confusion : tp {}  fp {}  fn {}  tn {}",
        c.tp,
        c.fp,
        c.fn_,
        c.tn
    )?;
    outln!("recall    : {:.4}   (paper Table V: 0.89)", c.recall())?;
    outln!("precision : {:.4}   (paper Table V: 0.92)", c.precision())?;
    outln!(
        "disagree  : {} ({} masked-SDC)",
        report.total_disagreements,
        report.masked_sdc
    )?;
    if let Some(dir) = repro_dir {
        let label = t.scaled_label();
        let ctx = ReproContext {
            label: &label,
            module: &t.module,
            entry: Workload::ENTRY,
            args: &t.args,
            model: &model_name,
            trace,
        };
        // A non-default model names the files too, so sweeps of one
        // program under two models can share a directory.
        let prefix = if model_name == epvf_core::DEFAULT_MODEL {
            label.clone()
        } else {
            format!("{label}-{model_name}")
        };
        let paths = write_repros(
            std::path::Path::new(&dir),
            &prefix.replace([':', '/'], "-"),
            &ctx,
            &report.disagreements,
        )
        .map_err(|e| CliError::io(format!("writing repros: {e}")))?;
        outln!("repros    : {} file(s) in {dir}", paths.len())?;
    }
    // Calibration mode: score the adaptive sampler's estimates against
    // the exhaustive table just built — the sampled rates must land
    // inside their own reported Clopper-Pearson intervals.
    if let Some(w) = calibrate_ci {
        if !gt.is_exhaustive() {
            return Err(CliError::usage(
                "--calibrate needs exhaustive ground truth (drop --limit)",
            ));
        }
        let sampled = campaign.run_adaptive(SamplerConfig {
            target_ci: w,
            ..SamplerConfig::default()
        });
        let cal = calibrate(&gt, &sampled);
        out!("{}", cal.render())?;
        if !cal.passed() {
            return Err(CliError::Oracle(
                "sampled estimate fell outside its reported confidence interval".into(),
            ));
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("hard violation: {:?} {}", v.spec, v.detail);
        }
        return Err(CliError::Oracle(format!(
            "{} hard invariant violation(s)",
            violations.len()
        )));
    }
    Ok(())
}

fn cmd_protect(t: Target, rest: &[String]) -> Result<(), CliError> {
    let budget: f64 = positionals(rest, 1)?
        .first()
        .map_or(Ok(0.24), |s| s.parse().map_err(|_| bad_arg("budget")))?;
    let campaign = Campaign::new(
        &t.module,
        Workload::ENTRY,
        &t.args,
        CampaignConfig::default(),
    )
    .map_err(CliError::campaign)?;
    let trace = campaign
        .golden()
        .trace
        .as_ref()
        .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
    let res = analyze(
        &t.module,
        trace,
        EpvfConfig {
            ace: AceConfig {
                include_control: false,
            },
            ..EpvfConfig::default()
        },
    );
    let scores = per_instruction_scores(&t.module, trace, &res.ddg, &res.ace, &res.crash_map);
    let base = campaign.run(1000, 42);
    outln!("target      : {} (budget {:.0}%)", t.label, budget * 100.0)?;
    outln!("unprotected : SDC {:.1}%", 100.0 * base.sdc_rate())?;
    for (label, strategy) in [
        ("ePVF", RankingStrategy::Epvf),
        ("hot-path", RankingStrategy::HotPath),
    ] {
        let ranking = rank_instructions(strategy, &scores);
        let plan = plan_protection(
            &t.module,
            Workload::ENTRY,
            &t.args,
            &ranking,
            budget,
            usize::MAX,
        );
        let pc = Campaign::new(
            &plan.module,
            Workload::ENTRY,
            &t.args,
            CampaignConfig::default(),
        )
        .map_err(CliError::campaign)?;
        let fi = pc.run(1000, 42);
        outln!(
            "{label:11} : SDC {:.1}%  detected {:.1}%  ({} insts, {:.1}% overhead)",
            100.0 * fi.sdc_rate(),
            100.0 * fi.detected_rate(),
            plan.protected.len(),
            100.0 * plan.overhead
        )?;
    }
    Ok(())
}
