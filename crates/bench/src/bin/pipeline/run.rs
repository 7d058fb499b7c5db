//! One workload in one process: set-up, timed passes, and its metrics.

use crate::gate::{self, Digests};
use crate::stats::{percentile, Summary};
use crate::trace::{self, is_op, Span, Tracer};
use crate::workloads::{Inputs, Size, Workload};
use epvf_telemetry::Ctr;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput", "work/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("interp.golden_ms", "ms"),
    ("interp.replay_us_p50", "us"),
    ("interp.replay_us_p99", "us"),
    ("interp.replay_insts_per_run", "count"),
    ("memsim.cow_copies_per_run", "count"),
    ("ddg.build_ms", "ms"),
    ("ddg.ace_ms", "ms"),
    ("ddg.nodes", "count"),
    ("core.propagate_ms", "ms"),
    ("core.tightenings_per_slice", "ratio"),
    ("core.metrics_ms", "ms"),
    ("core.compose_cold_ms", "ms"),
    ("core.compose_warm_ms", "ms"),
    ("core.compose_edit_ms", "ms"),
    ("core.cache.hit_frac", "ratio"),
    ("core.cache.stored", "count"),
    ("core.cache.corrupt", "count"),
    ("llfi.prepare_ms", "ms"),
    ("llfi.campaign_ms", "ms"),
    ("llfi.early_benign_frac", "ratio"),
    ("llfi.wal_ms", "ms"),
    ("llfi.wal.records", "count"),
    ("llfi.wal.flushes", "count"),
    ("llfi.merge_ms", "ms"),
    ("bench.tracing_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Set-up (input construction plus the warm-up pass) runs this many times
/// in an untraced run, and `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    /// Timed passes start until this much time has passed.
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric: its value and the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Spans of the traced passes (empty unless traced).
    pub spans: Vec<Span>,
}

/// A scratch directory for cache and WAL files, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory under `root/pipeline-scratch/`.
    ///
    /// # Errors
    /// The directory cannot be created.
    pub fn new(root: &Path) -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join("pipeline-scratch").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size in KiB from the text of `/proc/self/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vmhwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    let summary = Summary::of(values);
    Metric {
        name,
        unit,
        value: summary.median,
        summary,
    }
}

/// Build the inputs and run the warm-up pass: one set-up, timed.
fn set_up(opts: &RunOpts, scratch: &Path) -> Result<(Inputs, f64, Digests), String> {
    let t = Instant::now();
    let inputs = Inputs::build(opts.workload, opts.size, opts.seed);
    let out = inputs.run_pass(&mut Tracer::new(false), scratch)?;
    Ok((inputs, t.elapsed().as_secs_f64(), out.digests))
}

/// Run one workload: set up, check the warm-up digests against the pins
/// and the identities, then time passes until `opts.seconds` have passed.
/// The further set-ups behind `setup_s` are spread evenly over that window,
/// so a short burst of load on the host does not hit all of them. With
/// `opts.trace`, untraced and traced passes alternate, and the per-layer
/// metrics come from the traced ones.
///
/// # Errors
/// Any result that fails the correctness gate, or a filesystem failure.
pub fn run(opts: &RunOpts, scratch: &Path) -> Result<Report, String> {
    let name = opts.workload.name();
    let (inputs, first, warm) = set_up(opts, scratch)?;
    if opts.size == Size::Full {
        gate::check_pinned(gate::EXPECTED, name, opts.seed, &warm)?;
    }
    inputs.check_identities(&warm, scratch)?;
    let mut setup = vec![first];
    let setup_reps = if opts.trace { 1 } else { SETUP_REPS };

    let mut tracer = Tracer::new(false);
    let mut spans: Vec<Span> = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let t0 = Instant::now();
    loop {
        let traced_pass = opts.trace && plain.len() > traced.len();
        tracer.set_on(traced_pass);
        let t = Instant::now();
        let out = inputs.run_pass(&mut tracer, scratch)?;
        let secs = t.elapsed().as_secs_f64();
        let pass = plain.len() + traced.len() + 1;
        gate::check_same(&format!("{name} pass {pass}"), &warm, &out.digests)?;
        attempted += out.attempted;
        failed += out.failed;
        if traced_pass {
            traced.push(out.work / secs);
            let pass_spans = tracer.take();
            layers.push(layer_metrics(&pass_spans)?);
            let base = spans.len();
            spans.extend(pass_spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        } else {
            plain.push(out.work / secs);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if setup.len() < setup_reps
            && elapsed >= opts.seconds * setup.len() as f64 / setup_reps as f64
        {
            let (_, secs, digests) = set_up(opts, scratch)?;
            gate::check_same(
                &format!("{name} set-up {}", setup.len() + 1),
                &warm,
                &digests,
            )?;
            setup.push(secs);
        }
        let enough =
            !plain.is_empty() && (!opts.trace || !traced.is_empty()) && setup.len() == setup_reps;
        if enough && elapsed >= opts.seconds {
            break;
        }
    }

    let metrics = if opts.trace {
        let replay = inputs.replay_samples_us()?;
        let overhead = 1.0 - Summary::of(&traced).median / Summary::of(&plain).median;
        PER_LAYER
            .iter()
            .map(|&(n, unit)| match n {
                "interp.replay_us_p50" | "interp.replay_us_p99" => {
                    let p = if n.ends_with("p50") { 50.0 } else { 99.0 };
                    Metric {
                        name: n,
                        unit,
                        value: percentile(&replay, p),
                        summary: Summary::of(&replay),
                    }
                }
                "bench.tracing_overhead_frac" => metric(n, unit, &[overhead]),
                _ => {
                    let per_pass: Vec<f64> = layers.iter().map(|m| m[n]).collect();
                    metric(n, unit, &per_pass)
                }
            })
            .collect()
    } else {
        // Load from other tenants of a shared host only ever slows a pass,
        // so throughput is the upper quartile of the passes: the speed of
        // the least disturbed quarter. Across ten seeds its spread measured
        // about half that of the median.
        let passes = Summary::of(&plain);
        vec![
            Metric {
                name: END_TO_END[0].0,
                unit: END_TO_END[0].1,
                value: passes.q3,
                summary: passes,
            },
            metric(END_TO_END[1].0, END_TO_END[1].1, &setup),
            metric(END_TO_END[2].0, END_TO_END[2].1, &[peak_rss_mib()?]),
        ]
    };
    Ok(Report {
        workload: opts.workload,
        attempted,
        failed,
        metrics,
        spans,
    })
}

/// The per-layer metrics of one traced pass, from its spans.
///
/// # Errors
/// The spans' self times do not add up to the ops' time, i.e. a span lies
/// outside every op.
fn layer_metrics(spans: &[Span]) -> Result<BTreeMap<&'static str, f64>, String> {
    let by = trace::self_time_by_name(spans);
    let op_ns: u64 = spans
        .iter()
        .filter(|s| is_op(s.name))
        .map(Span::dur_ns)
        .sum();
    let self_ns: u64 = by.values().sum();
    if self_ns != op_ns {
        return Err(format!(
            "span self times add to {self_ns} ns but ops took {op_ns} ns"
        ));
    }
    let unattributed: u64 = by.iter().filter(|(n, _)| is_op(n)).map(|(_, t)| t).sum();
    let ms = |n: &str| by.get(n).copied().unwrap_or(0) as f64 / 1e6;
    let in_ops = |c: Ctr| trace::count_in(spans, c, is_op) as f64;
    let in_campaign = |c: Ctr| trace::count_in(spans, c, |n| n == "llfi.campaign") as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let runs = in_campaign(Ctr::CampaignRunsTotal);
    let mut m = BTreeMap::new();
    for (n, span) in [
        ("interp.golden_ms", "interp.golden"),
        ("ddg.build_ms", "ddg.build"),
        ("ddg.ace_ms", "ddg.ace"),
        ("core.propagate_ms", "core.propagate"),
        ("core.metrics_ms", "core.metrics"),
        ("core.compose_cold_ms", "core.compose_cold"),
        ("core.compose_warm_ms", "core.compose_warm"),
        ("core.compose_edit_ms", "core.compose_edit"),
        ("llfi.prepare_ms", "llfi.prepare"),
        ("llfi.campaign_ms", "llfi.campaign"),
        ("llfi.wal_ms", "llfi.wal"),
        ("llfi.merge_ms", "llfi.merge"),
    ] {
        m.insert(n, ms(span));
    }
    m.insert(
        "interp.replay_insts_per_run",
        ratio(in_campaign(Ctr::InterpInstsRetired), runs),
    );
    m.insert(
        "memsim.cow_copies_per_run",
        ratio(in_campaign(Ctr::MemCowPageCopies), runs),
    );
    m.insert("ddg.nodes", in_ops(Ctr::DdgNodesCreated));
    m.insert(
        "core.tightenings_per_slice",
        ratio(
            in_ops(Ctr::PropConstraintsTightened),
            in_ops(Ctr::PropSlicesWalked),
        ),
    );
    m.insert(
        "core.cache.hit_frac",
        ratio(
            in_ops(Ctr::AnalyzeCacheHits),
            in_ops(Ctr::AnalyzeCacheSections),
        ),
    );
    m.insert("core.cache.stored", in_ops(Ctr::AnalyzeCacheStored));
    m.insert("core.cache.corrupt", in_ops(Ctr::AnalyzeCacheCorrupt));
    m.insert(
        "llfi.early_benign_frac",
        ratio(in_campaign(Ctr::CampaignEarlyBenign), runs),
    );
    m.insert("llfi.wal.records", in_ops(Ctr::WalRecordsAppended));
    m.insert("llfi.wal.flushes", in_ops(Ctr::WalFlushes));
    m.insert(
        "bench.unattributed_frac",
        ratio(unattributed as f64, op_ns as f64),
    );
    Ok(m)
}

/// The human-readable metric lines, `workload metric value unit (n, q1,
/// median, q3)`.
pub fn metric_lines(r: &Report) -> Vec<String> {
    r.metrics
        .iter()
        .map(|m| {
            format!(
                "{} {} {} {} ({}, {}, {}, {})",
                r.workload.name(),
                m.name,
                m.value,
                m.unit,
                m.summary.n,
                m.summary.q1,
                m.summary.median,
                m.summary.q3
            )
        })
        .collect()
}

/// The one-line result the benchmark prints last.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                crate::json::quote(m.name),
                crate::json::num(m.value),
                crate::json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_parsed_from_proc_status_text() {
        let status =
            "Name:\tpipeline\nVmPeak:\t  250000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12345));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("linux has VmHWM") > 0.0);
        }
    }

    fn smoke(w: Workload, trace: bool) -> Report {
        let scratch = Scratch::new(&std::env::temp_dir()).expect("scratch dir");
        let opts = RunOpts {
            workload: w,
            size: Size::Tiny,
            seed: 1,
            seconds: 0.0,
            trace,
        };
        let r = run(&opts, scratch.path()).expect("tiny run passes the gate");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        }
        .iter()
        .map(|&(n, _)| n)
        .collect();
        assert_eq!(names, declared);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0);
        let json = crate::json::Json::parse(&result_json(&r)).expect("result is JSON");
        assert_eq!(json.get("correct"), Some(&crate::json::Json::Bool(true)));
        r
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    }

    #[test]
    fn smoke_analyze_suite() {
        let r = smoke(Workload::AnalyzeSuite, false);
        assert!(value(&r, "throughput") > 0.0);
        assert!(value(&r, "setup_s") > 0.0);
        let t = smoke(Workload::AnalyzeSuite, true);
        assert!(value(&t, "core.propagate_ms") > 0.0);
        assert!(value(&t, "ddg.nodes") > 0.0);
        assert_eq!(value(&t, "llfi.campaign_ms"), 0.0);
        assert!((0.0..1.0).contains(&value(&t, "bench.unattributed_frac")));
    }

    #[test]
    fn smoke_analyze_deep() {
        smoke(Workload::AnalyzeDeep, false);
        let t = smoke(Workload::AnalyzeDeep, true);
        assert!(value(&t, "core.propagate_ms") > 0.0);
    }

    #[test]
    fn smoke_analyze_incremental() {
        smoke(Workload::AnalyzeIncremental, false);
        let t = smoke(Workload::AnalyzeIncremental, true);
        assert!(value(&t, "core.compose_cold_ms") > 0.0);
        assert!(value(&t, "core.compose_warm_ms") > 0.0);
    }

    #[test]
    fn smoke_inject_campaign() {
        smoke(Workload::InjectCampaign, false);
        let t = smoke(Workload::InjectCampaign, true);
        assert!(value(&t, "llfi.campaign_ms") > 0.0);
        assert!(value(&t, "interp.replay_us_p99") >= value(&t, "interp.replay_us_p50"));
        assert!(value(&t, "interp.replay_us_p50") > 0.0);
        assert_eq!(value(&t, "ddg.build_ms"), 0.0);
    }
}
