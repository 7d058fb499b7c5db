//! Metric-invariant tests: conservation laws over `--metrics-out`
//! snapshots, plus the cross-configuration contract — every counter
//! marked invariant in the schema must be byte-identical whatever
//! `--threads` / `--ckpt-interval` the same command ran with (the
//! telemetry face of the replay engine's determinism guarantee).

use epvf_telemetry::MetricsReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Run the epvf binary with `--metrics-out` and parse the document.
fn run_with_metrics(args: &[&str]) -> MetricsReport {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "epvf-metrics-{}-{}.json",
        std::process::id(),
        args.join("_").replace(['/', ':'], "-")
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .arg("--metrics-out")
        .arg(&path)
        .output()
        .expect("epvf binary runs");
    assert!(
        out.status.success(),
        "epvf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    std::fs::remove_file(&path).ok();
    MetricsReport::parse(&text).expect("metrics document parses")
}

fn assert_conserved(report: &MetricsReport, what: &str) {
    let violations = report.snapshot.check_conservation();
    assert!(violations.is_empty(), "{what}: {violations:?}");
}

#[test]
fn analyze_counters_obey_conservation_laws() {
    for target in ["mm:tiny", "bfs:tiny"] {
        let report = run_with_metrics(&["analyze", target]);
        assert_conserved(&report, target);
        let c = |n: &str| report.snapshot.counter(n);
        // One traced golden run feeds one analysis, so the interpreter's
        // retired-instruction count IS the analyzed trace length.
        assert_eq!(c("core.analyses"), 1, "{target}");
        assert_eq!(
            c("interp.golden.insts_retired"),
            c("core.trace_len"),
            "{target}: trace length must equal golden instructions retired"
        );
        assert_eq!(
            c("ddg.nodes_created"),
            c("ace.nodes_visited").max(c("ddg.nodes_created")),
            "{target}: ACE graph cannot exceed the DDG"
        );
        assert!(c("ddg.nodes_created") > 0, "{target}: DDG was built");
        assert!(
            c("core.propagation.slices_walked") > 0,
            "{target}: propagation ran"
        );
        assert!(
            report.snapshot.timers.contains_key("ddg.build"),
            "{target}: ddg.build timer recorded"
        );
    }
}

#[test]
fn inject_outcome_classes_sum_to_total_runs() {
    let report = run_with_metrics(&["inject", "mm:tiny", "200", "7", "--threads", "1"]);
    assert_conserved(&report, "inject mm:tiny");
    let c = |n: &str| report.snapshot.counter(n);
    // cmd_inject runs the main campaign (200) plus a precision study
    // ((200/2).max(100) = 100), every run classified exactly once.
    assert_eq!(c("llfi.campaign.runs_total"), 300);
    assert_eq!(
        c("llfi.campaign.runs_crash")
            + c("llfi.campaign.runs_sdc")
            + c("llfi.campaign.runs_benign")
            + c("llfi.campaign.runs_hang")
            + c("llfi.campaign.runs_detected"),
        c("llfi.campaign.runs_total")
    );
}

/// The work a campaign does, pinned by value: the interpreter's runs,
/// instructions, loads, stores and checkpoints, the memory simulator's
/// access checks, page copies and page materializations, and the runs that
/// rejoined the golden run early. Outcome percentages alone would not
/// notice a change that validates fewer accesses or replays more
/// instructions. How pages are looked up and how the interpreter schedules
/// its checks must not move these values.
#[test]
fn inject_work_counters_are_pinned() {
    const NAMES: [&str; 9] = [
        "interp.runs",
        "interp.insts_retired",
        "interp.loads",
        "interp.stores",
        "interp.checkpoints_taken",
        "memsim.fault_checks",
        "memsim.cow_page_copies",
        "memsim.pages_materialized",
        "llfi.campaign.early_benign",
    ];
    for (target, want) in [
        (
            "mm:tiny",
            [302, 416_932, 47_768, 3_610, 5, 51_378, 219, 75, 10],
        ),
        (
            "bfs:tiny",
            [302, 332_798, 36_355, 31_787, 7, 68_142, 249, 56, 35],
        ),
    ] {
        let report = run_with_metrics(&["inject", target, "200", "7", "--threads", "1"]);
        let got = NAMES.map(|n| (n, report.snapshot.counter(n)));
        let want: Vec<_> = NAMES.into_iter().zip(want).collect();
        assert_eq!(got.to_vec(), want, "{target}");
    }
}

/// The invariant subset of the snapshot for one epvf command line.
fn invariant_subset(args: &[&str]) -> BTreeMap<String, u64> {
    run_with_metrics(args).snapshot.invariant_subset()
}

#[test]
fn inject_invariant_counters_survive_threads_and_checkpoints() {
    let base = invariant_subset(&["inject", "mm:tiny", "200", "7", "--threads", "1"]);
    assert!(
        base.values().any(|&v| v > 0),
        "invariant subset non-trivial"
    );
    for extra in [
        vec!["--threads", "4"],
        vec!["--threads", "3", "--ckpt-interval", "0"],
        vec!["--threads", "2", "--ckpt-interval", "64"],
    ] {
        let mut args = vec!["inject", "mm:tiny", "200", "7"];
        args.extend(extra.iter());
        assert_eq!(
            base,
            invariant_subset(&args),
            "invariant counters must not depend on {extra:?}"
        );
    }
}

#[test]
fn oracle_invariant_counters_survive_threads() {
    let base = invariant_subset(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "1"]);
    let multi = invariant_subset(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "4"]);
    assert_eq!(base, multi, "oracle invariant counters thread-independent");
    // The sweep's confusion matrix covers every executed flip.
    let report = run_with_metrics(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "2"]);
    assert_conserved(&report, "oracle bfs:tiny");
    let c = |n: &str| report.snapshot.counter(n);
    assert_eq!(
        c("oracle.diff.true_positives")
            + c("oracle.diff.false_positives")
            + c("oracle.diff.false_negatives")
            + c("oracle.diff.true_negatives"),
        c("oracle.sweep.flips"),
        "every swept flip lands in exactly one confusion cell"
    );
}

#[test]
fn metrics_check_validates_and_rejects() {
    let mut good = std::env::temp_dir();
    good.push(format!("epvf-mc-good-{}.json", std::process::id()));
    let report = run_with_metrics(&["analyze", "mm:tiny"]);
    report.write_file(&good).expect("writes");

    let run_check = |path: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_epvf"))
            .arg("metrics-check")
            .arg(path)
            .output()
            .expect("epvf runs")
    };
    let ok = run_check(&good);
    assert!(ok.status.success(), "valid document passes metrics-check");

    let mut bad = std::env::temp_dir();
    bad.push(format!("epvf-mc-bad-{}.json", std::process::id()));
    let text = std::fs::read_to_string(&good).expect("reads");
    std::fs::write(&bad, text.replace("\"version\":1", "\"version\":99")).expect("writes");
    let rejected = run_check(&bad);
    assert!(
        !rejected.status.success(),
        "future-version document must fail metrics-check"
    );
    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();
}

#[test]
fn deeply_nested_document_is_a_schema_error_not_a_crash() {
    let mut deep = std::env::temp_dir();
    deep.push(format!("epvf-mc-deep-{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(300_000) + &"]".repeat(300_000)).expect("writes");
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .arg("metrics-check")
        .arg(&deep)
        .output()
        .expect("epvf runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(7), "{stderr}");
    assert!(
        stderr.contains("schema error: nested deeper than 64 levels at byte 64"),
        "{stderr}"
    );
    std::fs::remove_file(&deep).ok();
}

#[test]
fn hostile_counter_breaks_a_law_and_refuses_to_merge() {
    // A campaign's own metrics, with one class counter set to u64::MAX:
    // summing the classes overflows, and so does merging two copies.
    let dir = std::env::temp_dir();
    let wal = dir.join(format!("epvf-hostile-{}.wal", std::process::id()));
    let doc = dir.join(format!("epvf-hostile-{}.json", std::process::id()));
    std::fs::remove_file(&wal).ok();
    let wal_arg = wal.to_str().expect("utf8");
    let mut report = run_with_metrics(&[
        "inject",
        "mm:tiny",
        "50",
        "7",
        "--threads",
        "1",
        "--wal",
        wal_arg,
    ]);
    report
        .snapshot
        .counters
        .insert("llfi.campaign.runs_crash".into(), u64::MAX);
    report.write_file(&doc).expect("writes");
    let doc_arg = doc.to_str().expect("utf8");
    let epvf = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_epvf"))
            .args(args)
            .output()
            .expect("epvf runs")
    };

    let check = epvf(&["metrics-check", doc_arg]);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(7), "{stderr}");
    assert!(
        stderr.contains("campaign outcome classes sum to more than u64::MAX"),
        "{stderr}"
    );

    let merge = epvf(&[
        "merge",
        "mm:tiny",
        "50",
        "7",
        "--wal",
        wal_arg,
        "--metrics-in",
        doc_arg,
        "--metrics-in",
        doc_arg,
    ]);
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert_eq!(merge.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("merging `llfi.campaign.runs_crash` overflows u64"),
        "{stderr}"
    );
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&doc).ok();
}
