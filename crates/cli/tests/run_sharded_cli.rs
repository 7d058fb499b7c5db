//! End-to-end suite for `epvf run-sharded`: the supervisor must drive
//! concurrent shard workers to a merged summary byte-identical to the
//! single-process `epvf inject` run, recover that identity under chaos
//! (SIGKILLed workers restarted from their WALs), salvage a partial
//! result with the documented exit code when the retry budget runs dry,
//! and keep the `supervisor.*` telemetry under its conservation laws.

use std::path::PathBuf;
use std::process::Command;

struct Run {
    stdout: String,
    stderr: String,
    code: i32,
}

fn epvf(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("binary runs");
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code().expect("not signal-killed"),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("epvf-cli-run-sharded-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

const TARGET: &str = "lud:tiny";
const RUNS: &str = "160";
const SEED: &str = "7";

fn reference_inject() -> Run {
    let single = epvf(&["inject", TARGET, RUNS, SEED]);
    assert_eq!(single.code, 0, "{}", single.stderr);
    assert!(single.stdout.contains("outcomes  :"), "{}", single.stdout);
    single
}

/// Pull an integer counter out of a metrics JSON dump.
fn counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// Undisturbed supervision: three concurrent workers, one spawn each,
/// and the merged stdout is exactly what `epvf inject` prints.
#[test]
fn undisturbed_run_sharded_is_byte_identical_to_inject() {
    let single = reference_inject();
    let dir = tmpdir("plain");
    let metrics = dir.join("m.json");
    let r = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "3",
        "--threads",
        "1",
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    assert_eq!(
        r.stdout, single.stdout,
        "supervised merge must equal inject"
    );

    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    assert_eq!(counter(&json, "supervisor.shards"), 3);
    assert_eq!(counter(&json, "supervisor.spawned"), 3);
    assert_eq!(counter(&json, "supervisor.restarts"), 0);
    // The conservation gate must accept the dump.
    let gate = epvf(&["metrics-check", metrics.to_str().expect("utf8")]);
    assert_eq!(gate.code, 0, "{}", gate.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos recovery: with a guaranteed spawn-time kill budget the
/// supervisor restarts the victims from their WALs and the merged
/// stdout and per-class campaign counters are still byte-identical
/// to the undisturbed references.
#[test]
fn chaos_kills_recover_byte_identically_with_identical_counters() {
    let single = reference_inject();
    let dir = tmpdir("chaos");
    let ref_metrics = dir.join("ref.json");
    let got_counters = dir.join("got.json");
    let sup_metrics = dir.join("sup.json");

    // Counter reference: one full-coverage shard (no precision study, so
    // the llfi.campaign.* registry holds exactly the campaign's runs).
    let ref_wal = dir.join("ref.wal");
    let r = epvf(&[
        "shard",
        TARGET,
        RUNS,
        SEED,
        "--index",
        "0",
        "--of",
        "1",
        "--wal",
        ref_wal.to_str().expect("utf8"),
        "--metrics-out",
        ref_metrics.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);

    // kill:1.0 makes the spawn-time chaos coin deterministic: the first
    // two spawns are SIGKILLed (then the event budget is spent), so both
    // shards restart from their WALs regardless of machine speed.
    let r = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "4",
        "--chaos",
        "kill:1.0,seed:11,max:2",
        "--counters-out",
        got_counters.to_str().expect("utf8"),
        "--metrics-out",
        sup_metrics.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 0, "{}\n{}", r.stdout, r.stderr);
    assert_eq!(
        r.stdout, single.stdout,
        "chaos run must recover inject's bytes"
    );

    let json = std::fs::read_to_string(&sup_metrics).expect("metrics written");
    let kills = counter(&json, "supervisor.chaos.kills");
    assert_eq!(kills, 2, "chaos must not be vacuous: {json}");
    let spawned = counter(&json, "supervisor.spawned");
    let restarts = counter(&json, "supervisor.restarts");
    assert_eq!(
        spawned,
        counter(&json, "supervisor.shards") + restarts,
        "conservation: spawned == shards + restarts"
    );
    assert_eq!(
        restarts,
        counter(&json, "supervisor.crashes"),
        "every kill restarts"
    );

    // Recovered per-class counters are identical to the undisturbed shard's.
    let diff = epvf(&[
        "metrics-check",
        "--diff-counters",
        "llfi.campaign.runs_",
        ref_metrics.to_str().expect("utf8"),
        got_counters.to_str().expect("utf8"),
    ]);
    assert_eq!(diff.code, 0, "{}\n{}", diff.stdout, diff.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGSTOP chaos freezes a worker without killing it; the only recovery
/// path is the stall detector noticing that the victim's WAL stopped
/// growing, SIGKILLing it, and restarting it — classified as a hang,
/// not a crash, and still byte-identical in the end.
#[test]
fn stop_chaos_is_recovered_by_the_stall_detector_as_a_hang() {
    // A campaign long enough that the worker is still mid-run when the
    // SIGSTOP lands (the spawn-time coin fires within ~1 ms of spawn).
    let runs = "2000";
    let single = epvf(&["inject", TARGET, runs, SEED]);
    assert_eq!(single.code, 0, "{}", single.stderr);

    let dir = tmpdir("stop");
    let metrics = dir.join("m.json");
    let r = epvf(&[
        "run-sharded",
        TARGET,
        runs,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "2",
        "--stall-timeout-ms",
        "400",
        "--chaos",
        "stop:1.0,max:1",
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 0, "{}\n{}", r.stdout, r.stderr);
    assert_eq!(
        r.stdout, single.stdout,
        "stall-recovered run must equal inject"
    );
    assert!(
        r.stderr.contains("hung (stalled: no WAL progress)"),
        "{}",
        r.stderr
    );

    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    assert_eq!(counter(&json, "supervisor.chaos.stops"), 1, "{json}");
    assert_eq!(counter(&json, "supervisor.hangs"), 1, "{json}");
    assert_eq!(counter(&json, "supervisor.crashes"), 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--chaos halt:I` SIGKILLs shard I at every spawn, so its retry budget
/// always runs dry. Without `--allow-partial` that is the documented
/// campaign failure (exit 5) naming the salvage flag; with it, the
/// summary still prints, a `partial:` line reports the gap, and the
/// process exits with the dedicated partial-salvage code 9.
#[test]
fn exhausted_retries_fail_closed_or_salvage_a_partial_result() {
    let dir = tmpdir("salvage");

    let strict = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "1",
        "--chaos",
        "halt:1",
    ]);
    assert_eq!(strict.code, 5, "{}\n{}", strict.stdout, strict.stderr);
    assert!(
        strict.stderr.contains("--allow-partial"),
        "{}",
        strict.stderr
    );
    assert!(
        strict.stderr.contains("killed by signal 9"),
        "failure names the signal: {}",
        strict.stderr
    );

    let metrics = dir.join("m.json");
    let partial = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "1",
        "--chaos",
        "halt:1",
        "--allow-partial",
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    assert_eq!(partial.code, 9, "{}\n{}", partial.stdout, partial.stderr);
    assert!(
        partial.stdout.contains("outcomes  :"),
        "summary still prints: {}",
        partial.stdout
    );
    let partial_line = partial
        .stdout
        .lines()
        .find(|l| l.starts_with("partial:"))
        .unwrap_or_else(|| panic!("no partial: line in {}", partial.stdout));
    assert!(partial_line.contains("salvaged"), "{partial_line}");
    assert!(partial_line.contains("missing"), "{partial_line}");

    // The conservation gate still accepts a salvaged run's telemetry.
    let gate = epvf(&["metrics-check", metrics.to_str().expect("utf8")]);
    assert_eq!(gate.code, 0, "{}", gate.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

/// Supervisor narration names the failure family on stderr: a SIGKILLed
/// worker is "crashed (killed by signal 9)" with a backoff and a
/// recovery line (the hang/stall wording is covered at the unit level,
/// where a worker can be made to stall deterministically).
#[test]
fn supervisor_log_lines_name_the_crash_and_the_recovery() {
    let r = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "2",
        "--chaos",
        "kill:1.0,seed:3,max:1",
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    assert!(
        r.stderr.contains("crashed (killed by signal 9)"),
        "{}",
        r.stderr
    );
    assert!(r.stderr.contains("restarting in"), "{}", r.stderr);
    assert!(r.stderr.contains("recovered on attempt"), "{}", r.stderr);
}

/// `--shard-deadline-ms` reaches the supervisor from the command line,
/// and when every shard misses a 1 ms deadline the fail-closed text
/// names every failed shard, not just the first. The supervisor first
/// looks at a worker one 15 ms poll after spawning it, so each shard
/// gets 2,000 runs, far more than a worker finishes in one poll.
#[test]
fn every_shard_past_its_deadline_is_named_in_the_failure() {
    let r = epvf(&[
        "run-sharded",
        "lud:small",
        "4000",
        SEED,
        "--shards",
        "2",
        "--shard-deadline-ms",
        "1",
        "--shard-retries",
        "0",
    ]);
    assert_eq!(r.code, 5, "{}\n{}", r.stdout, r.stderr);
    let failure = r
        .stderr
        .lines()
        .find(|l| l.starts_with("error: 2 of 2 shards failed past the retry budget"))
        .unwrap_or_else(|| panic!("no fail-closed line in {}", r.stderr));
    for needle in ["shard 0 (", "shard 1 (", "exceeded the shard deadline"] {
        assert!(failure.contains(needle), "{needle:?} missing: {failure}");
    }
}

/// A worker that exits nonzero (as opposed to dying on a signal) gets
/// the "failed (exited with code …)" wording, and the tail of its
/// captured stderr scratch file is surfaced on the narration line so
/// the cause is visible without digging for the scratch file.
#[test]
fn nonzero_exit_surfaces_the_captured_stderr_tail() {
    let dir = tmpdir("stderr-tail");
    // Pre-create shard 1's WAL path as a directory: the worker's WAL
    // open fails deterministically with an I/O error on stderr.
    std::fs::create_dir_all(dir.join("shard-1.wal")).expect("mkdir");
    let r = epvf(&[
        "run-sharded",
        TARGET,
        RUNS,
        SEED,
        "--shards",
        "2",
        "--threads",
        "1",
        "--shard-retries",
        "1",
        "--work-dir",
        dir.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 5, "{}\n{}", r.stdout, r.stderr);
    assert!(
        r.stderr.contains("failed (exited with code 6)"),
        "nonzero exits are 'failed', not 'crashed': {}",
        r.stderr
    );
    assert!(
        r.stderr.contains("[stderr: error: WAL I/O error"),
        "worker stderr tail must be surfaced: {}",
        r.stderr
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags that make no sense under supervision (the supervisor owns the
/// WALs and the partition) are usage errors, exit 2.
#[test]
fn incompatible_flags_are_usage_errors() {
    for bad in [
        &["run-sharded", TARGET, RUNS, SEED, "--wal", "/tmp/x.wal"][..],
        &["run-sharded", TARGET, RUNS, SEED, "--resume"][..],
        &["run-sharded", TARGET, RUNS, SEED, "--sample", "0.5"][..],
        &["run-sharded", TARGET, RUNS, SEED, "--shards", "0"][..],
        &["run-sharded"][..],
    ] {
        let r = epvf(bad);
        assert_eq!(r.code, 2, "args {bad:?}: {}", r.stderr);
        assert!(r.stderr.starts_with("error:"), "{}", r.stderr);
    }
}
