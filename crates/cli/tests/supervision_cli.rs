//! End-to-end supervision behaviour of the `epvf` binary: distinct exit
//! codes per failure family, panic quarantine with graceful degradation,
//! and WAL-backed crash resume with byte-identical aggregates.

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
    let d = std::env::temp_dir().join(format!("epvf-cli-supervision-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["inject", "mm:tiny", "10", "1", "--no-such-flag"][..],
        &["inject", "mm:tiny", "10", "1", "--resume"][..],
        &["inject", "mm:tiny", "10", "1", "extra-positional"][..],
        &["frobnicate"][..],
    ] {
        let r = epvf(args);
        assert_eq!(r.code, 2, "args {args:?}: {}", r.stderr);
        assert!(r.stderr.starts_with("error:"), "{}", r.stderr);
    }
}

#[test]
fn bad_input_exits_4() {
    // A path that exists but cannot be read as text is an I/O error.
    let r = epvf(&["run", "/"]);
    assert_eq!(r.code, 6, "unreadable path is an I/O error: {}", r.stderr);
    let dir = tmpdir("bad-ir");
    let path = dir.join("garbage.ir");
    std::fs::write(&path, "define void @m)x( {").expect("write");
    let r = epvf(&["run", path.to_str().expect("utf8")]);
    assert_eq!(r.code, 4, "malformed IR is an input error: {}", r.stderr);
    assert!(r.stderr.starts_with("error:"), "{}", r.stderr);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_campaign_degrades_with_exit_3() {
    let r = epvf(&["inject", "mm:tiny", "30", "7", "--poison-at", "0"]);
    assert_eq!(r.code, 3, "stdout: {}\nstderr: {}", r.stdout, r.stderr);
    assert!(
        r.stdout.contains("supervised:") && r.stdout.contains("quarantined 100.0%"),
        "{}",
        r.stdout
    );
    assert!(r.stderr.contains("campaign degraded"), "{}", r.stderr);
    // The summary still printed: degradation is graceful, not fatal.
    assert!(r.stdout.contains("outcomes"), "{}", r.stdout);
}

#[test]
fn raised_unsound_budget_tolerates_quarantine() {
    let r = epvf(&[
        "inject",
        "mm:tiny",
        "30",
        "7",
        "--poison-at",
        "0",
        "--max-unsound",
        "1.0",
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);
}

#[test]
fn quarantine_dir_gets_replayable_repros() {
    let dir = tmpdir("repros");
    let r = epvf(&[
        "inject",
        "mm:tiny",
        "5",
        "7",
        "--poison-at",
        "0",
        "--max-unsound",
        "1.0",
        "--quarantine-dir",
        dir.to_str().expect("utf8"),
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    let repros: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "repro"))
        .collect();
    assert_eq!(repros.len(), 5, "{:?}", repros);
    let text = std::fs::read_to_string(repros[0].path()).expect("readable");
    assert!(text.starts_with("# epvf-oracle repro v1"), "{text}");
    assert!(text.contains("# kind: quarantine"), "{text}");
    assert!(text.contains("\n# poison-at: 0\n"), "{text}");
    // Each repro carries the poison hook, so its replay panics and
    // quarantines again.
    for repro in &repros {
        let path = repro.path();
        let r = epvf(&["oracle", "--replay", path.to_str().expect("utf8")]);
        assert_eq!(r.code, 0, "{}{}", r.stdout, r.stderr);
        assert!(r.stdout.contains("verdict   : reproduced"), "{}", r.stdout);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_resume_reproduces_aggregates_byte_for_byte() {
    let dir = tmpdir("wal");
    let wal = dir.join("campaign.wal");
    let wal_s = wal.to_str().expect("utf8");

    // Reference: the campaign without any WAL.
    let plain = epvf(&["inject", "mm:tiny", "60", "11"]);
    assert_eq!(plain.code, 0, "{}", plain.stderr);

    // Full run with a WAL: same aggregates.
    let full = epvf(&["inject", "mm:tiny", "60", "11", "--wal", wal_s]);
    assert_eq!(full.code, 0, "{}", full.stderr);
    assert_eq!(plain.stdout, full.stdout);

    // Crash simulation: chop the WAL tail (as a SIGKILL mid-write would),
    // then resume. Aggregates must be byte-identical to the full run.
    let bytes = std::fs::read(&wal).expect("read");
    std::fs::write(&wal, &bytes[..bytes.len() / 2]).expect("truncate");
    let resumed = epvf(&["inject", "mm:tiny", "60", "11", "--wal", wal_s, "--resume"]);
    assert_eq!(resumed.code, 0, "{}", resumed.stderr);
    assert_eq!(full.stdout, resumed.stdout);

    // Resuming a finished campaign re-runs nothing and still agrees.
    let again = epvf(&["inject", "mm:tiny", "60", "11", "--wal", wal_s, "--resume"]);
    assert_eq!(again.code, 0, "{}", again.stderr);
    assert_eq!(full.stdout, again.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_refuses_a_mismatched_campaign() {
    let dir = tmpdir("wal-mismatch");
    let wal = dir.join("campaign.wal");
    let wal_s = wal.to_str().expect("utf8");
    let r = epvf(&["inject", "mm:tiny", "20", "11", "--wal", wal_s]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    // Different seed → different spec draw → fingerprint mismatch.
    let r = epvf(&["inject", "mm:tiny", "20", "12", "--wal", wal_s, "--resume"]);
    assert_eq!(r.code, 4, "{}", r.stderr);
    assert!(r.stderr.contains("fingerprint"), "{}", r.stderr);

    // The run limits are part of the campaign: a fuel-limited log resumes
    // only under the same fuel.
    let limited = ["inject", "mm:tiny", "20", "11", "--fuel", "50"];
    let full = epvf(&limited);
    assert_eq!(full.code, 3, "{}", full.stderr);
    let r = epvf(&[&limited[..], &["--wal", wal_s]].concat());
    assert_eq!(r.code, 3, "{}", r.stderr);
    let r = epvf(&["inject", "mm:tiny", "20", "11", "--wal", wal_s, "--resume"]);
    assert_eq!(r.code, 4, "{}", r.stderr);
    assert!(r.stderr.contains("fingerprint"), "{}", r.stderr);
    let r = epvf(&[&limited[..], &["--wal", wal_s, "--resume"]].concat());
    assert_eq!(r.code, 3, "{}", r.stderr);
    assert_eq!(r.stdout, full.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_documents_the_exit_codes() {
    let r = epvf(&["--help"]);
    assert_eq!(r.code, 0);
    for needle in [
        "exit codes",
        "degraded",
        "--wal",
        "--resume",
        "--max-unsound",
    ] {
        assert!(r.stderr.contains(needle), "missing {needle:?} in help");
    }
}
