//! End-to-end tests of the `epvf` binary.

use std::process::Command;

fn epvf(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_names_the_suite() {
    let (stdout, _, ok) = epvf(&["list"]);
    assert!(ok);
    for name in ["pathfinder", "mm", "lulesh", "kmeans"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn analyze_reports_epvf_below_pvf() {
    let (stdout, _, ok) = epvf(&["analyze", "mm:tiny"]);
    assert!(ok, "{stdout}");
    let grab = |key: &str| -> f64 {
        stdout
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in:\n{stdout}"))
    };
    assert!(grab("ePVF") < grab("PVF"));
}

#[test]
fn dump_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("mm.ir");
    let (ir, _, ok) = epvf(&["dump", "mm:tiny"]);
    assert!(ok);
    std::fs::write(&path, &ir).expect("write");
    let (stdout, stderr, ok) = epvf(&["run", path.to_str().expect("utf8")]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("outcome      : completed"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_target_fails_cleanly() {
    let (_, stderr, ok) = epvf(&["analyze", "not-a-benchmark"]);
    assert!(!ok);
    assert!(stderr.contains("neither a benchmark"), "{stderr}");
}

#[test]
fn inject_summarizes_outcomes() {
    let (stdout, _, ok) = epvf(&["inject", "pathfinder:tiny", "120", "3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("outcomes"));
    assert!(stdout.contains("recall"));
    assert!(stdout.contains("precision"));
}

/// Run `epvf` expecting a usage error (exit 2); returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
    stderr
}

/// Only `tiny`, `small` and `standard` are scale suffixes: an IR file
/// whose name holds a `:` resolves as that file, and analyzes like the
/// benchmark it was dumped from.
#[test]
fn ir_paths_with_a_colon_resolve_as_files() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-colon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("lud:v2.ir");
    let (ir, _, ok) = epvf(&["dump", "lud:tiny"]);
    assert!(ok);
    std::fs::write(&path, &ir).expect("write");
    let metrics = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| {
                ["DDG nodes", "PVF", "ePVF"]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .map(str::to_owned)
            .collect()
    };
    let (from_file, stderr, ok) = epvf(&["analyze", path.to_str().expect("utf8")]);
    assert!(ok, "stderr: {stderr}");
    let (from_name, _, ok) = epvf(&["analyze", "lud:tiny"]);
    assert!(ok);
    assert_eq!(metrics(&from_file).len(), 3, "{from_file}");
    assert_eq!(metrics(&from_file), metrics(&from_name));
    std::fs::remove_dir_all(&dir).ok();

    assert!(usage_error(&["analyze", "mm:huge"]).contains("unknown scale `huge`"));
}

/// Every command rejects an argument it does not take, before any work
/// runs; `serve` is no longer a command.
#[test]
fn stray_arguments_are_usage_errors() {
    for (args, message) in [
        (&["run", "mm:tiny", "--bogus"][..], "unknown flag `--bogus`"),
        (
            &["dump", "lud:tiny", "--bogus"][..],
            "unknown flag `--bogus`",
        ),
        (&["list", "--bogus"][..], "unknown flag `--bogus`"),
        (
            &["protect", "lud:tiny", "0.2", "--bogus"][..],
            "unknown flag `--bogus`",
        ),
        (
            &["dump", "lud:tiny", "extra"][..],
            "unexpected argument `extra`",
        ),
        (
            &["protect", "lud:tiny", "0.2", "0.3"][..],
            "unexpected argument `0.3`",
        ),
        (&["serve", "--socket", "x"][..], "unknown command `serve`"),
    ] {
        let stderr = usage_error(args);
        assert!(stderr.contains(message), "args {args:?}: {stderr}");
    }
}
