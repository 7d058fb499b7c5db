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
/// runs; a deleted command is an unknown one.
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
        (
            &["inject", "mm:tiny", "10", "1", "--retries", "1"][..],
            "unknown flag `--retries`",
        ),
        (
            &["inject", "mm:tiny", "10", "1", "--deadline-ms", "5"][..],
            "unknown flag `--deadline-ms`",
        ),
        (&["serve", "--socket", "x"][..], "unknown command `serve`"),
        (
            &["run-sharded", "lud:tiny", "400", "7", "--shards", "2"][..],
            "unknown command `run-sharded`",
        ),
        (
            &["oracle", "lud:tiny", "pathfinder:tiny", "--limit", "50"][..],
            "unexpected argument `pathfinder:tiny`",
        ),
        (
            &[
                "oracle",
                "--workload",
                "lud:tiny",
                "pathfinder:tiny",
                "--limit",
                "50",
            ][..],
            "unexpected argument `pathfinder:tiny`",
        ),
    ] {
        let stderr = usage_error(args);
        assert!(stderr.contains(message), "args {args:?}: {stderr}");
    }
}

/// A file whose bytes are not UTF-8 is malformed input: each command
/// exits as it does on any other file it cannot parse (4, or 7 with a
/// `schema error` from `metrics-check`, which goes on to the next file).
/// Only a file that cannot be read at all is an I/O failure (exit 6).
#[test]
fn non_utf8_files_are_malformed_input() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |name: &str| dir.join(name).to_str().expect("utf8").to_owned();
    let (bad, good, wal) = (path("bad.txt"), path("good.json"), path("lud.wal"));
    std::fs::write(&bad, b"define \xff\n").expect("write");
    std::fs::write(
        &good,
        r#"{"schema":"epvf-metrics","version":1,"meta":{},"counters":{},"timers":{}}"#,
    )
    .expect("write");
    let (_, stderr, ok) = epvf(&["inject", "lud:tiny", "20", "7", "--wal", &wal]);
    assert!(ok, "{stderr}");
    let missing = path("missing.repro");
    for (args, code, in_stderr, in_stdout) in [
        (vec!["analyze", &bad], 4, "valid UTF-8", ""),
        (vec!["oracle", "--replay", &bad], 4, "valid UTF-8", ""),
        (
            vec!["metrics-check", &bad, &good],
            7,
            "schema error",
            "good.json: ok",
        ),
        (
            vec!["metrics-check", "--diff-counters", "", &bad, &good],
            4,
            "valid UTF-8",
            "",
        ),
        (
            vec![
                "merge",
                "lud:tiny",
                "20",
                "7",
                "--wal",
                &wal,
                "--metrics-in",
                &bad,
            ],
            4,
            "valid UTF-8",
            "",
        ),
        (vec!["oracle", "--replay", &missing], 6, "reading", ""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "args {args:?}: {stderr}");
        assert!(stderr.contains(in_stderr), "args {args:?}: {stderr}");
        assert!(stdout.contains(in_stdout), "args {args:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A repro's spec must name one of the program's injection points: a bit
/// at or past its site's width, or a site past the end of the trace, is
/// malformed input (exit 4), not a fault to replay.
#[test]
fn repro_specs_outside_the_injection_space_are_malformed_input() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-space-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf8");
    let (stdout, stderr, ok) = epvf(&[
        "oracle",
        "lud:tiny",
        "--limit",
        "300",
        "--max-repros",
        "1",
        "--repro-dir",
        dir_arg,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("repros    : 1 file(s)"), "{stdout}");
    let repro = std::fs::read_dir(&dir)
        .expect("repro dir")
        .next()
        .expect("one repro")
        .expect("dir entry")
        .path();
    let text = std::fs::read_to_string(&repro).expect("readable");
    let spec = text
        .lines()
        .find_map(|l| l.strip_prefix("# spec: "))
        .expect("spec line");
    let mut coords = spec.split(':');
    let (dyn_idx, slot) = (coords.next().expect("dyn"), coords.next().expect("slot"));
    let edited = dir.join("edited.repro");
    let edited = edited.to_str().expect("utf8");
    for (bad, why) in [
        (
            format!("{dyn_idx}:{slot}:64"),
            format!("site {dyn_idx}:{slot} has width"),
        ),
        (
            "99999999:0:1".to_owned(),
            "no injection site 99999999:0".to_owned(),
        ),
    ] {
        let body = text.replace(&format!("# spec: {spec}\n"), &format!("# spec: {bad}\n"));
        std::fs::write(edited, body).expect("write");
        let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
            .args(["oracle", "--replay", edited])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "spec {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("spec {bad}")) && stderr.contains(&why),
            "spec {bad}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Repro files carry the target's scale in their names and `# label:`
/// lines, so sweeps of one program at two scales can share a directory:
/// neither overwrites the other's files, and each file replays.
#[test]
fn repros_of_two_scales_share_a_directory() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-scales-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf8");
    for target in ["lud:tiny", "lud:small"] {
        let (stdout, stderr, ok) = epvf(&[
            "oracle",
            target,
            "--limit",
            "300",
            "--max-repros",
            "2",
            "--repro-dir",
            dir_arg,
        ]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("repros    : 2 file(s)"), "{stdout}");
    }
    let mut repros: Vec<_> = std::fs::read_dir(&dir)
        .expect("repro dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    repros.sort();
    let names: Vec<_> = repros
        .iter()
        .map(|p| p.file_name().and_then(|n| n.to_str()).expect("utf8"))
        .collect();
    assert_eq!(
        names,
        [
            "lud-small-000-missed-crash.repro",
            "lud-small-001-missed-crash.repro",
            "lud-tiny-000-missed-crash.repro",
            "lud-tiny-001-missed-crash.repro",
        ]
    );
    for (repro, name) in repros.iter().zip(names) {
        let text = std::fs::read_to_string(repro).expect("readable");
        let scale = if name.starts_with("lud-tiny") {
            "tiny"
        } else {
            "small"
        };
        assert!(text.contains(&format!("# label: lud:{scale}\n")), "{text}");
        let (stdout, stderr, ok) = epvf(&["oracle", "--replay", repro.to_str().expect("utf8")]);
        assert!(ok, "{name}: {stderr}");
        assert!(
            stdout.contains("verdict   : reproduced"),
            "{name}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stdout before the command writes (`epvf … |
/// head`) ends the command quietly: exit 0, nothing on stderr, and
/// `--metrics-out` still written. Any other stdout failure (a full
/// device) is an I/O failure, exit 6.
#[test]
fn closed_stdout_ends_quietly() {
    let dir = std::env::temp_dir().join(format!("epvf-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("analyze.json");
    let metrics = metrics.to_str().expect("utf8");
    for args in [
        vec!["dump", "mm:tiny"],
        vec!["list"],
        vec!["analyze", "mm:tiny"],
        vec!["analyze", "mm:tiny", "--metrics-out", metrics],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
            .args(&args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {stderr}");
        assert!(stderr.is_empty(), "args {args:?}: {stderr}");
    }
    let (stdout, stderr, ok) = epvf(&["metrics-check", metrics]);
    assert!(ok && stdout.contains(": ok"), "{stdout}{stderr}");

    if let Ok(full) = std::fs::File::create("/dev/full") {
        let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
            .args(["dump", "mm:tiny"])
            .stdout(full)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(6), "{stderr}");
        assert!(stderr.contains("writing stdout"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
