//! End-to-end robustness of `epvf analyze --section-cache`: warm re-runs
//! are byte-identical modulo timing/cache-stats lines, every corruption
//! class of a persisted summary (truncation, bit flip, version skew) is
//! detected and recomputed — never silently reused — and failures stay in
//! the documented `CliError` exit-code families.

use epvf_ir::fnv1a32;
use std::path::{Path, PathBuf};
use std::process::Command;

fn epvf(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not signal-killed"),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("section-cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The analysis summary minus the lines that legitimately vary between
/// runs: wall-clock timings and the cache hit/miss stats themselves.
fn stable_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("analysis time") && !l.starts_with("section cache"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cache_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("section cache"))
        .unwrap_or_else(|| panic!("no section cache line in:\n{stdout}"))
}

fn sect_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sect"))
        .collect();
    files.sort();
    files
}

#[test]
fn warm_rerun_matches_cold_and_plain_output() {
    let dir = tmpdir("warm");
    let (plain, _, code) = epvf(&["analyze", "mm:tiny"]);
    assert_eq!(code, 0);
    let (cold, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let (warm, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);

    // The cache changes *when* results are computed, never *what*.
    assert_eq!(stable_lines(&plain), stable_lines(&cold));
    assert_eq!(stable_lines(&cold), stable_lines(&warm));
    // Plain analyze must not grow a stats line; cached runs must.
    assert!(!plain.contains("section cache"), "{plain}");
    assert!(cache_line(&cold).contains("0 hits"), "{cold}");
    assert!(cache_line(&warm).contains("0 misses"), "{warm}");
    assert!(
        !sect_files(&dir).is_empty(),
        "cold run persisted no summaries"
    );
}

#[test]
fn truncated_summary_is_recomputed() {
    let dir = tmpdir("truncated");
    let (cold, _, _) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    for f in sect_files(&dir) {
        let bytes = std::fs::read(&f).expect("read summary");
        std::fs::write(&f, &bytes[..bytes.len() / 2]).expect("truncate");
    }
    let (redo, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "corruption is recoverable, not fatal");
    assert_eq!(stable_lines(&cold), stable_lines(&redo));
    assert!(
        cache_line(&redo).contains("0 hits"),
        "truncated summaries must all miss: {redo}"
    );
}

#[test]
fn bit_flipped_summary_is_recomputed() {
    let dir = tmpdir("bitflip");
    let (cold, _, _) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    let files = sect_files(&dir);
    assert!(!files.is_empty());
    for (i, f) in files.iter().enumerate() {
        let mut bytes = std::fs::read(f).expect("read summary");
        // A different byte per file, including ones deep in the payload.
        let at = (7 + 13 * i) % bytes.len();
        bytes[at] ^= 0x40;
        std::fs::write(f, &bytes).expect("rewrite");
    }
    let (redo, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert_eq!(stable_lines(&cold), stable_lines(&redo));
    assert!(
        cache_line(&redo).contains("0 hits"),
        "flipped summaries must all miss: {redo}"
    );
}

#[test]
fn version_skewed_summary_is_recomputed() {
    let dir = tmpdir("version");
    let (cold, _, _) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    for f in sect_files(&dir) {
        // Bump the format version (bytes 8..12 LE, after the magic) and
        // recompute the trailing checksum so *only* the version check can
        // reject it — this is the upgrade path, not the corruption path.
        let mut bytes = std::fs::read(&f).expect("read summary");
        let v = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        bytes[8..12].copy_from_slice(&(v + 1).to_le_bytes());
        let n = bytes.len();
        let sum = fnv1a32(&bytes[8..n - 4]);
        bytes[n - 4..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&f, &bytes).expect("rewrite");
    }
    let (redo, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert_eq!(stable_lines(&cold), stable_lines(&redo));
    assert!(
        cache_line(&redo).contains("0 hits"),
        "skewed summaries must all miss: {redo}"
    );
}

#[test]
fn corrupt_counters_pass_the_metrics_gate() {
    let dir = tmpdir("metrics");
    let m_cold = dir.join("cold.json");
    let m_redo = dir.join("redo.json");
    epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
        "--metrics-out",
        m_cold.to_str().unwrap(),
    ]);
    for f in sect_files(&dir) {
        let bytes = std::fs::read(&f).expect("read");
        std::fs::write(&f, &bytes[..9]).expect("truncate");
    }
    let (_, _, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        dir.to_str().unwrap(),
        "--metrics-out",
        m_redo.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    // Both snapshots must satisfy the `analyze.cache.*` conservation laws
    // (hits + misses == sections, corrupt <= misses, stored <= misses).
    let (stdout, stderr, code) = epvf(&[
        "metrics-check",
        m_cold.to_str().unwrap(),
        m_redo.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    // And the redo run must have actually counted the rejections.
    let redo = std::fs::read_to_string(&m_redo).expect("metrics written");
    assert!(redo.contains("\"analyze.cache.corrupt\""), "{redo}");
    let corrupt: u64 = redo
        .split("\"analyze.cache.corrupt\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("corrupt counter parses");
    assert!(corrupt >= 1, "truncation went uncounted: {redo}");
}

#[test]
fn unwritable_cache_dir_is_an_io_error() {
    let dir = tmpdir("unwritable");
    let file = dir.join("a-file");
    std::fs::write(&file, b"not a directory").expect("write");
    let sub = file.join("cache");
    let (_, stderr, code) = epvf(&[
        "analyze",
        "mm:tiny",
        "--section-cache",
        sub.to_str().unwrap(),
    ]);
    assert_eq!(code, 6, "filesystem failure is the Io family: {stderr}");
    assert!(stderr.contains("section cache"), "{stderr}");
}

#[test]
fn analyze_flag_errors_stay_in_the_usage_family() {
    let (_, stderr, code) = epvf(&["analyze", "mm:tiny", "--bogus"]);
    assert_eq!(code, 2, "{stderr}");
    let (_, _, code) = epvf(&["analyze", "mm:tiny", "--section-cache"]);
    assert_eq!(code, 2, "flag without a value");
    let (_, stderr, code) = epvf(&["analyze", "mm:tiny", "--threads", "4"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
}

#[test]
fn cold_cache_records_the_same_core_counters_as_plain_analyze() {
    // A cold compositional pass walks every slice the monolithic pass walks
    // and evaluates each access's `CHECK_BOUNDARY` once, as it does: every
    // `core.` counter must agree, boundary checks included.
    for target in ["mm:tiny", "bfs:tiny", "lud:small"] {
        let dir = tmpdir(&format!("core-counters-{}", target.replace(':', "-")));
        let plain = dir.join("plain.json");
        let cold = dir.join("cold.json");
        let cache = dir.join("cache");
        let (_, stderr, code) =
            epvf(&["analyze", target, "--metrics-out", plain.to_str().unwrap()]);
        assert_eq!(code, 0, "{stderr}");
        let (stdout, stderr, code) = epvf(&[
            "analyze",
            target,
            "--section-cache",
            cache.to_str().unwrap(),
            "--metrics-out",
            cold.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stderr}");
        assert!(cache_line(&stdout).contains("0 hits"), "{stdout}");
        let (stdout, stderr, code) = epvf(&[
            "metrics-check",
            "--diff-counters",
            "core.",
            plain.to_str().unwrap(),
            cold.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{target}: stdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(
            stdout.contains("6 `core.` counter(s) identical"),
            "{stdout}"
        );
    }
}
