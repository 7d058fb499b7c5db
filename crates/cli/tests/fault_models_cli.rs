//! Golden snapshot tests for `epvf inject --fault-model`: one snapshot
//! per shipped model, each byte-stable across worker-thread counts (the
//! determinism contract extends to every fault model, not just the
//! default single-bit flip).
//!
//! Snapshots live in `tests/snapshots/`. After an intentional output
//! change, regenerate with `UPDATE_SNAPSHOTS=1 cargo test -p epvf-cli
//! --test fault_models_cli` and review the diff.

use std::path::Path;
use std::process::Command;

fn run_epvf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .output()
        .expect("epvf binary runs");
    assert!(
        out.status.success(),
        "epvf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check_snapshot(name: &str, content: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, content).expect("write snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert_eq!(
        content,
        golden,
        "output drifted from {} (run with UPDATE_SNAPSHOTS=1 if intentional)",
        path.display()
    );
}

/// Run one model's campaign serially and in parallel, assert the outputs
/// are byte-identical, and pin them to a snapshot.
fn snapshot_model(model: &str, snapshot: &str) {
    let base = run_epvf(&[
        "inject",
        "mm:tiny",
        "200",
        "7",
        "--fault-model",
        model,
        "--threads",
        "1",
    ]);
    let multi = run_epvf(&[
        "inject",
        "mm:tiny",
        "200",
        "7",
        "--fault-model",
        model,
        "--threads",
        "4",
    ]);
    assert_eq!(
        base, multi,
        "--fault-model {model} output must not depend on thread count"
    );
    check_snapshot(snapshot, &base);
}

#[test]
fn dest_model_is_byte_stable() {
    snapshot_model("dest", "inject-mm-tiny-dest.txt");
}

#[test]
fn burst_model_is_byte_stable() {
    snapshot_model("burst:3", "inject-mm-tiny-burst3.txt");
}

#[test]
fn skip_model_is_byte_stable() {
    snapshot_model("skip", "inject-mm-tiny-skip.txt");
}

#[test]
fn wrong_branch_model_is_byte_stable() {
    snapshot_model("wrong-branch", "inject-mm-tiny-wrong-branch.txt");
}

#[test]
fn store_addr_model_is_byte_stable() {
    snapshot_model("store-addr", "inject-mm-tiny-store-addr.txt");
}

#[test]
fn ecc_model_is_byte_stable() {
    // Window 2000 lands mid-trace on mm:tiny: strikes on words re-read in
    // time are detected, the rest expire into the masked (benign) class —
    // both halves of the delayed-reporting semantics show in one snapshot.
    snapshot_model("ecc:2000", "inject-mm-tiny-ecc2000.txt");
}

#[test]
fn explicit_default_model_matches_flagless_output() {
    let flagged = run_epvf(&["inject", "mm:tiny", "200", "7", "--fault-model", "bitflip"]);
    let plain = run_epvf(&["inject", "mm:tiny", "200", "7"]);
    assert_eq!(
        flagged, plain,
        "--fault-model bitflip must be byte-identical to the default"
    );
}

#[test]
fn unknown_model_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(["inject", "mm:tiny", "--fault-model", "gamma-ray"])
        .output()
        .expect("epvf binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("gamma-ray"),
        "error names the bad model: {stderr}"
    );
}

#[test]
fn oracle_accepts_fault_models() {
    let base = run_epvf(&[
        "oracle",
        "mm:tiny",
        "--fault-model",
        "wrong-branch",
        "--threads",
        "1",
    ]);
    let multi = run_epvf(&[
        "oracle",
        "mm:tiny",
        "--fault-model",
        "wrong-branch",
        "--threads",
        "4",
    ]);
    assert_eq!(base, multi, "oracle sweep stable across threads");
    assert!(base.contains("model     : wrong-branch"));
    check_snapshot("oracle-mm-tiny-wrong-branch.txt", &base);
}
