//! Differential shard-equivalence suite for the `epvf` binary: a
//! campaign split across shard processes and merged from their WALs must
//! print byte-for-byte the `epvf inject` summary, survive a shard being
//! SIGKILLed mid-run and resumed, and reject wrong partition geometry
//! and incomplete shard sets with the documented input-error exit code.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

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
    let d = std::env::temp_dir().join(format!("epvf-cli-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

const TARGET: &str = "lud:tiny";
const RUNS: &str = "160";
const SEED: &str = "7";

/// Run all `of` shards to WALs in `dir` and return the WAL paths.
fn run_shards(dir: &std::path::Path, of: usize) -> Vec<String> {
    let mut wals = Vec::new();
    for index in 0..of {
        let wal = dir.join(format!("s{index}.wal"));
        let wal = wal.to_str().expect("utf8").to_owned();
        let r = epvf(&[
            "shard",
            TARGET,
            RUNS,
            SEED,
            "--index",
            &index.to_string(),
            "--of",
            &of.to_string(),
            "--wal",
            &wal,
        ]);
        assert_eq!(r.code, 0, "shard {index}/{of}: {}", r.stderr);
        assert!(r.stdout.contains(&format!("shard     : {index}/{of}")));
        wals.push(wal);
    }
    wals
}

fn merge_args(wals: &[String]) -> Vec<&str> {
    let mut args = vec!["merge", TARGET, RUNS, SEED];
    for w in wals {
        args.push("--wal");
        args.push(w);
    }
    args
}

/// The tentpole contract, end to end over real processes: four shard
/// processes, each with its own WAL, merge to exactly the bytes the
/// single-process `epvf inject` run prints.
#[test]
fn four_shard_merge_is_byte_identical_to_single_process_inject() {
    let single = epvf(&["inject", TARGET, RUNS, SEED]);
    assert_eq!(single.code, 0, "{}", single.stderr);
    assert!(single.stdout.contains("outcomes  :"), "{}", single.stdout);

    let dir = tmpdir("byteident");
    let wals = run_shards(&dir, 4);
    let merged = epvf(&merge_args(&wals));
    assert_eq!(merged.code, 0, "{}", merged.stderr);
    assert_eq!(
        merged.stdout, single.stdout,
        "merged 4-shard aggregate must be byte-identical to epvf inject"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill one shard process mid-campaign (SIGKILL, no cleanup), resume it
/// from its WAL, and merge: the aggregate is still byte-identical to the
/// uninterrupted single-process run.
#[test]
fn sigkilled_shard_resumes_and_merges_byte_identically() {
    let single = epvf(&["inject", TARGET, RUNS, SEED]);
    assert_eq!(single.code, 0, "{}", single.stderr);

    let dir = tmpdir("sigkill");
    let wal0 = dir.join("s0.wal");
    let wal0 = wal0.to_str().expect("utf8").to_owned();

    // Shard 0 of 2 gets SIGKILLed as soon as its WAL exists on disk —
    // mid-campaign if we win the race, post-campaign if we lose it.
    // Either way the WAL must resume to the same place.
    let mut child = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args([
            "shard", TARGET, RUNS, SEED, "--index", "0", "--of", "2", "--wal", &wal0,
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn shard");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !wal0_started(&wal0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(wal0_started(&wal0), "shard 0 never created its WAL");
    child.kill().ok(); // SIGKILL on unix; no-op if it already exited
    child.wait().expect("reap");

    let resumed = epvf(&[
        "shard", TARGET, RUNS, SEED, "--index", "0", "--of", "2", "--wal", &wal0, "--resume",
    ]);
    assert_eq!(resumed.code, 0, "resume after SIGKILL: {}", resumed.stderr);
    assert!(resumed.stdout.contains("shard     : 0/2"));

    let wal1 = dir.join("s1.wal");
    let wal1 = wal1.to_str().expect("utf8").to_owned();
    let r = epvf(&[
        "shard", TARGET, RUNS, SEED, "--index", "1", "--of", "2", "--wal", &wal1,
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);

    let wals = [wal0, wal1];
    let merged = epvf(&merge_args(&wals));
    assert_eq!(merged.code, 0, "{}", merged.stderr);
    assert_eq!(
        merged.stdout, single.stdout,
        "kill -9 + resume + merge must equal the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn wal0_started(path: &str) -> bool {
    std::fs::metadata(path)
        .map(|m| m.len() >= 16)
        .unwrap_or(false)
}

/// Resuming a shard WAL under the wrong `--of` (or `--index`) is an
/// input error, exit code 4, with a fingerprint diagnosis — silent
/// misassembly of a foreign partition is never an option.
#[test]
fn wrong_partition_geometry_on_resume_exits_4() {
    let dir = tmpdir("geometry");
    let wal = dir.join("s0of2.wal");
    let wal = wal.to_str().expect("utf8").to_owned();
    let r = epvf(&[
        "shard", TARGET, RUNS, SEED, "--index", "0", "--of", "2", "--wal", &wal,
    ]);
    assert_eq!(r.code, 0, "{}", r.stderr);

    for wrong in [["--index", "0", "--of", "4"], ["--index", "1", "--of", "2"]] {
        let r = epvf(&[
            "shard", TARGET, RUNS, SEED, wrong[0], wrong[1], wrong[2], wrong[3], "--wal", &wal,
            "--resume",
        ]);
        assert_eq!(r.code, 4, "args {wrong:?}: {}", r.stderr);
        assert!(
            r.stderr.contains("fingerprint"),
            "diagnosis names the fingerprint: {}",
            r.stderr
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `epvf merge` infers the shard count from the WAL list, so a missing
/// shard or a duplicated one both leave a WAL that matches no slot —
/// input error, exit 4.
#[test]
fn incomplete_or_duplicated_shard_sets_exit_4() {
    let dir = tmpdir("incomplete");
    let wals = run_shards(&dir, 2);

    // Only shard 0 of the 2-shard set: under an inferred count of 1 its
    // fingerprint matches no slot.
    let r = epvf(&merge_args(&wals[..1]));
    assert_eq!(r.code, 4, "{}", r.stderr);
    assert!(
        r.stderr.contains("not a shard of this campaign"),
        "{}",
        r.stderr
    );

    // Shard 0 twice: the second copy collides with the first slot.
    let dup = [wals[0].clone(), wals[0].clone()];
    let r = epvf(&merge_args(&dup));
    assert_eq!(r.code, 4, "{}", r.stderr);

    std::fs::remove_dir_all(&dir).ok();
}

/// `epvf inject --wal` is the whole-campaign slice, shard 0 of 1: with
/// one thread both commands write byte-identical WALs, and each resumes
/// the other's log to its own uninterrupted output.
#[test]
fn inject_wal_is_shard_zero_of_one() {
    let dir = tmpdir("whole");
    let inject_wal = dir.join("inject.wal");
    let inject_wal = inject_wal.to_str().expect("utf8");
    let shard_wal = dir.join("shard.wal");
    let shard_wal = shard_wal.to_str().expect("utf8");
    let inject = |wal: &str, resume: bool| {
        let mut args = vec!["inject", TARGET, RUNS, SEED, "--threads", "1", "--wal", wal];
        args.extend(resume.then_some("--resume"));
        epvf(&args)
    };
    let shard = |wal: &str, resume: bool| {
        let mut args = vec![
            "shard",
            TARGET,
            RUNS,
            SEED,
            "--threads",
            "1",
            "--index",
            "0",
            "--of",
            "1",
            "--wal",
            wal,
        ];
        args.extend(resume.then_some("--resume"));
        epvf(&args)
    };

    let plain = epvf(&["inject", TARGET, RUNS, SEED]);
    assert_eq!(plain.code, 0, "{}", plain.stderr);
    let fresh_inject = inject(inject_wal, false);
    assert_eq!(fresh_inject.code, 0, "{}", fresh_inject.stderr);
    assert_eq!(fresh_inject.stdout, plain.stdout);
    let fresh_shard = shard(shard_wal, false);
    assert_eq!(fresh_shard.code, 0, "{}", fresh_shard.stderr);
    let inject_bytes = std::fs::read(inject_wal).expect("inject WAL");
    assert!(inject_bytes.len() > 16, "WAL holds records");
    assert_eq!(
        inject_bytes,
        std::fs::read(shard_wal).expect("shard WAL"),
        "inject --wal and shard --index 0 --of 1 must write the same bytes"
    );

    let resumed = inject(shard_wal, true);
    assert_eq!(resumed.code, 0, "{}", resumed.stderr);
    assert_eq!(
        resumed.stdout, plain.stdout,
        "inject resumes a 0/1 shard log"
    );
    let resumed = shard(inject_wal, true);
    assert_eq!(resumed.code, 0, "{}", resumed.stderr);
    assert_eq!(
        resumed.stdout, fresh_shard.stdout,
        "shard 0/1 resumes an inject log"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pull an integer counter out of a metrics JSON dump.
fn counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// A committed shard WAL from an earlier build — fault model `burst:2`
/// at shard 1/2, so its header carries both the model and the shard
/// stage of the fingerprint — still resumes: every record is recovered,
/// none re-runs, and the summary matches a fresh run, which writes the
/// same bytes.
#[test]
fn wal_from_an_earlier_build_still_resumes() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lud-tiny-burst2-shard1of2.wal"
    );
    let dir = tmpdir("fixture");
    let old = dir.join("old.wal");
    let fresh = dir.join("fresh.wal");
    let metrics = dir.join("metrics.json");
    std::fs::copy(fixture, &old).expect("copy fixture");
    let shard = |wal: &PathBuf, extra: &[&str]| {
        let mut args = vec![
            "shard",
            "lud:tiny",
            "200",
            "7",
            "--index",
            "1",
            "--of",
            "2",
            "--fault-model",
            "burst:2",
            "--threads",
            "1",
            "--wal",
            wal.to_str().expect("utf8"),
        ];
        args.extend_from_slice(extra);
        epvf(&args)
    };

    let resumed = shard(
        &old,
        &["--resume", "--metrics-out", metrics.to_str().expect("utf8")],
    );
    assert_eq!(resumed.code, 0, "{}", resumed.stderr);
    let json = std::fs::read_to_string(&metrics).expect("metrics");
    assert_eq!(counter(&json, "llfi.wal.records_recovered"), 100);
    assert_eq!(counter(&json, "llfi.campaign.runs_total"), 0);

    let run = shard(&fresh, &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    assert_eq!(resumed.stdout, run.stdout);
    assert_eq!(
        std::fs::read(&fresh).expect("fresh WAL"),
        std::fs::read(fixture).expect("fixture"),
        "a fresh run writes the committed bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
