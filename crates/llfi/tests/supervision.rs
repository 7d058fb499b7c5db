//! Supervised campaign execution: panic isolation (quarantine + retries),
//! per-run watchdogs, WAL persistence with mid-campaign resume, and
//! determinism of all of it across thread counts.

use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_llfi::{wal_fingerprint, Campaign, CampaignConfig, InjOutcome, RunSession, WalSink};
use std::collections::BTreeMap;
use std::time::Duration;

/// A loop workload with enough dynamic instructions to give the
/// campaign a rich site population.
fn loop_module(bound: i64) -> Module {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let entry = f.current_block();
    let header = f.create_block("h");
    let body = f.create_block("b");
    let exit = f.create_block("e");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I64, vec![(entry, Value::i64(0))]);
    let acc = f.phi(Type::I64, vec![(entry, Value::i64(0))]);
    let c = f.icmp(IcmpPred::Slt, Type::I64, i, Value::i64(bound));
    f.cond_br(c, body, exit);
    f.switch_to(body);
    let acc2 = f.add(Type::I64, acc, i);
    let i2 = f.add(Type::I64, i, Value::i64(1));
    f.add_incoming(i, body, i2);
    f.add_incoming(acc, body, acc2);
    f.br(header);
    f.switch_to(exit);
    f.output(Type::I64, acc);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("epvf-supervision-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn poisoned_runs_quarantine_without_killing_the_campaign() {
    let m = loop_module(50);
    let campaign = Campaign::new(
        &m,
        "main",
        &[],
        CampaignConfig {
            poison_at: Some(0), // every injected run panics immediately
            retries: 2,
            ..CampaignConfig::default()
        },
    )
    .expect("golden run is never poisoned");
    let fi = campaign.run(12, 9);
    assert_eq!(fi.runs.len(), 12);
    assert!(
        fi.runs.iter().all(|(_, o)| *o == InjOutcome::Quarantined),
        "{:?}",
        fi.runs
    );
    assert_eq!(fi.quarantines.len(), 12);
    for q in &fi.quarantines {
        assert_eq!(q.retries, 2, "exhausted the full retry budget");
        assert!(q.payload.contains("poisoned at dyn #0"), "{}", q.payload);
    }
    assert_eq!(fi.quarantined_rate(), 1.0);
    assert_eq!(fi.unsound_rate(), 1.0);
}

#[test]
fn quarantine_is_deterministic_across_thread_counts() {
    let m = loop_module(60);
    let run_with = |threads: usize| {
        let campaign = Campaign::new(
            &m,
            "main",
            &[],
            CampaignConfig {
                poison_at: Some(400), // only full-length runs get poisoned
                threads,
                ..CampaignConfig::default()
            },
        )
        .expect("golden");
        campaign.run(64, 3)
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.quarantines, parallel.quarantines);
    assert!(
        serial
            .runs
            .iter()
            .any(|(_, o)| *o == InjOutcome::Quarantined),
        "the poison hook fired at least once: {:?}",
        serial.runs
    );
    assert!(
        serial
            .runs
            .iter()
            .any(|(_, o)| *o != InjOutcome::Quarantined),
        "and at least one run ended before reaching dyn #400"
    );
}

#[test]
fn run_fuel_classifies_as_timed_out() {
    let m = loop_module(60);
    let campaign = Campaign::new(
        &m,
        "main",
        &[],
        CampaignConfig {
            run_fuel: Some(5), // far below the golden run's length
            ..CampaignConfig::default()
        },
    )
    .expect("the golden run is never fuel-limited");
    let fi = campaign.run(10, 1);
    assert!(
        fi.runs
            .iter()
            .all(|(_, o)| matches!(o, InjOutcome::TimedOut(_))),
        "{:?}",
        fi.runs
    );
    assert_eq!(fi.timed_out_rate(), 1.0);
}

#[test]
fn generous_supervision_leaves_outcomes_untouched() {
    let m = loop_module(60);
    let plain = Campaign::new(&m, "main", &[], CampaignConfig::default())
        .expect("golden")
        .run(48, 5);
    let supervised = Campaign::new(
        &m,
        "main",
        &[],
        CampaignConfig {
            run_fuel: Some(u64::MAX / 2),
            run_deadline: Some(Duration::from_secs(3600)),
            retries: 3,
            ..CampaignConfig::default()
        },
    )
    .expect("golden")
    .run(48, 5);
    assert_eq!(plain.runs, supervised.runs);
    assert!(supervised.quarantines.is_empty());
}

#[test]
fn quarantine_repro_uses_the_oracle_format() {
    let m = loop_module(50);
    let campaign = Campaign::new(
        &m,
        "main",
        &[],
        CampaignConfig {
            poison_at: Some(0),
            ..CampaignConfig::default()
        },
    )
    .expect("golden");
    let fi = campaign.run(1, 2);
    let q = &fi.quarantines[0];
    let repro = campaign.render_quarantine_repro(q);
    assert!(
        !repro.contains("# model:"),
        "a bit-flip repro names no model"
    );
    let parsed = epvf_oracle::parse_repro(&repro).expect("repro parses");
    assert_eq!(parsed.module.to_string(), m.to_string());
    assert_eq!(parsed.spec, q.spec);

    // Under another fault model the repro names it, and parses back to it.
    let burst = Campaign::with_model(
        &m,
        "main",
        &[],
        CampaignConfig {
            poison_at: Some(0),
            ..CampaignConfig::default()
        },
        epvf_core::parse_fault_model("burst:2").expect("a shipped model"),
    )
    .expect("golden");
    let text = burst.render_quarantine_repro(&burst.run(1, 2).quarantines[0]);
    assert!(text.contains("\n# model: burst:2\n"), "{text}");
    let parsed = epvf_oracle::parse_repro(&text).expect("repro parses");
    assert_eq!(parsed.model.name(), "burst:2");

    let dir = tmpdir("repro");
    let paths = campaign
        .write_quarantine_repros(&dir, "t", &fi.quarantines)
        .expect("writes");
    assert_eq!(paths.len(), 1);
    let on_disk = std::fs::read_to_string(&paths[0]).expect("readable");
    assert_eq!(on_disk, repro);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_session_resumes_to_identical_outcomes() {
    let m = loop_module(60);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let specs = campaign.draw_specs(40, 11);
    let fp = wal_fingerprint(&m.to_string(), "main", &[], &specs);

    let dir = tmpdir("wal-resume");
    let wal_path = dir.join("campaign.wal");

    // Full supervised run with a WAL attached.
    let sink = WalSink::create(&wal_path, fp).expect("create");
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let full = campaign.run_specs_session(&specs, &session);
    sink.flush();
    assert!(sink.take_error().is_none());
    drop(sink);

    // Simulate a crash: chop the WAL mid-file, then resume from what
    // survived. The resumed session must reproduce the full run exactly.
    let bytes = std::fs::read(&wal_path).expect("read wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() * 2 / 3]).expect("truncate");
    let (sink, recovered) = WalSink::recover(&wal_path, fp).expect("recover");
    let n_recovered = recovered.outcomes.len();
    assert!(
        n_recovered > 0 && n_recovered < specs.len(),
        "partial: {n_recovered}"
    );
    for (i, (spec, _)) in &recovered.outcomes {
        assert_eq!(*spec, specs[*i], "WAL index matches the drawn spec");
    }
    let session = RunSession {
        recovered: recovered
            .outcomes
            .into_iter()
            .map(|(i, (_, o))| (i, o))
            .collect(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let resumed = campaign.run_specs_session(&specs, &session);
    sink.flush();
    assert!(sink.take_error().is_none());
    assert_eq!(full.runs, resumed.runs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_outcomes_match_a_wal_free_run() {
    let m = loop_module(60);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let specs = campaign.draw_specs(24, 7);
    let plain = campaign.run_specs(&specs);

    let dir = tmpdir("wal-plain");
    let wal_path = dir.join("campaign.wal");
    let fp = wal_fingerprint(&m.to_string(), "main", &[], &specs);
    let sink = WalSink::create(&wal_path, fp).expect("create");
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let walled = campaign.run_specs_session(&specs, &session);
    sink.flush();
    assert_eq!(plain.runs, walled.runs);

    // And the WAL round-trips every outcome it was fed.
    drop(sink);
    let (_, recovered) = WalSink::recover(&wal_path, fp).expect("recover");
    assert_eq!(recovered.outcomes.len(), specs.len());
    assert_eq!(recovered.torn, 0);
    assert_eq!(recovered.duplicates, 0);
    for (i, (spec, outcome)) in recovered.outcomes {
        assert_eq!((spec, outcome), plain.runs[i]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
