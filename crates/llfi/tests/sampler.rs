//! End-to-end guarantees of adaptive sampled campaigns: byte-identical
//! aggregates and stopping points across thread counts, crash-safe WAL
//! resume into the same report, and savings over exhaustive enumeration.

use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_llfi::{Campaign, CampaignConfig, CampaignKey, Draw, RunSession, SamplerConfig, WalSink};
use std::collections::BTreeMap;

/// A loop workload mixing integer arithmetic with memory traffic so the
/// site universe spans several strata (int/data arithmetic, mem and addr
/// operands, multiple bit bands).
fn mixed_module(bound: i64) -> Module {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let arr = f.malloc(Value::i64(256));
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
    let idx = f.trunc(Type::I64, Type::I32, i);
    let slot = f.gep(arr, idx, 8);
    f.store(Type::I64, acc, slot);
    let v = f.load(Type::I64, slot);
    let acc2 = f.add(Type::I64, v, i);
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
    let d = std::env::temp_dir().join(format!("epvf-sampler-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn sampler_cfg() -> SamplerConfig {
    SamplerConfig {
        target_ci: 0.06,
        pilot: 8,
        batch: 64,
        seed: 5,
        ..SamplerConfig::default()
    }
}

#[test]
fn sampled_campaign_is_identical_across_thread_counts() {
    let m = mixed_module(24);
    let run_with = |threads: usize| {
        let campaign = Campaign::new(
            &m,
            "main",
            &[],
            CampaignConfig {
                threads,
                ..CampaignConfig::default()
            },
        )
        .expect("golden");
        campaign.run_adaptive(sampler_cfg())
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    // The whole report — estimates, per-stratum tallies, round count,
    // stopping point — must be byte-identical: adaptive decisions depend
    // only on aggregated outcomes, which the scheduler scatters back into
    // deterministic order before the sampler sees them.
    assert_eq!(serial, parallel);
    assert!(serial.executed > 0);
    assert!(
        (serial.executed as u64) < serial.population,
        "sampled fewer than exhaustive: {}/{}",
        serial.executed,
        serial.population
    );
}

#[test]
fn sampled_campaign_converges_and_brackets_exhaustive_truth() {
    let m = mixed_module(24);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");

    // Exhaustive ground truth over the whole universe.
    let specs: Vec<_> = campaign.sites().specs().collect();
    let truth = campaign.run_specs(&specs);
    let sdc_truth = truth.sdc_rate();
    let crash_truth = truth.crash_rate();

    let report = campaign.run_adaptive(sampler_cfg());
    assert!(report.converged, "CI target reachable on this workload");
    assert!(
        report.sdc.brackets(sdc_truth),
        "sdc truth {} outside {:?}",
        sdc_truth,
        report.sdc.clopper_pearson
    );
    assert!(
        report.crash.brackets(crash_truth),
        "crash truth {} outside {:?}",
        crash_truth,
        report.crash.clopper_pearson
    );
    // Strata cover the universe exactly.
    let strata_pop: u64 = report.strata.iter().map(|s| s.population).sum();
    assert_eq!(strata_pop, campaign.sites().total_bits());
    let strata_exec: usize = report.strata.iter().map(|s| s.executed).sum();
    assert_eq!(strata_exec, report.executed);
}

#[test]
fn chopped_wal_resume_reproduces_the_sampled_report() {
    let m = mixed_module(20);
    let cfg = sampler_cfg();
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let fp = CampaignKey::of(&campaign, Draw::Sampler(cfg)).fingerprint();

    let dir = tmpdir("wal-resume");
    let wal_path = dir.join("adaptive.wal");

    // Full sampled campaign with a WAL attached.
    let sink = WalSink::create(&wal_path, fp).expect("create");
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let full = campaign.run_adaptive_session(cfg, &session);
    sink.flush();
    assert!(sink.take_error().is_none());
    drop(sink);

    // Crash mid-campaign: chop the log, recover, resume. The report must
    // be identical because the allocation sequence replays from recovered
    // outcomes.
    let bytes = std::fs::read(&wal_path).expect("read wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() / 2]).expect("truncate");
    let (sink, recovered) = WalSink::recover(&wal_path, fp).expect("recover");
    let n_recovered = recovered.outcomes.len();
    assert!(
        n_recovered > 0 && n_recovered < full.executed,
        "partial recovery: {n_recovered}/{}",
        full.executed
    );
    let session = RunSession {
        recovered: recovered
            .outcomes
            .into_iter()
            .map(|(i, (_, o))| (i, o))
            .collect(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let resumed = campaign.run_adaptive_session(cfg, &session);
    sink.flush();
    assert!(sink.take_error().is_none());
    assert_eq!(full, resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adaptive_wal_records_global_run_indices() {
    let m = mixed_module(16);
    let cfg = SamplerConfig {
        target_ci: 0.10,
        pilot: 4,
        batch: 24,
        seed: 3,
        ..SamplerConfig::default()
    };
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let fp = CampaignKey::of(&campaign, Draw::Sampler(cfg)).fingerprint();
    let dir = tmpdir("wal-indices");
    let wal_path = dir.join("adaptive.wal");
    let sink = WalSink::create(&wal_path, fp).expect("create");
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal: Some(&sink),
        ..RunSession::default()
    };
    let report = campaign.run_adaptive_session(cfg, &session);
    sink.flush();
    drop(sink);
    let (_, recovered) = WalSink::recover(&wal_path, fp).expect("recover");
    // One record per executed run, densely indexed 0..executed across
    // all rounds — the property resume relies on.
    assert_eq!(recovered.outcomes.len(), report.executed);
    let indices: Vec<usize> = recovered.outcomes.keys().copied().collect();
    assert_eq!(indices, (0..report.executed).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).ok();
}
