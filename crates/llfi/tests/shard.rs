//! Differential shard-equivalence suite over a real campaign: strided
//! shards executed through shard-geometry `RunSession`s and real WAL
//! files must reassemble into exactly the single-process
//! `CampaignResult`, and shard WALs must refuse to resume or merge under
//! the wrong partition geometry.

use epvf_interp::InjectionSpec;
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_llfi::{
    read_wal_fingerprint, wal_fingerprint_shard, Campaign, CampaignConfig, CampaignKey,
    CampaignResult, Draw, RunSession, ShardOutcomes, ShardSpec, WalError, WalSink,
};
use std::collections::BTreeMap;

/// Store-heavy loop: produces a mix of benign, SDC, and crash outcomes.
fn kernel_module(bound: i32) -> Module {
    let mut mb = ModuleBuilder::new("k");
    let mut f = mb.function("main", vec![], None);
    let size = f.mul(Type::I64, Value::i64(i64::from(bound)), Value::i64(4));
    let arr = f.malloc(size);
    let entry = f.current_block();
    let header = f.create_block("h");
    let body = f.create_block("b");
    let exit = f.create_block("e");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(bound));
    f.cond_br(c, body, exit);
    f.switch_to(body);
    let v = f.mul(Type::I32, i, Value::i32(3));
    let slot = f.gep(arr, i, 4);
    f.store(Type::I32, v, slot);
    let lv = f.load(Type::I32, slot);
    f.output(Type::I32, lv);
    let i2 = f.add(Type::I32, i, Value::i32(1));
    f.add_incoming(i, body, i2);
    f.br(header);
    f.switch_to(exit);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("epvf-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// Run one shard's strided slice in-process, exactly as `epvf shard`
/// does (local spec list + shard-geometry session), appending to `wal`
/// when given.
fn run_shard(
    campaign: &Campaign<'_>,
    specs: &[InjectionSpec],
    shard: ShardSpec,
    wal: Option<&WalSink>,
) -> CampaignResult {
    let local: Vec<InjectionSpec> = shard.indices(specs.len()).map(|g| specs[g]).collect();
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal,
        index_base: shard.index(),
        index_stride: shard.of(),
        ..RunSession::default()
    };
    campaign.run_specs_session(&local, &session)
}

#[test]
fn shards_reassemble_the_single_process_result_in_memory() {
    let m = kernel_module(40);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let specs = campaign.draw_specs(180, 11);
    let whole = campaign.run_specs(&specs);
    assert!(whole.count(|o| o.is_crash()) > 0, "mix of outcomes");

    for of in [1usize, 2, 7] {
        let mut union = ShardOutcomes::empty();
        for index in 0..of {
            let shard = ShardSpec::new(index, of).unwrap();
            let part = run_shard(&campaign, &specs, shard, None);
            assert_eq!(part.n(), shard.count(specs.len()));
            union = union
                .merge(ShardOutcomes::from_run(shard, &part))
                .expect("disjoint");
        }
        let merged = union.into_result(&specs).expect("total");
        assert_eq!(
            merged.runs, whole.runs,
            "{of}-shard merge equals the single-process run"
        );
    }
}

#[test]
fn shard_wals_round_trip_to_the_identical_result() {
    let m = kernel_module(40);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let specs = campaign.draw_specs(150, 23);
    let whole = campaign.run_specs(&specs);
    let base = CampaignKey::of(&campaign, Draw::Specs(&specs)).fingerprint();

    let dir = tmpdir("roundtrip");
    let of = 3;
    let mut union = ShardOutcomes::empty();
    for index in 0..of {
        let shard = ShardSpec::new(index, of).unwrap();
        let fp = wal_fingerprint_shard(base, index, of);
        let path = dir.join(format!("s{index}.wal"));
        let sink = WalSink::create(&path, fp).expect("create");
        let _ = run_shard(&campaign, &specs, shard, Some(&sink));
        sink.flush();
        assert!(sink.take_error().is_none());

        // The header records the shard-separated fingerprint…
        assert_eq!(read_wal_fingerprint(&path).expect("header"), fp);
        // …and recovery under it yields global-indexed records that all
        // belong to this shard.
        let (_sink, rec) = WalSink::recover(&path, fp).expect("recover");
        assert_eq!(rec.outcomes.len(), shard.count(specs.len()));
        assert!(rec.outcomes.keys().all(|&g| shard.owns(g)));
        union = union
            .merge(ShardOutcomes::from_recovered(&rec))
            .expect("disjoint");
    }
    let merged = union.into_result(&specs).expect("total");
    assert_eq!(merged.runs, whole.runs, "WAL round trip is lossless");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_wal_rejects_the_wrong_partition_geometry() {
    let m = kernel_module(30);
    let campaign = Campaign::new(&m, "main", &[], CampaignConfig::default()).expect("golden");
    let specs = campaign.draw_specs(60, 5);
    let base = CampaignKey::of(&campaign, Draw::Specs(&specs)).fingerprint();

    let dir = tmpdir("geometry");
    let path = dir.join("s1of4.wal");
    let fp_1_4 = wal_fingerprint_shard(base, 1, 4);
    {
        let sink = WalSink::create(&path, fp_1_4).expect("create");
        let _ = run_shard(
            &campaign,
            &specs,
            ShardSpec::new(1, 4).unwrap(),
            Some(&sink),
        );
        sink.flush();
    }
    // Same index, different shard count; different index, same count; and
    // the unsharded base — all must be rejected as foreign.
    for wrong in [
        wal_fingerprint_shard(base, 1, 8),
        wal_fingerprint_shard(base, 2, 4),
        base,
    ] {
        assert_ne!(wrong, fp_1_4);
        match WalSink::recover(&path, wrong) {
            Err(WalError::FingerprintMismatch { .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }
    // The correct geometry still recovers.
    assert!(WalSink::recover(&path, fp_1_4).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
