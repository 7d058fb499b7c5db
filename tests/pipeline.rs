//! Cross-crate integration tests: the full pipeline (workload → interpreter
//! → DDG/ACE → crash + propagation models → ePVF → protection) on every
//! benchmark of the suite.

use epvf_core::{analyze, per_instruction_scores, EpvfConfig};
use epvf_interp::Outcome;
use epvf_llfi::{Campaign, CampaignConfig};
use epvf_protect::{plan_protection, rank_instructions, RankingStrategy};
use epvf_workloads::{suite, Scale, Workload};

#[test]
fn every_workload_analyzes_with_sane_invariants() {
    for w in suite(Scale::Tiny) {
        let golden = w.golden();
        assert_eq!(golden.outcome, Outcome::Completed, "{}", w.name);
        assert!(!golden.outputs.is_empty(), "{}", w.name);
        assert_eq!(golden.outputs.len(), golden.output_tys.len(), "{}", w.name);

        let trace = golden.trace.as_ref().expect("traced");
        assert_eq!(trace.len() as u64, golden.dyn_insts, "{}", w.name);

        let res = analyze(&w.module, trace, EpvfConfig::default());
        let m = &res.metrics;
        assert!(m.pvf > 0.0 && m.pvf <= 1.0, "{}: pvf {}", w.name, m.pvf);
        assert!(
            m.epvf >= 0.0 && m.epvf <= m.pvf,
            "{}: epvf {} pvf {}",
            w.name,
            m.epvf,
            m.pvf
        );
        assert!(
            m.crash_register_bits > 0,
            "{}: memory kernels must have crash bits",
            w.name
        );
        assert!(m.ace_nodes > 0 && m.ace_nodes <= m.ddg_nodes, "{}", w.name);
        assert!(m.ace_register_bits <= m.total_register_bits, "{}", w.name);
        assert!(m.use_crash_bits <= m.trace_use_bits, "{}", w.name);
        assert!(
            m.crash_rate_estimate > 0.0 && m.crash_rate_estimate < 1.0,
            "{}: crash estimate {}",
            w.name,
            m.crash_rate_estimate
        );
    }
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let w = epvf_workloads::pathfinder::build(Scale::Tiny);
    let (g1, g2) = (w.golden(), w.golden());
    assert_eq!(g1, g2, "golden runs are bit-identical");
    let t = g1.trace.as_ref().expect("traced");
    let (a, b) = (
        analyze(&w.module, t, EpvfConfig::default()),
        analyze(&w.module, t, EpvfConfig::default()),
    );
    assert_eq!(a.metrics.pvf, b.metrics.pvf);
    assert_eq!(a.metrics.epvf, b.metrics.epvf);
    assert_eq!(a.metrics.use_crash_bits, b.metrics.use_crash_bits);
}

#[test]
fn campaign_outcomes_partition_for_every_workload() {
    for w in suite(Scale::Tiny) {
        let campaign = Campaign::new(
            &w.module,
            Workload::ENTRY,
            &w.args,
            CampaignConfig::default(),
        )
        .expect("golden");
        let fi = campaign.run(120, 5);
        let total = fi.crash_rate()
            + fi.sdc_rate()
            + fi.hang_rate()
            + fi.benign_rate()
            + fi.detected_rate();
        assert!((total - 1.0).abs() < 1e-9, "{}: rates partition", w.name);
        assert!(
            fi.crash_rate() > 0.0,
            "{}: memory kernels crash sometimes",
            w.name
        );
    }
}

#[test]
fn protection_plan_preserves_behaviour_on_all_protectable_workloads() {
    // One representative per structure class to bound test time.
    for name in ["mm", "nw", "bfs"] {
        let w = epvf_workloads::by_name(name, Scale::Tiny).expect("known");
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("traced");
        let res = analyze(&w.module, trace, EpvfConfig::default());
        let scores = per_instruction_scores(&w.module, trace, &res.ddg, &res.ace, &res.crash_map);
        let ranking = rank_instructions(RankingStrategy::Epvf, &scores);
        let plan = plan_protection(&w.module, Workload::ENTRY, &w.args, &ranking, 0.24, 40);
        assert!(plan.overhead <= 0.24, "{name}");
        let run = epvf_interp::Interpreter::new(&plan.module, epvf_interp::ExecConfig::default())
            .run(Workload::ENTRY, &w.args, None)
            .expect("protected runs");
        assert_eq!(
            run.outputs, golden.outputs,
            "{name}: protection is transparent"
        );
    }
}

#[test]
fn scales_are_strictly_ordered() {
    for (tiny, small) in suite(Scale::Tiny).iter().zip(suite(Scale::Small).iter()) {
        assert_eq!(tiny.name, small.name);
        assert!(
            small.golden().dyn_insts > tiny.golden().dyn_insts,
            "{}: scales must grow",
            tiny.name
        );
    }
}
