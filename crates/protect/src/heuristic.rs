//! Protection heuristics and the greedy budgeted planner (paper §V).
//!
//! Instructions are ranked either by their per-instruction ePVF (the
//! paper's proposal) or by execution frequency (the hot-path baseline of
//! prior work), then greedily duplicated while the dynamic-instruction
//! overhead stays within the budget — the simulator analogue of the paper's
//! measured-runtime budget (8/16/24%).

use crate::transform::{duplicable_slice, duplicate_instructions};
use epvf_core::InstScore;
use epvf_interp::{ExecConfig, Interpreter};
use epvf_ir::{Module, StaticInstId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// How to order candidate instructions for protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankingStrategy {
    /// Descending mean ePVF (paper §V).
    Epvf,
    /// Descending execution count — hot-path duplication (the baseline the
    /// paper compares against).
    HotPath,
    /// Deterministic pseudo-random order with the given seed (an extra
    /// ablation baseline).
    Random(u64),
}

/// Order instruction candidates per the strategy.
pub fn rank_instructions(strategy: RankingStrategy, scores: &[InstScore]) -> Vec<StaticInstId> {
    let mut s: Vec<InstScore> = scores.to_vec();
    match strategy {
        RankingStrategy::Epvf => {
            // Ties (clusters of instructions at the same ePVF) are broken
            // toward higher execution count: of two equally SDC-prone
            // instructions, the hotter one covers more fault mass.
            s.sort_by(|a, b| {
                b.epvf
                    .total_cmp(&a.epvf)
                    .then(b.exec_count.cmp(&a.exec_count))
                    .then(a.sid.cmp(&b.sid))
            });
        }
        RankingStrategy::HotPath => {
            s.sort_by(|a, b| b.exec_count.cmp(&a.exec_count).then(a.sid.cmp(&b.sid)));
        }
        RankingStrategy::Random(seed) => {
            let key = |sid: StaticInstId| {
                let mut z = (u64::from(sid.0) ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            };
            s.sort_by_key(|x| key(x.sid));
        }
    }
    s.into_iter().map(|x| x.sid).collect()
}

/// A finished protection plan.
#[derive(Debug, Clone)]
pub struct ProtectionPlan {
    /// Instructions protected (original module's static ids).
    pub protected: Vec<StaticInstId>,
    /// The transformed module.
    pub module: Module,
    /// Measured dynamic-instruction overhead (`protected/original − 1`).
    pub overhead: f64,
}

/// Greedily protect ranked instructions while overhead ≤ `budget`
/// (e.g. `0.24` for the paper's 24% bound). Candidates whose addition would
/// burst the budget are skipped and the scan continues, so the budget is
/// used as fully as possible.
///
/// # Panics
/// Panics if the baseline golden run fails (workload bug).
pub fn plan_protection(
    module: &Module,
    entry: &str,
    args: &[u64],
    ranking: &[StaticInstId],
    budget: f64,
    max_candidates: usize,
) -> ProtectionPlan {
    let base = Interpreter::new(module, ExecConfig::default())
        .run(entry, args, None)
        .expect("baseline runs");
    let base_dyn = base.dyn_insts.max(1);
    let base_outputs = base.outputs.clone();

    let mut chosen: HashSet<StaticInstId> = HashSet::new();
    let mut best_module = module.clone();
    let mut best_overhead = 0.0;

    for sid in ranking.iter().take(max_candidates) {
        if duplicable_slice(module, *sid).is_none() {
            continue;
        }
        let mut trial: HashSet<StaticInstId> = chosen.clone();
        trial.insert(*sid);
        let candidate = duplicate_instructions(module, &trial);
        let run = Interpreter::new(&candidate, ExecConfig::default())
            .run(entry, args, None)
            .expect("protected module runs");
        // A protection that alters fault-free behaviour (e.g. a check that
        // false-fires) is a transform bug, not a plan candidate.
        if run.outcome != epvf_interp::Outcome::Completed || run.outputs != base_outputs {
            continue;
        }
        let overhead = run.dyn_insts as f64 / base_dyn as f64 - 1.0;
        if overhead <= budget {
            chosen = trial;
            best_module = candidate;
            best_overhead = overhead;
        }
    }

    let mut protected: Vec<StaticInstId> = chosen.into_iter().collect();
    protected.sort();
    ProtectionPlan {
        protected,
        module: best_module,
        overhead: best_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_core::{analyze, per_instruction_scores, EpvfConfig};
    use epvf_workloads::{mm, Scale};

    #[test]
    fn rankings_order_differently() {
        let w = mm::build(Scale::Tiny);
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("trace");
        let res = analyze(&w.module, trace, EpvfConfig::default());
        let scores = per_instruction_scores(&w.module, trace, &res.ddg, &res.ace, &res.crash_map);
        let by_epvf = rank_instructions(RankingStrategy::Epvf, &scores);
        let by_hot = rank_instructions(RankingStrategy::HotPath, &scores);
        let by_rand = rank_instructions(RankingStrategy::Random(3), &scores);
        assert_eq!(by_epvf.len(), by_hot.len());
        assert_ne!(by_epvf, by_hot, "orders should differ for a real kernel");
        assert_ne!(by_epvf, by_rand);
        // Deterministic.
        assert_eq!(
            by_rand,
            rank_instructions(RankingStrategy::Random(3), &scores)
        );
    }

    #[test]
    fn plan_respects_budget() {
        let w = mm::build(Scale::Tiny);
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("trace");
        let res = analyze(&w.module, trace, EpvfConfig::default());
        let scores = per_instruction_scores(&w.module, trace, &res.ddg, &res.ace, &res.crash_map);
        let ranking = rank_instructions(RankingStrategy::Epvf, &scores);
        let plan = plan_protection(&w.module, "main", &w.args, &ranking, 0.24, 20);
        assert!(
            plan.overhead <= 0.24,
            "overhead {} within budget",
            plan.overhead
        );
        assert!(!plan.protected.is_empty(), "something was protected");
        // The protected module still computes the same outputs.
        let out = epvf_interp::Interpreter::new(&plan.module, ExecConfig::default())
            .run("main", &w.args, None)
            .expect("runs");
        assert_eq!(out.outputs, golden.outputs);
    }

    #[test]
    fn zero_budget_protects_nothing() {
        let w = mm::build(Scale::Tiny);
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("trace");
        let res = analyze(&w.module, trace, EpvfConfig::default());
        let scores = per_instruction_scores(&w.module, trace, &res.ddg, &res.ace, &res.crash_map);
        let ranking = rank_instructions(RankingStrategy::Epvf, &scores);
        let plan = plan_protection(&w.module, "main", &w.args, &ranking, 0.0, 5);
        assert!(plan.protected.is_empty());
        assert_eq!(plan.overhead, 0.0);
    }
}
