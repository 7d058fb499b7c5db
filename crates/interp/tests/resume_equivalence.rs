//! Resume-from-snapshot equivalence: a run resumed from any golden
//! checkpoint ([`Interpreter::replay`]) must be observably identical —
//! outcome, outputs, dynamic instruction count — to the same run executed
//! from the entry function ([`Interpreter::run`]), both without a fault and
//! with every kind of [`FaultEffect`]; and a rendezvous rejoin must only be
//! reported when the from-scratch run really matches the golden run (that
//! is the soundness condition the campaign's early `Benign` classification
//! rests on).

use epvf_interp::{
    ExecConfig, FaultEffect, Interpreter, MachineFault, Outcome, ReplayOutcome, RunResult,
};
use epvf_workloads::{by_name, Scale, Workload};
use proptest::prelude::*;

/// Checkpoint spacing kept small so even tiny-scale workloads produce
/// plenty of snapshots to resume from.
const INTERVAL: u64 = 64;

/// The externally observable result of a run (traces are never recorded
/// on the resume path, so they are excluded from the comparison).
fn observable(r: &RunResult) -> (&Outcome, &[u64], u64) {
    (&r.outcome, r.outputs.as_slice(), r.dyn_insts)
}

/// One effect of each [`FaultEffect`] variant, picked by `kind`.
fn effect(kind: usize, slot: usize, bit: u8) -> FaultEffect {
    let mask = 1u64 << bit;
    match kind {
        0 => FaultEffect::OperandXor { slot, mask },
        1 => FaultEffect::ResultXor { mask },
        2 => FaultEffect::SkipInst,
        3 => FaultEffect::FlipBranch,
        4 => FaultEffect::AddrXor { mask },
        _ => FaultEffect::EccFlip {
            mask: mask | mask.rotate_left(1),
            window: 1 + u64::from(bit) * 16,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random workload, snapshot, and fault: resuming reproduces the
    /// from-scratch run exactly, and rendezvous rejoins are sound.
    #[test]
    fn resumed_runs_match_from_scratch(
        name in prop::sample::select(vec!["mm", "nw", "pathfinder", "bfs"]),
        snap_pick in any::<prop::sample::Index>(),
        offset_pick in any::<prop::sample::Index>(),
        kind in 0usize..6,
        slot in 0usize..2,
        bit in 0u8..64,
    ) {
        let w = by_name(name, Scale::Tiny).expect("known benchmark");
        let (golden, snaps) = Interpreter::new(&w.module, ExecConfig::default())
            .run_with_checkpoints(Workload::ENTRY, &w.args, INTERVAL)
            .expect("golden run");
        prop_assert!(!snaps.is_empty(), "first checkpoint is always emitted");
        prop_assert_eq!(snaps[0].dyn_count(), 0);
        // Bound the hang budget the way campaigns do: a skipped loop
        // increment must end as a hang quickly, not after the default cap.
        let interp = Interpreter::new(
            &w.module,
            ExecConfig {
                max_dyn_insts: golden.dyn_insts * 4 + 1_000,
                ..ExecConfig::default()
            },
        );

        // Fault-free: resuming from any snapshot finishes the golden run,
        // and with rendezvous armed it rejoins at the very next snapshot.
        let i = snap_pick.index(snaps.len());
        let snap = &snaps[i];
        let ReplayOutcome::Finished(resumed) = interp.replay(snap, None, &[]) else {
            panic!("a replay without rendezvous always finishes");
        };
        prop_assert_eq!(observable(&resumed), observable(&golden));
        match (interp.replay(snap, None, &snaps), snaps.get(i + 1)) {
            (ReplayOutcome::Rejoined { at_dyn }, Some(next)) => {
                prop_assert_eq!(at_dyn, next.dyn_count());
            }
            (ReplayOutcome::Finished(r), None) => {
                prop_assert_eq!(observable(&r), observable(&golden));
            }
            (other, next) => panic!("fault-free replay {other:?} with next snapshot {next:?}"),
        }

        // Faulted: resume from the snapshot, fault at or after it.
        let room = (golden.dyn_insts - snap.dyn_count()).max(1);
        let fault = MachineFault {
            dyn_idx: snap.dyn_count() + offset_pick.index(room as usize) as u64,
            effect: effect(kind, slot, bit),
        };
        let scratch = interp
            .run(Workload::ENTRY, &w.args, Some(fault))
            .expect("runs");
        let ReplayOutcome::Finished(resumed) = interp.replay(snap, Some(fault), &[]) else {
            panic!("a replay without rendezvous always finishes");
        };
        prop_assert_eq!(observable(&resumed), observable(&scratch));

        // Rendezvous replay: a rejoin certifies the rest of the run is the
        // golden suffix; a finish must match the from-scratch result.
        match interp.replay(snap, Some(fault), &snaps) {
            ReplayOutcome::Finished(r) => {
                prop_assert_eq!(observable(&r), observable(&scratch));
            }
            ReplayOutcome::Rejoined { at_dyn } => {
                prop_assert!(at_dyn > fault.dyn_idx);
                prop_assert_eq!(observable(&scratch), observable(&golden));
            }
        }
    }
}
