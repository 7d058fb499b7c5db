//! Event boundaries around a phi batch. The interpreter checks for events
//! (hang budget, fuel, poison, checkpoint, rendezvous, ECC scrub) only once
//! the dynamic count reaches its next scheduled event, and a phi batch
//! advances the count by more than one between loop tops. These tests put
//! each event on every position across one batch and the instruction after
//! it, and pin where the run stops, snapshots or rejoins. The literals are
//! those of an interpreter that runs every check at every position: how the
//! checks are scheduled must not move them.

use epvf_interp::{
    CrashKind, ExecConfig, FaultEffect, Interpreter, MachineFault, Outcome, ReplayOutcome,
    RunResult, TimeoutKind,
};
use epvf_ir::{parse_module, Module};

/// A loop of twelve instructions per iteration whose header opens with a
/// batch of two phis. Dynamic positions: malloc 0, branch 1; iteration k's
/// phis at 2+12k and 3+12k, its header load of word 0 at 4+12k, the body's
/// `and` at 7+12k and its store at 9+12k (to word 0 when k is a multiple
/// of 8). So iteration 1's batch is at 14 and 15, and the load after it at
/// 16.
fn module() -> Module {
    parse_module(include_str!("fixtures/phi_batch.ir")).expect("fixture parses")
}

/// The positions swept: the branch into the batch, the batch, and the two
/// instructions after it.
const SWEEP: std::ops::RangeInclusive<u64> = 13..=17;

fn run(m: &Module, config: ExecConfig, fault: Option<MachineFault>) -> (Outcome, u64) {
    let r = Interpreter::new(m, config)
        .run("main", &[], fault)
        .expect("runs");
    (r.outcome, r.dyn_insts)
}

#[test]
fn hang_budget_stops_at_each_position() {
    let m = module();
    let got: Vec<_> = SWEEP
        .map(|d| {
            let config = ExecConfig {
                max_dyn_insts: d,
                ..ExecConfig::default()
            };
            run(&m, config, None)
        })
        .collect();
    let hang = Outcome::Hang;
    assert_eq!(
        got,
        [(hang, 13), (hang, 14), (hang, 15), (hang, 16), (hang, 17)]
    );
}

#[test]
fn fuel_stops_at_each_position() {
    let m = module();
    let got: Vec<_> = SWEEP
        .map(|d| {
            let config = ExecConfig {
                fuel: Some(d),
                ..ExecConfig::default()
            };
            run(&m, config, None)
        })
        .collect();
    let fuel = Outcome::TimedOut(TimeoutKind::Fuel);
    assert_eq!(
        got,
        [(fuel, 13), (fuel, 14), (fuel, 15), (fuel, 16), (fuel, 17)]
    );
}

#[test]
fn poison_panics_at_each_position() {
    let m = module();
    let got: Vec<String> = SWEEP
        .map(|d| {
            let config = ExecConfig {
                poison_at: Some(d),
                ..ExecConfig::default()
            };
            let panic =
                std::panic::catch_unwind(|| run(&m, config, None)).expect_err("poison panics");
            panic
                .downcast_ref::<String>()
                .cloned()
                .expect("formatted panic message")
        })
        .collect();
    assert_eq!(
        got,
        [
            "poisoned at dyn #13 (ExecConfig::poison_at)",
            "poisoned at dyn #14 (ExecConfig::poison_at)",
            "poisoned at dyn #15 (ExecConfig::poison_at)",
            "poisoned at dyn #16 (ExecConfig::poison_at)",
            "poisoned at dyn #17 (ExecConfig::poison_at)",
        ]
    );
}

#[test]
fn checkpoints_due_inside_a_batch_land_after_it() {
    let m = module();
    let got: Vec<Vec<u64>> = [2, 3, 13, 14, 15]
        .into_iter()
        .map(|interval| {
            let (_, snaps) = Interpreter::new(&m, ExecConfig::default())
                .run_with_checkpoints("main", &[], interval)
                .expect("runs");
            snaps.iter().map(|s| s.dyn_count()).take(6).collect()
        })
        .collect();
    assert_eq!(
        got,
        [
            [0, 4, 6, 8, 10, 12],
            [0, 4, 7, 10, 13, 16],
            [0, 13, 28, 41, 54, 67],
            [0, 16, 30, 44, 58, 72],
            [0, 16, 31, 46, 61, 76],
        ]
    );
}

#[test]
fn ecc_scrub_due_inside_a_batch_runs_before_the_next_load() {
    // A two-bit strike on iteration 0's store to word 0 (position 9), read
    // back by iteration 1's header load (position 16). A scrub that is due
    // by then repairs the word first; a later one lets the load consume
    // the error.
    let m = module();
    let got: Vec<_> = (3..=7)
        .map(|window| {
            let fault = MachineFault {
                dyn_idx: 9,
                effect: FaultEffect::EccFlip { mask: 0b11, window },
            };
            run(&m, ExecConfig::default(), Some(fault))
        })
        .collect();
    let done = Outcome::Completed;
    assert_eq!(
        got,
        [
            (done, 153),
            (done, 153),
            (done, 153),
            (done, 153),
            (Outcome::Detected, 17),
        ]
    );
}

#[test]
fn replays_rejoin_at_checkpoints_taken_after_a_batch() {
    // Flipping bit 5 of the `and`'s operand (at 7 and 19) is masked at
    // once, so a replay rejoins at the first golden checkpoint after the
    // injection. Flipping bit 0 of the value iteration 1 or 2 stores (at 21
    // and 33) leaves a wrong word in memory until iteration 9 or 10
    // overwrites it (at 117 and 129), so every checkpoint before that is a
    // candidate that does not match.
    let m = module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    let faults = [(7, 1 << 5), (19, 1 << 5), (21, 1), (33, 1)];
    let mut got = Vec::new();
    for interval in [2, 3, 13, 14, 15] {
        let (_, snaps) = interp
            .run_with_checkpoints("main", &[], interval)
            .expect("runs");
        for (dyn_idx, mask) in faults {
            let from = snaps
                .iter()
                .rev()
                .find(|s| s.dyn_count() <= dyn_idx)
                .expect("a checkpoint at 0");
            let fault = MachineFault {
                dyn_idx,
                effect: FaultEffect::OperandXor { slot: 0, mask },
            };
            got.push(match interp.replay(from, Some(fault), &snaps) {
                ReplayOutcome::Rejoined { at_dyn } => Some(at_dyn),
                ReplayOutcome::Finished(_) => None,
            });
        }
    }
    // One row per interval, one column per fault.
    let want = [
        [8, 20, 118, 130],
        [10, 22, 118, 130],
        [13, 28, 119, 132],
        [16, 30, 130, 130],
        [16, 31, 121, 136],
    ];
    let want: Vec<_> = want.into_iter().flatten().map(Some).collect();
    assert_eq!(got, want);
}

/// One effect of each fault kind, placed on every position of the sweep:
/// the branch into the batch, both phis, the load and the compare after
/// it. A replay from any checkpoint at or before the fault, traced or
/// not, with or without rendezvous, must fire it at the same instruction.
#[test]
fn faults_fire_at_each_position_in_both_tracing_modes() {
    let m = module();
    let effects = [
        FaultEffect::OperandXor {
            slot: 0,
            mask: 1 << 40,
        },
        FaultEffect::ResultXor { mask: 1 },
        FaultEffect::SkipInst,
        FaultEffect::FlipBranch,
        FaultEffect::AddrXor { mask: 1 << 40 },
        FaultEffect::EccFlip {
            mask: 0b11,
            window: 4,
        },
    ];
    let plain = Interpreter::new(&m, ExecConfig::default());
    let traced = Interpreter::new(
        &m,
        ExecConfig {
            record_trace: true,
            ..ExecConfig::default()
        },
    );
    let golden = plain.run("main", &[], None).expect("runs");
    let checkpoints: Vec<_> = [2, 3, 13]
        .into_iter()
        .map(|interval| {
            let (_, snaps) = plain
                .run_with_checkpoints("main", &[], interval)
                .expect("runs");
            snaps
        })
        .collect();
    let mut got = Vec::new();
    for dyn_idx in SWEEP {
        for effect in effects {
            let fault = MachineFault { dyn_idx, effect };
            let fresh = plain.run("main", &[], Some(fault)).expect("runs");
            let same = |r: &RunResult| {
                r.outcome == fresh.outcome
                    && r.outputs == fresh.outputs
                    && r.dyn_insts == fresh.dyn_insts
            };
            let what = format!("{fault:?}");
            let with_trace = traced.run("main", &[], Some(fault)).expect("runs");
            assert!(same(&with_trace), "{what}: traced run differs");
            assert!(with_trace.trace.is_some(), "{what}: traced run has a trace");
            let masked = same(&golden);
            for snaps in &checkpoints {
                for from in snaps.iter().filter(|s| s.dyn_count() <= dyn_idx) {
                    let at = from.dyn_count();
                    match plain.replay(from, Some(fault), &[]) {
                        ReplayOutcome::Finished(r) => {
                            assert!(same(&r), "{what} from {at}: replay differs");
                        }
                        ReplayOutcome::Rejoined { .. } => {
                            unreachable!("no rendezvous was armed")
                        }
                    }
                    match plain.replay(from, Some(fault), snaps) {
                        ReplayOutcome::Finished(r) => {
                            assert!(same(&r), "{what} from {at}: rendezvous replay differs");
                        }
                        ReplayOutcome::Rejoined { at_dyn } => {
                            assert!(masked, "{what} from {at}: rejoined at {at_dyn}");
                            assert!(at_dyn > dyn_idx, "{what}: rejoined at {at_dyn}");
                        }
                    }
                }
            }
            got.push((fresh.outcome, fresh.dyn_insts));
        }
    }
    // One row per position, one column per effect. Only the operand and
    // result flips fire on a phi, and nothing fires on the branch.
    let done = Outcome::Completed;
    let segv = Outcome::Crashed {
        kind: CrashKind::Segfault,
        at_dyn: 16,
    };
    let want = [
        [(done, 153); 6],
        [
            (done, 21),
            (done, 165),
            (done, 153),
            (done, 153),
            (done, 153),
            (done, 153),
        ],
        [(done, 153); 6],
        [
            (segv, 17),
            (done, 153),
            (done, 153),
            (done, 153),
            (segv, 17),
            (done, 153),
        ],
        [
            (done, 21),
            (done, 21),
            (done, 153),
            (done, 153),
            (done, 153),
            (done, 153),
        ],
    ];
    assert_eq!(got, want.concat());
}
