//! Every faulted run — from the entry function or resumed from a snapshot,
//! with or without rendezvous — is timed under `interp.injected_run`, and
//! no fault-free run is. (Its own test binary: the telemetry registry is
//! process-global.)

use epvf_interp::{ExecConfig, InjectionSpec, Interpreter};
use epvf_ir::{ModuleBuilder, Type, Value};
use epvf_telemetry::{global_snapshot, Tmr};

fn injected_runs() -> u64 {
    global_snapshot()
        .timers
        .get(Tmr::InterpInjectedRun.name())
        .map_or(0, |t| t.count)
}

#[test]
fn faulted_runs_and_only_faulted_runs_are_timed() {
    // x = 40 + 2; output x
    let mut mb = ModuleBuilder::new("m");
    let mut f = mb.function("main", vec![], None);
    let x = f.add(Type::I32, Value::i32(40), Value::i32(2));
    f.output(Type::I32, x);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let interp = Interpreter::new(&module, ExecConfig::default());

    let before = injected_runs();
    let (_, snaps) = interp.run_with_checkpoints("main", &[], 1).expect("runs");
    interp.golden_run("main", &[]).expect("runs");
    interp.run("main", &[], None).expect("runs");
    interp.replay(&snaps[0], None, &[]);
    interp.replay(&snaps[0], None, &snaps);
    assert_eq!(injected_runs(), before, "fault-free runs are not timed");

    // Flip bit 0 of the output's read: prints 43 instead of 42.
    let fault = Some(
        InjectionSpec {
            dyn_idx: 1,
            operand_slot: 0,
            bit: 0,
        }
        .into(),
    );
    let r = interp.run("main", &[], fault).expect("runs");
    assert_eq!(r.outputs, vec![43]);
    interp.replay(&snaps[0], fault, &[]);
    interp.replay(&snaps[0], fault, &snaps);
    assert_eq!(injected_runs(), before + 3, "every faulted run is timed");
}
