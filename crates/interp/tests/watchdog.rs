//! Watchdog semantics: fuel terminates runaway runs with a structured
//! `TimedOut` outcome, the `poison_at` test hook panics
//! deterministically, and an unarmed watchdog changes nothing.

use epvf_interp::{ExecConfig, Interpreter, Outcome, TimeoutKind};
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};

/// sum of 0..n via a loop with phis — long enough to trip any watchdog.
fn loop_sum_module() -> Module {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::I32], Some(Type::I32));
    let n = f.param(0);
    let entry = f.current_block();
    let header = f.create_block("header");
    let body = f.create_block("body");
    let exit = f.create_block("exit");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let acc = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let cont = f.icmp(IcmpPred::Slt, Type::I32, i, n);
    f.cond_br(cont, body, exit);
    f.switch_to(body);
    let acc2 = f.add(Type::I32, acc, i);
    let i2 = f.add(Type::I32, i, Value::i32(1));
    f.add_incoming(i, body, i2);
    f.add_incoming(acc, body, acc2);
    f.br(header);
    f.switch_to(exit);
    f.output(Type::I32, acc);
    f.ret(Some(acc));
    f.finish();
    mb.finish().expect("verifies")
}

#[test]
fn fuel_exhaustion_times_out() {
    let m = loop_sum_module();
    let r = Interpreter::new(
        &m,
        ExecConfig {
            fuel: Some(100),
            ..ExecConfig::default()
        },
    )
    .run("main", &[100_000], None)
    .expect("setup ok");
    assert_eq!(r.outcome, Outcome::TimedOut(TimeoutKind::Fuel));
    // The kill lands exactly at the fuel boundary: deterministic.
    assert_eq!(r.dyn_insts, 100);
}

#[test]
fn fuel_kill_is_deterministic() {
    let m = loop_sum_module();
    let run = || {
        Interpreter::new(
            &m,
            ExecConfig {
                fuel: Some(777),
                ..ExecConfig::default()
            },
        )
        .run("main", &[100_000], None)
        .expect("setup ok")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.dyn_insts, b.dyn_insts);
}

#[test]
fn generous_fuel_does_not_perturb_the_run() {
    let m = loop_sum_module();
    let plain = Interpreter::new(&m, ExecConfig::default())
        .run("main", &[10], None)
        .expect("setup ok");
    let fueled = Interpreter::new(
        &m,
        ExecConfig {
            fuel: Some(1_000_000),
            ..ExecConfig::default()
        },
    )
    .run("main", &[10], None)
    .expect("setup ok");
    assert_eq!(plain.outcome, Outcome::Completed);
    assert_eq!(fueled.outcome, Outcome::Completed);
    assert_eq!(plain.outputs, fueled.outputs);
    assert_eq!(plain.dyn_insts, fueled.dyn_insts);
}

#[test]
fn fuel_wins_over_hang_classification() {
    // Fuel below max_dyn_insts: the supervision kill fires before the
    // hang classifier, and the two outcomes stay distinct.
    let m = loop_sum_module();
    let r = Interpreter::new(
        &m,
        ExecConfig {
            fuel: Some(50),
            max_dyn_insts: 200,
            ..ExecConfig::default()
        },
    )
    .run("main", &[100_000], None)
    .expect("setup ok");
    assert_eq!(r.outcome, Outcome::TimedOut(TimeoutKind::Fuel));

    let r = Interpreter::new(
        &m,
        ExecConfig {
            max_dyn_insts: 200,
            ..ExecConfig::default()
        },
    )
    .run("main", &[100_000], None)
    .expect("setup ok");
    assert_eq!(r.outcome, Outcome::Hang);
}

#[test]
fn poison_hook_panics_at_the_requested_instruction() {
    let m = loop_sum_module();
    let result = std::panic::catch_unwind(|| {
        Interpreter::new(
            &m,
            ExecConfig {
                poison_at: Some(30),
                ..ExecConfig::default()
            },
        )
        .run("main", &[100_000], None)
    });
    let payload = result.expect_err("poisoned run panics");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("poisoned at dyn #30"), "payload: {msg}");
}

#[test]
fn timed_out_display_names_the_kind() {
    assert_eq!(
        Outcome::TimedOut(TimeoutKind::Fuel).to_string(),
        "timed out (fuel)"
    );
}
