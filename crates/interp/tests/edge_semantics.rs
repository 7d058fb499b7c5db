//! Edge-case scalar and system semantics: the dark corners that fault
//! injection will eventually visit.

use epvf_interp::{CrashKind, ExecConfig, FaultEffect, Interpreter, MachineFault, Outcome};
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};

fn run_outputs(m: &Module, args: &[u64]) -> Vec<u64> {
    let r = Interpreter::new(m, ExecConfig::default())
        .run("main", args, None)
        .expect("runs");
    assert_eq!(r.outcome, Outcome::Completed, "{:?}", r.outcome);
    r.outputs
}

#[test]
fn shift_amounts_wrap_at_type_width() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    // 1 << 33 at i32: amount wraps to 1 → 2.
    let a = f.shl(Type::I32, Value::i32(1), Value::i32(33));
    f.output(Type::I32, a);
    // lshr by exactly the width wraps to 0 → unchanged.
    let b = f.lshr(Type::I32, Value::i32(-1), Value::i32(32));
    f.output(Type::I32, b);
    // i64 shl 64 → unchanged.
    let c = f.shl(Type::I64, Value::i64(5), Value::i64(64));
    f.output(Type::I64, c);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let out = run_outputs(&m, &[]);
    assert_eq!(out[0], 2);
    assert_eq!(out[1], 0xFFFF_FFFF);
    assert_eq!(out[2], 5);
}

#[test]
fn fptosi_of_nan_and_overflow_saturate_like_rust() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::F64], None);
    let x = f.param(0);
    let i = f.fptosi(Type::F64, Type::I32, x);
    f.output(Type::I32, i);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let cases = [
        (f64::NAN, 0i64),
        (1e300, i64::MAX),
        (-1e300, i64::MIN),
        (2.9, 2),
        (-2.9, -2),
    ];
    for (input, as_i64) in cases {
        let out = run_outputs(&m, &[input.to_bits()]);
        let expected = Type::I32.truncate(as_i64 as u64);
        assert_eq!(out[0], expected, "fptosi({input})");
    }
}

#[test]
fn unsigned_vs_signed_comparison_boundaries() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::I32, Type::I32], None);
    let a = f.param(0);
    let b = f.param(1);
    for pred in [IcmpPred::Ult, IcmpPred::Slt] {
        let c = f.icmp(pred, Type::I32, a, b);
        let w = f.zext(Type::I1, Type::I32, c);
        f.output(Type::I32, w);
    }
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    // -1 (0xFFFFFFFF) vs 1: unsigned -1 > 1, signed -1 < 1.
    let out = run_outputs(&m, &[0xFFFF_FFFF, 1]);
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn unbounded_recursion_aborts_at_the_stack_limit() {
    let mut mb = ModuleBuilder::new("t");
    let rec = mb.declare("rec", vec![Type::I64], Some(Type::I64));
    let mut fb = mb.define(rec);
    let n = fb.param(0);
    let n1 = fb.add(Type::I64, n, Value::i64(1));
    let r = fb.call(rec, vec![n1]).expect("value");
    fb.ret(Some(r));
    fb.finish();
    let mut main = mb.function("main", vec![], None);
    let v = main.call(rec, vec![Value::i64(0)]).expect("value");
    main.output(Type::I64, v);
    main.ret(None);
    main.finish();
    let m = mb.finish().expect("verifies");
    let r = Interpreter::new(&m, ExecConfig::default())
        .run("main", &[], None)
        .expect("runs");
    assert_eq!(
        r.outcome.crash_kind(),
        Some(CrashKind::Abort),
        "stack exhaustion is OS-initiated termination: {:?}",
        r.outcome
    );
}

#[test]
fn double_free_aborts() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(8));
    f.free(p);
    f.free(p);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = Interpreter::new(&m, ExecConfig::default())
        .run("main", &[], None)
        .expect("runs");
    assert_eq!(r.outcome.crash_kind(), Some(CrashKind::Abort));
}

#[test]
fn narrow_accesses_are_alignment_exempt() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(16));
    let odd = f.gep(p, Value::i32(3), 1);
    f.store(Type::I8, Value::const_int(Type::I8, 0xAB), odd);
    let v8 = f.load(Type::I8, odd);
    let w = f.zext(Type::I8, Type::I32, v8);
    f.output(Type::I32, w);
    let off2 = f.gep(p, Value::i32(6), 1);
    f.store(Type::I16, Value::const_int(Type::I16, 0xBEEF), off2);
    let v16 = f.load(Type::I16, off2);
    let w2 = f.zext(Type::I16, Type::I32, v16);
    f.output(Type::I32, w2);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run_outputs(&m, &[]), vec![0xAB, 0xBEEF]);
}

#[test]
fn result_target_fault_persists_across_uses() {
    // x = a + 0; out(x); out(x)  — a result-targeted flip corrupts both
    // outputs; an operand-targeted flip at the first output corrupts one.
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let x = f.add(Type::I32, Value::i32(8), Value::i32(0)); // dyn 0
    f.output(Type::I32, x); // dyn 1
    f.output(Type::I32, x); // dyn 2
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let interp = Interpreter::new(&m, ExecConfig::default());

    let dest = interp
        .run(
            "main",
            &[],
            Some(MachineFault {
                dyn_idx: 0,
                effect: FaultEffect::ResultXor { mask: 1 },
            }),
        )
        .expect("runs");
    assert_eq!(dest.outputs, vec![9, 9], "result fault persists");

    let src = interp
        .run(
            "main",
            &[],
            Some(MachineFault {
                dyn_idx: 1,
                effect: FaultEffect::OperandXor { slot: 0, mask: 1 },
            }),
        )
        .expect("runs");
    assert_eq!(src.outputs, vec![9, 8], "operand fault is per-use");
}

#[test]
fn result_fault_on_phi_applies() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let entry = f.current_block();
    let next = f.create_block("next");
    f.br(next); // dyn 0
    f.switch_to(next);
    let p = f.phi(Type::I32, vec![(entry, Value::i32(4))]); // dyn 1
    f.output(Type::I32, p); // dyn 2
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = Interpreter::new(&m, ExecConfig::default())
        .run(
            "main",
            &[],
            Some(MachineFault {
                dyn_idx: 1,
                effect: FaultEffect::ResultXor { mask: 2 },
            }),
        )
        .expect("runs");
    assert_eq!(r.outputs, vec![6]);
}

#[test]
fn float_min_max_follow_ieee_maxnum() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::F64, Type::F64], None);
    let a = f.param(0);
    let b = f.param(1);
    let mn = f.fmin(Type::F64, a, b);
    f.output(Type::F64, mn);
    let mx = f.fmax(Type::F64, a, b);
    f.output(Type::F64, mx);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    // NaN is ignored when the other operand is a number (Rust f64::min/max).
    let out = run_outputs(&m, &[f64::NAN.to_bits(), 2.0f64.to_bits()]);
    assert_eq!(f64::from_bits(out[0]), 2.0);
    assert_eq!(f64::from_bits(out[1]), 2.0);
}

#[test]
fn i1_store_load_roundtrip() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(4));
    f.store(Type::I1, Value::bool(true), p);
    let v = f.load(Type::I1, p);
    let w = f.zext(Type::I1, Type::I32, v);
    f.output(Type::I32, w);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run_outputs(&m, &[]), vec![1]);
}
