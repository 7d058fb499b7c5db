//! Behavioural tests for the interpreter: scalar semantics, memory, calls,
//! tracing, and fault injection.

use epvf_interp::{
    CrashKind, ExecConfig, ExecError, InjectionSpec, Interpreter, MachineFault, Outcome, RunResult,
};
use epvf_ir::{FcmpPred, IcmpPred, Module, ModuleBuilder, Type, Value};

/// The paper's fault: flip `bit` of the operand read in `slot` at `dyn_idx`.
fn bitflip(dyn_idx: u64, operand_slot: usize, bit: u8) -> Option<MachineFault> {
    Some(
        InjectionSpec {
            dyn_idx,
            operand_slot,
            bit,
        }
        .into(),
    )
}

fn run(module: &Module, entry: &str, args: &[u64]) -> RunResult {
    Interpreter::new(module, ExecConfig::default())
        .run(entry, args, None)
        .expect("setup ok")
}

/// sum of 0..n via a loop with phis.
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
fn loop_sum_computes() {
    let m = loop_sum_module();
    let r = run(&m, "main", &[10]);
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.outputs, vec![45]);
}

#[test]
fn arithmetic_semantics() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    // i8 overflow wraps
    let a = f.add(
        Type::I8,
        Value::const_int(Type::I8, 200),
        Value::const_int(Type::I8, 100),
    );
    let w = f.zext(Type::I8, Type::I32, a);
    f.output(Type::I32, w);
    // signed division rounds toward zero
    let d = f.sdiv(Type::I32, Value::i32(-7), Value::i32(2));
    f.output(Type::I32, d);
    // srem keeps the sign of the dividend
    let r = f.srem(Type::I32, Value::i32(-7), Value::i32(2));
    f.output(Type::I32, r);
    // ashr of negative sign-extends
    let s = f.ashr(Type::I32, Value::i32(-8), Value::i32(1));
    f.output(Type::I32, s);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let out = run(&m, "main", &[]).outputs;
    assert_eq!(out[0], (200u64 + 100) & 0xFF); // 44
    assert_eq!(out[1] as u32 as i32, -3);
    assert_eq!(out[2] as u32 as i32, -1);
    assert_eq!(out[3] as u32 as i32, -4);
}

#[test]
fn float_pipeline() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let x = f.fadd(Type::F64, Value::f64(1.5), Value::f64(2.5)); // 4.0
    let s = f.sqrt(Type::F64, x); // 2.0
    let i = f.fptosi(Type::F64, Type::I32, s);
    f.output(Type::I32, i);
    let c = f.fcmp(FcmpPred::Ogt, Type::F64, s, Value::f64(1.0));
    let z = f.zext(Type::I1, Type::I32, c);
    f.output(Type::I32, z);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let out = run(&m, "main", &[]).outputs;
    assert_eq!(out, vec![2, 1]);
}

#[test]
fn f32_round_trip() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let a = f.fmul(Type::F32, Value::f32(1.5), Value::f32(2.0));
    let d = f.fpext(a);
    f.output(Type::F64, d);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let out = run(&m, "main", &[]).outputs;
    assert_eq!(f64::from_bits(out[0]), 3.0);
}

#[test]
fn division_by_zero_crashes_arithmetic() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::I32], Some(Type::I32));
    let p = f.param(0);
    let d = f.sdiv(Type::I32, Value::i32(100), p);
    f.ret(Some(d));
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = run(&m, "main", &[0]);
    assert_eq!(r.outcome.crash_kind(), Some(CrashKind::Arithmetic));
    assert_eq!(run(&m, "main", &[5]).outcome, Outcome::Completed);
}

#[test]
fn sdiv_overflow_crashes() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::I32], Some(Type::I32));
    let p = f.param(0);
    let d = f.sdiv(Type::I32, p, Value::i32(-1));
    f.ret(Some(d));
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = run(&m, "main", &[i32::MIN as u32 as u64]);
    assert_eq!(r.outcome.crash_kind(), Some(CrashKind::Arithmetic));
}

#[test]
fn memory_and_gep() {
    // arr[i] = i*i for i in 0..5; output arr[3]
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let arr = f.malloc(Value::i64(20));
    let entry = f.current_block();
    let header = f.create_block("h");
    let body = f.create_block("b");
    let exit = f.create_block("e");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let cont = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(5));
    f.cond_br(cont, body, exit);
    f.switch_to(body);
    let sq = f.mul(Type::I32, i, i);
    let slot = f.gep(arr, i, 4);
    f.store(Type::I32, sq, slot);
    let i2 = f.add(Type::I32, i, Value::i32(1));
    f.add_incoming(i, body, i2);
    f.br(header);
    f.switch_to(exit);
    let slot3 = f.gep(arr, Value::i32(3), 4);
    let v = f.load(Type::I32, slot3);
    f.output(Type::I32, v);
    f.free(arr);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = run(&m, "main", &[]);
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.outputs, vec![9]);
}

#[test]
fn gep_negative_index() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let arr = f.malloc(Value::i64(32));
    let end = f.gep(arr, Value::i32(4), 4);
    let back = f.gep(end, Value::i32(-4), 4);
    f.store(Type::I32, Value::i32(77), back);
    let v = f.load(Type::I32, arr);
    f.output(Type::I32, v);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[]).outputs, vec![77]);
}

#[test]
fn globals_initialized_and_readable() {
    let mut mb = ModuleBuilder::new("t");
    let g = mb.global_i32s("table", &[10, 20, 30]);
    let mut f = mb.function("main", vec![], None);
    let slot = f.gep(Value::Global(g), Value::i32(2), 4);
    let v = f.load(Type::I32, slot);
    f.output(Type::I32, v);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[]).outputs, vec![30]);
}

#[test]
fn alloca_stack_round_trip() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let slot = f.alloca(8, 8);
    f.store(Type::I64, Value::i64(99), slot);
    let v = f.load(Type::I64, slot);
    f.output(Type::I64, v);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[]).outputs, vec![99]);
}

#[test]
fn calls_pass_values_and_return() {
    let mut mb = ModuleBuilder::new("t");
    let sq = mb.declare("square", vec![Type::I32], Some(Type::I32));
    let mut f = mb.function("main", vec![Type::I32], Some(Type::I32));
    let x = f.param(0);
    let y = f.call(sq, vec![x]).expect("value");
    let z = f.add(Type::I32, y, Value::i32(1));
    f.output(Type::I32, z);
    f.ret(Some(z));
    f.finish();
    let mut s = mb.define(sq);
    let a = s.param(0);
    let aa = s.mul(Type::I32, a, a);
    s.ret(Some(aa));
    s.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[6]).outputs, vec![37]);
}

#[test]
fn recursion_factorial() {
    let mut mb = ModuleBuilder::new("t");
    let fact = mb.declare("fact", vec![Type::I64], Some(Type::I64));
    let mut fb = mb.define(fact);
    let n = fb.param(0);
    let base = fb.create_block("base");
    let rec = fb.create_block("rec");
    let c = fb.icmp(IcmpPred::Sle, Type::I64, n, Value::i64(1));
    fb.cond_br(c, base, rec);
    fb.switch_to(base);
    fb.ret(Some(Value::i64(1)));
    fb.switch_to(rec);
    let n1 = fb.sub(Type::I64, n, Value::i64(1));
    let r = fb.call(fact, vec![n1]).expect("value");
    let out = fb.mul(Type::I64, n, r);
    fb.ret(Some(out));
    fb.finish();
    let mut main = mb.function("main", vec![], None);
    let r = main.call(fact, vec![Value::i64(10)]).expect("value");
    main.output(Type::I64, r);
    main.ret(None);
    main.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[]).outputs, vec![3_628_800]);
}

#[test]
fn hang_detection() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let spin = f.create_block("spin");
    f.br(spin);
    f.switch_to(spin);
    f.br(spin);
    f.finish();
    let m = mb.finish().expect("verifies");
    let cfg = ExecConfig {
        max_dyn_insts: 10_000,
        ..ExecConfig::default()
    };
    let r = Interpreter::new(&m, cfg)
        .run("main", &[], None)
        .expect("setup ok");
    assert_eq!(r.outcome, Outcome::Hang);
}

#[test]
fn detect_terminator() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    f.detect();
    f.finish();
    let m = mb.finish().expect("verifies");
    assert_eq!(run(&m, "main", &[]).outcome, Outcome::Detected);
}

#[test]
fn setup_errors() {
    let m = loop_sum_module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    assert!(matches!(
        interp.run("nonexistent", &[], None),
        Err(ExecError::NoSuchFunction(_))
    ));
    assert!(matches!(
        interp.run("main", &[], None),
        Err(ExecError::BadArity {
            expected: 1,
            given: 0
        })
    ));
}

#[test]
fn trace_records_values_and_deps() {
    let m = loop_sum_module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    let r = interp.golden_run("main", &[3]).expect("setup ok");
    let trace = r.trace.expect("trace recorded");
    assert_eq!(trace.len() as u64, r.dyn_insts);
    // Every record's result value is consistent with later reads of the
    // same dynamic id.
    let mut defs = std::collections::HashMap::new();
    for rec in &trace {
        for op in rec.operands {
            if let Some(src) = op.src {
                if let Some(v) = defs.get(&src) {
                    assert_eq!(*v, op.bits, "dyn value changed between def and use");
                }
            }
        }
        if let Some((_, bits, id)) = rec.result {
            defs.insert(id, bits);
        }
    }
    // The output instruction is in the trace.
    assert!(trace.iter().any(|rec| {
        matches!(
            m.find_inst(rec.sid).map(|(_, _, i)| &i.op),
            Some(epvf_ir::Op::Output { .. })
        )
    }));
}

#[test]
fn trace_mem_snapshots_present() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(16));
    f.store(Type::I32, Value::i32(5), p);
    let v = f.load(Type::I32, p);
    f.output(Type::I32, v);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let r = Interpreter::new(&m, ExecConfig::default())
        .golden_run("main", &[])
        .expect("setup ok");
    let t = r.trace.expect("trace");
    let mems: Vec<_> = t.iter().filter_map(|rec| rec.inst.mem.as_ref()).collect();
    assert_eq!(mems.len(), 2);
    assert!(mems[0].is_store);
    assert!(!mems[1].is_store);
    assert_eq!(mems[0].addr, mems[1].addr);
    assert!(
        mems[0].map.locate(mems[0].addr).is_some(),
        "heap mapped at access"
    );
}

#[test]
fn injection_benign_on_untaken_select_operand() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let v = f.select(Type::I32, Value::bool(true), Value::i32(1), Value::i32(2));
    f.output(Type::I32, v);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let interp = Interpreter::new(&m, ExecConfig::default());
    let golden = interp.run("main", &[], None).expect("setup ok");
    // slot 2 = the untaken `b` operand of select
    let fi = interp.run("main", &[], bitflip(0, 2, 5)).expect("setup ok");
    assert!(fi.is_benign_vs(&golden));
}

#[test]
fn injection_causes_sdc_on_output_operand() {
    let m = loop_sum_module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    let golden = interp.golden_run("main", &[4]).expect("setup ok");
    let trace = golden.trace.as_ref().expect("trace");
    let out_rec = trace
        .iter()
        .find(|rec| {
            matches!(
                m.find_inst(rec.sid).map(|(_, _, i)| &i.op),
                Some(epvf_ir::Op::Output { .. })
            )
        })
        .expect("output executed");
    let fi = interp
        .run("main", &[4], bitflip(out_rec.idx, 0, 0))
        .expect("setup ok");
    assert!(fi.is_sdc_vs(&golden));
    assert_eq!(fi.outputs[0], golden.outputs[0] ^ 1);
}

#[test]
fn injection_in_address_high_bit_segfaults() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(8));
    f.store(Type::I64, Value::i64(1), p); // dyn 1, slot 1 = addr
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let interp = Interpreter::new(&m, ExecConfig::default());
    let fi = interp
        .run("main", &[], bitflip(1, 1, 40))
        .expect("setup ok");
    assert_eq!(fi.outcome.crash_kind(), Some(CrashKind::Segfault));
}

#[test]
fn injection_in_address_low_bit_misaligns() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let p = f.malloc(Value::i64(8));
    f.store(Type::I32, Value::i32(1), p);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let interp = Interpreter::new(&m, ExecConfig::default());
    let fi = interp.run("main", &[], bitflip(1, 1, 1)).expect("setup ok");
    assert_eq!(fi.outcome.crash_kind(), Some(CrashKind::Misaligned));
}

#[test]
fn injection_in_malloc_size_aborts() {
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![Type::I64], None);
    let sz = f.param(0);
    let p = f.malloc(sz);
    f.store(Type::I64, Value::i64(1), p);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let interp = Interpreter::new(&m, ExecConfig::default());
    // flip bit 62 of the size → astronomically large request → OOM → Abort
    let fi = interp
        .run("main", &[64], bitflip(0, 0, 62))
        .expect("setup ok");
    assert_eq!(fi.outcome.crash_kind(), Some(CrashKind::Abort));
}

#[test]
fn determinism_same_run_twice() {
    let m = loop_sum_module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    let a = interp.golden_run("main", &[17]).expect("setup ok");
    let b = interp.golden_run("main", &[17]).expect("setup ok");
    assert_eq!(a, b);
}

#[test]
fn injected_run_reaches_injection_point() {
    let m = loop_sum_module();
    let interp = Interpreter::new(&m, ExecConfig::default());
    let golden = interp.golden_run("main", &[5]).expect("setup ok");
    let spec = InjectionSpec {
        dyn_idx: golden.dyn_insts - 2,
        operand_slot: 0,
        bit: 0,
    };
    let fi = interp
        .run("main", &[5], Some(spec.into()))
        .expect("setup ok");
    assert!(
        fi.dyn_insts >= spec.dyn_idx,
        "ran at least to the injection point"
    );
}

#[test]
fn phi_parallel_assignment_swap() {
    // Classic swap via two phis: (a, b) = (b, a) each iteration.
    let mut mb = ModuleBuilder::new("t");
    let mut f = mb.function("main", vec![], None);
    let entry = f.current_block();
    let header = f.create_block("h");
    let body = f.create_block("b");
    let exit = f.create_block("e");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let a = f.phi(Type::I32, vec![(entry, Value::i32(1))]);
    let b = f.phi(Type::I32, vec![(entry, Value::i32(2))]);
    let cont = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(3));
    f.cond_br(cont, body, exit);
    f.switch_to(body);
    let i2 = f.add(Type::I32, i, Value::i32(1));
    f.add_incoming(i, body, i2);
    f.add_incoming(a, body, b); // a' = b
    f.add_incoming(b, body, a); // b' = a  (parallel!)
    f.br(header);
    f.switch_to(exit);
    f.output(Type::I32, a);
    f.output(Type::I32, b);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    // After 3 swaps: (a,b) = (2,1).
    assert_eq!(run(&m, "main", &[]).outputs, vec![2, 1]);
}
