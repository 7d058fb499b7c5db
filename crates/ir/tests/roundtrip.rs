//! Print → parse → print round-trip tests for the textual IR.

use epvf_ir::{parse_module, FcmpPred, IcmpPred, Module, ModuleBuilder, Type, Value};

/// A module touching every syntactic construct the printer can emit.
fn kitchen_sink() -> Module {
    let mut mb = ModuleBuilder::new("kitchen-sink");
    let g = mb.global_i32s("table", &[1, -2, 3]);
    let gz = mb.global_zeroed("zeros", 64, 16);
    let helper = mb.declare("helper", vec![Type::I64, Type::F64], Some(Type::F64));
    let mut h = mb.define(helper);
    let a = h.param(0);
    let b = h.param(1);
    let af = h.sitofp(Type::I64, Type::F64, a);
    let s = h.fadd(Type::F64, af, b);
    let q = h.sqrt(Type::F64, s);
    h.ret(Some(q));
    h.finish();

    let mut f = mb.function("main", vec![Type::I32], None);
    let x = f.param(0);
    let entry = f.current_block();
    let body = f.create_block("body");
    let exit = f.create_block("exit");
    let wide = f.sext(Type::I32, Type::I64, x);
    let buf = f.malloc(Value::i64(64));
    let stack = f.alloca(16, 8);
    f.store(Type::I64, wide, stack);
    let reload = f.load(Type::I64, stack);
    let slot = f.gep(buf, reload, 8);
    f.store(Type::I64, Value::i64(-7), slot);
    let gslot = f.gep(Value::Global(g), Value::i32(1), 4);
    let gv = f.load(Type::I32, gslot);
    let zslot = f.gep(Value::Global(gz), Value::i32(0), 4);
    f.store(Type::I32, gv, zslot);
    let c = f.icmp(IcmpPred::Sge, Type::I32, gv, Value::i32(0));
    f.cond_br(c, body, exit);
    f.switch_to(body);
    let fv = f
        .call(helper, vec![wide, Value::f64(1.5)])
        .expect("returns");
    let fc = f.fcmp(FcmpPred::Ogt, Type::F64, fv, Value::f64(0.0));
    let sel = f.select(Type::F64, fc, fv, Value::f64(-1.0));
    f.output(Type::F64, sel);
    let narrowed = f.fptrunc(sel);
    let back = f.fpext(narrowed);
    f.output(Type::F64, back);
    let m = f.srem(Type::I32, gv, Value::i32(3));
    let lsh = f.shl(Type::I32, m, Value::i32(2));
    f.output(Type::I32, lsh);
    f.detect_if(fc);
    f.br(exit);
    f.switch_to(exit);
    let p = f.phi(
        Type::I32,
        vec![(entry, Value::i32(0)), (body, Value::i32(1))],
    );
    f.output(Type::I32, p);
    f.free(buf);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

#[test]
fn kitchen_sink_round_trips_textually() {
    let m = kitchen_sink();
    let text = m.to_string();
    let parsed = parse_module(&text).expect("parses");
    assert_eq!(
        parsed.to_string(),
        text,
        "print∘parse must be identity on printed text"
    );
}

#[test]
fn round_trip_preserves_behaviour() {
    use epvf_interp::{ExecConfig, Interpreter};
    let m = kitchen_sink();
    let parsed = parse_module(&m.to_string()).expect("parses");
    for arg in [0u64, 1, 5, (-3i64) as u64] {
        let a = Interpreter::new(&m, ExecConfig::default())
            .run("main", &[arg], None)
            .expect("runs");
        let b = Interpreter::new(&parsed, ExecConfig::default())
            .run("main", &[arg], None)
            .expect("runs");
        assert_eq!(a.outcome, b.outcome, "arg {arg}");
        assert_eq!(a.outputs, b.outputs, "arg {arg}");
        assert_eq!(a.dyn_insts, b.dyn_insts, "arg {arg}");
    }
}

#[test]
fn global_initializers_round_trip() {
    let m = kitchen_sink();
    let parsed = parse_module(&m.to_string()).expect("parses");
    assert_eq!(parsed.globals.len(), m.globals.len());
    for (a, b) in m.globals.iter().zip(&parsed.globals) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.size, b.size);
        assert_eq!(a.align, b.align);
        // Zero-initialized globals may print without an init clause.
        let a_bytes: Vec<u8> = a.init.clone();
        let mut b_bytes = b.init.clone();
        b_bytes.resize(a_bytes.len(), 0);
        assert_eq!(a_bytes, b_bytes);
    }
}

#[test]
fn parse_errors_carry_line_numbers() {
    let bad = "; module m\n\ndefine void @main() {\nbb0:  ; entry\n  frobnicate %1\n}\n";
    let err = parse_module(bad).expect_err("must fail");
    assert_eq!(err.line, 5);
    assert!(err.message.contains("frobnicate"), "{}", err.message);

    let bad_label = "; module m\n\ndefine void @main() {\nbb7:  ; entry\n  ret void\n}\n";
    let err = parse_module(bad_label).expect_err("must fail");
    assert!(err.message.contains("order"), "{}", err.message);
}

#[test]
fn parser_rejects_type_errors_through_verifier() {
    let bad = concat!(
        "; module m\n\n",
        "define void @main() {\n",
        "bb0:  ; entry\n",
        "  %0 = add i32 i32 1, i64 2\n",
        "  ret void\n",
        "}\n",
    );
    let err = parse_module(bad).expect_err("verifier must reject");
    assert_eq!(err.line, 0, "verifier errors use line 0");
}

#[test]
fn negative_and_hex_literals_parse() {
    let text = concat!(
        "; module m\n\n",
        "define i64 @main() {\n",
        "bb0:  ; entry\n",
        "  %0 = add i64 i64 -5, i64 0x10\n",
        "  ret %0\n",
        "}\n",
    );
    let m = parse_module(text).expect("parses");
    use epvf_interp::{ExecConfig, Interpreter};
    let r = Interpreter::new(&m, ExecConfig::default())
        .run("main", &[], None)
        .expect("runs");
    assert_eq!(r.outcome, epvf_interp::Outcome::Completed);
}
