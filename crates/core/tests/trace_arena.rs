//! The trace's operand arena at its edges: records whose operands would
//! cross a chunk boundary, and calls with more arguments than one chunk
//! holds (a chunk holds 4,096 operands). Every record handed out must
//! carry exactly its instruction's operands, whichever chunk they landed
//! in, and the analyses that read them must agree.

use epvf_core::{analyze, analyze_compositional, EpvfConfig, SectionCache};
use epvf_interp::{DynValueId, ExecConfig, FaultEffect, Interpreter, MachineFault, Outcome, Trace};
use epvf_ir::{BlockId, IcmpPred, InstIndex, Module, ModuleBuilder, Op, StaticInstId, Type, Value};
use std::collections::HashMap;

/// A loop whose body mixes records of one, two and three operands, so
/// the running operand count passes 4,096 inside a record.
fn mixed_loop(trips: i32) -> Module {
    let mut mb = ModuleBuilder::new("mixed");
    let mut f = mb.function("main", vec![], None);
    let buf = f.malloc(Value::i64(i64::from(trips) * 4));
    let entry = f.current_block();
    let header = f.create_block("h");
    let body = f.create_block("b");
    let exit = f.create_block("e");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
    let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(trips));
    f.cond_br(c, body, exit);
    f.switch_to(body);
    let odd = f.and(Type::I32, i, Value::i32(1));
    let is_odd = f.icmp(IcmpPred::Eq, Type::I32, odd, Value::i32(1));
    let v = f.select(Type::I32, is_odd, i, Value::i32(7));
    let slot = f.gep(buf, i, 4);
    f.store(Type::I32, v, slot);
    let back = f.load(Type::I32, slot);
    f.output(Type::I32, back);
    let i2 = f.add(Type::I32, i, Value::i32(1));
    f.add_incoming(i, body, i2);
    f.br(header);
    f.switch_to(exit);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

/// Two calls of a function of `n` parameters, with register and constant
/// arguments.
fn wide_call(n: u32) -> Module {
    let mut mb = ModuleBuilder::new("wide");
    let mut g = mb.function("wide", vec![Type::I64; n as usize], Some(Type::I64));
    let gid = g.func_id();
    let (first, last) = (g.param(0), g.param(n - 1));
    let s = g.add(Type::I64, first, last);
    g.ret(Some(s));
    g.finish();
    let mut f = mb.function("main", vec![], None);
    let a = f.add(Type::I64, Value::i64(20), Value::i64(1));
    let b = f.mul(Type::I64, a, Value::i64(2));
    let args: Vec<Value> = (0..n)
        .map(|k| match k % 3 {
            0 => a,
            1 => b,
            _ => Value::i64(i64::from(k)),
        })
        .collect();
    let r1 = f.call(gid, args.clone()).expect("returns");
    f.output(Type::I64, r1);
    let r2 = f.call(gid, args).expect("returns");
    f.output(Type::I64, r2);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

/// Each static instruction's block.
fn blocks_of(module: &Module) -> HashMap<StaticInstId, BlockId> {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| b.insts.iter().map(move |i| (i.sid, b.id)))
        .collect()
}

/// The three properties of a trace read through the arena. `skipped` is
/// the dynamic index an instruction-skip fault retired as a no-op.
fn assert_records_hold_their_operands(module: &Module, trace: &Trace, skipped: Option<u64>) {
    let index = InstIndex::new(module);
    let block_of = blocks_of(module);
    let mut defined: HashMap<DynValueId, u64> = HashMap::new();
    let mut pred_block = None;
    for (i, rec) in trace.iter().enumerate() {
        assert_eq!(rec.idx, i as u64);
        assert_eq!(trace.get(rec.idx), Some(rec), "record {i}");
        let op = &index.get(rec.sid).op;
        let values: Vec<Value> = rec.operands.iter().map(|o| o.value).collect();
        let expected = match op {
            _ if skipped == Some(rec.idx) => vec![],
            Op::Phi { incomings, .. } => {
                let from = pred_block.expect("a phi follows a branch");
                let taken = incomings.iter().find(|(bb, _)| *bb == from);
                vec![taken.expect("phi covers the predecessor").1]
            }
            _ => op.operands(),
        };
        assert_eq!(values, expected, "record {i}: {op:?}");
        for o in rec.operands {
            if let (Value::Reg(_), Some(src)) = (o.value, o.src) {
                if let Some(&bits) = defined.get(&src) {
                    assert_eq!(o.bits, bits, "record {i} reads {src:?}");
                }
            }
        }
        if let Some((_, bits, dv)) = rec.result {
            defined.insert(dv, bits);
        }
        if !matches!(op, Op::Phi { .. }) {
            pred_block = Some(block_of[&rec.sid]);
        }
    }
}

/// Monolithic and compositional analysis read the same operands.
fn assert_analyses_agree(module: &Module, trace: &Trace) {
    let config = EpvfConfig::default();
    let mono = analyze(module, trace, config);
    let composed = analyze_compositional(module, trace, config, &mut SectionCache::in_memory());
    assert_eq!(mono.crash_map, composed.crash_map);
    assert_eq!(mono.metrics.ddg_nodes, composed.metrics.ddg_nodes);
    assert!(mono.metrics.ace_nodes > 0);
}

fn golden(module: &Module) -> Trace {
    let run = Interpreter::new(module, ExecConfig::default())
        .golden_run("main", &[])
        .expect("runs");
    assert_eq!(run.outcome, Outcome::Completed);
    run.trace.expect("golden runs are traced")
}

#[test]
fn records_crossing_a_chunk_boundary_keep_their_operands() {
    let module = mixed_loop(400);
    let trace = golden(&module);
    // The first chunk fills inside a record: some record's operands start
    // before operand 4,096 and end after it.
    let mut start = 0;
    let mut straddler = None;
    for rec in &trace {
        let end = start + rec.operands.len();
        if start < 4096 && end > 4096 {
            straddler = Some(rec.idx);
        }
        start = end;
    }
    let straddler = straddler.expect("a record crosses operand 4,096");
    assert_records_hold_their_operands(&module, &trace, None);
    assert_analyses_agree(&module, &trace);

    // Retiring that record as a no-op leaves it with no operands.
    let cfg = ExecConfig {
        record_trace: true,
        ..ExecConfig::default()
    };
    let fault = MachineFault {
        dyn_idx: straddler,
        effect: FaultEffect::SkipInst,
    };
    let run = Interpreter::new(&module, cfg)
        .run("main", &[], Some(fault))
        .expect("runs");
    let skipped = run.trace.expect("traced");
    let rec = skipped.get(straddler).expect("recorded");
    assert!(rec.operands.is_empty());
    assert_records_hold_their_operands(&module, &skipped, Some(straddler));
}

#[test]
fn calls_wider_than_a_chunk_keep_their_arguments() {
    let module = wide_call(5000);
    let trace = golden(&module);
    let calls = trace.iter().filter(|r| r.operands.len() == 5000).count();
    assert_eq!(calls, 2);
    assert_records_hold_their_operands(&module, &trace, None);
    assert_analyses_agree(&module, &trace);
}
