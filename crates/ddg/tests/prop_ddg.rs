//! Property tests over randomly generated array-walking programs: the DDG
//! and ACE graph must uphold their structural invariants regardless of
//! program shape.

use epvf_ddg::{build_ddg, AceConfig, AceGraph, EdgeKind, NodeId, NodeKind};
use epvf_interp::{ExecConfig, Interpreter};
use epvf_ir::{BinOp, Module, ModuleBuilder, Type, Value};
use proptest::prelude::*;

/// One random straight-line action.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Combine two prior values.
    Arith(BinOp, usize, usize),
    /// Store a prior value at a prior-value-derived slot.
    Store(usize, usize),
    /// Load from a prior-value-derived slot.
    Load(usize),
    /// Mark a prior value as output.
    Output(usize),
}

fn action_strategy() -> impl Strategy<Value = Vec<Action>> {
    let op = prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And]);
    prop::collection::vec(
        (
            0u8..4,
            op,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, op, a, b))| {
                let n = i + 2;
                match kind {
                    0 => Action::Arith(op, a.index(n), b.index(n)),
                    1 => Action::Store(a.index(n), b.index(n)),
                    2 => Action::Load(a.index(n)),
                    _ => Action::Output(a.index(n)),
                }
            })
            .collect()
    })
}

/// Build a runnable module from the action list. Values are i64; slots are
/// derived by masking an index into a 64-cell array.
fn build(actions: &[Action]) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
    let buf = f.malloc(Value::i64(8 * 64));
    let mut vals = vec![f.param(0), f.param(1)];
    let mut emitted_output = false;
    for a in actions {
        match a {
            Action::Arith(op, x, y) => {
                let v = f.bin(*op, Type::I64, vals[*x], vals[*y]);
                vals.push(v);
            }
            Action::Store(v, i) => {
                let masked = f.and(Type::I64, vals[*i], Value::i64(63));
                let slot = f.gep(buf, masked, 8);
                f.store(Type::I64, vals[*v], slot);
                vals.push(masked);
            }
            Action::Load(i) => {
                let masked = f.and(Type::I64, vals[*i], Value::i64(63));
                let slot = f.gep(buf, masked, 8);
                let v = f.load(Type::I64, slot);
                vals.push(v);
            }
            Action::Output(i) => {
                f.output(Type::I64, vals[*i]);
                emitted_output = true;
                vals.push(vals[*i]);
            }
        }
    }
    if !emitted_output {
        let last = *vals.last().expect("nonempty");
        f.output(Type::I64, last);
    }
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ddg_invariants_hold_for_random_programs(
        actions in action_strategy(),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let m = build(&actions);
        let run = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[seeds.0, seeds.1])
            .expect("runs");
        let trace = run.trace.as_ref().expect("traced");
        let ddg = build_ddg(&m, trace);

        // 1. Every dependency edge points at an existing earlier node: the
        //    order the one-sweep propagation relies on.
        for i in 0..ddg.len() {
            for &(dep, _) in ddg.deps(NodeId(i as u32)) {
                prop_assert!(dep.index() < i, "edge {} <- {}", i, dep.index());
            }
        }

        // 2. def_record round-trips.
        for rec in trace {
            if let Some(id) = ddg.def_of_record(rec.idx) {
                prop_assert_eq!(ddg.node(id).def_record, Some(rec.idx));
            }
        }

        // 3. ACE ⊆ DDG and ACE register bits ≤ total register bits.
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        prop_assert!(ace.len() <= ddg.len());
        prop_assert!(ace.register_bits() <= ddg.total_register_bits());
        for n in ace.nodes() {
            prop_assert!(ace.contains(*n));
        }

        // 4. The ACE set is dependency-closed: deps of ACE nodes are ACE.
        for n in ace.nodes() {
            for &(dep, _) in ddg.deps(*n) {
                prop_assert!(ace.contains(dep), "ACE closure violated");
            }
        }

        // 5. Every output root is ACE, and backward slices are subsets of
        //    the ACE graph when rooted at ACE nodes.
        for out in ddg.outputs() {
            prop_assert!(ace.contains(*out));
            for n in ddg.backward_slice(*out) {
                prop_assert!(ace.contains(n));
            }
        }

        // 6. Loads depend on the memory version of the covering store via a
        //    Data edge, never an Addr edge to a Mem node.
        for i in 0..ddg.len() {
            for &(dep, kind) in ddg.deps(NodeId(i as u32)) {
                if matches!(ddg.node(dep).kind, NodeKind::Mem { .. }) {
                    prop_assert_eq!(kind, EdgeKind::Data, "mem deps are data edges");
                }
            }
        }
    }

    /// A store followed by a load of the same slot links them in the DDG.
    #[test]
    fn store_load_forwarding_is_visible(v in any::<i64>(), slot in 0i64..64) {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let buf = f.malloc(Value::i64(8 * 64));
        let s = f.gep(buf, Value::i64(slot), 8);
        f.store(Type::I64, Value::i64(v), s);
        let l = f.load(Type::I64, s);
        f.output(Type::I64, l);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let run = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        prop_assert_eq!(run.outputs[0], v as u64);
        let ddg = build_ddg(&m, run.trace.as_ref().expect("traced"));
        let load_node = (0..ddg.len() as u32)
            .map(NodeId)
            .find(|&n| {
                ddg.node(n).kind.is_reg()
                    && ddg.deps(n).iter().any(|(d, _)| matches!(ddg.node(*d).kind, NodeKind::Mem { .. }))
            });
        prop_assert!(load_node.is_some(), "load links to the store's memory version");
    }
}
