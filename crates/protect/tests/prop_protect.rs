//! Property test: protecting ANY subset of duplicable instructions of a
//! random program must preserve fault-free behaviour exactly (the checks
//! never false-fire) and never reduce the dynamic instruction count.

use epvf_interp::{ExecConfig, Interpreter, Outcome};
use epvf_ir::{BinOp, Module, ModuleBuilder, StaticInstId, Type, Value};
use epvf_protect::{duplicable_slice, duplicate_instructions, is_duplicable};
use proptest::prelude::*;
use std::collections::HashSet;

fn program_strategy() -> impl Strategy<Value = (Vec<(BinOp, usize, usize)>, Vec<bool>)> {
    let op = prop::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Xor,
        BinOp::And,
        BinOp::Shl,
    ]);
    prop::collection::vec(
        (
            op,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
        1..25,
    )
    .prop_flat_map(|steps| {
        let n = steps.len();
        let steps = steps
            .into_iter()
            .enumerate()
            .map(|(i, (op, a, b))| (op, a.index(i + 2), b.index(i + 2)))
            .collect::<Vec<_>>();
        (Just(steps), prop::collection::vec(any::<bool>(), n))
    })
}

fn build(steps: &[(BinOp, usize, usize)]) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
    let buf = f.malloc(Value::i64(64));
    let mut vals = vec![f.param(0), f.param(1)];
    for (op, a, b) in steps {
        let v = f.bin(*op, Type::I64, vals[*a], vals[*b]);
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    // Route the result through memory so the program has crashable accesses.
    let masked = f.and(Type::I64, last, Value::i64(7));
    let slot = f.gep(buf, masked, 8);
    f.store(Type::I64, last, slot);
    let back = f.load(Type::I64, slot);
    f.output(Type::I64, back);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn protection_preserves_behaviour(
        (steps, picks) in program_strategy(),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let m = build(&steps);
        // Choose a random subset of duplicable instructions.
        let mut protect: HashSet<StaticInstId> = HashSet::new();
        let mut pick_iter = picks.iter().cycle();
        for func in &m.functions {
            for inst in func.insts() {
                if is_duplicable(&inst.op) && *pick_iter.next().expect("cycle") {
                    protect.insert(inst.sid);
                }
            }
        }
        let p = duplicate_instructions(&m, &protect);

        let orig = Interpreter::new(&m, ExecConfig::default())
            .run("main", &[seeds.0, seeds.1], None)
            .expect("runs");
        let prot = Interpreter::new(&p, ExecConfig::default())
            .run("main", &[seeds.0, seeds.1], None)
            .expect("runs");
        prop_assert_eq!(orig.outcome, Outcome::Completed);
        prop_assert_eq!(prot.outcome, Outcome::Completed, "no false detection");
        prop_assert_eq!(&orig.outputs, &prot.outputs);
        prop_assert!(prot.dyn_insts >= orig.dyn_insts);
        if !protect.is_empty() {
            prop_assert!(
                p.static_inst_count() > m.static_inst_count(),
                "protection must add instructions"
            );
        }
    }

    #[test]
    fn slices_are_closed_and_topological((steps, _) in program_strategy()) {
        let m = build(&steps);
        for func in &m.functions {
            for inst in func.insts() {
                let Some(slice) = duplicable_slice(&m, inst.sid) else { continue };
                prop_assert_eq!(*slice.last().expect("nonempty"), inst.sid);
                // Topological: every register operand of a slice member that
                // is itself defined by a slice member appears earlier.
                let pos = |sid: StaticInstId| slice.iter().position(|s| *s == sid);
                for (k, sid) in slice.iter().enumerate() {
                    let (_, _, member) = m.find_inst(*sid).expect("exists");
                    for op in member.op.operands() {
                        let Some(reg) = op.as_reg() else { continue };
                        // Find the defining instruction of this register.
                        let def = func
                            .insts()
                            .find(|i| i.result == Some(reg))
                            .map(|i| i.sid);
                        if let Some(d) = def.and_then(pos) {
                            prop_assert!(d < k, "dependency after dependent in slice");
                        }
                    }
                }
            }
        }
    }
}
