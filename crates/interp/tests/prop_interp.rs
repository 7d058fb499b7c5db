//! Property tests for the interpreter: random straight-line integer
//! expression programs must evaluate exactly as a Rust reference evaluator,
//! and execution must be deterministic.

use epvf_interp::{ExecConfig, Interpreter, Outcome};
use epvf_ir::{BinOp, ModuleBuilder, Type};
use proptest::prelude::*;

/// A random expression node: combine two earlier values with an operator.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: BinOp,
    lhs: usize,
    rhs: usize,
}

fn op_strategy() -> impl Strategy<Value = BinOp> {
    prop::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
    ])
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            op_strategy(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (op, l, r))| Step {
                op,
                lhs: l.index(i + 2), // may reference the two seeds or any prior step
                rhs: r.index(i + 2),
            })
            .collect()
    })
}

/// Reference evaluation with the IR's documented semantics (wrapping i64,
/// shift amounts mod 64).
fn eval_ref(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b % 64) as u32),
        BinOp::LShr => a.wrapping_shr((b % 64) as u32),
        BinOp::AShr => ((a as i64) >> (b % 64)) as u64,
        _ => unreachable!("strategy excludes trapping ops"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// IR execution of a random expression DAG matches direct evaluation.
    #[test]
    fn random_expression_dags_evaluate_exactly(
        seeds in (any::<u64>(), any::<u64>()),
        steps in steps_strategy(),
    ) {
        // Reference evaluation.
        let mut vals = vec![seeds.0, seeds.1];
        for s in &steps {
            let v = eval_ref(s.op, vals[s.lhs], vals[s.rhs]);
            vals.push(v);
        }
        let expected = *vals.last().expect("nonempty");

        // IR construction mirroring the DAG.
        let mut mb = ModuleBuilder::new("prop");
        let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
        let mut irs = vec![f.param(0), f.param(1)];
        for s in &steps {
            let v = f.bin(s.op, Type::I64, irs[s.lhs], irs[s.rhs]);
            irs.push(v);
        }
        let last = *irs.last().expect("nonempty");
        f.output(Type::I64, last);
        f.ret(None);
        f.finish();
        let module = mb.finish().expect("verifies");

        let r = Interpreter::new(&module, ExecConfig::default())
            .run("main", &[seeds.0, seeds.1], None)
            .expect("runs");
        prop_assert_eq!(r.outcome, Outcome::Completed);
        prop_assert_eq!(r.outputs[0], expected);
    }

    /// Golden runs (incl. the full trace) are bit-for-bit deterministic.
    #[test]
    fn traced_execution_is_deterministic(
        seeds in (any::<u64>(), any::<u64>()),
        steps in steps_strategy(),
    ) {
        let mut mb = ModuleBuilder::new("prop");
        let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
        let mut irs = vec![f.param(0), f.param(1)];
        for s in &steps {
            let v = f.bin(s.op, Type::I64, irs[s.lhs], irs[s.rhs]);
            irs.push(v);
        }
        let last = *irs.last().expect("nonempty");
        f.output(Type::I64, last);
        f.ret(None);
        f.finish();
        let module = mb.finish().expect("verifies");
        let interp = Interpreter::new(&module, ExecConfig::default());
        let a = interp.golden_run("main", &[seeds.0, seeds.1]).expect("runs");
        let b = interp.golden_run("main", &[seeds.0, seeds.1]).expect("runs");
        prop_assert_eq!(a, b);
    }

    /// Injecting and re-running with the same spec gives identical results
    /// (the campaign machinery relies on this).
    #[test]
    fn injected_execution_is_deterministic(
        seeds in (any::<u64>(), any::<u64>()),
        steps in steps_strategy(),
        bit in 0u8..64,
    ) {
        let mut mb = ModuleBuilder::new("prop");
        let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
        let mut irs = vec![f.param(0), f.param(1)];
        for s in &steps {
            let v = f.bin(s.op, Type::I64, irs[s.lhs], irs[s.rhs]);
            irs.push(v);
        }
        let last = *irs.last().expect("nonempty");
        f.output(Type::I64, last);
        f.ret(None);
        f.finish();
        let module = mb.finish().expect("verifies");
        let interp = Interpreter::new(&module, ExecConfig::default());
        let spec = epvf_interp::InjectionSpec {
            dyn_idx: (steps.len() / 2) as u64,
            operand_slot: 0,
            bit,
        };
        let a = interp.run("main", &[seeds.0, seeds.1], Some(spec.into())).expect("runs");
        let b = interp.run("main", &[seeds.0, seeds.1], Some(spec.into())).expect("runs");
        prop_assert_eq!(a, b);
    }
}
