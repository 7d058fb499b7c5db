//! Brute-force validation of the Table III backward-propagation rows.
//!
//! [`operand_range`] inverts one instruction: given that the result must
//! stay inside `dest`, it bounds the operand. These tests check that claim
//! against *direct enumeration through the real interpreter*: for every
//! 8-bit operand value `v` we re-execute a tiny module with the operand
//! substituted and compare "result landed in `dest`" with "`v` is inside
//! the inverted range" — exactly, value by value, for every arithmetic row
//! (add/sub/mul/udiv/sdiv/shl/lshr), the bitwise rows (unconstrained by
//! design), the cast rows, GEP, phi, and select, plus the wraparound and
//! empty-range cases where the model must fall back to `None` via its
//! golden-value safety valve.

use epvf_core::{operand_range, ValueRange};
use epvf_interp::{DynInst, DynInstRef, ExecConfig, Interpreter, OperandRec, Outcome, Trace};
use epvf_ir::{BinOp, IcmpPred, Module, ModuleBuilder, Op, Type, Value};

/// Build `main(a: i64, b: i64) { r = a <op> b }`.
fn bin_module(op: BinOp) -> Module {
    let mut mb = ModuleBuilder::new("t3");
    let mut f = mb.function("main", vec![Type::I64, Type::I64], None);
    let (a, b) = (f.param(0), f.param(1));
    f.bin(op, Type::I64, a, b);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

/// A trace record cloned out of its run, with its operands.
struct Rec {
    inst: DynInst,
    operands: Vec<OperandRec>,
}

impl Rec {
    fn view(&self) -> DynInstRef<'_> {
        DynInstRef {
            inst: &self.inst,
            operands: &self.operands,
        }
    }
}

impl std::ops::Deref for Rec {
    type Target = DynInst;
    fn deref(&self) -> &DynInst {
        &self.inst
    }
}

/// Golden-run `module` and return the first record whose static op
/// satisfies `pred`, along with that op (cloned out of the module).
fn traced_op(module: &Module, args: &[u64], pred: impl Fn(&Op) -> bool) -> (Op, Rec) {
    let run = Interpreter::new(module, ExecConfig::default())
        .golden_run("main", args)
        .expect("entry valid");
    assert_eq!(run.outcome, Outcome::Completed);
    let trace: &Trace = run.trace.as_ref().expect("traced");
    for rec in trace {
        let inst = module.functions[rec.func.index()]
            .insts()
            .find(|i| i.sid == rec.sid)
            .expect("record maps to a static inst");
        if pred(&inst.op) {
            let rec = Rec {
                inst: rec.inst.clone(),
                operands: rec.operands.to_vec(),
            };
            return (inst.op.clone(), rec);
        }
    }
    panic!("no matching instruction executed");
}

/// The instruction's result when entry argument `arg_idx` (wired straight
/// into one operand) is replaced by `v`, taken from a fresh interpreter run
/// — ground truth, not a re-implementation of the semantics. `None` means
/// the run trapped before the op produced a value (e.g. division by zero),
/// which for range purposes is "outside every dest".
fn result_with(
    module: &Module,
    args: &[u64],
    arg_idx: usize,
    v: u64,
    pred: impl Fn(&Op) -> bool,
) -> Option<u64> {
    let mut args = args.to_vec();
    args[arg_idx] = v;
    let run = Interpreter::new(module, ExecConfig::default())
        .golden_run("main", &args)
        .expect("entry valid");
    let trace = run.trace.as_ref()?;
    for rec in trace {
        let inst = module.functions[rec.func.index()]
            .insts()
            .find(|i| i.sid == rec.sid)
            .expect("record maps to a static inst");
        if pred(&inst.op) {
            return rec.result.map(|(_, bits, _)| bits);
        }
    }
    None
}

/// Whether `dest.hi` sits below the region where wrapped (overflowed)
/// results land, so the non-wrapping Table III inversion can be exact.
fn below_wrap(dest: ValueRange) -> bool {
    dest.hi < 1 << 63
}

/// Candidate `dest` ranges around a golden result — every one contains it,
/// as ranges produced by the crash model always do.
fn dests_around(res: u64) -> Vec<ValueRange> {
    vec![
        ValueRange::new(res, res),
        ValueRange::new(res.saturating_sub(5), res.saturating_add(5)),
        ValueRange::new(0, res),
        ValueRange::new(res, u64::MAX),
        ValueRange::new(res / 2, res.saturating_mul(2) | 1),
        ValueRange::FULL,
    ]
}

/// Compare the inverted range against interpreter truth on the full 8-bit
/// operand domain. Two properties, matching what the crash model needs:
///
/// * **soundness** (recall): `v ∈ R ⇒ result ∈ dest` — every true crash is
///   a predicted crash. Holds unconditionally.
/// * **exactness** (precision): `v ∉ R ⇒ result ∉ dest`. Holds whenever
///   `dest` sits below the wrap region; a wrapped (overflowed) result can
///   re-enter a top-anchored `dest`, which the paper's non-wrapping
///   inversion deliberately ignores.
fn assert_exact_on_byte_domain(op: BinOp, args: &[u64; 2], slot: usize) {
    let module = bin_module(op);
    let is_bin = |o: &Op| matches!(o, Op::Bin { .. });
    let (sop, rec) = traced_op(&module, args, is_bin);
    let golden_res = rec.result.expect("bin defines").1;
    let truth: Vec<Option<u64>> = (0..=255u64)
        .map(|v| result_with(&module, args, slot, v, is_bin))
        .collect();
    for dest in dests_around(golden_res) {
        let Some(r) = operand_range(&sop, slot, rec.view(), dest) else {
            continue; // unconstrained: conservative, nothing to refute
        };
        assert!(
            r.contains(rec.operands[slot].bits),
            "{op:?} slot {slot}: golden operand escaped {r} for dest {dest}"
        );
        for (v, res) in truth.iter().enumerate() {
            let in_dest = res.is_some_and(|res| dest.contains(res));
            if r.contains(v as u64) {
                assert!(
                    in_dest,
                    "{op:?}({args:?}) slot {slot}, dest {dest}: v={v} allowed by {r} \
                     but result {res:?} escapes (missed crash)"
                );
            } else if below_wrap(dest) {
                assert!(
                    !in_dest,
                    "{op:?}({args:?}) slot {slot}, dest {dest}: v={v} excluded by {r} \
                     but result {res:?} is in range (phantom crash)"
                );
            }
        }
    }
}

#[test]
fn add_sub_inversion_matches_enumeration() {
    for args in [[100, 7], [37, 3], [9, 2], [250, 5]] {
        for slot in 0..2 {
            assert_exact_on_byte_domain(BinOp::Add, &args, slot);
            assert_exact_on_byte_domain(BinOp::Sub, &args, slot);
        }
    }
}

#[test]
fn mul_inversion_matches_enumeration() {
    for args in [[100, 7], [37, 3], [9, 2], [250, 5]] {
        for slot in 0..2 {
            assert_exact_on_byte_domain(BinOp::Mul, &args, slot);
        }
    }
}

#[test]
fn div_inversion_matches_enumeration() {
    // Row 4 constrains the dividend only; the divisor stays unconstrained.
    for args in [[100, 7], [37, 3], [250, 5]] {
        for slot in 0..2 {
            assert_exact_on_byte_domain(BinOp::UDiv, &args, slot);
            assert_exact_on_byte_domain(BinOp::SDiv, &args, slot);
        }
    }
    let module = bin_module(BinOp::UDiv);
    let (op, rec) = traced_op(&module, &[100, 7], |o| matches!(o, Op::Bin { .. }));
    assert_eq!(
        operand_range(&op, 1, rec.view(), ValueRange::new(10, 20)),
        None,
        "divisor inversion is out of the model's scope"
    );
}

#[test]
fn shift_inversion_matches_enumeration() {
    // Shift amounts stay below 8 so the 8-bit operand domain cannot
    // overflow a u64; the amount operand itself is unconstrained.
    for args in [[100, 7], [37, 3], [9, 2]] {
        for slot in 0..2 {
            assert_exact_on_byte_domain(BinOp::Shl, &args, slot);
            assert_exact_on_byte_domain(BinOp::LShr, &args, slot);
        }
    }
}

#[test]
fn bitwise_ops_are_unconstrained() {
    // Table III has no row for and/or/xor: bit k of the result depends
    // only on bit k of the operands, so no contiguous range bounds them.
    for op in [BinOp::And, BinOp::Or, BinOp::Xor] {
        let module = bin_module(op);
        let (sop, rec) = traced_op(&module, &[0xF0, 0x1E], |o| matches!(o, Op::Bin { .. }));
        let res = rec.result.expect("defines").1;
        for dest in dests_around(res) {
            for slot in 0..2 {
                assert_eq!(
                    operand_range(&sop, slot, rec.view(), dest),
                    None,
                    "{op:?} slot {slot} dest {dest}"
                );
            }
        }
    }
}

#[test]
fn add_wraparound_is_exact_or_rejected() {
    // Golden sum sits just below 2^64; small flips that avoid the wrap are
    // allowed, and a dest below the wrap point must be rejected by the
    // golden-value safety valve rather than inverted incorrectly.
    let module = bin_module(BinOp::Add);
    let args = [2u64, u64::MAX - 3];
    let is_bin = |o: &Op| matches!(o, Op::Bin { .. });
    let (op, rec) = traced_op(&module, &args, is_bin);
    let dest = ValueRange::new(u64::MAX - 2, u64::MAX);
    let r = operand_range(&op, 0, rec.view(), dest).expect("invertible near the top");
    for v in 0..=255u64 {
        let res = result_with(&module, &args, 0, v, is_bin);
        assert_eq!(
            r.contains(v),
            res.is_some_and(|res| dest.contains(res)),
            "v={v}: wrapped result {res:?} vs range {r}"
        );
    }
    // dest = [0, 100] only holds *wrapped* sums; the linear inversion
    // cannot express that, and the valve must drop it.
    let wrapped = traced_op(&module, &[10, u64::MAX - 3], is_bin);
    assert_eq!(
        operand_range(&wrapped.0, 0, wrapped.1.view(), ValueRange::new(0, 100)),
        None,
        "wraparound inversion must be rejected, not guessed"
    );
}

#[test]
fn empty_inverted_range_is_rejected() {
    // dest [5, 7] under mul-by-10 admits no integer operand at all: the
    // inversion comes out inverted (lo > hi) and the valve returns None.
    let module = bin_module(BinOp::Mul);
    let (op, rec) = traced_op(&module, &[1, 10], |o| matches!(o, Op::Bin { .. }));
    assert_eq!(
        operand_range(&op, 0, rec.view(), ValueRange::new(5, 7)),
        None
    );
    // Same via mul-by-zero: nothing to invert.
    let (zop, zrec) = traced_op(&module, &[1, 0], |o| matches!(o, Op::Bin { .. }));
    assert_eq!(
        operand_range(&zop, 0, zrec.view(), ValueRange::new(0, 10)),
        None
    );
}

#[test]
fn cast_rows_match_enumeration() {
    // trunc i64 -> i32: identity below the narrow mask.
    let mut mb = ModuleBuilder::new("t3c");
    let mut f = mb.function("main", vec![Type::I64], None);
    let a = f.param(0);
    f.trunc(Type::I64, Type::I32, a);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let is_cast = |o: &Op| matches!(o, Op::Cast { .. });
    let (op, rec) = traced_op(&module, &[77], is_cast);
    for dest in dests_around(77) {
        match operand_range(&op, 0, rec.view(), dest) {
            Some(r) => {
                assert!(
                    dest.hi <= u64::from(u32::MAX),
                    "trunc keeps only in-mask dests"
                );
                for v in 0..=255u64 {
                    let res = result_with(&module, &[77], 0, v, is_cast);
                    assert_eq!(
                        r.contains(v),
                        res.is_some_and(|res| dest.contains(res)),
                        "trunc v={v} dest {dest}"
                    );
                }
            }
            None => assert!(
                dest.hi > u64::from(u32::MAX),
                "trunc must stay invertible for in-mask dest {dest}"
            ),
        }
    }

    // zext/sext i32 -> i64: identity on non-negative 32-bit values.
    for signed in [false, true] {
        let mut mb = ModuleBuilder::new("t3x");
        let mut f = mb.function("main", vec![Type::I32], None);
        let a = f.param(0);
        if signed {
            f.sext(Type::I32, Type::I64, a);
        } else {
            f.zext(Type::I32, Type::I64, a);
        }
        f.ret(None);
        f.finish();
        let module = mb.finish().expect("verifies");
        let (op, rec) = traced_op(&module, &[200], is_cast);
        for dest in dests_around(200) {
            let Some(r) = operand_range(&op, 0, rec.view(), dest) else {
                panic!("widening casts are always invertible (dest {dest})");
            };
            assert!(
                r.hi <= u64::from(u32::MAX),
                "widened range clips at the narrow mask"
            );
            for v in 0..=255u64 {
                let res = result_with(&module, &[200], 0, v, is_cast);
                assert_eq!(
                    r.contains(v),
                    res.is_some_and(|res| dest.contains(res)),
                    "signed={signed} v={v} dest {dest}"
                );
            }
        }
    }

    // Negative sext golden value: the identity-range assumption breaks and
    // the safety valve must reject rather than mispredict.
    let mut mb = ModuleBuilder::new("t3n");
    let mut f = mb.function("main", vec![Type::I32], None);
    let a = f.param(0);
    f.sext(Type::I32, Type::I64, a);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let neg = u64::from(u32::MAX - 15); // -16 as i32
    let (op, rec) = traced_op(&module, &[neg], is_cast);
    let golden_res = rec.result.expect("defines").1;
    assert!(golden_res > u64::from(u32::MAX), "sext sign-extended");
    assert_eq!(
        operand_range(
            &op,
            0,
            rec.view(),
            ValueRange::new(golden_res - 8, golden_res + 8)
        ),
        None,
        "negative sext inversion must be dropped by the valve"
    );
}

#[test]
fn gep_inversion_matches_enumeration() {
    // Row 6: dest = base + elem_size * index, over a real heap allocation.
    let mut mb = ModuleBuilder::new("t3g");
    let mut f = mb.function("main", vec![Type::I64], None);
    let idx = f.param(0);
    let base = f.malloc(Value::i64(64));
    f.gep(base, idx, 8);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let is_gep = |o: &Op| matches!(o, Op::Gep { .. });
    let (op, rec) = traced_op(&module, &[3], is_gep);
    let golden_res = rec.result.expect("gep defines").1;
    for dest in dests_around(golden_res) {
        // Index slot (operand 1, wired to entry argument 0): exact against
        // enumeration.
        if let Some(r) = operand_range(&op, 1, rec.view(), dest) {
            for v in 0..=255u64 {
                let res = result_with(&module, &[3], 0, v, is_gep);
                assert_eq!(
                    r.contains(v),
                    res.is_some_and(|res| dest.contains(res)),
                    "gep idx v={v} dest {dest}"
                );
            }
        }
        // Base slot: inverse shift by the actual golden offset.
        if let Some(r) = operand_range(&op, 0, rec.view(), dest) {
            assert!(r.contains(rec.operands[0].bits), "golden base in {r}");
            let off = golden_res.wrapping_sub(rec.operands[0].bits);
            assert_eq!(r.lo, dest.lo.saturating_sub(off), "dest {dest}");
        }
    }
}

#[test]
fn phi_and_select_forward_the_constraint() {
    // Phi forwards dest to the taken incoming unchanged.
    let mut mb = ModuleBuilder::new("t3p");
    let mut f = mb.function("main", vec![Type::I64], None);
    let a = f.param(0);
    let entry = f.current_block();
    let next = f.create_block("next");
    f.br(next);
    f.switch_to(next);
    f.phi(Type::I64, vec![(entry, a)]);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let is_phi = |o: &Op| matches!(o, Op::Phi { .. });
    let (op, rec) = traced_op(&module, &[42], is_phi);
    for dest in dests_around(42) {
        assert_eq!(operand_range(&op, 0, rec.view(), dest), Some(dest));
        for v in 0..=255u64 {
            let res = result_with(&module, &[42], 0, v, is_phi).expect("phi completes");
            assert_eq!(dest.contains(v), dest.contains(res), "phi is the identity");
        }
    }

    // Select: the taken slot inherits dest; the untaken slot is
    // unconstrained; the condition is a crash bit iff the untaken value
    // violates dest.
    let mut mb = ModuleBuilder::new("t3s");
    let mut f = mb.function("main", vec![Type::I64, Type::I64, Type::I64], None);
    let (c, a, b) = (f.param(0), f.param(1), f.param(2));
    let parity = f.and(Type::I64, c, Value::i64(1));
    let cond = f.icmp(IcmpPred::Eq, Type::I64, parity, Value::i64(1));
    f.select(Type::I64, cond, a, b);
    f.ret(None);
    f.finish();
    let module = mb.finish().expect("verifies");
    let is_sel = |o: &Op| matches!(o, Op::Select { .. });
    let (op, rec) = traced_op(&module, &[1, 50, 90], is_sel); // cond true -> takes a=50
    let taken_dest = ValueRange::new(40, 60);
    assert_eq!(
        operand_range(&op, 1, rec.view(), taken_dest),
        Some(taken_dest)
    );
    assert_eq!(
        operand_range(&op, 2, rec.view(), taken_dest),
        None,
        "untaken slot"
    );
    // Untaken b=90 violates [40, 60] -> the condition bit is pinned.
    assert_eq!(
        operand_range(&op, 0, rec.view(), taken_dest),
        Some(ValueRange::new(1, 1))
    );
    // Untaken b=90 satisfies [0, 100] -> flipping the condition is benign.
    assert_eq!(
        operand_range(&op, 0, rec.view(), ValueRange::new(0, 100)),
        None
    );
}
