//! The selective-duplication transform (paper §V).
//!
//! For each protected static instruction, its *static backward slice* of
//! pure (duplicable) computation is re-emitted immediately after it,
//! followed by a comparison of the recomputed value with the original and a
//! `detect.if` check that stops the run with a *Detected* outcome on
//! mismatch — "we selectively duplicate the instructions in the slice, and
//! insert a comparison of the duplicated value with the original value
//! following the chosen instruction".

use epvf_ir::{FcmpPred, IcmpPred, Inst, Module, Op, StaticInstId, Type, Value, ValueId};
use std::collections::{HashMap, HashSet};

/// Whether this operation may be re-executed for its value without side
/// effects or environment reads (the duplication boundary).
pub fn is_duplicable(op: &Op) -> bool {
    matches!(
        op,
        Op::Bin { .. }
            | Op::FBin { .. }
            | Op::FUn { .. }
            | Op::Icmp { .. }
            | Op::Fcmp { .. }
            | Op::Cast { .. }
            | Op::Select { .. }
            | Op::Gep { .. }
    )
}

/// The static backward slice of `sid` inside its function, restricted to
/// duplicable instructions, in dependency (topological) order ending with
/// `sid` itself. Returns `None` if `sid` itself is not duplicable.
pub fn duplicable_slice(module: &Module, sid: StaticInstId) -> Option<Vec<StaticInstId>> {
    let (func, _, root) = module.find_inst(sid)?;
    if !is_duplicable(&root.op) || root.result.is_none() {
        return None;
    }
    // Def map for the function.
    let mut def: HashMap<ValueId, &Inst> = HashMap::new();
    for inst in func.insts() {
        if let Some(r) = inst.result {
            def.insert(r, inst);
        }
    }
    // DFS with explicit post-order for topological emission order.
    let mut order: Vec<StaticInstId> = Vec::new();
    let mut seen: HashSet<StaticInstId> = HashSet::new();
    let mut stack: Vec<(&Inst, usize)> = vec![(root, 0)];
    seen.insert(root.sid);
    while let Some((inst, opi)) = stack.pop() {
        let operands = inst.op.operands();
        if opi >= operands.len() {
            order.push(inst.sid);
            continue;
        }
        stack.push((inst, opi + 1));
        if let Some(reg) = operands[opi].as_reg() {
            if let Some(dep) = def.get(&reg) {
                if is_duplicable(&dep.op) && !seen.contains(&dep.sid) {
                    seen.insert(dep.sid);
                    stack.push((dep, 0));
                }
            }
        }
    }
    Some(order)
}

/// Build a protected copy of `module`: for every instruction in `protect`
/// (filtered to duplicable ones), append its recomputation chain and a
/// `detect.if` check.
///
/// Returns the transformed module; the original is untouched. Protection is
/// a whole-module rewrite so static ids differ from the input's.
///
/// # Panics
/// Panics if the transformed module fails verification (transform bug).
pub fn duplicate_instructions(module: &Module, protect: &HashSet<StaticInstId>) -> Module {
    let mut out = module.clone();
    let mut next_sid = out.n_static_insts;

    for func in &mut out.functions {
        // Def map (sid → inst clone) for slice reconstruction.
        let mut def_by_reg: HashMap<ValueId, Inst> = HashMap::new();
        for inst in func.insts() {
            if let Some(r) = inst.result {
                def_by_reg.insert(r, inst.clone());
            }
        }
        let value_types = &mut func.value_types;
        for block in &mut func.blocks {
            let mut new_insts: Vec<Inst> = Vec::with_capacity(block.insts.len());
            for inst in block.insts.drain(..) {
                let protected =
                    protect.contains(&inst.sid) && is_duplicable(&inst.op) && inst.result.is_some();
                let orig = inst.clone();
                new_insts.push(inst);
                if !protected {
                    continue;
                }
                // Recompute the slice with fresh registers.
                let slice = slice_for(&def_by_reg, &orig);
                let mut dup_of: HashMap<ValueId, ValueId> = HashMap::new();
                for s in &slice {
                    let mut op = s.op.clone();
                    remap_operands(&mut op, &dup_of);
                    let old_reg = s.result.expect("duplicable insts define");
                    let new_reg = ValueId(value_types.len() as u32);
                    value_types.push(value_types[old_reg.index()]);
                    dup_of.insert(old_reg, new_reg);
                    new_insts.push(Inst {
                        sid: StaticInstId(next_sid),
                        result: Some(new_reg),
                        op,
                    });
                    next_sid += 1;
                }
                // Compare original vs recomputed; detect on mismatch.
                let orig_reg = orig.result.expect("checked");
                let dup_reg = dup_of[&orig_reg];
                let ty = value_types[orig_reg.index()];
                let cmp_reg = ValueId(value_types.len() as u32);
                value_types.push(Type::I1);
                let cmp_op = if ty.is_float() {
                    Op::Fcmp {
                        pred: FcmpPred::One,
                        ty,
                        a: Value::Reg(orig_reg),
                        b: Value::Reg(dup_reg),
                    }
                } else {
                    Op::Icmp {
                        pred: IcmpPred::Ne,
                        ty,
                        a: Value::Reg(orig_reg),
                        b: Value::Reg(dup_reg),
                    }
                };
                new_insts.push(Inst {
                    sid: StaticInstId(next_sid),
                    result: Some(cmp_reg),
                    op: cmp_op,
                });
                next_sid += 1;
                new_insts.push(Inst {
                    sid: StaticInstId(next_sid),
                    result: None,
                    op: Op::DetectIf {
                        cond: Value::Reg(cmp_reg),
                    },
                });
                next_sid += 1;
            }
            block.insts = new_insts;
        }
    }
    out.n_static_insts = next_sid;
    epvf_ir::verify_module(&out).expect("duplication transform preserves well-formedness");
    out
}

/// Slice in topological order for one root, using a register-def map.
fn slice_for(def_by_reg: &HashMap<ValueId, Inst>, root: &Inst) -> Vec<Inst> {
    let mut order: Vec<Inst> = Vec::new();
    let mut seen: HashSet<StaticInstId> = HashSet::new();
    let mut stack: Vec<(Inst, usize)> = vec![(root.clone(), 0)];
    seen.insert(root.sid);
    while let Some((inst, opi)) = stack.pop() {
        let operands = inst.op.operands();
        if opi >= operands.len() {
            order.push(inst);
            continue;
        }
        stack.push((inst.clone(), opi + 1));
        if let Some(reg) = operands[opi].as_reg() {
            if let Some(dep) = def_by_reg.get(&reg) {
                if is_duplicable(&dep.op) && !seen.contains(&dep.sid) {
                    seen.insert(dep.sid);
                    stack.push((dep.clone(), 0));
                }
            }
        }
    }
    order
}

/// Rewrite register operands through the duplicate map (operands without a
/// duplicate — slice boundaries — stay as the original registers).
fn remap_operands(op: &mut Op, dup_of: &HashMap<ValueId, ValueId>) {
    let remap = |v: &mut Value| {
        if let Value::Reg(r) = v {
            if let Some(n) = dup_of.get(r) {
                *v = Value::Reg(*n);
            }
        }
    };
    match op {
        Op::Bin { a, b, .. }
        | Op::FBin { a, b, .. }
        | Op::Icmp { a, b, .. }
        | Op::Fcmp { a, b, .. } => {
            remap(a);
            remap(b);
        }
        Op::FUn { a, .. } | Op::Cast { a, .. } => remap(a),
        Op::Select { cond, a, b, .. } => {
            remap(cond);
            remap(a);
            remap(b);
        }
        Op::Gep { base, index, .. } => {
            remap(base);
            remap(index);
        }
        _ => unreachable!("only duplicable ops are remapped"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, InjectionSpec, Interpreter, Outcome};
    use epvf_ir::{ModuleBuilder, Type};

    fn simple_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![Type::I32], None);
        let x = f.param(0);
        let a = f.add(Type::I32, x, Value::i32(1)); // sid 0
        let b = f.mul(Type::I32, a, Value::i32(3)); // sid 1
        f.output(Type::I32, b);
        f.ret(None);
        f.finish();
        mb.finish().expect("verifies")
    }

    #[test]
    fn slice_is_topological() {
        let m = simple_module();
        let slice = duplicable_slice(&m, StaticInstId(1)).expect("mul is duplicable");
        assert_eq!(slice, vec![StaticInstId(0), StaticInstId(1)]);
        assert!(
            duplicable_slice(&m, StaticInstId(2)).is_none(),
            "output not duplicable"
        );
    }

    #[test]
    fn protected_module_preserves_golden_behaviour() {
        let m = simple_module();
        let protect: HashSet<_> = [StaticInstId(1)].into_iter().collect();
        let p = duplicate_instructions(&m, &protect);
        assert!(p.static_inst_count() > m.static_inst_count());
        let orig = Interpreter::new(&m, ExecConfig::default())
            .run("main", &[5], None)
            .expect("runs");
        let prot = Interpreter::new(&p, ExecConfig::default())
            .run("main", &[5], None)
            .expect("runs");
        assert_eq!(orig.outputs, prot.outputs);
        assert_eq!(prot.outcome, Outcome::Completed);
        assert!(
            prot.dyn_insts > orig.dyn_insts,
            "duplication costs instructions"
        );
    }

    #[test]
    fn fault_in_protected_chain_is_detected() {
        let m = simple_module();
        let protect: HashSet<_> = [StaticInstId(1)].into_iter().collect();
        let p = duplicate_instructions(&m, &protect);
        let interp = Interpreter::new(&p, ExecConfig::default());
        // Golden trace of the protected module: dyn 0 = add, dyn 1 = mul.
        // Corrupt the ORIGINAL mul's first operand: the recomputed chain
        // disagrees → Detected.
        let r = interp
            .run(
                "main",
                &[5],
                Some(
                    InjectionSpec {
                        dyn_idx: 1,
                        operand_slot: 0,
                        bit: 4,
                    }
                    .into(),
                ),
            )
            .expect("runs");
        assert_eq!(r.outcome, Outcome::Detected);
    }

    #[test]
    fn fault_outside_protection_still_escapes() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![Type::I32], None);
        let x = f.param(0);
        let a = f.add(Type::I32, x, Value::i32(1)); // protected below
        let c = f.add(Type::I32, x, Value::i32(7)); // unprotected
        f.output(Type::I32, a);
        f.output(Type::I32, c);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let protect: HashSet<_> = [StaticInstId(0)].into_iter().collect();
        let p = duplicate_instructions(&m, &protect);
        let interp = Interpreter::new(&p, ExecConfig::default());
        let golden = interp.run("main", &[5], None).expect("runs");
        // Protected layout: 0=add(a) 1..=dup chain.. then c. Find c's dyn
        // index by scanning the protected golden trace.
        let traced = interp.golden_run("main", &[5]).expect("runs");
        let trace = traced.trace.expect("trace");
        let c_rec = trace
            .iter()
            .filter(|r| {
                p.find_inst(r.sid)
                    .is_some_and(|(_, _, i)| matches!(i.op, Op::Bin { .. }))
            })
            .nth(2) // add, dup-add, then c
            .expect("c executed");
        let r = interp
            .run(
                "main",
                &[5],
                Some(
                    InjectionSpec {
                        dyn_idx: c_rec.idx,
                        operand_slot: 0,
                        bit: 3,
                    }
                    .into(),
                ),
            )
            .expect("runs");
        assert!(
            r.is_sdc_vs(&golden),
            "unprotected instruction still produces SDCs"
        );
    }

    #[test]
    fn non_duplicable_protection_request_is_ignored() {
        let m = simple_module();
        // sid 2 is the output instruction — not duplicable.
        let protect: HashSet<_> = [StaticInstId(2)].into_iter().collect();
        let p = duplicate_instructions(&m, &protect);
        assert_eq!(p.static_inst_count(), m.static_inst_count());
    }
}
