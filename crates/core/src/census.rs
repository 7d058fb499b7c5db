//! Vulnerable-bit census by instruction class (§VIII).
//!
//! The paper's closing discussion proposes using ePVF "to determine which
//! architectural structures are more likely to cause SDCs, and selectively
//! protect these structures through hardware techniques such as selective
//! ECC". This module produces the data for that decision: per opcode class,
//! how many register bits are ACE, how many of those are crash bits, and
//! how many remain SDC-prone.

use crate::propagation::CrashMap;
use epvf_ddg::{AceGraph, Ddg, Node, NodeId, NodeKind};
use epvf_interp::{DynValueId, Trace};
use epvf_ir::{InstIndex, Module, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregated bit counts for one opcode class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CensusRow {
    /// Register bits read/written by instructions of this class.
    pub total_bits: u64,
    /// Of those, bits in the ACE graph.
    pub ace_bits: u64,
    /// Of the ACE bits, predicted crash bits.
    pub crash_bits: u64,
}

impl CensusRow {
    /// ACE-but-not-crash bits — the SDC-prone remainder ePVF protects.
    pub fn sdc_bits(&self) -> u64 {
        self.ace_bits.saturating_sub(self.crash_bits)
    }
}

/// Census over a whole traced run, keyed by opcode mnemonic.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BitCensus {
    rows: HashMap<&'static str, CensusRow>,
}

impl BitCensus {
    /// Rows sorted by descending SDC-prone bits.
    pub fn ranked(&self) -> Vec<(&'static str, CensusRow)> {
        let mut v: Vec<_> = self.rows.iter().map(|(k, r)| (*k, *r)).collect();
        v.sort_by(|a, b| b.1.sdc_bits().cmp(&a.1.sdc_bits()).then(a.0.cmp(b.0)));
        v
    }

    /// The row for one mnemonic, if any instruction of that class executed.
    pub fn row(&self, mnemonic: &str) -> Option<CensusRow> {
        self.rows.get(mnemonic).copied()
    }

    /// Totals across all classes.
    pub fn totals(&self) -> CensusRow {
        let mut t = CensusRow::default();
        for r in self.rows.values() {
            t.total_bits += r.total_bits;
            t.ace_bits += r.ace_bits;
            t.crash_bits += r.crash_bits;
        }
        t
    }
}

/// Compute the census for a traced run.
pub fn bit_census(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    crash_map: &CrashMap,
) -> BitCensus {
    let index = InstIndex::new(module);
    // Register node by dynamic value id, dense up to the largest id.
    let reg_dyn = |n: &Node| match n.kind {
        NodeKind::Reg(dv) => Some(dv.index()),
        _ => None,
    };
    let len = ddg
        .nodes()
        .iter()
        .filter_map(reg_dyn)
        .max()
        .map_or(0, |m| m + 1);
    let mut by_dyn: Vec<Option<NodeId>> = vec![None; len];
    for (i, n) in ddg.nodes().iter().enumerate() {
        if let Some(dv) = reg_dyn(n) {
            by_dyn[dv] = Some(NodeId(i as u32));
        }
    }
    let node_of = |dv: DynValueId| by_dyn.get(dv.index()).copied().flatten();

    let mut census = BitCensus::default();
    for rec in trace {
        let inst = index.get(rec.sid);
        let mnemonic = inst.op.mnemonic();
        let func = &module.functions[rec.func.index()];
        let row = census.rows.entry(mnemonic).or_default();
        for (slot, op) in rec.operands.iter().enumerate() {
            let Value::Reg(r) = op.value else { continue };
            let width = u64::from(func.value_types[r.index()].bits());
            row.total_bits += width;
            let in_ace = op.src.and_then(node_of).is_some_and(|n| ace.contains(n));
            if in_ace {
                row.ace_bits += width;
                if let Some(c) = crash_map.use_constraint(rec.idx, slot) {
                    row.crash_bits += u64::from(c.crash_bit_count());
                }
            }
        }
        if let Some((reg, _, dv)) = rec.result {
            let width = u64::from(func.value_types[reg.index()].bits());
            row.total_bits += width;
            if let Some(n) = node_of(dv) {
                if ace.contains(n) {
                    row.ace_bits += width;
                    if let Some(c) = crash_map.node_constraint(n) {
                        row.crash_bits += u64::from(c.crash_bit_count());
                    }
                }
            }
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, EpvfConfig};
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{ModuleBuilder, Type};

    #[test]
    fn census_accounts_every_register_bit() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let p = f.malloc(Value::i64(32));
        let slot = f.gep(p, Value::i32(2), 8);
        f.store(Type::I64, Value::i64(5), slot);
        let v = f.load(Type::I64, slot);
        let w = f.add(Type::I64, v, Value::i64(1));
        f.output(Type::I64, w);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let run = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        let trace = run.trace.as_ref().expect("traced");
        let res = analyze(&m, trace, EpvfConfig::default());
        let census = bit_census(&m, trace, &res.ddg, &res.ace, &res.crash_map);

        let totals = census.totals();
        assert!(totals.ace_bits <= totals.total_bits);
        assert!(totals.crash_bits <= totals.ace_bits);
        // Address-bearing classes must carry crash bits…
        let gep = census.row("getelementptr").expect("gep executed");
        assert!(gep.crash_bits > 0);
        let store = census.row("store").expect("store executed");
        assert!(store.crash_bits > 0);
        // …while the pure value add carries ACE bits with few crash bits.
        let add = census.row("add").expect("add executed");
        assert!(add.ace_bits > 0);
        assert!(add.sdc_bits() > 0);
        // Ranking is by SDC-prone bits, descending.
        let ranked = census.ranked();
        for w in ranked.windows(2) {
            assert!(w[0].1.sdc_bits() >= w[1].1.sdc_bits());
        }
    }
}
