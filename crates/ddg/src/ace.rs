//! ACE analysis: reverse breadth-first search over the DDG from the output
//! (and control) roots, yielding the *ACE graph* — the set of vertices whose
//! corruption can affect the program's architecturally visible result
//! (§III-A, Fig. 3c of the paper).

use crate::graph::{Ddg, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Options for the ACE reverse-BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AceConfig {
    /// Also root the search at conditional-branch conditions.
    ///
    /// Architecturally correct execution requires correct control flow, and
    /// the paper's §V observes that ePVF marks all control-flow structures
    /// as sensitive; disabling this reproduces the pure data-slice ablation.
    pub include_control: bool,
}

impl Default for AceConfig {
    fn default() -> Self {
        AceConfig {
            include_control: true,
        }
    }
}

/// The ACE graph: a subgraph of the DDG (identified by membership bits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AceGraph {
    in_ace: Vec<bool>,
    nodes: Vec<NodeId>,
    register_bits: u64,
}

impl AceGraph {
    /// Run the reverse BFS from all of the DDG's output roots (and control
    /// roots per `config`).
    pub fn compute(ddg: &Ddg, config: AceConfig) -> Self {
        let mut roots: Vec<NodeId> = ddg.outputs().to_vec();
        if config.include_control {
            roots.extend_from_slice(ddg.controls());
        }
        Self::from_roots(ddg, &roots)
    }

    /// Run the reverse BFS from an explicit root subset — the primitive
    /// behind the §IV-E ACE-graph sampling (first *p%* of output nodes).
    pub fn from_roots(ddg: &Ddg, roots: &[NodeId]) -> Self {
        let _span = epvf_telemetry::span(epvf_telemetry::Tmr::AceCompute);
        let mut in_ace = vec![false; ddg.len()];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            if !in_ace[r.index()] {
                in_ace[r.index()] = true;
                queue.push_back(r);
            }
        }
        let mut nodes = Vec::new();
        let mut frontier_peak = queue.len();
        while let Some(n) = queue.pop_front() {
            nodes.push(n);
            for &(d, _) in ddg.deps(n) {
                if !in_ace[d.index()] {
                    in_ace[d.index()] = true;
                    queue.push_back(d);
                }
            }
            frontier_peak = frontier_peak.max(queue.len());
        }
        epvf_telemetry::add(epvf_telemetry::Ctr::AceNodesVisited, nodes.len() as u64);
        epvf_telemetry::peak(epvf_telemetry::Ctr::AceFrontierPeak, frontier_peak as u64);
        nodes.sort_unstable();
        let register_bits = nodes
            .iter()
            .filter(|n| ddg.node(**n).kind.is_reg())
            .map(|n| u64::from(ddg.node(*n).bits))
            .sum();
        AceGraph {
            in_ace,
            nodes,
            register_bits,
        }
    }

    /// Whether `id` is an ACE vertex.
    pub fn contains(&self, id: NodeId) -> bool {
        self.in_ace.get(id.index()).copied().unwrap_or(false)
    }

    /// ACE vertices in ascending id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of ACE vertices (the "ACE nodes" column of the paper's
    /// Table V).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no vertex is ACE.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sum of bit-widths of ACE *register* vertices — the `ACE Bits` of the
    /// paper's worked example.
    pub fn register_bits(&self) -> u64 {
        self.register_bits
    }

    /// The PVF of the used-registers resource: ACE register bits over total
    /// register bits (paper Eq. 1, as instantiated in the §III-A example).
    pub fn pvf(&self, ddg: &Ddg) -> f64 {
        let total = ddg.total_register_bits();
        if total == 0 {
            return 0.0;
        }
        self.register_bits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ddg;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{Module, ModuleBuilder, Type, Value};

    /// Program with one output-reaching chain and one dead chain.
    fn two_chain_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let live1 = f.add(Type::I32, Value::i32(1), Value::i32(2));
        let live2 = f.mul(Type::I32, live1, Value::i32(3));
        let dead1 = f.add(Type::I64, Value::i64(5), Value::i64(6));
        let _dead2 = f.mul(Type::I64, dead1, Value::i64(7));
        f.output(Type::I32, live2);
        f.ret(None);
        f.finish();
        mb.finish().expect("verifies")
    }

    fn trace_of(m: &Module) -> epvf_interp::Trace {
        Interpreter::new(m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs")
            .trace
            .expect("trace")
    }

    #[test]
    fn dead_chain_excluded() {
        let m = two_chain_module();
        let ddg = build_ddg(&m, &trace_of(&m));
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        // live1 + live2 = 64 ACE register bits; dead chain (128 bits) excluded.
        assert_eq!(ace.register_bits(), 64);
        assert_eq!(ace.len(), 2);
        // PVF = 64 / (64 + 128)
        let pvf = ace.pvf(&ddg);
        assert!((pvf - 64.0 / 192.0).abs() < 1e-12, "pvf = {pvf}");
    }

    #[test]
    fn control_roots_extend_ace() {
        // A loop whose condition chain feeds no output: with control roots
        // the counter is ACE, without it is not.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(epvf_ir::IcmpPred::Slt, Type::I32, i, Value::i32(3));
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.output(Type::I32, Value::i32(7)); // constant output; no data slice
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let ddg = build_ddg(&m, &trace_of(&m));

        let with = AceGraph::compute(
            &ddg,
            AceConfig {
                include_control: true,
            },
        );
        let without = AceGraph::compute(
            &ddg,
            AceConfig {
                include_control: false,
            },
        );
        assert!(with.register_bits() > 0);
        assert_eq!(without.register_bits(), 0);
        assert!(with.len() > without.len());
    }

    #[test]
    fn sampling_roots_subset_is_monotone() {
        let m = two_chain_module();
        let ddg = build_ddg(&m, &trace_of(&m));
        let all = AceGraph::compute(
            &ddg,
            AceConfig {
                include_control: false,
            },
        );
        let none = AceGraph::from_roots(&ddg, &[]);
        assert!(none.is_empty());
        let partial = AceGraph::from_roots(&ddg, &ddg.outputs()[..1]);
        assert!(partial.len() <= all.len());
        for n in partial.nodes() {
            assert!(all.contains(*n), "sampled ACE ⊆ full ACE");
        }
    }

    #[test]
    fn membership_queries() {
        let m = two_chain_module();
        let ddg = build_ddg(&m, &trace_of(&m));
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        for n in ace.nodes() {
            assert!(ace.contains(*n));
        }
        assert!(!ace.contains(crate::graph::NodeId(9999)));
    }
}
