//! The dynamic dependency graph (DDG).
//!
//! Following §III-A of the paper: vertices are dynamic register instances,
//! memory-cell versions, and external sources; edges record the producing
//! instruction and link source operands to destination operands. Memory
//! addressing is captured with *virtual* ([`EdgeKind::Addr`]) edges that link
//! a load/store to the register holding the address — kept distinct from
//! direct data dependencies exactly as the paper prescribes, so the crash
//! model can find address computations.

use epvf_interp::DynValueId;
use serde::{Deserialize, Serialize};

/// Index of a node within a [`Ddg`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a DDG vertex stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A dynamic register instance (one definition event of a virtual
    /// register).
    Reg(DynValueId),
    /// One version of a memory location, created by a store. `addr` is the
    /// base address of the store that produced it.
    Mem {
        /// Base address written.
        addr: u64,
    },
    /// A value that enters the program from outside the trace (entry
    /// arguments, constant-bound parameters).
    External,
}

impl NodeKind {
    /// Whether the node is a register instance — the resource whose bits the
    /// PVF/ePVF of "used registers" accounts.
    pub fn is_reg(self) -> bool {
        matches!(self, NodeKind::Reg(_))
    }
}

/// How a dependency edge relates producer and consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Direct dataflow (operand value feeds the result).
    Data,
    /// Virtual addressing edge: the source register holds the memory
    /// address used by the consuming load/store.
    Addr,
}

/// One DDG vertex. Its producer edges are [`Ddg::deps`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// What this vertex stands for.
    pub kind: NodeKind,
    /// Bit width of the value (0 for [`NodeKind::External`] until a use
    /// reveals it).
    pub bits: u32,
    /// Dynamic trace index of the defining record, if any.
    pub def_record: Option<u64>,
}

/// The dynamic dependency graph of one traced run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Ddg {
    pub(crate) nodes: Vec<Node>,
    /// Node `i`'s producer edges are `edges[edge_start[i]..edge_start[i + 1]]`.
    pub(crate) edge_start: Vec<u32>,
    pub(crate) edges: Vec<(NodeId, EdgeKind)>,
    /// Output roots: nodes feeding `output` instructions, in trace order
    /// (the temporal ordering §IV-E's sampling relies on).
    pub(crate) outputs: Vec<NodeId>,
    /// Control roots: nodes feeding conditional branches. Architecturally
    /// correct execution requires correct control flow, so these are ACE
    /// roots too (the paper's §V notes all control structures are marked
    /// sensitive).
    pub(crate) controls: Vec<NodeId>,
    /// For each trace record, the node it defined (register or memory).
    pub(crate) record_def: Vec<Option<NodeId>>,
}

impl Ddg {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Producer edges of `id`: the nodes it was computed from, each with a
    /// smaller id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn deps(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        let i = id.index();
        &self.edges[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Output root nodes in trace order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Control (branch-condition) root nodes in trace order.
    pub fn controls(&self) -> &[NodeId] {
        &self.controls
    }

    /// The node defined by trace record `idx`, if that record defined one.
    pub fn def_of_record(&self, idx: u64) -> Option<NodeId> {
        self.record_def.get(idx as usize).copied().flatten()
    }

    /// Sum of bit-widths over all register nodes — the `Total Bits` of the
    /// used-registers resource (denominator of the paper's worked PVF
    /// example).
    pub fn total_register_bits(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_reg())
            .map(|n| u64::from(n.bits))
            .sum()
    }

    /// Backward slice: every node reachable from `from` through dependency
    /// edges (the producer closure). Includes `from` itself.
    pub fn backward_slice(&self, from: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        let mut out = Vec::new();
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            out.push(n);
            for &(d, _) in self.deps(n) {
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(d);
                }
            }
        }
        out
    }

    /// Deterministic backward closure of a root set: every node reachable
    /// from any root through dependency edges, in **preorder DFS discovery
    /// order** (roots in the given order, each node's deps in their stored
    /// order). Two isomorphic graphs walked from corresponding roots yield
    /// corresponding sequences, which is what lets the compositional engine
    /// encode a closure position-independently (by discovery index rather
    /// than by absolute [`NodeId`]).
    pub fn backward_closure_ordered(&self, roots: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        // Preorder: visit a node at push time, then descend into its deps
        // front-to-back (a stack of per-node dep cursors keeps it iterative).
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for root in roots {
            if seen[root.index()] {
                continue;
            }
            seen[root.index()] = true;
            out.push(root);
            stack.push((root, 0));
            while let Some(&mut (n, ref mut next)) = stack.last_mut() {
                let deps = self.deps(n);
                if *next < deps.len() {
                    let (d, _) = deps[*next];
                    *next += 1;
                    if !seen[d.index()] {
                        seen[d.index()] = true;
                        out.push(d);
                        stack.push((d, 0));
                    }
                } else {
                    stack.pop();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Deps = Vec<(NodeId, EdgeKind)>;

    /// A graph of `(kind, bits, deps)` nodes with no roots.
    fn graph(nodes: Vec<(NodeKind, u32, Deps)>) -> Ddg {
        let mut ddg = Ddg {
            edge_start: vec![0],
            ..Ddg::default()
        };
        for (kind, bits, deps) in nodes {
            ddg.nodes.push(Node {
                kind,
                bits,
                def_record: None,
            });
            ddg.edges.extend(deps);
            ddg.edge_start.push(ddg.edges.len() as u32);
        }
        ddg
    }

    #[test]
    fn backward_slice_closure() {
        // 0 <- 1 <- 2,  3 isolated
        let ddg = graph(vec![
            (NodeKind::External, 0, vec![]),
            (
                NodeKind::Reg(DynValueId(0)),
                32,
                vec![(NodeId(0), EdgeKind::Data)],
            ),
            (
                NodeKind::Reg(DynValueId(1)),
                32,
                vec![(NodeId(1), EdgeKind::Data)],
            ),
            (NodeKind::Reg(DynValueId(2)), 64, vec![]),
        ]);
        let mut slice = ddg.backward_slice(NodeId(2));
        slice.sort();
        assert_eq!(slice, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(ddg.backward_slice(NodeId(3)), vec![NodeId(3)]);
    }

    #[test]
    fn backward_closure_ordered_is_preorder_and_deduplicated() {
        // 3 -> 1 -> 0, 3 -> 2 -> 0 (diamond); 4 isolated.
        let ddg = graph(vec![
            (NodeKind::External, 0, vec![]),
            (
                NodeKind::Reg(DynValueId(0)),
                32,
                vec![(NodeId(0), EdgeKind::Data)],
            ),
            (
                NodeKind::Reg(DynValueId(1)),
                32,
                vec![(NodeId(0), EdgeKind::Data)],
            ),
            (
                NodeKind::Reg(DynValueId(2)),
                64,
                vec![(NodeId(1), EdgeKind::Data), (NodeId(2), EdgeKind::Data)],
            ),
            (NodeKind::Reg(DynValueId(3)), 8, vec![]),
        ]);
        // Preorder from 3: 3, first dep chain (1, 0), then 2 (0 already seen).
        assert_eq!(
            ddg.backward_closure_ordered([NodeId(3)]),
            vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2)]
        );
        // Multiple roots: later roots only add unseen nodes.
        assert_eq!(
            ddg.backward_closure_ordered([NodeId(1), NodeId(3), NodeId(1)]),
            vec![NodeId(1), NodeId(0), NodeId(3), NodeId(2)]
        );
        assert_eq!(ddg.backward_closure_ordered([NodeId(4)]), vec![NodeId(4)]);
        assert_eq!(ddg.deps(NodeId(4)), &[]);
    }

    #[test]
    fn total_register_bits_ignores_external_and_mem() {
        let ddg = graph(vec![
            (NodeKind::External, 0, vec![]),
            (NodeKind::Mem { addr: 0x10 }, 32, vec![]),
            (NodeKind::Reg(DynValueId(0)), 32, vec![]),
            (NodeKind::Reg(DynValueId(1)), 64, vec![]),
        ]);
        assert_eq!(ddg.total_register_bits(), 96);
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Reg(DynValueId(3)).is_reg());
        assert!(!NodeKind::Mem { addr: 0 }.is_reg());
        assert!(!NodeKind::External.is_reg());
    }
}
