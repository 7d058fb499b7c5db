//! DDG construction from a dynamic trace (§III-A).

use crate::graph::{Ddg, EdgeKind, Node, NodeId, NodeKind};
use epvf_interp::{DynInst, DynValueId, Trace, WordMap};
use epvf_ir::{Inst, InstIndex, Module, Op, Type, Value};
use serde::{Deserialize, Serialize};

/// DDG construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdgConfig {
    /// Create the paper's *virtual* addressing edges linking loads/stores
    /// to the registers holding their addresses (§III-A). Disabling them is
    /// the ablation showing why address/register aliasing handling matters:
    /// without these edges address registers never become ACE and the crash
    /// model has nothing to propagate from.
    pub addr_edges: bool,
}

impl Default for DdgConfig {
    fn default() -> Self {
        DdgConfig { addr_edges: true }
    }
}

/// Type (and hence width) of a traced operand.
fn operand_type(module: &Module, rec: &DynInst, v: Value) -> Type {
    match v {
        Value::Reg(r) => module.functions[rec.func.index()].value_types[r.index()],
        Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => ty,
        Value::Global(_) => Type::Ptr,
    }
}

/// A `by_dyn` entry whose dynamic value has no node yet.
const NO_NODE: NodeId = NodeId(u32::MAX);

struct Builder<'m> {
    module: &'m Module,
    config: DdgConfig,
    nodes: Vec<Node>,
    /// Dynamic value → its node, indexed by `DynValueId` up to the last
    /// result id of the trace. The interpreter hands ids out from a
    /// counter, so that covers every id a record reads except the few
    /// issued after the last result (a constant passed through a call or
    /// return) and the `u64::MAX` it leaves in an unset register; those
    /// live in `late_dyn`, so no id sizes the vector that the interpreter
    /// never issued.
    by_dyn: Vec<NodeId>,
    late_dyn: WordMap<DynValueId, NodeId>,
    /// byte address → memory node that last wrote it
    last_store: WordMap<u64, NodeId>,
    outputs: Vec<NodeId>,
    controls: Vec<NodeId>,
    record_def: Vec<Option<NodeId>>,
}

impl<'m> Builder<'m> {
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The node carrying dynamic value `dv`, if one exists yet.
    fn node_of(&self, dv: DynValueId) -> Option<NodeId> {
        match self.by_dyn.get(dv.index()) {
            Some(&id) => (id != NO_NODE).then_some(id),
            None => self.late_dyn.get(&dv).copied(),
        }
    }

    /// Make `id` the node carrying `dv`.
    fn bind(&mut self, dv: DynValueId, id: NodeId) {
        match self.by_dyn.get_mut(dv.index()) {
            Some(entry) => *entry = id,
            None => {
                self.late_dyn.insert(dv, id);
            }
        }
    }

    /// Node for a dynamic register value; creates a def-less register node
    /// (entry argument / constant-bound parameter) on first sight.
    fn reg_node(&mut self, dv: DynValueId, bits: u32) -> NodeId {
        if let Some(id) = self.node_of(dv) {
            return id;
        }
        let id = self.push_node(Node {
            kind: NodeKind::Reg(dv),
            bits,
            def_record: None,
            deps: Vec::new(),
        });
        self.bind(dv, id);
        id
    }

    /// Dependency edges for the register-backed operands of a record.
    fn operand_deps(&mut self, rec: &DynInst) -> Vec<(NodeId, EdgeKind)> {
        let mut deps = Vec::new();
        for op in &rec.operands {
            if let Some(src) = op.src {
                let bits = operand_type(self.module, rec, op.value).bits();
                deps.push((self.reg_node(src, bits), EdgeKind::Data));
            }
        }
        deps
    }

    fn define_result(&mut self, rec: &DynInst, deps: Vec<(NodeId, EdgeKind)>) -> Option<NodeId> {
        let (reg, _bits, dv) = rec.result?;
        let ty = self.module.functions[rec.func.index()].value_types[reg.index()];
        let id = self.push_node(Node {
            kind: NodeKind::Reg(dv),
            bits: ty.bits(),
            def_record: Some(rec.idx),
            deps,
        });
        self.bind(dv, id);
        Some(id)
    }

    fn visit(&mut self, rec: &DynInst, inst: &Inst) {
        let def = match &inst.op {
            Op::Store { .. } => {
                // operands: [value, addr]
                let mut deps = Vec::new();
                if let Some(src) = rec.operands[0].src {
                    let bits = operand_type(self.module, rec, rec.operands[0].value).bits();
                    deps.push((self.reg_node(src, bits), EdgeKind::Data));
                }
                if self.config.addr_edges {
                    if let Some(src) = rec.operands[1].src {
                        // The virtual addressing edge of §III-A.
                        deps.push((self.reg_node(src, 64), EdgeKind::Addr));
                    }
                }
                let mem = rec.mem.as_ref().expect("store records carry access info");
                let id = self.push_node(Node {
                    kind: NodeKind::Mem { addr: mem.addr },
                    bits: (mem.size * 8) as u32,
                    def_record: Some(rec.idx),
                    deps,
                });
                for b in mem.addr..mem.addr + mem.size {
                    self.last_store.insert(b, id);
                }
                Some(id)
            }
            Op::Load { .. } => {
                // operands: [addr]
                let mem = rec.mem.as_ref().expect("load records carry access info");
                let mut deps: Vec<(NodeId, EdgeKind)> = Vec::new();
                let mut last: Option<NodeId> = None;
                for b in mem.addr..mem.addr + mem.size {
                    if let Some(&src) = self.last_store.get(&b) {
                        if last != Some(src) {
                            deps.push((src, EdgeKind::Data));
                            last = Some(src);
                        }
                    }
                }
                if self.config.addr_edges {
                    if let Some(src) = rec.operands[0].src {
                        deps.push((self.reg_node(src, 64), EdgeKind::Addr));
                    }
                }
                self.define_result(rec, deps)
            }
            Op::Output { .. } => {
                if let Some(src) = rec.operands[0].src {
                    let bits = operand_type(self.module, rec, rec.operands[0].value).bits();
                    let n = self.reg_node(src, bits);
                    self.outputs.push(n);
                }
                None
            }
            Op::CondBr { .. } => {
                if let Some(src) = rec.operands[0].src {
                    let n = self.reg_node(src, 1);
                    self.controls.push(n);
                }
                None
            }
            // Calls and returns are transparent in the trace (parameter and
            // return value passing reuses dynamic ids), so they define no
            // node of their own.
            Op::Call { .. }
            | Op::Ret { .. }
            | Op::Br { .. }
            | Op::Free { .. }
            | Op::Detect
            | Op::DetectIf { .. } => None,
            // Every other operation defines a register from its
            // register-backed operands.
            _ => {
                let deps = self.operand_deps(rec);
                self.define_result(rec, deps)
            }
        };
        self.record_def[rec.idx as usize] = def;
    }
}

/// Build the DDG of a traced run.
///
/// # Panics
/// Panics if the trace does not belong to `module` (unknown static ids), or
/// records are missing access metadata.
pub fn build_ddg(module: &Module, trace: &Trace) -> Ddg {
    build_ddg_with(module, trace, DdgConfig::default())
}

/// [`build_ddg`] with explicit options.
///
/// # Panics
/// Panics under the same conditions as [`build_ddg`].
pub fn build_ddg_with(module: &Module, trace: &Trace, config: DdgConfig) -> Ddg {
    let _span = epvf_telemetry::span(epvf_telemetry::Tmr::DdgBuild);
    let index = InstIndex::new(module);
    // Result ids grow along the trace, so the last one is the largest.
    let n_dyn = trace
        .records
        .iter()
        .rev()
        .find_map(|r| r.result)
        .map_or(0, |(_, _, dv)| dv.index() + 1);
    let mut b = Builder {
        module,
        config,
        nodes: Vec::with_capacity(trace.len()),
        by_dyn: vec![NO_NODE; n_dyn],
        late_dyn: WordMap::default(),
        last_store: WordMap::default(),
        outputs: Vec::new(),
        controls: Vec::new(),
        record_def: vec![None; trace.len()],
    };
    for rec in trace {
        let inst = index.get(rec.sid);
        b.visit(rec, inst);
    }
    {
        use epvf_telemetry::{add, Ctr};
        add(Ctr::DdgBuilds, 1);
        add(Ctr::DdgNodesCreated, b.nodes.len() as u64);
        add(
            Ctr::DdgEdgesCreated,
            b.nodes.iter().map(|n| n.deps.len() as u64).sum(),
        );
    }
    Ddg {
        nodes: b.nodes,
        outputs: b.outputs,
        controls: b.controls,
        record_def: b.record_def,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{ModuleBuilder, Type, Value};

    /// Mirror of the paper's Fig. 3 running example: a store whose address
    /// is a gep, plus a dead register (r8) that must not become ACE.
    fn pathfinder_fragment() -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("frag");
        let mut f = mb.function("main", vec![], None);
        let buf = f.malloc(Value::i64(64)); // r6-ish base
        let idx = f.add(Type::I64, Value::i64(0), Value::i64(1)); // r7
        let v = f.add(Type::I32, Value::i32(20), Value::i32(22)); // r4
        let dead = f.add(Type::I32, Value::i32(1), Value::i32(2)); // r8 analogue
        let _ = f.mul(Type::I32, dead, dead); // keep r8 used but not output-reaching
        let slot = f.gep(buf, idx, 4); // r5 = r6 + 4*r7
        f.store(Type::I32, v, slot);
        let back = f.load(Type::I32, slot);
        f.output(Type::I32, back);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        assert_eq!(r.outputs, vec![42]);
        let t = r.trace.expect("trace");
        (m, t)
    }

    #[test]
    fn ddg_has_store_with_data_and_addr_edges() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        let mem_nodes: Vec<_> = ddg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Mem { .. }))
            .collect();
        assert_eq!(mem_nodes.len(), 1, "exactly one store");
        let store = mem_nodes[0];
        let kinds: Vec<EdgeKind> = store.deps.iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::Data), "stored value edge");
        assert!(kinds.contains(&EdgeKind::Addr), "virtual addressing edge");
    }

    #[test]
    fn load_links_to_prior_store() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        // find the load's node: a Reg node whose deps include a Mem node
        let has_load_link = ddg.nodes().iter().any(|n| {
            n.kind.is_reg()
                && n.deps.iter().any(|(d, k)| {
                    *k == EdgeKind::Data && matches!(ddg.node(*d).kind, NodeKind::Mem { .. })
                })
        });
        assert!(
            has_load_link,
            "load must depend on the store's memory version"
        );
    }

    #[test]
    fn output_roots_recorded() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        assert_eq!(ddg.outputs().len(), 1);
        let out = ddg.node(ddg.outputs()[0]);
        assert!(out.kind.is_reg());
        assert_eq!(out.bits, 32);
    }

    #[test]
    fn record_def_maps_back() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        let mut defined = 0;
        for rec in &t {
            if let Some(id) = ddg.def_of_record(rec.idx) {
                defined += 1;
                assert_eq!(ddg.node(id).def_record, Some(rec.idx));
            }
        }
        // malloc, add, add, dead add, mul, gep, store, load define nodes
        assert_eq!(defined, 8);
    }

    #[test]
    fn entry_arguments_become_defless_reg_nodes() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![Type::I32], None);
        let x = f.param(0);
        let y = f.add(Type::I32, x, Value::i32(1));
        f.output(Type::I32, y);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[5])
            .expect("runs");
        let ddg = build_ddg(&m, &r.trace.expect("trace"));
        let defless: Vec<_> = ddg
            .nodes()
            .iter()
            .filter(|n| n.kind.is_reg() && n.def_record.is_none())
            .collect();
        assert_eq!(defless.len(), 1, "the entry argument");
        assert_eq!(defless[0].bits, 32);
    }
}
