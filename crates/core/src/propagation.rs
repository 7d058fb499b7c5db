//! The propagation model (paper §III-C, Algorithms 1–2, Table III).
//!
//! For every load/store in the ACE graph, the crash model yields the valid
//! address range; this module propagates that range backwards along the
//! backward slice of the address, inverting each instruction's semantics per
//! Table III, and records for every register **use** on the slice the range
//! of values that do not end in a segmentation fault. Bits whose flip exits
//! the range are the *crash bits* that ePVF subtracts from the ACE bits.
//!
//! Constraints compose by intersection (a corrupted value crashes if it
//! violates *any* downstream address bound). A safety valve keeps the model
//! conservative: if an inverted range, or the row inverted at the golden
//! result alone, fails to contain the operand's actual golden-run value
//! (signed/wrapping corner cases outside the paper's positive-integer
//! assumption), the constraint is dropped rather than over-approximated.

use crate::crash_model::{check_boundary, CrashModelConfig};
use crate::range::ValueRange;
use epvf_ddg::{AceGraph, Ddg, EdgeKind, NodeId, NodeKind};
use epvf_interp::{DynInst, DynInstRef, Trace};
use epvf_ir::{BinOp, CastOp, InstIndex, Module, Op, Value};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Which memory accesses trigger the crash model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashScope {
    /// Only loads/stores inside the ACE graph — the paper's Algorithm 1.
    /// Faults in non-ACE accesses still crash in reality, which is the
    /// coverage gap the paper observes for lavaMD and lulesh in Fig. 8.
    #[default]
    AceOnly,
    /// Every load/store in the trace — an extension that closes that gap
    /// for recall and crash-rate estimation.
    AllAccesses,
}

/// One resolved constraint: the allowed range, the golden-run value, and
/// the bit width it applies to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Allowed values (crash outside).
    pub range: ValueRange,
    /// The golden-run value at this location.
    pub value: u64,
    /// Bit width of the location.
    pub width: u32,
}

impl Constraint {
    /// Number of crash bits at this location.
    pub fn crash_bit_count(&self) -> u32 {
        self.range.crash_bit_count(self.value, self.width)
    }
}

/// The paper's `CRASHING_BIT_LIST`: per-use and per-node crash constraints.
///
/// Stored densely, by the ids the pipeline hands out in trace order: node
/// constraints by [`NodeId`], use constraints by operand slot, where the
/// slots of record `i` start at the sum of the operand counts of the
/// records before it. A map is sized for one trace and its DDG; a lookup
/// outside them finds no constraint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrashMap {
    /// Record `i` owns `uses[use_base[i]..use_base[i + 1]]`, one entry per
    /// operand.
    use_base: Vec<u32>,
    /// Constraint on each operand read.
    uses: Vec<Option<Constraint>>,
    /// Constraint on the value each DDG node carries.
    nodes: Vec<Option<Constraint>>,
}

/// Two maps are equal when they constrain the same keys with the same
/// constraints, whatever they were sized for.
impl PartialEq for CrashMap {
    fn eq(&self, other: &Self) -> bool {
        self.uses().eq(other.uses()) && self.nodes().eq(other.nodes())
    }
}

impl CrashMap {
    /// A map with no constraints, sized for `trace` and its DDG.
    pub(crate) fn new(trace: &Trace, ddg: &Ddg) -> Self {
        let mut use_base = Vec::with_capacity(trace.len() + 1);
        let mut n_slots = 0u32;
        use_base.push(n_slots);
        for rec in trace {
            n_slots = u32::try_from(rec.operands.len())
                .ok()
                .and_then(|n| n_slots.checked_add(n))
                .expect("a trace reads fewer than 2^32 operands");
            use_base.push(n_slots);
        }
        CrashMap {
            use_base,
            uses: vec![None; n_slots as usize],
            nodes: vec![None; ddg.len()],
        }
    }

    /// Where operand `slot` of record `dyn_idx` sits in `uses`, if the
    /// map was sized for that record and it has that operand.
    fn use_index(&self, dyn_idx: u64, slot: usize) -> Option<usize> {
        let rec = usize::try_from(dyn_idx).ok()?;
        let start = *self.use_base.get(rec)? as usize;
        let end = *self.use_base.get(rec + 1)? as usize;
        (slot < end - start).then_some(start + slot)
    }

    /// The constraint on operand `slot` of dynamic instruction `dyn_idx`.
    pub fn use_constraint(&self, dyn_idx: u64, slot: usize) -> Option<&Constraint> {
        self.uses[self.use_index(dyn_idx, slot)?].as_ref()
    }

    /// Does the model predict a crash for flipping `bit` of that operand
    /// read? `false` when the location carries no constraint.
    pub fn predicts_crash(&self, dyn_idx: u64, slot: usize, bit: u8) -> bool {
        self.use_constraint(dyn_idx, slot)
            .is_some_and(|c| bit < c.width as u8 && c.range.flip_crashes(c.value, bit))
    }

    /// [`Self::predicts_crash`] generalized to an arbitrary XOR mask (the
    /// multi-bit fault models): does `value ^ mask` leave the allowed
    /// range? Masks reaching outside the location's width predict no
    /// crash (they never arise from in-universe specs), and a single-bit
    /// mask gives exactly `predicts_crash` of that bit.
    pub fn predicts_crash_mask(&self, dyn_idx: u64, slot: usize, mask: u64) -> bool {
        self.use_constraint(dyn_idx, slot).is_some_and(|c| {
            let width_mask = if c.width >= 64 {
                u64::MAX
            } else {
                (1u64 << c.width) - 1
            };
            mask != 0 && mask & !width_mask == 0 && !c.range.contains(c.value ^ mask)
        })
    }

    /// The constraint attached to a DDG node, if any.
    pub fn node_constraint(&self, node: NodeId) -> Option<&Constraint> {
        self.nodes.get(node.index())?.as_ref()
    }

    /// Iterate all use constraints as `((dyn_idx, slot), constraint)`, in
    /// record order, then slot order.
    pub fn uses(&self) -> impl Iterator<Item = ((u64, usize), &Constraint)> {
        self.use_base
            .windows(2)
            .enumerate()
            .flat_map(move |(rec, w)| {
                self.uses[w[0] as usize..w[1] as usize]
                    .iter()
                    .enumerate()
                    .filter_map(move |(slot, c)| Some(((rec as u64, slot), c.as_ref()?)))
            })
    }

    /// The node constraints in node-id order.
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &Constraint)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, c)| Some((NodeId(id as u32), c.as_ref()?)))
    }

    /// Number of constrained uses.
    pub fn n_uses(&self) -> usize {
        self.uses.iter().flatten().count()
    }

    /// Number of constrained nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Σ crash bits over ACE register nodes — the `CrashBits` term of the
    /// paper's Eq. 2.
    pub fn ace_register_crash_bits(&self, ddg: &Ddg, ace: &AceGraph) -> u64 {
        self.nodes()
            .filter(|&(id, _)| ace.contains(id) && ddg.node(id).kind.is_reg())
            .map(|(_, c)| u64::from(c.crash_bit_count()))
            .sum()
    }

    /// Σ crash bits over all constrained uses (numerator of the crash-rate
    /// estimate validated in the paper's Fig. 8).
    pub fn total_use_crash_bits(&self) -> u64 {
        self.uses
            .iter()
            .flatten()
            .map(|c| u64::from(c.crash_bit_count()))
            .sum()
    }

    /// Intersect the constraint on a use with `range`; returns the use's
    /// position in `uses`.
    fn constrain_use(
        &mut self,
        dyn_idx: u64,
        slot: usize,
        range: ValueRange,
        value: u64,
        width: u32,
    ) -> usize {
        let i = self
            .use_index(dyn_idx, slot)
            .expect("a constrained use is an operand of a traced record");
        let entry = self.uses[i].get_or_insert(Constraint {
            range: ValueRange::FULL,
            value,
            width,
        });
        debug_assert_eq!(
            (entry.value, entry.width),
            (value, width),
            "use ({dyn_idx}, {slot}): the first write's value and width must hold for every write"
        );
        entry.range = entry.range.intersect(range);
        i
    }

    /// Insert a use constraint verbatim (compositional replay: the recorded
    /// final state of a cached section is re-applied without re-propagating).
    pub(crate) fn set_use(&mut self, dyn_idx: u64, slot: usize, c: Constraint) {
        let i = self
            .use_index(dyn_idx, slot)
            .expect("a fitting summary use is an operand of a traced record");
        self.uses[i] = Some(c);
    }

    /// Insert a node constraint verbatim (compositional replay).
    pub(crate) fn set_node(&mut self, node: NodeId, c: Constraint) {
        self.nodes[node.index()] = Some(c);
    }

    /// Tighten a node constraint; returns `true` if it actually shrank.
    fn tighten_node(&mut self, node: NodeId, range: ValueRange, value: u64, width: u32) -> bool {
        let entry = self.nodes[node.index()].get_or_insert(Constraint {
            range: ValueRange::FULL,
            value,
            width,
        });
        debug_assert_eq!(
            (entry.value, entry.width),
            (value, width),
            "node {node:?}: the first write's value and width must hold for every write"
        );
        let merged = entry.range.intersect(range);
        if merged == entry.range {
            false
        } else {
            entry.range = merged;
            epvf_telemetry::add(epvf_telemetry::Ctr::PropConstraintsTightened, 1);
            true
        }
    }
}

/// The set of [`CrashMap`] keys a propagation pass wrote — recorded by the
/// compositional engine so a section's net effect (final constraints on the
/// touched keys) can be cached and replayed without re-propagating.
///
/// One set serves every section run of a pass: a key's mark, indexed like
/// the map's arrays, holds the number of the run that last touched it, so
/// [`TouchSet::clear`] only starts a new run and empties the key lists.
#[derive(Debug)]
pub(crate) struct TouchSet {
    run: u32,
    use_marks: Vec<u32>,
    node_marks: Vec<u32>,
    /// `(dynamic instruction, operand slot)` keys written, each once.
    pub uses: Vec<(u64, usize)>,
    /// Node keys written, each once (including no-op tightenings: the key
    /// set, not the shrink history, is what replay needs).
    pub nodes: Vec<NodeId>,
}

impl TouchSet {
    /// An empty set for the keys of `map`.
    pub(crate) fn new(map: &CrashMap) -> Self {
        TouchSet {
            run: 1,
            use_marks: vec![0; map.uses.len()],
            node_marks: vec![0; map.nodes.len()],
            uses: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Forget every key.
    pub(crate) fn clear(&mut self) {
        self.run = self
            .run
            .checked_add(1)
            .expect("fewer than 2^32 section runs");
        self.uses.clear();
        self.nodes.clear();
    }

    /// Record a write to the use at position `i` of the map's `uses`.
    fn touch_use(&mut self, i: usize, key: (u64, usize)) {
        if self.use_marks[i] != self.run {
            self.use_marks[i] = self.run;
            self.uses.push(key);
        }
    }

    /// Record a write to `node`.
    fn touch_node(&mut self, node: NodeId) {
        if self.node_marks[node.index()] != self.run {
            self.node_marks[node.index()] = self.run;
            self.nodes.push(node);
        }
    }
}

/// A [`CrashMap`] plus an optional touch recorder. The [`Sweep`] writes
/// through this, so the monolithic path (no recorder) and the compositional
/// path (recorder on) share one per-node body.
pub(crate) struct PropSink<'a> {
    pub map: &'a mut CrashMap,
    pub touched: Option<&'a mut TouchSet>,
}

impl PropSink<'_> {
    fn constrain_use(
        &mut self,
        dyn_idx: u64,
        slot: usize,
        range: ValueRange,
        value: u64,
        width: u32,
    ) {
        let i = self.map.constrain_use(dyn_idx, slot, range, value, width);
        if let Some(t) = self.touched.as_deref_mut() {
            t.touch_use(i, (dyn_idx, slot));
        }
    }

    fn tighten_node(&mut self, node: NodeId, range: ValueRange, value: u64, width: u32) -> bool {
        if let Some(t) = self.touched.as_deref_mut() {
            t.touch_node(node);
        }
        self.map.tighten_node(node, range, value, width)
    }
}

pub(crate) fn operand_width(module: &Module, rec: &DynInst, v: Value) -> u32 {
    match v {
        Value::Reg(r) => module.functions[rec.func.index()].value_types[r.index()].bits(),
        Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => ty.bits(),
        Value::Global(_) => 64,
    }
}

/// Signed-safe "allowed = dest − delta" range shift.
fn shift_range(dest: ValueRange, delta: i128) -> ValueRange {
    let lo = (dest.lo as i128 - delta).clamp(0, u64::MAX as i128) as u64;
    let hi = (dest.hi as i128 - delta).clamp(0, u64::MAX as i128) as u64;
    ValueRange::new(lo, hi)
}

/// The `lookup_table` of Algorithm 2 / Table III: given that the result of
/// `rec` must lie in `dest`, invert the instruction semantics to bound
/// operand `slot`. `None` = unconstrained (conservative).
///
/// Public so the differential oracle (`epvf-oracle`) can brute-force every
/// Table III row against direct enumeration at small bit widths, and so
/// disagreement repros can report the inverted range that produced a
/// prediction. A returned range always contains the operand's golden-run
/// value (the safety valve drops inversions that would not).
pub fn operand_range(
    op: &Op,
    slot: usize,
    rec: DynInstRef<'_>,
    dest: ValueRange,
) -> Option<ValueRange> {
    let out = invert(op, slot, rec, dest)?;
    // Safety valve: the derived range must hold the golden operand, and so
    // must the row inverted at the golden result alone. A miss means the
    // golden run left the model's non-wrapping, non-negative arithmetic,
    // and the constraint is dropped. Every row is monotone, so asking at
    // the golden result gives the same verdict for every `dest` that holds
    // it, whichever schedule delivers that `dest` (DESIGN §14).
    let actual = rec.operands.get(slot).map_or(0, |o| o.bits);
    let golden = rec.result.map(|(_, bits, _)| bits)?;
    let at_golden =
        invert(op, slot, rec, ValueRange::new(golden, golden)).is_some_and(|r| r.contains(actual));
    debug_assert!(
        !at_golden || !dest.contains(golden) || out.contains(actual),
        "row {op:?} slot {slot} is not monotone: {out} misses {actual}"
    );
    if !(at_golden && out.contains(actual)) {
        epvf_telemetry::add(epvf_telemetry::Ctr::PropValveDrops, 1);
        return None;
    }
    Some(out)
}

/// Table III proper: the operand range that keeps the result inside
/// `dest`, before the safety valve. Monotone in `dest`: a narrower `dest`
/// never gives a wider range.
fn invert(op: &Op, slot: usize, rec: DynInstRef<'_>, dest: ValueRange) -> Option<ValueRange> {
    let opv = |i: usize| rec.operands.get(i).map(|o| o.bits).unwrap_or(0);
    let out = match op {
        // Row 1: add — Max(op) = Max(dest) − other.
        Op::Bin { op: BinOp::Add, .. } => {
            let other = opv(1 - slot);
            shift_range(dest, other as i128)
        }
        // Row 2: sub — dest = a − b.
        Op::Bin { op: BinOp::Sub, .. } => {
            if slot == 0 {
                shift_range(dest, -(opv(1) as i128))
            } else {
                // b = a − dest  →  b ∈ [a − hi, a − lo]
                let a = opv(0) as i128;
                let lo = (a - dest.hi as i128).clamp(0, u64::MAX as i128) as u64;
                let hi = (a - dest.lo as i128).clamp(0, u64::MAX as i128) as u64;
                ValueRange::new(lo, hi)
            }
        }
        // Row 3: mul — Max(op) = Max(dest) / other (other ≠ 0).
        Op::Bin { op: BinOp::Mul, .. } => {
            let other = opv(1 - slot);
            if other == 0 {
                return None;
            }
            ValueRange::new(dest.lo.div_ceil(other), dest.hi / other)
        }
        // Row 4: div — op1 ∈ [dest·c, dest·c + c − 1].
        Op::Bin {
            op: BinOp::UDiv | BinOp::SDiv,
            ..
        } if slot == 0 => {
            let c = opv(1);
            if c == 0 {
                return None;
            }
            ValueRange::new(
                dest.lo.saturating_mul(c),
                dest.hi.saturating_mul(c).saturating_add(c - 1),
            )
        }
        // Shifts by the (runtime-constant) amount reduce to mul/div.
        Op::Bin {
            op: BinOp::Shl, ty, ..
        } if slot == 0 => {
            let k = opv(1) % u64::from(ty.bits());
            if k >= 64 {
                return None;
            }
            let c = 1u64 << k;
            ValueRange::new(dest.lo.div_ceil(c).saturating_mul(c) / c, dest.hi / c)
        }
        Op::Bin {
            op: BinOp::LShr,
            ty,
            ..
        } if slot == 0 => {
            let k = opv(1) % u64::from(ty.bits());
            if k >= 64 {
                return None;
            }
            // Saturate rather than drop the high bits, so the row stays
            // monotone when `dest` reaches past `u64::MAX >> k`.
            let up = |v: u64| if v > u64::MAX >> k { u64::MAX } else { v << k };
            ValueRange::new(up(dest.lo), up(dest.hi).saturating_add((1u64 << k) - 1))
        }
        // Row 6: getelementptr — dest = base + sizeof(type)·index.
        Op::Gep { elem_size, .. } => {
            let result = rec.result.map(|(_, bits, _)| bits)?;
            if slot == 0 {
                // Invert via the actual offset so negative indices work.
                let off = result.wrapping_sub(opv(0));
                shift_range(dest, off as i64 as i128)
            } else {
                let es = *elem_size as i128;
                if es == 0 {
                    return None;
                }
                let base = opv(0) as i128;
                let lo_n = dest.lo as i128 - base;
                let hi_n = dest.hi as i128 - base;
                if hi_n < 0 {
                    return None;
                }
                let lo = if lo_n <= 0 { 0 } else { (lo_n + es - 1) / es };
                let hi = hi_n / es;
                if hi < lo {
                    return None;
                }
                ValueRange::new(
                    lo.clamp(0, u64::MAX as i128) as u64,
                    hi.clamp(0, u64::MAX as i128) as u64,
                )
            }
        }
        // Row 7: bitcast and the other value-preserving conversions.
        Op::Cast {
            op: cast,
            from_ty,
            to_ty,
            ..
        } => match cast {
            CastOp::Bitcast if from_ty.is_int() && to_ty.is_int() => dest,
            CastOp::ZExt | CastOp::PtrToInt | CastOp::IntToPtr => {
                ValueRange::new(dest.lo, dest.hi.min(from_ty.mask()))
            }
            CastOp::SExt => ValueRange::new(dest.lo, dest.hi.min(from_ty.mask())),
            CastOp::Trunc if dest.hi <= to_ty.mask() => dest,
            _ => return None,
        },
        // Phi forwards its taken incoming unchanged.
        Op::Phi { .. } => dest,
        Op::Select { .. } => {
            let cond = opv(0) & 1;
            let taken_slot = if cond == 1 { 1 } else { 2 };
            if slot == taken_slot {
                dest
            } else if slot == 0 {
                // Flipping the condition selects the other operand: if that
                // value violates the bound, the condition bit is a crash bit.
                let untaken = opv(if cond == 1 { 2 } else { 1 });
                if dest.contains(untaken) {
                    return None;
                }
                ValueRange::new(cond, cond)
            } else {
                return None;
            }
        }
        _ => return None,
    };
    Some(out)
}

/// Run Algorithms 1–3 over a traced run: for each ACE load/store, bound the
/// address by the crash model and propagate the bound along the backward
/// slice. Returns the populated [`CrashMap`].
pub fn propagate(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    config: CrashModelConfig,
) -> CrashMap {
    propagate_scoped(module, trace, ddg, ace, config, CrashScope::AceOnly)
}

/// [`propagate`] with an explicit [`CrashScope`]: every root is seeded
/// first, then one `Sweep` visits each constrained node once.
pub fn propagate_scoped(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    config: CrashModelConfig,
    scope: CrashScope,
) -> CrashMap {
    let _span = epvf_telemetry::span(epvf_telemetry::Tmr::CorePropagate);
    let mut map = CrashMap::new(trace, ddg);
    let mut sweep = Sweep::new(module, trace, ddg);
    let mut sink = PropSink {
        map: &mut map,
        touched: None,
    };
    {
        let _roots = epvf_telemetry::span(epvf_telemetry::Tmr::CoreRoots);
        for root in roots(trace, ddg, ace, config, scope, 0..trace.len() as u64) {
            sweep.seed(&mut sink, root);
        }
    }
    sweep.drain(&mut sink);
    map
}

/// One propagation root: a memory access whose address seeds a backward
/// slice, with the valid range the crash model gives that address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Root {
    /// Dynamic index of the access record.
    pub idx: u64,
    /// The DDG node the access defines.
    pub def: NodeId,
    /// `CHECK_BOUNDARY` of the access.
    pub range: ValueRange,
}

/// The roots among the records in `recs`, in trace order: every load/store
/// that defines a DDG node (an ACE node under [`CrashScope::AceOnly`]). Each
/// root's boundary is computed here and nowhere else, so the monolithic pass
/// and the compositional engine — which also hashes the ranges into its
/// cache keys — evaluate `CHECK_BOUNDARY` once per access.
pub(crate) fn roots<'a>(
    trace: &'a Trace,
    ddg: &'a Ddg,
    ace: &'a AceGraph,
    config: CrashModelConfig,
    scope: CrashScope,
    recs: std::ops::Range<u64>,
) -> impl Iterator<Item = Root> + 'a {
    recs.filter_map(move |idx| {
        let mem = trace.get(idx).expect("record in range").inst.mem.as_ref()?;
        let def = ddg.def_of_record(idx)?;
        if scope == CrashScope::AceOnly && !ace.contains(def) {
            return None;
        }
        Some(Root {
            idx,
            def,
            range: check_boundary(mem, config),
        })
    })
}

/// Algorithms 1–2 as one sweep over the DDG, shared by the monolithic pass
/// and the compositional engine (`compose`).
///
/// [`Sweep::seed`] constrains a root's address; [`Sweep::drain`] then visits
/// the pending nodes highest id first. DDG ids follow trace order and every
/// dependency has a smaller id than its consumer, so when a node is popped
/// every consumer that could still tighten it has been visited: each node is
/// visited once, with its final constraint. The monolithic pass seeds every
/// root before one drain; `compose` seeds and drains one root at a time.
/// Both reach the same fixpoint (DESIGN §14 gives the argument).
pub(crate) struct Sweep<'a> {
    module: &'a Module,
    trace: &'a Trace,
    ddg: &'a Ddg,
    index: InstIndex<'a>,
    /// Constrained nodes not yet visited; the max-heap pops the highest id.
    /// A node tightened twice before its visit is pushed twice: a visit
    /// pushes only smaller ids, so the copies pop back to back.
    pending: BinaryHeap<NodeId>,
}

impl<'a> Sweep<'a> {
    pub(crate) fn new(module: &'a Module, trace: &'a Trace, ddg: &'a Ddg) -> Self {
        Sweep {
            module,
            trace,
            ddg,
            index: InstIndex::new(module),
            pending: BinaryHeap::new(),
        }
    }

    /// Constrain `root`'s address use and the node carrying the address,
    /// queueing that node if its range shrank.
    pub(crate) fn seed(&mut self, sink: &mut PropSink<'_>, root: Root) {
        epvf_telemetry::add(epvf_telemetry::Ctr::PropSlicesWalked, 1);
        let ddg = self.ddg;
        let rec = self.trace.get(root.idx).expect("root record");
        let mem = rec.mem.as_ref().expect("root has access");
        let addr_slot = if mem.is_store { 1 } else { 0 };
        let addr_op = rec.operands[addr_slot];
        sink.constrain_use(root.idx, addr_slot, root.range, addr_op.bits, 64);
        if addr_op.src.is_some() {
            // Find the Addr-edge dependency of the access node.
            for &(dep, kind) in ddg.deps(root.def) {
                if kind == EdgeKind::Addr
                    && sink.tighten_node(dep, root.range, addr_op.bits, ddg.node(dep).bits.max(64))
                {
                    self.pending.push(dep);
                }
            }
        }
    }

    /// Visit every pending node once, highest id first, until none is left.
    pub(crate) fn drain(&mut self, sink: &mut PropSink<'_>) {
        let mut last = NodeId(u32::MAX);
        while let Some(node) = self.pending.pop() {
            debug_assert!(node <= last, "a node is visited after its consumers");
            if node != last {
                last = node;
                self.visit(sink, node);
            }
        }
    }

    /// Algorithm 2's step for one node: invert its defining instruction
    /// under the node's final constraint (Table III) and constrain each
    /// operand, queueing the operand nodes that shrank.
    fn visit(&mut self, sink: &mut PropSink<'_>, node: NodeId) {
        let (module, trace, ddg) = (self.module, self.trace, self.ddg);
        let range = match sink.map.node_constraint(node) {
            Some(c) => c.range,
            None => return,
        };
        let Some(rec_idx) = ddg.node(node).def_record else {
            return;
        };
        let rec = trace.get(rec_idx).expect("record exists");
        let inst = self.index.get(rec.sid);

        if let Op::Load { ty, .. } = &inst.op {
            // The loaded value is bounded; the bound applies to whatever
            // store produced it (value flows through memory unchanged when
            // the accesses fully alias).
            let load_mem = rec.mem.as_ref().expect("load has access info");
            for &(dep, kind) in ddg.deps(node) {
                if kind != EdgeKind::Data {
                    continue;
                }
                if !matches!(ddg.node(dep).kind, NodeKind::Mem { .. }) {
                    continue;
                }
                let Some(store_idx) = ddg.node(dep).def_record else {
                    continue;
                };
                let store_rec = trace.get(store_idx).expect("record exists");
                let store_mem = store_rec.mem.as_ref().expect("store has access info");
                if store_mem.addr != load_mem.addr || store_mem.size != load_mem.size {
                    continue; // partial aliasing: stay conservative
                }
                let val_op = store_rec.operands[0];
                if !range.contains(val_op.bits) {
                    continue;
                }
                let width = operand_width(module, &store_rec, val_op.value).min(ty.bits());
                sink.constrain_use(store_idx, 0, range, val_op.bits, width);
                if let Some(src) = val_op.src {
                    if let Some(&src_node) = lookup_dyn(ddg, dep, src) {
                        if sink.tighten_node(src_node, range, val_op.bits, width) {
                            self.pending.push(src_node);
                        }
                    }
                }
            }
            return;
        }

        for (slot, op_rec) in rec.operands.iter().enumerate() {
            let Some(_src) = op_rec.src else { continue };
            let Some(or) = operand_range(&inst.op, slot, rec, range) else {
                continue;
            };
            if or.is_full() {
                continue;
            }
            let width = operand_width(module, &rec, op_rec.value);
            sink.constrain_use(rec.idx, slot, or, op_rec.bits, width);
            // The Data dependency edge for this operand.
            if let Some(src_node) = data_dep_for_slot(ddg, node, rec, slot) {
                if sink.tighten_node(src_node, or, op_rec.bits, width) {
                    self.pending.push(src_node);
                }
            }
        }
    }
}

/// Find the DDG node carrying the `slot`-th operand's dynamic value among
/// the consumer's dependencies.
fn data_dep_for_slot(
    ddg: &Ddg,
    consumer: NodeId,
    rec: DynInstRef<'_>,
    slot: usize,
) -> Option<NodeId> {
    let src = rec.operands[slot].src?;
    ddg.deps(consumer)
        .iter()
        .find_map(|&(d, _)| matches!(ddg.node(d).kind, NodeKind::Reg(dv) if dv == src).then_some(d))
}

/// Find a Reg node for `src` among the deps of `store_mem_node`'s producer
/// edges (the store's value operand).
fn lookup_dyn(ddg: &Ddg, store_mem_node: NodeId, src: epvf_interp::DynValueId) -> Option<&NodeId> {
    ddg.deps(store_mem_node)
        .iter()
        .find_map(|(d, _)| matches!(ddg.node(*d).kind, NodeKind::Reg(dv) if dv == src).then_some(d))
}

#[cfg(test)]
mod lookup_table_tests {
    //! Direct tests of the Table III inversion rules, one per row.

    use super::*;
    use epvf_interp::{DynValueId, OperandRec};
    use epvf_ir::{BinOp, CastOp, FcmpPred, FuncId, IcmpPred, StaticInstId, Type};

    /// A record and its operands, owned.
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

    fn rec(operands: Vec<(u64, bool)>, result: Option<u64>) -> Rec {
        let inst = DynInst {
            idx: 0,
            sid: StaticInstId(0),
            func: FuncId(0),
            result: result.map(|bits| (epvf_ir::ValueId(99), bits, DynValueId(99))),
            mem: None,
        };
        Rec {
            inst,
            operands: operands
                .into_iter()
                .enumerate()
                .map(|(i, (bits, is_reg))| OperandRec {
                    value: if is_reg {
                        Value::Reg(epvf_ir::ValueId(i as u32))
                    } else {
                        Value::const_int(Type::I64, bits)
                    },
                    bits,
                    src: is_reg.then_some(DynValueId(i as u64)),
                })
                .collect(),
        }
    }

    fn bin(op: BinOp) -> Op {
        Op::Bin {
            op,
            ty: Type::I64,
            a: Value::Reg(epvf_ir::ValueId(0)),
            b: Value::Reg(epvf_ir::ValueId(1)),
        }
    }

    #[test]
    fn row1_add() {
        // dest = a + b, dest ∈ [100, 200], b = 30  →  a ∈ [70, 170]
        let r = rec(vec![(120, true), (30, true)], Some(150));
        let got =
            operand_range(&bin(BinOp::Add), 0, r.view(), ValueRange::new(100, 200)).expect("some");
        assert_eq!(got, ValueRange::new(70, 170));
        // and symmetrically for b (a = 120) → b ∈ [−20→0, 80]
        let got =
            operand_range(&bin(BinOp::Add), 1, r.view(), ValueRange::new(100, 200)).expect("some");
        assert_eq!(got, ValueRange::new(0, 80));
    }

    #[test]
    fn row2_sub_both_slots() {
        // dest = a − b, dest ∈ [100, 200], a = 150, b = 30
        let r = rec(vec![(150, true), (30, true)], Some(120));
        let a =
            operand_range(&bin(BinOp::Sub), 0, r.view(), ValueRange::new(100, 200)).expect("some");
        assert_eq!(a, ValueRange::new(130, 230));
        let b =
            operand_range(&bin(BinOp::Sub), 1, r.view(), ValueRange::new(100, 200)).expect("some");
        // b = a − dest → [150−200→0, 150−100] = [0, 50]
        assert_eq!(b, ValueRange::new(0, 50));
    }

    #[test]
    fn row3_mul() {
        // dest = a · 4, dest ∈ [100, 200] → a ∈ [25, 50]
        let r = rec(vec![(30, true), (4, true)], Some(120));
        let got =
            operand_range(&bin(BinOp::Mul), 0, r.view(), ValueRange::new(100, 200)).expect("some");
        assert_eq!(got, ValueRange::new(25, 50));
        // zero multiplier: unconstrained
        let r0 = rec(vec![(30, true), (0, true)], Some(0));
        assert!(operand_range(&bin(BinOp::Mul), 0, r0.view(), ValueRange::new(0, 0)).is_none());
    }

    #[test]
    fn row4_div() {
        // dest = a / 4, dest ∈ [10, 20] → a ∈ [40, 83]
        let r = rec(vec![(50, true), (4, true)], Some(12));
        let got =
            operand_range(&bin(BinOp::SDiv), 0, r.view(), ValueRange::new(10, 20)).expect("some");
        assert_eq!(got, ValueRange::new(40, 83));
        // the divisor is never constrained
        assert!(operand_range(&bin(BinOp::SDiv), 1, r.view(), ValueRange::new(10, 20)).is_none());
    }

    #[test]
    fn shifts() {
        // dest = a << 3, dest ∈ [64, 256] → a ∈ [8, 32]
        let r = rec(vec![(10, true), (3, true)], Some(80));
        let got =
            operand_range(&bin(BinOp::Shl), 0, r.view(), ValueRange::new(64, 256)).expect("some");
        assert_eq!(got, ValueRange::new(8, 32));
        // dest = a >> 2, dest ∈ [4, 8] → a ∈ [16, 35]
        let r = rec(vec![(20, true), (2, true)], Some(5));
        let got =
            operand_range(&bin(BinOp::LShr), 0, r.view(), ValueRange::new(4, 8)).expect("some");
        assert_eq!(got, ValueRange::new(16, 35));
        // dest = a >> 54, dest ∈ [3, 1500]: 1500 << 54 overflows, so the
        // upper end saturates instead of wrapping to (1500 mod 1024) << 54.
        let r = rec(vec![(5 << 54, true), (54, true)], Some(5));
        let got =
            operand_range(&bin(BinOp::LShr), 0, r.view(), ValueRange::new(3, 1500)).expect("some");
        assert_eq!(got, ValueRange::new(3 << 54, u64::MAX));
    }

    #[test]
    fn row6_gep_base_and_index() {
        let op = Op::Gep {
            base: Value::Reg(epvf_ir::ValueId(0)),
            index: Value::Reg(epvf_ir::ValueId(1)),
            elem_size: 4,
        };
        // dest = base + 4·idx, base = 0x1000, idx = 4 → dest = 0x1010.
        let r = rec(vec![(0x1000, true), (4, true)], Some(0x1010));
        let base = operand_range(&op, 0, r.view(), ValueRange::new(0x1000, 0x1FFF)).expect("some");
        // offset = 0x10 → base ∈ [0xFF0, 0x1FEF]
        assert_eq!(base, ValueRange::new(0xFF0, 0x1FEF));
        let idx = operand_range(&op, 1, r.view(), ValueRange::new(0x1000, 0x1FFF)).expect("some");
        // idx ∈ [ceil(0/4), floor(0xFFF/4)] = [0, 0x3FF]
        assert_eq!(idx, ValueRange::new(0, 0x3FF));
    }

    #[test]
    fn row7_value_preserving_casts() {
        let mk = |cast, from_ty, to_ty| Op::Cast {
            op: cast,
            from_ty,
            to_ty,
            a: Value::Reg(epvf_ir::ValueId(0)),
        };
        let r = rec(vec![(50, true)], Some(50));
        let d = ValueRange::new(10, 100);
        assert_eq!(
            operand_range(&mk(CastOp::ZExt, Type::I32, Type::I64), 0, r.view(), d),
            Some(ValueRange::new(10, 100))
        );
        assert_eq!(
            operand_range(&mk(CastOp::PtrToInt, Type::Ptr, Type::I64), 0, r.view(), d),
            Some(d)
        );
        assert_eq!(
            operand_range(&mk(CastOp::IntToPtr, Type::I64, Type::Ptr), 0, r.view(), d),
            Some(d)
        );
        // trunc passes through only when the bound fits the narrow type
        assert_eq!(
            operand_range(&mk(CastOp::Trunc, Type::I64, Type::I8), 0, r.view(), d),
            Some(d)
        );
        let wide = ValueRange::new(10, 0x1_0000);
        assert!(
            operand_range(&mk(CastOp::Trunc, Type::I64, Type::I8), 0, r.view(), wide).is_none()
        );
        // float casts never propagate
        assert!(operand_range(&mk(CastOp::SiToFp, Type::I64, Type::F64), 0, r.view(), d).is_none());
    }

    #[test]
    fn phi_and_select() {
        let phi = Op::Phi {
            ty: Type::I64,
            incomings: vec![],
        };
        let r = rec(vec![(50, true)], Some(50));
        let d = ValueRange::new(10, 100);
        assert_eq!(operand_range(&phi, 0, r.view(), d), Some(d));

        let select = Op::Select {
            ty: Type::I64,
            cond: Value::Reg(epvf_ir::ValueId(0)),
            a: Value::Reg(epvf_ir::ValueId(1)),
            b: Value::Reg(epvf_ir::ValueId(2)),
        };
        // cond = 1 takes slot 1; slot 1 passes through, slot 2 unconstrained
        let r = rec(vec![(1, true), (50, true), (999, true)], Some(50));
        assert_eq!(operand_range(&select, 1, r.view(), d), Some(d));
        assert!(operand_range(&select, 2, r.view(), d).is_none());
        // flipping cond selects 999 ∉ [10,100] → cond pinned to 1
        assert_eq!(
            operand_range(&select, 0, r.view(), d),
            Some(ValueRange::new(1, 1))
        );
        // if the untaken value is also in range, cond is unconstrained
        let r = rec(vec![(1, true), (50, true), (60, true)], Some(50));
        assert!(operand_range(&select, 0, r.view(), d).is_none());
    }

    #[test]
    fn unconstrained_ops_return_none() {
        let r = rec(vec![(50, true), (3, true)], Some(1));
        let d = ValueRange::new(10, 100);
        for op in [
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::URem,
            BinOp::SRem,
            BinOp::AShr,
        ] {
            assert!(operand_range(&bin(op), 0, r.view(), d).is_none(), "{op:?}");
        }
        let icmp = Op::Icmp {
            pred: IcmpPred::Eq,
            ty: Type::I64,
            a: Value::Reg(epvf_ir::ValueId(0)),
            b: Value::Reg(epvf_ir::ValueId(1)),
        };
        assert!(operand_range(&icmp, 0, r.view(), d).is_none());
        let fcmp = Op::Fcmp {
            pred: FcmpPred::Oeq,
            ty: Type::F64,
            a: Value::Reg(epvf_ir::ValueId(0)),
            b: Value::Reg(epvf_ir::ValueId(1)),
        };
        assert!(operand_range(&fcmp, 0, r.view(), d).is_none());
    }

    #[test]
    fn safety_valve_drops_contradicted_ranges() {
        // Actual operand value outside the derived range → None.
        let r = rec(vec![(5, true), (30, true)], Some(35));
        // dest ∈ [100, 200] but a = 5 would need a ∈ [70, 170]: contradiction.
        assert!(operand_range(&bin(BinOp::Add), 0, r.view(), ValueRange::new(100, 200)).is_none());
        // An i32 product that wrapped: 3 · 0x9E37_79B9 = 0x1_DAA6_6D2B. A
        // dest reaching past 2^32 would hold 3 · 0x9E37_79B9 unwrapped, but
        // the row inverted at the golden result alone does not give back 3,
        // so the constraint is dropped whatever the dest.
        let mul32 = Op::Bin {
            op: BinOp::Mul,
            ty: Type::I32,
            a: Value::Reg(epvf_ir::ValueId(0)),
            b: Value::Reg(epvf_ir::ValueId(1)),
        };
        let r = rec(vec![(3, true), (0x9E37_79B9, true)], Some(0xDAA6_6D2B));
        assert!(operand_range(&mul32, 0, r.view(), ValueRange::new(0, 1 << 40)).is_none());
        assert!(
            operand_range(&mul32, 0, r.view(), ValueRange::new(0, u64::from(u32::MAX))).is_none()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_ddg::{build_ddg, AceConfig};
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{ModuleBuilder, Type};

    /// `buf[1] = 42; out = buf[1]` — the paper's running example in spirit.
    fn analyzed() -> (epvf_ir::Module, Trace, Ddg, AceGraph, CrashMap) {
        let mut mb = ModuleBuilder::new("frag");
        let mut f = mb.function("main", vec![], None);
        let buf = f.malloc(Value::i64(64));
        let idx = f.add(Type::I64, Value::i64(0), Value::i64(1));
        let v = f.add(Type::I32, Value::i32(20), Value::i32(22));
        let slot = f.gep(buf, idx, 4);
        f.store(Type::I32, v, slot);
        let back = f.load(Type::I32, slot);
        f.output(Type::I32, back);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        let t = r.trace.expect("trace");
        let ddg = build_ddg(&m, &t);
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        let map = propagate(&m, &t, &ddg, &ace, CrashModelConfig::default());
        (m, t, ddg, ace, map)
    }

    #[test]
    fn address_uses_are_constrained() {
        let (_m, t, _ddg, _ace, map) = analyzed();
        let mut constrained_mem_uses = 0;
        for rec in &t {
            if let Some(mem) = &rec.mem {
                let slot = if mem.is_store { 1 } else { 0 };
                let c = map
                    .use_constraint(rec.idx, slot)
                    .expect("address constrained");
                assert!(c.range.contains(mem.addr), "golden address in range");
                assert!(!c.range.is_full());
                constrained_mem_uses += 1;
            }
        }
        assert_eq!(constrained_mem_uses, 2, "store + load addresses");
    }

    #[test]
    fn high_address_bits_predicted_crashing() {
        let (_m, t, _ddg, _ace, map) = analyzed();
        let store = t
            .iter()
            .find(|r| r.mem.as_ref().is_some_and(|m| m.is_store))
            .expect("store");
        // Heap addresses live around 0x0200_0000 in a ~512MiB span; flipping
        // bit 45 must leave every segment.
        assert!(map.predicts_crash(store.idx, 1, 45));
        // Flipping bit 2 moves within the heap segment: not a crash.
        assert!(!map.predicts_crash(store.idx, 1, 2));
    }

    #[test]
    fn mask_prediction_generalizes_single_bit() {
        let (_m, t, _ddg, _ace, map) = analyzed();
        let store = t
            .iter()
            .find(|r| r.mem.as_ref().is_some_and(|m| m.is_store))
            .expect("store");
        // Single-bit masks agree with predicts_crash for every bit.
        for bit in 0..64u8 {
            assert_eq!(
                map.predicts_crash_mask(store.idx, 1, 1u64 << bit),
                map.predicts_crash(store.idx, 1, bit),
                "bit {bit}"
            );
        }
        // A burst containing a crashing bit crashes; an in-segment
        // multi-bit wiggle does not.
        assert!(map.predicts_crash_mask(store.idx, 1, (1 << 45) | (1 << 46)));
        assert!(!map.predicts_crash_mask(store.idx, 1, 0b110));
        // Degenerate masks never predict.
        assert!(!map.predicts_crash_mask(store.idx, 1, 0));
        assert!(!map.predicts_crash_mask(u64::MAX, 0, 1));
    }

    #[test]
    fn constraint_propagates_through_gep_to_base_and_index() {
        let (_m, t, ddg, _ace, map) = analyzed();
        // The gep record: operands (base, index) must both be constrained.
        let gep = t
            .iter()
            .find(|r| {
                ddg.def_of_record(r.idx)
                    .map(|n| ddg.deps(n).len() == 2)
                    .unwrap_or(false)
                    && r.operands.len() == 2
                    && r.result.is_some()
                    && r.mem.is_none()
                    && r.operands[1].value.as_const_int().is_none()
            })
            .expect("gep record with register operands");
        let base = map.use_constraint(gep.idx, 0).expect("base constrained");
        assert!(base.range.contains(gep.operands[0].bits));
        let idx = map.use_constraint(gep.idx, 1).expect("index constrained");
        assert!(idx.range.contains(gep.operands[1].bits));
        // The index is bounded to the heap span / 4.
        assert!(idx.range.hi < u64::MAX / 4);
    }

    #[test]
    fn value_chain_not_address_constrained() {
        let (_m, t, _ddg, _ace, map) = analyzed();
        // The `v = 20 + 22` add feeds the *stored value*, which is
        // constrained only through the load→store value path... and the
        // loaded value feeds `output`, not an address, so the stored-value
        // use is NOT constrained here.
        let value_add = t
            .iter()
            .find(|r| {
                r.result.is_some()
                    && r.operands.len() == 2
                    && r.operands.iter().all(|o| o.src.is_none())
                    && r.operands[0].value.ty_if_const() == Some(Type::I32)
            })
            .expect("the i32 constant add");
        assert!(map.use_constraint(value_add.idx, 0).is_none());
    }

    #[test]
    fn naive_model_gives_wider_stack_ranges() {
        // An alloca'd slot accessed with both models: the Linux rule extends
        // the valid floor below the stack VMA, so its range is wider.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let slot = f.alloca(16, 8);
        f.store(Type::I64, Value::i64(5), slot);
        let v = f.load(Type::I64, slot);
        f.output(Type::I64, v);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        let t = r.trace.expect("trace");
        let ddg = build_ddg(&m, &t);
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        let full = propagate(&m, &t, &ddg, &ace, CrashModelConfig::default());
        let naive = propagate(
            &m,
            &t,
            &ddg,
            &ace,
            CrashModelConfig {
                stack_rule: false,
                ..CrashModelConfig::default()
            },
        );
        let store = t
            .iter()
            .find(|r| r.mem.as_ref().is_some_and(|m| m.is_store))
            .expect("store");
        let cf = full.use_constraint(store.idx, 1).expect("constrained");
        let cn = naive.use_constraint(store.idx, 1).expect("constrained");
        assert!(
            cf.range.lo < cn.range.lo,
            "Linux rule admits lower stack addresses"
        );
        assert!(
            cn.crash_bit_count() >= cf.crash_bit_count(),
            "naive model predicts at least as many crash bits"
        );
    }

    #[test]
    fn loaded_address_constrains_feeding_store_value() {
        // Store a pointer to memory, load it back, dereference it: the
        // stored pointer value must be range-constrained.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let data = f.malloc(Value::i64(8));
        f.store(Type::I64, Value::i64(77), data);
        let cell = f.malloc(Value::i64(8));
        f.store(Type::Ptr, data, cell); // spill the pointer
        let p = f.load(Type::Ptr, cell); // reload it
        let v = f.load(Type::I64, p); // dereference
        f.output(Type::I64, v);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        assert_eq!(r.outputs, vec![77]);
        let t = r.trace.expect("trace");
        let ddg = build_ddg(&m, &t);
        let ace = AceGraph::compute(&ddg, AceConfig::default());
        let map = propagate(&m, &t, &ddg, &ace, CrashModelConfig::default());
        // The `store ptr data, cell` record: its *value* operand (slot 0)
        // holds an address that is later dereferenced → constrained.
        let ptr_store = t
            .iter()
            .filter(|r| r.mem.as_ref().is_some_and(|m| m.is_store))
            .nth(1)
            .expect("second store");
        let c = map
            .use_constraint(ptr_store.idx, 0)
            .expect("spilled pointer constrained");
        assert!(c.range.contains(ptr_store.operands[0].bits));
        assert!(!c.range.is_full());
    }

    #[test]
    fn crash_map_accounting_consistency() {
        let (_m, _t, ddg, ace, map) = analyzed();
        assert!(map.n_uses() > 0);
        assert!(map.n_nodes() > 0);
        let ace_bits = map.ace_register_crash_bits(&ddg, &ace);
        assert!(
            ace_bits > 0,
            "address registers are ACE and crash-constrained"
        );
        assert!(ace_bits <= ace.register_bits());
        assert!(map.total_use_crash_bits() >= ace_bits / 2);
    }
}
