//! The compositional analysis engine (FastFlip direction).
//!
//! [`analyze_compositional`] produces the *same* result as [`crate::analyze`]
//! but runs the crash/propagation model one **section run** at a time — a
//! maximal contiguous stretch of the trace inside one static section
//! ([`epvf_ir::SectionMap`]) — and memoizes each run's net effect in a
//! [`SectionCache`].
//!
//! Two facts make the composition exact rather than approximate:
//!
//! 1. **Equality by the fixpoint (cold).** Both engines enumerate the same
//!    roots and run the same per-node body of Table III. The monolithic pass
//!    seeds every root and then sweeps each node once; this engine seeds and
//!    sweeps one root at a time, section run by section run, over one shared
//!    `CrashMap`. Every Table III row is monotone and the safety valve's
//!    verdict depends only on golden values, so both schedules reach the
//!    same fixpoint of Algorithms 1–2 (DESIGN §14), and a cold composed
//!    analysis equals the monolithic one.
//! 2. **Exact replay (warm).** A section run's summary is keyed by a
//!    fingerprint of everything the pass reads: the section's instruction
//!    content, the backward-closure's structure and runtime contents
//!    (encoded by *discovery order*, never by absolute ids), the boundary
//!    ranges of its access roots, and the live-in constraints on every
//!    closure node and use. A hit therefore guarantees the recomputation
//!    would write exactly the recorded final constraints, so replay assigns
//!    them directly — O(summary) instead of O(sweep). Any doubt hashes
//!    differently and misses; misses merely recompute.

use crate::epvf::{analyze_with, EpvfConfig, EpvfResult};
use crate::propagation::{roots, CrashMap, CrashScope, PropSink, Root, Sweep, TouchSet};
use crate::section_cache::{OpTarget, SectionCache, SummaryOp, SECT_VERSION};
use epvf_ddg::{AceGraph, Ddg, NodeId, NodeKind};
use epvf_interp::{section_runs, DynInst, Trace};
use epvf_ir::{Fnv64, Module, SectionMap};

/// A `pos` entry for a node outside the current run's closure.
const NOT_IN_CLOSURE: u32 = u32::MAX;

/// Fold an optional constraint into a cache key.
fn hash_constraint(k: &mut Fnv64, c: Option<&crate::propagation::Constraint>) {
    match c {
        None => k.u8(0),
        Some(c) => {
            k.u8(1);
            k.u64(c.range.lo);
            k.u64(c.range.hi);
            k.u64(c.value);
            k.u32(c.width);
        }
    }
}

/// Per-sid FNV-1a/64 of each static instruction's textual form (the
/// function-local rendering, so it is position-independent across modules).
fn sid_text_hashes(module: &Module) -> Vec<u64> {
    use std::fmt::Write as _;
    let mut out = vec![0u64; module.n_static_insts as usize];
    for f in &module.functions {
        for inst in f.insts() {
            let mut k = Fnv64::new();
            let _ = write!(k, "{inst}");
            if inst.sid.index() >= out.len() {
                out.resize(inst.sid.index() + 1, 0);
            }
            out[inst.sid.index()] = k.finish();
        }
    }
    out
}

/// Run the complete ePVF methodology compositionally, reusing `cache`.
///
/// Produces a result equal to [`crate::analyze`] on the same inputs — the
/// differential suite in `epvf-oracle` enforces full `CrashMap` equality —
/// while a warm cache skips propagation for unchanged sections.
pub fn analyze_compositional(
    module: &Module,
    trace: &Trace,
    config: EpvfConfig,
    cache: &mut SectionCache,
) -> EpvfResult {
    analyze_with(module, trace, config, Some(cache))
}

/// The crash + propagation model run one section run at a time: each run's
/// roots either replay a cached summary or feed the shared [`Sweep`], one
/// root at a time.
pub(crate) fn compose_model(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    config: EpvfConfig,
    cache: &mut SectionCache,
) -> CrashMap {
    let _span = epvf_telemetry::span(epvf_telemetry::Tmr::CorePropagate);
    let sections = SectionMap::build(module);
    let runs = section_runs(trace, |sid| sections.section_of(sid));
    let mut sweep = Sweep::new(module, trace, ddg);
    let sid_hash = sid_text_hashes(module);
    let mut map = CrashMap::new(trace, ddg);
    let mut touched = TouchSet::new(&map);
    // Each closure node's discovery position, filled and cleared per run.
    let mut pos = vec![NOT_IN_CLOSURE; ddg.len()];

    for run in runs {
        // Runs without roots are no-ops in both engines and are skipped
        // without touching the cache (so `sections` counts only runs that
        // resolve via hit or miss).
        let roots: Vec<Root> = {
            let _span = epvf_telemetry::span(epvf_telemetry::Tmr::CoreRoots);
            roots(
                trace,
                ddg,
                ace,
                config.crash,
                config.scope,
                run.start..run.end,
            )
            .collect()
        };
        if roots.is_empty() {
            continue;
        }

        let order = ddg.backward_closure_ordered(roots.iter().map(|r| r.def));
        for (i, &n) in order.iter().enumerate() {
            pos[n.index()] = i as u32;
        }
        let key = section_key(
            module,
            trace,
            ddg,
            &map,
            config,
            sections.sections()[run.section as usize].content_hash,
            &roots,
            &order,
            &pos,
            &sid_hash,
        );

        // A summary fits when each op targets a closure node and each use
        // op an operand of the record that node's definition.
        let fits = |ops: &[SummaryOp]| {
            ops.iter().all(|op| {
                order
                    .get(op.target as usize)
                    .is_some_and(|&n| match op.kind {
                        OpTarget::Node => true,
                        OpTarget::Use => ddg
                            .node(n)
                            .def_record
                            .and_then(|r| trace.get(r))
                            .is_some_and(|rec| (op.slot as usize) < rec.operands.len()),
                    })
            })
        };
        if let Some(ops) = cache.find(key, fits) {
            // Replay: the key guarantees recomputation would produce
            // exactly these final constraints — assign them directly.
            for op in ops.iter() {
                let node = order[op.target as usize];
                match op.kind {
                    OpTarget::Node => map.set_node(node, op.constraint),
                    OpTarget::Use => {
                        let rec_idx = ddg
                            .node(node)
                            .def_record
                            .expect("a fitting use summary targets a defining record");
                        map.set_use(rec_idx, op.slot as usize, op.constraint);
                    }
                }
            }
        } else {
            touched.clear();
            let mut sink = PropSink {
                map: &mut map,
                touched: Some(&mut touched),
            };
            // One root at a time. One sweep per run would reach the same map,
            // keys and summaries far faster, but a warm replay, bound by its
            // O(closure) key, would then no longer beat a cold run by the 3x
            // the section-cache harness gates on. A cheaper key would not
            // change that: an O(run) key hashes more bytes than the closure
            // key on that harness's kernel (DESIGN §14).
            for &root in &roots {
                sweep.seed(&mut sink, root);
                sweep.drain(&mut sink);
            }
            if let Some(ops) = encode_summary_ops(ddg, &map, &touched, &pos) {
                cache.store(key, ops);
            }
        }
        for &n in &order {
            pos[n.index()] = NOT_IN_CLOSURE;
        }
    }
    map
}

/// Translate a recomputed run's touched keys into discovery-referenced
/// [`SummaryOp`]s. `None` if any touched key falls outside the closure
/// (cannot happen for the current sweep, which only writes closure members —
/// but an unencodable run is simply not cached rather than miscached).
fn encode_summary_ops(
    ddg: &Ddg,
    map: &CrashMap,
    touched: &TouchSet,
    pos: &[u32],
) -> Option<Vec<SummaryOp>> {
    let discovered = |n: NodeId| Some(pos[n.index()]).filter(|&p| p != NOT_IN_CLOSURE);
    let mut ops = Vec::with_capacity(touched.uses.len() + touched.nodes.len());
    for &(dyn_idx, slot) in &touched.uses {
        // A use is addressed through the node its record defines.
        let target = discovered(ddg.def_of_record(dyn_idx)?)?;
        ops.push(SummaryOp {
            kind: OpTarget::Use,
            target,
            slot: slot as u32,
            constraint: *map
                .use_constraint(dyn_idx, slot)
                .expect("touched use has a constraint"),
        });
    }
    for &node in &touched.nodes {
        let target = discovered(node)?;
        ops.push(SummaryOp {
            kind: OpTarget::Node,
            target,
            slot: 0,
            constraint: *map
                .node_constraint(node)
                .expect("touched node has a constraint"),
        });
    }
    // Deterministic byte layout: key order, not the order keys were touched.
    ops.sort_by_key(|o| (o.kind, o.target, o.slot));
    Some(ops)
}

/// Fingerprint everything the propagation pass reads for one section run.
#[allow(clippy::too_many_arguments)]
fn section_key(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    map: &CrashMap,
    config: EpvfConfig,
    content_hash: u64,
    roots: &[Root],
    order: &[NodeId],
    pos: &[u32],
    sid_hash: &[u64],
) -> u64 {
    let mut k = Fnv64::new();
    k.u32(SECT_VERSION);
    // Config knobs that change the pass's semantics.
    k.u8(config.ace.include_control as u8);
    k.u8(config.crash.stack_rule as u8);
    k.u64(config.crash.stack_limit);
    k.u8(match config.scope {
        CrashScope::AceOnly => 0,
        CrashScope::AllAccesses => 1,
    });
    // Static half: the section's instruction content.
    k.u64(content_hash);

    // Roots in trace order: the boundary range each access contributes
    // (hashing the *range* folds the whole memory-map snapshot and stack
    // rule into eight bytes) plus the address operand's runtime state.
    k.u32(roots.len() as u32);
    for root in roots {
        let rec = trace.get(root.idx).expect("root record");
        let mem = rec.mem.as_ref().expect("root has access");
        k.u32(pos[root.def.index()]);
        k.u64(root.range.lo);
        k.u64(root.range.hi);
        k.u8(mem.is_store as u8);
        let addr_slot = if mem.is_store { 1 } else { 0 };
        let addr_op = &rec.operands[addr_slot];
        k.u64(addr_op.bits);
        k.u8(addr_op.src.is_some() as u8);
    }

    // Dynamic half: the backward closure in discovery order — structure,
    // runtime contents, and live-in constraints (nodes AND uses, because a
    // replay assigns final values directly and so must be certain of the
    // pre-state it composes with).
    k.u32(order.len() as u32);
    for &n in order {
        let node = ddg.node(n);
        k.u8(match node.kind {
            NodeKind::Reg(_) => 0,     // dynamic ids are positional; the
            NodeKind::Mem { .. } => 1, // discovery encoding below replaces them
            NodeKind::External => 2,
        });
        k.u32(node.bits);
        k.u32(node.deps.len() as u32);
        for &(d, kind) in &node.deps {
            k.u32(pos[d.index()]);
            k.u8(match kind {
                epvf_ddg::EdgeKind::Data => 0,
                epvf_ddg::EdgeKind::Addr => 1,
            });
        }
        hash_constraint(&mut k, map.node_constraint(n));
        match node.def_record {
            None => k.u8(0),
            Some(rec_idx) => {
                k.u8(1);
                let rec = trace.get(rec_idx).expect("def record");
                k.u64(sid_hash[rec.sid.index()]);
                hash_record(&mut k, module, ddg, map, pos, n, rec);
            }
        }
    }
    k.finish()
}

/// Fold one closure record's runtime state into the key: result bits,
/// per-operand runtime values / widths / dependency matches, memory-access
/// coordinates, and live-in use constraints.
#[allow(clippy::too_many_arguments)]
fn hash_record(
    k: &mut Fnv64,
    module: &Module,
    ddg: &Ddg,
    map: &CrashMap,
    pos: &[u32],
    n: NodeId,
    rec: &DynInst,
) {
    match rec.result {
        None => k.u8(0),
        Some((_, bits, _)) => {
            k.u8(1);
            k.u64(bits);
        }
    }
    k.u32(rec.operands.len() as u32);
    for (slot, op) in rec.operands.iter().enumerate() {
        k.u64(op.bits);
        k.u32(crate::propagation::operand_width(module, rec, op.value));
        // Which dependency of `n` carries this operand's dynamic value —
        // the position-independent form of the sweep's DynValueId matching.
        let matched = op.src.and_then(|src| {
            ddg.node(n).deps.iter().find_map(|&(d, _)| {
                matches!(ddg.node(d).kind, NodeKind::Reg(dv) if dv == src).then_some(d)
            })
        });
        match matched {
            // A matched dep of a closure node is itself in the closure
            // (closures are dep-complete), so `pos` is total here.
            Some(d) => k.u32(pos[d.index()]),
            None => k.u32(u32::MAX),
        }
        hash_constraint(k, map.use_constraint(rec.idx, slot));
    }
    match rec.mem.as_ref() {
        None => k.u8(0),
        Some(m) => {
            k.u8(1);
            k.u64(m.addr);
            k.u64(m.size);
            k.u8(m.is_store as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{IcmpPred, ModuleBuilder, Type, Value};

    /// A loop kernel storing through computed addresses (same shape as the
    /// `epvf` module's test kernel).
    fn kernel(n: i32, mult: i32) -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("k");
        let mut f = mb.function("main", vec![], None);
        let arr = f.malloc(Value::i64(4 * 64));
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(n));
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(mult));
        let slot = f.gep(arr, i, 4);
        f.store(Type::I32, v, slot);
        let back = f.load(Type::I32, slot);
        f.output(Type::I32, back);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        let t = r.trace.expect("trace");
        (m, t)
    }

    #[test]
    fn composed_equals_monolithic_cold() {
        let (m, t) = kernel(12, 3);
        let mono = crate::analyze(&m, &t, EpvfConfig::default());
        let mut cache = SectionCache::in_memory();
        let comp = analyze_compositional(&m, &t, EpvfConfig::default(), &mut cache);
        assert_eq!(mono.crash_map, comp.crash_map);
        assert_eq!(mono.metrics.epvf, comp.metrics.epvf);
        assert_eq!(mono.metrics.pvf, comp.metrics.pvf);
        assert_eq!(mono.metrics.use_crash_bits, comp.metrics.use_crash_bits);
        let s = cache.stats();
        assert!(s.sections > 0);
        assert_eq!(s.hits + s.misses, s.sections);
    }

    #[test]
    fn warm_cache_hits_everything_and_replays_exactly() {
        let (m, t) = kernel(12, 3);
        let mut cache = SectionCache::in_memory();
        let cold = analyze_compositional(&m, &t, EpvfConfig::default(), &mut cache);
        let cold_stats = cache.stats();
        assert_eq!(cold_stats.hits, 0, "first run is all misses");
        let warm = analyze_compositional(&m, &t, EpvfConfig::default(), &mut cache);
        let s = cache.stats();
        assert_eq!(s.misses, cold_stats.misses, "second run recomputes nothing");
        assert_eq!(s.hits, cold_stats.sections, "second run hits every section");
        assert_eq!(cold.crash_map, warm.crash_map);
    }

    #[test]
    fn scope_and_config_partition_the_cache() {
        let (m, t) = kernel(12, 3);
        let mut cache = SectionCache::in_memory();
        let _ = analyze_compositional(&m, &t, EpvfConfig::default(), &mut cache);
        let after_default = cache.stats();
        let all = EpvfConfig {
            scope: CrashScope::AllAccesses,
            ..EpvfConfig::default()
        };
        let comp = analyze_compositional(&m, &t, all, &mut cache);
        let s = cache.stats();
        assert_eq!(
            s.hits, after_default.hits,
            "a different scope never reuses AceOnly summaries"
        );
        let mono = crate::analyze(&m, &t, all);
        assert_eq!(mono.crash_map, comp.crash_map);
    }

    #[test]
    fn different_trace_lengths_do_not_cross_contaminate() {
        let (m12, t12) = kernel(12, 3);
        let (m20, t20) = kernel(20, 3);
        let mut cache = SectionCache::in_memory();
        let _ = analyze_compositional(&m12, &t12, EpvfConfig::default(), &mut cache);
        let comp = analyze_compositional(&m20, &t20, EpvfConfig::default(), &mut cache);
        let mono = crate::analyze(&m20, &t20, EpvfConfig::default());
        assert_eq!(mono.crash_map, comp.crash_map);
    }

    /// The keys the section cache is addressed by, as earlier releases
    /// computed them. Persisted `EPVFSEC1` summaries are found by these
    /// values, so a refactor that changes what `section_key` hashes (or its
    /// order) would silently turn every existing cache into misses; a real
    /// format change must bump `SECT_VERSION` and update them here.
    #[test]
    fn section_keys_are_stable() {
        let keys = |m: &Module, t: &Trace, scope| {
            let mut cache = SectionCache::in_memory();
            let config = EpvfConfig {
                scope,
                ..EpvfConfig::default()
            };
            let _ = analyze_compositional(m, t, config, &mut cache);
            cache.keys()
        };
        let (m, t) = kernel(12, 3);
        assert_eq!(keys(&m, &t, CrashScope::AceOnly), [0xde9a_bb68_1df1_0ad0]);
        assert_eq!(
            keys(&m, &t, CrashScope::AllAccesses),
            [0xa573_1210_bac4_2405]
        );
        let bfs = epvf_workloads::by_name("bfs", epvf_workloads::Scale::Tiny).expect("bfs");
        let golden = bfs.golden();
        let trace = golden.trace.as_ref().expect("traced");
        assert_eq!(
            keys(&bfs.module, trace, CrashScope::AceOnly),
            [
                0x91bb_fd5f_4d32_a1eb,
                0x9809_7486_fe54_242c,
                0xde20_222d_73ad_e6ce,
                0xfe10_9cfb_c0c5_2784,
            ]
        );
    }
}
