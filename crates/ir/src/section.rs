//! Static program sections for compositional analysis.
//!
//! FastFlip-style incremental analysis composes error-propagation results
//! over *sections* — units a program edit is local to. This module
//! partitions every function's CFG into sections: each natural **loop
//! nest** (blocks of overlapping natural loops, merged transitively)
//! becomes one section, and the remaining blocks form maximal runs of
//! consecutive **straight-line** regions. Every static instruction belongs
//! to exactly one section.
//!
//! Each section carries a content hash of its instructions (their textual
//! form, which is function-local: register and block numbering restarts
//! per function), so an identical section of a *different* module hashes
//! identically and an edited section hashes differently. The hash is the
//! static half of the compositional engine's cache key; the dynamic half
//! (boundary constraints, golden values) lives in `epvf-core`.

use crate::fnv::Fnv64;
use crate::module::Module;
use crate::value::{BlockId, FuncId, StaticInstId};

/// What kind of region a section is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// A natural loop nest: all blocks of one or more overlapping natural
    /// loops, merged until disjoint.
    LoopNest,
    /// A maximal run of consecutive non-loop blocks.
    Straight,
}

/// One section: a set of blocks of one function, plus the content hash of
/// the instructions they contain.
#[derive(Debug, Clone)]
pub struct Section {
    /// Owning function.
    pub func: FuncId,
    /// Region kind.
    pub kind: SectionKind,
    /// Member blocks, in block order.
    pub blocks: Vec<BlockId>,
    /// FNV-1a/64 over the member instructions' textual form (plus kind and
    /// intra-section block boundaries). Function-local numbering makes the
    /// hash position-independent across modules.
    pub content_hash: u64,
}

/// The module-wide partition: every static instruction maps to exactly one
/// section ordinal.
#[derive(Debug, Clone)]
pub struct SectionMap {
    sections: Vec<Section>,
    by_sid: Vec<u32>,
}

impl SectionMap {
    /// Partition `module` into sections.
    pub fn build(module: &Module) -> SectionMap {
        let mut sections = Vec::new();
        let mut by_sid = vec![u32::MAX; module.n_static_insts as usize];
        for f in &module.functions {
            let n = f.blocks.len();
            if n == 0 {
                continue;
            }
            // CFG edges by block index.
            let succs: Vec<Vec<usize>> = f
                .blocks
                .iter()
                .map(|b| b.successors().iter().map(|s| s.index()).collect())
                .collect();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (u, ss) in succs.iter().enumerate() {
                for &v in ss {
                    preds[v].push(u);
                }
            }
            // Iterative DFS from the entry block; an edge into a block on
            // the current DFS stack is a back edge (its target a header).
            let mut back_edges: Vec<(usize, usize)> = Vec::new();
            let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            state[0] = 1;
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if *next < succs[u].len() {
                    let v = succs[u][*next];
                    *next += 1;
                    match state[v] {
                        0 => {
                            state[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => back_edges.push((u, v)),
                        _ => {}
                    }
                } else {
                    state[u] = 2;
                    stack.pop();
                }
            }
            // Natural loop of a back edge (u → header): header, u, and
            // every block reaching u without passing through the header.
            // Overlapping loops (shared headers, nests) merge into one
            // loop-nest group via a block → group map.
            let mut group_of: Vec<Option<usize>> = vec![None; n];
            let mut n_groups = 0usize;
            for &(u, header) in &back_edges {
                let mut body = vec![header, u];
                let mut work = if u == header { vec![] } else { vec![u] };
                let mut seen = vec![false; n];
                seen[header] = true;
                seen[u] = true;
                while let Some(b) = work.pop() {
                    for &p in &preds[b] {
                        if !seen[p] {
                            seen[p] = true;
                            body.push(p);
                            work.push(p);
                        }
                    }
                }
                // Merge into the lowest-numbered group this loop touches.
                let target = body
                    .iter()
                    .filter_map(|&b| group_of[b])
                    .min()
                    .unwrap_or_else(|| {
                        n_groups += 1;
                        n_groups - 1
                    });
                let absorbed: Vec<usize> = body.iter().filter_map(|&b| group_of[b]).collect();
                for g in group_of.iter_mut() {
                    if let Some(cur) = *g {
                        if absorbed.contains(&cur) {
                            *g = Some(target);
                        }
                    }
                }
                for &b in &body {
                    group_of[b] = Some(target);
                }
            }
            // Emit sections in block order: each loop-nest group once (at
            // its first block), straight runs of the unassigned gaps.
            let mut emitted: Vec<bool> = vec![false; n_groups];
            let mut i = 0usize;
            while i < n {
                if let Some(g) = group_of[i] {
                    if !emitted[g] {
                        emitted[g] = true;
                        let blocks: Vec<BlockId> = (0..n)
                            .filter(|&b| group_of[b] == Some(g))
                            .map(|b| f.blocks[b].id)
                            .collect();
                        push_section(&mut sections, &mut by_sid, f, SectionKind::LoopNest, blocks);
                    }
                    i += 1;
                } else {
                    let start = i;
                    while i < n && group_of[i].is_none() {
                        i += 1;
                    }
                    let blocks: Vec<BlockId> = (start..i).map(|b| f.blocks[b].id).collect();
                    push_section(&mut sections, &mut by_sid, f, SectionKind::Straight, blocks);
                }
            }
        }
        SectionMap { sections, by_sid }
    }

    /// All sections, in emission order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the module produced no sections (no functions / blocks).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// The section ordinal owning a static instruction.
    ///
    /// # Panics
    ///
    /// Panics if `sid` does not belong to the partitioned module.
    pub fn section_of(&self, sid: StaticInstId) -> u32 {
        let s = self.by_sid[sid.index()];
        assert!(
            s != u32::MAX,
            "instruction {sid:?} not covered by any section"
        );
        s
    }
}

fn push_section(
    sections: &mut Vec<Section>,
    by_sid: &mut [u32],
    f: &crate::module::Function,
    kind: SectionKind,
    blocks: Vec<BlockId>,
) {
    use std::fmt::Write as _;
    let ordinal = sections.len() as u32;
    let mut h = Fnv64::new();
    h.u8(match kind {
        SectionKind::LoopNest => 1,
        SectionKind::Straight => 2,
    });
    for (pos, bid) in blocks.iter().enumerate() {
        // Intra-section position (not the absolute block id) so the hash
        // is stable when sections shift around the function.
        h.u32(pos as u32);
        let block = &f.blocks[bid.index()];
        for inst in &block.insts {
            let _ = write!(h, "{inst}");
            h.u8(0);
            if inst.sid.index() < by_sid.len() {
                by_sid[inst.sid.index()] = ordinal;
            }
        }
    }
    sections.push(Section {
        func: f.id,
        kind,
        blocks,
        content_hash: h.finish(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;
    use crate::value::Value;
    use crate::IcmpPred;

    /// entry → loop(header, body) → exit, all in one function.
    fn looped(constant: i32) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], None);
        let buf = f.malloc(Value::i64(64));
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(8));
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(constant));
        let slot = f.gep(buf, i, 4);
        f.store(Type::I32, v, slot);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        mb.finish().expect("verifies")
    }

    #[test]
    fn straight_line_function_is_one_section() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], None);
        let p = f.malloc(Value::i64(8));
        f.store(Type::I64, Value::i64(3), p);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let sm = SectionMap::build(&m);
        assert_eq!(sm.len(), 1);
        assert_eq!(sm.sections()[0].kind, SectionKind::Straight);
    }

    #[test]
    fn loop_blocks_form_a_loop_nest_section() {
        let m = looped(3);
        let sm = SectionMap::build(&m);
        let kinds: Vec<SectionKind> = sm.sections().iter().map(|s| s.kind).collect();
        assert!(
            kinds.contains(&SectionKind::LoopNest),
            "loop not detected: {kinds:?}"
        );
        // header + body share the loop-nest section; entry and exit do not.
        let nest = sm
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::LoopNest)
            .unwrap();
        assert_eq!(nest.blocks.len(), 2);
    }

    #[test]
    fn every_instruction_covered_exactly_once() {
        let m = looped(3);
        let sm = SectionMap::build(&m);
        let mut per_section = vec![0usize; sm.len()];
        for f in &m.functions {
            for inst in f.insts() {
                per_section[sm.section_of(inst.sid) as usize] += 1;
            }
        }
        let total: usize = per_section.iter().sum();
        let n_insts: usize = m.functions.iter().map(|f| f.insts().count()).sum();
        assert_eq!(total, n_insts);
        assert!(per_section.iter().all(|&c| c > 0), "{per_section:?}");
    }

    #[test]
    fn content_hash_tracks_edits_and_nothing_else() {
        let a = SectionMap::build(&looped(3));
        let b = SectionMap::build(&looped(3));
        let c = SectionMap::build(&looped(4));
        for (sa, sb) in a.sections().iter().zip(b.sections()) {
            assert_eq!(sa.content_hash, sb.content_hash, "rebuild must be stable");
        }
        // Only the loop body (where the constant lives) may change.
        let changed: Vec<bool> = a
            .sections()
            .iter()
            .zip(c.sections())
            .map(|(x, y)| x.content_hash != y.content_hash)
            .collect();
        assert_eq!(changed.iter().filter(|&&x| x).count(), 1, "{changed:?}");
        let idx = changed.iter().position(|&x| x).unwrap();
        assert_eq!(a.sections()[idx].kind, SectionKind::LoopNest);
    }
}
