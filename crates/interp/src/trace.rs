//! Dynamic instruction trace.
//!
//! The paper's ePVF pipeline consumes a *dynamic IR instruction trace* — the
//! sequence of executed instructions with their runtime operand values,
//! memory addresses, and (for memory accesses) a snapshot of the live memory
//! map (the `/proc` probe of §III-D). [`Trace`] is that artifact.

use epvf_ir::{FuncId, StaticInstId, Value, ValueId};
use epvf_memsim::MemoryMap;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;

/// Identity of one *dynamic register instance*.
///
/// SSA registers are static names; at runtime, a register in a function
/// executed many times (or recursively) takes many values. Each definition
/// event gets a fresh `DynValueId` — these are the vertices of the DDG.
/// Values passed through calls/returns keep their id (parameter passing and
/// `ret` are transparent), mirroring the paper's treatment of a value
/// flowing through registers as a single entity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct DynValueId(pub u64);

impl DynValueId {
    /// Index form for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One operand as observed at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperandRec {
    /// The static operand (register / constant / global).
    pub value: Value,
    /// The runtime bit pattern actually used (after any injected flip).
    pub bits: u64,
    /// For register operands: the dynamic value read. `None` for constants
    /// and globals.
    pub src: Option<DynValueId>,
}

/// A memory access performed by a load or store, with the live segment
/// boundaries at that instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemAccessRec {
    /// The accessed address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// `true` for stores.
    pub is_store: bool,
    /// The stack pointer at the access (input to the Linux stack rule).
    pub sp: u64,
    /// Snapshot of the memory map (the simulated `/proc/self/maps` probe).
    /// `Arc`'d: consecutive accesses under an unchanged map share one
    /// snapshot instead of deep-cloning the VMA list per record.
    pub map: Arc<MemoryMap>,
}

/// One executed instruction. Its operands live in the [`Trace`]'s operand
/// arena; [`DynInstRef`] pairs a record with them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynInst {
    /// Position in the dynamic trace (0-based).
    pub idx: u64,
    /// The static instruction executed.
    pub sid: StaticInstId,
    /// The function it belongs to (for register-type lookups).
    pub func: FuncId,
    /// Result register, its value, and its fresh dynamic id, if the
    /// instruction defines one.
    pub result: Option<(ValueId, u64, DynValueId)>,
    /// Memory access details for loads/stores.
    pub mem: Option<MemAccessRec>,
}

/// A borrowed trace record with its operands, as [`Trace::get`] and
/// [`Trace::iter`] hand it out. It derefs to the [`DynInst`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInstRef<'a> {
    /// The record.
    pub inst: &'a DynInst,
    /// Operands as read, in slot order (`Op::operands`). For `phi`, only
    /// the taken incoming is recorded; a skipped instruction has none.
    pub operands: &'a [OperandRec],
}

impl Deref for DynInstRef<'_> {
    type Target = DynInst;
    fn deref(&self) -> &DynInst {
        self.inst
    }
}

/// Operands per arena chunk (160 KiB).
///
/// The arena grows a chunk at a time rather than as one `Vec` doubling
/// beside the records: freed, two interleaved growing buffers are not
/// reused from the allocator's free lists on the next run the way
/// fixed-size chunks are, and the golden run then pays for fresh pages
/// (DESIGN §15).
const CHUNK: usize = 4096;

/// A stored record: the instruction and where its operands sit in the
/// arena. The offsets are `usize`s, which makes a record 112 bytes: with
/// `u32`s (104 bytes) glibc trimmed the heap after every large analysis
/// and the next one paid to fault its pages back in (DESIGN §15).
#[derive(Debug, Clone, PartialEq)]
struct Record {
    inst: DynInst,
    chunk: usize,
    start: usize,
    count: usize,
}

/// A complete dynamic trace of one (golden) run.
///
/// Records are stored in order, and their operands in one arena of
/// fixed-size chunks: no record's operands straddle two chunks, and a
/// record with more operands than a chunk holds gets a chunk of its own.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<Record>,
    chunks: Vec<Vec<OperandRec>>,
    /// Where the operands of the record being recorded start in the last
    /// chunk.
    open: usize,
}

impl Trace {
    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over the records.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            trace: self,
            records: self.records.iter(),
        }
    }

    /// The record at dynamic index `idx`.
    pub fn get(&self, idx: u64) -> Option<DynInstRef<'_>> {
        let r = self.records.get(usize::try_from(idx).ok()?)?;
        Some(self.view(r))
    }

    /// Number of operands recorded, over all records.
    pub fn operand_count(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn view<'a>(&'a self, r: &'a Record) -> DynInstRef<'a> {
        let operands = match self.chunks.get(r.chunk) {
            Some(c) => &c[r.start..][..r.count],
            // No operand has been recorded yet, so the record has none.
            None => &[],
        };
        DynInstRef {
            inst: &r.inst,
            operands,
        }
    }

    /// Append an operand of the record being recorded, which [`Self::push`]
    /// then closes. A call that crashes growing the stack ends the run
    /// before its record is pushed; no record reads the operands it left.
    pub(crate) fn push_operand(&mut self, op: OperandRec) {
        match self.chunks.last_mut() {
            // Room left, or the open record fills this chunk on its own
            // and so grows it.
            Some(c) if c.len() < c.capacity() || self.open == 0 => c.push(op),
            // Full: the open record's operands move to a fresh chunk.
            Some(c) => {
                let mut fresh = Vec::with_capacity(CHUNK);
                fresh.extend(c.drain(self.open..));
                fresh.push(op);
                self.chunks.push(fresh);
                self.open = 0;
            }
            None => {
                let mut fresh = Vec::with_capacity(CHUNK);
                fresh.push(op);
                self.chunks.push(fresh);
            }
        }
    }

    /// Append a record whose operands are those pushed since the last
    /// record.
    pub(crate) fn push(&mut self, inst: DynInst) {
        let end = self.chunks.last().map_or(0, Vec::len);
        self.records.push(Record {
            inst,
            chunk: self.chunks.len().saturating_sub(1),
            start: self.open,
            count: end - self.open,
        });
        self.open = end;
    }

    /// Set the result of record `idx` (a phi's, known once its batch
    /// commits).
    pub(crate) fn set_result(&mut self, idx: usize, result: (ValueId, u64, DynValueId)) {
        self.records[idx].inst.result = Some(result);
    }
}

/// Iterator over a [`Trace`]'s records, from [`Trace::iter`].
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    records: std::slice::Iter<'a, Record>,
}

impl<'a> Iterator for TraceIter<'a> {
    type Item = DynInstRef<'a>;
    fn next(&mut self) -> Option<DynInstRef<'a>> {
        let r = self.records.next()?;
        Some(self.trace.view(r))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl DoubleEndedIterator for TraceIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let r = self.records.next_back()?;
        Some(self.trace.view(r))
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = DynInstRef<'a>;
    type IntoIter = TraceIter<'a>;
    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// A maximal contiguous run of trace records belonging to one static
/// section (see `epvf_ir::SectionMap`). Runs tile the trace: the first
/// starts at 0, each starts where the previous ended, the last ends at
/// `trace.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRun {
    /// Section ordinal (from `SectionMap::section_of`).
    pub section: u32,
    /// First dynamic index of the run.
    pub start: u64,
    /// One past the last dynamic index of the run.
    pub end: u64,
}

/// Split a trace into [`SectionRun`]s: consecutive records whose static
/// instructions share a section form one run. `section_of` maps a static
/// instruction to its section ordinal (normally
/// `|sid| map.section_of(sid)`).
pub fn section_runs(
    trace: &Trace,
    mut section_of: impl FnMut(StaticInstId) -> u32,
) -> Vec<SectionRun> {
    let mut runs: Vec<SectionRun> = Vec::new();
    for rec in trace.iter() {
        let s = section_of(rec.sid);
        match runs.last_mut() {
            Some(run) if run.section == s => run.end = rec.idx + 1,
            _ => runs.push(SectionRun {
                section: s,
                start: rec.idx,
                end: rec.idx + 1,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(idx: u64, sid: u32) -> DynInst {
        DynInst {
            idx,
            sid: StaticInstId(sid),
            func: FuncId(0),
            result: None,
            mem: None,
        }
    }

    #[test]
    fn section_runs_tile_the_trace() {
        // sections: sid 0,1 → 0; sid 2 → 1
        let mut t = Trace::default();
        for (idx, sid) in [0, 1, 2, 2, 0].into_iter().enumerate() {
            t.push(rec(idx as u64, sid));
        }
        let runs = section_runs(&t, |sid| if sid.index() < 2 { 0 } else { 1 });
        assert_eq!(
            runs,
            vec![
                SectionRun {
                    section: 0,
                    start: 0,
                    end: 2
                },
                SectionRun {
                    section: 1,
                    start: 2,
                    end: 4
                },
                SectionRun {
                    section: 0,
                    start: 4,
                    end: 5
                },
            ]
        );
        // Tiling: contiguous, covering 0..len.
        assert_eq!(runs.first().map(|r| r.start), Some(0));
        assert_eq!(runs.last().map(|r| r.end), Some(t.len() as u64));
        for w in runs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn section_runs_of_empty_trace() {
        assert!(section_runs(&Trace::default(), |_| 0).is_empty());
    }

    #[test]
    fn trace_container_basics() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(rec(0, 3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).map(|r| r.sid), Some(StaticInstId(3)));
        assert!(t.get(1).is_none());
        assert_eq!((&t).into_iter().count(), 1);
    }
}
