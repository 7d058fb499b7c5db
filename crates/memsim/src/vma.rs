//! Virtual memory areas and the process memory map.
//!
//! This is the simulated analogue of Linux's `vm_area_struct` list, i.e. the
//! information the paper's instrumentation probe reads out of
//! `/proc/self/maps` at every load and store (§III-D "Obtaining the segment
//! boundaries").

use crate::memory::{AlignmentPolicy, PAGE_SIZE, STACK_GUARD_WINDOW};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which process segment a [`Vma`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Program text (simulated code addresses; never accessed as data by the
    /// workloads, but present so wild pointers can land in it).
    Text,
    /// Globals / static data.
    Data,
    /// The heap (grows upward via `malloc`).
    Heap,
    /// The stack (grows downward; subject to Linux's expansion rule).
    Stack,
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SegmentKind::Text => "text",
            SegmentKind::Data => "data",
            SegmentKind::Heap => "heap",
            SegmentKind::Stack => "stack",
        };
        f.write_str(s)
    }
}

/// One contiguous mapped region `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vma {
    /// Inclusive start address (`vma_start` in the paper's Algorithm 3).
    pub start: u64,
    /// Exclusive end address (`vma_end`).
    pub end: u64,
    /// Segment classification.
    pub kind: SegmentKind,
}

impl Vma {
    /// Whether `addr` falls inside this area.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Size in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the area is empty (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}-{:#014x} {}", self.start, self.end, self.kind)
    }
}

/// A point-in-time snapshot of the process memory map: a sorted,
/// non-overlapping list of [`Vma`]s.
///
/// Snapshots are recorded into the dynamic trace at every memory access and
/// consumed later by the crash model's `CHECK_BOUNDARY` (paper Algorithm 3).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryMap {
    vmas: Vec<Vma>,
}

impl MemoryMap {
    /// Build a map from areas, sorting them by start address.
    ///
    /// # Panics
    /// Panics (debug builds) if areas overlap.
    pub fn new(mut vmas: Vec<Vma>) -> Self {
        vmas.sort_by_key(|v| v.start);
        debug_assert!(
            vmas.windows(2).all(|w| w[0].end <= w[1].start),
            "overlapping VMAs"
        );
        MemoryMap { vmas }
    }

    /// The areas in ascending address order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Find the area containing `addr` (the paper's
    /// `locate_segment_start`/`locate_segment_end` pair).
    #[inline]
    pub fn locate(&self, addr: u64) -> Option<&Vma> {
        let idx = self.vmas.partition_point(|v| v.end <= addr);
        self.vmas.get(idx).filter(|v| v.contains(addr))
    }

    /// Find the area of the given kind (first match).
    pub fn find_kind(&self, kind: SegmentKind) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.kind == kind)
    }

    /// Mutable access for the owning [`crate::SimMemory`] to grow segments.
    pub(crate) fn locate_mut_kind(&mut self, kind: SegmentKind) -> Option<&mut Vma> {
        self.vmas.iter_mut().find(|v| v.kind == kind)
    }

    /// Whether an access of `size` bytes at `addr` under stack pointer `sp`
    /// *provably* faults given only this map snapshot — the pure,
    /// side-effect-free core of [`crate::SimMemory::check_access`].
    ///
    /// The decision is one-sided on purpose: `true` means the live memory
    /// would fault the access (misalignment, or no VMA contains it and the
    /// kernel's stack-expansion rule cannot save it); `false` means it *may*
    /// succeed. The snapshot does not carry the RLIMIT_STACK floor, so an
    /// in-window below-stack access is treated as expandable even when the
    /// rlimit would in fact refuse — keeping `true` a sound subset of the
    /// real fault decision. The exhaustive oracle (`epvf-oracle`) uses this
    /// as a model-independent hard invariant on direct address-operand
    /// flips.
    pub fn definitely_faults(
        &self,
        addr: u64,
        size: u64,
        sp: u64,
        alignment: AlignmentPolicy,
    ) -> bool {
        if let AlignmentPolicy::FourByte = alignment {
            if size >= 4 && !addr.is_multiple_of(4) {
                return true;
            }
        }
        let Some(last) = addr.checked_add(size.saturating_sub(1)) else {
            return true;
        };
        if self.byte_definitely_faults(addr, sp) {
            return true;
        }
        // Mirror `check_access`: a page-straddling access is validated at
        // both ends (the two bytes can get different VMA decisions).
        last & !(PAGE_SIZE - 1) != addr & !(PAGE_SIZE - 1) && self.byte_definitely_faults(last, sp)
    }

    fn byte_definitely_faults(&self, addr: u64, sp: u64) -> bool {
        if self.locate(addr).is_some() {
            return false;
        }
        let Some(stack) = self.find_kind(SegmentKind::Stack) else {
            return true;
        };
        let in_stack_gap = addr < stack.start;
        let within_window = addr >= sp.saturating_sub(STACK_GUARD_WINDOW);
        !(in_stack_gap && within_window)
    }

    /// Render in `/proc/self/maps` style — useful in examples and debugging.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for v in &self.vmas {
            let _ = writeln!(out, "{v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MemoryMap {
        MemoryMap::new(vec![
            Vma {
                start: 0x1000,
                end: 0x2000,
                kind: SegmentKind::Text,
            },
            Vma {
                start: 0x4000,
                end: 0x6000,
                kind: SegmentKind::Heap,
            },
            Vma {
                start: 0x9000,
                end: 0xA000,
                kind: SegmentKind::Stack,
            },
        ])
    }

    #[test]
    fn locate_hits_and_misses() {
        let m = map();
        assert_eq!(m.locate(0x1000).map(|v| v.kind), Some(SegmentKind::Text));
        assert_eq!(m.locate(0x1FFF).map(|v| v.kind), Some(SegmentKind::Text));
        assert!(m.locate(0x2000).is_none()); // end is exclusive
        assert!(m.locate(0x3000).is_none()); // gap
        assert_eq!(m.locate(0x5FFF).map(|v| v.kind), Some(SegmentKind::Heap));
        assert!(m.locate(0).is_none());
        assert!(m.locate(u64::MAX).is_none());
    }

    #[test]
    fn new_sorts_areas() {
        let m = MemoryMap::new(vec![
            Vma {
                start: 0x9000,
                end: 0xA000,
                kind: SegmentKind::Stack,
            },
            Vma {
                start: 0x1000,
                end: 0x2000,
                kind: SegmentKind::Text,
            },
        ]);
        assert!(m.vmas()[0].start < m.vmas()[1].start);
    }

    #[test]
    fn find_kind() {
        let m = map();
        assert_eq!(
            m.find_kind(SegmentKind::Stack).map(|v| v.start),
            Some(0x9000)
        );
        assert!(m.find_kind(SegmentKind::Data).is_none());
    }

    #[test]
    fn vma_queries() {
        let v = Vma {
            start: 0x10,
            end: 0x20,
            kind: SegmentKind::Data,
        };
        assert!(v.contains(0x10));
        assert!(!v.contains(0x20));
        assert_eq!(v.len(), 0x10);
        assert!(!v.is_empty());
    }

    #[test]
    fn definitely_faults_is_sound_against_live_memory() {
        use crate::memory::{MemConfig, SimMemory};
        let mut mem = SimMemory::new(MemConfig::default());
        let heap = mem.malloc(4096).expect("heap alloc");
        let sp = mem.stack_top() - 512;
        mem.grow_stack_to(sp).expect("stack fits");
        let map = mem.snapshot_map();
        let mut probes = vec![0u64, 1, 4, heap, heap + 4092, heap + 4096, sp, sp - 1];
        for bit in 0..64 {
            probes.push(heap ^ (1u64 << bit));
            probes.push(sp ^ (1u64 << bit));
        }
        for &addr in &probes {
            for size in [1u64, 4, 8] {
                let says_faults = map.definitely_faults(addr, size, sp, AlignmentPolicy::FourByte);
                let really_faults = mem.clone().check_access(addr, size, sp).is_err();
                // One-sided soundness: a predicted fault must be real. (A
                // predicted success may still fault via the rlimit floor the
                // snapshot does not carry.)
                assert!(
                    !says_faults || really_faults,
                    "addr {addr:#x} size {size}: predicted fault but access succeeded"
                );
            }
        }
        // And it does claim faults where they obviously exist.
        assert!(map.definitely_faults(1, 1, sp, AlignmentPolicy::FourByte));
        assert!(map.definitely_faults(3, 8, sp, AlignmentPolicy::FourByte));
    }

    #[test]
    fn render_looks_like_proc_maps() {
        let r = map().render();
        assert!(r.contains("stack"));
        assert!(r.contains("0x000000001000"));
    }
}
