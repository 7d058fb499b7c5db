//! The simulated 64-bit process memory.
//!
//! [`SimMemory`] provides the substrate the paper's crash model reasons
//! about: a paged, sparse address space carved into text/data/heap/stack
//! segments, with the exact Linux fault-decision semantics the paper reverse
//! engineered from the kernel (its Fig. 4):
//!
//! * an access inside a VMA is valid (*common case*);
//! * an access below the stack VMA but at or above `SP − 65536 − 128`
//!   *expands the stack* (up to the 8 MiB limit) instead of faulting
//!   (*case I*);
//! * anything else raises a segmentation fault (*case II*).

use crate::fault::AccessError;
use crate::hash::WordMap;
use crate::vma::{MemoryMap, SegmentKind, Vma};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated page size.
pub const PAGE_SIZE: u64 = 4096;

/// [`PAGE_SIZE`] as a byte count.
const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One resident page's bytes.
type Page = [u8; PAGE_BYTES];

/// The page number of `addr` and its offset in that page.
#[inline]
fn page_of(addr: u64) -> (u64, usize) {
    (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize)
}

/// The stack-expansion window below SP that Linux still honours:
/// 64 KiB + 128 B (paper §III-D, kernel `expand_stack` heuristic).
pub const STACK_GUARD_WINDOW: u64 = 65536 + 128;

/// Default RLIMIT_STACK-style stack size limit: 8 MiB.
pub const DEFAULT_STACK_LIMIT: u64 = 8 * 1024 * 1024;

/// Default base of the text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;
/// Default size of the text segment.
pub const TEXT_SIZE: u64 = 0x0010_0000;
/// Default base of the data (globals) segment.
pub const DATA_BASE: u64 = 0x0060_0000;
/// Default base of the heap.
pub const HEAP_BASE: u64 = 0x0200_0000;
/// Default maximum heap span (brk can move up to `HEAP_BASE + HEAP_SPAN`).
pub const HEAP_SPAN: u64 = 0x2000_0000; // 512 MiB
/// Default top of the stack (exclusive).
pub const STACK_TOP: u64 = 0x7FFF_FFFF_F000;

/// How strictly memory accesses must be aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignmentPolicy {
    /// Accesses of 4 or more bytes must be 4-byte aligned — reproduces the
    /// paper's `MMA` crash class (Table I).
    #[default]
    FourByte,
    /// No alignment faults (x86-style permissive scalar accesses).
    None,
}

/// Configuration of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Alignment fault policy.
    pub alignment: AlignmentPolicy,
    /// Stack size limit in bytes (Linux default: 8 MiB).
    pub stack_limit: u64,
    /// A constant added to the heap and stack bases — an ASLR-style slide.
    /// Note that a pure slide translates accesses and boundaries together,
    /// so fault decisions are invariant to it; see `heap_slack` for the
    /// noise that actually perturbs accuracy.
    pub layout_slide: u64,
    /// Extra bytes the heap VMA extends past the last allocation —
    /// modelling allocator over-reserve. Differing slack between the
    /// profiled (golden) run and the injected runs reproduces the
    /// environment non-determinism the paper blames for its
    /// recall/precision gap (§IV-B): boundaries move relative to accesses.
    pub heap_slack: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            alignment: AlignmentPolicy::FourByte,
            stack_limit: DEFAULT_STACK_LIMIT,
            layout_slide: 0,
            heap_slack: 0,
        }
    }
}

/// Plain counters of memory-simulator activity, accumulated per address
/// space. Deliberately non-atomic: `SimMemory` is single-owner on hot
/// paths, and a cloned space (checkpoint) inherits its parent's totals, so
/// consumers that want per-run numbers read a baseline at clone/resume time
/// and report [`MemStats::delta_since`] that baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Access-validity decisions taken ([`SimMemory::check_access`] calls —
    /// the simulated Fig. 4 kernel logic).
    pub fault_checks: u64,
    /// Shared pages copied on write after a snapshot clone.
    pub cow_page_copies: u64,
    /// Zero pages materialized on first write.
    pub pages_materialized: u64,
}

impl MemStats {
    /// Component-wise `self − base` (saturating), for per-run deltas
    /// against a baseline captured at clone/resume time.
    pub fn delta_since(self, base: MemStats) -> MemStats {
        MemStats {
            fault_checks: self.fault_checks.saturating_sub(base.fault_checks),
            cow_page_copies: self.cow_page_copies.saturating_sub(base.cow_page_copies),
            pages_materialized: self
                .pages_materialized
                .saturating_sub(base.pages_materialized),
        }
    }
}

/// The sparse, paged, segment-aware simulated memory.
///
/// # Examples
///
/// ```
/// use epvf_memsim::{MemConfig, SimMemory};
///
/// let mut mem = SimMemory::new(MemConfig::default());
/// let p = mem.malloc(64)?;
/// let sp = mem.stack_top();
/// mem.write(p, 4, 0xDEAD_BEEF, sp)?;
/// assert_eq!(mem.read(p, 4, sp)?, 0xDEAD_BEEF);
/// # Ok::<(), epvf_memsim::AccessError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimMemory {
    config: MemConfig,
    /// Resident pages, keyed by page number (address / [`PAGE_SIZE`]).
    /// Pages are `Arc`'d so cloning the whole space (for a checkpoint) is
    /// O(resident pages) pointer bumps; writes go through `Arc::make_mut`,
    /// copying a page only when it is shared.
    pages: WordMap<u64, Arc<Page>>,
    map: MemoryMap,
    /// Bumped every time `map` changes; lets callers cache derived data
    /// (e.g. a shared snapshot of the map) instead of re-cloning per access.
    map_version: u64,
    /// Current heap break (top of the heap VMA).
    brk: u64,
    /// Live heap allocations: base → size.
    allocations: BTreeMap<u64, u64>,
    /// Bump cursor for the next allocation.
    heap_cursor: u64,
    heap_max: u64,
    stack_top: u64,
    stack_lowest: u64,
    /// Activity counters. Excluded from [`Self::state_eq`]: they describe
    /// how the space has been driven, not what it holds.
    stats: MemStats,
}

impl SimMemory {
    /// Create a fresh address space with empty heap and a one-page stack.
    pub fn new(config: MemConfig) -> Self {
        let slide = config.layout_slide & !(PAGE_SIZE - 1);
        let heap_base = HEAP_BASE + slide;
        let stack_top = STACK_TOP - slide;
        let stack_lowest = stack_top - config.stack_limit;
        let slack = config
            .heap_slack
            .next_multiple_of(PAGE_SIZE)
            .min(HEAP_SPAN / 2);
        let map = MemoryMap::new(vec![
            Vma {
                start: TEXT_BASE,
                end: TEXT_BASE + TEXT_SIZE,
                kind: SegmentKind::Text,
            },
            Vma {
                start: DATA_BASE,
                end: DATA_BASE,
                kind: SegmentKind::Data,
            },
            Vma {
                start: heap_base,
                end: heap_base + slack,
                kind: SegmentKind::Heap,
            },
            Vma {
                start: stack_top - PAGE_SIZE,
                end: stack_top,
                kind: SegmentKind::Stack,
            },
        ]);
        SimMemory {
            config,
            pages: WordMap::default(),
            map,
            map_version: 0,
            brk: heap_base,
            allocations: BTreeMap::new(),
            heap_cursor: heap_base,
            heap_max: heap_base + HEAP_SPAN,
            stack_top,
            stack_lowest,
            stats: MemStats::default(),
        }
    }

    /// Cumulative activity counters for this address space (clones inherit
    /// their parent's totals; see [`MemStats::delta_since`]).
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The configuration this space was built with.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Initial stack pointer (the top of the stack).
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// The lowest address the stack may ever grow to (top − limit).
    pub fn stack_lowest(&self) -> u64 {
        self.stack_lowest
    }

    /// A point-in-time copy of the memory map — the simulated
    /// `/proc/self/maps` probe of §III-D.
    pub fn snapshot_map(&self) -> MemoryMap {
        self.map.clone()
    }

    /// Borrow the live memory map.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// Monotone counter bumped whenever the memory map changes. Two calls
    /// returning the same value bracket a span in which [`Self::map`] was
    /// constant, so a cached [`Self::snapshot_map`] stays valid.
    pub fn map_version(&self) -> u64 {
        self.map_version
    }

    /// Semantic equality of two address spaces: same segment layout, heap
    /// bookkeeping, and byte contents. Page storage is compared by value —
    /// a missing page equals an all-zero page (both read as zeros) — with an
    /// `Arc::ptr_eq` fast path for pages shared between the two spaces, so
    /// comparing a run against a checkpoint it was resumed from touches only
    /// the pages written since. `map_version` is deliberately excluded: it
    /// counts mutations, not state.
    pub fn state_eq(&self, other: &SimMemory) -> bool {
        if self.map != other.map
            || self.brk != other.brk
            || self.allocations != other.allocations
            || self.heap_cursor != other.heap_cursor
            || self.heap_max != other.heap_max
            || self.stack_top != other.stack_top
            || self.stack_lowest != other.stack_lowest
        {
            return false;
        }
        for (page, data) in &self.pages {
            match other.pages.get(page) {
                Some(o) => {
                    if !Arc::ptr_eq(data, o) && data[..] != o[..] {
                        return false;
                    }
                }
                None => {
                    if data.iter().any(|&b| b != 0) {
                        return false;
                    }
                }
            }
        }
        for (page, data) in &other.pages {
            if !self.pages.contains_key(page) && data.iter().any(|&b| b != 0) {
                return false;
            }
        }
        true
    }

    // ----- segment management -----

    /// Place a global of `size`/`align` in the data segment, returning its
    /// base address. Called by the interpreter during module loading.
    pub fn place_global(&mut self, size: u64, align: u64) -> u64 {
        let data = self
            .map
            .locate_mut_kind(SegmentKind::Data)
            .expect("data segment always exists");
        let base = data.end.next_multiple_of(align.max(1));
        data.end = base + size.max(1);
        self.map_version += 1;
        base
    }

    /// Allocate `size` bytes on the heap (paper workloads' `malloc`).
    ///
    /// # Errors
    /// [`AccessError::OutOfMemory`] if the heap span is exhausted.
    pub fn malloc(&mut self, size: u64) -> Result<u64, AccessError> {
        let size = size.max(1);
        let base = self.heap_cursor.next_multiple_of(16);
        let end = base
            .checked_add(size)
            .ok_or(AccessError::OutOfMemory { requested: size })?;
        if end > self.heap_max {
            return Err(AccessError::OutOfMemory { requested: size });
        }
        self.heap_cursor = end;
        if end > self.brk {
            self.brk = end.next_multiple_of(PAGE_SIZE);
            let slack = self
                .config
                .heap_slack
                .next_multiple_of(PAGE_SIZE)
                .min(HEAP_SPAN / 2);
            let heap = self
                .map
                .locate_mut_kind(SegmentKind::Heap)
                .expect("heap segment always exists");
            heap.end = self.brk + slack;
            self.map_version += 1;
        }
        self.allocations.insert(base, size);
        Ok(base)
    }

    /// Release a heap allocation. As with a real `brk` heap, the segment is
    /// not shrunk — freed space simply becomes unused (still-mapped) heap.
    ///
    /// # Errors
    /// [`AccessError::InvalidFree`] if `ptr` is not a live allocation base.
    pub fn free(&mut self, ptr: u64) -> Result<(), AccessError> {
        self.allocations
            .remove(&ptr)
            .map(|_| ())
            .ok_or(AccessError::InvalidFree { addr: ptr })
    }

    /// Number of live heap allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocations.len()
    }

    /// Legitimately extend the stack down to cover `sp` (frame push). This
    /// is the orderly growth a real program gets from touching stack pages
    /// in order; faulty wild accesses must instead pass [`Self::check_access`].
    ///
    /// # Errors
    /// [`AccessError::StackOverflow`] if `sp` descends past the stack limit.
    pub fn grow_stack_to(&mut self, sp: u64) -> Result<(), AccessError> {
        if sp < self.stack_lowest {
            return Err(AccessError::StackOverflow { sp });
        }
        let page = sp & !(PAGE_SIZE - 1);
        let stack = self
            .map
            .locate_mut_kind(SegmentKind::Stack)
            .expect("stack segment always exists");
        if page < stack.start {
            stack.start = page;
            self.map_version += 1;
        }
        Ok(())
    }

    // ----- the Linux fault decision -----

    /// Decide whether an access of `size` bytes at `addr` is legal given the
    /// current stack pointer `sp`, expanding the stack when Linux would.
    ///
    /// This is the ground-truth implementation of the paper's Fig. 4 kernel
    /// logic. The crash *model* (in `epvf-core`) predicts this decision from
    /// trace snapshots.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::Segfault`].
    #[inline]
    pub fn check_access(&mut self, addr: u64, size: u64, sp: u64) -> Result<(), AccessError> {
        self.stats.fault_checks += 1;
        if let AlignmentPolicy::FourByte = self.config.alignment {
            if size >= 4 && !addr.is_multiple_of(4) {
                return Err(AccessError::Misaligned { addr });
            }
        }
        let last = addr
            .checked_add(size.saturating_sub(1))
            .ok_or(AccessError::Segfault { addr })?;
        self.check_byte(addr, sp)?;
        if last & !(PAGE_SIZE - 1) != addr & !(PAGE_SIZE - 1) {
            // The access straddles a page boundary; validate its last byte
            // too (different VMA decisions are possible).
            self.check_byte(last, sp)?;
        }
        Ok(())
    }

    #[inline]
    fn check_byte(&mut self, addr: u64, sp: u64) -> Result<(), AccessError> {
        if self.map.locate(addr).is_some() {
            return Ok(()); // common case
        }
        self.grow_stack_or_fault(addr, sp)
    }

    /// [`Self::check_byte`] for an address in no VMA, kept out of line so
    /// the common case inlines into every access.
    #[cold]
    fn grow_stack_or_fault(&mut self, addr: u64, sp: u64) -> Result<(), AccessError> {
        // Not in any VMA. Linux: if this lies in the stack gap and within
        // the guard window below SP (and above the rlimit), expand the
        // stack (case I); otherwise SIGSEGV (case II).
        let stack = self
            .map
            .find_kind(SegmentKind::Stack)
            .expect("stack segment always exists");
        let in_stack_gap = addr < stack.start && addr >= self.stack_lowest;
        let within_window = addr >= sp.saturating_sub(STACK_GUARD_WINDOW);
        if in_stack_gap && within_window {
            let page = addr & !(PAGE_SIZE - 1);
            let stack = self
                .map
                .locate_mut_kind(SegmentKind::Stack)
                .expect("stack segment always exists");
            if page < stack.start {
                stack.start = page;
                self.map_version += 1;
            }
            return Ok(());
        }
        Err(AccessError::Segfault { addr })
    }

    // ----- data access -----

    /// Read `size ∈ {1,2,4,8}` bytes, little-endian, after validating the
    /// access. An access within one page costs one page lookup; only one
    /// that crosses into the next page goes byte by byte.
    ///
    /// # Errors
    /// Propagates the fault from [`Self::check_access`].
    #[inline]
    pub fn read(&mut self, addr: u64, size: u64, sp: u64) -> Result<u64, AccessError> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        self.check_access(addr, size, sp)?;
        let (page, off) = page_of(addr);
        let n = size as usize;
        let mut bytes = [0u8; 8];
        if off + n <= PAGE_BYTES {
            if let Some(p) = self.pages.get(&page) {
                bytes[..n].copy_from_slice(&p[off..off + n]);
            }
        } else {
            for (i, b) in bytes[..n].iter_mut().enumerate() {
                *b = self.peek_byte(addr + i as u64);
            }
        }
        Ok(u64::from_le_bytes(bytes))
    }

    /// Write `size ∈ {1,2,4,8}` bytes, little-endian, after validating the
    /// access, with one page lookup unless the access crosses a page.
    ///
    /// # Errors
    /// Propagates the fault from [`Self::check_access`].
    #[inline]
    pub fn write(&mut self, addr: u64, size: u64, value: u64, sp: u64) -> Result<(), AccessError> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        self.check_access(addr, size, sp)?;
        let (page, off) = page_of(addr);
        let n = size as usize;
        let bytes = value.to_le_bytes();
        if off + n <= PAGE_BYTES {
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes[..n].iter().enumerate() {
                self.poke_byte(addr + i as u64, b);
            }
        }
        Ok(())
    }

    /// Copy raw bytes in without access checks (module loading and ECC
    /// strikes only).
    pub fn write_bytes_raw(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.poke_byte(addr + i as u64, *b);
        }
    }

    fn peek_byte(&self, addr: u64) -> u8 {
        let (page, off) = page_of(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    fn poke_byte(&mut self, addr: u64, v: u8) {
        let (page, off) = page_of(addr);
        self.page_mut(page)[off] = v;
    }

    /// The writable bytes of page number `page`: materialized as zeros on
    /// first write, copied first if a snapshot still shares it.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let p = match self.pages.entry(page) {
            Entry::Occupied(e) => {
                let p = e.into_mut();
                if Arc::strong_count(p) > 1 {
                    self.stats.cow_page_copies += 1;
                }
                p
            }
            Entry::Vacant(e) => {
                self.stats.pages_materialized += 1;
                e.insert(Arc::new([0u8; PAGE_BYTES]))
            }
        };
        Arc::make_mut(p)
    }

    /// Number of materialized pages (memory footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        SimMemory::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SimMemory {
        SimMemory::new(MemConfig::default())
    }

    #[test]
    fn heap_round_trip_all_sizes() {
        let mut m = mem();
        let p = m.malloc(32).expect("alloc");
        let sp = m.stack_top();
        for (size, val) in [(1, 0xAB), (2, 0xBEEF), (4, 0xDEAD_BEEF), (8, u64::MAX - 5)] {
            m.write(p, size, val, sp).expect("write");
            assert_eq!(m.read(p, size, sp).expect("read"), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = mem();
        let p = m.malloc(8).expect("alloc");
        let sp = m.stack_top();
        m.write(p, 4, 0x0403_0201, sp).expect("write");
        assert_eq!(m.read(p, 1, sp).expect("read"), 0x01);
        assert_eq!(m.read(p + 1, 1, sp).expect("read"), 0x02);
        assert_eq!(m.read(p + 3, 1, sp).expect("read"), 0x04);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = mem();
        let p = m.malloc(4096).expect("alloc");
        let sp = m.stack_top();
        assert_eq!(m.read(p + 100, 8, sp).expect("read"), 0);
    }

    #[test]
    fn access_in_gap_segfaults() {
        let mut m = mem();
        let sp = m.stack_top();
        // Address in the unmapped gulf between heap and stack.
        let wild = 0x4000_0000_0000;
        let err = m.read(wild, 4, sp).expect_err("must fault");
        assert_eq!(err, AccessError::Segfault { addr: wild });
    }

    #[test]
    fn null_deref_segfaults() {
        let mut m = mem();
        let sp = m.stack_top();
        assert!(matches!(
            m.read(0, 4, sp),
            Err(AccessError::Segfault { addr: 0 })
        ));
    }

    #[test]
    fn misaligned_access_faults_under_fourbyte_policy() {
        let mut m = mem();
        let p = m.malloc(64).expect("alloc");
        let sp = m.stack_top();
        let err = m.read(p + 2, 4, sp).expect_err("must fault");
        assert!(matches!(err, AccessError::Misaligned { .. }));
        // 1- and 2-byte accesses are exempt.
        assert!(m.read(p + 2, 2, sp).is_ok());
        assert!(m.read(p + 3, 1, sp).is_ok());
    }

    #[test]
    fn permissive_alignment_policy() {
        let mut m = SimMemory::new(MemConfig {
            alignment: AlignmentPolicy::None,
            ..MemConfig::default()
        });
        let p = m.malloc(64).expect("alloc");
        let sp = m.stack_top();
        assert!(m.read(p + 2, 4, sp).is_ok());
    }

    #[test]
    fn stack_expansion_within_guard_window() {
        let mut m = mem();
        let sp = m.stack_top() - 3 * PAGE_SIZE; // simulated deep-ish SP
        m.grow_stack_to(sp).expect("legit growth");
        // An address below the current stack VMA but within SP − 64KiB − 128B:
        let probe = sp - STACK_GUARD_WINDOW + 8;
        assert!(m.write(probe, 4, 1, sp).is_ok(), "case I must expand stack");
        // The map must now cover it.
        assert!(m.map().locate(probe).is_some());
    }

    #[test]
    fn stack_access_below_guard_window_faults() {
        let mut m = mem();
        let sp = m.stack_top() - PAGE_SIZE;
        let probe = sp - STACK_GUARD_WINDOW - 4096;
        let err = m.write(probe, 4, 1, sp).expect_err("case II");
        assert!(matches!(err, AccessError::Segfault { .. }));
    }

    #[test]
    fn stack_cannot_grow_past_limit() {
        let mut m = mem();
        let below_limit = m.stack_lowest() - PAGE_SIZE;
        assert!(matches!(
            m.grow_stack_to(below_limit),
            Err(AccessError::StackOverflow { .. })
        ));
        // Even a guard-window access cannot bypass the rlimit.
        let sp = m.stack_lowest() + 64; // SP nearly at the limit
        m.grow_stack_to(sp).expect("still legal");
        let probe = m.stack_lowest() - 8;
        assert!(matches!(
            m.read(probe, 4, sp),
            Err(AccessError::Segfault { .. })
        ));
    }

    #[test]
    fn free_and_invalid_free() {
        let mut m = mem();
        let p = m.malloc(10).expect("alloc");
        assert_eq!(m.live_allocations(), 1);
        m.free(p).expect("free");
        assert_eq!(m.live_allocations(), 0);
        assert!(matches!(m.free(p), Err(AccessError::InvalidFree { .. })));
        assert!(matches!(
            m.free(0x1234),
            Err(AccessError::InvalidFree { .. })
        ));
    }

    #[test]
    fn heap_exhaustion() {
        let mut m = mem();
        assert!(matches!(
            m.malloc(HEAP_SPAN + 1),
            Err(AccessError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn globals_are_placed_in_data_segment_in_order() {
        let mut m = mem();
        let a = m.place_global(100, 8);
        let b = m.place_global(50, 8);
        assert!(b >= a + 100);
        assert_eq!(a % 8, 0);
        let sp = m.stack_top();
        assert!(m.write(a, 4, 7, sp).is_ok());
        assert_eq!(m.map().locate(a).map(|v| v.kind), Some(SegmentKind::Data));
    }

    #[test]
    fn layout_slide_moves_heap_and_stack() {
        let m0 = SimMemory::new(MemConfig::default());
        let m1 = SimMemory::new(MemConfig {
            layout_slide: 0x10_0000,
            ..MemConfig::default()
        });
        assert_ne!(m0.stack_top(), m1.stack_top());
        let h0 = m0.map().find_kind(SegmentKind::Heap).map(|v| v.start);
        let h1 = m1.map().find_kind(SegmentKind::Heap).map(|v| v.start);
        assert_ne!(h0, h1);
    }

    #[test]
    fn heap_slack_extends_the_mapped_region() {
        let mut strict = SimMemory::new(MemConfig::default());
        let mut slack = SimMemory::new(MemConfig {
            heap_slack: 64 * 1024,
            ..MemConfig::default()
        });
        let p1 = strict.malloc(100).expect("alloc");
        let p2 = slack.malloc(100).expect("alloc");
        assert_eq!(p1, p2, "same base placement");
        let sp = strict.stack_top();
        let probe = p1 + 32 * 1024; // past the strict brk, inside the slack
        assert!(matches!(
            strict.read(probe, 4, sp),
            Err(AccessError::Segfault { .. })
        ));
        assert!(slack.read(probe, 4, sp).is_ok(), "slack keeps it mapped");
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let mut m = mem();
        let before = m.snapshot_map();
        let _ = m.malloc(100_000).expect("alloc");
        let after = m.snapshot_map();
        let h0 = before.find_kind(SegmentKind::Heap).map(|v| v.end);
        let h1 = after.find_kind(SegmentKind::Heap).map(|v| v.end);
        assert!(h1 > h0, "heap end must have advanced");
    }

    #[test]
    fn map_version_tracks_map_mutations() {
        let mut m = mem();
        let v0 = m.map_version();
        let sp = m.stack_top();
        let p = m.malloc(64).expect("alloc");
        let v1 = m.map_version();
        assert!(v1 > v0, "first malloc advances brk → new map");
        m.write(p, 4, 7, sp).expect("write");
        assert_eq!(m.map_version(), v1, "plain data writes keep the map");
        let _ = m.malloc(8).expect("alloc");
        assert_eq!(m.map_version(), v1, "allocation within brk keeps the map");
        m.place_global(16, 8);
        assert!(m.map_version() > v1, "global placement grows data segment");
    }

    #[test]
    fn cloned_space_shares_pages_until_written() {
        let mut m = mem();
        let p = m.malloc(64).expect("alloc");
        let sp = m.stack_top();
        m.write(p, 8, 0x1122_3344, sp).expect("write");
        let snap = m.clone();
        // Snapshot sees the value; writing to the original must not alter it.
        m.write(p, 8, 0xFFFF, sp).expect("write");
        let mut snap = snap;
        assert_eq!(snap.read(p, 8, sp).expect("read"), 0x1122_3344);
        assert_eq!(m.read(p, 8, sp).expect("read"), 0xFFFF);
    }

    #[test]
    fn state_eq_semantics() {
        let mut a = mem();
        let mut b = mem();
        assert!(a.state_eq(&b));
        let pa = a.malloc(64).expect("alloc");
        let pb = b.malloc(64).expect("alloc");
        assert_eq!(pa, pb);
        let sp = a.stack_top();
        a.write(pa, 4, 9, sp).expect("write");
        assert!(!a.state_eq(&b), "differing bytes");
        b.write(pb, 4, 9, sp).expect("write");
        assert!(a.state_eq(&b), "same bytes again");
        // A page written then zeroed equals an absent page.
        a.write(pa + 8, 4, 1, sp).expect("write");
        a.write(pa + 8, 4, 0, sp).expect("write");
        assert!(a.state_eq(&b), "zeroed page == absent page");
        // Allocation bookkeeping matters even when bytes agree.
        a.free(pa).expect("free");
        assert!(!a.state_eq(&b), "allocation tables differ");
    }

    #[test]
    fn stats_count_checks_cow_and_materialization() {
        let mut m = mem();
        let p = m.malloc(64).expect("alloc");
        let sp = m.stack_top();
        assert_eq!(m.stats(), MemStats::default());
        m.write(p, 4, 7, sp).expect("write");
        let s1 = m.stats();
        assert_eq!(s1.fault_checks, 1);
        assert_eq!(s1.pages_materialized, 1);
        assert_eq!(s1.cow_page_copies, 0);
        // Rewriting an exclusively owned page is not a CoW copy.
        m.write(p, 4, 8, sp).expect("write");
        assert_eq!(m.stats().cow_page_copies, 0);
        // Writing through a shared page is.
        let snap = m.clone();
        assert_eq!(snap.stats(), m.stats(), "clones inherit totals");
        m.write(p, 4, 9, sp).expect("write");
        assert_eq!(m.stats().cow_page_copies, 1);
        // Per-run delta against the checkpoint baseline.
        let d = m.stats().delta_since(snap.stats());
        assert_eq!(d.fault_checks, 1);
        assert_eq!(d.cow_page_copies, 1);
        assert_eq!(d.pages_materialized, 0);
        // Stats never affect semantic equality.
        assert!(m.state_eq(&m.clone()));
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = mem();
        let p = m.malloc(2 * PAGE_SIZE).expect("alloc");
        let sp = m.stack_top();
        // Find an 8-byte window straddling a page boundary, 4-aligned.
        let boundary = (p & !(PAGE_SIZE - 1)) + PAGE_SIZE;
        let addr = boundary - 4;
        m.write(addr, 8, 0x1122_3344_5566_7788, sp).expect("write");
        assert_eq!(m.read(addr, 8, sp).expect("read"), 0x1122_3344_5566_7788);
    }
}
