//! Property tests for the simulated memory: data integrity, fault-decision
//! consistency, and stack-rule monotonicity.

use epvf_memsim::{
    AccessError, AlignmentPolicy, MemConfig, SimMemory, PAGE_SIZE, STACK_GUARD_WINDOW,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One access of the byte-model property: write (or read) `size` bytes at
/// an offset into a two-page allocation. `near` places it within 8 bytes of
/// the page boundary, so a good share of accesses cross it.
type Access = (bool, bool, u64, u64, u64);

/// The offset `access` touches, clamped so it stays inside two pages.
fn offset_of(&(_, near, raw, size, _): &Access) -> u64 {
    let off = if near {
        PAGE_SIZE - 8 + raw % 16
    } else {
        raw % (2 * PAGE_SIZE)
    };
    off.min(2 * PAGE_SIZE - size)
}

proptest! {
    /// Any sequence of in-bounds writes reads back exactly (last write per
    /// byte wins), for every access size.
    #[test]
    fn write_read_roundtrip(
        ops in prop::collection::vec((0u64..4000, prop::sample::select(vec![1u64, 2, 4, 8]), any::<u64>()), 1..60)
    ) {
        let mut mem = SimMemory::new(MemConfig::default());
        let base = mem.malloc(4096 + 8).expect("allocates");
        let sp = mem.stack_top();
        let mut shadow = vec![0u8; 4096 + 16];
        for (off, size, val) in ops {
            let addr = base + (off & !(size - 1)); // keep alignment
            mem.write(addr, size, val, sp).expect("in-bounds write");
            for i in 0..size {
                shadow[(addr - base + i) as usize] = (val >> (8 * i)) as u8;
            }
        }
        for off in (0..4096u64).step_by(8) {
            let got = mem.read(base + off, 8, sp).expect("read");
            let want = u64::from_le_bytes(
                shadow[off as usize..off as usize + 8].try_into().expect("8 bytes"),
            );
            prop_assert_eq!(got, want, "offset {}", off);
        }
    }

    /// Reads and writes of every size at any offset of a two-page
    /// allocation, many crossing the page boundary, with a `clone()` taken
    /// partway through, agree with a byte-array model. Each page is
    /// materialized once, on its first write; each page the clone shares is
    /// copied once, on its first write after the clone; and the clone keeps
    /// the bytes it was taken with.
    #[test]
    fn unaligned_accesses_match_a_byte_model(
        ops in prop::collection::vec(
            (any::<bool>(), any::<bool>(), any::<u64>(), prop::sample::select(vec![1u64, 2, 4, 8]), any::<u64>()),
            1..80,
        ),
        clone_at in 0usize..80,
    ) {
        let mut mem = SimMemory::new(MemConfig {
            alignment: AlignmentPolicy::None,
            ..MemConfig::default()
        });
        let base = mem.malloc(2 * PAGE_SIZE).expect("allocates");
        prop_assert_eq!(base % PAGE_SIZE, 0, "the first allocation starts a page");
        let sp = mem.stack_top();
        let before = mem.stats();
        let mut model = vec![0u8; 2 * PAGE_SIZE as usize];
        let mut written = BTreeSet::new();
        // Pages resident when the clone was taken, and those since copied.
        let mut shared = BTreeSet::new();
        let mut copied = BTreeSet::new();
        let mut clone = None;
        for (i, op) in ops.iter().enumerate() {
            if i == clone_at {
                clone = Some((mem.clone(), model.clone()));
                shared = written.clone();
            }
            let &(is_write, _, _, size, value) = op;
            let off = offset_of(op);
            let span = off as usize..(off + size) as usize;
            if is_write {
                mem.write(base + off, size, value, sp).expect("in-bounds write");
                model[span].copy_from_slice(&value.to_le_bytes()[..size as usize]);
                for page in [off / PAGE_SIZE, (off + size - 1) / PAGE_SIZE] {
                    written.insert(page);
                    if shared.contains(&page) {
                        copied.insert(page);
                    }
                }
            } else {
                let mut want = [0u8; 8];
                want[..size as usize].copy_from_slice(&model[span]);
                prop_assert_eq!(
                    mem.read(base + off, size, sp).expect("in-bounds read"),
                    u64::from_le_bytes(want),
                    "{}-byte read at offset {}", size, off
                );
            }
        }
        let stats = mem.stats().delta_since(before);
        prop_assert_eq!(stats.fault_checks, ops.len() as u64, "every access validated once");
        prop_assert_eq!(stats.pages_materialized, written.len() as u64);
        prop_assert_eq!(stats.cow_page_copies, copied.len() as u64);
        if let Some((mut snap, at_clone)) = clone {
            prop_assert_eq!(mem.state_eq(&snap), model == at_clone);
            for off in (0..2 * PAGE_SIZE).step_by(8) {
                let want = u64::from_le_bytes(
                    at_clone[off as usize..off as usize + 8].try_into().expect("8 bytes"),
                );
                prop_assert_eq!(snap.read(base + off, 8, sp).expect("read"), want);
            }
        }
    }

    /// The fault decision agrees with VMA membership plus the stack rule:
    /// an address inside a mapped region never segfaults, and an address
    /// outside every region and outside the stack window always does.
    #[test]
    fn fault_decision_consistent(addr in any::<u64>()) {
        let mut mem = SimMemory::new(MemConfig::default());
        let _ = mem.malloc(64 * 1024).expect("allocates");
        let sp = mem.stack_top() - PAGE_SIZE;
        mem.grow_stack_to(sp).expect("grows");
        let aligned = addr & !7;
        let mapped = mem.map().locate(aligned).is_some();
        let in_window = aligned < sp
            && aligned >= sp.saturating_sub(STACK_GUARD_WINDOW)
            && aligned >= mem.stack_lowest();
        let result = mem.read(aligned, 8, sp);
        if mapped {
            prop_assert!(result.is_ok(), "mapped address {aligned:#x} must not fault");
        } else if !in_window {
            prop_assert!(
                matches!(result, Err(AccessError::Segfault { .. })),
                "unmapped {aligned:#x} outside the window must segfault, got {result:?}"
            );
        }
    }

    /// Misalignment faults trigger exactly when the policy says so.
    #[test]
    fn alignment_policy(off in 0u64..64, size in prop::sample::select(vec![1u64, 2, 4, 8])) {
        let mut mem = SimMemory::new(MemConfig::default());
        let base = mem.malloc(256).expect("allocates");
        let sp = mem.stack_top();
        let addr = base + off;
        let should_fault = size >= 4 && !addr.is_multiple_of(4);
        let got = mem.read(addr, size, sp);
        prop_assert_eq!(
            matches!(got, Err(AccessError::Misaligned { .. })),
            should_fault,
            "addr {:#x} size {}", addr, size
        );
    }

    /// Growing the stack is monotone: once an SP is reachable, any higher
    /// SP is too, and reads above SP in the stack succeed.
    #[test]
    fn stack_growth_monotone(depth in 1u64..1024) {
        let mut mem = SimMemory::new(MemConfig::default());
        let sp = mem.stack_top() - depth * 8;
        prop_assume!(sp >= mem.stack_lowest());
        mem.grow_stack_to(sp).expect("grow");
        // every address between sp and the top is now valid
        for probe in [sp, sp + (depth * 8) / 2, mem.stack_top() - 8] {
            let aligned = probe & !7;
            prop_assert!(mem.read(aligned, 8, sp).is_ok(), "probe {aligned:#x}");
        }
    }

    /// Layout slides move segments but preserve behaviour.
    #[test]
    fn layout_slide_preserves_semantics(slide in 0u64..0x100_0000) {
        let cfg = MemConfig { layout_slide: slide, ..MemConfig::default() };
        let mut mem = SimMemory::new(cfg);
        let p = mem.malloc(128).expect("allocates");
        let sp = mem.stack_top();
        mem.write(p, 8, 0xABCD, sp).expect("write");
        prop_assert_eq!(mem.read(p, 8, sp).expect("read"), 0xABCD);
        let wild = mem.read(0x7700_0000_0000, 8, sp);
        let segfaulted = matches!(wild, Err(AccessError::Segfault { .. }));
        prop_assert!(segfaulted, "wild read must segfault, got {:?}", wild);
    }
}
