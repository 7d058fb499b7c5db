//! # epvf-memsim — simulated process memory with Linux crash semantics
//!
//! The ePVF paper's crash model is platform-specific: it predicts which
//! memory accesses the OS will turn into a SIGSEGV. Its authors ran on
//! x86/Linux and mirrored the kernel's fault-handling logic (their Fig. 4).
//! This crate provides that platform as a deterministic simulation:
//!
//! * a sparse, paged 64-bit address space ([`SimMemory`]);
//! * text / data / heap / stack segments tracked as VMAs ([`MemoryMap`]),
//!   snapshot-able at every access like the paper's `/proc` probe;
//! * the exact Linux decision procedure: in-VMA accesses succeed, accesses in
//!   the stack gap within `SP − 65536 − 128` expand the stack (up to the
//!   8 MiB limit), everything else segfaults;
//! * the paper's other crash classes: 4-byte alignment faults (`MMA`) and
//!   abort-style errors (invalid `free`, heap/stack exhaustion).
//!
//! Determinism is the point: the fault-injection ground truth and the crash
//! model see byte-identical layouts, letting the accuracy experiments of the
//! paper (§IV-B) be reproduced with controlled noise instead of incidental
//! environment noise ([`MemConfig::layout_slide`]).
//!
//! ```
//! use epvf_memsim::{AccessError, MemConfig, SimMemory};
//!
//! let mut mem = SimMemory::new(MemConfig::default());
//! let buf = mem.malloc(1024)?;
//! let sp = mem.stack_top();
//! mem.write(buf + 16, 8, 42, sp)?;
//! assert_eq!(mem.read(buf + 16, 8, sp)?, 42);
//!
//! // A wild pointer in the unmapped gulf faults, as on Linux:
//! assert!(matches!(
//!     mem.read(0x5000_0000_0000, 4, sp),
//!     Err(AccessError::Segfault { .. })
//! ));
//! # Ok::<(), epvf_memsim::AccessError>(())
//! ```

#![warn(missing_docs)]

mod ecc;
mod fault;
mod hash;
mod memory;
mod vma;

pub use ecc::{EccError, EccEvent};
pub use fault::AccessError;
pub use hash::{WordHasher, WordMap};
pub use memory::{
    AlignmentPolicy, MemConfig, MemStats, SimMemory, DATA_BASE, DEFAULT_STACK_LIMIT, HEAP_BASE,
    HEAP_SPAN, PAGE_SIZE, STACK_GUARD_WINDOW, STACK_TOP, TEXT_BASE, TEXT_SIZE,
};
pub use vma::{MemoryMap, SegmentKind, Vma};
