//! # epvf-core — the ePVF methodology
//!
//! The primary contribution of *"ePVF: An Enhanced Program Vulnerability
//! Factor Methodology for Cross-layer Resilience Analysis"* (DSN 2016),
//! reproduced end to end:
//!
//! 1. **Base ACE analysis** (via [`epvf_ddg`]): DDG from the dynamic trace,
//!    reverse BFS from output nodes → ACE graph → PVF (Eq. 1).
//! 2. **Crash model** ([`check_boundary`], Algorithm 3): valid address
//!    ranges per access from the traced segment snapshots, with the Linux
//!    stack-expansion rule (`SP − 65536 − 128`, 8 MiB rlimit).
//! 3. **Propagation model** ([`propagate`], Algorithms 1–2 + Table III):
//!    invert instruction semantics backwards along each address's slice,
//!    yielding the `CRASHING_BIT_LIST` ([`CrashMap`]).
//! 4. **ePVF** ([`analyze`], Eq. 2): subtract crash bits from ACE bits.
//!
//! Plus the paper's §IV-E **sampling estimator** ([`sampled_epvf`],
//! [`repetitiveness_variance`]) and the §V **per-instruction scores**
//! ([`per_instruction_scores`], Eq. 3) that drive selective protection.
//!
//! ```
//! use epvf_core::{analyze, EpvfConfig};
//! use epvf_interp::{ExecConfig, Interpreter};
//! use epvf_ir::{ModuleBuilder, Type, Value};
//!
//! // A toy kernel: write an array cell through computed addressing.
//! let mut mb = ModuleBuilder::new("demo");
//! let mut f = mb.function("main", vec![], None);
//! let arr = f.malloc(Value::i64(64));
//! let slot = f.gep(arr, Value::i32(5), 4);
//! f.store(Type::I32, Value::i32(7), slot);
//! let v = f.load(Type::I32, slot);
//! f.output(Type::I32, v);
//! f.ret(None);
//! f.finish();
//! let module = mb.finish()?;
//!
//! let run = Interpreter::new(&module, ExecConfig::default()).golden_run("main", &[])?;
//! let result = analyze(&module, run.trace.as_ref().expect("traced"), EpvfConfig::default());
//! println!(
//!     "PVF = {:.3}, ePVF = {:.3} ({} crash bits removed)",
//!     result.metrics.pvf, result.metrics.epvf, result.metrics.crash_register_bits,
//! );
//! assert!(result.metrics.epvf < result.metrics.pvf);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod census;
mod classify;
mod compose;
mod crash_model;
mod epvf;
mod fault_model;
mod per_inst;
mod propagation;
mod range;
mod sampling;
mod section_cache;

pub use census::{bit_census, BitCensus, CensusRow};
pub use classify::{BitBand, OpClass, OpClassTable, OperandKind, SiteClass};
pub use compose::analyze_compositional;
pub use crash_model::{check_boundary, CrashModelConfig};
pub use epvf::{analyze, compute_metrics, trace_use_bits, EpvfConfig, EpvfMetrics, EpvfResult};
pub use fault_model::{
    default_fault_model, injectable_operand, parse_fault_model, BurstFlip, DestFlip, EccWord,
    FaultCtx, FaultModel, InstSkip, SingleBitFlip, StoreAddr, WrongBranch, DEFAULT_ECC_WINDOW,
    DEFAULT_MODEL,
};
pub use per_inst::{cdf, per_instruction_scores, InstScore};
pub use propagation::{
    operand_range, propagate, propagate_scoped, Constraint, CrashMap, CrashScope,
};
pub use range::ValueRange;
pub use sampling::{repetitiveness_variance, sampled_epvf, SamplingEstimate};
pub use section_cache::{CacheStats, SectionCache};

// Re-export the ACE layer so downstream users need only one import.
pub use epvf_ddg::{build_ddg, build_ddg_with, AceConfig, AceGraph, Ddg, DdgConfig};
