//! # epvf-interp — interpreter, dynamic tracing, and fault injection hooks
//!
//! Executes [`epvf_ir`] modules over the simulated address space of
//! [`epvf_memsim`], producing:
//!
//! * a terminal [`Outcome`] in the paper's taxonomy — crash (with the Table I
//!   exception class), hang, completed (benign or SDC vs a golden run), or
//!   detected (a §V duplication check fired);
//! * the program's `output` stream, used to tell SDCs from benign runs;
//! * optionally, a full dynamic [`Trace`] with runtime operand values and
//!   per-access memory-map snapshots — the input to the DDG/ACE analysis and
//!   to the crash model's `CHECK_BOUNDARY`.
//!
//! Faults are injected as a [`MachineFault`] passed to [`Interpreter::run`]
//! (from the entry function) or [`Interpreter::replay`] (from a checkpoint
//! [`Snapshot`]). The paper's single-bit fault is an [`InjectionSpec`]: at a
//! chosen dynamic instruction, one bit of one source-operand read is
//! flipped — the LLFI fault model the paper validates against (§II-B,
//! §IV-A).
//!
//! ```
//! use epvf_interp::{ExecConfig, InjectionSpec, Interpreter, Outcome};
//! use epvf_ir::{ModuleBuilder, Type, Value};
//!
//! // store 7 to a heap cell, load it back, output it.
//! let mut mb = ModuleBuilder::new("m");
//! let mut f = mb.function("main", vec![], None);
//! let p = f.malloc(Value::i64(8));
//! f.store(Type::I64, Value::i64(7), p);
//! let v = f.load(Type::I64, p);
//! f.output(Type::I64, v);
//! f.ret(None);
//! f.finish();
//! let module = mb.finish()?;
//!
//! let interp = Interpreter::new(&module, ExecConfig::default());
//! let golden = interp.golden_run("main", &[])?;
//! assert_eq!(golden.outputs, vec![7]);
//!
//! // Flip a high bit of the store address → segfault, exactly what the
//! // ePVF crash model is built to predict.
//! let store_dyn = 1; // malloc=0, store=1, …
//! let spec = InjectionSpec { dyn_idx: store_dyn, operand_slot: 1, bit: 46 };
//! let fi = interp.run("main", &[], Some(spec.into()))?;
//! assert!(matches!(fi.outcome, Outcome::Crashed { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod machine;
mod outcome;
mod trace;

/// The simulator's word-keyed hash map, for trace consumers that key by
/// byte address (the DDG builder's last-store index) without a dependency
/// on `epvf-memsim` of their own.
pub use epvf_memsim::WordMap;
pub use machine::{
    ExecConfig, ExecError, FaultEffect, InjectionSpec, Interpreter, MachineFault, ReplayOutcome,
    Snapshot,
};
pub use outcome::{CrashKind, Outcome, RunResult, TimeoutKind};
pub use trace::{
    section_runs, DynInst, DynInstRef, DynValueId, MemAccessRec, OperandRec, SectionRun, Trace,
    TraceIter,
};
