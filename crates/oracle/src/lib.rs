//! # epvf-oracle — exhaustive ground truth for the ePVF models
//!
//! The paper validates its crash prediction *statistically* (sampled fault
//! injection, Figs. 6–7). This crate builds the stronger artifact those
//! samples estimate: the **exhaustive bit-flip oracle** — every
//! `(dynamic instruction, operand, bit)` injection site of a workload is
//! executed to a concrete outcome through the checkpoint-resume replay
//! engine, producing a [`GroundTruth`] table. A differential checker then
//! scores the crash model's predicted crash-bit sets and the ACE analysis's
//! masked/benign claims against that table, computing exact recall and
//! precision (Table V format) and dumping a replayable minimized repro for
//! every disagreement.
//!
//! The second half is a **property-based IR program generator**: seeded
//! recipes expand into small well-typed modules (arithmetic chains, wrapped
//! load/store addressing, branch diamonds, bounded loops, GEP address
//! computation) whose golden runs complete by construction, so the
//! differential check can sweep thousands of programs nobody hand-wrote,
//! with automatic shrinking to the smallest failing recipe.
//!
//! ```
//! use epvf_oracle::{check_module, GenConfig, Recipe};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let recipe = Recipe::random(&mut rng, &GenConfig::default());
//! let module = recipe.emit();
//! let oracle = check_module(&module, "main", &[], 4);
//! assert!(oracle.hard_violations.is_empty());
//! assert!(oracle.ground_truth.is_exhaustive());
//! ```

#![warn(missing_docs)]

mod calibrate;
mod diff;
mod generator;
mod ground_truth;
mod repro;

pub use calibrate::{calibrate, Calibration};
pub use diff::{
    check_module, check_module_model, check_module_with, differential_check, hard_invariant_scan,
    Confusion, DiffReport, Disagreement, DisagreementKind, HardViolation, OracleOutcome,
};
pub use generator::{GenConfig, GenOp, Recipe, BUF_LEN, N_BUFS};
pub use ground_truth::{outcome_label, sweep, GroundTruth};
pub use repro::{
    parse_repro, render_repro, replay_repro, write_repros, ReplayError, Repro, ReproContext,
};
