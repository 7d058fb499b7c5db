//! Run outcomes — the failure taxonomy of the paper's §I and Table I.

use epvf_ir::Type;
use epvf_memsim::AccessError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of hardware exception that terminated a run (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrashKind {
    /// Segmentation fault (`SF`): access outside legal segment boundaries.
    Segfault,
    /// Misaligned memory access (`MMA`): not aligned at four bytes.
    Misaligned,
    /// Abort (`A`): the program or OS aborted execution (invalid free, heap
    /// exhaustion, stack rlimit).
    Abort,
    /// Arithmetic error (`AE`): division by zero / division overflow.
    Arithmetic,
}

impl CrashKind {
    /// Short column label as used in the paper's Table II.
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::Segfault => "SF",
            CrashKind::Abort => "A",
            CrashKind::Misaligned => "MMA",
            CrashKind::Arithmetic => "AE",
        }
    }

    /// All crash kinds in the paper's column order.
    pub fn all() -> [CrashKind; 4] {
        [
            CrashKind::Segfault,
            CrashKind::Abort,
            CrashKind::Misaligned,
            CrashKind::Arithmetic,
        ]
    }
}

impl From<AccessError> for CrashKind {
    fn from(e: AccessError) -> Self {
        match e {
            AccessError::Segfault { .. } => CrashKind::Segfault,
            AccessError::Misaligned { .. } => CrashKind::Misaligned,
            AccessError::InvalidFree { .. } | AccessError::OutOfMemory { .. } => CrashKind::Abort,
            // Linux delivers SIGSEGV on stack-limit overflow, but the
            // process is killed by the OS for resource exhaustion; the
            // paper's taxonomy groups OS-initiated termination under Abort.
            AccessError::StackOverflow { .. } => CrashKind::Abort,
        }
    }
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which watchdog killed a run classified as [`Outcome::TimedOut`].
///
/// Distinct from hang detection: [`Outcome::Hang`] is a *semantic*
/// classification (the run exceeded the budget derived from the golden
/// run's length, so the fault plausibly created an endless loop), while a
/// timeout is a *supervision* kill — the run blew through a hard resource
/// cap the campaign placed on it, and its outcome class is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimeoutKind {
    /// The per-run fuel (dynamic-instruction) budget ran out.
    Fuel,
}

impl TimeoutKind {
    /// Short label used in reports (`fuel`).
    pub fn label(self) -> &'static str {
        match self {
            TimeoutKind::Fuel => "fuel",
        }
    }
}

impl fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran to completion (output may or may not match the golden run —
    /// benign vs SDC is decided by the caller comparing outputs).
    Completed,
    /// Terminated by a hardware exception.
    Crashed {
        /// Exception class.
        kind: CrashKind,
        /// Dynamic instruction index at which the exception was raised.
        at_dyn: u64,
    },
    /// Exceeded the dynamic-instruction budget (hang detection).
    Hang,
    /// A duplication check (§V) fired and stopped the run.
    Detected,
    /// Killed by a supervision watchdog ([`ExecConfig`]'s fuel limit)
    /// before reaching any semantic outcome.
    ///
    /// [`ExecConfig`]: super::ExecConfig
    TimedOut(TimeoutKind),
}

impl Outcome {
    /// Whether the run crashed.
    pub fn is_crash(self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }

    /// The crash kind, if the run crashed.
    pub fn crash_kind(self) -> Option<CrashKind> {
        match self {
            Outcome::Crashed { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Completed => write!(f, "completed"),
            Outcome::Crashed { kind, at_dyn } => write!(f, "crash({kind}) at dyn #{at_dyn}"),
            Outcome::Hang => write!(f, "hang"),
            Outcome::Detected => write!(f, "detected"),
            Outcome::TimedOut(kind) => write!(f, "timed out ({kind})"),
        }
    }
}

/// Everything a run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Bit patterns emitted by `output` instructions, in order.
    pub outputs: Vec<u64>,
    /// Types of the emitted outputs (parallel to [`RunResult::outputs`]).
    pub output_tys: Vec<Type>,
    /// Number of dynamic instructions executed.
    pub dyn_insts: u64,
    /// The dynamic trace, when tracing was enabled.
    pub trace: Option<super::trace::Trace>,
}

impl RunResult {
    /// Whether this run is a silent data corruption relative to `golden`:
    /// both completed, but outputs differ (bit-exact comparison).
    pub fn is_sdc_vs(&self, golden: &RunResult) -> bool {
        self.outcome == Outcome::Completed
            && golden.outcome == Outcome::Completed
            && self.outputs != golden.outputs
    }

    /// Whether this run is benign relative to `golden`: completed with
    /// identical outputs (bit-exact comparison).
    pub fn is_benign_vs(&self, golden: &RunResult) -> bool {
        self.outcome == Outcome::Completed
            && golden.outcome == Outcome::Completed
            && self.outputs == golden.outputs
    }

    /// Compare outputs as the paper's toolchain effectively does: Rodinia
    /// prints results with `printf`-limited precision and LLFI diffs the
    /// files, so sub-printable float perturbations are masked. Floats are
    /// compared after formatting with six significant digits; integers
    /// exactly.
    pub fn outputs_match_printed(&self, golden: &RunResult) -> bool {
        if self.outputs.len() != golden.outputs.len() {
            return false;
        }
        self.outputs
            .iter()
            .zip(&self.output_tys)
            .zip(golden.outputs.iter().zip(&golden.output_tys))
            .all(|((a, ta), (b, tb))| ta == tb && printed_eq(*a, *b, *ta))
    }
}

/// One printed-output cell comparison. Equal bits print the same, so only
/// differing floats are formatted.
fn printed_eq(a: u64, b: u64, ty: Type) -> bool {
    if a == b {
        return true;
    }
    match ty {
        Type::F64 => format!("{:.6e}", f64::from_bits(a)) == format!("{:.6e}", f64::from_bits(b)),
        Type::F32 => {
            format!("{:.6e}", f32::from_bits(a as u32))
                == format!("{:.6e}", f32::from_bits(b as u32))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_kind_mapping() {
        assert_eq!(
            CrashKind::from(AccessError::Segfault { addr: 1 }),
            CrashKind::Segfault
        );
        assert_eq!(
            CrashKind::from(AccessError::Misaligned { addr: 1 }),
            CrashKind::Misaligned
        );
        assert_eq!(
            CrashKind::from(AccessError::InvalidFree { addr: 1 }),
            CrashKind::Abort
        );
        assert_eq!(
            CrashKind::from(AccessError::OutOfMemory { requested: 1 }),
            CrashKind::Abort
        );
    }

    #[test]
    fn outcome_predicates() {
        let c = Outcome::Crashed {
            kind: CrashKind::Segfault,
            at_dyn: 7,
        };
        assert!(c.is_crash());
        assert_eq!(c.crash_kind(), Some(CrashKind::Segfault));
        assert!(!Outcome::Completed.is_crash());
        assert_eq!(Outcome::Hang.crash_kind(), None);
        let t = Outcome::TimedOut(TimeoutKind::Fuel);
        assert!(!t.is_crash());
        assert_eq!(t.crash_kind(), None);
        assert_eq!(t.to_string(), "timed out (fuel)");
    }

    #[test]
    fn sdc_and_benign_classification() {
        let golden = RunResult {
            outcome: Outcome::Completed,
            outputs: vec![1, 2, 3],
            output_tys: vec![Type::I64; 3],
            dyn_insts: 10,
            trace: None,
        };
        let same = RunResult {
            outputs: vec![1, 2, 3],
            ..golden.clone()
        };
        let diff = RunResult {
            outputs: vec![1, 2, 4],
            ..golden.clone()
        };
        let crash = RunResult {
            outcome: Outcome::Crashed {
                kind: CrashKind::Segfault,
                at_dyn: 3,
            },
            ..golden.clone()
        };
        assert!(same.is_benign_vs(&golden));
        assert!(!same.is_sdc_vs(&golden));
        assert!(diff.is_sdc_vs(&golden));
        assert!(!crash.is_sdc_vs(&golden));
        assert!(!crash.is_benign_vs(&golden));
    }

    #[test]
    fn printed_comparison_masks_tiny_float_noise() {
        let golden = RunResult {
            outcome: Outcome::Completed,
            outputs: vec![1.0f64.to_bits()],
            output_tys: vec![Type::F64],
            dyn_insts: 1,
            trace: None,
        };
        // Flip the lowest mantissa bit: bit-exactly different, printed-equal.
        let wiggled = RunResult {
            outputs: vec![1.0f64.to_bits() ^ 1],
            ..golden.clone()
        };
        assert!(wiggled.is_sdc_vs(&golden), "bit-exact comparison sees it");
        assert!(
            wiggled.outputs_match_printed(&golden),
            "printed comparison masks it"
        );
        // A large perturbation is visible either way.
        let corrupted = RunResult {
            outputs: vec![2.0f64.to_bits()],
            ..golden.clone()
        };
        assert!(!corrupted.outputs_match_printed(&golden));
        // Integers always compare exactly.
        let int_golden = RunResult {
            outputs: vec![7],
            output_tys: vec![Type::I32],
            ..golden.clone()
        };
        let int_off = RunResult {
            outputs: vec![8],
            ..int_golden.clone()
        };
        assert!(!int_off.outputs_match_printed(&int_golden));
        // Equal bits compare equal; the two zeros differ in one bit and
        // print differently; NaNs print alike whatever their payload.
        let f64_out = |v: f64| RunResult {
            outputs: vec![v.to_bits()],
            ..golden.clone()
        };
        assert!(f64_out(1.0).outputs_match_printed(&golden));
        assert!(!f64_out(-0.0).outputs_match_printed(&f64_out(0.0)));
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(f64_out(other_nan).outputs_match_printed(&f64_out(f64::NAN)));
        let f32_nan = |bits: u32| RunResult {
            outputs: vec![u64::from(bits)],
            output_tys: vec![Type::F32],
            ..golden.clone()
        };
        let nan32 = f32::NAN.to_bits();
        assert!(f32_nan(nan32 ^ 1).outputs_match_printed(&f32_nan(nan32)));
    }

    #[test]
    fn labels_match_paper_columns() {
        let labels: Vec<_> = CrashKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["SF", "A", "MMA", "AE"]);
    }
}
