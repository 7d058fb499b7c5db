//! The [`Workload`] type: a benchmark program plus its input, ready to run
//! under the interpreter or a fault-injection campaign.

use epvf_interp::{ExecConfig, Interpreter, Outcome, RunResult};
use epvf_ir::Module;

/// Input scale of a workload build.
///
/// The paper traces up to 9.5M dynamic instructions per benchmark on a
/// cluster; this reproduction scales inputs so full campaigns fit on a
/// laptop while keeping every code path exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Unit-test scale (a few thousand dynamic instructions).
    Tiny,
    /// Quick-experiment scale (roughly ten thousand).
    #[default]
    Small,
    /// Full harness scale (tens of thousands).
    Standard,
}

impl Scale {
    /// Pick one of three scale-dependent values.
    pub fn pick<T>(self, tiny: T, small: T, standard: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Standard => standard,
        }
    }
}

/// A built benchmark: module + entry arguments + provenance metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name as used in the paper's tables (e.g. `pathfinder`).
    pub name: &'static str,
    /// Application domain (paper Table IV).
    pub domain: &'static str,
    /// Lines of C code of the original benchmark (paper Table IV) — kept
    /// for the Table IV harness.
    pub paper_loc: usize,
    /// The program.
    pub module: Module,
    /// Entry arguments.
    pub args: Vec<u64>,
}

impl Workload {
    /// Entry function name (all workloads use `main`).
    pub const ENTRY: &'static str = "main";

    /// Execute fault-free with a full trace (the golden run).
    ///
    /// # Panics
    /// Panics if the workload fails to complete — a workload construction
    /// bug, not a simulated fault.
    pub fn golden(&self) -> RunResult {
        let r = Interpreter::new(&self.module, ExecConfig::default())
            .golden_run(Self::ENTRY, &self.args)
            .expect("workload entry is valid");
        assert_eq!(
            r.outcome,
            Outcome::Completed,
            "{}: golden run must complete",
            self.name
        );
        r
    }

    /// Execute fault-free without tracing.
    ///
    /// # Panics
    /// Panics if the entry signature is invalid (construction bug).
    pub fn run(&self) -> RunResult {
        Interpreter::new(&self.module, ExecConfig::default())
            .run(Self::ENTRY, &self.args, None)
            .expect("workload entry is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Standard.pick(1, 2, 3), 3);
        assert_eq!(Scale::default(), Scale::Small);
    }
}
