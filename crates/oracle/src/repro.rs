//! Replayable repro files for oracle disagreements.
//!
//! A repro is a single self-contained text file: a `#`-prefixed header
//! (workload label, entry, args, the fault model unless it is the default
//! `bitflip`, the `dyn:slot:bit` spec, observed outcome, the model's
//! claim, and the injected static instruction as an IR snippet), a `---`
//! separator, and the full module in textual IR. Feeding the file to
//! `epvf oracle --replay <file>` re-executes exactly that fault under that
//! model and compares the outcome against the recorded one.

use crate::diff::Disagreement;
use crate::ground_truth::outcome_label;
use epvf_core::{default_fault_model, parse_fault_model, FaultModel, DEFAULT_MODEL};
use epvf_interp::{InjectionSpec, Trace};
use epvf_ir::{parse_module, Module};
use epvf_llfi::{Campaign, CampaignConfig, CampaignError, InjOutcome};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The run a disagreement came from, borrowed while rendering repros.
#[derive(Debug, Clone, Copy)]
pub struct ReproContext<'a> {
    /// Human label (e.g. `lud:tiny` or a generator recipe string).
    pub label: &'a str,
    /// The program.
    pub module: &'a Module,
    /// Entry function.
    pub entry: &'a str,
    /// Entry arguments.
    pub args: &'a [u64],
    /// Canonical name of the fault model the sweep ran under
    /// ([`FaultModel::name`]).
    pub model: &'a str,
    /// Golden trace (for the instruction snippet).
    pub trace: &'a Trace,
}

/// A parsed repro file, ready to re-execute.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The program.
    pub module: Module,
    /// Entry function.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<u64>,
    /// The fault model the spec is injected under (`# model:`; the
    /// default single-bit flip when the line is absent).
    pub model: Arc<dyn FaultModel>,
    /// The fault.
    pub spec: InjectionSpec,
    /// Outcome label recorded when the disagreement was found.
    pub observed: String,
}

/// Render one disagreement as a repro file body.
pub fn render_repro(ctx: &ReproContext<'_>, d: &Disagreement) -> String {
    let mut head = String::new();
    head.push_str("# epvf-oracle repro v1\n");
    head.push_str(&format!("# label: {}\n", ctx.label));
    head.push_str(&format!("# entry: {}\n", ctx.entry));
    let args: Vec<String> = ctx.args.iter().map(u64::to_string).collect();
    head.push_str(&format!("# args: {}\n", args.join(" ")));
    // Absent for the default single-bit flip, so bit-flip repros keep
    // their bytes.
    if ctx.model != DEFAULT_MODEL {
        head.push_str(&format!("# model: {}\n", ctx.model));
    }
    head.push_str(&format!("# spec: {}\n", d.spec));
    head.push_str(&format!("# kind: {}\n", d.kind.label()));
    head.push_str(&format!("# observed: {}\n", outcome_label(d.outcome)));
    match d.constraint {
        Some(c) => head.push_str(&format!(
            "# predicted: crash outside [{:#x}, {:#x}] (golden {:#x}, width {})\n",
            c.range.lo, c.range.hi, c.value, c.width
        )),
        None => head.push_str("# predicted: no constraint on this read\n"),
    }
    if let Some(rec) = ctx.trace.get(d.spec.dyn_idx) {
        let inst = ctx.module.functions[rec.func.index()]
            .insts()
            .find(|i| i.sid == rec.sid);
        if let Some(inst) = inst {
            head.push_str(&format!(
                "# inst: {inst}   (operand slot {}, bit {})\n",
                d.spec.operand_slot, d.spec.bit
            ));
        }
    }
    head.push_str("---\n");
    head.push_str(&format!("{}", ctx.module));
    head
}

/// Write every disagreement to `dir` as `<prefix>-NNN-<kind>.repro`,
/// creating the directory; returns the written paths.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_repros(
    dir: &Path,
    prefix: &str,
    ctx: &ReproContext<'_>,
    disagreements: &[Disagreement],
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for (i, d) in disagreements.iter().enumerate() {
        let path = dir.join(format!("{prefix}-{i:03}-{}.repro", d.kind.label()));
        std::fs::write(&path, render_repro(ctx, d))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Parse a repro file produced by [`render_repro`].
///
/// # Errors
/// Returns a message for a malformed header (an unknown `# model:`
/// included), missing separator, or IR that fails to parse.
pub fn parse_repro(text: &str) -> Result<Repro, String> {
    let (head, body) = text
        .split_once("\n---\n")
        .ok_or("repro file has no `---` separator")?;
    let field = |key: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(&format!("# {key}: ")))
            .map(str::trim)
    };
    let spec: InjectionSpec = field("spec")
        .ok_or("repro header missing `# spec:`")?
        .parse()?;
    let entry = field("entry").unwrap_or("main").to_string();
    let args = field("args")
        .unwrap_or("")
        .split_whitespace()
        .map(|a| a.parse().map_err(|e| format!("bad arg `{a}`: {e}")))
        .collect::<Result<Vec<u64>, String>>()?;
    let model = match field("model") {
        Some(name) => parse_fault_model(name).map_err(|e| format!("repro `# model:`: {e}"))?,
        None => default_fault_model(),
    };
    let observed = field("observed").unwrap_or("?").to_string();
    let module = parse_module(body).map_err(|e| format!("repro IR: {e}"))?;
    Ok(Repro {
        module,
        entry,
        args,
        model,
        spec,
        observed,
    })
}

/// Why a repro could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The repro's program has no campaign to replay in (its golden run
    /// fails, or it has no injectable sites).
    Campaign(CampaignError),
    /// The spec names no injection point of the program under the
    /// repro's model: no site at `(dyn_idx, slot)`, or a `bit` at or past
    /// the site's width. The file did not come from this program.
    OutsideSpace {
        /// The rejected spec.
        spec: InjectionSpec,
        /// The width of the site at `(dyn_idx, slot)`, if there is one.
        width: Option<u32>,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Campaign(e) => write!(f, "{e}"),
            ReplayError::OutsideSpace { spec, width } => {
                write!(f, "spec {spec} lies outside the injection space: ")?;
                let site = format!("{}:{}", spec.dyn_idx, spec.operand_slot);
                match width {
                    Some(w) => write!(f, "site {site} has width {w}"),
                    None => write!(f, "the program has no injection site {site}"),
                }
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Re-execute a repro's fault under its model and classify it against a
/// fresh golden run.
///
/// # Errors
/// [`ReplayError::Campaign`] if the golden run fails, and
/// [`ReplayError::OutsideSpace`] if the spec is not one of the program's
/// injection points.
pub fn replay_repro(repro: &Repro) -> Result<InjOutcome, ReplayError> {
    let campaign = Campaign::with_model(
        &repro.module,
        &repro.entry,
        &repro.args,
        CampaignConfig::default(),
        Arc::clone(&repro.model),
    )
    .map_err(ReplayError::Campaign)?;
    let spec = repro.spec;
    match campaign.sites().width_of(spec.dyn_idx, spec.operand_slot) {
        Some(w) if u32::from(spec.bit) < w => {}
        width => return Err(ReplayError::OutsideSpace { spec, width }),
    }
    let result = campaign.run_specs(std::slice::from_ref(&spec));
    Ok(result.runs[0].1)
}
