//! The differential checker: model claims vs exhaustive ground truth.
//!
//! Three claims are scored:
//!
//! 1. **Crash prediction** (crash model + propagation, Algs. 1–3): every
//!    flip the model marks as a crash bit should crash, every crash should
//!    be marked — measured as exact recall/precision over the full
//!    `(site, bit)` universe (the quantities the paper's Figs. 6–7
//!    estimate by sampling).
//! 2. **Masked/benign claims** (ACE analysis): an SDC observed when
//!    flipping an operand read of a *pure* instruction whose result lies
//!    outside the ACE graph contradicts the "un-ACE ⇒ cannot reach output"
//!    reading. These exist in reality (wild stores aliasing live data —
//!    the paper's §VI-B "other masking"), so they are reported and dumped,
//!    not asserted away.
//! 3. **Hard invariants** that must hold bit-for-bit regardless of model
//!    approximations — see [`hard_invariant_scan`].

use crate::ground_truth::{sweep, GroundTruth};
use epvf_core::{analyze, Constraint, EpvfConfig, EpvfResult, FaultModel};
use epvf_interp::{FaultEffect, InjectionSpec};
use epvf_ir::{Module, Op};
use epvf_llfi::{Campaign, CampaignConfig, InjOutcome};
use epvf_memsim::AlignmentPolicy;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Exact confusion matrix of crash prediction over the executed flips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Predicted crash, did crash.
    pub tp: u64,
    /// Predicted crash, did not crash.
    pub fp: u64,
    /// Not predicted, did crash.
    pub fn_: u64,
    /// Not predicted, did not crash.
    pub tn: u64,
}

impl Confusion {
    /// `TP / (TP + FN)`; 1.0 when nothing crashed.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// `TP / (TP + FP)`; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Total classified flips.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Pointwise sum, for pooling across programs.
    pub fn merge(&mut self, other: Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }
}

/// How a single flip contradicted a model claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisagreementKind {
    /// The flip crashed but the model claimed it safe (false negative).
    MissedCrash,
    /// The model claimed a crash but the flip completed (false positive —
    /// control-flow masking or a flip landing in another mapped segment).
    PhantomCrash,
    /// An SDC from a flip whose consumer is a pure instruction outside the
    /// ACE graph — the "masked" claim failed (§VI-B other-masking).
    MaskedSdc,
}

impl DisagreementKind {
    /// Stable kebab-case label used in repro files.
    pub fn label(self) -> &'static str {
        match self {
            DisagreementKind::MissedCrash => "missed-crash",
            DisagreementKind::PhantomCrash => "phantom-crash",
            DisagreementKind::MaskedSdc => "masked-sdc",
        }
    }
}

/// One model-vs-ground-truth contradiction, with enough context to explain
/// and replay it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disagreement {
    /// The flip.
    pub spec: InjectionSpec,
    /// Which claim failed.
    pub kind: DisagreementKind,
    /// What actually happened.
    pub outcome: InjOutcome,
    /// The propagated constraint on that operand read, if the model had
    /// one (the inverted Table III range behind a crash prediction).
    pub constraint: Option<Constraint>,
}

/// Result of scoring one workload's models against its ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiffReport {
    /// Crash-prediction confusion matrix.
    pub confusion: Confusion,
    /// SDCs at masked (non-ACE pure) operand reads.
    pub masked_sdc: u64,
    /// Retained disagreements, most-interesting-first (capped).
    pub disagreements: Vec<Disagreement>,
    /// Total disagreements before capping.
    pub total_disagreements: u64,
}

/// A violated hard invariant: something no model approximation excuses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardViolation {
    /// The flip that exposed it, where one exists.
    pub spec: Option<InjectionSpec>,
    /// What went wrong.
    pub detail: String,
}

/// Everything the oracle derives from one module.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The executed sweep.
    pub ground_truth: GroundTruth,
    /// Model-vs-truth scoring.
    pub report: DiffReport,
    /// Violated hard invariants (must be empty for a correct stack).
    pub hard_violations: Vec<HardViolation>,
}

/// Score the crash model and the ACE masked claims against ground truth.
///
/// At most `max_repros` disagreements are retained with context
/// (missed crashes first — they are the rarer, more alarming class);
/// `total_disagreements` always counts all of them.
pub fn differential_check(
    campaign: &Campaign<'_>,
    res: &EpvfResult,
    gt: &GroundTruth,
    max_repros: usize,
) -> DiffReport {
    let trace = campaign.golden().trace.as_ref().expect("golden is traced");
    let pure = pure_op_index(campaign.module());
    let mut confusion = Confusion::default();
    let mut masked_sdc = 0u64;
    let mut disagreements: Vec<Disagreement> = Vec::new();
    let mut total = 0u64;
    for &(spec, outcome) in &gt.runs {
        let effect = lowered_effect(campaign, spec);
        let predicted = predicts_crash_effect(res, spec, effect);
        let crashed = outcome.is_crash();
        match (predicted, crashed) {
            (true, true) => confusion.tp += 1,
            (true, false) => confusion.fp += 1,
            (false, true) => confusion.fn_ += 1,
            (false, false) => confusion.tn += 1,
        }
        // The "masked ⇒ cannot corrupt output" claim is only about faults
        // in register reads; control and memory-cell faults propagate
        // through channels the ACE graph never claimed to model.
        let is_reg_fault = matches!(effect, FaultEffect::OperandXor { .. });
        let kind = if crashed && !predicted {
            Some(DisagreementKind::MissedCrash)
        } else if predicted && !crashed {
            Some(DisagreementKind::PhantomCrash)
        } else if outcome == InjOutcome::Sdc
            && is_reg_fault
            && is_masked_read(res, trace, &pure, spec)
        {
            masked_sdc += 1;
            Some(DisagreementKind::MaskedSdc)
        } else {
            None
        };
        if let Some(kind) = kind {
            total += 1;
            disagreements.push(Disagreement {
                spec,
                kind,
                outcome,
                constraint: res
                    .crash_map
                    .use_constraint(spec.dyn_idx, spec.operand_slot)
                    .copied(),
            });
        }
    }
    disagreements.sort_by_key(|d| match d.kind {
        DisagreementKind::MissedCrash => 0u8,
        DisagreementKind::MaskedSdc => 1,
        DisagreementKind::PhantomCrash => 2,
    });
    disagreements.truncate(max_repros);
    {
        use epvf_telemetry::{add, Ctr};
        add(Ctr::OracleTruePositives, confusion.tp);
        add(Ctr::OracleFalsePositives, confusion.fp);
        add(Ctr::OracleFalseNegatives, confusion.fn_);
        add(Ctr::OracleTrueNegatives, confusion.tn);
    }
    DiffReport {
        confusion,
        masked_sdc,
        disagreements,
        total_disagreements: total,
    }
}

/// Lower `spec` through the campaign's fault model to its machine effect.
fn lowered_effect(campaign: &Campaign<'_>, spec: InjectionSpec) -> FaultEffect {
    let width = campaign
        .sites()
        .width_of(spec.dyn_idx, spec.operand_slot)
        .unwrap_or(64);
    campaign.model().lower(spec, width).effect
}

/// The crash model's prediction for one lowered fault effect. Register
/// XORs score their mask against the operand-read constraint; address
/// XORs score against the address operand's constraint (addressing is
/// direct — the effect applies to the just-read effective address);
/// result, control, and memory-cell faults carry no crash-model claim, so
/// they predict `false` and can only cost recall, never precision.
fn predicts_crash_effect(res: &EpvfResult, spec: InjectionSpec, effect: FaultEffect) -> bool {
    match effect {
        FaultEffect::OperandXor { slot, mask } => {
            res.crash_map.predicts_crash_mask(spec.dyn_idx, slot, mask)
        }
        FaultEffect::AddrXor { mask } => {
            res.crash_map
                .predicts_crash_mask(spec.dyn_idx, spec.operand_slot, mask)
        }
        FaultEffect::ResultXor { .. }
        | FaultEffect::SkipInst
        | FaultEffect::FlipBranch
        | FaultEffect::EccFlip { .. } => false,
    }
}

/// Whether `spec` flips an operand read of a pure (side-effect-free)
/// instruction whose result node the ACE analysis excluded — i.e. a read
/// the analysis claims masked.
fn is_masked_read(
    res: &EpvfResult,
    trace: &epvf_interp::Trace,
    pure: &HashMap<usize, bool>,
    spec: InjectionSpec,
) -> bool {
    let Some(rec) = trace.get(spec.dyn_idx) else {
        return false;
    };
    if rec.mem.is_some() || !pure.get(&rec.sid.index()).copied().unwrap_or(false) {
        return false;
    }
    match res.ddg.def_of_record(rec.idx) {
        Some(node) => !res.ace.contains(node),
        None => false,
    }
}

/// `sid → is this instruction pure?` (no memory, control, call or output
/// side channel — the only ops whose un-ACE results provably cannot reach
/// the program output through modelled edges).
fn pure_op_index(module: &Module) -> HashMap<usize, bool> {
    let mut idx = HashMap::new();
    for f in &module.functions {
        for inst in f.insts() {
            let pure = matches!(
                inst.op,
                Op::Bin { .. }
                    | Op::FBin { .. }
                    | Op::FUn { .. }
                    | Op::Icmp { .. }
                    | Op::Fcmp { .. }
                    | Op::Cast { .. }
                    | Op::Select { .. }
                    | Op::Phi { .. }
                    | Op::Gep { .. }
            );
            idx.insert(inst.sid.index(), pure);
        }
    }
    idx
}

/// Bit-for-bit invariants that hold regardless of model approximations:
///
/// - **Exhaustiveness**: an unlimited sweep executed exactly one run per
///   `(site, bit)` pair.
/// - **Unmapped direct address ⇒ crash**: flipping the address operand of
///   a load/store to an address the recorded memory map provably faults
///   (no VMA, unreachable by stack expansion, or misaligned) must crash —
///   this checks the *interpreter + memory system*, independent of the
///   crash model.
/// - **Constraint sanity**: every propagated constraint contains the
///   golden-run value it was derived from (the Table III safety valve).
pub fn hard_invariant_scan(
    campaign: &Campaign<'_>,
    res: &EpvfResult,
    gt: &GroundTruth,
) -> Vec<HardViolation> {
    let trace = campaign.golden().trace.as_ref().expect("golden is traced");
    let mut violations = Vec::new();
    if gt.runs.len() as u64 > gt.universe {
        violations.push(HardViolation {
            spec: None,
            detail: format!(
                "sweep executed {} runs for a universe of {} (site,bit) pairs",
                gt.runs.len(),
                gt.universe
            ),
        });
    }
    for &(spec, outcome) in &gt.runs {
        let Some(rec) = trace.get(spec.dyn_idx) else {
            violations.push(HardViolation {
                spec: Some(spec),
                detail: "spec points outside the golden trace".into(),
            });
            continue;
        };
        let Some(mem) = rec.mem.as_ref() else {
            continue;
        };
        let addr_slot = usize::from(mem.is_store);
        // The invariant only constrains faults that corrupt the effective
        // address: a register XOR of the (directly used) address operand,
        // or an address-line XOR applied after the read.
        let flipped = match lowered_effect(campaign, spec) {
            FaultEffect::OperandXor { slot, mask } if slot == addr_slot => {
                let Some(op) = rec.operands.get(slot) else {
                    continue;
                };
                if op.bits != mem.addr {
                    continue; // address was adjusted after the read; not direct
                }
                op.bits ^ mask
            }
            FaultEffect::AddrXor { mask } => mem.addr ^ mask,
            _ => continue,
        };
        if mem
            .map
            .definitely_faults(flipped, mem.size, mem.sp, AlignmentPolicy::FourByte)
            && !outcome.is_crash()
        {
            violations.push(HardViolation {
                spec: Some(spec),
                detail: format!(
                    "address flip to {flipped:#x} provably faults ({} bytes, sp {:#x}) \
                     but the run ended {:?}",
                    mem.size, mem.sp, outcome
                ),
            });
        }
    }
    for ((dyn_idx, slot), c) in res.crash_map.uses() {
        if !c.range.contains(c.value) {
            violations.push(HardViolation {
                spec: Some(InjectionSpec {
                    dyn_idx,
                    operand_slot: slot,
                    bit: 0,
                }),
                detail: format!(
                    "constraint range [{:#x}, {:#x}] does not contain its golden value {:#x}",
                    c.range.lo, c.range.hi, c.value
                ),
            });
        }
    }
    epvf_telemetry::add(
        epvf_telemetry::Ctr::OracleHardViolations,
        violations.len() as u64,
    );
    violations
}

/// Run the whole oracle on one module: golden run, ePVF analysis with the
/// paper's default configuration, exhaustive sweep, differential check,
/// hard-invariant scan.
///
/// # Panics
/// Panics if the module's golden run does not complete — for generated
/// programs that is a generator bug, for workloads a construction bug.
pub fn check_module(
    module: &Module,
    entry: &str,
    args: &[u64],
    max_repros: usize,
) -> OracleOutcome {
    check_module_with(module, entry, args, max_repros, EpvfConfig::default())
}

/// [`check_module`] with an explicit analysis configuration.
///
/// The generator-driven property tests score with
/// [`epvf_core::CrashScope::AllAccesses`]: random programs are dense in
/// stores that never feed an output, so the paper's ACE-only scoping would
/// measure its (known, documented) coverage gap instead of the models under
/// test.
///
/// # Panics
/// Panics if the module's golden run does not complete.
pub fn check_module_with(
    module: &Module,
    entry: &str,
    args: &[u64],
    max_repros: usize,
    config: EpvfConfig,
) -> OracleOutcome {
    check_module_model(
        module,
        entry,
        args,
        max_repros,
        config,
        epvf_core::default_fault_model(),
    )
}

/// [`check_module_with`] under an explicit [`FaultModel`]: the sweep
/// enumerates the model's injection-point universe, every point is lowered
/// through the model before execution, and the differential check scores
/// the crash map against the lowered effects (register and address XORs
/// carry predictions; control and memory-cell faults predict `false`).
///
/// # Panics
/// Panics if the module's golden run does not complete.
pub fn check_module_model(
    module: &Module,
    entry: &str,
    args: &[u64],
    max_repros: usize,
    config: EpvfConfig,
    model: Arc<dyn FaultModel>,
) -> OracleOutcome {
    let campaign = Campaign::with_model(module, entry, args, CampaignConfig::default(), model)
        .expect("golden run completes");
    let trace = campaign.golden().trace.as_ref().expect("golden is traced");
    let res = analyze(module, trace, config);
    let gt = sweep(&campaign, 0);
    let report = differential_check(&campaign, &res, &gt, max_repros);
    let hard_violations = hard_invariant_scan(&campaign, &res, &gt);
    OracleOutcome {
        ground_truth: gt,
        report,
        hard_violations,
    }
}
