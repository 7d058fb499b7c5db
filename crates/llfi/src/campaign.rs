//! Fault-injection campaigns (paper §IV-A).
//!
//! One fault per run, ≥ thousands of runs per benchmark, outcomes classified
//! against the golden run into the paper's taxonomy (Fig. 5 / Table II).
//! Runs are embarrassingly parallel; specs are pre-drawn serially from the
//! seed so results are independent of thread count.

use crate::site::SiteTable;
use crate::stats::ci95;
use epvf_core::FaultModel;
use epvf_interp::{
    CrashKind, ExecConfig, ExecError, InjectionSpec, Interpreter, Outcome, ReplayOutcome,
    RunResult, Snapshot, TimeoutKind,
};
use epvf_ir::Module;
use epvf_telemetry::{Ctr, Progress, Tmr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Classified result of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjOutcome {
    /// Completed with golden-identical output.
    Benign,
    /// Completed with corrupted output — silent data corruption.
    Sdc,
    /// Hardware exception of the given class.
    Crash(CrashKind),
    /// Exceeded the dynamic-instruction budget.
    Hang,
    /// A §V duplication detector fired.
    Detected,
    /// Killed by a supervision watchdog (fuel or wall-clock deadline)
    /// before reaching any semantic outcome.
    TimedOut(TimeoutKind),
    /// The run panicked (in every attempt its retry budget allowed) and
    /// was isolated by the supervisor instead of killing the campaign.
    /// The panic payload is recorded in the matching
    /// [`QuarantineRecord`](crate::QuarantineRecord).
    Quarantined,
}

impl InjOutcome {
    /// Whether the run crashed (any exception class).
    pub fn is_crash(self) -> bool {
        matches!(self, InjOutcome::Crash(_))
    }

    /// Whether the run was cut short by the supervisor (watchdog kill or
    /// panic quarantine) rather than classified semantically.
    pub fn is_supervised_kill(self) -> bool {
        matches!(self, InjOutcome::TimedOut(_) | InjOutcome::Quarantined)
    }

    /// The outcome-class counter this classification lands in. The seven
    /// classes partition `llfi.campaign.runs_total` — the conservation law
    /// `epvf metrics-check` enforces.
    pub(crate) fn counter(self) -> Ctr {
        match self {
            InjOutcome::Benign => Ctr::CampaignRunsBenign,
            InjOutcome::Sdc => Ctr::CampaignRunsSdc,
            InjOutcome::Crash(_) => Ctr::CampaignRunsCrash,
            InjOutcome::Hang => Ctr::CampaignRunsHang,
            InjOutcome::Detected => Ctr::CampaignRunsDetected,
            InjOutcome::TimedOut(_) => Ctr::CampaignRunsTimedOut,
            InjOutcome::Quarantined => Ctr::CampaignRunsQuarantined,
        }
    }
}

/// Campaign options.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Interpreter/memory configuration for the injected runs.
    pub exec: ExecConfig,
    /// Worker threads (1 = fully serial).
    pub threads: usize,
    /// Checkpoint spacing in dynamic instructions for the replay engine:
    /// injected runs resume from the nearest checkpoint at or before their
    /// injection point instead of re-executing the prefix.
    /// [`Self::CKPT_AUTO`] (the default) picks ~64 evenly spaced
    /// checkpoints; [`Self::CKPT_OFF`] disables checkpointing and restores
    /// full from-scratch replays.
    pub ckpt_interval: u64,
    /// How many times a panicking run is re-executed before it is
    /// quarantined. Retries distinguish transient poison (an environmental
    /// hiccup that succeeds on re-run) from deterministic poison (a run
    /// that panics every time and must be isolated).
    pub retries: u32,
    /// Fuel budget (dynamic instructions) for *injected* runs; exhausting
    /// it yields [`InjOutcome::TimedOut`]`(`[`TimeoutKind::Fuel`]`)`.
    /// Unlike the hang threshold this is a supervision kill, not a
    /// semantic classification. The golden run is never fuel-limited.
    pub run_fuel: Option<u64>,
    /// Wall-clock deadline per injected run; exceeding it yields
    /// [`InjOutcome::TimedOut`]`(`[`TimeoutKind::Deadline`]`)`. Inherently
    /// non-deterministic — off by default, and outcomes produced under a
    /// deadline are excluded from the byte-identical-aggregates contract.
    pub run_deadline: Option<std::time::Duration>,
    /// Test hook: make every injected run panic once its dynamic
    /// instruction count reaches this value, exercising the panic
    /// isolation path end to end. Never set outside tests and the CI
    /// panic-injection smoke.
    pub poison_at: Option<u64>,
}

impl CampaignConfig {
    /// `ckpt_interval` value selecting an automatic spacing:
    /// `max(golden_dyn_insts / 64, 1024)`.
    pub const CKPT_AUTO: u64 = u64::MAX;
    /// `ckpt_interval` value disabling checkpoint-resume entirely.
    pub const CKPT_OFF: u64 = 0;
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            exec: ExecConfig::default(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            ckpt_interval: CampaignConfig::CKPT_AUTO,
            retries: 1,
            run_fuel: None,
            run_deadline: None,
            poison_at: None,
        }
    }
}

/// One quarantined run: the spec that panicked on every attempt, the
/// panic payload, and how many retries were burned proving the poison
/// deterministic. Collected in [`CampaignResult::quarantines`] and
/// renderable as a replayable `.repro` file via
/// [`Campaign::render_quarantine_repro`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Index of the run in the campaign's spec list (draw order).
    pub index: usize,
    /// The injection spec whose run panicked.
    pub spec: InjectionSpec,
    /// Panic payload (or internal-error message) from the final attempt.
    pub payload: String,
    /// Attempts beyond the first (i.e. retries actually consumed).
    pub retries: u32,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-run `(spec, outcome)` pairs, in draw order.
    pub runs: Vec<(InjectionSpec, InjOutcome)>,
    /// Quarantined runs (panic isolation), in draw order. Empty for
    /// healthy campaigns.
    pub quarantines: Vec<QuarantineRecord>,
}

impl CampaignResult {
    /// Total runs.
    pub fn n(&self) -> usize {
        self.runs.len()
    }

    /// Count of a specific outcome class.
    pub fn count(&self, pred: impl Fn(InjOutcome) -> bool) -> usize {
        self.runs.iter().filter(|(_, o)| pred(*o)).count()
    }

    /// Fraction of crashes (all classes).
    pub fn crash_rate(&self) -> f64 {
        self.count(InjOutcome::is_crash) as f64 / self.n().max(1) as f64
    }

    /// Fraction of SDCs.
    pub fn sdc_rate(&self) -> f64 {
        self.count(|o| o == InjOutcome::Sdc) as f64 / self.n().max(1) as f64
    }

    /// Fraction of benign runs.
    pub fn benign_rate(&self) -> f64 {
        self.count(|o| o == InjOutcome::Benign) as f64 / self.n().max(1) as f64
    }

    /// Fraction of hangs.
    pub fn hang_rate(&self) -> f64 {
        self.count(|o| o == InjOutcome::Hang) as f64 / self.n().max(1) as f64
    }

    /// Fraction of detected (duplication-protected) runs.
    pub fn detected_rate(&self) -> f64 {
        self.count(|o| o == InjOutcome::Detected) as f64 / self.n().max(1) as f64
    }

    /// Fraction of watchdog-killed runs (fuel or deadline).
    pub fn timed_out_rate(&self) -> f64 {
        self.count(|o| matches!(o, InjOutcome::TimedOut(_))) as f64 / self.n().max(1) as f64
    }

    /// Fraction of quarantined (panicking) runs.
    pub fn quarantined_rate(&self) -> f64 {
        self.count(|o| o == InjOutcome::Quarantined) as f64 / self.n().max(1) as f64
    }

    /// Fraction of runs the supervisor cut short instead of classifying —
    /// the campaign's degradation signal. `epvf inject` exits with the
    /// "degraded" code when this exceeds its `--max-unsound` threshold.
    pub fn unsound_rate(&self) -> f64 {
        self.count(InjOutcome::is_supervised_kill) as f64 / self.n().max(1) as f64
    }

    /// Crash-class counts in the paper's Table II column order
    /// `[SF, A, MMA, AE]`.
    pub fn crash_kind_counts(&self) -> [usize; 4] {
        let mut out = [0usize; 4];
        for (_, o) in &self.runs {
            if let InjOutcome::Crash(k) = o {
                out[match k {
                    CrashKind::Segfault => 0,
                    CrashKind::Abort => 1,
                    CrashKind::Misaligned => 2,
                    CrashKind::Arithmetic => 3,
                }] += 1;
            }
        }
        out
    }

    /// Relative crash-class frequencies (Table II rows); zeros if no crash.
    pub fn crash_kind_fractions(&self) -> [f64; 4] {
        let counts = self.crash_kind_counts();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        counts.map(|c| c as f64 / total as f64)
    }

    /// 95% confidence interval of the crash rate.
    pub fn crash_rate_ci95(&self) -> (f64, f64) {
        ci95(self.count(InjOutcome::is_crash), self.n())
    }

    /// 95% confidence interval of the SDC rate.
    pub fn sdc_rate_ci95(&self) -> (f64, f64) {
        ci95(self.count(|o| o == InjOutcome::Sdc), self.n())
    }
}

/// Why a campaign could not be prepared.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// Interpreter setup failed (unknown entry, arity mismatch).
    Setup(ExecError),
    /// The golden run did not complete — a campaign needs fault-free
    /// reference outputs.
    GoldenFailed(Outcome),
    /// The golden trace contains no injectable register reads.
    NoInjectableSites,
    /// An internal invariant failed while preparing the campaign (e.g. the
    /// checkpoint pass diverged from the traced golden run). Reported as a
    /// structured error rather than a panic so callers can surface it with
    /// a proper exit code.
    Internal(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Setup(e) => write!(f, "campaign setup: {e}"),
            CampaignError::GoldenFailed(o) => {
                write!(f, "golden run must complete, but it ended with {o}")
            }
            CampaignError::NoInjectableSites => {
                write!(f, "the trace contains no register reads to inject into")
            }
            CampaignError::Internal(msg) => write!(f, "campaign internal error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Setup(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for CampaignError {
    fn from(e: ExecError) -> Self {
        CampaignError::Setup(e)
    }
}

/// A prepared fault-injection campaign over one program + input.
///
/// # Examples
///
/// ```
/// use epvf_llfi::{Campaign, CampaignConfig};
/// use epvf_ir::{ModuleBuilder, Type, Value};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], None);
/// let p = f.malloc(Value::i64(32));
/// let slot = f.gep(p, Value::i32(2), 8);
/// f.store(Type::I64, Value::i64(9), slot);
/// let v = f.load(Type::I64, slot);
/// f.output(Type::I64, v);
/// f.ret(None);
/// f.finish();
/// let module = mb.finish()?;
///
/// let campaign = Campaign::new(&module, "main", &[], CampaignConfig::default())?;
/// let result = campaign.run(200, 42);
/// assert_eq!(result.n(), 200);
/// assert!(result.crash_rate() > 0.0, "address faults crash");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Campaign<'m> {
    module: &'m Module,
    entry: String,
    args: Vec<u64>,
    config: CampaignConfig,
    golden: RunResult,
    sites: SiteTable,
    /// The fault model whose injection points the campaign samples and
    /// whose lowering turns drawn specs into machine faults.
    model: Arc<dyn FaultModel>,
    /// Golden checkpoints in ascending `dyn_count` order (starting at 0),
    /// empty when checkpointing is off.
    ckpts: Vec<Snapshot>,
}

impl<'m> Campaign<'m> {
    /// Execute the golden run (traced) and enumerate injection sites.
    ///
    /// # Errors
    /// [`CampaignError::Setup`] on interpreter misuse,
    /// [`CampaignError::GoldenFailed`] if the fault-free run does not
    /// complete, and [`CampaignError::NoInjectableSites`] for traces with
    /// no register reads.
    pub fn new(
        module: &'m Module,
        entry: &str,
        args: &[u64],
        config: CampaignConfig,
    ) -> Result<Self, CampaignError> {
        Self::with_model(
            module,
            entry,
            args,
            config,
            epvf_core::default_fault_model(),
        )
    }

    /// [`Self::new`] with an explicit [`FaultModel`]: sites are enumerated
    /// by the model and every drawn spec is lowered through it before
    /// execution. `new` is exactly `with_model(..,` [`default_fault_model`](epvf_core::default_fault_model)`())`.
    pub fn with_model(
        module: &'m Module,
        entry: &str,
        args: &[u64],
        config: CampaignConfig,
        model: Arc<dyn FaultModel>,
    ) -> Result<Self, CampaignError> {
        let interp = Interpreter::new(module, config.exec);
        let golden = interp.golden_run(entry, args)?;
        if golden.outcome != Outcome::Completed {
            return Err(CampaignError::GoldenFailed(golden.outcome));
        }
        let Some(trace) = golden.trace.as_ref() else {
            return Err(CampaignError::Internal(
                "golden run completed but produced no trace".to_string(),
            ));
        };
        let sites = SiteTable::for_model(&*model, module, trace);
        if sites.is_empty() {
            return Err(CampaignError::NoInjectableSites);
        }
        // Collect replay checkpoints in a second, untraced golden pass
        // (execution is identical with tracing off; only the trace artifact
        // differs). The first checkpoint lands at dynamic index 0, so every
        // injection point has a preceding checkpoint to resume from.
        let ckpts = if config.ckpt_interval == CampaignConfig::CKPT_OFF {
            Vec::new()
        } else {
            let interval = if config.ckpt_interval == CampaignConfig::CKPT_AUTO {
                (golden.dyn_insts / 64).max(1024)
            } else {
                config.ckpt_interval
            };
            let mut exec = config.exec;
            exec.record_trace = false;
            let (rerun, ckpts) = Interpreter::new(module, exec)
                .run_with_checkpoints(entry, args, interval)
                .map_err(|e| {
                    CampaignError::Internal(format!(
                        "checkpoint pass failed after a successful golden run: {e}"
                    ))
                })?;
            if rerun.dyn_insts != golden.dyn_insts || rerun.outputs != golden.outputs {
                return Err(CampaignError::Internal(
                    "checkpoint pass diverged from the traced golden run".to_string(),
                ));
            }
            ckpts
        };
        Ok(Campaign {
            module,
            entry: entry.to_string(),
            args: args.to_vec(),
            config,
            golden,
            sites,
            model,
            ckpts,
        })
    }

    /// The active fault model.
    pub fn model(&self) -> &dyn FaultModel {
        &*self.model
    }

    /// The golden (fault-free) run, including its trace.
    pub fn golden(&self) -> &RunResult {
        &self.golden
    }

    /// The module under test.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Entry function the campaign injects into.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// Entry-function arguments.
    pub fn args(&self) -> &[u64] {
        &self.args
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The injectable-site table.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// Number of replay checkpoints collected (0 when checkpointing is off).
    pub fn n_checkpoints(&self) -> usize {
        self.ckpts.len()
    }

    /// Interpreter configuration for injected runs: trace off, hang budget
    /// ten times the golden run's length (plus slack for tiny programs).
    fn injected_exec(&self) -> ExecConfig {
        ExecConfig {
            record_trace: false,
            max_dyn_insts: self
                .golden
                .dyn_insts
                .saturating_mul(10)
                .saturating_add(10_000),
            // Supervision watchdogs apply to injected runs only; the
            // golden run executes un-fuel-limited (it must complete for
            // the campaign to exist at all).
            fuel: self.config.run_fuel,
            deadline: self.config.run_deadline,
            poison_at: self.config.poison_at,
            ..self.config.exec
        }
    }

    /// Execute one injected run and classify it.
    ///
    /// With checkpointing on, the run resumes from the nearest golden
    /// checkpoint at or before the injection point (skipping the prefix),
    /// and ends early as `Benign` if its state rejoins a later golden
    /// checkpoint — the deterministic suffix is then bit-identical to the
    /// golden run, so the outputs must match. Both paths classify every
    /// spec identically; checkpointing only changes how much is executed.
    pub fn run_spec(&self, spec: InjectionSpec) -> InjOutcome {
        let outcome = self
            .try_run_spec(spec)
            .unwrap_or_else(|e| panic!("injected run failed to start: {e}"));
        epvf_telemetry::add(Ctr::CampaignRunsTotal, 1);
        epvf_telemetry::add(outcome.counter(), 1);
        outcome
    }

    /// Uncounted, fallible core of [`Self::run_spec`]: executes and
    /// classifies one spec without touching the campaign outcome counters
    /// (the caller records exactly one `runs_total` + class pair), and
    /// reports interpreter setup failures — impossible after a successful
    /// golden run, short of an internal bug — as an error instead of
    /// panicking.
    pub(crate) fn try_run_spec(&self, spec: InjectionSpec) -> Result<InjOutcome, ExecError> {
        let interp = Interpreter::new(self.module, self.injected_exec());
        // Lower the abstract spec through the active model. The width lookup
        // can only miss for specs outside the enumerated universe (e.g. a
        // stale WAL); 64 keeps the lowering total rather than panicking.
        let width = self
            .sites
            .width_of(spec.dyn_idx, spec.operand_slot)
            .unwrap_or(64);
        let fault = self.model.lower(spec, width);
        let idx = self
            .ckpts
            .partition_point(|s| s.dyn_count() <= spec.dyn_idx);
        if idx == 0 {
            // Checkpointing off (or no usable checkpoint): from scratch.
            epvf_telemetry::add(Ctr::CampaignScratchRuns, 1);
            let res = interp.run(&self.entry, &self.args, Some(fault))?;
            Ok(self.classify(&res))
        } else {
            epvf_telemetry::add(Ctr::CampaignResumedRuns, 1);
            let base = &self.ckpts[idx - 1];
            match interp.replay(base, Some(fault), &self.ckpts[idx..]) {
                ReplayOutcome::Finished(res) => Ok(self.classify(&res)),
                ReplayOutcome::Rejoined { .. } => {
                    epvf_telemetry::add(Ctr::CampaignEarlyBenign, 1);
                    Ok(InjOutcome::Benign)
                }
            }
        }
    }

    /// Classify a finished run against the golden output. Outputs are
    /// compared in printed form (floats at six significant digits), as
    /// the paper's toolchain does: Rodinia prints results with limited
    /// precision and LLFI diffs the output files.
    pub fn classify(&self, res: &RunResult) -> InjOutcome {
        match res.outcome {
            Outcome::Crashed { kind, .. } => InjOutcome::Crash(kind),
            Outcome::Hang => InjOutcome::Hang,
            Outcome::Detected => InjOutcome::Detected,
            Outcome::TimedOut(kind) => InjOutcome::TimedOut(kind),
            Outcome::Completed if res.outputs_match_printed(&self.golden) => InjOutcome::Benign,
            Outcome::Completed => InjOutcome::Sdc,
        }
    }

    /// Draw the `n` specs that [`Self::run`] with the same `seed` would
    /// execute, without running them. `epvf inject --wal/--resume` uses
    /// this to fingerprint the campaign and diff a recovered WAL against
    /// the full spec list.
    pub fn draw_specs(&self, n: usize, seed: u64) -> Vec<InjectionSpec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sites.sample(&mut rng)).collect()
    }

    /// Run `n` injections with specs drawn from `seed`.
    pub fn run(&self, n: usize, seed: u64) -> CampaignResult {
        self.run_specs(&self.draw_specs(n, seed))
    }

    /// Run an explicit list of injection specs (used by the precision study
    /// and the §V protection evaluation).
    ///
    /// Specs are *dispatched* in ascending injection order — consecutive
    /// specs then resume from the same checkpoint epoch, maximizing reuse of
    /// shared memory pages — and handed to workers one at a time off a
    /// shared atomic cursor (work stealing), so a worker that draws cheap
    /// early-crashing runs takes more of them instead of idling. Results are
    /// scattered back into the input order, so a [`CampaignResult`] is
    /// byte-identical regardless of thread count.
    pub fn run_specs(&self, specs: &[InjectionSpec]) -> CampaignResult {
        self.run_specs_session(specs, &crate::RunSession::default())
    }

    /// [`Self::run_specs`] with persistence/resume state: outcomes already
    /// recovered from a WAL are prefilled instead of re-executed, and
    /// fresh completions are appended to the session's WAL sink (if any).
    /// Every run executes under panic isolation — a panicking run is
    /// retried per `config.retries` and then quarantined, never allowed to
    /// tear down the campaign.
    pub fn run_specs_session(
        &self,
        specs: &[InjectionSpec],
        session: &crate::RunSession<'_>,
    ) -> CampaignResult {
        let _span = epvf_telemetry::span(Tmr::CampaignRun);
        let threads = self.config.threads.max(1);
        let mut outcomes: Vec<Option<InjOutcome>> = vec![None; specs.len()];
        let mut quarantines: Vec<QuarantineRecord> = Vec::new();
        for (&i, &o) in &session.recovered {
            if let Some(slot) = outcomes.get_mut(i) {
                *slot = Some(o);
            }
        }
        // Dispatch only the unrecovered specs, in ascending injection
        // order (see the method docs on why).
        let mut order: Vec<usize> = (0..specs.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        order.sort_by_key(|&i| (specs[i].dyn_idx, i));
        let label = format!("inject {}", self.entry);
        let progress = if session.quiet {
            Progress::off(&label, order.len() as u64)
        } else {
            Progress::new(&label, order.len() as u64)
        };
        if threads == 1 || order.len() < 32 {
            for (done, &i) in order.iter().enumerate() {
                let (o, q) = self.run_spec_isolated(i, specs[i]);
                if let Some(sink) = session.wal {
                    sink.append(session.global_index(i), specs[i], o);
                }
                outcomes[i] = Some(o);
                quarantines.extend(q);
                progress.tick(done as u64 + 1);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let order = &order;
            let cursor = &cursor;
            let done = &done;
            let progress = &progress;
            let locals: Vec<Vec<(usize, InjOutcome, Option<QuarantineRecord>)>> =
                crossbeam::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            scope.spawn(move |_| {
                                epvf_telemetry::add(Ctr::CampaignWorkerBatches, 1);
                                let mut local = Vec::new();
                                loop {
                                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                                    let Some(&i) = order.get(k) else { break };
                                    let (o, q) = self.run_spec_isolated(i, specs[i]);
                                    if let Some(sink) = session.wal {
                                        sink.append(session.global_index(i), specs[i], o);
                                    }
                                    local.push((i, o, q));
                                    progress.tick(done.fetch_add(1, Ordering::Relaxed) as u64 + 1);
                                }
                                epvf_telemetry::add(Ctr::CampaignStealOps, local.len() as u64);
                                local
                            })
                        })
                        .collect();
                    // A worker whose join fails (it panicked outside the
                    // supervised region) loses its local results; the
                    // serial sweep below re-runs whatever it missed.
                    handles.into_iter().filter_map(|h| h.join().ok()).collect()
                })
                .unwrap_or_default();
            for (i, o, q) in locals.into_iter().flatten() {
                outcomes[i] = Some(o);
                quarantines.extend(q);
            }
            for &i in order.iter() {
                if outcomes[i].is_none() {
                    let (o, q) = self.run_spec_isolated(i, specs[i]);
                    if let Some(sink) = session.wal {
                        sink.append(session.global_index(i), specs[i], o);
                    }
                    outcomes[i] = Some(o);
                    quarantines.extend(q);
                }
            }
        }
        if let Some(sink) = session.wal {
            sink.flush();
        }
        progress.finish();
        quarantines.sort_by_key(|q| q.index);
        let runs = specs
            .iter()
            .zip(outcomes)
            .map(|(s, o)| {
                (
                    *s,
                    o.expect("every spec recovered, dispatched, or re-run above"),
                )
            })
            .collect();
        CampaignResult { runs, quarantines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_ir::{IcmpPred, ModuleBuilder, Type, Value};

    /// Memory-heavy kernel so that crashes dominate, as in the paper.
    fn kernel_module() -> Module {
        let mut mb = ModuleBuilder::new("k");
        let mut f = mb.function("main", vec![Type::I32], None);
        let n = f.param(0);
        let bytes = f.zext(Type::I32, Type::I64, n);
        let size = f.mul(Type::I64, bytes, Value::i64(4));
        let arr = f.malloc(size);
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, n);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(3));
        let slot = f.gep(arr, i, 4);
        f.store(Type::I32, v, slot);
        let lv = f.load(Type::I32, slot);
        f.output(Type::I32, lv);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        mb.finish().expect("verifies")
    }

    #[test]
    fn outcomes_cover_crash_sdc_benign() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[24], CampaignConfig::default()).expect("golden");
        let res = campaign.run(400, 11);
        assert_eq!(res.n(), 400);
        assert!(res.crash_rate() > 0.2, "crash rate {}", res.crash_rate());
        assert!(res.sdc_rate() > 0.0, "sdc rate {}", res.sdc_rate());
        assert!(res.benign_rate() > 0.0, "benign rate {}", res.benign_rate());
        let total = res.crash_rate()
            + res.sdc_rate()
            + res.benign_rate()
            + res.hang_rate()
            + res.detected_rate();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn segfaults_dominate_crash_classes() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[24], CampaignConfig::default()).expect("golden");
        let res = campaign.run(400, 5);
        let [sf, _a, _mma, _ae] = res.crash_kind_fractions();
        assert!(sf > 0.5, "SF fraction {sf} should dominate (paper: ≥96%)");
    }

    #[test]
    fn campaign_deterministic_per_seed_and_thread_count() {
        let m = kernel_module();
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let c1 = Campaign::new(&m, "main", &[16], cfg).expect("golden");
        let serial = c1.run(100, 9);
        let cfg4 = CampaignConfig {
            threads: 4,
            ..CampaignConfig::default()
        };
        let c4 = Campaign::new(&m, "main", &[16], cfg4).expect("golden");
        let parallel = c4.run(100, 9);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn checkpoint_resume_matches_full_replay() {
        let m = kernel_module();
        let full_cfg = CampaignConfig {
            threads: 1,
            ckpt_interval: CampaignConfig::CKPT_OFF,
            ..CampaignConfig::default()
        };
        let full = Campaign::new(&m, "main", &[24], full_cfg).expect("golden");
        assert_eq!(full.n_checkpoints(), 0);
        // A tight interval so many checkpoints exist even on this small run.
        let ckpt_cfg = CampaignConfig {
            threads: 1,
            ckpt_interval: 16,
            ..CampaignConfig::default()
        };
        let ckpt = Campaign::new(&m, "main", &[24], ckpt_cfg).expect("golden");
        assert!(ckpt.n_checkpoints() > 4);
        assert_eq!(full.run(300, 7), ckpt.run(300, 7));
    }

    #[test]
    fn checkpointed_campaign_deterministic_across_thread_counts() {
        let m = kernel_module();
        let mk = |threads| {
            let cfg = CampaignConfig {
                threads,
                ckpt_interval: 32,
                ..CampaignConfig::default()
            };
            Campaign::new(&m, "main", &[24], cfg)
                .expect("golden")
                .run(120, 13)
        };
        assert_eq!(mk(1), mk(4));
    }

    #[test]
    fn ci_is_sane() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[16], CampaignConfig::default()).expect("golden");
        let res = campaign.run(200, 3);
        let (lo, hi) = res.crash_rate_ci95();
        let p = res.crash_rate();
        assert!(lo <= p && p <= hi);
        assert!(hi - lo < 0.2, "CI reasonably tight at n=200");
    }
}
