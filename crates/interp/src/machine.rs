//! The IR interpreter.
//!
//! Executes a verified [`Module`] over [`SimMemory`], producing a
//! [`RunResult`] and (optionally) a full dynamic [`Trace`]. Every entry
//! point takes an optional [`MachineFault`]; the paper's LLFI fault (§IV-A:
//! "inject faults into the source registers for the executed instructions
//! ... all faults are activated") is the lowering of an [`InjectionSpec`].

use crate::outcome::{CrashKind, Outcome, RunResult, TimeoutKind};
use crate::trace::{DynInst, DynValueId, MemAccessRec, OperandRec, Trace};
use epvf_ir::{
    BinOp, CastOp, FBinOp, FUnOp, FcmpPred, FuncId, IcmpPred, Inst, Module, Op, Type, Value,
    ValueId,
};
use epvf_memsim::{MemConfig, MemStats, MemoryMap, SimMemory};
use epvf_telemetry::{Ctr, Tmr};
use std::fmt;
use std::sync::Arc;

/// Bytes charged per call frame (saved registers / linkage), so the
/// simulated stack pointer descends realistically.
const FRAME_OVERHEAD: u64 = 128;

/// Execution limits and tracing switches.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Memory-system configuration (alignment policy, layout slide, …).
    pub mem: MemConfig,
    /// Dynamic-instruction budget; exceeding it classifies the run as a
    /// [`Outcome::Hang`].
    pub max_dyn_insts: u64,
    /// Record a full dynamic trace (golden runs only — it is large).
    pub record_trace: bool,
    /// Supervision fuel: a hard dynamic-instruction cap above which the
    /// run is killed as [`Outcome::TimedOut`]`(`[`TimeoutKind::Fuel`]`)`.
    /// Unlike [`ExecConfig::max_dyn_insts`] (hang *classification*), fuel
    /// exhaustion means the supervisor gave up on the run — the limit
    /// checked first wins. `None` disables the watchdog.
    pub fuel: Option<u64>,
    /// Supervision wall-clock deadline, measured from the start of the
    /// run and checked every [`DEADLINE_CHECK_STRIDE`] dynamic
    /// instructions; exceeding it kills the run as
    /// [`Outcome::TimedOut`]`(`[`TimeoutKind::Deadline`]`)`. `None` (the
    /// default) keeps execution fully deterministic.
    pub deadline: Option<std::time::Duration>,
    /// Test hook for the campaign supervisor's panic isolation: panic
    /// when `dyn_count` reaches this value, simulating an interpreter
    /// defect at a reproducible dynamic position. Never set outside
    /// supervision tests and the CI panic-injection smoke.
    pub poison_at: Option<u64>,
}

/// How many dynamic instructions execute between wall-clock deadline
/// checks (syscall-free fast path in between).
pub const DEADLINE_CHECK_STRIDE: u64 = 4096;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            mem: MemConfig::default(),
            max_dyn_insts: 50_000_000,
            record_trace: false,
            fuel: None,
            deadline: None,
            poison_at: None,
        }
    }
}

/// A single-bit fault to inject: at dynamic instruction `dyn_idx`, flip
/// `bit` of the operand in `operand_slot` (slot order = [`Op::operands`])
/// as it is read from the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InjectionSpec {
    /// Dynamic index of the target instruction (0-based trace position).
    pub dyn_idx: u64,
    /// Which source operand to corrupt.
    pub operand_slot: usize,
    /// Which bit to flip (0 = LSB; must be below the operand width).
    pub bit: u8,
}

impl fmt::Display for InjectionSpec {
    /// Canonical `dyn_idx:slot:bit` form — the spec notation used in oracle
    /// repro files and accepted back by the `FromStr` impl.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.dyn_idx, self.operand_slot, self.bit)
    }
}

impl std::str::FromStr for InjectionSpec {
    type Err = String;

    /// Parse the `dyn_idx:slot:bit` form produced by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("spec `{s}`: missing {what}"))
        };
        let dyn_idx = next("dyn_idx")?
            .parse()
            .map_err(|e| format!("spec `{s}`: bad dyn_idx: {e}"))?;
        let operand_slot = next("operand slot")?
            .parse()
            .map_err(|e| format!("spec `{s}`: bad operand slot: {e}"))?;
        let bit = next("bit")?
            .parse()
            .map_err(|e| format!("spec `{s}`: bad bit: {e}"))?;
        if parts.next().is_some() {
            return Err(format!("spec `{s}`: trailing fields"));
        }
        Ok(InjectionSpec {
            dyn_idx,
            operand_slot,
            bit,
        })
    }
}

/// The machine-level effect of one lowered fault. `FaultModel`s (in
/// `epvf-core`) enumerate abstract `(dyn, slot, bit)` specs and lower each
/// to one of these; the interpreter applies the effect at `dyn_idx` and
/// knows nothing about models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// XOR `mask` into the operand read in `slot` — the paper's transient
    /// source-register fault (generalized to multi-bit masks).
    OperandXor {
        /// Source-operand slot (order = `Op::operands`).
        slot: usize,
        /// XOR pattern applied to the read.
        mask: u64,
    },
    /// XOR `mask` into the instruction's result as it is written — LLFI's
    /// destination-register model. Persists for every later use.
    ResultXor {
        /// XOR pattern applied to the defined value.
        mask: u64,
    },
    /// Retire the target instruction as a no-op: no result is written (the
    /// destination register keeps its stale value), no side effect runs. A
    /// control-flow instruction cannot be skipped; the interpreter executes
    /// it normally (the fault does not fire).
    SkipInst,
    /// Invert the taken/not-taken decision of a conditional branch (or a
    /// conditional detector). On any other opcode the fault does not fire.
    FlipBranch,
    /// XOR `mask` into the *address* operand of a load or store after it is
    /// read, before the access — store-address corruption. On non-memory
    /// opcodes the fault does not fire.
    AddrXor {
        /// XOR pattern applied to the effective address.
        mask: u64,
    },
    /// Flip `mask` in the word written by the target store *after* it lands
    /// in memory — an at-rest ECC strike. SEC-DED semantics decide the
    /// outcome at consumption; an error unconsumed for `window` dynamic
    /// instructions is scrubbed and classified masked (delayed reporting).
    EccFlip {
        /// XOR pattern of the strike (1 bit = correctable, ≥2 = detected).
        mask: u64,
        /// Scrub-window length in dynamic instructions.
        window: u64,
    },
}

/// A fully lowered fault: one [`FaultEffect`] fired at one dynamic
/// instruction. This is all the interpreter's entry points accept; fault
/// models (in `epvf-core`) lower their abstract specs to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineFault {
    /// Dynamic index of the target instruction (0-based trace position).
    pub dyn_idx: u64,
    /// What happens there.
    pub effect: FaultEffect,
}

impl From<InjectionSpec> for MachineFault {
    /// The paper's fault: flip `spec.bit` of one source-operand read. This
    /// is the single definition of the single-bit lowering; the default
    /// fault model delegates to it.
    fn from(s: InjectionSpec) -> Self {
        MachineFault {
            dyn_idx: s.dyn_idx,
            effect: FaultEffect::OperandXor {
                slot: s.operand_slot,
                mask: 1u64 << (s.bit & 63),
            },
        }
    }
}

/// Setup errors — misuse of the interpreter API, not simulated faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The requested entry function does not exist.
    NoSuchFunction(String),
    /// Wrong number of entry arguments.
    BadArity {
        /// Arguments expected by the entry function.
        expected: u32,
        /// Arguments supplied.
        given: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoSuchFunction(n) => write!(f, "no function named @{n}"),
            ExecError::BadArity { expected, given } => {
                write!(f, "entry expects {expected} arguments, {given} given")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The interpreter. Stateless across runs: each run from the entry
/// function executes on a fresh simulated address space, which is what
/// makes golden and injected runs byte-identical up to the injection
/// point.
///
/// # Examples
///
/// ```
/// use epvf_interp::{ExecConfig, Interpreter, Outcome};
/// use epvf_ir::{ModuleBuilder, Type, Value};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], None);
/// let s = f.add(Type::I32, Value::i32(40), Value::i32(2));
/// f.output(Type::I32, s);
/// f.ret(None);
/// f.finish();
/// let module = mb.finish()?;
///
/// let interp = Interpreter::new(&module, ExecConfig::default());
/// let result = interp.run("main", &[], None)?;
/// assert_eq!(result.outcome, Outcome::Completed);
/// assert_eq!(result.outputs, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    config: ExecConfig,
}

impl<'m> Interpreter<'m> {
    /// Wrap a verified module.
    pub fn new(module: &'m Module, config: ExecConfig) -> Self {
        Interpreter { module, config }
    }

    /// The module being interpreted.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Run `entry(args…)` from the start on a fresh address space, with
    /// `fault` injected if one is given — the one way in. Faulted runs are
    /// timed under [`Tmr::InterpInjectedRun`].
    ///
    /// # Errors
    /// [`ExecError`] on unknown entry or arity mismatch.
    pub fn run(
        &self,
        entry: &str,
        args: &[u64],
        fault: Option<MachineFault>,
    ) -> Result<RunResult, ExecError> {
        let _span = fault.map(|_| epvf_telemetry::span(Tmr::InterpInjectedRun));
        Exec::new(self.module, self.config, fault).run(entry, args)
    }

    /// Run fault-free with a full dynamic trace regardless of
    /// [`ExecConfig::record_trace`] — the golden run of the ePVF pipeline.
    ///
    /// # Errors
    /// [`ExecError`] on unknown entry or arity mismatch.
    pub fn golden_run(&self, entry: &str, args: &[u64]) -> Result<RunResult, ExecError> {
        let _span = epvf_telemetry::span(Tmr::InterpGoldenRun);
        let mut cfg = self.config;
        cfg.record_trace = true;
        Exec::new(self.module, cfg, None).run(entry, args)
    }

    /// Run fault-free, emitting a [`Snapshot`] roughly every `interval`
    /// dynamic instructions (the first at dynamic index 0, so any later
    /// position has a preceding snapshot). Snapshots are taken at
    /// instruction boundaries; cloning memory is O(resident pages) thanks to
    /// copy-on-write page storage.
    ///
    /// # Errors
    /// [`ExecError`] on unknown entry or arity mismatch.
    pub fn run_with_checkpoints(
        &self,
        entry: &str,
        args: &[u64],
        interval: u64,
    ) -> Result<(RunResult, Vec<Snapshot>), ExecError> {
        let mut exec = Exec::new(self.module, self.config, None);
        exec.ckpt = Some(CkptCollector {
            interval: interval.max(1),
            next_at: 0,
            snaps: Vec::new(),
        });
        let result = exec.run(entry, args)?;
        let snaps = exec.ckpt.take().map(|c| c.snaps).unwrap_or_default();
        Ok((result, snaps))
    }

    /// Resume from `snapshot`, with `fault` injected if one is given, and
    /// replay only the suffix — the one way back. The resumed portion never
    /// records a trace; otherwise the result is identical to [`Self::run`]
    /// with the same fault. The caller must pick a snapshot taken at or
    /// before the injection point (`snapshot.dyn_count() <=
    /// fault.dyn_idx`), or the fault can never fire.
    ///
    /// `rendezvous` holds golden checkpoints to watch (pass `&[]` for
    /// none). Those strictly after the injection point (after `snapshot`
    /// for a fault-free replay) are armed: if the replayed state becomes
    /// identical to one of them, the deterministic suffix is bit-identical
    /// to the golden run and the replay ends early with
    /// [`ReplayOutcome::Rejoined`] — the fault was masked. Faults with
    /// lingering state (a pending ECC error) cannot rejoin early because
    /// [`Snapshot`] comparison includes memory.
    pub fn replay(
        &self,
        snapshot: &Snapshot,
        fault: Option<MachineFault>,
        rendezvous: &[Snapshot],
    ) -> ReplayOutcome {
        let _span = fault.map(|_| epvf_telemetry::span(Tmr::InterpInjectedRun));
        let mut exec = Exec::resume(self.module, self.config, snapshot, fault);
        if !rendezvous.is_empty() {
            exec.rendezvous = Some(Rendezvous {
                snaps: rendezvous,
                next: 0,
                armed_after: fault.map_or(snapshot.dyn_count, |f| f.dyn_idx),
            });
        }
        match exec.exec_loop() {
            End::Outcome(outcome) => ReplayOutcome::Finished(exec.take_result(outcome)),
            End::Rejoined { at } => {
                exec.flush_telemetry();
                ReplayOutcome::Rejoined { at_dyn: at }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Frame {
    func: FuncId,
    block: usize,
    ip: usize,
    regs: Vec<u64>,
    dynid: Vec<DynValueId>,
    sp: u64,
    /// Caller register that receives our return value.
    ret_to: Option<ValueId>,
}

/// An owned, resumable capture of the full interpreter state at an
/// instruction boundary: call stack, simulated memory (copy-on-write pages,
/// so cloning is cheap), dynamic-instruction counters, outputs emitted so
/// far, and global placement.
///
/// Snapshots are produced by [`Interpreter::run_with_checkpoints`] and
/// consumed by [`Interpreter::replay`]. They are `Send + Sync`
/// (pages are `Arc`'d), so a campaign can resume many injected runs from the
/// same snapshot across worker threads.
#[derive(Debug, Clone)]
pub struct Snapshot {
    frames: Vec<Frame>,
    mem: SimMemory,
    outputs: Vec<u64>,
    output_tys: Vec<Type>,
    dyn_count: u64,
    next_dyn: u64,
    global_addrs: Vec<u64>,
}

impl Snapshot {
    /// Dynamic-instruction position this snapshot was taken at. Resuming
    /// from it replays every instruction with `dyn_idx >= dyn_count()`.
    pub fn dyn_count(&self) -> u64 {
        self.dyn_count
    }
}

/// How a resumed replay ended (see [`Interpreter::replay`]).
#[derive(Debug, Clone)]
pub enum ReplayOutcome {
    /// The run executed to a terminal outcome.
    Finished(RunResult),
    /// The run's state became identical to a golden checkpoint at dynamic
    /// instruction `at_dyn` *after* the injection fired. Execution is
    /// deterministic, so the remaining suffix is bit-identical to the golden
    /// run: the fault was fully masked (outcome `Benign`).
    Rejoined {
        /// The dynamic instruction index of the matching golden checkpoint.
        at_dyn: u64,
    },
}

/// Periodic snapshot collection state (golden checkpointing pass).
struct CkptCollector {
    interval: u64,
    next_at: u64,
    snaps: Vec<Snapshot>,
}

/// Golden checkpoints ahead of a resumed injected run, used to detect
/// rejoin-with-golden and end the replay early.
struct Rendezvous<'r> {
    snaps: &'r [Snapshot],
    next: usize,
    /// Rendezvous is only armed strictly after this dynamic index (the
    /// injection point) — before it, matching golden state is expected and
    /// means nothing.
    armed_after: u64,
}

struct Exec<'m, 'r> {
    module: &'m Module,
    config: ExecConfig,
    mem: SimMemory,
    frames: Vec<Frame>,
    outputs: Vec<u64>,
    output_tys: Vec<Type>,
    trace: Trace,
    dyn_count: u64,
    next_dyn: u64,
    injection: Option<MachineFault>,
    /// Pending at-rest ECC error planted by a fired `EccFlip`, resolved by
    /// consumption, overwrite, or scrub-window expiry.
    ecc: Option<epvf_memsim::EccError>,
    global_addrs: Vec<u64>,
    /// Cache of the last map snapshot, keyed by `SimMemory::map_version`, so
    /// traced loads/stores under an unchanged map share one `Arc` instead of
    /// deep-cloning the VMA list per access.
    map_cache: Option<(u64, Arc<MemoryMap>)>,
    ckpt: Option<CkptCollector>,
    rendezvous: Option<Rendezvous<'r>>,
    /// Telemetry accumulated locally (plain integers on the hot path) and
    /// flushed to the global registry once, when the run ends. `dyn_base`
    /// and `mem_stats_base` baseline resumed runs so only the replayed
    /// suffix is charged.
    loads: u64,
    stores: u64,
    dyn_base: u64,
    mem_stats_base: MemStats,
    flushed: bool,
    /// When the run started, set only under a wall-clock deadline so
    /// deadline-free runs never touch the clock.
    deadline_start: Option<std::time::Instant>,
    /// The event horizon: no per-position check (ECC scrub, checkpoint,
    /// rendezvous, hang budget, watchdogs) can fire before this dynamic
    /// index, so the hot path compares `dyn_count >= next_event` and
    /// nothing else. Starts at 0, so the first loop top runs every check;
    /// [`Self::schedule_events`] recomputes it after each slow path, and
    /// code that arms an event mid-run lowers it.
    next_event: u64,
    /// Staging for one phi batch's `(register, value)` results, reused
    /// across batches.
    phi_stage: Vec<(ValueId, u64)>,
}

/// How `exec_loop` ended.
enum End {
    Outcome(Outcome),
    Rejoined { at: u64 },
}

enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// Jump within the current function.
    Jump(usize),
    /// Pop the current frame with an optional return value.
    Return(Option<(u64, Option<DynValueId>)>),
    /// A frame was pushed; start executing it.
    Enter,
    /// Terminate the whole run.
    Stop(Outcome),
}

impl<'m, 'r> Exec<'m, 'r> {
    fn new(module: &'m Module, config: ExecConfig, injection: Option<MachineFault>) -> Self {
        Exec {
            module,
            config,
            mem: SimMemory::new(config.mem),
            frames: Vec::new(),
            outputs: Vec::new(),
            output_tys: Vec::new(),
            trace: Trace::default(),
            dyn_count: 0,
            next_dyn: 0,
            injection,
            ecc: None,
            global_addrs: Vec::new(),
            map_cache: None,
            ckpt: None,
            rendezvous: None,
            loads: 0,
            stores: 0,
            dyn_base: 0,
            mem_stats_base: MemStats::default(),
            flushed: false,
            deadline_start: config.deadline.map(|_| std::time::Instant::now()),
            next_event: 0,
            phi_stage: Vec::new(),
        }
    }

    /// Rebuild an execution mid-flight from a snapshot. The clone is cheap:
    /// memory pages are `Arc`-shared with the snapshot until written.
    /// Resumed runs never record a trace — a suffix trace would be
    /// misleading.
    fn resume(
        module: &'m Module,
        mut config: ExecConfig,
        snap: &Snapshot,
        injection: Option<MachineFault>,
    ) -> Self {
        config.record_trace = false;
        Exec {
            module,
            config,
            mem: snap.mem.clone(),
            frames: snap.frames.clone(),
            outputs: snap.outputs.clone(),
            output_tys: snap.output_tys.clone(),
            trace: Trace::default(),
            dyn_count: snap.dyn_count,
            next_dyn: snap.next_dyn,
            injection,
            ecc: None,
            global_addrs: snap.global_addrs.clone(),
            map_cache: None,
            ckpt: None,
            rendezvous: None,
            loads: 0,
            stores: 0,
            dyn_base: snap.dyn_count,
            mem_stats_base: snap.mem.stats(),
            flushed: false,
            deadline_start: config.deadline.map(|_| std::time::Instant::now()),
            next_event: 0,
            phi_stage: Vec::new(),
        }
    }

    /// Capture the full execution state at the current instruction boundary.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            frames: self.frames.clone(),
            mem: self.mem.clone(),
            outputs: self.outputs.clone(),
            output_tys: self.output_tys.clone(),
            dyn_count: self.dyn_count,
            next_dyn: self.next_dyn,
            global_addrs: self.global_addrs.clone(),
        }
    }

    /// Whether the live state is identical to `snap` (same position, stack,
    /// memory, outputs). If so, the deterministic remainder of this run is
    /// bit-identical to the run the snapshot came from.
    fn state_matches(&self, snap: &Snapshot) -> bool {
        self.dyn_count == snap.dyn_count
            && self.next_dyn == snap.next_dyn
            && self.outputs == snap.outputs
            && self.output_tys == snap.output_tys
            && self.global_addrs == snap.global_addrs
            && self.frames == snap.frames
            && self.mem.state_eq(&snap.mem)
    }

    fn fresh_dyn(&mut self) -> DynValueId {
        let id = DynValueId(self.next_dyn);
        self.next_dyn += 1;
        id
    }

    fn run(&mut self, entry: &str, args: &[u64]) -> Result<RunResult, ExecError> {
        let func = self
            .module
            .func_by_name(entry)
            .ok_or_else(|| ExecError::NoSuchFunction(entry.to_string()))?;
        if args.len() != func.n_params as usize {
            return Err(ExecError::BadArity {
                expected: func.n_params,
                given: args.len(),
            });
        }

        // Materialize globals in the data segment.
        let mut global_addrs = Vec::with_capacity(self.module.globals.len());
        for g in &self.module.globals {
            let base = self.mem.place_global(g.size, g.align);
            self.mem.write_bytes_raw(base, &g.init);
            global_addrs.push(base);
        }
        self.global_addrs = global_addrs;

        // Entry frame.
        let sp = self.mem.stack_top() - FRAME_OVERHEAD;
        let mut regs = vec![0u64; func.n_values() as usize];
        let mut dynid = vec![DynValueId(u64::MAX); func.n_values() as usize];
        for (i, a) in args.iter().enumerate() {
            let ty = func.value_types[i];
            regs[i] = ty.truncate_payload(*a);
            dynid[i] = self.fresh_dyn();
        }
        self.frames.push(Frame {
            func: func.id,
            block: 0,
            ip: 0,
            regs,
            dynid,
            sp,
            ret_to: None,
        });

        let outcome = match self.exec_loop() {
            End::Outcome(o) => o,
            End::Rejoined { .. } => unreachable!("rendezvous is never set on fresh runs"),
        };
        Ok(self.take_result(outcome))
    }

    /// Publish this run's locally accumulated telemetry to the global
    /// registry. Idempotent; called from every run-termination path (the
    /// rendezvous early-exit bypasses `take_result`).
    fn flush_telemetry(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let insts = self.dyn_count - self.dyn_base;
        epvf_telemetry::add(Ctr::InterpRuns, 1);
        epvf_telemetry::add(Ctr::InterpInstsRetired, insts);
        epvf_telemetry::add(Ctr::InterpLoads, self.loads);
        epvf_telemetry::add(Ctr::InterpStores, self.stores);
        if self.config.record_trace && self.injection.is_none() {
            epvf_telemetry::add(Ctr::InterpGoldenInstsRetired, insts);
            epvf_telemetry::add(Ctr::InterpGoldenLoads, self.loads);
            epvf_telemetry::add(Ctr::InterpGoldenStores, self.stores);
        }
        let mem = self.mem.stats().delta_since(self.mem_stats_base);
        epvf_telemetry::add(Ctr::MemFaultChecks, mem.fault_checks);
        epvf_telemetry::add(Ctr::MemCowPageCopies, mem.cow_page_copies);
        epvf_telemetry::add(Ctr::MemPagesMaterialized, mem.pages_materialized);
        if self.ecc.take().is_some() {
            // The run terminated with the ECC error still pending: nothing
            // ever consumed it, so delayed reporting files it as expired.
            epvf_telemetry::add(Ctr::MemEccExpired, 1);
        }
    }

    fn take_result(&mut self, outcome: Outcome) -> RunResult {
        self.flush_telemetry();
        RunResult {
            outcome,
            outputs: std::mem::take(&mut self.outputs),
            output_tys: std::mem::take(&mut self.output_tys),
            dyn_insts: self.dyn_count,
            trace: self
                .config
                .record_trace
                .then(|| std::mem::take(&mut self.trace)),
        }
    }

    /// Emit a checkpoint if the collector is armed and due. Runs at the top
    /// of the interpreter loop, so snapshots always land on instruction
    /// boundaries.
    fn maybe_checkpoint(&mut self) {
        if self
            .ckpt
            .as_ref()
            .is_some_and(|c| self.dyn_count >= c.next_at)
        {
            let snap = self.snapshot();
            let c = self.ckpt.as_mut().expect("checked above");
            c.next_at = self.dyn_count + c.interval;
            c.snaps.push(snap);
            epvf_telemetry::add(Ctr::InterpCheckpointsTaken, 1);
        }
    }

    /// Check whether the replayed state has rejoined the golden run at the
    /// next pending rendezvous checkpoint. Checkpoint positions the injected
    /// run skipped (phi batches advance `dyn_count` by more than one between
    /// loop tops, and a diverged path may visit different positions) are
    /// discarded as they fall behind.
    fn try_rendezvous(&mut self) -> Option<u64> {
        let r = self.rendezvous.as_mut()?;
        while r.next < r.snaps.len() && r.snaps[r.next].dyn_count < self.dyn_count {
            r.next += 1;
        }
        if r.next >= r.snaps.len() {
            self.rendezvous = None; // no candidates left; stop checking
            return None;
        }
        let armed_after = r.armed_after;
        let snaps = r.snaps;
        let idx = r.next;
        let snap = &snaps[idx];
        if snap.dyn_count != self.dyn_count || self.dyn_count <= armed_after {
            return None;
        }
        // This candidate is consumed whether or not the state matches.
        self.rendezvous.as_mut().expect("checked above").next = idx + 1;
        self.state_matches(snap).then_some(self.dyn_count)
    }

    /// Supervision checks at the loop top: the poison test hook, the fuel
    /// cap, and (every [`DEADLINE_CHECK_STRIDE`] instructions) the
    /// wall-clock deadline. Returns the terminal outcome of a killed run.
    fn watchdog(&mut self) -> Option<Outcome> {
        if self.config.poison_at.is_some_and(|at| self.dyn_count >= at) {
            panic!(
                "poisoned at dyn #{} (ExecConfig::poison_at)",
                self.dyn_count
            );
        }
        if self.config.fuel.is_some_and(|f| self.dyn_count >= f) {
            epvf_telemetry::add(Ctr::WatchdogFuelKills, 1);
            return Some(Outcome::TimedOut(TimeoutKind::Fuel));
        }
        if let (Some(limit), Some(start)) = (self.config.deadline, self.deadline_start) {
            // Skip the zeroth check: a run shorter than one stride never
            // pays for a clock read.
            if self.dyn_count != 0
                && self.dyn_count.is_multiple_of(DEADLINE_CHECK_STRIDE)
                && start.elapsed() > limit
            {
                epvf_telemetry::add(Ctr::WatchdogDeadlineKills, 1);
                return Some(Outcome::TimedOut(TimeoutKind::Deadline));
            }
        }
        None
    }

    /// Whether any watchdog is armed.
    fn watchdog_armed(&self) -> bool {
        self.config.fuel.is_some()
            || self.config.deadline.is_some()
            || self.config.poison_at.is_some()
    }

    /// Scrub the pending ECC error if its delayed-reporting window has
    /// closed: restore the golden word in place and retire the error as
    /// expired (masked). Runs at instruction-boundary loop tops.
    fn ecc_scrub_check(&mut self) {
        if let Some(e) = self.ecc {
            if e.expired(self.dyn_count) {
                let (bytes, n) = e.golden_bytes();
                self.mem.write_bytes_raw(e.addr, &bytes[..n]);
                self.ecc = None;
                epvf_telemetry::add(Ctr::MemEccExpired, 1);
            }
        }
    }

    /// The hang budget, then the watchdogs: the checks every dynamic
    /// position runs, a phi's included. Returns the terminal outcome of a
    /// stopped run.
    fn budget_check(&mut self) -> Option<Outcome> {
        if self.dyn_count >= self.config.max_dyn_insts {
            return Some(Outcome::Hang);
        }
        if self.watchdog_armed() {
            return self.watchdog();
        }
        None
    }

    /// The loop top's slow path, taken once `dyn_count` reaches
    /// `next_event`: ECC scrub, checkpoint, rendezvous, hang budget and
    /// watchdogs, in that order, then a new horizon.
    fn loop_top_events(&mut self) -> Option<End> {
        if self.ecc.is_some() {
            self.ecc_scrub_check();
        }
        if self.ckpt.is_some() {
            self.maybe_checkpoint();
        }
        if self.rendezvous.is_some() {
            if let Some(at) = self.try_rendezvous() {
                return Some(End::Rejoined { at });
            }
        }
        if let Some(o) = self.budget_check() {
            return Some(End::Outcome(o));
        }
        self.schedule_events();
        None
    }

    /// Set `next_event` to the first position after this one at which a
    /// check can fire, given that this position's checks have run. An
    /// event that only a loop top handles (scrub, checkpoint, rendezvous)
    /// and that is already due keeps the horizon at or below `dyn_count`
    /// until a loop top takes it.
    fn schedule_events(&mut self) {
        let cfg = &self.config;
        let mut next = cfg.max_dyn_insts;
        for at in [cfg.fuel, cfg.poison_at].into_iter().flatten() {
            next = next.min(at);
        }
        if self.deadline_start.is_some() {
            let next_stride = (self.dyn_count / DEADLINE_CHECK_STRIDE).saturating_add(1);
            next = next.min(next_stride.saturating_mul(DEADLINE_CHECK_STRIDE));
        }
        if let Some(c) = &self.ckpt {
            next = next.min(c.next_at);
        }
        if let Some(r) = &self.rendezvous {
            // A candidate at or before the injection point can never match;
            // `try_rendezvous` skips it once the run has passed it.
            if let Some(s) = r.snaps.get(r.next) {
                next = next.min(s.dyn_count.max(r.armed_after.saturating_add(1)));
            }
        }
        if let Some(e) = &self.ecc {
            next = next.min(e.deadline);
        }
        self.next_event = next;
    }

    fn exec_loop(&mut self) -> End {
        loop {
            if self.dyn_count >= self.next_event {
                if let Some(end) = self.loop_top_events() {
                    return end;
                }
            }
            let module = self.module;
            let frame = self.frames.last().expect("frame stack never empty here");
            let func = &module.functions[frame.func.index()];
            let block = &func.blocks[frame.block];
            let inst: &'m Inst = &block.insts[frame.ip];

            match self.exec_inst(inst) {
                Flow::Next => {
                    let f = self.frames.last_mut().expect("frame exists");
                    f.ip += 1;
                }
                Flow::Jump(target) => {
                    let f = self.frames.last_mut().expect("frame exists");
                    let prev = f.block;
                    f.block = target;
                    f.ip = 0;
                    // Resolve the block's leading phi batch.
                    if let Some(o) = self.exec_phis(prev) {
                        return End::Outcome(o);
                    }
                }
                Flow::Enter => {
                    // New frame pushed by a call; phis cannot lead an entry
                    // block (no predecessors), so just continue.
                }
                Flow::Return(val) => {
                    let done = self.frames.pop().expect("frame exists");
                    if self.frames.is_empty() {
                        return End::Outcome(Outcome::Completed);
                    }
                    if let Some(ret_reg) = done.ret_to {
                        let (bits, src) = val.unwrap_or((0, None));
                        let id = match src {
                            Some(id) => id,
                            None => self.fresh_dyn(),
                        };
                        let caller = self.frames.last_mut().expect("frame exists");
                        caller.regs[ret_reg.index()] = bits;
                        caller.dynid[ret_reg.index()] = id;
                    }
                    let caller = self.frames.last_mut().expect("frame exists");
                    caller.ip += 1;
                }
                Flow::Stop(outcome) => return End::Outcome(outcome),
            }
        }
    }

    /// Evaluate the leading phi instructions of the current block as one
    /// parallel assignment (reads before writes), emitting one dynamic
    /// record per phi. Advances `ip` past the phi batch. Returns a terminal
    /// outcome if the hang budget or a watchdog stops the run mid-batch.
    fn exec_phis(&mut self, prev_block: usize) -> Option<Outcome> {
        let module = self.module;
        let (func_id, block_idx) = {
            let frame = self.frames.last().expect("frame exists");
            (frame.func, frame.block)
        };
        let block = &module.functions[func_id.index()].blocks[block_idx];

        self.phi_stage.clear();
        for inst in &block.insts {
            let Op::Phi { incomings, .. } = &inst.op else {
                break;
            };
            let taken = incomings
                .iter()
                .find(|(bb, _)| bb.index() == prev_block)
                .map(|(_, v)| *v)
                .expect("verifier guarantees phi covers all predecessors");
            if self.dyn_count >= self.next_event {
                if let Some(o) = self.budget_check() {
                    return Some(o);
                }
                self.schedule_events();
            }
            let dyn_idx = self.dyn_count;
            self.dyn_count += 1;
            let (bits, src) = self.read_operand(dyn_idx, 0, taken);
            let result = inst.result.expect("phi defines");
            if self.config.record_trace {
                self.trace.push_operand(OperandRec {
                    value: taken,
                    bits,
                    src,
                });
                self.trace.push(DynInst {
                    idx: dyn_idx,
                    sid: inst.sid,
                    func: func_id,
                    result: None, // set below with the committed dyn id
                    mem: None,
                });
            }
            self.phi_stage.push((result, bits));
        }
        // Commit after all reads (parallel-assignment semantics).
        let n = self.phi_stage.len();
        for i in 0..n {
            let (reg, mut bits) = self.phi_stage[i];
            if let Some(f) = self.injection {
                let this_dyn = self.dyn_count - n as u64 + i as u64;
                if let FaultEffect::ResultXor { mask } = f.effect {
                    if f.dyn_idx == this_dyn {
                        let frame = self.frames.last().expect("frame exists");
                        let ty = self.module.functions[frame.func.index()].value_types[reg.index()];
                        bits = ty.truncate_payload(bits ^ mask);
                    }
                }
            }
            let id = self.fresh_dyn();
            let frame = self.frames.last_mut().expect("frame exists");
            frame.regs[reg.index()] = bits;
            frame.dynid[reg.index()] = id;
            if self.config.record_trace {
                self.trace
                    .set_result(self.trace.len() - n + i, (reg, bits, id));
            }
        }
        let frame = self.frames.last_mut().expect("frame exists");
        frame.ip += n;
        None
    }

    /// Read one operand, applying the injection if this (dyn, slot) is the
    /// target. Returns the (possibly corrupted) bits and the dynamic source.
    fn read_operand(&mut self, dyn_idx: u64, slot: usize, v: Value) -> (u64, Option<DynValueId>) {
        let frame = self.frames.last().expect("frame exists");
        let (mut bits, src) = match v {
            Value::Reg(r) => (frame.regs[r.index()], Some(frame.dynid[r.index()])),
            Value::ConstInt { bits, .. } | Value::ConstFloat { bits, .. } => (bits, None),
            Value::Global(g) => (self.global_addrs[g.index()], None),
        };
        if let Some(f) = self.injection {
            if let FaultEffect::OperandXor { slot: s, mask } = f.effect {
                if f.dyn_idx == dyn_idx && s == slot {
                    bits ^= mask;
                }
            }
        }
        (bits, src)
    }

    /// Whether the injected fault is `effect`-shaped and targets `dyn_idx`.
    /// The XOR mask variants carry their payload out via pattern matching at
    /// the call site; this helper serves the payload-free checks.
    fn fault_at(&self, dyn_idx: u64) -> Option<FaultEffect> {
        self.injection
            .filter(|f| f.dyn_idx == dyn_idx)
            .map(|f| f.effect)
    }

    /// SEC-DED consumption check for an access touching the pending ECC
    /// word. A full-cover store rewrites data and check bits, clearing the
    /// error unconsumed; any other touch (a read, or a partial-word store's
    /// read-modify-write) consumes it — correcting in place when the strike
    /// is single-bit, raising a detected-uncorrectable error otherwise.
    fn ecc_touch(&mut self, addr: u64, size: u64, is_store: bool) -> Option<Outcome> {
        let e = self.ecc?;
        if !e.overlaps(addr, size) {
            return None;
        }
        self.ecc = None;
        if is_store && e.covers(addr, size) {
            epvf_telemetry::add(Ctr::MemEccOverwritten, 1);
            return None;
        }
        match e.on_consume() {
            epvf_memsim::EccEvent::Corrected => {
                let (bytes, n) = e.golden_bytes();
                self.mem.write_bytes_raw(e.addr, &bytes[..n]);
                epvf_telemetry::add(Ctr::MemEccCorrected, 1);
                None
            }
            _ => {
                epvf_telemetry::add(Ctr::MemEccDetected, 1);
                Some(Outcome::Detected)
            }
        }
    }

    /// Plant an at-rest ECC strike in the word a store just wrote: flip
    /// `mask` (pre-masked to the word width) in memory behind the
    /// register file's back and arm the scrub window. The strike lands
    /// after the store retires; the scrubber visits once `window` further
    /// dynamic instructions have retired.
    fn ecc_plant(&mut self, addr: u64, size: u64, golden: u64, mask: u64, window: u64) {
        let wmask = if size >= 8 {
            u64::MAX
        } else {
            (1u64 << (size * 8)) - 1
        };
        let mask = mask & wmask;
        if mask == 0 {
            return; // the strike missed every stored bit
        }
        let corrupt = (golden ^ mask).to_le_bytes();
        self.mem.write_bytes_raw(addr, &corrupt[..size as usize]);
        let deadline = self.dyn_count.saturating_add(window);
        self.ecc = Some(epvf_memsim::EccError {
            addr,
            size,
            golden,
            mask,
            deadline,
        });
        self.next_event = self.next_event.min(deadline);
        epvf_telemetry::add(Ctr::MemEccRaised, 1);
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(&mut self, inst: &'m Inst) -> Flow {
        let dyn_idx = self.dyn_count;
        self.dyn_count += 1;
        let func_id = self.frames.last().expect("frame exists").func;

        // An instruction-skip fault retires the target as a no-op: operands
        // are never read, no side effect runs, and the destination register
        // keeps its stale value. Terminators cannot be skipped (the block
        // must still transfer control), so there the fault does not fire.
        if matches!(self.fault_at(dyn_idx), Some(FaultEffect::SkipInst)) && !inst.op.is_terminator()
        {
            if self.config.record_trace {
                self.trace.push(DynInst {
                    idx: dyn_idx,
                    sid: inst.sid,
                    func: func_id,
                    result: None,
                    mem: None,
                });
            }
            return Flow::Next;
        }

        // Operand reads (slot order = Op::operands()), recorded in place
        // as the operands of this instruction's record.
        let tracing = self.config.record_trace;

        macro_rules! read {
            ($slot:expr, $v:expr) => {{
                let (bits, src) = self.read_operand(dyn_idx, $slot, $v);
                if tracing {
                    self.trace.push_operand(OperandRec {
                        value: $v,
                        bits,
                        src,
                    });
                }
                (bits, src)
            }};
        }

        let mut mem_rec: Option<MemAccessRec> = None;
        let mut result: Option<(ValueId, u64, DynValueId)> = None;

        let flow: Flow = match &inst.op {
            Op::Bin { op, ty, a, b } => {
                let (av, _) = read!(0, *a);
                let (bv, _) = read!(1, *b);
                match eval_bin(*op, *ty, av, bv) {
                    Ok(v) => {
                        result = Some(self.define(inst, v));
                        Flow::Next
                    }
                    Err(kind) => Flow::Stop(Outcome::Crashed {
                        kind,
                        at_dyn: dyn_idx,
                    }),
                }
            }
            Op::FBin { op, ty, a, b } => {
                let (av, _) = read!(0, *a);
                let (bv, _) = read!(1, *b);
                let v = eval_fbin(*op, *ty, av, bv);
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::FUn { op, ty, a } => {
                let (av, _) = read!(0, *a);
                let v = eval_fun(*op, *ty, av);
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Icmp { pred, ty, a, b } => {
                let (av, _) = read!(0, *a);
                let (bv, _) = read!(1, *b);
                let v = eval_icmp(*pred, *ty, av, bv) as u64;
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Fcmp { pred, ty, a, b } => {
                let (av, _) = read!(0, *a);
                let (bv, _) = read!(1, *b);
                let v = eval_fcmp(*pred, *ty, av, bv) as u64;
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Cast {
                op,
                from_ty,
                to_ty,
                a,
            } => {
                let (av, _) = read!(0, *a);
                let v = eval_cast(*op, *from_ty, *to_ty, av);
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Select { cond, a, b, .. } => {
                let (cv, _) = read!(0, *cond);
                let (av, _) = read!(1, *a);
                let (bv, _) = read!(2, *b);
                let v = if cv & 1 == 1 { av } else { bv };
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Phi { .. } => unreachable!("phis are executed by exec_phis"),
            Op::Load { ty, addr } => {
                let (mut ap, _) = read!(0, *addr);
                if let Some(FaultEffect::AddrXor { mask }) = self.fault_at(dyn_idx) {
                    ap ^= mask;
                }
                let sp = self.frames.last().expect("frame exists").sp;
                let size = ty.bytes();
                self.loads += 1;
                let ecc_stop = self
                    .ecc
                    .is_some()
                    .then(|| self.ecc_touch(ap, size, false))
                    .flatten();
                if let Some(o) = ecc_stop {
                    Flow::Stop(o)
                } else {
                    match self.mem.read(ap, size, sp) {
                        Ok(v) => {
                            if tracing {
                                mem_rec = Some(MemAccessRec {
                                    addr: ap,
                                    size,
                                    is_store: false,
                                    sp,
                                    map: self.map_snapshot(),
                                });
                            }
                            result = Some(self.define(inst, v));
                            Flow::Next
                        }
                        Err(e) => Flow::Stop(Outcome::Crashed {
                            kind: e.into(),
                            at_dyn: dyn_idx,
                        }),
                    }
                }
            }
            Op::Store { ty, val, addr } => {
                let (vv, _) = read!(0, *val);
                let (mut ap, _) = read!(1, *addr);
                if let Some(FaultEffect::AddrXor { mask }) = self.fault_at(dyn_idx) {
                    ap ^= mask;
                }
                let sp = self.frames.last().expect("frame exists").sp;
                let size = ty.bytes();
                self.stores += 1;
                let ecc_stop = self
                    .ecc
                    .is_some()
                    .then(|| self.ecc_touch(ap, size, true))
                    .flatten();
                if let Some(o) = ecc_stop {
                    Flow::Stop(o)
                } else {
                    match self.mem.write(ap, size, ty.truncate_payload(vv), sp) {
                        Ok(()) => {
                            if let Some(FaultEffect::EccFlip { mask, window }) =
                                self.fault_at(dyn_idx)
                            {
                                self.ecc_plant(ap, size, ty.truncate_payload(vv), mask, window);
                            }
                            if tracing {
                                mem_rec = Some(MemAccessRec {
                                    addr: ap,
                                    size,
                                    is_store: true,
                                    sp,
                                    map: self.map_snapshot(),
                                });
                            }
                            Flow::Next
                        }
                        Err(e) => Flow::Stop(Outcome::Crashed {
                            kind: e.into(),
                            at_dyn: dyn_idx,
                        }),
                    }
                }
            }
            Op::Alloca { size, align } => {
                let frame = self.frames.last_mut().expect("frame exists");
                let new_sp = frame.sp.saturating_sub(*size) & !(*align - 1);
                frame.sp = new_sp;
                match self.mem.grow_stack_to(new_sp) {
                    Ok(()) => {
                        result = Some(self.define(inst, new_sp));
                        Flow::Next
                    }
                    Err(e) => Flow::Stop(Outcome::Crashed {
                        kind: e.into(),
                        at_dyn: dyn_idx,
                    }),
                }
            }
            Op::Gep {
                base,
                index,
                elem_size,
            } => {
                let (bv, _) = read!(0, *base);
                let (iv, src) = read!(1, *index);
                // Index is sign-extended from its own type.
                let ity = self.operand_ty(*index, src);
                let idx = ity.sign_extend(iv);
                let v = bv.wrapping_add((*elem_size as i64).wrapping_mul(idx) as u64);
                result = Some(self.define(inst, v));
                Flow::Next
            }
            Op::Malloc { size } => {
                let (sv, _) = read!(0, *size);
                match self.mem.malloc(sv) {
                    Ok(p) => {
                        result = Some(self.define(inst, p));
                        Flow::Next
                    }
                    Err(e) => Flow::Stop(Outcome::Crashed {
                        kind: e.into(),
                        at_dyn: dyn_idx,
                    }),
                }
            }
            Op::Free { ptr } => {
                let (pv, _) = read!(0, *ptr);
                match self.mem.free(pv) {
                    Ok(()) => Flow::Next,
                    Err(e) => Flow::Stop(Outcome::Crashed {
                        kind: e.into(),
                        at_dyn: dyn_idx,
                    }),
                }
            }
            Op::Call { callee, args } => {
                let cf = &self.module.functions[callee.index()];
                let mut regs = vec![0u64; cf.n_values() as usize];
                let mut dynid = vec![DynValueId(u64::MAX); cf.n_values() as usize];
                for (i, a) in args.iter().enumerate() {
                    let (bits, src) = read!(i, *a);
                    regs[i] = bits;
                    dynid[i] = match src {
                        Some(id) => id,
                        None => self.fresh_dyn(),
                    };
                }
                let caller_sp = self.frames.last().expect("frame exists").sp;
                let sp = caller_sp - FRAME_OVERHEAD;
                if let Err(e) = self.mem.grow_stack_to(sp) {
                    return Flow::Stop(Outcome::Crashed {
                        kind: e.into(),
                        at_dyn: dyn_idx,
                    });
                }
                self.frames.push(Frame {
                    func: *callee,
                    block: 0,
                    ip: 0,
                    regs,
                    dynid,
                    sp,
                    ret_to: inst.result,
                });
                Flow::Enter
            }
            Op::Br { target } => Flow::Jump(target.index()),
            Op::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let (cv, _) = read!(0, *cond);
                let mut taken = cv & 1 == 1;
                if matches!(self.fault_at(dyn_idx), Some(FaultEffect::FlipBranch)) {
                    taken = !taken;
                }
                Flow::Jump(if taken {
                    then_bb.index()
                } else {
                    else_bb.index()
                })
            }
            Op::Ret { val } => match val {
                Some(v) => {
                    let (bits, src) = read!(0, *v);
                    Flow::Return(Some((bits, src)))
                }
                None => Flow::Return(None),
            },
            Op::Output { ty, val } => {
                let (bits, _) = read!(0, *val);
                self.outputs.push(bits);
                self.output_tys.push(*ty);
                Flow::Next
            }
            Op::Detect => Flow::Stop(Outcome::Detected),
            Op::DetectIf { cond } => {
                let (cv, _) = read!(0, *cond);
                let mut fire = cv & 1 == 1;
                if matches!(self.fault_at(dyn_idx), Some(FaultEffect::FlipBranch)) {
                    fire = !fire;
                }
                if fire {
                    Flow::Stop(Outcome::Detected)
                } else {
                    Flow::Next
                }
            }
        };

        if tracing {
            self.trace.push(DynInst {
                idx: dyn_idx,
                sid: inst.sid,
                func: func_id,
                result,
                mem: mem_rec,
            });
        }
        flow
    }

    /// Bind an instruction result: truncate to the result type, apply any
    /// result-targeted fault, assign a fresh dynamic id, store into the
    /// frame.
    fn define(&mut self, inst: &Inst, raw: u64) -> (ValueId, u64, DynValueId) {
        let reg = inst.result.expect("instruction defines a value");
        let frame = self.frames.last().expect("frame exists");
        let ty = self.module.functions[frame.func.index()].value_types[reg.index()];
        let mut bits = ty.truncate_payload(raw);
        if let Some(f) = self.injection {
            // dyn_count was already advanced past this instruction.
            if let FaultEffect::ResultXor { mask } = f.effect {
                if f.dyn_idx + 1 == self.dyn_count {
                    bits = ty.truncate_payload(bits ^ mask);
                }
            }
        }
        let id = self.fresh_dyn();
        let frame = self.frames.last_mut().expect("frame exists");
        frame.regs[reg.index()] = bits;
        frame.dynid[reg.index()] = id;
        (reg, bits, id)
    }

    /// Shared snapshot of the current memory map, re-cloned only when the
    /// map actually changed since the last call (tracked by
    /// `SimMemory::map_version`). Traced loads/stores call this per access;
    /// the old per-access deep clone of the VMA list dominated golden-run
    /// time on memory-heavy workloads.
    fn map_snapshot(&mut self) -> Arc<MemoryMap> {
        let version = self.mem.map_version();
        match &self.map_cache {
            Some((v, map)) if *v == version => Arc::clone(map),
            _ => {
                let map = Arc::new(self.mem.snapshot_map());
                self.map_cache = Some((version, Arc::clone(&map)));
                map
            }
        }
    }

    fn operand_ty(&self, v: Value, _src: Option<DynValueId>) -> Type {
        match v {
            Value::Reg(r) => {
                let frame = self.frames.last().expect("frame exists");
                self.module.functions[frame.func.index()].value_types[r.index()]
            }
            Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => ty,
            Value::Global(_) => Type::Ptr,
        }
    }
}

// ----- scalar semantics -----

trait PayloadExt {
    fn truncate_payload(self, raw: u64) -> u64;
}

impl PayloadExt for Type {
    /// Truncate integers to width; floats keep their full payload (f32 uses
    /// the low 32 bits).
    fn truncate_payload(self, raw: u64) -> u64 {
        if self.is_float() {
            if self == Type::F32 {
                raw & 0xFFFF_FFFF
            } else {
                raw
            }
        } else {
            self.truncate(raw)
        }
    }
}

fn eval_bin(op: BinOp, ty: Type, a: u64, b: u64) -> Result<u64, CrashKind> {
    let w = ty.bits();
    let sa = ty.sign_extend(a);
    let sb = ty.sign_extend(b);
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::UDiv => {
            if b == 0 {
                return Err(CrashKind::Arithmetic);
            }
            a / b
        }
        BinOp::SDiv => {
            if sb == 0 || (sa == min_signed(w) && sb == -1) {
                return Err(CrashKind::Arithmetic);
            }
            (sa / sb) as u64
        }
        BinOp::URem => {
            if b == 0 {
                return Err(CrashKind::Arithmetic);
            }
            a % b
        }
        BinOp::SRem => {
            if sb == 0 || (sa == min_signed(w) && sb == -1) {
                return Err(CrashKind::Arithmetic);
            }
            (sa % sb) as u64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b % u64::from(w)) as u32),
        BinOp::LShr => a.wrapping_shr((b % u64::from(w)) as u32),
        BinOp::AShr => {
            let sh = (b % u64::from(w)) as u32;
            (sa >> sh) as u64
        }
    };
    Ok(ty.truncate(v))
}

fn min_signed(width: u32) -> i64 {
    if width >= 64 {
        i64::MIN
    } else {
        -(1i64 << (width - 1))
    }
}

fn eval_fbin(op: FBinOp, ty: Type, a: u64, b: u64) -> u64 {
    if ty == Type::F32 {
        let x = f32::from_bits(a as u32);
        let y = f32::from_bits(b as u32);
        let r = match op {
            FBinOp::FAdd => x + y,
            FBinOp::FSub => x - y,
            FBinOp::FMul => x * y,
            FBinOp::FDiv => x / y,
            FBinOp::FPow => x.powf(y),
            FBinOp::FMin => x.min(y),
            FBinOp::FMax => x.max(y),
        };
        u64::from(r.to_bits())
    } else {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match op {
            FBinOp::FAdd => x + y,
            FBinOp::FSub => x - y,
            FBinOp::FMul => x * y,
            FBinOp::FDiv => x / y,
            FBinOp::FPow => x.powf(y),
            FBinOp::FMin => x.min(y),
            FBinOp::FMax => x.max(y),
        };
        r.to_bits()
    }
}

fn eval_fun(op: FUnOp, ty: Type, a: u64) -> u64 {
    if ty == Type::F32 {
        let x = f32::from_bits(a as u32);
        let r = match op {
            FUnOp::FNeg => -x,
            FUnOp::Sqrt => x.sqrt(),
            FUnOp::Exp => x.exp(),
            FUnOp::Log => x.ln(),
            FUnOp::Fabs => x.abs(),
            FUnOp::Floor => x.floor(),
            FUnOp::Round => x.round(),
            FUnOp::Sin => x.sin(),
            FUnOp::Cos => x.cos(),
        };
        u64::from(r.to_bits())
    } else {
        let x = f64::from_bits(a);
        let r = match op {
            FUnOp::FNeg => -x,
            FUnOp::Sqrt => x.sqrt(),
            FUnOp::Exp => x.exp(),
            FUnOp::Log => x.ln(),
            FUnOp::Fabs => x.abs(),
            FUnOp::Floor => x.floor(),
            FUnOp::Round => x.round(),
            FUnOp::Sin => x.sin(),
            FUnOp::Cos => x.cos(),
        };
        r.to_bits()
    }
}

fn eval_icmp(pred: IcmpPred, ty: Type, a: u64, b: u64) -> bool {
    let (ua, ub) = (ty.truncate(a), ty.truncate(b));
    let (sa, sb) = (ty.sign_extend(a), ty.sign_extend(b));
    match pred {
        IcmpPred::Eq => ua == ub,
        IcmpPred::Ne => ua != ub,
        IcmpPred::Ult => ua < ub,
        IcmpPred::Ule => ua <= ub,
        IcmpPred::Ugt => ua > ub,
        IcmpPred::Uge => ua >= ub,
        IcmpPred::Slt => sa < sb,
        IcmpPred::Sle => sa <= sb,
        IcmpPred::Sgt => sa > sb,
        IcmpPred::Sge => sa >= sb,
    }
}

fn eval_fcmp(pred: FcmpPred, ty: Type, a: u64, b: u64) -> bool {
    let (x, y) = if ty == Type::F32 {
        (
            f64::from(f32::from_bits(a as u32)),
            f64::from(f32::from_bits(b as u32)),
        )
    } else {
        (f64::from_bits(a), f64::from_bits(b))
    };
    match pred {
        FcmpPred::Oeq => x == y,
        FcmpPred::One => x != y && !x.is_nan() && !y.is_nan(),
        FcmpPred::Olt => x < y,
        FcmpPred::Ole => x <= y,
        FcmpPred::Ogt => x > y,
        FcmpPred::Oge => x >= y,
    }
}

fn eval_cast(op: CastOp, from_ty: Type, to_ty: Type, a: u64) -> u64 {
    match op {
        CastOp::Trunc => to_ty.truncate(a),
        CastOp::ZExt => from_ty.truncate(a),
        CastOp::SExt => to_ty.truncate(from_ty.sign_extend(a) as u64),
        CastOp::FpToSi => {
            let x = if from_ty == Type::F32 {
                f64::from(f32::from_bits(a as u32))
            } else {
                f64::from_bits(a)
            };
            to_ty.truncate((x as i64) as u64)
        }
        CastOp::SiToFp => {
            let s = from_ty.sign_extend(a) as f64;
            if to_ty == Type::F32 {
                u64::from((s as f32).to_bits())
            } else {
                s.to_bits()
            }
        }
        CastOp::UiToFp => {
            let u = from_ty.truncate(a) as f64;
            if to_ty == Type::F32 {
                u64::from((u as f32).to_bits())
            } else {
                u.to_bits()
            }
        }
        CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr => to_ty.truncate_payload(a),
        CastOp::FpExt => f64::from(f32::from_bits(a as u32)).to_bits(),
        CastOp::FpTrunc => u64::from((f64::from_bits(a) as f32).to_bits()),
    }
}
