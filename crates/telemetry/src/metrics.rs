//! The metric schema: every counter and timer in the pipeline, declared in
//! one place so the snapshot key set is fixed, documented, and versioned
//! with the crate.
//!
//! A counter marked *invariant* must be byte-identical for the same command
//! regardless of `--threads` and `--ckpt-interval` — the determinism
//! contract the metric-invariant test suite enforces. Counters that measure
//! *how* the work was executed (instructions actually retired by the replay
//! engine, checkpoint counts, work-stealing traffic, CoW page copies) are
//! deliberately non-invariant: checkpoint-resume exists precisely to change
//! them.

/// How a counter combines when snapshots from sharded registries merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Additive total (the default; merge adds).
    Sum,
    /// Peak gauge (merge takes the maximum).
    Max,
}

/// Static description of one counter.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// Dotted snapshot key, e.g. `interp.golden.insts_retired`.
    pub name: &'static str,
    /// Merge semantics.
    pub combine: Combine,
    /// Whether the value must be identical across `--threads` and
    /// `--ckpt-interval` for the same command.
    pub invariant: bool,
    /// One-line description.
    pub help: &'static str,
}

macro_rules! define_counters {
    ($($variant:ident => ($name:literal, $combine:ident, $invariant:literal, $help:literal),)*) => {
        /// Every counter in the pipeline. The discriminant doubles as the
        /// registry slot, so recording is a single indexed atomic op.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Ctr {
            $(#[doc = $help] $variant,)*
        }

        /// Definitions, indexed by `Ctr as usize`.
        pub const COUNTER_DEFS: &[CounterDef] = &[
            $(CounterDef {
                name: $name,
                combine: Combine::$combine,
                invariant: $invariant,
                help: $help,
            },)*
        ];

        /// All counters, in definition order.
        pub const ALL_CTRS: &[Ctr] = &[$(Ctr::$variant,)*];
    };
}

macro_rules! define_timers {
    ($($variant:ident => ($name:literal, $help:literal),)*) => {
        /// Every phase timer in the pipeline; values land in log₂-ns
        /// histogram buckets.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Tmr {
            $(#[doc = $help] $variant,)*
        }

        /// Timer names, indexed by `Tmr as usize`.
        pub const TIMER_DEFS: &[&str] = &[$($name,)*];

        /// All timers, in definition order.
        pub const ALL_TMRS: &[Tmr] = &[$(Tmr::$variant,)*];
    };
}

define_counters! {
    // --- interpreter ---
    InterpRuns => ("interp.runs", Sum, false,
        "executions started (golden, injected, and resumed)"),
    InterpInstsRetired => ("interp.insts_retired", Sum, false,
        "dynamic IR instructions retired across all runs"),
    InterpLoads => ("interp.loads", Sum, false,
        "load instructions executed across all runs"),
    InterpStores => ("interp.stores", Sum, false,
        "store instructions executed across all runs"),
    InterpGoldenInstsRetired => ("interp.golden.insts_retired", Sum, true,
        "dynamic IR instructions retired by traced golden runs"),
    InterpGoldenLoads => ("interp.golden.loads", Sum, true,
        "load instructions executed by traced golden runs"),
    InterpGoldenStores => ("interp.golden.stores", Sum, true,
        "store instructions executed by traced golden runs"),
    InterpCheckpointsTaken => ("interp.checkpoints_taken", Sum, false,
        "snapshots captured by checkpointing golden passes"),
    WatchdogFuelKills => ("interp.watchdog.fuel_kills", Sum, true,
        "runs killed by the supervision fuel budget"),
    WatchdogDeadlineKills => ("interp.watchdog.deadline_kills", Sum, false,
        "runs killed by the wall-clock deadline watchdog"),
    // --- memory simulator ---
    MemFaultChecks => ("memsim.fault_checks", Sum, false,
        "access-validity decisions taken (the simulated Fig. 4 kernel logic)"),
    MemCowPageCopies => ("memsim.cow_page_copies", Sum, false,
        "shared pages copied on write after a snapshot clone"),
    MemPagesMaterialized => ("memsim.pages_materialized", Sum, false,
        "zero pages materialized on first write"),
    MemEccRaised => ("memsim.ecc.raised", Sum, true,
        "ECC errors planted in resident words by the ecc fault model"),
    MemEccDetected => ("memsim.ecc.detected", Sum, true,
        "uncorrectable ECC errors consumed by a read (detected-uncorrectable)"),
    MemEccCorrected => ("memsim.ecc.corrected", Sum, true,
        "single-bit ECC errors repaired in place on consumption"),
    MemEccOverwritten => ("memsim.ecc.overwritten", Sum, true,
        "ECC errors cleared by a full-word overwrite before consumption"),
    MemEccExpired => ("memsim.ecc.expired", Sum, true,
        "ECC errors scrubbed unconsumed at the delayed-reporting window close"),
    // --- DDG / ACE graph ---
    DdgBuilds => ("ddg.builds", Sum, true,
        "dynamic dependency graphs constructed"),
    DdgNodesCreated => ("ddg.nodes_created", Sum, true,
        "DDG vertices created"),
    DdgEdgesCreated => ("ddg.edges_created", Sum, true,
        "DDG dependency edges created (data + virtual addressing)"),
    AceNodesVisited => ("ace.nodes_visited", Sum, true,
        "vertices reached by the ACE reverse-BFS"),
    AceFrontierPeak => ("ace.bfs_frontier_peak", Max, true,
        "largest reverse-BFS frontier (queue length) observed"),
    // --- crash model + propagation ---
    CoreAnalyses => ("core.analyses", Sum, true,
        "complete ePVF analyses executed"),
    CoreTraceLen => ("core.trace_len", Sum, true,
        "trace records consumed by ePVF analyses"),
    PropSlicesWalked => ("core.propagation.slices_walked", Sum, true,
        "memory accesses whose backward slice was propagated"),
    PropValveDrops => ("core.propagation.valve_drops", Sum, true,
        "range inversions dropped by the golden-value safety valve"),
    PropConstraintsTightened => ("core.propagation.constraints_tightened", Sum, true,
        "node constraints strictly tightened by root seeding and propagation sweeps"),
    CrashBoundaryChecks => ("core.crash_model.boundary_checks", Sum, true,
        "CHECK_BOUNDARY evaluations against trace memory maps"),
    // --- compositional analysis / section cache ---
    AnalyzeCacheSections => ("analyze.cache.sections", Sum, false,
        "section runs considered by compositional analyses"),
    AnalyzeCacheHits => ("analyze.cache.hits", Sum, false,
        "section runs replayed from a cached summary"),
    AnalyzeCacheMisses => ("analyze.cache.misses", Sum, false,
        "section runs recomputed (cold, corrupt, or changed)"),
    AnalyzeCacheStored => ("analyze.cache.stored", Sum, false,
        "section summaries written into the cache after a miss"),
    AnalyzeCacheCorrupt => ("analyze.cache.corrupt", Sum, false,
        "persisted section summaries rejected by checksum/version checks"),
    // --- injection campaigns ---
    CampaignRunsTotal => ("llfi.campaign.runs_total", Sum, true,
        "injection runs classified"),
    CampaignRunsCrash => ("llfi.campaign.runs_crash", Sum, true,
        "injection runs ending in a crash (any exception class)"),
    CampaignRunsSdc => ("llfi.campaign.runs_sdc", Sum, true,
        "injection runs ending in silent data corruption"),
    CampaignRunsBenign => ("llfi.campaign.runs_benign", Sum, true,
        "injection runs ending with golden-identical output"),
    CampaignRunsHang => ("llfi.campaign.runs_hang", Sum, true,
        "injection runs exceeding the dynamic-instruction budget"),
    CampaignRunsDetected => ("llfi.campaign.runs_detected", Sum, true,
        "injection runs stopped by a duplication detector"),
    CampaignRunsTimedOut => ("llfi.campaign.runs_timed_out", Sum, true,
        "injection runs killed by a supervision watchdog (fuel or deadline)"),
    CampaignRunsQuarantined => ("llfi.campaign.runs_quarantined", Sum, true,
        "injection runs isolated after panicking past the retry budget"),
    CampaignPanicRetries => ("llfi.campaign.panic_retries", Sum, true,
        "panicked runs re-executed under the transient-retry budget"),
    CampaignEarlyBenign => ("llfi.campaign.early_benign", Sum, false,
        "runs classified benign by golden-rendezvous short-circuit"),
    CampaignResumedRuns => ("llfi.campaign.resumed_runs", Sum, false,
        "injected runs resumed from a checkpoint"),
    CampaignScratchRuns => ("llfi.campaign.scratch_runs", Sum, false,
        "injected runs executed from dynamic instruction 0"),
    CampaignStealOps => ("llfi.campaign.steal_ops", Sum, false,
        "work items claimed off the shared campaign cursor"),
    CampaignWorkerBatches => ("llfi.campaign.worker_batches", Sum, false,
        "worker threads spawned across campaign executions"),
    // --- campaign write-ahead log ---
    WalRecordsAppended => ("llfi.wal.records_appended", Sum, false,
        "outcome records appended to campaign write-ahead logs"),
    WalFlushes => ("llfi.wal.flushes", Sum, false,
        "batched WAL flushes reaching the operating system"),
    WalRecordsRecovered => ("llfi.wal.records_recovered", Sum, false,
        "valid records read back while resuming from a WAL"),
    WalRecordsTorn => ("llfi.wal.records_torn", Sum, false,
        "torn or checksum-failing tail records discarded during recovery"),
    WalDuplicatesDropped => ("llfi.wal.duplicates_dropped", Sum, false,
        "duplicate per-spec records ignored during recovery (latest wins)"),
    // --- adaptive stratified sampler ---
    SamplerStrata => ("llfi.sampler.strata", Max, true,
        "occupied strata partitioning the sampled campaign's site universe"),
    SamplerRounds => ("llfi.sampler.rounds", Sum, true,
        "adaptive allocation rounds executed (pilot round included)"),
    SamplerAllocated => ("llfi.sampler.allocated", Sum, true,
        "injection runs allocated across strata by the adaptive sampler"),
    SamplerExecuted => ("llfi.sampler.executed", Sum, true,
        "allocated runs actually executed by sampled campaigns"),
    SamplerCiHalfWidthPpm => ("llfi.sampler.ci_halfwidth_ppm", Max, true,
        "95% CI half-width at stop, parts per million (worst of SDC/crash)"),
    // --- shard merge ---
    MergeShardWals => ("llfi.merge.shard_wals", Sum, false,
        "shard write-ahead logs folded into merged aggregates"),
    // --- oracle ---
    OracleSweepFlips => ("oracle.sweep.flips", Sum, true,
        "ground-truth bit flips executed by oracle sweeps"),
    OracleTruePositives => ("oracle.diff.true_positives", Sum, true,
        "flips the crash model predicted as crash that did crash"),
    OracleFalsePositives => ("oracle.diff.false_positives", Sum, true,
        "flips predicted as crash that did not crash"),
    OracleFalseNegatives => ("oracle.diff.false_negatives", Sum, true,
        "flips predicted safe that crashed"),
    OracleTrueNegatives => ("oracle.diff.true_negatives", Sum, true,
        "flips predicted safe that did not crash"),
    OracleHardViolations => ("oracle.hard_violations", Sum, true,
        "one-sided hard-invariant violations found by oracle scans"),
}

define_timers! {
    InterpGoldenRun => ("interp.golden_run", "traced golden executions"),
    InterpInjectedRun => ("interp.injected_run", "single injected replays (scratch or resumed)"),
    DdgBuild => ("ddg.build", "DDG construction from a trace"),
    AceCompute => ("ace.compute", "ACE reverse-BFS"),
    CorePropagate => ("core.propagate", "crash model + backward-slice propagation"),
    CoreRoots => ("core.roots", "propagation roots inside core.propagate: enumeration with CHECK_BOUNDARY, plus address seeding in a monolithic pass"),
    CampaignRun => ("llfi.campaign.run", "whole injection campaigns"),
    OracleSweep => ("oracle.sweep", "ground-truth sweeps"),
    BenchSection => ("bench.section", "timed harness sections"),
    CliCommand => ("cli.command", "whole CLI command executions"),
}

impl Ctr {
    /// Number of declared counters.
    pub const COUNT: usize = COUNTER_DEFS.len();

    /// Registry slot of this counter.
    pub fn index(self) -> usize {
        self as usize
    }

    /// This counter's definition.
    pub fn def(self) -> &'static CounterDef {
        &COUNTER_DEFS[self as usize]
    }

    /// All counters, in definition order.
    pub fn all() -> impl Iterator<Item = Ctr> {
        ALL_CTRS.iter().copied()
    }
}

impl Tmr {
    /// Number of declared timers.
    pub const COUNT: usize = TIMER_DEFS.len();

    /// Registry slot of this timer.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Dotted snapshot key of this timer.
    pub fn name(self) -> &'static str {
        TIMER_DEFS[self as usize]
    }

    /// All timers, in definition order.
    pub fn all() -> impl Iterator<Item = Tmr> {
        ALL_TMRS.iter().copied()
    }
}

/// Definition lookup by snapshot key (linear over the fixed schema).
pub fn counter_def_by_name(name: &str) -> Option<&'static CounterDef> {
    COUNTER_DEFS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for d in COUNTER_DEFS {
            assert!(seen.insert(d.name), "duplicate counter {}", d.name);
            assert!(d.name.contains('.'), "{} must be namespaced", d.name);
        }
        for t in TIMER_DEFS {
            assert!(seen.insert(*t), "timer name collides: {t}");
        }
    }

    #[test]
    fn enum_indices_match_defs() {
        assert_eq!(Ctr::COUNT, COUNTER_DEFS.len());
        assert_eq!(Tmr::COUNT, TIMER_DEFS.len());
        assert_eq!(Ctr::InterpRuns.index(), 0);
        assert_eq!(
            Ctr::OracleHardViolations.def().name,
            "oracle.hard_violations"
        );
        assert_eq!(Tmr::CliCommand.name(), "cli.command");
    }

    #[test]
    fn outcome_class_counters_are_invariant() {
        for c in [
            Ctr::CampaignRunsTotal,
            Ctr::CampaignRunsCrash,
            Ctr::CampaignRunsSdc,
            Ctr::CampaignRunsBenign,
            Ctr::CampaignRunsHang,
            Ctr::CampaignRunsDetected,
            Ctr::CampaignRunsTimedOut,
            Ctr::CampaignRunsQuarantined,
        ] {
            assert!(c.def().invariant, "{} must be invariant", c.def().name);
        }
        // Replay-strategy counters must NOT be: checkpoint-resume exists to
        // change them.
        for c in [
            Ctr::CampaignEarlyBenign,
            Ctr::InterpInstsRetired,
            Ctr::InterpCheckpointsTaken,
        ] {
            assert!(!c.def().invariant, "{} cannot be invariant", c.def().name);
        }
    }
}
