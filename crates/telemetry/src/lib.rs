//! # epvf-telemetry — structured metrics for the whole analysis stack
//!
//! Every layer of the pipeline (interpreter, DDG/ACE construction, crash +
//! propagation models, memory simulator, injection campaigns, oracle
//! sweeps) records into a fixed, centrally declared metric schema:
//!
//! * [`Ctr`] — lock-free counters (relaxed atomic adds, or atomic max for
//!   peak gauges), declared once in [`metrics`] together with their names
//!   and whether they are *invariant* — required to be byte-identical
//!   across worker-thread counts **and** checkpoint intervals;
//! * [`Tmr`] — histogram timers (log₂-nanosecond buckets) fed by
//!   [`span`] guards or [`time_ms`];
//! * [`Registry`] — the store behind both. A process-wide instance backs
//!   the free functions ([`add`], [`peak`], [`span`]); independent
//!   instances support sharded recording, whose [`MetricsSnapshot`]s merge
//!   associatively and commutatively — summing per-worker registries loses
//!   nothing (property-tested in `tests/prop_registry.rs`);
//! * [`MetricsReport`] — a snapshot plus a string metadata block
//!   (command, target, git sha, …), serialized as a single-line versioned
//!   JSON object (`schema: "epvf-metrics"`, `version: 1`) and parsed back
//!   by [`MetricsReport::parse`], which rejects unknown versions. The
//!   emitters behind `epvf … --metrics-out` and the `BENCH_<name>.json`
//!   trajectory files both use this format, so campaign runs and bench
//!   harness outputs are diffable with the same tooling;
//! * [`Progress`] — a single-line, rate-limited campaign progress
//!   reporter on stderr (TTY-gated; `EPVF_PROGRESS=1/0` forces it on/off).
//!
//! ```
//! use epvf_telemetry::{add, global_snapshot, span, Ctr, Tmr};
//!
//! {
//!     let _s = span(Tmr::DdgBuild);
//!     add(Ctr::DdgNodesCreated, 42);
//! }
//! let snap = global_snapshot();
//! assert!(snap.counters["ddg.nodes_created"] >= 42);
//! assert!(snap.timers["ddg.build"].count >= 1);
//! ```

#![warn(missing_docs)]

mod fsutil;
mod json;
pub mod metrics;
mod progress;
mod registry;
mod report;
mod snapshot;

pub use fsutil::atomic_write;
pub use metrics::{Combine, CounterDef, Ctr, Tmr, ALL_CTRS, ALL_TMRS, COUNTER_DEFS, TIMER_DEFS};
pub use progress::Progress;
pub use registry::{global, Registry, Span};
pub use report::{MetricsReport, SCHEMA_NAME, SCHEMA_VERSION};
pub use snapshot::{MergeOverflow, MetricsSnapshot, TimerSnapshot};

/// Add `n` to a sum counter (or raise a max gauge) in the global registry.
pub fn add(c: Ctr, n: u64) {
    global().add(c, n);
}

/// Raise a peak (max-combining) gauge in the global registry.
pub fn peak(c: Ctr, v: u64) {
    global().peak(c, v);
}

/// Start a phase span against the global registry; the elapsed time is
/// recorded into the timer's histogram when the guard drops.
pub fn span(t: Tmr) -> Span<'static> {
    global().span(t)
}

/// Time a closure, record the elapsed duration into the global timer
/// histogram, and also return it in milliseconds — the shared replacement
/// for the ad-hoc `Instant` arithmetic the bench harnesses used to
/// hand-roll.
pub fn time_ms<T>(t: Tmr, f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    global().record_duration(t, elapsed);
    (out, elapsed.as_secs_f64() * 1e3)
}

/// Snapshot the global registry.
pub fn global_snapshot() -> MetricsSnapshot {
    global().snapshot()
}
