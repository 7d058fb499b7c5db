//! The metric store: one relaxed atomic slot per counter, one histogram
//! cell per timer. Recording never locks, never allocates, and never
//! branches on configuration — a counter bump is a single `fetch_add` on a
//! cache-resident `AtomicU64`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::metrics::{Combine, Ctr, Tmr};
use crate::snapshot::{MetricsSnapshot, TimerSnapshot};

/// Number of log₂-nanosecond histogram buckets. Bucket `i` holds samples
/// with `floor(log2(ns)) == i`; 63 covers every representable duration.
pub(crate) const BUCKETS: usize = 64;

/// One timer's histogram cell.
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl TimerCell {
    fn new() -> Self {
        TimerCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Histogram bucket for a nanosecond sample: `floor(log2(ns))`, with 0 ns
/// landing in bucket 0.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// A metric store holding every declared counter and timer.
///
/// The process-wide instance behind [`global`] backs the crate's free
/// functions; standalone instances support sharded recording (one registry
/// per worker, snapshots merged afterwards) and hermetic tests.
pub struct Registry {
    counters: Vec<AtomicU64>,
    timers: Vec<TimerCell>,
}

impl Registry {
    /// Create an empty registry with every declared metric at zero.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Registry {
            counters: (0..Ctr::COUNT).map(|_| AtomicU64::new(0)).collect(),
            timers: (0..Tmr::COUNT).map(|_| TimerCell::new()).collect(),
        }
    }

    /// Add `n` to a sum counter.
    pub fn add(&self, c: Ctr, n: u64) {
        debug_assert_eq!(
            c.def().combine,
            Combine::Sum,
            "{} is a peak gauge",
            c.def().name
        );
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a peak gauge to at least `v` (for `Combine::Max` counters).
    pub fn peak(&self, c: Ctr, v: u64) {
        debug_assert_eq!(
            c.def().combine,
            Combine::Max,
            "{} is a sum counter",
            c.def().name
        );
        self.counters[c.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Record one raw nanosecond sample into a timer histogram.
    pub fn record_ns(&self, t: Tmr, ns: u64) {
        self.timers[t.index()].record_ns(ns);
    }

    /// Record an elapsed duration into a timer histogram.
    pub fn record_duration(&self, t: Tmr, d: Duration) {
        self.record_ns(t, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start a phase span; the elapsed time is recorded when it drops.
    pub fn span(&self, t: Tmr) -> Span<'_> {
        Span {
            reg: self,
            t,
            start: Instant::now(),
        }
    }

    /// Capture a consistent-enough snapshot of every metric. Individual
    /// loads are relaxed; exactness is only guaranteed once recording has
    /// quiesced (which is when snapshots are taken: end of command, end of
    /// campaign, end of harness section).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for c in Ctr::all() {
            snap.counters.insert(c.def().name.to_string(), self.get(c));
        }
        for t in Tmr::all() {
            let cell = &self.timers[t.index()];
            let count = cell.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut ts = TimerSnapshot {
                count,
                total_ns: cell.total_ns.load(Ordering::Relaxed),
                max_ns: cell.max_ns.load(Ordering::Relaxed),
                buckets: Default::default(),
            };
            for (i, b) in cell.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    ts.buckets.insert(i as u32, n);
                }
            }
            snap.timers.insert(t.name().to_string(), ts);
        }
        snap
    }
}

/// A drop-guard measuring one phase: created by [`Registry::span`], records
/// its elapsed time into the timer's histogram when dropped.
pub struct Span<'a> {
    reg: &'a Registry,
    t: Tmr,
    start: Instant,
}

impl Span<'_> {
    /// Elapsed time so far, without ending the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.reg.record_duration(self.t, self.start.elapsed());
    }
}

/// The process-wide registry backing the crate's free functions.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn add_and_peak() {
        let r = Registry::new();
        r.add(Ctr::DdgNodesCreated, 3);
        r.add(Ctr::DdgNodesCreated, 4);
        assert_eq!(r.get(Ctr::DdgNodesCreated), 7);
        r.peak(Ctr::AceFrontierPeak, 9);
        r.peak(Ctr::AceFrontierPeak, 5);
        assert_eq!(r.get(Ctr::AceFrontierPeak), 9);
    }

    #[test]
    fn span_records_into_histogram() {
        let r = Registry::new();
        {
            let _s = r.span(Tmr::DdgBuild);
        }
        r.record_ns(Tmr::DdgBuild, 1 << 20);
        let snap = r.snapshot();
        let t = &snap.timers["ddg.build"];
        assert_eq!(t.count, 2);
        assert!(t.max_ns >= 1 << 20);
        assert_eq!(t.buckets.values().sum::<u64>(), 2);
        assert!(t.buckets.contains_key(&20));
    }

    #[test]
    fn snapshot_lists_every_counter() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.counters.len(), Ctr::COUNT);
        assert!(snap.timers.is_empty());
    }
}
