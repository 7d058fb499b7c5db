//! Point-in-time metric values, detached from the atomic store: merged
//! across sharded registries, compared by the invariant tests, checked
//! against the pipeline's conservation laws, and serialized by
//! [`crate::MetricsReport`].

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::{counter_def_by_name, Combine};

/// A merge that would carry a sum past `u64::MAX`. No process records
/// such a total (its own registry would have wrapped first), so the inputs
/// are corrupt or hostile and the merge refuses them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOverflow {
    /// The counter or timer whose sum overflows.
    pub metric: String,
}

impl fmt::Display for MergeOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "merging `{}` overflows u64", self.metric)
    }
}

impl std::error::Error for MergeOverflow {}

/// Snapshot of one timer histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Largest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Non-empty log₂-ns buckets: `floor(log2(ns)) -> samples`.
    pub buckets: BTreeMap<u32, u64>,
}

impl TimerSnapshot {
    /// Mean sample in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// The two histograms folded into one, or `None` if a count or sum
    /// would pass `u64::MAX`.
    pub fn merged(&self, other: &TimerSnapshot) -> Option<TimerSnapshot> {
        let mut buckets = self.buckets.clone();
        for (&b, &n) in &other.buckets {
            let slot = buckets.entry(b).or_insert(0);
            *slot = slot.checked_add(n)?;
        }
        Some(TimerSnapshot {
            count: self.count.checked_add(other.count)?,
            total_ns: self.total_ns.checked_add(other.total_ns)?,
            max_ns: self.max_ns.max(other.max_ns),
            buckets,
        })
    }
}

/// Point-in-time values of every declared metric, keyed by dotted name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values (every declared counter is present, zeros included).
    pub counters: BTreeMap<String, u64>,
    /// Timer histograms (only timers with at least one sample).
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, treating absent keys as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one, routing each counter by its
    /// schema's [`Combine`]: sum counters add; `Max` gauges (and counters
    /// absent from the schema, for forward compatibility) take the
    /// maximum. Both operations are associative and commutative, so
    /// per-worker shards can be merged in any order and grouping — the
    /// contract `tests/prop_registry.rs` exercises.
    ///
    /// # Errors
    /// [`MergeOverflow`] if a sum would pass `u64::MAX`; `self` is then
    /// unchanged.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), MergeOverflow> {
        let mut merged = self.clone();
        for (name, &v) in &other.counters {
            match counter_def_by_name(name).map(|d| d.combine) {
                Some(Combine::Sum) => merged.add(name, v)?,
                Some(Combine::Max) | None => merged.peak(name, v),
            }
        }
        for (name, t) in &other.timers {
            let slot = merged.timers.entry(name.clone()).or_default();
            *slot = slot.merged(t).ok_or_else(|| MergeOverflow {
                metric: name.clone(),
            })?;
        }
        *self = merged;
        Ok(())
    }

    /// Add `v` to a sum counter.
    fn add(&mut self, name: &str, v: u64) -> Result<(), MergeOverflow> {
        debug_assert_eq!(
            counter_def_by_name(name).map(|d| d.combine),
            Some(Combine::Sum),
            "{name} is not a sum counter"
        );
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.checked_add(v).ok_or_else(|| MergeOverflow {
            metric: name.to_string(),
        })?;
        Ok(())
    }

    /// Raise a peak gauge, or a counter outside the schema, to at least `v`.
    fn peak(&mut self, name: &str, v: u64) {
        debug_assert_ne!(
            counter_def_by_name(name).map(|d| d.combine),
            Some(Combine::Sum),
            "{name} is a sum counter"
        );
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// The subset of counters whose definitions are marked invariant —
    /// required to be byte-identical across `--threads` and
    /// `--ckpt-interval` for the same command.
    pub fn invariant_subset(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| {
                counter_def_by_name(name)
                    .map(|d| d.invariant)
                    .unwrap_or(false)
            })
            .map(|(name, &v)| (name.clone(), v))
            .collect()
    }

    /// Check the pipeline's conservation laws; returns one message per
    /// violation (empty = consistent). Only laws that hold for *every*
    /// command mix are checked here — stricter per-command equalities
    /// (e.g. golden instructions retired == trace length for a single
    /// `analyze`) live in the CLI invariant tests.
    ///
    /// A law's sums are checked: a sum past `u64::MAX` breaks the law, and
    /// its message says so, where wrapping would pass or fail it by
    /// accident.
    pub fn check_conservation(&self) -> Vec<String> {
        let c = |n: &str| self.counter(n);
        let sum = |names: &[&str]| names.iter().try_fold(0u64, |acc, n| acc.checked_add(c(n)));
        let mut violations = Vec::new();
        let mut law = |ok: bool, msg: String| {
            if !ok {
                violations.push(msg);
            }
        };

        let class_sum = sum(&[
            "llfi.campaign.runs_crash",
            "llfi.campaign.runs_sdc",
            "llfi.campaign.runs_benign",
            "llfi.campaign.runs_hang",
            "llfi.campaign.runs_detected",
            "llfi.campaign.runs_timed_out",
            "llfi.campaign.runs_quarantined",
        ]);
        law(
            class_sum == Some(c("llfi.campaign.runs_total")),
            format!(
                "campaign outcome classes sum to {}, expected runs_total = {}",
                shown(class_sum),
                c("llfi.campaign.runs_total")
            ),
        );
        law(
            c("llfi.wal.flushes") <= c("llfi.wal.records_appended"),
            // Flushes are batched: at most one OS flush per appended
            // record, usually far fewer.
            format!(
                "WAL flushed {} times but only {} records were appended",
                c("llfi.wal.flushes"),
                c("llfi.wal.records_appended")
            ),
        );
        law(
            c("llfi.campaign.early_benign") <= c("llfi.campaign.runs_benign"),
            format!(
                "early_benign ({}) exceeds runs_benign ({})",
                c("llfi.campaign.early_benign"),
                c("llfi.campaign.runs_benign")
            ),
        );
        let ecc_resolved = sum(&[
            "memsim.ecc.detected",
            "memsim.ecc.corrected",
            "memsim.ecc.overwritten",
            "memsim.ecc.expired",
        ]);
        law(
            // Every planted ECC error resolves exactly once: consumed
            // (detected or corrected), overwritten, or scrubbed at the
            // window close (errors still pending when a run terminates are
            // flushed as expired).
            ecc_resolved == Some(c("memsim.ecc.raised")),
            format!(
                "ECC resolutions sum to {}, expected raised = {}",
                shown(ecc_resolved),
                c("memsim.ecc.raised")
            ),
        );
        law(
            c("ace.nodes_visited") <= c("ddg.nodes_created"),
            format!(
                "ACE reverse-BFS visited {} nodes but only {} DDG nodes were created",
                c("ace.nodes_visited"),
                c("ddg.nodes_created")
            ),
        );
        let golden_accesses = sum(&["interp.golden.loads", "interp.golden.stores"]);
        law(
            golden_accesses.is_some_and(|n| n <= c("interp.golden.insts_retired")),
            format!(
                "golden loads+stores ({}) exceed golden instructions retired ({})",
                shown(golden_accesses),
                c("interp.golden.insts_retired")
            ),
        );
        let accesses = sum(&["interp.loads", "interp.stores"]);
        law(
            accesses.is_some_and(|n| n <= c("interp.insts_retired")),
            format!(
                "loads+stores ({}) exceed instructions retired ({})",
                shown(accesses),
                c("interp.insts_retired")
            ),
        );
        law(
            c("interp.golden.insts_retired") <= c("interp.insts_retired"),
            format!(
                "golden instructions retired ({}) exceed total retired ({})",
                c("interp.golden.insts_retired"),
                c("interp.insts_retired")
            ),
        );
        law(
            c("llfi.sampler.executed") <= c("llfi.sampler.allocated"),
            format!(
                "sampler executed {} runs but only {} were allocated",
                c("llfi.sampler.executed"),
                c("llfi.sampler.allocated")
            ),
        );
        law(
            c("llfi.sampler.executed") <= c("llfi.campaign.runs_total"),
            // Every sampled run goes through the supervised campaign path,
            // which counts it in runs_total; exhaustive campaigns add more.
            format!(
                "sampler executed {} runs but campaigns only classified {}",
                c("llfi.sampler.executed"),
                c("llfi.campaign.runs_total")
            ),
        );
        law(
            // Every serve campaign resolves its golden artifacts exactly
            // once: from the cache or by a fresh golden run.
            sum(&["serve.cache.hits", "serve.cache.misses"]) == Some(c("serve.campaigns")),
            format!(
                "serve cache hits ({}) + misses ({}) must equal campaigns served ({})",
                c("serve.cache.hits"),
                c("serve.cache.misses"),
                c("serve.campaigns")
            ),
        );
        law(
            // Every section run a compositional analysis considers resolves
            // exactly once: replayed from the cache or recomputed.
            sum(&["analyze.cache.hits", "analyze.cache.misses"])
                == Some(c("analyze.cache.sections")),
            format!(
                "section cache hits ({}) + misses ({}) must equal sections considered ({})",
                c("analyze.cache.hits"),
                c("analyze.cache.misses"),
                c("analyze.cache.sections")
            ),
        );
        law(
            // A corrupt persisted summary is always recomputed, never reused.
            c("analyze.cache.corrupt") <= c("analyze.cache.misses"),
            format!(
                "corrupt section summaries ({}) exceed cache misses ({})",
                c("analyze.cache.corrupt"),
                c("analyze.cache.misses")
            ),
        );
        law(
            // Summaries are stored only after a miss recomputed them.
            c("analyze.cache.stored") <= c("analyze.cache.misses"),
            format!(
                "section summaries stored ({}) exceed cache misses ({})",
                c("analyze.cache.stored"),
                c("analyze.cache.misses")
            ),
        );
        law(
            // Every spawn is either a shard's first attempt or a restart.
            sum(&["supervisor.shards", "supervisor.restarts"]) == Some(c("supervisor.spawned")),
            format!(
                "supervisor spawned {} workers, expected shards ({}) + restarts ({})",
                c("supervisor.spawned"),
                c("supervisor.shards"),
                c("supervisor.restarts")
            ),
        );
        law(
            // Restarts only happen in response to an observed failure.
            sum(&["supervisor.hangs", "supervisor.crashes"])
                .is_some_and(|n| c("supervisor.restarts") <= n),
            format!(
                "supervisor restarted {} workers but observed only {} hangs + {} crashes",
                c("supervisor.restarts"),
                c("supervisor.hangs"),
                c("supervisor.crashes")
            ),
        );
        law(
            // A worker must have been spawned before it can fail.
            sum(&["supervisor.hangs", "supervisor.crashes"])
                .is_some_and(|n| n <= c("supervisor.spawned")),
            format!(
                "supervisor observed {} hangs + {} crashes but spawned only {} workers",
                c("supervisor.hangs"),
                c("supervisor.crashes"),
                c("supervisor.spawned")
            ),
        );
        let confusion = sum(&[
            "oracle.diff.true_positives",
            "oracle.diff.false_positives",
            "oracle.diff.false_negatives",
            "oracle.diff.true_negatives",
        ]);
        law(
            confusion.is_some_and(|n| n <= c("oracle.sweep.flips")),
            format!(
                "oracle confusion matrix covers {} flips but only {} were swept",
                shown(confusion),
                c("oracle.sweep.flips")
            ),
        );
        violations
    }
}

/// A checked sum of counters as a law's message shows it.
fn shown(total: Option<u64>) -> String {
    total.map_or_else(|| "more than u64::MAX".to_string(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::{MetricsSnapshot, TimerSnapshot};
    use crate::metrics::{Ctr, Tmr};
    use crate::registry::Registry;

    #[test]
    fn merge_sums_and_maxes() {
        let a = Registry::new();
        a.add(Ctr::DdgNodesCreated, 10);
        a.peak(Ctr::AceFrontierPeak, 4);
        a.record_ns(Tmr::DdgBuild, 100);
        let b = Registry::new();
        b.add(Ctr::DdgNodesCreated, 5);
        b.peak(Ctr::AceFrontierPeak, 9);
        b.record_ns(Tmr::DdgBuild, 300);

        let mut m = a.snapshot();
        m.merge(&b.snapshot()).expect("no overflow");
        assert_eq!(m.counter("ddg.nodes_created"), 15);
        assert_eq!(m.counter("ace.bfs_frontier_peak"), 9);
        let t = &m.timers["ddg.build"];
        assert_eq!(t.count, 2);
        assert_eq!(t.total_ns, 400);
        assert_eq!(t.max_ns, 300);
    }

    #[test]
    fn merge_refuses_an_overflowing_sum_and_keeps_its_input() {
        let mut a = MetricsSnapshot::default();
        a.counters
            .insert("llfi.campaign.runs_crash".into(), u64::MAX);
        a.counters.insert("ace.bfs_frontier_peak".into(), u64::MAX);
        let before = a.clone();
        let mut b = a.clone();
        b.counters.insert("llfi.campaign.runs_crash".into(), 1);
        let err = a.merge(&b).expect_err("u64::MAX + 1 overflows");
        assert_eq!(err.metric, "llfi.campaign.runs_crash");
        assert_eq!(a, before, "a refused merge changes nothing");
        // A peak gauge takes the maximum, which cannot overflow.
        b.counters.remove("llfi.campaign.runs_crash");
        a.merge(&b).expect("max of two gauges");
        assert_eq!(a, before);

        let mut t = MetricsSnapshot::default();
        t.timers.insert(
            "ddg.build".into(),
            TimerSnapshot {
                count: 1,
                total_ns: u64::MAX,
                max_ns: u64::MAX,
                buckets: [(63, 1)].into(),
            },
        );
        let err = t.clone().merge(&t).expect_err("total_ns overflows");
        assert_eq!(err.metric, "ddg.build");
    }

    #[test]
    fn conservation_reports_an_overflowing_sum_as_a_violation() {
        let mut m = MetricsSnapshot::default();
        m.counters
            .insert("llfi.campaign.runs_crash".into(), u64::MAX);
        m.counters.insert("llfi.campaign.runs_sdc".into(), 14);
        m.counters.insert("llfi.campaign.runs_total".into(), 13);
        let v = m.check_conservation();
        assert_eq!(
            v,
            ["campaign outcome classes sum to more than u64::MAX, expected runs_total = 13"]
        );
    }

    #[test]
    fn invariant_subset_filters_replay_dependent_counters() {
        let r = Registry::new();
        r.add(Ctr::CampaignRunsTotal, 7);
        r.add(Ctr::CampaignEarlyBenign, 3);
        let inv = r.snapshot().invariant_subset();
        assert_eq!(inv.get("llfi.campaign.runs_total"), Some(&7));
        assert!(!inv.contains_key("llfi.campaign.early_benign"));
    }

    #[test]
    fn conservation_catches_class_sum_mismatch() {
        let r = Registry::new();
        assert!(r.snapshot().check_conservation().is_empty());
        r.add(Ctr::CampaignRunsTotal, 10);
        r.add(Ctr::CampaignRunsCrash, 4);
        r.add(Ctr::CampaignRunsBenign, 5);
        let v = r.snapshot().check_conservation();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("runs_total"));
        r.add(Ctr::CampaignRunsSdc, 1);
        assert!(r.snapshot().check_conservation().is_empty());
    }

    #[test]
    fn conservation_catches_ace_exceeding_ddg() {
        let r = Registry::new();
        r.add(Ctr::AceNodesVisited, 3);
        let v = r.snapshot().check_conservation();
        assert!(v.iter().any(|m| m.contains("ACE reverse-BFS")));
    }
}
