//! Property tests for the telemetry registry's merge algebra.
//!
//! The campaign scheduler snapshots per-worker registries and folds them
//! in whatever order the workers finish, so [`MetricsSnapshot::merge`]
//! must be associative and commutative — otherwise the emitted metrics
//! would depend on thread scheduling and the cross-thread invariance
//! tests could never hold.

use epvf_telemetry::{Combine, MetricsSnapshot, Registry, ALL_CTRS, ALL_TMRS, COUNTER_DEFS};
use proptest::prelude::*;

/// One recording op: counter slot and amount.
type Op = (usize, u64);

/// Record one op the way production code does: `add` on `Sum` counters,
/// `peak` on `Max` ones. Mixing the two on one slot would not commute
/// across threads, so the properties could not hold.
fn record(reg: &Registry, (slot, amount): Op) {
    let c = ALL_CTRS[slot % ALL_CTRS.len()];
    match COUNTER_DEFS[c.index()].combine {
        Combine::Sum => reg.add(c, amount),
        Combine::Max => reg.peak(c, amount),
    }
}

/// Apply one shard's ops on its own thread (the registry API is `&self`,
/// so recording is concurrent with the other shards) and snapshot it.
fn record_shards(shards: &[Vec<Op>]) -> Vec<MetricsSnapshot> {
    let registries: Vec<Registry> = shards.iter().map(|_| Registry::new()).collect();
    std::thread::scope(|s| {
        for (reg, ops) in registries.iter().zip(shards) {
            s.spawn(move || {
                for &(slot, amount) in ops {
                    record(reg, (slot, amount));
                    reg.record_ns(ALL_TMRS[slot % ALL_TMRS.len()], amount + 1);
                }
            });
        }
    });
    registries.iter().map(Registry::snapshot).collect()
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut m = a.clone();
    m.merge(b).expect("recorded totals stay below u64::MAX");
    m
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..64, 0u64..1_000_000), 0..40)
}

proptest! {
    /// `merge` is commutative: folding worker shards in either order
    /// yields the same counters and timer histograms.
    #[test]
    fn merge_is_commutative(a in ops(), b in ops()) {
        let snaps = record_shards(&[a, b]);
        prop_assert_eq!(
            merged(&snaps[0], &snaps[1]),
            merged(&snaps[1], &snaps[0])
        );
    }

    /// `merge` is associative: any grouping of the shard fold agrees.
    #[test]
    fn merge_is_associative(a in ops(), b in ops(), c in ops()) {
        let snaps = record_shards(&[a, b, c]);
        let left = merged(&merged(&snaps[0], &snaps[1]), &snaps[2]);
        let right = merged(&snaps[0], &merged(&snaps[1], &snaps[2]));
        prop_assert_eq!(left, right);
    }

    /// Concurrent recording into ONE registry loses nothing: splitting an
    /// op list across threads gives the same snapshot as applying it
    /// sequentially.
    #[test]
    fn concurrent_recording_is_lossless(all_ops in ops(), threads in 2usize..5) {
        let concurrent = Registry::new();
        std::thread::scope(|s| {
            for chunk in all_ops.chunks(all_ops.len().div_ceil(threads).max(1)) {
                let concurrent = &concurrent;
                s.spawn(move || {
                    for &op in chunk {
                        record(concurrent, op);
                    }
                });
            }
        });
        let sequential = Registry::new();
        for &op in &all_ops {
            record(&sequential, op);
        }
        prop_assert_eq!(concurrent.snapshot(), sequential.snapshot());
    }
}
