//! Campaign sharding: deterministic partition of a campaign's spec list
//! across independent OS processes, and the merge that folds the shards'
//! outcomes back into a result byte-identical to the single-process run.
//!
//! A campaign is pinned by its fingerprint (module text, entry, args, the
//! seeded spec list, and the fault model — see [`CampaignKey`](crate::CampaignKey)),
//! so *which* runs exist is decided before any shard starts. Sharding only
//! partitions the draw order: shard `i` of `S` owns every global spec index
//! `g` with `g % S == i` (strided, so all shards see the same mix of early
//! and late injection points and finish in comparable time). Each shard
//! executes its slice with its own WAL — records carry the *global* index —
//! and a merge recombines the WALs into the full outcome vector. Because
//! every run's outcome is a pure function of its spec, the merged
//! [`CampaignResult`] equals the single-process one exactly; the summary,
//! telemetry outcome counters, and confusion matrix follow.
//!
//! [`ShardOutcomes`] is the partial function `global index → (spec,
//! outcome)`. Merging is a disjoint union (duplicate indices must agree);
//! [`ShardOutcomes::into_result`] checks the union is total over the spec
//! list and re-derives the [`CampaignResult`].

use crate::campaign::{CampaignResult, InjOutcome};
use crate::wal::RecoveredWal;
use epvf_interp::InjectionSpec;
use std::collections::BTreeMap;
use std::fmt;

/// One shard's coordinates in a partition: `index` of `of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    of: usize,
}

impl ShardSpec {
    /// The trivial 1-way partition (shard 0 of 1 = the whole campaign).
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, of: 1 };

    /// Validate `index < of` (and `of >= 1`).
    pub fn new(index: usize, of: usize) -> Option<ShardSpec> {
        (of >= 1 && index < of).then_some(ShardSpec { index, of })
    }

    /// This shard's position in the partition.
    pub fn index(self) -> usize {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn of(self) -> usize {
        self.of
    }

    /// Whether this shard owns global spec index `g`.
    pub fn owns(self, global: usize) -> bool {
        global % self.of == self.index
    }

    /// Global index of this shard's `local`-th owned spec.
    pub fn to_global(self, local: usize) -> usize {
        local * self.of + self.index
    }

    /// Position of owned global index `g` within this shard's slice.
    /// Callers must check [`Self::owns`] first.
    pub fn to_local(self, global: usize) -> usize {
        debug_assert!(self.owns(global));
        global / self.of
    }

    /// Global indices owned by this shard out of a campaign of `n` specs,
    /// ascending.
    pub fn indices(self, n: usize) -> impl Iterator<Item = usize> {
        (self.index..n).step_by(self.of)
    }

    /// Number of specs this shard owns out of `n`.
    pub fn count(self, n: usize) -> usize {
        (n + self.of - 1 - self.index) / self.of
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// Why shard outcomes could not be merged into a campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Two shards recorded different `(spec, outcome)` payloads for the
    /// same global index — the inputs cannot come from one partition of
    /// one campaign.
    Conflict {
        /// The contested global spec index.
        index: usize,
    },
    /// The union does not cover this global index: a shard is missing or
    /// was interrupted before finishing its slice.
    Incomplete {
        /// First uncovered global spec index.
        index: usize,
        /// Covered / total counts, for the error message.
        have: usize,
        /// Total specs the campaign draws.
        want: usize,
    },
    /// A record's index lies outside the campaign's spec list.
    OutOfRange {
        /// The out-of-range global index.
        index: usize,
        /// Number of specs the campaign draws.
        n: usize,
    },
    /// A record's stored spec differs from the campaign's drawn spec at
    /// that index — the WAL belongs to a different seed or spec list.
    SpecMismatch {
        /// The global index whose spec disagrees.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Conflict { index } => {
                write!(f, "shards disagree about run {index} (conflicting records)")
            }
            MergeError::Incomplete { index, have, want } => write!(
                f,
                "merged shards cover {have}/{want} runs; first missing run is {index} \
                 (a shard is missing or unfinished — resume it first)"
            ),
            MergeError::OutOfRange { index, n } => write!(
                f,
                "record index {index} is outside the campaign's {n} specs"
            ),
            MergeError::SpecMismatch { index } => write!(
                f,
                "record {index} stores a different spec than the campaign draws there \
                 (wrong seed or spec list)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Partial campaign outcomes keyed by *global* spec index — what one shard
/// (or any union of shards) knows. The merge is a disjoint union; agreeing
/// duplicates are tolerated (merging a shard with itself is idempotent),
/// disagreeing ones are a [`MergeError::Conflict`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOutcomes {
    outcomes: BTreeMap<usize, (InjectionSpec, InjOutcome)>,
}

impl ShardOutcomes {
    /// No outcomes — the merge identity.
    pub fn empty() -> ShardOutcomes {
        ShardOutcomes::default()
    }

    /// Wrap a finished shard run: `result` holds the shard's slice in
    /// local draw order; indices are lifted back to global via `shard`.
    pub fn from_run(shard: ShardSpec, result: &CampaignResult) -> ShardOutcomes {
        ShardOutcomes {
            outcomes: result
                .runs
                .iter()
                .enumerate()
                .map(|(local, &(spec, o))| (shard.to_global(local), (spec, o)))
                .collect(),
        }
    }

    /// Wrap outcomes recovered from a shard WAL (records already carry
    /// global indices).
    pub fn from_recovered(rec: &RecoveredWal) -> ShardOutcomes {
        ShardOutcomes {
            outcomes: rec.outcomes.clone(),
        }
    }

    /// The known `global index → (spec, outcome)` entries.
    pub fn outcomes(&self) -> &BTreeMap<usize, (InjectionSpec, InjOutcome)> {
        &self.outcomes
    }

    /// Number of known outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Disjoint-union merge (associative, commutative, identity
    /// [`Self::empty`]).
    ///
    /// # Errors
    /// [`MergeError::Conflict`] if the same index carries different
    /// payloads in the two operands.
    pub fn merge(mut self, other: ShardOutcomes) -> Result<ShardOutcomes, MergeError> {
        for (index, payload) in other.outcomes {
            match self.outcomes.insert(index, payload) {
                Some(prev) if prev != payload => return Err(MergeError::Conflict { index }),
                _ => {}
            }
        }
        Ok(self)
    }

    /// Check totality over `specs` and materialize the single-process
    /// [`CampaignResult`]: every global index `0..specs.len()` must be
    /// covered, carry exactly the drawn spec, and nothing outside the
    /// range may be present. Quarantine payloads are not persisted in
    /// WALs, so the rebuilt result carries outcome classifications only
    /// (`Quarantined` runs keep their class; the payload list is empty).
    ///
    /// # Errors
    /// [`MergeError::OutOfRange`], [`MergeError::SpecMismatch`], or
    /// [`MergeError::Incomplete`].
    pub fn into_result(self, specs: &[InjectionSpec]) -> Result<CampaignResult, MergeError> {
        let want = specs.len();
        if let Some((&index, _)) = self.outcomes.range(want..).next() {
            return Err(MergeError::OutOfRange { index, n: want });
        }
        let have = self.outcomes.len();
        let mut runs = Vec::with_capacity(want);
        for (index, &expected) in specs.iter().enumerate() {
            let Some(&(spec, outcome)) = self.outcomes.get(&index) else {
                return Err(MergeError::Incomplete { index, have, want });
            };
            if spec != expected {
                return Err(MergeError::SpecMismatch { index });
            }
            runs.push((spec, outcome));
        }
        Ok(CampaignResult {
            runs,
            quarantines: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::TimeoutKind;

    fn spec(dyn_idx: u64, slot: usize, bit: u8) -> InjectionSpec {
        InjectionSpec {
            dyn_idx,
            operand_slot: slot,
            bit,
        }
    }

    #[test]
    fn strided_partition_is_exact() {
        for of in 1..=7 {
            for n in [0usize, 1, 5, 16, 17] {
                let mut seen = vec![false; n];
                for index in 0..of {
                    let shard = ShardSpec::new(index, of).unwrap();
                    let idxs: Vec<usize> = shard.indices(n).collect();
                    assert_eq!(idxs.len(), shard.count(n), "{shard} over {n}");
                    for (local, &g) in idxs.iter().enumerate() {
                        assert!(shard.owns(g));
                        assert_eq!(shard.to_global(local), g);
                        assert_eq!(shard.to_local(g), local);
                        assert!(!seen[g], "index {g} owned twice");
                        seen[g] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "partition covers 0..{n}");
            }
        }
    }

    #[test]
    fn shard_spec_validates() {
        assert!(ShardSpec::new(0, 0).is_none());
        assert!(ShardSpec::new(3, 3).is_none());
        assert!(ShardSpec::new(2, 3).is_some());
        assert_eq!(ShardSpec::WHOLE, ShardSpec::new(0, 1).unwrap());
        assert_eq!(ShardSpec::new(2, 5).unwrap().to_string(), "2/5");
    }

    fn outcomes(entries: &[(usize, InjectionSpec, InjOutcome)]) -> ShardOutcomes {
        let mut s = ShardOutcomes::empty();
        for &(i, sp, o) in entries {
            s.outcomes.insert(i, (sp, o));
        }
        s
    }

    #[test]
    fn shard_outcome_union_rebuilds_the_full_result() {
        let specs = [spec(1, 0, 0), spec(2, 0, 1), spec(3, 1, 2), spec(4, 0, 3)];
        let a = outcomes(&[
            (0, specs[0], InjOutcome::Benign),
            (2, specs[2], InjOutcome::Sdc),
        ]);
        let b = outcomes(&[
            (1, specs[1], InjOutcome::Hang),
            (3, specs[3], InjOutcome::TimedOut(TimeoutKind::Fuel)),
        ]);
        let ab = a.clone().merge(b.clone()).unwrap();
        let ba = b.merge(a).unwrap();
        assert_eq!(ab, ba, "merge is commutative");
        let result = ab.into_result(&specs).unwrap();
        assert_eq!(result.n(), 4);
        assert_eq!(result.runs[1], (specs[1], InjOutcome::Hang));
    }

    #[test]
    fn merge_rejects_conflicts_and_tolerates_agreement() {
        let s = spec(9, 0, 5);
        let a = outcomes(&[(0, s, InjOutcome::Benign)]);
        let same = a.clone().merge(a.clone()).unwrap();
        assert_eq!(same, a, "self-merge is idempotent");
        let b = outcomes(&[(0, s, InjOutcome::Sdc)]);
        assert_eq!(a.merge(b).unwrap_err(), MergeError::Conflict { index: 0 });
    }

    #[test]
    fn into_result_checks_totality_and_spec_identity() {
        let specs = [spec(1, 0, 0), spec(2, 0, 1)];
        let missing = outcomes(&[(0, specs[0], InjOutcome::Benign)]);
        assert!(matches!(
            missing.into_result(&specs),
            Err(MergeError::Incomplete { index: 1, .. })
        ));
        let extra = outcomes(&[
            (0, specs[0], InjOutcome::Benign),
            (1, specs[1], InjOutcome::Benign),
            (2, spec(3, 0, 0), InjOutcome::Benign),
        ]);
        assert!(matches!(
            extra.into_result(&specs),
            Err(MergeError::OutOfRange { index: 2, n: 2 })
        ));
        let wrong = outcomes(&[
            (0, specs[0], InjOutcome::Benign),
            (1, spec(7, 7, 7), InjOutcome::Benign),
        ]);
        assert!(matches!(
            wrong.into_result(&specs),
            Err(MergeError::SpecMismatch { index: 1 })
        ));
    }
}
