//! The correctness gate: result digests, and the digests pinned in
//! `expected.txt` for seeds 0 and 1 at full size.
//!
//! A timed number is only reported for work whose result is right, so every
//! pass's digests are compared against the warm-up pass, and the warm-up
//! against the pins. A digest is rendered as text and compared as text: a
//! pinned line that is corrupted in any way no longer matches.

use epvf_core::EpvfResult;
use epvf_llfi::{CampaignResult, InjOutcome};
use std::fmt;

/// What one op produced, reduced to the numbers the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Digest {
    /// An analysis: ePVF `f64` bits, crash register bits, use-crash bits.
    Analysis {
        epvf_bits: u64,
        crash_register_bits: u64,
        use_crash_bits: u64,
    },
    /// A campaign: outcome counts per class, and an FNV-1a hash of every
    /// run's `(spec, class)` in draw order.
    Campaign { counts: [u64; 7], runs_fnv: u64 },
    /// The op panicked; never equal to a real result.
    Panicked,
}

impl Digest {
    pub fn of_analysis(r: &EpvfResult) -> Digest {
        Digest::Analysis {
            epvf_bits: r.metrics.epvf.to_bits(),
            crash_register_bits: r.metrics.crash_register_bits,
            use_crash_bits: r.metrics.use_crash_bits,
        }
    }

    pub fn of_campaign(r: &CampaignResult) -> Digest {
        let mut counts = [0u64; 7];
        let mut runs_fnv = 0xcbf2_9ce4_8422_2325u64;
        for (spec, o) in &r.runs {
            let class = match o {
                InjOutcome::Benign => 0,
                InjOutcome::Sdc => 1,
                InjOutcome::Crash(_) => 2,
                InjOutcome::Hang => 3,
                InjOutcome::Detected => 4,
                InjOutcome::TimedOut(_) => 5,
                InjOutcome::Quarantined => 6,
            };
            counts[class] += 1;
            let bytes = [
                &spec.dyn_idx.to_le_bytes()[..],
                &(spec.operand_slot as u64).to_le_bytes(),
                &[spec.bit, class as u8],
            ]
            .concat();
            for b in bytes {
                runs_fnv = (runs_fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Digest::Campaign { counts, runs_fnv }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Digest::Analysis {
                epvf_bits,
                crash_register_bits,
                use_crash_bits,
            } => write!(
                f,
                "epvf={epvf_bits:#018x} crash_register_bits={crash_register_bits} \
                 use_crash_bits={use_crash_bits}"
            ),
            Digest::Campaign {
                counts: c,
                runs_fnv,
            } => write!(
                f,
                "benign={} sdc={} crash={} hang={} detected={} timed_out={} quarantined={} \
                 runs={runs_fnv:#018x}",
                c[0], c[1], c[2], c[3], c[4], c[5], c[6]
            ),
            Digest::Panicked => write!(f, "panicked"),
        }
    }
}

/// The digests of one pass: `(label, digest)` per op, in op order.
pub type Digests = Vec<(String, Digest)>;

/// Seeds whose full-size digests `expected.txt` must pin.
pub const PINNED_SEEDS: [u64; 2] = [0, 1];

/// The committed pins.
pub const EXPECTED: &str = include_str!("expected.txt");

fn render(workload: &str, seed: u64, digests: &Digests) -> Vec<String> {
    digests
        .iter()
        .map(|(label, d)| format!("{workload} {seed} {label} {d}"))
        .collect()
}

/// Check a full-size warm-up pass against the pins in `expected`. Seeds
/// outside [`PINNED_SEEDS`] have no pins and pass; a pinned seed must match
/// its lines exactly, no more and no fewer.
///
/// # Errors
/// A message listing the expected and the observed lines.
pub fn check_pinned(
    expected: &str,
    workload: &str,
    seed: u64,
    digests: &Digests,
) -> Result<(), String> {
    if !PINNED_SEEDS.contains(&seed) {
        return Ok(());
    }
    let prefix = format!("{workload} {seed} ");
    let want: Vec<&str> = expected
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with(&prefix))
        .collect();
    let got = render(workload, seed, digests);
    if want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| *w == g.as_str()) {
        return Ok(());
    }
    Err(format!(
        "{workload} seed {seed}: digests differ from expected.txt\n  expected:\n    {}\n  observed (pin these if the change is intended):\n    {}",
        if want.is_empty() {
            "(none)".to_string()
        } else {
            want.join("\n    ")
        },
        got.join("\n    ")
    ))
}

/// Check that a pass reproduced the reference digests.
///
/// # Errors
/// A message naming the first op that differs.
pub fn check_same(what: &str, reference: &Digests, got: &Digests) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{what}: {} ops, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for ((l, want), (_, have)) in reference.iter().zip(got) {
        if want != have {
            return Err(format!("{what}: {l}: expected {want}, got {have}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests() -> Digests {
        vec![
            (
                "mm".to_string(),
                Digest::Analysis {
                    epvf_bits: 0.25f64.to_bits(),
                    crash_register_bits: 10,
                    use_crash_bits: 20,
                },
            ),
            (
                "bfs".to_string(),
                Digest::Campaign {
                    counts: [5, 1, 2, 0, 0, 0, 0],
                    runs_fnv: 0xabc,
                },
            ),
        ]
    }

    #[test]
    fn pins_match_exactly_and_corruption_is_rejected() {
        let good = render("w", 0, &digests()).join("\n");
        assert!(check_pinned(&good, "w", 0, &digests()).is_ok());
        // Unpinned seeds pass without pins.
        assert!(check_pinned("", "w", 7, &digests()).is_ok());
        // A pinned seed with no pins fails and prints the lines to pin.
        let err = check_pinned("", "w", 1, &digests()).expect_err("missing pins");
        assert!(err.contains("w 1 mm epvf=0x3fd0000000000000"), "{err}");
        // Any corrupted entry is rejected.
        for (from, to) in [
            ("crash_register_bits=10", "crash_register_bits=11"),
            ("0x3fd0000000000000", "0x3fd0000000000001"),
            ("sdc=1", "sdc=2"),
            (" mm ", " mx "),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good);
            assert!(check_pinned(&bad, "w", 0, &digests()).is_err(), "{from}");
        }
        // An extra or a missing line is rejected too.
        let extra = format!("{good}\nw 0 lud panicked");
        assert!(check_pinned(&extra, "w", 0, &digests()).is_err());
        let first = good.lines().next().expect("two lines");
        assert!(check_pinned(first, "w", 0, &digests()).is_err());
    }

    #[test]
    fn committed_pins_cover_both_seeds_of_every_workload() {
        for w in crate::workloads::Workload::ALL {
            for seed in PINNED_SEEDS {
                let prefix = format!("{} {seed} ", w.name());
                assert!(
                    EXPECTED.lines().any(|l| l.starts_with(&prefix)),
                    "expected.txt has no pins for {} seed {seed}",
                    w.name()
                );
            }
        }
        // Every pinned line parses as `workload seed label digest...`.
        for l in EXPECTED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert!(
                f.len() >= 4 && f[1].parse::<u64>().is_ok(),
                "bad pin line {l:?}"
            );
        }
    }

    #[test]
    fn same_digests_pass_and_a_changed_one_fails() {
        assert!(check_same("p", &digests(), &digests()).is_ok());
        let mut d = digests();
        d[1].1 = Digest::Panicked;
        assert!(check_same("p", &digests(), &d).is_err());
        assert!(check_same("p", &digests(), &d[..1].to_vec()).is_err());
    }
}
