//! Property tests for the fault-model layer.
//!
//! Three families, per ISSUE 7 satellite 1:
//!
//! * **Lowering round-trip** — proptest over arbitrary specs: every model
//!   lowers to its advertised effect shape, register-model masks stay
//!   inside the operand width and XOR-restore the injected value, burst
//!   and ECC masks have the promised population counts, and canonical
//!   names survive a parse round trip.
//! * **Enumeration totality** — over a seeded [`Recipe`] corpus, every
//!   spec a model enumerates replays to a concrete outcome without panic
//!   (the exhaustive sweep covers the whole universe).
//! * **Determinism** — the same sweep is identical with 1 and 4 worker
//!   threads, extending the byte-identical contract to every model.

use epvf_core::{
    parse_fault_model, BurstFlip, DestFlip, EccWord, FaultModel, SingleBitFlip, StoreAddr,
};
use epvf_interp::{FaultEffect, InjectionSpec};
use epvf_llfi::{Campaign, CampaignConfig, CampaignError};
use epvf_oracle::{sweep, GenConfig, Recipe};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec_strategy() -> impl Strategy<Value = (InjectionSpec, u32)> {
    // Width 1..=64, bit strictly inside it — the contract site tables
    // uphold: `points()` bounds the bit coordinate.
    (1u32..=64).prop_flat_map(|width| {
        (any::<u64>(), 0usize..3, 0..width).prop_map(move |(dyn_idx, slot, bit)| {
            (
                InjectionSpec {
                    dyn_idx,
                    operand_slot: slot,
                    bit: bit as u8,
                },
                width,
            )
        })
    })
}

fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

proptest! {
    /// Register models (bitflip, burst) lower to an operand XOR whose mask
    /// is nonzero, confined to the operand width, and involutive: applying
    /// the fault twice restores any injected value.
    #[test]
    fn register_masks_are_confined_and_involutive(
        (spec, width) in spec_strategy(),
        burst_bits in 2u32..=8,
        value in any::<u64>(),
    ) {
        let models: [Box<dyn FaultModel>; 2] =
            [Box::new(SingleBitFlip), Box::new(BurstFlip { bits: burst_bits })];
        for m in &models {
            let fault = m.lower(spec, width);
            prop_assert_eq!(fault.dyn_idx, spec.dyn_idx);
            let FaultEffect::OperandXor { slot, mask } = fault.effect else {
                return Err(TestCaseError::fail(format!("{} lowers to OperandXor", m.name())));
            };
            prop_assert_eq!(slot, spec.operand_slot);
            prop_assert_ne!(mask, 0, "{} mask must flip something", m.name());
            prop_assert_eq!(
                mask & !width_mask(width), 0,
                "{} mask escapes a {}-bit operand", m.name(), width
            );
            prop_assert_eq!((value ^ mask) ^ mask, value, "XOR round trip");
        }
    }

    /// Burst masks have exactly `min(bits, width)` set bits — wrapping
    /// within a narrow operand collapses, never escapes.
    #[test]
    fn burst_mask_popcount_is_min_bits_width(
        (spec, width) in spec_strategy(),
        bits in 2u32..=8,
    ) {
        let m = BurstFlip { bits };
        let FaultEffect::OperandXor { mask, .. } = m.lower(spec, width).effect else {
            return Err(TestCaseError::fail("burst lowers to OperandXor"));
        };
        prop_assert_eq!(mask.count_ones(), bits.min(width));
    }

    /// ECC masks are adjacent double-bit patterns (mod word width) — the
    /// uncorrectable SEC-DED class by construction — and carry the model's
    /// window unchanged.
    #[test]
    fn ecc_masks_are_uncorrectable_double_bits(
        (spec, width) in spec_strategy(),
        window in 1u64..10_000,
    ) {
        prop_assume!(width >= 2);
        let m = EccWord { window };
        let FaultEffect::EccFlip { mask, window: w } = m.lower(spec, width).effect else {
            return Err(TestCaseError::fail("ecc lowers to EccFlip"));
        };
        prop_assert_eq!(w, window);
        prop_assert_eq!(mask.count_ones(), 2, "SEC-DED must not correct the strike");
        prop_assert_eq!(mask & !width_mask(width), 0, "mask stays inside the word");
        // Adjacency mod width: some rotation of the mask is 0b11.
        let b = spec.bit as u32 % width;
        prop_assert_eq!(mask, (1u64 << b) | (1u64 << ((b + 1) % width)));
    }

    /// Store-address faults flip exactly one address bit, independent of
    /// the operand width.
    #[test]
    fn store_addr_masks_are_single_bits((spec, width) in spec_strategy()) {
        let FaultEffect::AddrXor { mask } = StoreAddr.lower(spec, width).effect else {
            return Err(TestCaseError::fail("store-addr lowers to AddrXor"));
        };
        prop_assert_eq!(mask.count_ones(), 1);
        prop_assert_eq!(mask, 1u64 << (spec.bit & 63));
    }

    /// Destination faults flip exactly one bit of the defined value.
    #[test]
    fn dest_masks_are_single_result_bits((spec, width) in spec_strategy()) {
        let FaultEffect::ResultXor { mask } = DestFlip.lower(spec, width).effect else {
            return Err(TestCaseError::fail("dest lowers to ResultXor"));
        };
        prop_assert_eq!(mask, 1u64 << (spec.bit & 63));
    }

    /// Canonical names round-trip through the parser for every
    /// parameterization.
    #[test]
    fn names_round_trip_through_parser(bits in 2u32..=8, window in 1u64..10_000) {
        let models: [Box<dyn FaultModel>; 4] = [
            Box::new(BurstFlip { bits }),
            Box::new(EccWord { window }),
            Box::new(SingleBitFlip),
            Box::new(DestFlip),
        ];
        for m in &models {
            let name = m.name();
            let parsed = parse_fault_model(&name)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
            prop_assert_eq!(parsed.name(), name);
        }
    }
}

const MODELS: [&str; 7] = [
    "bitflip",
    "dest",
    "burst:3",
    "skip",
    "wrong-branch",
    "store-addr",
    "ecc:50",
];

/// Every spec every model enumerates on a generated program replays to a
/// concrete outcome (no panic, nothing unexecuted), and the sweep is
/// byte-identical across worker-thread counts.
#[test]
fn enumeration_totality_and_thread_determinism_on_recipe_corpus() {
    let mut swept_nonempty = 0u32;
    for seed in [3u64, 11, 42, 2026] {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipe = Recipe::random(&mut rng, &GenConfig::default());
        let module = recipe.emit();
        for model_str in MODELS {
            let model = parse_fault_model(model_str).expect("model parses");
            let serial_cfg = CampaignConfig {
                threads: 1,
                ..CampaignConfig::default()
            };
            let serial = match Campaign::with_model(&module, "main", &[], serial_cfg, model.clone())
            {
                Ok(c) => c,
                // A recipe with no stores (or no conditionals) is a
                // vacuously empty universe for some models, and the
                // campaign refuses to build — legitimate, not a
                // totality failure.
                Err(CampaignError::NoInjectableSites) => continue,
                Err(e) => panic!("seed {seed} under {model_str}: {e:?}"),
            };
            let gt1 = sweep(&serial, 0);
            assert!(
                gt1.is_exhaustive(),
                "seed {seed} under {model_str}: {} of {} specs executed",
                gt1.runs.len(),
                gt1.universe
            );
            let parallel_cfg = CampaignConfig {
                threads: 4,
                ..CampaignConfig::default()
            };
            let parallel = Campaign::with_model(&module, "main", &[], parallel_cfg, model)
                .expect("golden run completes");
            let gt4 = sweep(&parallel, 0);
            assert_eq!(
                gt1.runs, gt4.runs,
                "seed {seed} under {model_str}: sweep depends on thread count"
            );
            if !gt1.runs.is_empty() {
                swept_nonempty += 1;
            }
        }
    }
    // The corpus must actually exercise the models: most (recipe, model)
    // pairs should enumerate a nonempty universe.
    assert!(
        swept_nonempty >= 12,
        "only {swept_nonempty} nonempty sweeps — corpus too thin"
    );
}
