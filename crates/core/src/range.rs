//! Inclusive value ranges and crash-bit enumeration.
//!
//! The propagation model tracks, for every register use on the backward
//! slice of a memory address, the inclusive range of values that do *not*
//! produce an out-of-bounds access. A bit of the runtime value is a **crash
//! bit** iff flipping it moves the value outside that range (paper
//! Algorithm 2, line 14: "bits that make the value of op outside
//! (new_max, new_min)").

use serde::{Deserialize, Serialize};
use std::fmt;

/// An inclusive `[lo, hi]` range of unsigned 64-bit values.
///
/// The paper's Table III assumes operands are non-negative integers; all
/// arithmetic here is unsigned with saturation at the boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValueRange {
    /// Smallest allowed value.
    pub lo: u64,
    /// Largest allowed value.
    pub hi: u64,
}

impl ValueRange {
    /// The unconstrained range.
    pub const FULL: ValueRange = ValueRange {
        lo: 0,
        hi: u64::MAX,
    };

    /// Construct from the two ends as given. An inverted pair (`lo > hi`)
    /// is kept as it is: it contains no value, so every flip of any value
    /// crashes.
    pub fn new(lo: u64, hi: u64) -> Self {
        ValueRange { lo, hi }
    }

    /// Whether the range admits every value (no crash bits ever).
    pub fn is_full(self) -> bool {
        self.lo == 0 && self.hi == u64::MAX
    }

    /// Whether `v` is inside the range.
    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection (tightest common constraint). A fault crashes if it
    /// violates *any* downstream constraint, so constraints compose by
    /// intersection.
    pub fn intersect(self, other: ValueRange) -> ValueRange {
        ValueRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether `other` is a strictly tighter constraint than `self`
    /// (propagation re-queues a node only when its range shrinks).
    pub fn tighter_than(self, other: ValueRange) -> bool {
        (self.lo > other.lo || self.hi < other.hi) && self.intersect(other) == self
    }

    /// Bit positions (below `width`) of `value` whose flip leaves the range.
    pub fn crash_bits(self, value: u64, width: u32) -> Vec<u8> {
        (0..width.min(64) as u8)
            .filter(|b| !self.contains(value ^ (1u64 << b)))
            .collect()
    }

    /// Number of crash bits of `value` below `width`.
    ///
    /// For a value inside the range this is closed-form: flipping a clear
    /// bit `b` adds `2^b`, which crashes iff `2^b > hi - value`, and
    /// flipping a set bit subtracts `2^b`, which crashes iff
    /// `2^b > value - lo`. A value outside the range (an inverted pair, or
    /// `check_boundary`'s `[0, 0]` fallback) takes the bit-by-bit count.
    pub fn crash_bit_count(self, value: u64, width: u32) -> u32 {
        if !self.contains(value) {
            return self.crash_bit_count_by_flips(value, width);
        }
        // The bits `b` with `2^b > d`.
        let above = |d: u64| u64::MAX.checked_shl(64 - d.leading_zeros()).unwrap_or(0);
        let wmask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        ((!value & above(self.hi - value) & wmask).count_ones())
            + ((value & above(value - self.lo) & wmask).count_ones())
    }

    /// [`Self::crash_bit_count`] by flipping each bit in turn.
    fn crash_bit_count_by_flips(self, value: u64, width: u32) -> u32 {
        (0..width.min(64))
            .filter(|b| !self.contains(value ^ (1u64 << b)))
            .count() as u32
    }

    /// Whether flipping bit `bit` of `value` violates the range — the
    /// point query used by the recall/precision evaluation.
    pub fn flip_crashes(self, value: u64, bit: u8) -> bool {
        !self.contains(value ^ (1u64 << (bit & 63)))
    }
}

impl Default for ValueRange {
    fn default() -> Self {
        ValueRange::FULL
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_intersection() {
        let r = ValueRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
        let s = ValueRange::new(15, 30);
        assert_eq!(r.intersect(s), ValueRange::new(15, 20));
        assert!(ValueRange::FULL.is_full());
        assert_eq!(ValueRange::FULL.intersect(r), r);
    }

    #[test]
    fn tighter_than() {
        let wide = ValueRange::new(0, 100);
        let narrow = ValueRange::new(10, 50);
        assert!(narrow.tighter_than(wide));
        assert!(!wide.tighter_than(narrow));
        assert!(!wide.tighter_than(wide));
    }

    #[test]
    fn crash_bits_of_heap_like_address() {
        // Address 0x2000_0010 valid in [0x2000_0000, 0x2000_0FFF]:
        // high-bit flips escape, low-bit flips stay inside.
        let r = ValueRange::new(0x2000_0000, 0x2000_0FFF);
        let v = 0x2000_0010u64;
        let bits = r.crash_bits(v, 64);
        assert!(!bits.contains(&0), "bit 0 flip stays in segment");
        assert!(!bits.contains(&5), "bit 5 flip stays in segment");
        assert!(bits.contains(&12), "bit 12 flip exits the 4KiB window");
        assert!(bits.contains(&63), "sign-ish bit flip exits");
        assert_eq!(r.crash_bit_count(v, 64) as usize, bits.len());
    }

    #[test]
    fn full_range_has_no_crash_bits() {
        assert_eq!(ValueRange::FULL.crash_bit_count(123, 64), 0);
        assert!(ValueRange::FULL.crash_bits(123, 64).is_empty());
    }

    #[test]
    fn flip_crashes_point_query() {
        let r = ValueRange::new(0x100, 0x1FF);
        assert!(!r.flip_crashes(0x180, 0)); // 0x181 in range
        assert!(r.flip_crashes(0x180, 9)); // 0x080 below range
    }

    /// The closed form against the bit-by-bit count, on seeded random
    /// inputs plus the cases drawn on purpose: the full range, point
    /// ranges, values at either end, values outside, inverted pairs, and
    /// widths from 0 to past 64.
    #[test]
    fn closed_form_crash_bit_count_equals_flipping_each_bit() {
        let mut state = 0x5eed_u64;
        // SplitMix64.
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200_000u32 {
            let (a, b, c) = (next(), next(), next());
            // Narrow some draws so small ranges and nearby values show up.
            let shrink = |x: u64, k: u64| {
                if k.is_multiple_of(3) {
                    x >> (k % 64)
                } else {
                    x
                }
            };
            let (a, b) = (shrink(a, c), shrink(b, c >> 8));
            let (lo, hi) = (a.min(b), a.max(b));
            let range = match case % 8 {
                0 => ValueRange::FULL,
                1 => ValueRange::new(lo, lo),
                2 => ValueRange::new(hi, lo), // inverted unless equal
                _ => ValueRange::new(lo, hi),
            };
            let span = range.hi.wrapping_sub(range.lo).wrapping_add(1);
            let value = match (case / 8) % 5 {
                0 => range.lo,
                1 => range.hi,
                2 => range.lo.wrapping_sub(1 + c % 4),
                3 => range.hi.wrapping_add(1 + c % 4),
                _ if span == 0 => c,
                _ => range.lo.wrapping_add(c % span),
            };
            let in_word = 1 + (c >> 32) as u32 % 64;
            let past_word = 65 + (c >> 40) as u32 % 1000;
            for width in [0, 1, 8, 16, 32, 63, 64, in_word, past_word, u32::MAX] {
                assert_eq!(
                    range.crash_bit_count(value, width),
                    range.crash_bit_count_by_flips(value, width),
                    "{range} value {value:#x} width {width}"
                );
            }
        }
    }

    #[test]
    fn width_limits_enumeration() {
        let r = ValueRange::new(0, 0); // only zero allowed
        assert_eq!(r.crash_bit_count(0, 8), 8);
        assert_eq!(r.crash_bit_count(0, 64), 64);
        assert_eq!(r.crash_bits(0, 3), vec![0, 1, 2]);
    }
}
