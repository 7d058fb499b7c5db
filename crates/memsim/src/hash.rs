//! The one in-memory hasher for maps keyed by machine words.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative word hasher (the Fx construction) for the in-memory maps
/// keyed by words: the simulator's page numbers, and the byte addresses and
/// late dynamic value ids of the DDG builder. Those keys come from the
/// program under analysis, not from an adversary, so SipHash's flooding
/// resistance buys nothing here, and its cost dominated the hot loops that
/// look them up. Nothing persisted depends on it: map order never reaches a
/// cache file or a report.
///
/// The product's low bits depend only on the key's low bits, and the map
/// picks buckets by the low bits. Keys whose low bits are constant (page
/// *addresses*, say) would all share one bucket, so key by the varying part
/// (the page *number*).
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
