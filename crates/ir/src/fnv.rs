//! FNV-1a, the one hash behind every identity the workspace persists or
//! caches: WAL fingerprints and checksums, section content hashes, and
//! section-summary keys and checksums. Its values live in file headers,
//! names and trailers, so the tests pin the published test vectors.

use std::fmt;

const OFFSET64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME64: u64 = 0x0000_0100_0000_01b3;
const OFFSET32: u32 = 0x811c_9dc5;
const PRIME32: u32 = 0x0100_0193;

/// Streaming FNV-1a/64. Integers hash as their little-endian bytes, and the
/// `fmt::Write` impl hashes `Display` text without building a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher over no bytes yet.
    #[inline]
    pub const fn new() -> Fnv64 {
        Fnv64(OFFSET64)
    }

    /// Continue from a finished hash (FNV-1a's whole state is its output):
    /// `resume(h.finish())` then more writes equals writing all to `h`.
    #[inline]
    pub const fn resume(hash: u64) -> Fnv64 {
        Fnv64(hash)
    }

    /// Hash `bytes`.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME64);
        }
    }

    /// Hash one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Hash `v` as 4 little-endian bytes.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash `v` as 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl fmt::Write for Fnv64 {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a/32 of `bytes`: the per-record checksum of WAL and `EPVFSEC1`
/// files.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(OFFSET32, |h, &b| (h ^ u32::from(b)).wrapping_mul(PRIME32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn matches_the_published_test_vectors() {
        let fnv64 = |b: &[u8]| {
            let mut h = Fnv64::new();
            h.bytes(b);
            h.finish()
        };
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn typed_writes_text_and_resume_hash_the_same_bytes() {
        let mut whole = Fnv64::new();
        whole.bytes(b"x=7\x05\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\xfe");
        let mut typed = Fnv64::new();
        write!(typed, "x={}", 7).unwrap();
        let mut typed = Fnv64::resume(typed.finish());
        typed.u32(5);
        typed.u64(9);
        typed.u8(0xfe);
        assert_eq!(typed, whole);
    }
}
