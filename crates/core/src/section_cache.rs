//! The persistent section-summary cache.
//!
//! The compositional engine ([`crate::analyze_compositional`]) records, per
//! section run, the *net effect* of the propagation pass — the final
//! [`Constraint`] of every `CrashMap` key the run wrote — keyed by a
//! fingerprint of everything the run reads (section content, backward-
//! closure structure, boundary ranges, live-in constraints). This module
//! stores those summaries: always in memory, and optionally on disk in
//! checksummed single-record files written with
//! [`epvf_telemetry::atomic_write`], mirroring the WAL record discipline of
//! `epvf-llfi` (magic + version + FNV-1a/32 trailing checksum).
//!
//! A persisted summary that fails *any* decode check — short file, wrong
//! magic, wrong version, key echo mismatch, bad checksum, trailing bytes —
//! is counted as corrupt, treated as a miss, and recomputed; it is never
//! silently reused. Telemetry lives inside [`SectionCache::lookup`] /
//! [`SectionCache::store`] so the `analyze.cache.hits + misses == sections`
//! conservation law holds for every caller by construction.

use crate::propagation::Constraint;
use crate::range::ValueRange;
use epvf_ir::fnv1a32;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic of a persisted section summary.
const SECT_MAGIC: &[u8; 8] = b"EPVFSEC1";
/// On-disk format version; also folded into every cache key so a format
/// bump invalidates stale summaries even before decode.
pub(crate) const SECT_VERSION: u32 = 1;
/// Serialized size of one [`SummaryOp`].
const OP_BYTES: usize = 37;

/// What kind of `CrashMap` key a [`SummaryOp`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum OpTarget {
    /// A use constraint: `target` is the discovery ref of the closure node
    /// whose defining record carries the use; `slot` the operand index.
    Use,
    /// A node constraint: `target` is the node's discovery ref.
    Node,
}

/// One recorded final constraint — the unit of a section summary.
///
/// `target` is a *discovery reference*: the index of a node in the
/// section's deterministic backward-closure order
/// ([`epvf_ddg::Ddg::backward_closure_ordered`]), never an absolute
/// `NodeId` or trace index, so a summary recorded against one trace
/// replays against any isomorphic one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SummaryOp {
    /// Which map the constraint goes into.
    pub kind: OpTarget,
    /// Discovery reference of the closure node.
    pub target: u32,
    /// Operand slot (uses only; 0 for nodes).
    pub slot: u32,
    /// The final constraint.
    pub constraint: Constraint,
}

impl SummaryOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self.kind {
            OpTarget::Use => 0,
            OpTarget::Node => 1,
        });
        out.extend_from_slice(&self.target.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.extend_from_slice(&self.constraint.range.lo.to_le_bytes());
        out.extend_from_slice(&self.constraint.range.hi.to_le_bytes());
        out.extend_from_slice(&self.constraint.value.to_le_bytes());
        out.extend_from_slice(&self.constraint.width.to_le_bytes());
    }

    fn decode(b: &[u8]) -> Option<SummaryOp> {
        if b.len() != OP_BYTES {
            return None;
        }
        let u32le = |r: &[u8]| u32::from_le_bytes(r.try_into().unwrap());
        let u64le = |r: &[u8]| u64::from_le_bytes(r.try_into().unwrap());
        let kind = match b[0] {
            0 => OpTarget::Use,
            1 => OpTarget::Node,
            _ => return None,
        };
        Some(SummaryOp {
            kind,
            target: u32le(&b[1..5]),
            slot: u32le(&b[5..9]),
            constraint: Constraint {
                range: ValueRange::new(u64le(&b[9..17]), u64le(&b[17..25])),
                value: u64le(&b[25..33]),
                width: u32le(&b[33..37]),
            },
        })
    }
}

/// Hit/miss accounting of one cache instance (mirrors the global
/// `analyze.cache.*` telemetry counters, scoped to this cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Section runs looked up.
    pub sections: u64,
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that required recomputation.
    pub misses: u64,
    /// Persisted summaries rejected by a decode check (subset of misses).
    pub corrupt: u64,
    /// Summaries written after a miss.
    pub stored: u64,
}

/// The section-summary cache: an in-memory map, optionally backed by a
/// directory of checksummed summary files.
#[derive(Debug)]
pub struct SectionCache {
    dir: Option<PathBuf>,
    mem: HashMap<u64, Arc<Vec<SummaryOp>>>,
    stats: CacheStats,
}

impl SectionCache {
    /// A purely in-memory cache (no persistence), for reuse within one
    /// process.
    pub fn in_memory() -> SectionCache {
        SectionCache {
            dir: None,
            mem: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// A cache persisted under `dir` (created if missing).
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<SectionCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SectionCache {
            dir: Some(dir),
            mem: HashMap::new(),
            stats: CacheStats::default(),
        })
    }

    /// Every key held in memory, sorted.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.mem.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// This cache's hit/miss accounting.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn path_of(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.sect"))
    }

    /// Look up a section summary. Exactly one of hit/miss is counted per
    /// call (the `hits + misses == sections` law).
    pub(crate) fn lookup(&mut self, key: u64) -> Option<Arc<Vec<SummaryOp>>> {
        use epvf_telemetry::{add, Ctr};
        self.stats.sections += 1;
        add(Ctr::AnalyzeCacheSections, 1);
        if let Some(ops) = self.mem.get(&key) {
            self.stats.hits += 1;
            add(Ctr::AnalyzeCacheHits, 1);
            return Some(Arc::clone(ops));
        }
        // An absent (or unreadable) file is a plain miss; a readable but
        // undecodable one is detected corruption: recompute, never reuse.
        if let Some(dir) = self.dir.as_deref() {
            if let Ok(bytes) = std::fs::read(Self::path_of(dir, key)) {
                match decode_summary(&bytes, key) {
                    Some(ops) => {
                        let ops = Arc::new(ops);
                        self.mem.insert(key, Arc::clone(&ops));
                        self.stats.hits += 1;
                        add(Ctr::AnalyzeCacheHits, 1);
                        return Some(ops);
                    }
                    None => {
                        self.stats.corrupt += 1;
                        add(Ctr::AnalyzeCacheCorrupt, 1);
                    }
                }
            }
        }
        self.stats.misses += 1;
        add(Ctr::AnalyzeCacheMisses, 1);
        None
    }

    /// Store a freshly computed summary. Disk write failures are
    /// non-fatal: the summary still serves this process from memory.
    pub(crate) fn store(&mut self, key: u64, ops: Vec<SummaryOp>) {
        use epvf_telemetry::{add, Ctr};
        let ops = Arc::new(ops);
        if let Some(dir) = self.dir.as_deref() {
            let bytes = encode_summary(key, &ops);
            let _ = epvf_telemetry::atomic_write(&Self::path_of(dir, key), &bytes);
        }
        self.mem.insert(key, ops);
        self.stats.stored += 1;
        add(Ctr::AnalyzeCacheStored, 1);
    }
}

/// Serialize: magic + version + key echo + op count + ops + FNV-1a/32 over
/// everything after the magic.
fn encode_summary(key: u64, ops: &[SummaryOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 8 + 4 + ops.len() * OP_BYTES + 4);
    out.extend_from_slice(SECT_MAGIC);
    out.extend_from_slice(&SECT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        op.encode_into(&mut out);
    }
    let sum = fnv1a32(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Strict inverse of [`encode_summary`]; `None` on any integrity failure.
fn decode_summary(bytes: &[u8], expect_key: u64) -> Option<Vec<SummaryOp>> {
    const HEADER: usize = 8 + 4 + 8 + 4;
    if bytes.len() < HEADER + 4 || &bytes[..8] != SECT_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let sum = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if fnv1a32(&body[8..]) != sum {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SECT_VERSION {
        return None;
    }
    let key = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if key != expect_key {
        return None;
    }
    let n = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    if body.len() != HEADER + n * OP_BYTES {
        return None;
    }
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        ops.push(SummaryOp::decode(
            &body[HEADER + i * OP_BYTES..HEADER + (i + 1) * OP_BYTES],
        )?);
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<SummaryOp> {
        vec![
            SummaryOp {
                kind: OpTarget::Use,
                target: 3,
                slot: 1,
                constraint: Constraint {
                    range: ValueRange::new(0x1000, 0x1fff),
                    value: 0x1200,
                    width: 64,
                },
            },
            SummaryOp {
                kind: OpTarget::Node,
                target: 7,
                slot: 0,
                constraint: Constraint {
                    range: ValueRange::new(5, 9),
                    value: 6,
                    width: 32,
                },
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let bytes = encode_summary(0xdead_beef, &ops());
        assert_eq!(decode_summary(&bytes, 0xdead_beef), Some(ops()));
    }

    #[test]
    fn decode_rejects_all_corruption_classes() {
        let good = encode_summary(42, &ops());
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert_eq!(decode_summary(&good[..cut], 42), None, "cut at {cut}");
        }
        // Single-bit flips anywhere in the file.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert_eq!(decode_summary(&bad, 42), None, "flip in byte {byte}");
        }
        // Version skew with a recomputed (valid) checksum.
        let mut skewed = good.clone();
        skewed[8..12].copy_from_slice(&(SECT_VERSION + 1).to_le_bytes());
        let len = skewed.len();
        let sum = fnv1a32(&skewed[8..len - 4]);
        skewed[len - 4..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_summary(&skewed, 42), None, "version skew");
        // Key echo mismatch (file renamed to another key's slot).
        assert_eq!(decode_summary(&good, 43), None, "key echo");
        // Trailing garbage.
        let mut long = good.clone();
        long.extend_from_slice(&[0; 5]);
        assert_eq!(decode_summary(&long, 42), None, "trailing bytes");
    }

    #[test]
    fn in_memory_cache_counts_hits_and_misses() {
        let mut c = SectionCache::in_memory();
        assert!(c.lookup(1).is_none());
        c.store(1, ops());
        assert_eq!(c.lookup(1).as_deref(), Some(&ops()));
        assert!(c.lookup(2).is_none());
        let s = c.stats();
        assert_eq!((s.sections, s.hits, s.misses), (3, 1, 2));
        assert_eq!(s.hits + s.misses, s.sections);
        assert_eq!((s.corrupt, s.stored), (0, 1));
    }

    #[test]
    fn persistent_cache_survives_reopen_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("epvf-sect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = SectionCache::persistent(&dir).expect("create");
            assert!(c.lookup(9).is_none());
            c.store(9, ops());
        }
        // A fresh instance reads the persisted summary.
        let mut c = SectionCache::persistent(&dir).expect("reopen");
        assert_eq!(c.lookup(9).as_deref(), Some(&ops()));
        assert_eq!(c.stats().hits, 1);
        // Corrupt the file on disk: detected, counted, treated as a miss.
        let path = dir.join(format!("{:016x}.sect", 9u64));
        let mut bytes = std::fs::read(&path).expect("file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut c = SectionCache::persistent(&dir).expect("reopen");
        assert!(c.lookup(9).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
