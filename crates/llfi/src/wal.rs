//! Crash-safe write-ahead log of completed injection-run outcomes.
//!
//! A campaign told to persist (`epvf inject --wal FILE`) appends one
//! fixed-layout record per finished run. If the process dies — SIGKILL,
//! OOM, power loss — a later `--resume` invocation recovers every intact
//! record, re-runs only the missing specs, and reproduces byte-identical
//! aggregates.
//!
//! ## On-disk format
//!
//! ```text
//! header:  "EPVFWAL1"  (8 bytes)  ++  fingerprint (u64 LE)
//! record:  len (u32 LE)  ++  payload (len bytes)  ++  fnv1a32(payload) (u32 LE)
//! payload: index (u64 LE) ++ dyn_idx (u64 LE) ++ operand_slot (u32 LE)
//!          ++ bit (u8) ++ outcome tag (u8) ++ outcome subtag (u8)
//! ```
//!
//! The fingerprint is a [`CampaignKey`]'s, binding the log to one exact
//! campaign, so a stale WAL from a different command is rejected instead
//! of silently merged. Records are checksummed individually; recovery
//! stops at the first torn or corrupt record and keeps everything before
//! it — exactly the tail a crash mid-append can damage. Duplicate indices (possible when a crash
//! lands between the outcome being applied and the batch being flushed
//! on a later resume) are deduplicated latest-wins.

use crate::campaign::{Campaign, InjOutcome};
use crate::sampler::SamplerConfig;
use crate::shard::ShardSpec;
use epvf_core::DEFAULT_MODEL;
use epvf_interp::{CrashKind, InjectionSpec, TimeoutKind};
use epvf_ir::{fnv1a32, Fnv64};
use epvf_telemetry::Ctr;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every WAL file (format version 1).
pub const WAL_MAGIC: &[u8; 8] = b"EPVFWAL1";

/// Flush to the OS after this many buffered records.
const FLUSH_BATCH: usize = 64;

/// Which runs a campaign executes.
#[derive(Debug, Clone, Copy)]
pub enum Draw<'a> {
    /// An explicit, ordered spec list (`epvf inject`, `shard`, `merge`).
    Specs(&'a [InjectionSpec]),
    /// An adaptive campaign (`epvf inject --sample`), whose spec sequence
    /// is a pure function of the campaign and this configuration.
    Sampler(SamplerConfig),
}

/// The identity of one campaign execution: module text, entry, args, the
/// draw, the fault model, and the shard. A WAL header carries its
/// [`fingerprint`](CampaignKey::fingerprint), and
/// [`recover`](WalSink::recover) refuses a log stamped with another.
pub struct CampaignKey<'a> {
    inputs: Inputs<'a>,
    shard: ShardSpec,
}

enum Inputs<'a> {
    Parts {
        module: &'a dyn fmt::Display,
        entry: &'a str,
        args: &'a [u64],
        draw: Draw<'a>,
        model: Cow<'a, str>,
    },
    /// The fingerprint of some `Parts` under [`ShardSpec::WHOLE`].
    Hashed(u64),
}

impl<'a> CampaignKey<'a> {
    /// The whole campaign over `module`'s text under fault model `model`
    /// (a canonical [`FaultModel::name`](epvf_core::FaultModel::name)).
    pub fn new(
        module: &'a dyn fmt::Display,
        entry: &'a str,
        args: &'a [u64],
        draw: Draw<'a>,
        model: impl Into<Cow<'a, str>>,
    ) -> Self {
        CampaignKey {
            inputs: Inputs::Parts {
                module,
                entry,
                args,
                draw,
                model: model.into(),
            },
            shard: ShardSpec::WHOLE,
        }
    }

    /// The whole of `campaign` drawing `draw`.
    pub fn of(campaign: &'a Campaign<'_>, draw: Draw<'a>) -> Self {
        Self::new(
            campaign.module(),
            campaign.entry(),
            campaign.args(),
            draw,
            campaign.model().name(),
        )
    }

    /// The key whose whole-campaign fingerprint is `whole`: shards of it
    /// fingerprint without the campaign inputs at hand.
    pub fn hashed(whole: u64) -> Self {
        CampaignKey {
            inputs: Inputs::Hashed(whole),
            shard: ShardSpec::WHOLE,
        }
    }

    /// The same campaign restricted to `shard`.
    pub fn shard(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// The 64-bit FNV-1a fingerprint a WAL header stores: the key's fields
    /// in order, delimited by the separator bytes `0xff`..`0xfb` below. The
    /// default model and the whole partition add nothing, so a plain
    /// single-bit-flip `epvf inject --wal` log, a `shard --index 0 --of 1`
    /// log, and logs written before models and shards existed all share
    /// one fingerprint.
    pub fn fingerprint(&self) -> u64 {
        use fmt::Write as _;
        let mut h = match &self.inputs {
            Inputs::Hashed(whole) => Fnv64::resume(*whole),
            Inputs::Parts {
                module,
                entry,
                args,
                draw,
                model,
            } => {
                let mut h = Fnv64::new();
                // 0xff closes the module text and the entry (never a
                // UTF-8 byte); the args are 8 bytes each.
                let _ = write!(h, "{module}");
                h.u8(0xff);
                h.bytes(entry.as_bytes());
                h.u8(0xff);
                for &a in *args {
                    h.u64(a);
                }
                match draw {
                    // 0xfe: an explicit spec list, 13 bytes per spec.
                    Draw::Specs(specs) => {
                        h.u8(0xfe);
                        for s in *specs {
                            h.u64(s.dyn_idx);
                            h.u32(s.operand_slot as u32);
                            h.u8(s.bit);
                        }
                    }
                    // 0xfd: an adaptive campaign's sampler configuration.
                    Draw::Sampler(c) => {
                        h.u8(0xfd);
                        h.u64(c.target_ci.to_bits());
                        h.u64(c.pilot as u64);
                        h.u64(c.batch as u64);
                        h.u64(c.max_runs as u64);
                        h.u64(c.seed);
                    }
                }
                // 0xfc: a non-default fault model's canonical name, so the
                // same coordinates under two models never cross-resume.
                if model != DEFAULT_MODEL {
                    h.u8(0xfc);
                    h.bytes(model.as_bytes());
                }
                h
            }
        };
        // 0xfb: a real partition's (index, of), so a shard log never
        // resumes or merges under another geometry, and `epvf merge` can
        // tell which shard wrote a log by its header.
        if self.shard.of() > 1 {
            h.u8(0xfb);
            h.u64(self.shard.index() as u64);
            h.u64(self.shard.of() as u64);
        }
        h.finish()
    }
}

/// Fingerprint of an exhaustive default-model campaign over `specs`:
/// [`CampaignKey::fingerprint`] of [`Draw::Specs`].
pub fn wal_fingerprint(
    module_text: &str,
    entry: &str,
    args: &[u64],
    specs: &[InjectionSpec],
) -> u64 {
    CampaignKey::new(&module_text, entry, args, Draw::Specs(specs), DEFAULT_MODEL).fingerprint()
}

/// Fingerprint of shard `index` of `of` of the campaign whose whole
/// fingerprint is `base`: [`CampaignKey::hashed`] restricted to the shard.
/// The whole partition (`of <= 1`), like any invalid geometry, is `base`.
pub fn wal_fingerprint_shard(base: u64, index: usize, of: usize) -> u64 {
    let shard = ShardSpec::new(index, of).unwrap_or(ShardSpec::WHOLE);
    CampaignKey::hashed(base).shard(shard).fingerprint()
}

/// Length of a WAL header: magic plus fingerprint.
const HEADER_LEN: usize = WAL_MAGIC.len() + 8;

/// The fingerprint in a WAL file's leading bytes, or why they are not a
/// WAL header: a short or foreign prefix.
fn decode_header(head: &[u8]) -> Result<u64, WalError> {
    let magic = head.len().min(WAL_MAGIC.len());
    if head[..magic] != WAL_MAGIC[..magic] {
        return Err(WalError::BadMagic);
    }
    let fp = head
        .get(WAL_MAGIC.len()..HEADER_LEN)
        .ok_or(WalError::TruncatedHeader)?;
    Ok(u64::from_le_bytes(fp.try_into().expect("8 bytes")))
}

/// Read just the fingerprint from a WAL header without recovering the
/// records — how `epvf merge` matches each input file to its shard.
///
/// # Errors
/// [`WalError::BadMagic`] / [`WalError::TruncatedHeader`] for files that
/// are not WALs, [`WalError::Io`] on filesystem failures.
pub fn read_wal_fingerprint(path: &Path) -> Result<u64, WalError> {
    let mut head = Vec::with_capacity(HEADER_LEN);
    File::open(path)?
        .take(HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    decode_header(&head)
}

/// Why a WAL could not be opened or recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// Header shorter than magic + fingerprint.
    TruncatedHeader,
    /// The log belongs to a different campaign (module/entry/args/specs).
    FingerprintMismatch {
        /// Fingerprint of the campaign being resumed.
        expected: u64,
        /// Fingerprint recorded in the WAL header.
        found: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic)"),
            WalError::TruncatedHeader => write!(f, "WAL header truncated"),
            WalError::FingerprintMismatch { expected, found } => write!(
                f,
                "WAL belongs to a different campaign \
                 (expected fingerprint {expected:#018x}, file has {found:#018x}); \
                 delete it or rerun without --resume"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Outcomes salvaged from an existing WAL by [`RecoveredWal::read`].
#[derive(Debug, Default)]
pub struct RecoveredWal {
    /// `spec-list index -> (spec, outcome)` for every intact record
    /// (latest record wins on duplicate indices).
    pub outcomes: BTreeMap<usize, (InjectionSpec, InjOutcome)>,
    /// Records dropped because a torn tail or checksum failure cut the
    /// scan short (everything from the first bad frame on).
    pub torn: u64,
    /// Duplicate-index records superseded by a later record.
    pub duplicates: u64,
    /// Byte offset of the end of the last intact record — the resume
    /// point the file is truncated to before appending continues.
    pub valid_len: u64,
}

impl RecoveredWal {
    /// Read the WAL at `path` without changing it: verify magic and
    /// fingerprint, then scan intact records, stopping at the first torn
    /// or checksum-failing frame. `epvf merge` reads shard logs this way;
    /// [`WalSink::recover`] reads, then truncates and appends.
    ///
    /// # Errors
    /// [`WalError::BadMagic`] / [`WalError::TruncatedHeader`] for files
    /// that are not WALs, [`WalError::FingerprintMismatch`] when the log
    /// belongs to a different campaign, and [`WalError::Io`] on
    /// filesystem failures.
    pub fn read(path: &Path, fingerprint: u64) -> Result<RecoveredWal, WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let found = decode_header(&bytes)?;
        if found != fingerprint {
            return Err(WalError::FingerprintMismatch {
                expected: fingerprint,
                found,
            });
        }

        let mut rec = RecoveredWal {
            valid_len: HEADER_LEN as u64,
            ..RecoveredWal::default()
        };
        let mut pos = HEADER_LEN;
        while pos < bytes.len() {
            // A torn or corrupt frame drops everything from it on: its
            // length prefix cannot be trusted to find the next one.
            let Some(((index, spec, outcome), framed)) = decode_record(&bytes[pos..]) else {
                rec.torn += 1;
                break;
            };
            if rec.outcomes.insert(index, (spec, outcome)).is_some() {
                rec.duplicates += 1;
            }
            pos += framed;
            rec.valid_len = pos as u64;
        }
        epvf_telemetry::add(Ctr::WalRecordsRecovered, rec.outcomes.len() as u64);
        epvf_telemetry::add(Ctr::WalRecordsTorn, rec.torn);
        epvf_telemetry::add(Ctr::WalDuplicatesDropped, rec.duplicates);
        Ok(rec)
    }
}

fn encode_outcome(o: InjOutcome) -> (u8, u8) {
    match o {
        InjOutcome::Benign => (0, 0),
        InjOutcome::Sdc => (1, 0),
        InjOutcome::Crash(CrashKind::Segfault) => (2, 0),
        InjOutcome::Crash(CrashKind::Abort) => (2, 1),
        InjOutcome::Crash(CrashKind::Misaligned) => (2, 2),
        InjOutcome::Crash(CrashKind::Arithmetic) => (2, 3),
        InjOutcome::Hang => (3, 0),
        InjOutcome::Detected => (4, 0),
        InjOutcome::TimedOut(TimeoutKind::Fuel) => (5, 0),
        InjOutcome::TimedOut(TimeoutKind::Deadline) => (5, 1),
        InjOutcome::Quarantined => (6, 0),
    }
}

fn decode_outcome(tag: u8, sub: u8) -> Option<InjOutcome> {
    Some(match (tag, sub) {
        (0, 0) => InjOutcome::Benign,
        (1, 0) => InjOutcome::Sdc,
        (2, 0) => InjOutcome::Crash(CrashKind::Segfault),
        (2, 1) => InjOutcome::Crash(CrashKind::Abort),
        (2, 2) => InjOutcome::Crash(CrashKind::Misaligned),
        (2, 3) => InjOutcome::Crash(CrashKind::Arithmetic),
        (3, 0) => InjOutcome::Hang,
        (4, 0) => InjOutcome::Detected,
        (5, 0) => InjOutcome::TimedOut(TimeoutKind::Fuel),
        (5, 1) => InjOutcome::TimedOut(TimeoutKind::Deadline),
        (6, 0) => InjOutcome::Quarantined,
        _ => return None,
    })
}

/// Payload length of every record (the format is fixed-width).
const PAYLOAD_LEN: usize = 8 + 8 + 4 + 1 + 1 + 1;

fn encode_payload(index: usize, spec: InjectionSpec, outcome: InjOutcome) -> [u8; PAYLOAD_LEN] {
    let (tag, sub) = encode_outcome(outcome);
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..8].copy_from_slice(&(index as u64).to_le_bytes());
    p[8..16].copy_from_slice(&spec.dyn_idx.to_le_bytes());
    p[16..20].copy_from_slice(&(spec.operand_slot as u32).to_le_bytes());
    p[20] = spec.bit;
    p[21] = tag;
    p[22] = sub;
    p
}

fn decode_payload(p: &[u8]) -> Option<(usize, InjectionSpec, InjOutcome)> {
    if p.len() != PAYLOAD_LEN {
        return None;
    }
    let index = u64::from_le_bytes(p[0..8].try_into().ok()?);
    let dyn_idx = u64::from_le_bytes(p[8..16].try_into().ok()?);
    let slot = u32::from_le_bytes(p[16..20].try_into().ok()?);
    let spec = InjectionSpec {
        dyn_idx,
        operand_slot: slot as usize,
        bit: p[20],
    };
    let outcome = decode_outcome(p[21], p[22])?;
    Some((usize::try_from(index).ok()?, spec, outcome))
}

/// The record framed at the start of `bytes` and its framed length, or
/// `None` for a torn or corrupt frame.
fn decode_record(bytes: &[u8]) -> Option<((usize, InjectionSpec, InjOutcome), usize)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let payload = bytes.get(4..4 + len)?;
    let sum = u32::from_le_bytes(bytes.get(4 + len..8 + len)?.try_into().ok()?);
    if sum != fnv1a32(payload) {
        return None;
    }
    Some((decode_payload(payload)?, 8 + len))
}

struct WalInner {
    file: File,
    buf: Vec<u8>,
    pending: usize,
    first_error: Option<io::Error>,
}

impl WalInner {
    /// Hand the buffered records to the OS. `sync` additionally forces
    /// them to stable storage: batch flushes skip it (a killed *process*
    /// cannot lose page-cache writes, and per-batch fsync costs ~10% of
    /// campaign wall time), while the end-of-campaign flush pays it once
    /// to also survive power loss.
    fn flush_locked(&mut self, sync: bool) {
        if self.buf.is_empty() {
            if sync {
                self.record_error(self.file.sync_data());
            }
            return;
        }
        let mut r = self.file.write_all(&self.buf);
        if sync {
            r = r.and_then(|()| self.file.sync_data());
        }
        self.buf.clear();
        self.pending = 0;
        // Only a flush that actually moved bytes counts — the conservation
        // law requires flushes <= records_appended.
        epvf_telemetry::add(Ctr::WalFlushes, 1);
        self.record_error(r);
    }

    fn record_error(&mut self, r: io::Result<()>) {
        if let (Err(e), None) = (r, self.first_error.as_ref()) {
            self.first_error = Some(e);
        }
    }
}

/// Thread-safe appender for a campaign's WAL. Workers share one sink;
/// appends are buffered and flushed to the OS every `FLUSH_BATCH`
/// records (and once more when the campaign finishes).
///
/// Write errors do not abort the campaign mid-flight (the in-memory
/// result is still valid); the first one is kept and surfaced by
/// [`WalSink::take_error`] so the CLI can exit with its I/O code.
pub struct WalSink {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

impl fmt::Debug for WalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalSink").field("path", &self.path).finish()
    }
}

impl WalSink {
    /// Start a fresh WAL at `path` (truncating any previous file),
    /// stamped with `fingerprint`.
    ///
    /// # Errors
    /// Propagates filesystem errors creating or writing the header.
    pub fn create(path: &Path, fingerprint: u64) -> Result<WalSink, WalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&fingerprint.to_le_bytes())?;
        file.sync_data()?;
        Ok(WalSink::over(path, file))
    }

    fn over(path: &Path, file: File) -> WalSink {
        WalSink {
            path: path.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                pending: 0,
                first_error: None,
            }),
        }
    }

    /// Recover an existing WAL: [`RecoveredWal::read`] it, truncate the
    /// file back to the last intact record, and reopen it for appending.
    ///
    /// # Errors
    /// As [`RecoveredWal::read`].
    pub fn recover(path: &Path, fingerprint: u64) -> Result<(WalSink, RecoveredWal), WalError> {
        let rec = RecoveredWal::read(path, fingerprint)?;
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(rec.valid_len)?;
        Ok((WalSink::over(path, file), rec))
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed run. Buffered; flushed every
    /// `FLUSH_BATCH` records.
    pub fn append(&self, index: usize, spec: InjectionSpec, outcome: InjOutcome) {
        let payload = encode_payload(index, spec, outcome);
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .buf
            .extend_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        inner.buf.extend_from_slice(&payload);
        inner
            .buf
            .extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        inner.pending += 1;
        epvf_telemetry::add(Ctr::WalRecordsAppended, 1);
        if inner.pending >= FLUSH_BATCH {
            inner.flush_locked(false);
        }
    }

    /// Flush any buffered records to the OS.
    pub fn flush(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .flush_locked(true);
    }

    /// The first write error hit so far, if any (clears it).
    pub fn take_error(&self) -> Option<io::Error> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .first_error
            .take()
    }
}

impl Drop for WalSink {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            inner.flush_locked(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("epvf-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn spec(dyn_idx: u64, slot: usize, bit: u8) -> InjectionSpec {
        InjectionSpec {
            dyn_idx,
            operand_slot: slot,
            bit,
        }
    }

    #[test]
    fn outcome_codec_round_trips() {
        let all = [
            InjOutcome::Benign,
            InjOutcome::Sdc,
            InjOutcome::Crash(CrashKind::Segfault),
            InjOutcome::Crash(CrashKind::Abort),
            InjOutcome::Crash(CrashKind::Misaligned),
            InjOutcome::Crash(CrashKind::Arithmetic),
            InjOutcome::Hang,
            InjOutcome::Detected,
            InjOutcome::TimedOut(TimeoutKind::Fuel),
            InjOutcome::TimedOut(TimeoutKind::Deadline),
            InjOutcome::Quarantined,
        ];
        for o in all {
            let (tag, sub) = encode_outcome(o);
            assert_eq!(decode_outcome(tag, sub), Some(o), "{o:?}");
        }
        assert_eq!(decode_outcome(7, 0), None);
        assert_eq!(decode_outcome(2, 4), None);
    }

    #[test]
    fn append_and_recover_round_trips() {
        let p = scratch("roundtrip.wal");
        let sink = WalSink::create(&p, 0xabcd).unwrap();
        sink.append(0, spec(10, 0, 3), InjOutcome::Benign);
        sink.append(2, spec(20, 1, 7), InjOutcome::Crash(CrashKind::Segfault));
        sink.append(5, spec(30, 0, 63), InjOutcome::Quarantined);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 0xabcd).unwrap();
        assert_eq!(rec.torn, 0);
        assert_eq!(rec.duplicates, 0);
        assert_eq!(rec.outcomes.len(), 3);
        assert_eq!(rec.outcomes[&0], (spec(10, 0, 3), InjOutcome::Benign));
        assert_eq!(
            rec.outcomes[&2],
            (spec(20, 1, 7), InjOutcome::Crash(CrashKind::Segfault))
        );
        assert_eq!(rec.outcomes[&5], (spec(30, 0, 63), InjOutcome::Quarantined));
    }

    #[test]
    fn truncated_tail_keeps_intact_prefix() {
        let p = scratch("torn.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.append(1, spec(2, 0, 1), InjOutcome::Sdc);
        sink.flush();
        drop(sink);
        // Tear the last record in half.
        let full = std::fs::read(&p).unwrap();
        let torn = &full[..full.len() - 5];
        std::fs::write(&p, torn).unwrap();

        // Reading leaves the file as it was; recovering truncates it.
        let read = RecoveredWal::read(&p, 1).unwrap();
        assert_eq!((read.outcomes.len(), read.torn), (1, 1));
        assert_eq!(std::fs::read(&p).unwrap(), torn);
        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.outcomes.len(), 1);
        assert_eq!(rec.torn, 1);
        assert!(rec.outcomes.contains_key(&0));
        // The file was truncated back to the intact prefix.
        assert_eq!(std::fs::metadata(&p).unwrap().len(), rec.valid_len);
    }

    #[test]
    fn flipped_checksum_byte_drops_the_record() {
        let p = scratch("badsum.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.append(1, spec(2, 0, 1), InjOutcome::Hang);
        sink.flush();
        drop(sink);
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a byte inside the *first* record's checksum: both records
        // are dropped — the first fails its checksum, and scanning stops
        // there because a corrupt frame length cannot be trusted.
        let first_ck = 16 + 4 + PAYLOAD_LEN;
        bytes[first_ck] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();

        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.outcomes.len(), 0);
        assert_eq!(rec.torn, 1);
        assert_eq!(rec.valid_len, 16);
    }

    #[test]
    fn duplicate_records_dedup_latest_wins() {
        let p = scratch("dup.wal");
        let sink = WalSink::create(&p, 1).unwrap();
        sink.append(3, spec(5, 0, 2), InjOutcome::Benign);
        sink.append(3, spec(5, 0, 2), InjOutcome::Sdc);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 1).unwrap();
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.outcomes[&3].1, InjOutcome::Sdc);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let p = scratch("fp.wal");
        WalSink::create(&p, 42).unwrap();
        match WalSink::recover(&p, 43) {
            Err(WalError::FingerprintMismatch { expected, found }) => {
                assert_eq!((expected, found), (43, 42));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let p = scratch("junk.wal");
        std::fs::write(&p, b"definitely not a wal file").unwrap();
        assert!(matches!(WalSink::recover(&p, 1), Err(WalError::BadMagic)));
        std::fs::write(&p, b"EPVF").unwrap();
        assert!(matches!(
            WalSink::recover(&p, 1),
            Err(WalError::TruncatedHeader)
        ));
    }

    #[test]
    fn resume_appends_after_recovery() {
        let p = scratch("resume.wal");
        let sink = WalSink::create(&p, 9).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.flush();
        drop(sink);

        let (sink, rec) = WalSink::recover(&p, 9).unwrap();
        assert_eq!(rec.outcomes.len(), 1);
        sink.append(1, spec(2, 1, 4), InjOutcome::Detected);
        sink.flush();
        drop(sink);

        let (_sink, rec) = WalSink::recover(&p, 9).unwrap();
        assert_eq!(rec.outcomes.len(), 2);
        assert_eq!(rec.outcomes[&1].1, InjOutcome::Detected);
    }

    /// A campaign over module text `m`, entry `main`, args `[4]`.
    fn key<'a>(draw: Draw<'a>, model: &'a str) -> CampaignKey<'a> {
        CampaignKey::new(&"m", "main", &[4], draw, model)
    }

    fn sampler() -> SamplerConfig {
        SamplerConfig {
            target_ci: 0.05,
            pilot: 10,
            batch: 10,
            max_runs: 100,
            seed: 7,
        }
    }

    #[test]
    fn model_fingerprint_is_identity_for_default_and_disjoint_otherwise() {
        let specs = [spec(1, 0, 0)];
        let base = wal_fingerprint("m", "main", &[4], &specs);
        assert_eq!(
            key(Draw::Specs(&specs), DEFAULT_MODEL).fingerprint(),
            base,
            "default-model WALs must stay byte-compatible"
        );
        let burst = key(Draw::Specs(&specs), "burst:2").fingerprint();
        let ecc = key(Draw::Specs(&specs), "ecc:100").fingerprint();
        assert_ne!(burst, base);
        assert_ne!(ecc, base);
        assert_ne!(burst, ecc);
        let abase = key(Draw::Sampler(sampler()), DEFAULT_MODEL).fingerprint();
        assert_ne!(abase, base);
        assert_ne!(key(Draw::Sampler(sampler()), "skip").fingerprint(), abase);
    }

    #[test]
    fn shard_fingerprint_is_identity_for_whole_and_disjoint_per_partition() {
        let base = 0x1234_5678_9abc_def0u64;
        assert_eq!(wal_fingerprint_shard(base, 0, 1), base);
        assert_eq!(wal_fingerprint_shard(base, 0, 0), base);
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(base);
        for of in 2..=7usize {
            for index in 0..of {
                assert!(
                    seen.insert(wal_fingerprint_shard(base, index, of)),
                    "shard {index}/{of} collides"
                );
            }
        }
    }

    #[test]
    fn read_wal_fingerprint_reads_headers_and_rejects_junk() {
        let p = scratch("readfp.wal");
        let sink = WalSink::create(&p, 0xfeed).unwrap();
        sink.append(0, spec(1, 0, 0), InjOutcome::Benign);
        sink.flush();
        drop(sink);
        assert_eq!(read_wal_fingerprint(&p).unwrap(), 0xfeed);
        std::fs::write(&p, b"not a wal").unwrap();
        assert!(matches!(read_wal_fingerprint(&p), Err(WalError::BadMagic)));
        std::fs::write(&p, &WAL_MAGIC[..6]).unwrap();
        assert!(matches!(
            read_wal_fingerprint(&p),
            Err(WalError::TruncatedHeader)
        ));
    }

    /// Header fingerprints pinned by value: a WAL written by an earlier
    /// build must still resume and merge, so none of these may drift.
    #[test]
    fn fingerprints_are_pinned_by_value() {
        let specs = [spec(1, 0, 0), spec(7, 2, 63)];
        let base = wal_fingerprint("m", "main", &[4], &specs);
        assert_eq!(base, 0xd13e_c838_d2df_077a);
        assert_eq!(
            key(Draw::Specs(&specs), "burst:2").fingerprint(),
            0xa813_9b01_90f1_474c
        );
        assert_eq!(wal_fingerprint_shard(base, 1, 4), 0x95a1_ffae_9f45_a536);
        assert_eq!(
            key(Draw::Sampler(sampler()), "skip").fingerprint(),
            0x464e_e9b0_66e1_2f29
        );
        // What `inject --sample --wal` and `shard --fault-model burst:2
        // --index 1 --of 4` stamp.
        assert_eq!(
            key(Draw::Sampler(sampler()), DEFAULT_MODEL).fingerprint(),
            0x84ed_6aee_e49d_c9aa
        );
        assert_eq!(
            key(Draw::Specs(&specs), "burst:2")
                .shard(ShardSpec::new(1, 4).unwrap())
                .fingerprint(),
            0xd743_3878_7919_9070
        );
    }

    /// Every truncation and every single-byte corruption of a 3-record
    /// log reads back as a typed error or as the records wholly before the
    /// damage: never a panic, never a record that was not written.
    #[test]
    fn recovery_is_total_over_truncations_and_byte_flips() {
        let written = [
            (0, spec(10, 0, 3), InjOutcome::Benign),
            (1, spec(20, 1, 7), InjOutcome::Crash(CrashKind::Segfault)),
            (
                4,
                spec(30, 0, 63),
                InjOutcome::TimedOut(TimeoutKind::Deadline),
            ),
        ];
        let p = scratch("total.wal");
        let sink = WalSink::create(&p, 0xabcd).unwrap();
        for (index, s, o) in written {
            sink.append(index, s, o);
        }
        drop(sink);
        let good = std::fs::read(&p).unwrap();
        let record = 4 + PAYLOAD_LEN + 4;
        assert_eq!(good.len(), HEADER_LEN + written.len() * record);
        let intact_before = |at: usize| &written[..(at - HEADER_LEN) / record];
        let read_back = |bytes: &[u8]| {
            std::fs::write(&p, bytes).unwrap();
            let header = read_wal_fingerprint(&p);
            let records = WalSink::recover(&p, 0xabcd).map(|(_, rec)| {
                rec.outcomes
                    .into_iter()
                    .map(|(index, (s, o))| (index, s, o))
                    .collect::<Vec<_>>()
            });
            (header, records)
        };

        for cut in 0..=good.len() {
            let (header, records) = read_back(&good[..cut]);
            if cut < HEADER_LEN {
                assert!(
                    matches!(header, Err(WalError::TruncatedHeader)),
                    "cut {cut}"
                );
                assert!(
                    matches!(records, Err(WalError::TruncatedHeader)),
                    "cut {cut}"
                );
            } else {
                assert_eq!(header.unwrap(), 0xabcd, "cut {cut}");
                assert_eq!(records.unwrap(), intact_before(cut), "cut {cut}");
            }
        }
        for at in 0..good.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                let (header, records) = read_back(&bad);
                let what = format!("byte {at} ^ {mask:#04x}");
                if at < WAL_MAGIC.len() {
                    assert!(matches!(header, Err(WalError::BadMagic)), "{what}");
                    assert!(matches!(records, Err(WalError::BadMagic)), "{what}");
                } else if at < HEADER_LEN {
                    assert_ne!(header.unwrap(), 0xabcd, "{what}");
                    assert!(
                        matches!(records, Err(WalError::FingerprintMismatch { .. })),
                        "{what}"
                    );
                } else {
                    assert_eq!(header.unwrap(), 0xabcd, "{what}");
                    assert_eq!(records.unwrap(), intact_before(at), "{what}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_campaign_parameters() {
        let specs = [spec(1, 0, 0)];
        let base = wal_fingerprint("m", "main", &[4], &specs);
        assert_eq!(base, wal_fingerprint("m", "main", &[4], &specs));
        assert_ne!(base, wal_fingerprint("m2", "main", &[4], &specs));
        assert_ne!(base, wal_fingerprint("m", "other", &[4], &specs));
        assert_ne!(base, wal_fingerprint("m", "main", &[5], &specs));
        assert_ne!(base, wal_fingerprint("m", "main", &[4], &[spec(1, 0, 1)]));
    }
}
