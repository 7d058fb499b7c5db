//! Panic isolation for injection runs.
//!
//! A fault-injection campaign executes thousands of deliberately corrupted
//! runs; a bug anywhere in the interpreter (or a pathological corruption)
//! can panic. Without isolation one panic tears down the worker pool and
//! loses the whole campaign. Here every run executes under
//! [`std::panic::catch_unwind`]: a panicking run is *quarantined* —
//! recorded as [`InjOutcome::Quarantined`] with its payload in a
//! [`QuarantineRecord`], renderable as a replayable `.repro` file — while
//! the rest of the campaign proceeds. A run is a pure function of the
//! campaign and its spec, so it is never retried: it would panic again.
//!
//! Isolated panics are muted through a wrapping panic hook (installed
//! once, delegating to the previous hook for panics outside a run), so a
//! campaign with a poisoned site doesn't spray backtraces over the
//! progress display.
//!
//! [`RunSession`] is the per-call state those isolated runs share: the
//! outcomes recovered from a WAL and the live WAL fresh ones append to.

use crate::campaign::{Campaign, InjOutcome, QuarantineRecord};
use crate::wal::WalSink;
use epvf_interp::InjectionSpec;
use epvf_telemetry::Ctr;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while this thread is inside an isolated run; the wrapping
    /// panic hook stays silent for those panics (they are caught,
    /// classified, and recorded — not crashes of the tool itself).
    static IN_ISOLATED_RUN: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_ISOLATED_RUN.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Best-effort stringification of a panic payload (`&str` and `String`
/// cover everything `panic!` produces; anything else is labeled opaque).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// State threaded into [`Campaign::run_specs_session`]: outcomes already
/// recovered from a write-ahead log (their specs are skipped, not
/// re-executed) and an optional live WAL sink that records fresh
/// completions for a later resume.
#[derive(Debug)]
pub struct RunSession<'w> {
    /// `spec-list index -> outcome` salvaged by
    /// [`WalSink::recover`](crate::WalSink::recover); prefilled into the
    /// result instead of being re-run. Keys are *local* to the spec list
    /// being run; a caller resuming a multi-round campaign shifts its
    /// global WAL indices down by [`RunSession::index_base`] first.
    pub recovered: BTreeMap<usize, InjOutcome>,
    /// Live WAL to append each completed run to.
    pub wal: Option<&'w WalSink>,
    /// Offset added to local spec indices in WAL records. A single-shot
    /// campaign leaves this 0; the adaptive sampler sets it to the number
    /// of runs already executed in earlier rounds, so one WAL spans the
    /// whole multi-round campaign with globally unique indices.
    pub index_base: usize,
    /// Stride between consecutive local specs' global WAL indices
    /// (default 1). A campaign shard `i` of `S` runs the strided slice
    /// `i, i+S, i+2S, …` of the full draw order; setting `index_base = i`
    /// and `index_stride = S` makes its WAL records carry the *global*
    /// draw index `i + k·S` for the shard's `k`-th spec, so `epvf merge`
    /// can union shard WALs without any per-shard remapping.
    pub index_stride: usize,
    /// Suppress this run's own progress line (the caller drives one).
    pub quiet: bool,
}

impl Default for RunSession<'_> {
    fn default() -> Self {
        RunSession {
            recovered: BTreeMap::new(),
            wal: None,
            index_base: 0,
            index_stride: 1,
            quiet: false,
        }
    }
}

impl RunSession<'_> {
    /// Global WAL index of the `local`-th spec in the list being run
    /// (`index_base + local × index_stride`; a stride of 0 is treated
    /// as 1).
    pub fn global_index(&self, local: usize) -> usize {
        self.index_base + local * self.index_stride.max(1)
    }
}

impl Campaign<'_> {
    /// Execute one spec under panic isolation.
    ///
    /// A run that panics, or whose interpreter reports an internal setup
    /// error, is quarantined. Exactly one `runs_total` + outcome-class
    /// counter pair is recorded per call, so the telemetry conservation
    /// law holds whatever happens inside.
    pub(crate) fn run_spec_isolated(
        &self,
        index: usize,
        spec: InjectionSpec,
    ) -> (InjOutcome, Option<QuarantineRecord>) {
        install_quiet_hook();
        IN_ISOLATED_RUN.with(|s| s.set(true));
        let run = panic::catch_unwind(AssertUnwindSafe(|| self.try_run_spec(spec)));
        IN_ISOLATED_RUN.with(|s| s.set(false));
        let payload = match run {
            Ok(Ok(outcome)) => {
                epvf_telemetry::add(Ctr::CampaignRunsTotal, 1);
                epvf_telemetry::add(outcome.counter(), 1);
                return (outcome, None);
            }
            Ok(Err(e)) => format!("internal error: {e}"),
            Err(p) => payload_string(p.as_ref()),
        };
        epvf_telemetry::add(Ctr::CampaignRunsTotal, 1);
        epvf_telemetry::add(Ctr::CampaignRunsQuarantined, 1);
        (
            InjOutcome::Quarantined,
            Some(QuarantineRecord {
                index,
                spec,
                payload,
            }),
        )
    }

    /// Render a quarantined run as a replayable repro file in the format
    /// `epvf oracle --replay` consumes: a `#`-prefixed header carrying the
    /// entry, args, fault model (unless it is the default single-bit
    /// flip), the `poison_at` test hook (when the campaign arms it), and
    /// `dyn:slot:bit` spec, a `---` separator, then the full module text.
    pub fn render_quarantine_repro(&self, q: &QuarantineRecord) -> String {
        let mut head = String::new();
        head.push_str("# epvf-oracle repro v1\n");
        head.push_str(&format!("# label: quarantined run {}\n", q.index));
        head.push_str(&format!("# entry: {}\n", self.entry()));
        let args: Vec<String> = self.args().iter().map(u64::to_string).collect();
        head.push_str(&format!("# args: {}\n", args.join(" ")));
        let model = self.model().name();
        if model != epvf_core::DEFAULT_MODEL {
            head.push_str(&format!("# model: {model}\n"));
        }
        if let Some(at) = self.config().exec.poison_at {
            head.push_str(&format!("# poison-at: {at}\n"));
        }
        head.push_str(&format!("# spec: {}\n", q.spec));
        head.push_str("# kind: quarantine\n");
        head.push_str("# observed: quarantined\n");
        head.push_str(&format!(
            "# predicted: panic: {}\n",
            q.payload.replace('\n', " ")
        ));
        head.push_str("---\n");
        head.push_str(&format!("{}", self.module()));
        head
    }

    /// Write every quarantine in `result` to `dir` as
    /// `<prefix>-NNN-quarantine.repro`; returns the written paths.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_quarantine_repros(
        &self,
        dir: &std::path::Path,
        prefix: &str,
        quarantines: &[QuarantineRecord],
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut paths = Vec::new();
        for (i, q) in quarantines.iter().enumerate() {
            let path = dir.join(format!("{prefix}-{i:03}-quarantine.repro"));
            epvf_telemetry::atomic_write(&path, self.render_quarantine_repro(q).as_bytes())?;
            paths.push(path);
        }
        Ok(paths)
    }
}
