//! In-memory span recording around calls into each layer's public API.
//!
//! A span is `(name, start, end, parent, op)`; one *op* is one program
//! analysis or one campaign, and its root span is named `op.*`. Every span
//! also records the deltas of a fixed set of telemetry counters between its
//! start and its end, so ratios are measured where the work happens. Spans
//! are recorded only while the tracer is on; when it is off, [`Tracer::leaf`]
//! calls straight through and reads no clock.

use epvf_telemetry::Ctr;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The counters whose deltas every span records.
pub const COUNTERS: [Ctr; 13] = [
    Ctr::InterpInstsRetired,
    Ctr::MemCowPageCopies,
    Ctr::CampaignRunsTotal,
    Ctr::CampaignEarlyBenign,
    Ctr::DdgNodesCreated,
    Ctr::PropSlicesWalked,
    Ctr::PropConstraintsTightened,
    Ctr::AnalyzeCacheSections,
    Ctr::AnalyzeCacheHits,
    Ctr::AnalyzeCacheStored,
    Ctr::AnalyzeCacheCorrupt,
    Ctr::WalRecordsAppended,
    Ctr::WalFlushes,
];

fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|c| epvf_telemetry::global().get(c))
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
    /// Counter deltas, indexed like [`COUNTERS`].
    pub counts: [u64; COUNTERS.len()],
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The delta of counter `c` over this span (0 for an untracked counter).
    pub fn count(&self, c: Ctr) -> u64 {
        COUNTERS
            .iter()
            .position(|&k| k == c)
            .map_or(0, |i| self.counts[i])
    }
}

/// Handle to an open span.
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, [u64; COUNTERS.len()])>,
    ops: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The spans recorded since the last call; parent indices are
    /// relative to the returned list. Op ids keep counting.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans are still open");
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one; a span opened with
    /// nothing open starts a new op.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.open.last().map(|&(i, _)| i);
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            counts: [0; COUNTERS.len()],
        });
        self.open.push((idx, read_counters()));
        Open(Some(idx))
    }

    /// Close a span opened by [`Self::begin`]; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let (top, before) = self.open.pop().expect("a span is open");
        assert_eq!(top, idx, "spans must close innermost first");
        let end_ns = self.now_ns();
        let after = read_counters();
        let span = &mut self.spans[idx];
        for (k, c) in span.counts.iter_mut().enumerate() {
            *c = after[k].saturating_sub(before[k]);
        }
        span.end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Σ self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name).or_default() += t;
    }
    by
}

/// Σ counter deltas of `c` over spans whose name satisfies `pick`.
pub fn count_in(spans: &[Span], c: Ctr, pick: impl Fn(&str) -> bool) -> u64 {
    spans
        .iter()
        .filter(|s| pick(s.name))
        .map(|s| s.count(c))
        .sum()
}

/// Whether a span is an op's root.
pub fn is_op(name: &str) -> bool {
    name.starts_with("op.")
}

/// The spans as a JSON document, one span per line.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"counters\":[",
        crate::json::quote(workload)
    );
    for (i, c) in COUNTERS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}", crate::json::quote(c.def().name));
    }
    out.push_str("],\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s.counts.iter().map(u64::to_string).collect();
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"counts\":[{}]}}{sep}",
            crate::json::quote(s.name),
            s.op,
            s.start_ns,
            s.end_ns,
            counts.join(",")
        );
    }
    out.push_str("]}\n");
    out
}

/// A plain-text table of self time per span name, largest first, with
/// each name's share of the total op time.
pub fn self_time_table(workload: &str, spans: &[Span]) -> String {
    let op_ns: u64 = spans
        .iter()
        .filter(|s| is_op(s.name))
        .map(Span::dur_ns)
        .sum();
    let mut rows: Vec<(&str, u64)> = self_time_by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = format!(
        "self time by layer, {workload} ({} ops, {:.1} ms of op time)\n",
        spans.iter().filter(|s| is_op(s.name)).count(),
        op_ns as f64 / 1e6
    );
    let _ = writeln!(out, "  {:<22} {:>12} {:>7}", "span", "self ms", "share");
    for (name, ns) in rows {
        let label = if is_op(name) {
            format!("{name} (unattributed)")
        } else {
            name.to_string()
        };
        let _ = writeln!(
            out,
            "  {:<22} {:>12.3} {:>6.1}%",
            label,
            ns as f64 / 1e6,
            100.0 * ns as f64 / op_ns.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            counts: [0; COUNTERS.len()],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ a.inner [15,25); op ⊃ b [50,90)
        let spans = vec![
            span("op.x", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by = self_time_by_name(&spans);
        // Self times partition the op's duration.
        assert_eq!(by.values().sum::<u64>(), 100);
        assert_eq!(by["op.x"], 30);
        assert!(self_time_table("w", &spans).contains("op.x (unattributed)"));
    }

    #[test]
    fn tracer_nests_spans_into_ops_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let op = t.begin("op.a");
        let v = t.leaf("inner", || 7);
        t.end(op);
        let op = t.begin("op.b");
        t.end(op);
        assert_eq!(v, 7);
        let s = &t.take();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].dur_ns() >= s[1].dur_ns());
        assert!(to_json("w", s).contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let op = off.begin("op.a");
        assert_eq!(off.leaf("inner", || 3), 3);
        off.end(op);
        assert!(off.take().is_empty());
    }
}
