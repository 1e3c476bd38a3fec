//! In-memory spans and sample series for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it makes
//! into a layer; nothing inside the program is instrumented. A span has a
//! name, start and end (ns since the tracer was made), the id of the span
//! that caused it, and the rid serial of the request it served, so the
//! spans of one request can be joined. Spans are kept for every
//! [`TRACE_EVERY`]th rid serial, so the written trace holds whole requests
//! from every round; they stay in memory and are written out as JSON lines
//! when the run ends. Sample series (the per-layer metrics) see every call.
//!
//! With tracing off, every method is a cheap no-op and callers skip their
//! clock reads, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Rid serials whose spans are kept: every `TRACE_EVERY`th.
const TRACE_EVERY: u64 = 32;
/// Spans kept in memory at most; later ones are counted but not stored.
const MAX_SPANS: usize = 200_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer-qualified call name, e.g. `core.server.run_once`.
    pub name: &'static str,
    /// Rid serial of the request served, 0 when none.
    pub rid: u64,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

/// Span and sample recorder shared by every benchmark thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
    series: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this run is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserve a span id before the span ends, so child spans can name
    /// their parent while it is still open.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under an id from [`Tracer::open`]; spans of
    /// rids outside the kept sample are skipped.
    pub fn close(&self, id: u64, name: &'static str, parent: u64, rid: u64, start_ns: u64) {
        if !self.on || !rid.is_multiple_of(TRACE_EVERY) {
            return;
        }
        let end_ns = self.now();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id,
                parent,
                name,
                rid,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a finished span that has no children; returns its id.
    pub fn span(&self, name: &'static str, parent: u64, rid: u64, start_ns: u64) -> u64 {
        let id = self.open();
        self.close(id, name, parent, rid, start_ns);
        id
    }

    /// Append one sample to a named series.
    pub fn sample(&self, series: &'static str, value: f64) {
        if !self.on {
            return;
        }
        self.series
            .lock()
            .expect("series map poisoned")
            .entry(series)
            .or_default()
            .push(value);
    }

    /// All samples of a series recorded so far.
    pub fn series(&self, series: &str) -> Vec<f64> {
        self.series
            .lock()
            .expect("series map poisoned")
            .get(series)
            .cloned()
            .unwrap_or_default()
    }

    /// Spans recorded (kept, dropped).
    pub fn span_counts(&self) -> (usize, u64) {
        (
            self.spans.lock().expect("span buffer poisoned").len(),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.rid, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_tracer_records_nothing() {
        let t = Tracer::new(false);
        let start = t.now();
        t.span("x", 0, 1, start);
        t.sample("s", 1.0);
        assert_eq!(t.span_counts(), (0, 0));
        assert!(t.series("s").is_empty());
    }

    #[test]
    fn spans_link_to_their_parent_and_rid() {
        let t = Tracer::new(true);
        let parent = t.open();
        let start = t.now();
        let child = t.span("child", parent, 64, start);
        t.close(parent, "parent", 0, 64, start);
        t.span("unsampled rid", parent, 65, start);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].id, spans[0].parent, spans[0].rid),
            (child, parent, 64)
        );
        assert_eq!(spans[1].id, parent);
        assert!(spans[1].end_ns >= spans[1].start_ns);
    }
}
