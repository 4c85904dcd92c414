//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! `enter` before a call into a layer's public function, `exit` after it.
//! They stay in memory while the run measures and are written out once,
//! when it ends, so file I/O never lands inside a measured interval.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Work units the call completed (deliveries, trials, bytes, ...).
    count: u64,
}

/// Handle of a span, returned by [`Tracer::enter`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// Per-name aggregate of the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub spans: u64,
    pub total_ns: u64,
    /// Total duration minus the time covered by child spans.
    pub self_ns: u64,
    pub count: u64,
}

/// Records nested spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            count: 0,
        });
        // Stamped after the push, so the span covers only the call.
        let start_ns = self.now_ns();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns;
        SpanId(id)
    }

    /// Closes the innermost span and returns its duration in
    /// nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records the work units (deliveries, trials, bytes, ...) a span
    /// completed; may be called after the span closed.
    pub fn set_count(&mut self, id: SpanId, count: u64) {
        self.spans[id.0].count = count;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name);
        let out = f();
        let ns = self.exit(id);
        (out, ns)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Aggregates every recorded span by name, with self time.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
            t.count += span.count;
        }
        out
    }

    /// Writes every span as one CSV row
    /// (`id,parent,name,start_ns,end_ns,count`; `parent` is empty for a
    /// root span), after a header.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(48 * self.spans.len() + 64);
        out.push_str("id,parent,name,start_ns,end_ns,count\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, s.count
            );
        }
        std::fs::write(path, out)
    }
}
