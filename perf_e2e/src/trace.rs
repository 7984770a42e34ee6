//! In-memory span recorder around the calls into each layer.
//!
//! Spans are recorded from the benchmark's side of every layer boundary
//! (`{name, start, end, parent, tick}`), kept in memory for the whole
//! pass and written out afterwards as Chrome-trace JSON. A disabled
//! tracer reads no clock and stores nothing, so the production passes
//! that measure end-to-end metrics pay one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The tick the call worked on (the request identifier).
    pub tick: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder of one pass.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer; its clock starts now.
    pub fn recording() -> Self {
        Tracer { enabled: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing (untraced production passes).
    pub fn off() -> Self {
        Tracer { enabled: false, ..Tracer::recording() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, tick: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tick,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_name.entry(span.name).or_default() += own as f64 / 1e9;
        }
        by_name
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, microsecond
    /// timestamps, the tick and parent index as arguments.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"tick\":{},\"span\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.tick,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, tick: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tracer = Tracer {
            enabled: true,
            origin: Instant::now(),
            open: Vec::new(),
            spans: vec![
                span("pass", 0, 1_000, None),
                span("close", 100, 600, Some(0)),
                span("publish", 200, 300, Some(1)),
                span("close", 700, 900, Some(0)),
            ],
        };
        let own = tracer.self_seconds();
        assert!((own["pass"] - 300e-9).abs() < 1e-15, "1000 − (500 + 200)");
        assert!((own["close"] - 600e-9).abs() < 1e-15, "(500 − 100) + 200");
        assert!((own["publish"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut tracer = Tracer::recording();
        let outer = tracer.begin("outer", 1);
        let inner = tracer.begin("inner", 2);
        tracer.end(inner);
        tracer.end(outer);
        let sibling = tracer.begin("sibling", 3);
        tracer.end(sibling);
        let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.begin("ignored", 0);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
        assert!(tracer.self_seconds().is_empty());
    }
}
