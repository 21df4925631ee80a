//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept in
//! memory while the run measures and written out as a TSV when it ends. A
//! layer's self time is its span's duration minus the part of it that its
//! child spans cover. With tracing off every call is a no-op, so the
//! untraced run pays one branch per boundary.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by all spans of one request (0 = none).
    pub req: u64,
}

/// The span store of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished interval; returns its id (`None` when off).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        Some((spans.len() - 1) as SpanId)
    }

    /// Open a span now; close it with [`Tracer::close`]. Children recorded
    /// in between may name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Set the end of an open span to now.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span store poisoned")[id as usize].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, 0);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as TSV (`id name start_ns end_ns parent req`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of its
/// children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut cur_end) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.clamp(s.start_ns, s.end_ns).max(cur_end);
                let b = b.clamp(s.start_ns, s.end_ns);
                if b > a {
                    covered += b - a;
                    cur_end = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Self times (milliseconds) of the spans named `name`.
pub fn self_ms_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect()
}

/// Median cost of recording one span, in nanoseconds, measured on a
/// private tracer so the run's own store stays clean.
pub fn record_cost_ns() -> f64 {
    const N: usize = 20_000;
    let probe = Tracer::new(true);
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..N {
            let id = probe.open("probe", None, i as u64);
            probe.close(id);
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / N as f64);
    }
    crate::stats::median(&rounds).expect("five rounds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("submit", 0, 10, Some(0)),
            span("engine", 60, 100, Some(0)),
            // Overlaps the engine span; counted once.
            span("gather", 80, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50, 10, 40, 40]);
        assert_eq!(self_ms_of(&spans, &selfs, "request"), vec![50.0 / 1e6]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.open("x", None, 0), None);
        t.close(None);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let id = on.span("outer", None, |id| on.open("inner", id, 7));
        assert_eq!(id, Some(1));
        assert_eq!(on.spans()[1].parent, Some(0));
    }
}
