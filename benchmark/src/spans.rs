//! Spans recorded from the benchmark's own files, around the calls into
//! each layer (choosing-metrics §4): name, start, end, parent, request
//! id. Held in memory while the ladder runs, written out at exit.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub request: u32,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Runs `f` inside a span called `name`, nested in whichever span is
    /// open. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Duration in nanoseconds of the most recently *closed* span called
    /// `name` — how the ladder reads back what it just timed.
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`
    /// (line index or null), `request`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time per name: each span's duration minus what its direct
/// children cover of it. Children are clipped to the parent's interval
/// and overlapping children are merged, so time is never subtracted
/// twice (the tracer only nests, but spans read back from a file need
/// not have come from it).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut edge = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// What recording one span costs, in nanoseconds: the median over a few
/// batches of empty spans. Used to estimate `trace.overhead_ratio`.
pub fn span_cost_ns() -> f64 {
    let mut per_span = Vec::new();
    for _ in 0..5 {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        for _ in 0..4_000 {
            t.span("calibrate", |_| std::hint::black_box(()));
        }
        per_span.push(t0.elapsed().as_nanos() as f64 / 4_000.0);
        std::hint::black_box(t.spans().len());
    }
    crate::stats::median(&per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("serve", 40, 90, Some(0)),
            span("run", 50, 80, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], 100 - 20 - 50);
        assert_eq!(t["parse"], 20);
        assert_eq!(t["serve"], 50 - 30);
        assert_eq!(t["run"], 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 160, Some(0)),
            span("b", 150, 190, Some(0)), // overlaps a by 10
            span("c", 195, 250, Some(0)), // hangs 50 past the parent
        ];
        // Covered: [110,190) ∪ [195,200) = 85.
        assert_eq!(self_times(&spans)["parent"], 15);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new();
        t.set_request(7);
        let got = t.span("outer", |t| t.span("inner", |_| 42));
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.last_ns("inner"), s[1].end_ns - s[1].start_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(crate::json::Json::parse(text.lines().next().unwrap()).is_ok());
    }
}
