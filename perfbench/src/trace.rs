//! Outside-in spans: the benchmark wraps each call *into* a layer; the
//! library itself carries no probes. Spans stay in memory during the
//! traced rep and are written out when the benchmark ends.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that was open when
/// this one started; `rep` identifies the workload rep it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Self time and call count of every span name.
pub type SelfTimes = BTreeMap<&'static str, (f64, u64)>;

/// In-memory span recorder for one process.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Starts a new workload rep: later spans carry its id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is currently open. `f` receives the tracer to open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("rep", Value::Num(f64::from(s.rep))),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Per-name self time (seconds) and span count: a span's self time is
/// its duration minus the durations of its direct children (children of
/// one span never overlap: the recorder is single-threaded).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = SelfTimes::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // run [0, 100] > task [10, 40] > kernel [15, 25]
        //              > task [50, 90] > kernel [55, 60], kernel [60, 80]
        let spans = [
            span("run", 0, 100, None),
            span("task", 10, 40, Some(0)),
            span("kernel", 15, 25, Some(1)),
            span("task", 50, 90, Some(0)),
            span("kernel", 55, 60, Some(3)),
            span("kernel", 60, 80, Some(3)),
        ];
        let t = self_times(&spans);
        let ns = |name: &str| ((t[name].0 * 1e9).round() as u64, t[name].1);
        assert_eq!(ns("run"), (100 - 30 - 40, 1));
        assert_eq!(ns("task"), ((30 - 10) + (40 - 25), 2));
        assert_eq!(ns("kernel"), (10 + 5 + 20, 3));
        // Self times partition the root's duration.
        let total: f64 = t.values().map(|v| v.0).sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_parents_and_reps() {
        let mut tr = Tracer::new();
        tr.next_rep();
        let v = tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |_| 7)
        });
        assert_eq!(v, 7);
        tr.next_rep();
        tr.span("outer", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!((s[0].rep, s[3].rep), (1, 2));
        assert!(s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(self_times(s)["inner"].1, 2);
    }
}
