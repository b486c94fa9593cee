//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer. They live in memory
//! (one [`Recorder`] per thread, merged at the end) and are written out as
//! Chrome-trace JSON once the run is over. The program's own
//! `gem_telemetry::span` collection is never switched on, so a traced run
//! differs from an untraced one only by these spans.

use gem_telemetry::Json;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, nanoseconds since the origin.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside requests).
    pub rid: u64,
    /// Recording thread (Chrome-trace track).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a span must be closed with Recorder::end"]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder. When disabled, `begin`/`end` do nothing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder timing from `origin` on track `tid`.
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Recorder {
        Recorder {
            origin,
            tid,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, rid: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            rid,
            tid: self.tid,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span (and must close the innermost open one).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end = self.now();
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, rid);
        let out = f();
        self.end(id);
        out
    }

    /// The closed spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.len() as f64)
            .collect()
    }

    /// Appends another thread's spans (parent links re-based).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.len() - covered
        })
        .collect()
}

/// Per-name totals: `(name, count, total ns, self ns)`, by total descending.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.len();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.len(), own)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    rows
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = Json::object();
            args.set("span", i as u64);
            if let Some(p) = s.parent {
                args.set("parent", p as u64);
            }
            args.set("rid", s.rid);
            let mut e = Json::object();
            e.set("name", s.name);
            e.set("cat", s.name.split('.').next().unwrap_or("bench"));
            e.set("ph", "X");
            e.set("ts", s.start as f64 / 1e3);
            e.set("dur", s.len() as f64 / 1e3);
            e.set("pid", 1u64);
            e.set("tid", u64::from(s.tid));
            e.set("args", args);
            e
        })
        .collect();
    let mut doc = Json::object();
    doc.set("traceEvents", Json::Array(events));
    doc.set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            rid: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // sticks out of the parent by 20
            span("grandchild", 12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60] and [90, 100]: 60 of 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 22);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 1, true);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end >= r.spans()[1].end);
        assert_eq!(self_times(r.spans())[1], r.spans()[1].len());

        let mut off = Recorder::new(Instant::now(), 2, false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());

        r.absorb({
            let mut t = Recorder::new(Instant::now(), 3, true);
            let a = t.begin("a", 1);
            let b = t.begin("b", 1);
            t.end(b);
            t.end(a);
            t
        });
        assert_eq!(r.spans()[3].parent, Some(2));
        let doc = chrome_trace(r.spans()).to_string();
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("\"parent\":2"));
        let rows = summarize(r.spans());
        assert_eq!(rows.iter().map(|r| r.1).sum::<usize>(), 4);
    }
}
