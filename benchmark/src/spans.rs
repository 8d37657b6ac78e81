//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`engine.run`, `ingress.gen`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Engine rep the span belongs to (the identifier spans of one
    /// request share).
    pub rep: u32,
}

/// An append-only span log with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        rep: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet (a root); close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, rep: u32) -> usize {
        self.push(name, start, start, None, rep)
    }

    /// Sets the end of span `id`.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("rep".into(), Json::Num(f64::from(s.rep))),
            ])
            .write(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children may overlap each other and may
/// stick out of the parent; covered time is counted once and clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(frontier);
                if hi > lo {
                    covered += hi - lo;
                    frontier = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
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
            rep: 0,
        }
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a
            span("c", 35, 38, Some(0)),  // inside a and b
            span("d", 90, 120, Some(0)), // sticks out of the root
            span("e", 12, 20, Some(1)),  // grandchild: only a's concern
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 3, 30, 8]);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = [
            span("root", 0, 1000, None),
            span("gen", 0, 300, Some(0)),
            span("emit", 400, 450, Some(0)),
            span("gen", 500, 900, Some(0)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["gen"], 700);
        assert_eq!(by_name["root"] + by_name["gen"] + by_name["emit"], 1000);
    }

    #[test]
    fn log_writes_one_parseable_line_per_span() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let root = log.open("engine.run", t0, 3);
        let child = log.push("ingress.gen", t0, Instant::now(), Some(root), 3);
        log.close(root, Instant::now());
        assert_eq!(child, 1);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).expect("line parses");
        assert_eq!(first.get("name"), Some(&Json::Str("engine.run".into())));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        let second = Json::parse(lines[1]).expect("line parses");
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(second.get("rep").and_then(Json::as_f64), Some(3.0));
    }
}
