//! Span-based tracing of the simulated task graph.
//!
//! Each operator invocation records one [`Span`]: its identity, its parent
//! along the operator chain, and its *simulated* start/duration in
//! nanoseconds. Because every timestamp comes from the simulated clock, two
//! runs with the same seed export byte-identical traces.
//!
//! Two export formats:
//! - JSONL: one flat object per span, in record order.
//! - Chrome trace (`{"traceEvents":[...]}` with `"X"` complete events),
//!   loadable in Perfetto or `chrome://tracing`. Lanes (`tid`) are operator
//!   indices, so each pipeline stage renders as its own track.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use crate::json::{fmt_f64, write_str, Line, ObjWriter};
use crate::sync::lock;

/// One operator invocation in the simulated task graph: recorded by the
/// engine (static `name` / `cat`), stitched by the cluster tier, or parsed
/// back from a span JSONL export (owned strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span identity (ids are allocated in dependency order).
    pub id: u64,
    /// Parent span along the operator chain, if any.
    pub parent: Option<u64>,
    /// Operator name (e.g. `window_into`).
    pub name: Cow<'static, str>,
    /// Category: `task`, `watermark`, `barrier`, or `close`.
    pub cat: Cow<'static, str>,
    /// Display lane: the operator's index in the pipeline.
    pub lane: u64,
    /// Watermark round (0-based) the invocation ran in. The engine closes a
    /// round per watermark, so this aligns spans with the per-round metric
    /// series (`engine.round` / `engine.tier`).
    pub round: u64,
    /// Checkpoint epoch the invocation ran in (0 before the first barrier).
    /// Cluster traces use this to cut per-epoch critical paths and to align
    /// spans with the rescale cut point.
    pub epoch: u64,
    /// Simulated start time in nanoseconds.
    pub start_ns: u64,
    /// Simulated duration in nanoseconds (from the cost model).
    pub dur_ns: u64,
    /// Records entering this invocation.
    pub records_in: u64,
    /// Records produced by this invocation.
    pub records_out: u64,
}

impl Span {
    /// Simulated end time of the invocation, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// Appends the span fields to an open line: `id`, `parent` (omitted on
    /// a root), `track` — a stitched span's `shard` and `slot_epoch` — then
    /// `name`, `cat`, `lane`, `round`, `epoch`, `start_ns`, `dur_ns`,
    /// `records_in`, `records_out`. [`Span::from_line`] reads them back.
    pub(crate) fn write_fields<'a>(
        &self,
        w: ObjWriter<'a>,
        track: Option<(u32, u32)>,
    ) -> ObjWriter<'a> {
        let mut w = w.u64("id", self.id).opt_u64("parent", self.parent);
        if let Some((shard, slot_epoch)) = track {
            w = w
                .u64("shard", u64::from(shard))
                .u64("slot_epoch", u64::from(slot_epoch));
        }
        w.text("name", &self.name)
            .text("cat", &self.cat)
            .u64("lane", self.lane)
            .u64("round", self.round)
            .u64("epoch", self.epoch)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.dur_ns)
            .u64("records_in", self.records_in)
            .u64("records_out", self.records_out)
    }

    /// Appends this span as one `{"type":"span",...}` JSONL line; `track`
    /// is a stitched span's `(shard, slot_epoch)`.
    pub fn write_line(&self, track: Option<(u32, u32)>, out: &mut String) {
        self.write_fields(ObjWriter::open(out, "span"), track).end();
    }

    /// Reads the fields [`Span::write_fields`] writes (absent numbers are
    /// 0, absent strings empty, an absent `parent` a root).
    pub(crate) fn from_line(line: &Line) -> Span {
        Span {
            id: line.u64("id"),
            parent: line.opt_u64("parent"),
            name: line.text("name").to_owned().into(),
            cat: line.text("cat").to_owned().into(),
            lane: line.u64("lane"),
            round: line.u64("round"),
            epoch: line.u64("epoch"),
            start_ns: line.u64("start_ns"),
            dur_ns: line.u64("dur_ns"),
            records_in: line.u64("records_in"),
            records_out: line.u64("records_out"),
        }
    }

    /// Appends this span as one Chrome-trace `"X"` complete event (no
    /// separator): `ts`/`dur` are simulated microseconds, `pid` the track
    /// group, `tid` the operator lane; a stitched span carries its
    /// `slot_epoch` among the `args`.
    pub(crate) fn write_chrome_event(&self, pid: u64, slot_epoch: Option<u32>, out: &mut String) {
        out.push_str("{\"name\":");
        write_str(&self.name, out);
        out.push_str(",\"cat\":");
        write_str(&self.cat, out);
        out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"span\":{}",
            fmt_f64(self.start_ns as f64 / 1000.0),
            fmt_f64(self.dur_ns as f64 / 1000.0),
            self.lane,
            self.id
        ));
        if let Some(parent) = self.parent {
            out.push_str(&format!(",\"parent\":{parent}"));
        }
        if let Some(slot_epoch) = slot_epoch {
            out.push_str(&format!(",\"slot_epoch\":{slot_epoch}"));
        }
        out.push_str(&format!(
            ",\"round\":{},\"epoch\":{},\"records_in\":{},\"records_out\":{}}}}}",
            self.round, self.epoch, self.records_in, self.records_out
        ));
    }
}

impl AsRef<Span> for Span {
    fn as_ref(&self) -> &Span {
        self
    }
}

/// Wraps Chrome-trace events (no separators of their own) into the
/// `{"traceEvents":[...]}` document Perfetto loads.
pub(crate) fn chrome_document(events: impl Iterator<Item = String>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut sep = "";
    for ev in events {
        out.push_str(sep);
        out.push_str(&ev);
        sep = ",\n";
    }
    if !sep.is_empty() {
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Mutex<Vec<Span>>,
}

/// Collects spans for one run. The default handle is a no-op.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    inner: Option<Arc<TraceInner>>,
}

impl TraceCollector {
    /// An inert collector: recording does nothing and allocates nothing.
    pub fn noop() -> Self {
        TraceCollector { inner: None }
    }

    /// An active collector.
    pub fn active() -> Self {
        TraceCollector {
            inner: Some(Arc::new(TraceInner::default())),
        }
    }

    /// True if spans are being collected. Instrumented code should check
    /// this before building a [`Span`].
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one span (dropped by no-op collectors).
    pub fn record(&self, span: Span) {
        if let Some(inner) = &self.inner {
            lock(&inner.spans).push(span);
        }
    }

    /// Discards all recorded spans, keeping the collector active. Recovery
    /// loops call this when an attempt crashes so only the surviving
    /// attempt's spans remain in the export.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            lock(&inner.spans).clear();
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(&i.spans).len())
    }

    /// True if no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all spans in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| lock(&i.spans).clone())
    }

    /// Exports spans as JSONL, one flat object per line, in record order.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            s.write_line(None, &mut out);
        }
        out
    }

    /// Exports spans in Chrome trace format (Perfetto / `chrome://tracing`):
    /// one [`Span::write_chrome_event`] per span, all in process 1.
    pub fn export_chrome(&self) -> String {
        chrome_document(self.spans().iter().map(|s| {
            let mut ev = String::new();
            s.write_chrome_event(1, None, &mut ev);
            ev
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Span {
        Span {
            id: 7,
            parent: Some(3),
            name: "window_into".into(),
            cat: "task".into(),
            lane: 2,
            round: 1,
            epoch: 1,
            start_ns: 1_500,
            dur_ns: 250,
            records_in: 100,
            records_out: 90,
        }
    }

    #[test]
    fn noop_collector_is_inert() {
        let t = TraceCollector::noop();
        assert!(!t.is_enabled());
        t.record(sample());
        assert!(t.is_empty());
        assert!(t.export_jsonl().is_empty());
    }

    #[test]
    fn clear_discards_spans_but_stays_active() {
        let t = TraceCollector::active();
        t.record(sample());
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
        t.record(sample());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let t = TraceCollector::active();
        t.record(sample());
        t.record(Span {
            parent: None,
            ..sample()
        });
        let text = t.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let line = crate::json::lines(lines[0]).next().unwrap().unwrap();
        assert_eq!(line.opt_u64("id"), Some(7));
        assert_eq!(line.opt_u64("parent"), Some(3));
        assert_eq!(line.opt_u64("round"), Some(1));
        assert_eq!(line.opt_u64("start_ns"), Some(1500));
        // Root span omits the parent key entirely.
        assert!(!lines[1].contains("parent"));
    }

    #[test]
    fn chrome_export_has_complete_events_in_microseconds() {
        let t = TraceCollector::active();
        t.record(sample());
        let text = t.export_chrome();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.5"));
        assert!(text.contains("\"dur\":0.25"));
        assert!(text.contains("\"tid\":2"));
    }
}
