//! sbx-obs: dependency-free observability for the StreamBox-HBM engine.
//!
//! The crate provides two recorders, bundled into an [`Obs`] handle that the
//! engine threads through `RunConfig`:
//!
//! - a [`MetricsRegistry`] of named counters, gauges, log-bucketed
//!   histograms and row series;
//! - a [`TraceCollector`] of per-operator-invocation [`Span`]s with JSONL
//!   and Chrome-trace/Perfetto export.
//!
//! Everything is keyed to the **simulated clock**: callers pass in simulated
//! timestamps, and sbx-obs never reads wall-clock time, so exports are
//! deterministic and byte-identical across same-seed runs (and sbx-lint's
//! wall-clock rule holds). The default recorders are no-ops — inert,
//! allocation-free handles — so instrumented hot paths pay only a branch
//! when observability is off.
//!
//! The exception is the [`FlightRecorder`] (DESIGN.md §15): an always-on,
//! fixed-capacity ring of recent round samples and spans with online
//! anomaly [`detect`]ors on top, cheap enough (one ring push and one
//! detector pass per quiescent round boundary) to run even when both
//! opt-in recorders are off. When a detector fires, the engine freezes the
//! rings into an [`Incident`] capture window.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod detect;
pub mod hist;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod round;
mod sync;
pub mod timeline;
pub mod trace;

pub use cluster::{
    fabric_signals, parse_cluster_spans_jsonl, ClusterSpan, ClusterTrace, FabricEvent, SpanStream,
    FABRIC_SHARD,
};
pub use detect::{sort_signals, Cusum, DetectorBank, Ewma, Signal, ThresholdRule};
pub use hist::{HistSnapshot, Histogram};
pub use incident::{Incident, IncidentReport};
pub use metrics::{
    Counter, Gauge, GaugeDump, HistogramDump, MetricsDump, MetricsRegistry, Series, SeriesDump,
};
pub use profile::{
    parse_spans_jsonl, CriticalPath, GroupPath, OperatorAttribution, PathStep,
    PrimitiveAttribution, TrackAttribution, Tracked, PRIMITIVE_LABELS,
};
pub use recorder::FlightRecorder;
pub use round::{RoundPoint, ROUND_SERIES, ROUND_VIEW, TIER_SERIES, TIER_VIEW};
pub use timeline::Timeline;
pub use trace::{Span, TraceCollector};

/// Observability handle: a metrics registry, a trace collector, and the
/// always-on flight recorder.
///
/// `Default` (and [`Obs::noop`]) record nothing to the opt-in recorders;
/// [`Obs::enabled`] records both metrics and spans. The flight recorder is
/// active in every mode — its ring memory is fixed and its per-round cost
/// is within the obs overhead budget — so anomaly detection needs no
/// opt-in. The handle is a cheap `Arc` clone — the engine, CLI and tests
/// can share one instance.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Counters, gauges, histograms and series.
    pub metrics: MetricsRegistry,
    /// Per-operator-invocation spans.
    pub trace: TraceCollector,
    /// Always-on ring of recent rounds/spans with online anomaly detectors.
    pub recorder: FlightRecorder,
}

impl Obs {
    /// Records nothing to the opt-in recorders (the default). The flight
    /// recorder still runs.
    pub fn noop() -> Self {
        Obs {
            metrics: MetricsRegistry::noop(),
            trace: TraceCollector::noop(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Records both metrics and spans.
    pub fn enabled() -> Self {
        Obs {
            metrics: MetricsRegistry::active(),
            trace: TraceCollector::active(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Records metrics only (no spans); keeps the parallel stateless prefix
    /// eligible since span ordering is the only determinism constraint.
    pub fn metrics_only() -> Self {
        Obs {
            metrics: MetricsRegistry::active(),
            trace: TraceCollector::noop(),
            recorder: FlightRecorder::default(),
        }
    }

    /// True if either opt-in recorder is active (the always-on flight
    /// recorder doesn't count: it never forces the serial prefix).
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.trace.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_modes() {
        assert!(!Obs::noop().is_enabled());
        assert!(!Obs::default().is_enabled());
        let on = Obs::enabled();
        assert!(on.is_enabled() && on.metrics.is_enabled() && on.trace.is_enabled());
        let m = Obs::metrics_only();
        assert!(m.is_enabled() && !m.trace.is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.metrics.counter("x").add(2);
        assert_eq!(obs.metrics.counter("x").get(), 2);
        other.trace.record(Span {
            id: 1,
            parent: None,
            name: "op".into(),
            cat: "task".into(),
            lane: 0,
            round: 0,
            epoch: 0,
            start_ns: 0,
            dur_ns: 1,
            records_in: 0,
            records_out: 0,
        });
        assert_eq!(obs.trace.len(), 1);
    }
}
