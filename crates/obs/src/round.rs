//! The per-round record: everything the engine measures at one quiescent
//! watermark-round boundary, built once per round as a [`RoundPoint`].
//!
//! Every per-round export is a [`View`] of that record — a list of columns,
//! each naming the field it shows: the [`ROUND_SERIES`] rows (Figure 10's
//! time series), the [`TIER_SERIES`] rows (the memory-tier
//! [`Timeline`](crate::Timeline)) and the `incident.round` /
//! `incident.tier` lines of an [`Incident`](crate::Incident). The run
//! report's samples, the flight recorder's ring and the detectors hold the
//! record itself. Every field is a pure function of simulated time and
//! accounted counters, so same-seed streams are byte-identical across hosts
//! and thread counts.

use crate::json::ObjWriter;
use crate::metrics::SeriesDump;

/// Name of the per-round metrics series (one row per watermark round).
pub const ROUND_SERIES: &str = "engine.round";

/// Name of the per-round memory-tier series.
pub const TIER_SERIES: &str = "engine.tier";

/// An exported view of the record: its columns in order, each with the
/// field it shows.
pub type View<const N: usize> = [(&'static str, fn(&mut RoundPoint) -> &mut f64); N];

/// The column names of `view`.
pub fn columns<const N: usize>(view: &View<N>) -> [&'static str; N] {
    view.map(|(name, _)| name)
}

/// The [`ROUND_SERIES`] row; the knob is the one the round ran under.
pub const ROUND_VIEW: View<8> = [
    ("at_secs", |p| &mut p.at_secs),
    ("hbm_usage", |p| &mut p.hbm_occupancy),
    ("hbm_used_bytes", |p| &mut p.hbm_used_bytes),
    ("dram_bw_gbps", |p| &mut p.dram_bw_gbps),
    ("hbm_bw_gbps", |p| &mut p.hbm_bw_gbps),
    ("k_low", |p| &mut p.k_low),
    ("k_high", |p| &mut p.k_high),
    ("records", |p| &mut p.records),
];

/// The [`TIER_SERIES`] row and `incident.tier` line; the knob is the one the
/// boundary's balancer update left.
pub const TIER_VIEW: View<11> = [
    ("at_secs", |p| &mut p.at_secs),
    ("hbm_used_bytes", |p| &mut p.hbm_used_bytes),
    ("hbm_occupancy", |p| &mut p.hbm_occupancy),
    ("dram_used_bytes", |p| &mut p.dram_used_bytes),
    ("dram_occupancy", |p| &mut p.dram_occupancy),
    ("hbm_bw_util", |p| &mut p.hbm_bw_util),
    ("dram_bw_util", |p| &mut p.dram_bw_util),
    ("spills", |p| &mut p.spills),
    ("knob_moves", |p| &mut p.knob_moves),
    ("k_low", |p| &mut p.k_low_next),
    ("k_high", |p| &mut p.k_high_next),
];

/// The `incident.round` line after its `seq`, `round` and `epoch` keys —
/// what the detectors read.
pub const INCIDENT_ROUND_VIEW: View<14> = [
    ("at_secs", |p| &mut p.at_secs),
    ("round_secs", |p| &mut p.round_secs),
    ("close_secs", |p| &mut p.close_secs),
    ("closed_windows", |p| &mut p.closed_windows),
    ("records", |p| &mut p.records),
    ("watermark_secs", |p| &mut p.watermark_secs),
    ("open_windows", |p| &mut p.open_windows),
    ("hbm_occupancy", |p| &mut p.hbm_occupancy),
    ("dram_occupancy", |p| &mut p.dram_occupancy),
    ("spills", |p| &mut p.spills),
    ("knob_moves", |p| &mut p.knob_moves),
    ("delay_p50", |p| &mut p.delay_p50),
    ("delay_p95", |p| &mut p.delay_p95),
    ("delay_p99", |p| &mut p.delay_p99),
];

/// One quiescent round boundary, as sampled by the engine (the runtime's
/// 10 ms PCM sampling aggregated to round granularity). Counts are `f64`
/// (exact below 2^53) so a record maps onto series rows without conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundPoint {
    /// Watermark round index (0-based).
    pub round: u64,
    /// Checkpoint epoch in flight (0 before the first barrier).
    pub epoch: u64,
    /// Simulated time of the round boundary, seconds.
    pub at_secs: f64,
    /// Simulated duration of the whole round, seconds.
    pub round_secs: f64,
    /// Simulated time spent closing windows this round, seconds.
    pub close_secs: f64,
    /// Windows closed this round.
    pub closed_windows: f64,
    /// Records ingested this round.
    pub records: f64,
    /// Source low watermark at the boundary, seconds.
    pub watermark_secs: f64,
    /// Windows open behind the watermark (queue-depth proxy).
    pub open_windows: f64,
    /// HBM used bytes over capacity, 0..=1.
    pub hbm_occupancy: f64,
    /// DRAM used bytes over capacity, 0..=1.
    pub dram_occupancy: f64,
    /// HBM→DRAM spills within the round (delta, not cumulative).
    pub spills: f64,
    /// Balancer knob moves within the round (delta).
    pub knob_moves: f64,
    /// Output-delay p50 over the run so far, seconds.
    pub delay_p50: f64,
    /// Output-delay p95 over the run so far, seconds.
    pub delay_p95: f64,
    /// Output-delay p99 over the run so far, seconds.
    pub delay_p99: f64,
    /// HBM bytes held by live buffers: the larger of the readings taken
    /// when the round's watermark arrived and at the boundary.
    pub hbm_used_bytes: f64,
    /// DRAM bytes held by live buffers, read at the same two points.
    pub dram_used_bytes: f64,
    /// HBM bandwidth over the round, GB/s.
    pub hbm_bw_gbps: f64,
    /// DRAM bandwidth over the round, GB/s.
    pub dram_bw_gbps: f64,
    /// HBM bandwidth this round over the machine spec, 0..=1.
    pub hbm_bw_util: f64,
    /// DRAM bandwidth this round over the machine spec, 0..=1.
    pub dram_bw_util: f64,
    /// Demand-balance knob for `Low` tasks the round ran under.
    pub k_low: f64,
    /// Demand-balance knob for `High` tasks the round ran under.
    pub k_high: f64,
    /// `k_low` after the boundary's balancer update (next round's knob).
    pub k_low_next: f64,
    /// `k_high` after the boundary's balancer update.
    pub k_high_next: f64,
}

impl RoundPoint {
    /// This round's values of `view`'s columns.
    pub fn row<const N: usize>(&self, view: &View<N>) -> [f64; N] {
        let mut p = *self;
        view.map(|(_, field)| *field(&mut p))
    }

    /// Appends `"column":value` to an open line for every column of `view`.
    pub(crate) fn write_view<'a, const N: usize>(
        &self,
        view: &View<N>,
        mut w: ObjWriter<'a>,
    ) -> ObjWriter<'a> {
        for ((column, _), value) in view.iter().zip(self.row(view)) {
            w = w.f64(column, value);
        }
        w
    }

    /// Overwrites the fields `view` shows with what `value_of` finds for
    /// each column, asked in view order; a column it does not know keeps its
    /// value, so a dump from a different schema version cannot misalign the
    /// rest.
    pub fn fill<const N: usize>(
        &mut self,
        view: &View<N>,
        mut value_of: impl FnMut(&str) -> Option<f64>,
    ) {
        for (column, field) in view {
            if let Some(v) = value_of(column) {
                *field(self) = v;
            }
        }
    }

    /// Rebuilds the records a series exported as rows of `view` — `f64`
    /// values round-trip bit-exactly through the JSONL encoding, so the
    /// rebuilt columns equal the in-memory ones; every other field stays
    /// zero. Empty when the series is absent (e.g. a run recorded without
    /// observability). How `sbx report` rebuilds Figure 10 and the tier
    /// timeline purely from a file.
    pub fn from_series<const N: usize>(
        view: &View<N>,
        series: Option<&SeriesDump>,
    ) -> Vec<RoundPoint> {
        let Some(series) = series else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for row in &series.rows {
            let mut p = RoundPoint::default();
            p.fill(view, |c| row.get(series.field_index(c)?).copied());
            out.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsDump, MetricsRegistry};

    /// A record whose every field differs from every other.
    fn point(seed: f64) -> RoundPoint {
        let (mut p, mut v) = (RoundPoint::default(), seed);
        let mut next = |_: &str| {
            v += seed / 3.0;
            Some(v)
        };
        p.fill(&INCIDENT_ROUND_VIEW, &mut next);
        p.fill(&TIER_VIEW, &mut next);
        p.fill(&ROUND_VIEW, &mut next);
        p
    }

    #[test]
    fn views_alias_the_occupancy_and_split_the_knob() {
        let p = RoundPoint {
            hbm_occupancy: 0.25,
            k_low: 0.5,
            k_high: 1.0,
            k_low_next: 0.45,
            k_high_next: 0.95,
            ..RoundPoint::default()
        };
        assert_eq!(p.row(&ROUND_VIEW)[1], 0.25);
        assert_eq!(p.row(&TIER_VIEW)[2], 0.25);
        assert_eq!(p.row(&ROUND_VIEW)[5..7], [0.5, 1.0]);
        assert_eq!(p.row(&TIER_VIEW)[9..11], [0.45, 0.95]);
        assert_eq!(columns(&ROUND_VIEW)[1], "hbm_usage");
    }

    #[test]
    fn series_round_trip_rebuilds_the_exported_columns() {
        let reg = MetricsRegistry::active();
        let round = reg.series(ROUND_SERIES, &columns(&ROUND_VIEW));
        let tier = reg.series(TIER_SERIES, &columns(&TIER_VIEW));
        let points = [point(1.0), point(1e-12)];
        for p in &points {
            round.push(&p.row(&ROUND_VIEW));
            tier.push(&p.row(&TIER_VIEW));
        }
        let parsed = MetricsDump::parse_jsonl(&reg.snapshot().to_jsonl()).unwrap();
        let round = RoundPoint::from_series(&ROUND_VIEW, parsed.series(ROUND_SERIES));
        let tier = RoundPoint::from_series(&TIER_VIEW, parsed.series(TIER_SERIES));
        assert_eq!((round.len(), tier.len()), (2, 2));
        for ((r, t), p) in round.iter().zip(&tier).zip(&points) {
            assert_eq!(r.row(&ROUND_VIEW), p.row(&ROUND_VIEW));
            assert_eq!(t.row(&TIER_VIEW), p.row(&TIER_VIEW));
            assert_eq!(r.dram_occupancy, 0.0, "not a column of the round series");
        }
        assert!(RoundPoint::from_series(&TIER_VIEW, parsed.series("absent")).is_empty());
    }
}
