//! Memory-tier timelines reconstructed from the metrics registry.
//!
//! The engine records one [`TIER_SERIES`](crate::TIER_SERIES) row per watermark round: HBM and
//! DRAM occupancy (bytes held by live buffers), bandwidth
//! utilisation against the machine spec, and the round's spill and
//! knob-move activity. This module turns that series (live or re-parsed
//! from a metrics JSONL export) into an aligned [`Timeline`] with its own
//! JSONL export and a deterministic text rendering — the `sbx report
//! --timeline` view.
//!
//! Every value originates from simulated time or accounted byte counters,
//! so a timeline is byte-identical across same-seed runs.

// sbx-lint: out-of-scope(raw-alloc, timeline rendering at export time)
use crate::json::ObjWriter;
use crate::metrics::MetricsDump;
use crate::round::{RoundPoint, TIER_SERIES, TIER_VIEW};

/// A per-round memory-tier timeline (see [`TIER_SERIES`](crate::TIER_SERIES)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// One point per watermark round, in round order; only the fields of
    /// the [`TIER_VIEW`] are set.
    pub points: Vec<RoundPoint>,
}

impl Timeline {
    /// Reconstructs the timeline from a metrics dump (live snapshot or
    /// re-parsed JSONL export). Returns an empty timeline when the dump has
    /// no tier series (e.g. a run recorded without observability).
    pub fn from_dump(dump: &MetricsDump) -> Timeline {
        Timeline {
            points: RoundPoint::from_series(&TIER_VIEW, dump.series(TIER_SERIES)),
        }
    }

    /// True if no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total spills across the run.
    pub fn total_spills(&self) -> u64 {
        self.points.iter().map(|p| p.spills as u64).sum()
    }

    /// Total knob moves across the run.
    pub fn total_knob_moves(&self) -> u64 {
        self.points.iter().map(|p| p.knob_moves as u64).sum()
    }

    /// Peak HBM occupancy across the run, 0..=1.
    pub fn peak_hbm_occupancy(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.hbm_occupancy)
            .fold(0.0, f64::max)
    }

    /// Exports the timeline as JSONL, one flat `{"type":"tier",...}` object
    /// per round, the [`TIER_VIEW`] columns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            p.write_view(&TIER_VIEW, ObjWriter::open(&mut out, "tier"))
                .end();
        }
        out
    }

    /// Renders a deterministic text view: one line per round with ASCII
    /// occupancy/bandwidth bars plus spill and knob annotations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("memory-tier timeline: no rounds recorded\n");
            return out;
        }
        out.push_str(&format!(
            "memory-tier timeline: {} rounds, peak HBM occupancy {:.1}%, {} spills, {} knob moves\n",
            self.points.len(),
            100.0 * self.peak_hbm_occupancy(),
            self.total_spills(),
            self.total_knob_moves(),
        ));
        out.push_str(
            "  round    t(s)  HBM occ [bar]        used MiB  bw%   DRAM occ  bw%   events\n",
        );
        for (round, p) in self.points.iter().enumerate() {
            let mut events = String::new();
            if p.spills > 0.0 {
                events.push_str(&format!(" spills={}", p.spills as u64));
            }
            if p.knob_moves > 0.0 {
                events.push_str(&format!(
                    " knobs={} (k_low={} k_high={})",
                    p.knob_moves as u64, p.k_low_next as u64, p.k_high_next as u64
                ));
            }
            out.push_str(&format!(
                "  {:>5} {:>7.3}  {:>6.1}% [{}] {:>9.2}  {:>4.1}  {:>7.1}% {:>5.1} {}\n",
                round,
                p.at_secs,
                100.0 * p.hbm_occupancy,
                bar(p.hbm_occupancy, 10),
                p.hbm_used_bytes / (1024.0 * 1024.0),
                100.0 * p.hbm_bw_util,
                100.0 * p.dram_occupancy,
                100.0 * p.dram_bw_util,
                events,
            ));
        }
        out
    }
}

/// A `width`-character ASCII bar filled proportionally to `frac` (0..=1).
fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::round::columns;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::active();
        let series = reg.series(TIER_SERIES, &columns(&TIER_VIEW));
        series.push(&[1.0, 2000.0, 0.25, 800.0, 0.1, 0.5, 0.2, 0.0, 0.0, 2.0, 6.0]);
        series.push(&[2.0, 4000.0, 0.5, 900.0, 0.2, 0.9, 0.4, 3.0, 1.0, 1.0, 6.0]);
        reg
    }

    #[test]
    fn reconstructs_points_from_dump() {
        let tl = Timeline::from_dump(&sample_registry().snapshot());
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points[0].at_secs, 1.0);
        assert_eq!(tl.points[1].hbm_occupancy, 0.5);
        assert_eq!(tl.total_spills(), 3);
        assert_eq!(tl.total_knob_moves(), 1);
        assert_eq!(tl.peak_hbm_occupancy(), 0.5);
    }

    #[test]
    fn survives_a_jsonl_round_trip() {
        let dump = sample_registry().snapshot();
        let reparsed = MetricsDump::parse_jsonl(&dump.to_jsonl()).unwrap();
        assert_eq!(Timeline::from_dump(&dump), Timeline::from_dump(&reparsed));
    }

    #[test]
    fn jsonl_lines_are_flat_tier_objects() {
        let tl = Timeline::from_dump(&sample_registry().snapshot());
        let text = tl.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let line = crate::json::lines(lines[1]).next().unwrap().unwrap();
        assert_eq!(line.kind(), "tier");
        assert_eq!(line.opt_f64("at_secs"), Some(2.0));
        assert_eq!(line.opt_f64("spills"), Some(3.0));
        assert_eq!(line.opt_f64("k_high"), Some(6.0));
    }

    #[test]
    fn render_is_deterministic_and_annotated() {
        let tl = Timeline::from_dump(&sample_registry().snapshot());
        let a = tl.render();
        let b = tl.render();
        assert_eq!(a, b);
        assert!(a.contains("2 rounds"));
        assert!(a.contains("spills=3"));
        assert!(a.contains("knobs=1"));
        assert!(a.contains('#'));
    }

    #[test]
    fn empty_dump_yields_empty_timeline() {
        let tl = Timeline::from_dump(&MetricsDump::default());
        assert!(tl.is_empty());
        assert!(tl.render().contains("no rounds"));
        assert!(tl.to_jsonl().is_empty());
    }

    #[test]
    fn bar_clamps_and_fills() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 4), "####");
    }
}
