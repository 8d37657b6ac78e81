//! Engine-side observability instruments (DESIGN.md §10).
//!
//! This module owns the engine's [`sbx_obs`] instruments: run-level
//! counters/gauges, the per-round `engine.round` and `engine.tier` series
//! (both views of the round's [`RoundPoint`]), and per-operator metrics.
//!
//! The engine always keeps run-level instruments on *some* registry: the
//! caller's when observability is enabled, otherwise a private active one.
//! That makes the instruments the single source of truth for
//! [`RunReport`](crate::RunReport)'s peak/delay fields, whether or not the
//! run is exported.

// sbx-lint: out-of-scope(raw-alloc, observability aggregation; runs at export, off the simulated data path)
use sbx_kpa::PrimGroup;
use sbx_obs::{
    round::columns, Counter, Gauge, Histogram, MetricsRegistry, RoundPoint, Series, ROUND_SERIES,
    ROUND_VIEW, TIER_SERIES, TIER_VIEW,
};

use crate::balancer::KnobMove;

/// Run-level instruments, registered once per engine.
#[derive(Debug)]
pub(crate) struct RunMetrics {
    /// `engine.records_in`.
    pub records_in: Counter,
    /// `engine.bundles_in`.
    pub bundles_in: Counter,
    /// `engine.output_records`.
    pub output_records: Counter,
    /// `engine.windows_closed`.
    pub windows_closed: Counter,
    /// `engine.hbm_bw_gbps` — per-round HBM bandwidth; its max is the
    /// report's peak.
    pub hbm_bw: Gauge,
    /// `engine.dram_bw_gbps`.
    pub dram_bw: Gauge,
    /// `engine.hbm_used_bytes` — the round's held bytes (read at quiescent
    /// points only), plus once before report assembly; its max is the
    /// report's deterministic peak.
    pub hbm_used: Gauge,
    /// `engine.output_delay_secs` — one weighted entry per closing round.
    pub output_delay: Histogram,
    /// The [`ROUND_SERIES`] series.
    pub rounds: Series,
    /// The memory-tier timeline series ([`TIER_SERIES`], one row per
    /// round; see `sbx_obs::timeline`).
    pub tier: Series,
    /// `balancer.move.*` — knob moves keyed by direction and trigger.
    pub knob_moves: [Counter; 4],
    /// Registry the instruments above live on, kept for dynamically-named
    /// event counters (`engine.<event>`).
    reg: MetricsRegistry,
    /// Cache of event counters, one per distinct event name seen.
    events: std::collections::BTreeMap<&'static str, Counter>,
}

impl RunMetrics {
    /// Instruments on `registry` when it is active, otherwise on a private
    /// active registry (so report fields always derive from instruments).
    pub fn for_run(registry: &MetricsRegistry) -> Self {
        let reg = if registry.is_enabled() {
            registry.clone()
        } else {
            MetricsRegistry::active()
        };
        RunMetrics {
            records_in: reg.counter("engine.records_in"),
            bundles_in: reg.counter("engine.bundles_in"),
            output_records: reg.counter("engine.output_records"),
            windows_closed: reg.counter("engine.windows_closed"),
            hbm_bw: reg.gauge("engine.hbm_bw_gbps"),
            dram_bw: reg.gauge("engine.dram_bw_gbps"),
            hbm_used: reg.gauge("engine.hbm_used_bytes"),
            output_delay: reg.histogram("engine.output_delay_secs"),
            rounds: reg.series(ROUND_SERIES, &columns(&ROUND_VIEW)),
            tier: reg.series(TIER_SERIES, &columns(&TIER_VIEW)),
            knob_moves: KnobMove::ALL.map(|m| reg.counter(m.metric_name())),
            reg,
            events: std::collections::BTreeMap::new(),
        }
    }

    /// Counts operator-noted engine events (e.g. the adaptive GroupBy's
    /// `groupby.backend.*` decisions) as `engine.<event>` counters.
    pub fn note_events(&mut self, events: Vec<&'static str>) {
        let reg = &self.reg;
        for ev in events {
            self.events
                .entry(ev)
                .or_insert_with(|| reg.counter(&format!("engine.{ev}")))
                .incr();
        }
    }

    /// Records one end-of-round record: bandwidth/usage gauges plus its
    /// rows of the [`ROUND_SERIES`] and [`TIER_SERIES`] series.
    pub fn record_round(&self, p: &RoundPoint) {
        self.hbm_bw.set(p.hbm_bw_gbps);
        self.dram_bw.set(p.dram_bw_gbps);
        self.hbm_used.set(p.hbm_used_bytes);
        self.rounds.push(&p.row(&ROUND_VIEW));
        self.tier.push(&p.row(&TIER_VIEW));
    }

    /// The last `rounds` rows of the [`TIER_SERIES`] — a bounded read for
    /// the incident capture path. From the registry rather than the
    /// recorder's ring: after a crash it keeps rows the cleared ring lost.
    pub fn tier_window(&self, rounds: usize) -> Vec<RoundPoint> {
        let window = self.reg.series_window(TIER_SERIES, rounds);
        RoundPoint::from_series(&TIER_VIEW, window.as_ref())
    }

    /// Publishes the flight recorder's end-of-run facts: its fixed memory
    /// bound (`recorder.accounted_bytes`) and how many incidents it
    /// captured (`recorder.incidents`).
    pub fn note_recorder(&self, rec: &sbx_obs::FlightRecorder) {
        self.reg
            .gauge("recorder.accounted_bytes")
            .set(rec.accounted_bytes() as f64);
        self.reg
            .gauge("recorder.incidents")
            .set(rec.incident_count() as f64);
    }

    /// Counts one demand-balance knob move with its trigger reason.
    pub fn note_knob_move(&self, mv: KnobMove) {
        self.knob_moves[mv.index()].incr();
    }
}

/// Per-operator instruments, named `op.<index:02>.<name>.<metric>`.
#[derive(Debug)]
pub(crate) struct OpMetrics {
    /// Operator invocations (one per message driven through the operator).
    pub invocations: Counter,
    /// Records in data messages entering the operator.
    pub records_in: Counter,
    /// Records in data messages leaving the operator.
    pub records_out: Counter,
    /// Data messages entering the operator.
    pub bundles_in: Counter,
    /// Data messages leaving the operator.
    pub bundles_out: Counter,
    /// KPA primitive bytes by [`PrimGroup`] (extract/sort/merge/materialize).
    pub prim_bytes: [Counter; PrimGroup::COUNT],
    /// Simulated seconds of window-closing invocations.
    pub close_secs: Histogram,
}

impl OpMetrics {
    /// One [`OpMetrics`] per operator name, in chain order. With a no-op
    /// registry every handle is inert.
    pub fn for_ops(registry: &MetricsRegistry, names: Vec<&str>) -> Vec<OpMetrics> {
        names
            .into_iter()
            .enumerate()
            .map(|(i, name)| OpMetrics::new(registry, i, name))
            .collect()
    }

    fn new(reg: &MetricsRegistry, index: usize, name: &str) -> Self {
        let p = format!("op.{index:02}.{name}");
        OpMetrics {
            invocations: reg.counter(&format!("{p}.invocations")),
            records_in: reg.counter(&format!("{p}.records_in")),
            records_out: reg.counter(&format!("{p}.records_out")),
            bundles_in: reg.counter(&format!("{p}.bundles_in")),
            bundles_out: reg.counter(&format!("{p}.bundles_out")),
            prim_bytes: [
                PrimGroup::Extract,
                PrimGroup::Sort,
                PrimGroup::Merge,
                PrimGroup::Materialize,
            ]
            .map(|g| reg.counter(&format!("{p}.{}_bytes", g.label()))),
            close_secs: reg.histogram(&format!("{p}.close_secs")),
        }
    }

    /// Accounts one invocation over a message carrying `records_in` records
    /// (`is_data` false for watermarks/barriers), producing
    /// `records_out`/`bundles_out`, with `tally` bytes per primitive group.
    pub fn note(
        &self,
        is_data: bool,
        records_in: u64,
        records_out: u64,
        bundles_out: u64,
        tally: &[f64; PrimGroup::COUNT],
    ) {
        self.invocations.incr();
        if is_data {
            self.bundles_in.incr();
            self.records_in.add(records_in);
        }
        self.records_out.add(records_out);
        self.bundles_out.add(bundles_out);
        for (counter, &bytes) in self.prim_bytes.iter().zip(tally.iter()) {
            if bytes > 0.0 {
                counter.add(bytes as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_registry_still_backs_run_metrics() {
        let rm = RunMetrics::for_run(&MetricsRegistry::noop());
        rm.records_in.add(7);
        rm.hbm_bw.set(3.0);
        assert_eq!(rm.records_in.get(), 7);
        assert_eq!(rm.hbm_bw.max(), 3.0);
    }
}
