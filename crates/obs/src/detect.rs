//! Online anomaly detection: deterministic threshold / EWMA / CUSUM rules
//! evaluated at quiescent round boundaries (DESIGN.md §15).
//!
//! Detectors consume only simulated-time series — output-delay quantiles,
//! spill deltas, watermark progress, pool occupancy, and the open-window
//! queue depth carried on each [`RoundPoint`] — so a same-seed run fires
//! byte-identical signal streams regardless of host thread count. Warm-up
//! suppression keeps the first rounds quiet while EWMA/CUSUM state seeds,
//! and per-detector hysteresis debounces an ongoing condition into one
//! signal per quiet window instead of one per round.
//!
//! The cluster health detectors (`cluster::HealthReport`) are thin
//! [`ThresholdRule`] instances on this same framework; [`Signal`] is
//! re-exported there as `HealthSignal`.

use crate::json::{Line, ObjWriter};
use crate::round::RoundPoint;

/// A detector verdict: one rule firing on one subject at one round.
///
/// This is the shared signal type for engine-local detectors and the
/// cluster fabric detectors (aliased as `HealthSignal`).
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Detector kind, e.g. `spill-storm` or `straggler`.
    pub kind: String,
    /// Entity the signal is about (`round12`, `shard3`, `slot7`, ...).
    pub subject: String,
    /// Watermark round the verdict anchors to.
    pub round: u64,
    /// Observed value that tripped the rule.
    pub value: f64,
    /// Threshold it was compared against.
    pub threshold: f64,
    /// Human-readable explanation.
    pub detail: String,
}

impl Signal {
    /// Appends the six signal fields to an open line: `kind`, `subject`,
    /// `round`, whatever `between` adds (an incident's epoch and time),
    /// then `value`, `threshold`, `detail`. [`Signal::from_line`] reads
    /// them back.
    pub(crate) fn write_fields<'a>(
        &self,
        w: ObjWriter<'a>,
        between: impl FnOnce(ObjWriter<'a>) -> ObjWriter<'a>,
    ) -> ObjWriter<'a> {
        let w = w
            .text("kind", &self.kind)
            .text("subject", &self.subject)
            .u64("round", self.round);
        between(w)
            .f64("value", self.value)
            .f64("threshold", self.threshold)
            .text("detail", &self.detail)
    }

    /// Reads the fields [`Signal::write_fields`] writes.
    pub(crate) fn from_line(line: &Line) -> Signal {
        Signal {
            kind: line.text("kind").to_owned(),
            subject: line.text("subject").to_owned(),
            round: line.u64("round"),
            value: line.f64("value"),
            threshold: line.f64("threshold"),
            detail: line.text("detail").to_owned(),
        }
    }
}

/// Sorts signals into the canonical deterministic order: kind, then round,
/// then subject. This is the order `HealthReport` and incident exports use.
pub fn sort_signals(signals: &mut [Signal]) {
    signals.sort_by(|a, b| {
        a.kind
            .cmp(&b.kind)
            .then(a.round.cmp(&b.round))
            .then(a.subject.cmp(&b.subject))
    });
}

/// A stateless comparison rule: fires when a value crosses a threshold.
///
/// `above` rules fire on `value > threshold`; `at_least` rules fire on
/// `value >= threshold` (the cluster link-saturation detector is
/// inclusive). Rules carry no state — warm-up and hysteresis live in
/// [`DetectorBank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRule {
    /// Detector kind stamped on fired signals.
    pub kind: &'static str,
    /// Firing threshold.
    pub threshold: f64,
    /// Whether equality fires the rule.
    pub inclusive: bool,
}

impl ThresholdRule {
    /// A rule that fires on `value > threshold`.
    pub fn above(kind: &'static str, threshold: f64) -> ThresholdRule {
        ThresholdRule {
            kind,
            threshold,
            inclusive: false,
        }
    }

    /// A rule that fires on `value >= threshold`.
    pub fn at_least(kind: &'static str, threshold: f64) -> ThresholdRule {
        ThresholdRule {
            kind,
            threshold,
            inclusive: true,
        }
    }

    /// Evaluates the rule, building the [`Signal`] on a fire.
    pub fn check(&self, value: f64, subject: String, round: u64, detail: String) -> Option<Signal> {
        let fired = if self.inclusive {
            value >= self.threshold
        } else {
            value > self.threshold
        };
        if fired {
            Some(Signal {
                kind: self.kind.to_owned(),
                subject,
                round,
                value,
                threshold: self.threshold,
                detail,
            })
        } else {
            None
        }
    }
}

/// An exponentially weighted moving average over a simulated-time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh average with smoothing factor `alpha` (0..=1; higher tracks
    /// faster).
    pub fn new(alpha: f64) -> Ewma {
        Ewma { alpha, value: None }
    }

    /// The current average, if any sample has been observed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Folds in one sample and returns the updated average.
    pub fn observe(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(next);
        next
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// A one-sided CUSUM accumulator: sums positive excursions of a series
/// above a per-sample slack, clamped at zero. Sustained bursts grow the
/// sum; quiet rounds drain it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cusum {
    slack: f64,
    s: f64,
}

impl Cusum {
    /// A fresh accumulator allowing `slack` units per sample for free.
    pub fn new(slack: f64) -> Cusum {
        Cusum { slack, s: 0.0 }
    }

    /// Folds in one sample and returns the updated sum.
    pub fn observe(&mut self, x: f64) -> f64 {
        self.s = (self.s + x - self.slack).max(0.0);
        self.s
    }

    /// The current accumulated sum.
    pub fn sum(&self) -> f64 {
        self.s
    }

    /// Drains the accumulator (used after a fire so one storm yields one
    /// signal per hysteresis window, not a latched alarm).
    pub fn reset(&mut self) {
        self.s = 0.0;
    }
}

// The bank's thresholds. All compare simulated-time quantities, so they
// behave identically across hosts and thread counts; no caller has ever
// needed another value (DESIGN.md §15).

/// Rounds at the start of a run during which no detector fires (EWMA/CUSUM
/// state still updates).
const WARMUP_ROUNDS: u64 = 3;
/// Rounds a detector stays quiet after firing.
const HYSTERESIS_ROUNDS: u64 = 4;
/// Spill CUSUM: spills allowed per round before the sum grows.
const SPILL_SLACK: f64 = 2.0;
/// Spill CUSUM: accumulated excess spills that fire `spill-storm`.
const SPILL_LIMIT: f64 = 8.0;
/// EWMA smoothing factor for the window-close delay series.
const DELAY_ALPHA: f64 = 0.3;
/// `delay-surge` fires when a round's close delay exceeds this multiple of
/// the EWMA.
const DELAY_SURGE_RATIO: f64 = 8.0;
/// Close delays below this (seconds) never fire `delay-surge`, so near-zero
/// baselines don't amplify noise into surges.
const DELAY_MIN_SECS: f64 = 1e-6;
/// `hbm-pressure` fires when HBM occupancy reaches this fraction while the
/// run has spilled nothing (pressure without relief).
const OCCUPANCY_LIMIT: f64 = 0.95;
/// Consecutive rounds of frozen watermark (with records still arriving)
/// that fire `watermark-stall`.
const STALL_ROUNDS: u64 = 3;
/// `backpressure` fires when more than this many windows sit open behind
/// the watermark.
const QUEUE_LIMIT: f64 = 256.0;

// Detector slots, indexing the per-detector hysteresis deadlines.
const SPILL_STORM: usize = 0;
const DELAY_SURGE: usize = 1;
const WATERMARK_STALL: usize = 2;
const HBM_PRESSURE: usize = 3;
const BACKPRESSURE: usize = 4;
const DETECTORS: usize = 5;

/// The engine-local detector bank: five deterministic rules evaluated over
/// each round's [`RoundPoint`], with shared warm-up and per-detector
/// hysteresis.
///
/// | kind              | rule                                              |
/// |-------------------|---------------------------------------------------|
/// | `spill-storm`     | CUSUM of per-round spill deltas exceeds the limit |
/// | `delay-surge`     | close delay > ratio x its EWMA                    |
/// | `watermark-stall` | watermark frozen N rounds while records arrive    |
/// | `hbm-pressure`    | HBM occupancy at limit with zero spills all run   |
/// | `backpressure`    | open windows behind the watermark exceed limit    |
#[derive(Debug, Clone)]
pub struct DetectorBank {
    spill_cusum: Cusum,
    delay_ewma: Ewma,
    cum_spills: f64,
    last_watermark: Option<f64>,
    stalled: u64,
    quiet_until: [u64; DETECTORS],
}

impl Default for DetectorBank {
    fn default() -> DetectorBank {
        DetectorBank::new()
    }
}

impl DetectorBank {
    /// A fresh bank.
    pub fn new() -> DetectorBank {
        DetectorBank {
            spill_cusum: Cusum::new(SPILL_SLACK),
            delay_ewma: Ewma::new(DELAY_ALPHA),
            cum_spills: 0.0,
            last_watermark: None,
            stalled: 0,
            quiet_until: [0; DETECTORS],
        }
    }

    /// Forgets all detector state (used when a crashed attempt rewinds the
    /// run to a checkpoint).
    pub fn reset(&mut self) {
        *self = DetectorBank::new();
    }

    fn armed(&self, slot: usize, round: u64) -> bool {
        round >= WARMUP_ROUNDS && round >= self.quiet_until[slot]
    }

    fn quiet(&mut self, slot: usize, round: u64) {
        self.quiet_until[slot] = round + 1 + HYSTERESIS_ROUNDS;
    }

    /// Evaluates every detector against one round boundary. State always
    /// updates; signals only fire once the warm-up has passed and the
    /// detector is outside its hysteresis window. Emission order is fixed
    /// (spill-storm, delay-surge, watermark-stall, hbm-pressure,
    /// backpressure), so same-seed signal streams are byte-identical.
    pub fn observe(&mut self, p: &RoundPoint) -> Vec<Signal> {
        let mut fired = Vec::new();
        let subject = |p: &RoundPoint| format!("round{}", p.round);

        // spill-storm: sustained HBM->DRAM spilling beyond the slack.
        self.cum_spills += p.spills;
        let s = self.spill_cusum.observe(p.spills);
        if self.armed(SPILL_STORM, p.round) {
            let rule = ThresholdRule::above("spill-storm", SPILL_LIMIT);
            if let Some(sig) = rule.check(
                s,
                subject(p),
                p.round,
                format!(
                    "spill CUSUM hit {:.1} ({} HBM->DRAM spills this round, slack {:.0}/round)",
                    s, p.spills as u64, SPILL_SLACK
                ),
            ) {
                fired.push(sig);
                self.spill_cusum.reset();
                self.quiet(SPILL_STORM, p.round);
            }
        }

        // delay-surge: a window close far above its own moving average.
        if p.closed_windows > 0.0 {
            if let Some(avg) = self.delay_ewma.value() {
                if avg > DELAY_MIN_SECS && self.armed(DELAY_SURGE, p.round) {
                    let ratio = p.close_secs / avg;
                    let rule = ThresholdRule::above("delay-surge", DELAY_SURGE_RATIO);
                    if let Some(sig) = rule.check(
                        ratio,
                        subject(p),
                        p.round,
                        format!(
                            "window close took {:.6}s, {:.2}x the {:.6}s EWMA",
                            p.close_secs, ratio, avg
                        ),
                    ) {
                        fired.push(sig);
                        self.quiet(DELAY_SURGE, p.round);
                    }
                }
            }
            self.delay_ewma.observe(p.close_secs);
        }

        // watermark-stall: records keep arriving but the watermark is
        // frozen for stall_rounds consecutive rounds.
        let advanced = match self.last_watermark {
            None => true,
            Some(w) => p.watermark_secs > w,
        };
        self.last_watermark = Some(p.watermark_secs);
        if advanced || p.records <= 0.0 {
            self.stalled = 0;
        } else {
            self.stalled += 1;
            if self.armed(WATERMARK_STALL, p.round) {
                let rule = ThresholdRule::at_least("watermark-stall", STALL_ROUNDS as f64);
                if let Some(sig) = rule.check(
                    self.stalled as f64,
                    subject(p),
                    p.round,
                    format!(
                        "watermark frozen at {:.3}s for {} rounds while records keep arriving",
                        p.watermark_secs, self.stalled
                    ),
                ) {
                    fired.push(sig);
                    self.quiet(WATERMARK_STALL, p.round);
                }
            }
        }

        // hbm-pressure: HBM pegged while nothing has spilled all run —
        // pressure without relief, the placement controller's cue. A run
        // that is already spilling reports spill-storm instead.
        if self.cum_spills == 0.0 && self.armed(HBM_PRESSURE, p.round) {
            let rule = ThresholdRule::at_least("hbm-pressure", OCCUPANCY_LIMIT);
            if let Some(sig) = rule.check(
                p.hbm_occupancy,
                subject(p),
                p.round,
                format!(
                    "HBM {:.1}% full with no spill relief (DRAM {:.1}%)",
                    100.0 * p.hbm_occupancy,
                    100.0 * p.dram_occupancy
                ),
            ) {
                fired.push(sig);
                self.quiet(HBM_PRESSURE, p.round);
            }
        }

        // backpressure: the open-window queue behind the watermark.
        if self.armed(BACKPRESSURE, p.round) {
            let rule = ThresholdRule::above("backpressure", QUEUE_LIMIT);
            if let Some(sig) = rule.check(
                p.open_windows,
                subject(p),
                p.round,
                format!(
                    "{} windows open behind the watermark",
                    p.open_windows as u64
                ),
            ) {
                fired.push(sig);
                self.quiet(BACKPRESSURE, p.round);
            }
        }

        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(round: u64) -> RoundPoint {
        RoundPoint {
            round,
            epoch: 0,
            at_secs: round as f64,
            round_secs: 0.1,
            close_secs: 0.01,
            closed_windows: 1.0,
            records: 1000.0,
            watermark_secs: round as f64,
            open_windows: 1.0,
            hbm_occupancy: 0.2,
            dram_occupancy: 0.1,
            spills: 0.0,
            knob_moves: 0.0,
            delay_p50: 0.01,
            delay_p95: 0.01,
            delay_p99: 0.01,
            ..RoundPoint::default()
        }
    }

    #[test]
    fn clean_rounds_fire_nothing() {
        let mut b = DetectorBank::new();
        for r in 0..50 {
            assert!(b.observe(&point(r)).is_empty(), "round {r}");
        }
    }

    #[test]
    fn spill_storm_fires_with_hysteresis() {
        let mut b = DetectorBank::new();
        let mut rounds_fired = Vec::new();
        for r in 0..20 {
            let mut p = point(r);
            p.spills = 6.0; // 4 over slack per round
            for sig in b.observe(&p) {
                assert_eq!(sig.kind, "spill-storm");
                assert_eq!(sig.subject, format!("round{r}"));
                rounds_fired.push(r);
            }
        }
        // Warm-up holds rounds 0..2; CUSUM (already at 12 by round 3)
        // fires, resets, then re-accumulates past 8 only after the
        // 4-round quiet window.
        assert!(!rounds_fired.is_empty());
        assert_eq!(rounds_fired[0], 3);
        for w in rounds_fired.windows(2) {
            assert!(w[1] - w[0] > HYSTERESIS_ROUNDS);
        }
    }

    #[test]
    fn delay_surge_fires_on_spike_only() {
        let mut b = DetectorBank::new();
        for r in 0..10 {
            assert!(b.observe(&point(r)).is_empty());
        }
        let mut p = point(10);
        p.close_secs = 0.2; // 20x the 0.01 EWMA
        let fired = b.observe(&p);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "delay-surge");
        assert!(fired[0].value > 8.0);
        // A round with no closes never evaluates the rule.
        let mut q = point(11);
        q.closed_windows = 0.0;
        q.close_secs = 99.0;
        assert!(b.observe(&q).is_empty());
    }

    #[test]
    fn watermark_stall_needs_consecutive_frozen_rounds() {
        let mut b = DetectorBank::new();
        for r in 0..5 {
            assert!(b.observe(&point(r)).is_empty());
        }
        let mut fired_round = None;
        for r in 5..12 {
            let mut p = point(r);
            p.watermark_secs = 5.0; // frozen
            for sig in b.observe(&p) {
                assert_eq!(sig.kind, "watermark-stall");
                fired_round.get_or_insert(r);
            }
        }
        // Rounds 6,7,8 are the first three frozen rounds (round 5 still
        // shows an advance from 4.0 -> 5.0).
        assert_eq!(fired_round, Some(8));
        // An advance resets the streak.
        let mut p = point(12);
        p.watermark_secs = 6.0;
        assert!(b.observe(&p).is_empty());
        let mut q = point(13);
        q.watermark_secs = 6.0;
        assert!(b.observe(&q).is_empty(), "one frozen round is not a stall");
    }

    #[test]
    fn hbm_pressure_requires_zero_spills_all_run() {
        let mut b = DetectorBank::new();
        for r in 0..4 {
            b.observe(&point(r));
        }
        let mut p = point(4);
        p.hbm_occupancy = 0.97;
        let fired = b.observe(&p);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "hbm-pressure");

        // A bank that has seen spills classifies the run as spilling, not
        // silently pressured.
        let mut b2 = DetectorBank::new();
        let mut s = point(0);
        s.spills = 1.0;
        b2.observe(&s);
        for r in 1..4 {
            b2.observe(&point(r));
        }
        let mut q = point(4);
        q.hbm_occupancy = 0.99;
        assert!(b2.observe(&q).is_empty());
    }

    #[test]
    fn backpressure_fires_above_queue_limit() {
        let mut b = DetectorBank::new();
        for r in 0..4 {
            b.observe(&point(r));
        }
        let mut p = point(4);
        p.open_windows = 300.0;
        let fired = b.observe(&p);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "backpressure");
        assert_eq!(fired[0].value, 300.0);
    }

    #[test]
    fn warmup_suppresses_everything() {
        let mut b = DetectorBank::new();
        let mut p = point(0);
        p.spills = 100.0;
        p.hbm_occupancy = 1.0;
        p.open_windows = 1e6;
        assert!(b.observe(&p).is_empty());
    }

    #[test]
    fn reset_clears_state() {
        let mut b = DetectorBank::new();
        let mut p = point(0);
        p.spills = 100.0;
        b.observe(&p);
        b.reset();
        // After reset the cum-spill gate re-opens for hbm-pressure.
        for r in 0..4 {
            b.observe(&point(r));
        }
        let mut q = point(4);
        q.hbm_occupancy = 0.99;
        assert_eq!(b.observe(&q).len(), 1);
    }

    #[test]
    fn threshold_rule_exclusive_vs_inclusive() {
        let above = ThresholdRule::above("x", 1.0);
        assert!(above
            .check(1.0, "s".to_owned(), 0, "d".to_owned())
            .is_none());
        assert!(above
            .check(1.1, "s".to_owned(), 0, "d".to_owned())
            .is_some());
        let at_least = ThresholdRule::at_least("x", 1.0);
        assert!(at_least
            .check(1.0, "s".to_owned(), 0, "d".to_owned())
            .is_some());
    }

    #[test]
    fn sort_signals_orders_kind_round_subject() {
        let sig = |kind: &str, round: u64, subject: &str| Signal {
            kind: kind.to_owned(),
            subject: subject.to_owned(),
            round,
            value: 0.0,
            threshold: 0.0,
            detail: String::new(),
        };
        let mut v = [
            sig("b", 0, "z"),
            sig("a", 2, "a"),
            sig("a", 1, "b"),
            sig("a", 1, "a"),
        ];
        sort_signals(&mut v);
        assert_eq!(
            v.iter()
                .map(|s| (s.kind.as_str(), s.round, s.subject.as_str()))
                .collect::<Vec<_>>(),
            [("a", 1, "a"), ("a", 1, "b"), ("a", 2, "a"), ("b", 0, "z")]
        );
    }

    #[test]
    fn ewma_and_cusum_behave() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(2.0), 2.0);
        assert_eq!(e.observe(4.0), 3.0);
        e.reset();
        assert_eq!(e.value(), None);

        let mut c = Cusum::new(1.0);
        assert_eq!(c.observe(1.0), 0.0); // within slack
        assert_eq!(c.observe(3.0), 2.0);
        assert_eq!(c.observe(0.0), 1.0); // drains
        c.reset();
        assert_eq!(c.sum(), 0.0);
    }
}
