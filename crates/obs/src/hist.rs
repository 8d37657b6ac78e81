//! Log-bucketed histograms.
//!
//! Values are bucketed by their power-of-two exponent: a positive value `v`
//! with `floor(log2 v) == e` lands in the half-open bucket `[2^e, 2^(e+1))`.
//! Zero (and any non-positive or non-finite value) lands in a dedicated
//! bucket 0. Exponents are clamped to [`MIN_EXP`, `MAX_EXP`], which spans
//! nanosecond-scale latencies (≈2⁻⁶⁴ s) up to 2⁶⁴-scale byte counts.
//!
//! Alongside the buckets the histogram keeps the *exact* count, sum, min and
//! max, updated with lock-free compare-and-swap loops over `f64` bit
//! patterns, so means and extrema carry no bucketing error — only interior
//! quantiles are estimates (interpolated within a bucket, so the error is
//! bounded by the bucket width).

// sbx-lint: out-of-scope(atomic-ordering, counter module; concurrent histogram increments merged at export)
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Smallest distinguished power-of-two exponent (values below collapse here).
pub const MIN_EXP: i32 = -64;
/// Largest distinguished power-of-two exponent (values above collapse here).
pub const MAX_EXP: i32 = 63;
/// Total bucket count: one zero bucket plus one per exponent.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize + 1;

/// Returns the bucket index for a recorded value.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    // IEEE-754 exponent extraction: exact floor(log2 v) for normal values
    // with no floating-point ops. Subnormals report -1023 and clamp to
    // MIN_EXP, which is the right bucket for them anyway.
    let exp = (((v.to_bits() >> 52) & 0x7ff) as i32 - 1023).clamp(MIN_EXP, MAX_EXP);
    (exp - MIN_EXP) as usize + 1
}

/// Returns the `[lo, hi)` boundaries of a bucket index. Bucket 0 is the
/// zero/non-positive bucket and reports `(0.0, 0.0)`.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == 0 || index >= BUCKETS {
        return (0.0, 0.0);
    }
    let exp = MIN_EXP + (index as i32 - 1);
    (2f64.powi(exp), 2f64.powi(exp + 1))
}

#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// f64 bit pattern of the running exact sum.
    sum: AtomicU64,
    /// f64 bit pattern; starts at +inf so the first record always wins.
    min: AtomicU64,
    /// f64 bit pattern; starts at -inf so the first record always wins.
    max: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        // Weighted sum in ONE f64 addition, matching `sum += v * n as f64`
        // accumulation bit-for-bit for single-threaded recorders.
        f64_update(&self.sum, |cur| cur + v * n as f64);
        f64_update(&self.min, |cur| cur.min(v));
        f64_update(&self.max, |cur| cur.max(v));
    }

    /// Folds a snapshot from another histogram into this one: bucket counts,
    /// count and sum add; min/max fold only when the snapshot is non-empty.
    /// The sum lands in ONE f64 addition so adopting a shard snapshot into a
    /// zeroed cluster histogram reproduces the shard's sum bit-for-bit.
    pub(crate) fn absorb(&self, snap: &HistSnapshot) {
        if snap.count == 0 {
            return;
        }
        for &(idx, c) in &snap.buckets {
            if idx < BUCKETS {
                self.buckets[idx].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        f64_update(&self.sum, |cur| cur + snap.sum);
        f64_update(&self.min, |cur| cur.min(snap.min));
        f64_update(&self.max, |cur| cur.max(snap.max));
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Acquire);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i, c));
            }
        }
        HistSnapshot {
            count,
            sum: f64::from_bits(self.sum.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max.load(Ordering::Relaxed))
            },
            buckets,
        }
    }
}

/// CAS loop applying `f` to an atomically stored `f64` bit pattern.
fn f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => cur = observed,
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Number of recorded values (including weights).
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: f64,
    /// Exact minimum recorded value (0.0 when empty).
    pub min: f64,
    /// Exact maximum recorded value (0.0 when empty).
    pub max: f64,
    /// Non-empty `(bucket_index, count)` pairs in ascending index order.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// `q <= 0` returns the exact minimum and `q >= 1` the exact maximum;
    /// interior quantiles interpolate linearly inside the containing bucket
    /// and are clamped to `[min, max]`, so the estimate is never off by more
    /// than the bucket width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = q * self.count as f64;
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            let before = seen;
            // A parsed snapshot may hold any counts and bounds: saturate,
            // and bound with `max`/`min` (`clamp` panics when min > max).
            seen = seen.saturating_add(c);
            if seen as f64 >= target {
                if idx == 0 {
                    return self.min.min(0.0).max(self.min);
                }
                let (lo, hi) = bucket_bounds(idx);
                let frac = ((target - before as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// The `[p50, p95, p99]` quantile estimates — the percentiles surfaced
    /// by `RunReport` and `sbx report` (see [`HistSnapshot::quantile`] for
    /// the estimation error bound).
    pub fn percentiles(&self) -> [f64; 3] {
        [self.quantile(0.5), self.quantile(0.95), self.quantile(0.99)]
    }
}

/// A histogram handle. The default (no-op) handle is inert and allocation
/// free; handles created by an active [`crate::MetricsRegistry`] share one
/// core per name.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistCore>>);

impl Histogram {
    /// An inert handle: recording does nothing and allocates nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// True if this handle discards all records.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Records one value.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `v` with weight `n` (counts as `n` observations of `v`).
    pub fn record_n(&self, v: f64, n: u64) {
        if let Some(core) = &self.0 {
            core.record_n(v, n);
        }
    }

    /// Folds a snapshot from another histogram into this one (discarded by
    /// no-op handles). Adopting a shard snapshot into a fresh histogram
    /// reproduces the shard's exact count/sum/min/max and buckets.
    pub fn absorb(&self, snap: &HistSnapshot) {
        if let Some(core) = &self.0 {
            core.absorb(snap);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Acquire))
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.sum.load(Ordering::Acquire)))
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Exact minimum recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.snapshot().min
    }

    /// Exact maximum recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.snapshot().max
    }

    /// Estimated `q`-quantile; see [`HistSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// The `[p50, p95, p99]` quantile estimates of one snapshot.
    pub fn percentiles(&self) -> [f64; 3] {
        self.snapshot().percentiles()
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.as_ref().map_or_else(
            || HistSnapshot {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                buckets: Vec::new(),
            },
            |c| c.snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> Histogram {
        Histogram(Some(Arc::new(HistCore::new())))
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Each bucket [2^e, 2^(e+1)) must contain exactly its half-open range.
        for exp in [-64, -30, -1, 0, 1, 10, 63] {
            let lo = 2f64.powi(exp);
            let idx = bucket_index(lo);
            assert_eq!(bucket_bounds(idx).0, lo, "exp {exp}");
            // Just below the boundary falls in the previous bucket (except at
            // the clamped bottom).
            let below = lo * (1.0 - f64::EPSILON);
            if exp > MIN_EXP {
                assert_eq!(bucket_index(below), idx - 1, "exp {exp}");
            } else {
                assert_eq!(bucket_index(below), idx, "exp {exp} clamps");
            }
            // Top of the bucket is exclusive.
            let hi = bucket_bounds(idx).1;
            if exp < MAX_EXP {
                assert_eq!(bucket_index(hi), idx + 1, "exp {exp}");
            }
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(
            bucket_index(f64::INFINITY),
            bucket_index(2f64.powi(MAX_EXP))
        );
        assert_eq!(bucket_index(1.5), bucket_index(1.0));
        assert_ne!(bucket_index(2.0), bucket_index(1.0));
    }

    #[test]
    fn exact_stats_match_reference() {
        let h = active();
        let values = [0.001, 0.25, 1.0, 1.5, 2.0, 7.75, 1024.0, 0.0];
        let mut sum = 0.0;
        for &v in &values {
            h.record(v);
            sum += v;
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum().to_bits(), sum.to_bits());
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1024.0);
        assert_eq!(h.mean(), sum / values.len() as f64);
    }

    #[test]
    fn weighted_record_matches_sequential_fold() {
        // record_n must accumulate `v * n as f64` in one addition, the same
        // shape the engine's old delay_sum fold used.
        let h = active();
        let mut reference = 0.0f64;
        for (v, n) in [(0.125, 3u64), (0.9, 7), (2.5, 1)] {
            h.record_n(v, n);
            reference += v * n as f64;
        }
        assert_eq!(h.sum().to_bits(), reference.to_bits());
        assert_eq!(h.count(), 11);
    }

    #[test]
    fn quantiles_track_exact_values_within_bucket_width() {
        let h = active();
        // 1000 uniformly spread values in (0, 100].
        let mut exact: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_by(f64::total_cmp);
        assert_eq!(h.quantile(0.0), 0.1);
        assert_eq!(h.quantile(1.0), 100.0);
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let est = h.quantile(q);
            let truth = exact[((q * 1000.0) as usize).min(999)];
            let (lo, hi) = bucket_bounds(bucket_index(truth));
            let width = hi - lo;
            assert!(
                (est - truth).abs() <= width,
                "q={q}: est {est} vs exact {truth} (bucket width {width})"
            );
        }
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let h = active();
        for i in 1..=1000 {
            h.record(i as f64 / 10.0);
        }
        let [p50, p95, p99] = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= h.min() && p99 <= h.max());
        assert_eq!(h.percentiles()[0], h.quantile(0.5));
        assert_eq!(Histogram::noop().percentiles(), [0.0; 3]);
    }

    #[test]
    fn absorb_round_trips_a_snapshot_exactly() {
        let src = active();
        for v in [0.001, 0.25, 1.5, 7.75, 1024.0, 0.0] {
            src.record(v);
        }
        let snap = src.snapshot();
        let dst = active();
        dst.absorb(&snap);
        let got = dst.snapshot();
        assert_eq!(got.count, snap.count);
        assert_eq!(got.sum.to_bits(), snap.sum.to_bits());
        assert_eq!(got.min, snap.min);
        assert_eq!(got.max, snap.max);
        assert_eq!(got.buckets, snap.buckets);
        // Absorbing an empty snapshot leaves min/max semantics intact.
        let empty = active();
        empty.absorb(&active().snapshot());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0.0);
    }

    #[test]
    fn empty_and_noop_histograms_report_zeroes() {
        for h in [active(), Histogram::noop()] {
            assert_eq!(h.count(), 0);
            assert_eq!(h.sum(), 0.0);
            assert_eq!(h.min(), 0.0);
            assert_eq!(h.max(), 0.0);
            assert_eq!(h.quantile(0.5), 0.0);
        }
        let noop = Histogram::noop();
        noop.record(3.0);
        assert!(noop.is_noop());
        assert_eq!(noop.count(), 0);
    }
}
