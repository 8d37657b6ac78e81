use std::sync::Arc;

use sbx_prng::{math, SbxRng};

use sbx_records::{EventTime, Schema};

/// A deterministic, seeded stream source.
///
/// Sources fill flat row-major buffers; the [`crate::Sender`] turns those
/// into DRAM record bundles and interleaves watermarks.
pub trait Source {
    /// Schema of the records this source produces.
    fn schema(&self) -> Arc<Schema>;

    /// Appends `rows` records (row-major) to `out`.
    fn fill(&mut self, rows: usize, out: &mut Vec<u64>);

    /// A watermark-safe lower bound on all future record timestamps.
    fn low_watermark(&self) -> EventTime;
}

/// A boxed source is a source: the engine's generic entry points accept a
/// `Box<dyn Source>` chosen at run time (the benchmark table's sources).
impl<S: Source + ?Sized> Source for Box<S> {
    fn schema(&self) -> Arc<Schema> {
        (**self).schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        (**self).fill(rows, out);
    }

    fn low_watermark(&self) -> EventTime {
        (**self).low_watermark()
    }
}

/// Ticks of event time per event-time second. The benchmarks use a window
/// of 10 M records spanning one second of event time (paper §6).
pub(crate) const TICKS_PER_SEC: u64 = 1_000_000_000;

fn ts_for(count: u64, event_rate: u64) -> u64 {
    // count records per event-second, expressed in ticks.
    (count as u128 * TICKS_PER_SEC as u128 / event_rate as u128) as u64
}

/// The emission front of a `fill` call: [`ts_for`] of consecutive record
/// counts, carried from record to record as quotient and remainder of
/// `count · TICKS_PER_SEC / event_rate` — an add, a compare and a
/// conditional subtract per record where the closed form is a 128-bit
/// multiply and divide.
struct Front {
    /// `ts_for(count, event_rate)`.
    ts: u64,
    /// `count · TICKS_PER_SEC mod event_rate`.
    rem: u64,
    /// `TICKS_PER_SEC / event_rate` and `TICKS_PER_SEC mod event_rate`.
    step: (u64, u64),
    event_rate: u64,
}

impl Front {
    /// The front at record `count`, from the closed form.
    fn at(count: u64, event_rate: u64) -> Front {
        let ticks = count as u128 * TICKS_PER_SEC as u128;
        Front {
            ts: ts_for(count, event_rate),
            rem: (ticks % event_rate as u128) as u64,
            step: (TICKS_PER_SEC / event_rate, TICKS_PER_SEC % event_rate),
            event_rate,
        }
    }

    /// The current record's timestamp; moves the front to the next record.
    #[inline]
    fn next_ts(&mut self) -> u64 {
        let ts = self.ts;
        let (quot, rem) = self.step;
        // Both remainders are below `event_rate`: at most one carry, and
        // comparing against the gap keeps the sum from overflowing.
        let gap = self.event_rate - rem;
        let carry = self.rem >= gap;
        self.rem = if carry {
            self.rem - gap
        } else {
            self.rem + rem
        };
        // `ts_for` truncates to 64 bits; so does this.
        self.ts = ts.wrapping_add(quot).wrapping_add(u64::from(carry));
        ts
    }
}

/// Deterministic Zipf-distributed rank sampler over `{0, .., n-1}`: rank
/// `i` is drawn with probability `∝ (i+1)^-θ`, so rank 0 is the hottest.
///
/// The distribution is tabulated once, in O(n), with weights from
/// [`sbx_prng::math`]: its CDF in 64-bit fixed point (8 bytes per rank) and
/// a guide table into it. The guide takes the fewest power-of-two buckets,
/// never fewer than one per rank, for which no bucket is wider than the
/// smallest CDF step: a draw is then a lookup and one compare. It stops at
/// 2^16 buckets (256 KiB) unless one per rank is more, so it holds at most
/// `4 · max(2^16, n.next_power_of_two())` bytes; a table whose guide stopped
/// short (θ steep, or 2^16 ranks and up) scans forward after the compare. A
/// draw is one `next_u64` and integer work only, so a skewed stream is the
/// same bytes on every platform.
///
/// Drives the skewed cluster workloads: a Zipf key stream concentrates
/// traffic on the slots owning the low ranks, producing the hot shard the
/// rebalance trigger must detect and move.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    /// `2^64 ·` the probability of ranks `0..=i`, truncated, for `i < n - 1`,
    /// then `u64::MAX`: a draw `x` is the rank of the first entry `>= x`.
    cdf: Vec<u64>,
    /// Per bucket of draws (`x >> shift`), the rank of its smallest draw.
    guide: Vec<u32>,
    shift: u32,
}

/// The most guide buckets a [`ZipfKeys`] table takes to make every bucket
/// narrower than its smallest CDF step (4 bytes each).
const GUIDE_CAP: usize = 1 << 16;

impl ZipfKeys {
    /// A Zipf sampler over `n` ranks with exponent `theta`. The domain is
    /// `1 <= n <= 2^32` and `theta >= 0` (0 is uniform, `+inf` puts every
    /// draw on rank 0); `n` is clamped into it and a NaN or negative `theta`
    /// is taken as 0, so the table always holds a distribution.
    pub fn new(n: u64, theta: f64) -> Self {
        let n = n.clamp(1, 1 << 32) as usize;
        let theta = theta.max(0.0);
        // (i+1)^-θ, with rank 0's 1 exact even at θ = +inf.
        let weight = |i: usize| match i {
            0 => 1.0,
            _ => math::exp(-theta * math::ln((i + 1) as f64)),
        };
        // Prefix sums, held as `f64` bits until the total is known, then
        // scaled to 2^64 in place; the last, total / total, saturates to
        // `u64::MAX`, the scan's sentinel.
        let (mut cdf, mut total) = (Vec::new(), 0.0);
        cdf.extend((0..n).map(|i| {
            total += weight(i);
            f64::to_bits(total)
        }));
        for c in &mut cdf {
            *c = (f64::from_bits(*c) / total * (1u128 << 64) as f64) as u64;
        }
        // No bucket wider than the smallest CDF step, up to the cap; never
        // fewer buckets than ranks.
        let min_step = cdf
            .iter()
            .scan(0, |prev, &c| Some(c - std::mem::replace(prev, c)))
            .min()
            .unwrap_or(0);
        // A zero step (θ = +inf) takes the cap, as a step of 1 would.
        let fine = (1u128 << 64)
            .div_ceil(u128::from(min_step.max(1)))
            .min(GUIDE_CAP as u128) as usize;
        let buckets = n.max(2).next_power_of_two().max(fine.next_power_of_two());
        let shift = u64::BITS - buckets.trailing_zeros();
        let (mut guide, mut rank) = (Vec::new(), 0);
        guide.extend((0..buckets as u64).map(|b| {
            while cdf[rank] < b << shift {
                rank += 1;
            }
            rank as u32
        }));
        ZipfKeys { cdf, guide, shift }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws one rank in `[0, n)` from `rng` (rank 0 most popular).
    #[inline]
    pub fn sample(&self, rng: &mut SbxRng) -> u64 {
        self.rank_of(rng.next_u64())
    }

    /// The rank a draw of `x` maps to: the first CDF entry `>= x`.
    #[inline]
    fn rank_of(&self, x: u64) -> u64 {
        let mut rank = self.guide[(x >> self.shift) as usize] as usize;
        // A bucket holds at most one CDF step unless the guide stopped at
        // its cap: this branch-free compare resolves it, and the scan exits
        // at once.
        rank += usize::from(self.cdf[rank] < x);
        while self.cdf[rank] < x {
            rank += 1;
        }
        rank as u64
    }
}

/// Generator for the 3-column (`key,value,ts`) and 4-column
/// (`key,key2,value,ts`) synthetic benchmarks.
///
/// Keys and values are random 64-bit integers, bounded by the configured
/// cardinalities; timestamps advance so that `event_rate` records span one
/// second of event time, with bounded backwards jitter to exercise
/// out-of-order arrival (paper §2.1).
#[derive(Debug)]
pub struct KvSource {
    schema: Arc<Schema>,
    rng: SbxRng,
    key_cardinality: u64,
    key2_cardinality: Option<u64>,
    value_range: u64,
    event_rate: u64,
    jitter_ticks: u64,
    zipf: Option<ZipfKeys>,
    count: u64,
}

impl KvSource {
    /// A 3-column source with `key_cardinality` distinct keys, emitting
    /// `event_rate` records per second of event time.
    pub fn new(seed: u64, key_cardinality: u64, event_rate: u64) -> Self {
        KvSource {
            schema: Schema::kvt(),
            rng: SbxRng::seed_from_u64(seed),
            key_cardinality: key_cardinality.max(1),
            key2_cardinality: None,
            value_range: u64::MAX,
            event_rate: event_rate.max(1),
            jitter_ticks: 0,
            zipf: None,
            count: 0,
        }
    }

    /// Adds a secondary-key column (benchmarks 8–9's extra column).
    pub fn with_secondary_key(mut self, cardinality: u64) -> Self {
        self.key2_cardinality = Some(cardinality.max(1));
        self.schema = Schema::kkvt();
        self
    }

    /// Bounds values to `[0, range)` instead of the full `u64` range.
    pub fn with_value_range(mut self, range: u64) -> Self {
        self.value_range = range.max(1);
        self
    }

    /// Allows timestamps to lag up to `ticks` behind the emission front,
    /// producing out-of-order records.
    pub fn with_jitter(mut self, ticks: u64) -> Self {
        self.jitter_ticks = ticks;
        self
    }

    /// Draws keys from a Zipf distribution with exponent `theta` instead of
    /// uniformly: key 0 is the hottest, so skewed streams concentrate on a
    /// narrow key range (the cluster tier's hot-shard scenario). `theta`'s
    /// domain is [`ZipfKeys::new`]'s.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.zipf = Some(ZipfKeys::new(self.key_cardinality, theta));
        self
    }
}

impl Source for KvSource {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        out.reserve(rows * self.schema.ncols());
        let mut front = Front::at(self.count, self.event_rate);
        // The generator state lives in a local for the loop, so it stays in
        // registers whatever the key draw compiles to.
        let mut rng = self.rng.clone();
        for _ in 0..rows {
            let jitter = if self.jitter_ticks == 0 {
                0
            } else {
                rng.random_range(0..=self.jitter_ticks)
            };
            let ts = front.next_ts().saturating_sub(jitter);
            let key = match &self.zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.random_range(0..self.key_cardinality),
            };
            let key2 = self.key2_cardinality.map(|c2| rng.random_range(0..c2));
            let value = rng.random_range(0..self.value_range);
            match key2 {
                Some(key2) => out.extend_from_slice(&[key, key2, value, ts]),
                None => out.extend_from_slice(&[key, value, ts]),
            }
        }
        self.rng = rng;
        self.count += rows as u64;
    }

    fn low_watermark(&self) -> EventTime {
        EventTime(ts_for(self.count, self.event_rate).saturating_sub(self.jitter_ticks))
    }
}

/// Generator for the Yahoo Streaming Benchmark: 7-column numeric ad events
/// (`user_id, page_id, ad_id, ad_type, event_type, event_time, ip`),
/// following the benchmark directions with numerical values instead of
/// JSON strings (paper §6).
#[derive(Debug)]
pub struct YsbSource {
    schema: Arc<Schema>,
    rng: SbxRng,
    num_ads: u64,
    num_campaigns: u64,
    event_rate: u64,
    count: u64,
}

/// Number of `ad_type` classes in YSB.
pub const YSB_AD_TYPES: u64 = 5;
/// Number of `event_type` classes in YSB ("view", "click", "purchase").
pub const YSB_EVENT_TYPES: u64 = 3;

impl YsbSource {
    /// A YSB source with `num_ads` ads mapped onto `num_campaigns`
    /// campaigns.
    pub fn new(seed: u64, num_ads: u64, num_campaigns: u64, event_rate: u64) -> Self {
        YsbSource {
            schema: Schema::ysb(),
            rng: SbxRng::seed_from_u64(seed),
            num_ads: num_ads.max(1),
            num_campaigns: num_campaigns.max(1),
            event_rate: event_rate.max(1),
            count: 0,
        }
    }

    /// The static ad→campaign mapping (the external key-value store the
    /// YSB pipeline joins against; StreamBox-HBM keeps it as a small table
    /// in HBM, paper Fig. 5 step 3).
    pub fn campaign_of(&self, ad_id: u64) -> u64 {
        ad_id % self.num_campaigns
    }

    /// Number of campaigns.
    pub fn num_campaigns(&self) -> u64 {
        self.num_campaigns
    }
}

impl Source for YsbSource {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        out.reserve(rows * self.schema.ncols());
        let mut front = Front::at(self.count, self.event_rate);
        for _ in 0..rows {
            let user_id = self.rng.random_range(0..1_000_000);
            let page_id = self.rng.random_range(0..1_000_000);
            let ad_id = self.rng.random_range(0..self.num_ads);
            let ad_type = self.rng.random_range(0..YSB_AD_TYPES);
            let event_type = self.rng.random_range(0..YSB_EVENT_TYPES);
            let event_time = front.next_ts();
            let ip = self.rng.random_range(0..u32::MAX as u64);
            out.extend_from_slice(&[user_id, page_id, ad_id, ad_type, event_type, event_time, ip]);
        }
        self.count += rows as u64;
    }

    fn low_watermark(&self) -> EventTime {
        EventTime(ts_for(self.count, self.event_rate))
    }
}

/// Generator for the Power Grid benchmark: per-plug power samples
/// (`house, plug, load, ts`) in the shape of the DEBS 2014 grand challenge
/// data the paper replays.
///
/// Each plug has a stable mean load; samples are uniformly distributed
/// around it, so "high-power plugs" are a persistent property — the
/// benchmark's final per-house count is non-degenerate.
#[derive(Debug)]
pub struct PowerGridSource {
    schema: Arc<Schema>,
    rng: SbxRng,
    houses: u64,
    plugs_per_house: u64,
    event_rate: u64,
    count: u64,
}

impl PowerGridSource {
    /// A grid of `houses` x `plugs_per_house` plugs.
    pub fn new(seed: u64, houses: u64, plugs_per_house: u64, event_rate: u64) -> Self {
        PowerGridSource {
            // sbx-lint: allow(raw-alloc, schema column names; once per source)
            schema: Schema::new(vec!["house", "plug", "load", "ts"], sbx_records::Col(3)),
            rng: SbxRng::seed_from_u64(seed),
            houses: houses.max(1),
            plugs_per_house: plugs_per_house.max(1),
            event_rate: event_rate.max(1),
            count: 0,
        }
    }

    /// Number of houses.
    pub fn houses(&self) -> u64 {
        self.houses
    }

    /// Plugs per house.
    pub fn plugs_per_house(&self) -> u64 {
        self.plugs_per_house
    }

    fn mean_load(house: u64, plug: u64) -> u64 {
        // Deterministic per-plug mean in [100, 1100).
        (house
            .wrapping_mul(31)
            .wrapping_add(plug)
            .wrapping_mul(0x9E37_79B9)
            % 1000)
            + 100
    }
}

impl Source for PowerGridSource {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        out.reserve(rows * self.schema.ncols());
        let mut front = Front::at(self.count, self.event_rate);
        for _ in 0..rows {
            let house = self.rng.random_range(0..self.houses);
            let plug = self.rng.random_range(0..self.plugs_per_house);
            let mean = Self::mean_load(house, plug);
            let load = self.rng.random_range(mean / 2..mean + mean / 2 + 1);
            out.extend_from_slice(&[house, plug, load, front.next_ts()]);
        }
        self.count += rows as u64;
    }

    fn low_watermark(&self) -> EventTime {
        EventTime(ts_for(self.count, self.event_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_source_is_deterministic_per_seed() {
        let mut a = KvSource::new(7, 100, 1000);
        let mut b = KvSource::new(7, 100, 1000);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        a.fill(50, &mut va);
        b.fill(50, &mut vb);
        assert_eq!(va, vb);
        let mut c = KvSource::new(8, 100, 1000);
        let mut vc = Vec::new();
        c.fill(50, &mut vc);
        assert_ne!(va, vc);
    }

    #[test]
    fn kv_source_respects_cardinalities_and_rate() {
        let mut s = KvSource::new(1, 10, 1000).with_value_range(5);
        let mut v = Vec::new();
        s.fill(1000, &mut v);
        assert_eq!(v.len(), 3000);
        for row in v.chunks(3) {
            assert!(row[0] < 10);
            assert!(row[1] < 5);
        }
        // 1000 records at 1000 rec/s of event time spans ~1 event-second.
        let last_ts = v[v.len() - 1];
        assert_eq!(last_ts, (999 * TICKS_PER_SEC) / 1000);
        assert_eq!(s.low_watermark(), EventTime(TICKS_PER_SEC));
    }

    #[test]
    fn jitter_produces_out_of_order_but_bounded_timestamps() {
        let mut s = KvSource::new(3, 10, 1_000_000).with_jitter(50_000);
        let mut v = Vec::new();
        s.fill(5000, &mut v);
        let ts: Vec<u64> = v.chunks(3).map(|r| r[2]).collect();
        assert!(ts.windows(2).any(|w| w[1] < w[0]), "expected out-of-order");
        let wm = s.low_watermark().raw();
        // No future record may precede the low watermark.
        let mut s2 = s;
        let mut v2 = Vec::new();
        s2.fill(100, &mut v2);
        for r in v2.chunks(3) {
            assert!(r[2] >= wm);
        }
    }

    #[test]
    fn secondary_key_adds_column() {
        let mut s = KvSource::new(1, 10, 1000).with_secondary_key(4);
        assert_eq!(s.schema().ncols(), 4);
        let mut v = Vec::new();
        s.fill(10, &mut v);
        assert_eq!(v.len(), 40);
        for row in v.chunks(4) {
            assert!(row[1] < 4);
        }
    }

    #[test]
    fn ysb_fields_are_in_range() {
        let mut s = YsbSource::new(1, 1000, 100, 10_000);
        let mut v = Vec::new();
        s.fill(200, &mut v);
        assert_eq!(v.len(), 200 * 7);
        for row in v.chunks(7) {
            assert!(row[2] < 1000);
            assert!(row[3] < YSB_AD_TYPES);
            assert!(row[4] < YSB_EVENT_TYPES);
        }
        assert_eq!(s.campaign_of(205), 5);
    }

    #[test]
    fn power_grid_rows_have_stable_plug_means() {
        let mut s = PowerGridSource::new(1, 10, 5, 1000);
        let mut v = Vec::new();
        s.fill(500, &mut v);
        for row in v.chunks(4) {
            let mean = PowerGridSource::mean_load(row[0], row[1]);
            assert!(row[2] >= mean / 2 && row[2] <= mean + mean / 2);
        }
    }

    #[test]
    fn zipf_keys_are_skewed_deterministic_and_in_range() {
        let mut a = KvSource::new(5, 1_000, 1_000).with_zipf(0.99);
        let mut b = KvSource::new(5, 1_000, 1_000).with_zipf(0.99);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        a.fill(2_000, &mut va);
        b.fill(2_000, &mut vb);
        assert_eq!(va, vb, "same seed => same skewed stream");
        let keys: Vec<u64> = va.chunks(3).map(|r| r[0]).collect();
        assert!(keys.iter().all(|&k| k < 1_000));
        // Rank 0 dominates: it must appear far more often than a uniform
        // draw would give (2000/1000 = 2 expected occurrences).
        let hot = keys.iter().filter(|&&k| k == 0).count();
        assert!(hot > 100, "rank 0 appeared only {hot} times");
        // Skew is strictly ordered: the hot decile outweighs the rest.
        let low = keys.iter().filter(|&&k| k < 100).count();
        assert!(low * 2 > keys.len(), "low ranks got {low}/{}", keys.len());
    }

    /// The draws fit the exact pmf `∝ (i+1)^-θ` (computed here with the
    /// host `powf`, independently of the table's `ln` / `exp`): Pearson's
    /// χ² over bins of at least 20 expected draws stays within five
    /// standard deviations of its degrees of freedom. θ = 1.0 and 1.2 are
    /// honoured, not clamped below 1.
    #[test]
    fn zipf_draws_fit_the_exact_pmf() {
        const DRAWS: usize = 200_000;
        for n in [1u64, 2, 1_000, 50_000] {
            for theta in [0.5, 0.99, 1.0, 1.2] {
                let z = ZipfKeys::new(n, theta);
                assert_eq!(z.n(), n);
                let mut rng = SbxRng::seed_from_u64(n ^ theta.to_bits());
                let mut counts = vec![0usize; n as usize];
                for _ in 0..DRAWS {
                    counts[z.sample(&mut rng) as usize] += 1;
                }
                assert!(counts.iter().all(|&c| c <= counts[0]), "n {n} θ {theta}");
                let w: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
                let total: f64 = w.iter().sum();
                let (mut chi2, mut bins) = (0.0, 0usize);
                let (mut want, mut got) = (0.0, 0usize);
                for (i, (&wi, &ci)) in w.iter().zip(&counts).enumerate() {
                    want += wi / total * DRAWS as f64;
                    got += ci;
                    if want >= 20.0 || i + 1 == w.len() {
                        chi2 += (got as f64 - want).powi(2) / want;
                        bins += 1;
                        (want, got) = (0.0, 0);
                    }
                }
                let df = (bins - 1) as f64;
                let bound = df + 5.0 * (2.0 * df).sqrt() + 5.0;
                assert!(
                    chi2 <= bound,
                    "n {n} θ {theta}: χ² {chi2:.1} over {bins} bins"
                );
            }
        }
    }

    /// The guide table plus forward scan is exactly a binary search for the
    /// first CDF entry at or above the draw, at both ends of the range and
    /// on every CDF entry's edges.
    #[test]
    fn zipf_rank_is_a_binary_search_over_the_cdf() {
        for (n, theta) in [(1_000, 0.99), (50_000, 1.2), (3, 0.5), (1, 1.0)] {
            let z = ZipfKeys::new(n, theta);
            let search = |x: u64| z.cdf.partition_point(|&c| c < x) as u64;
            let mut rng = SbxRng::seed_from_u64(n);
            let edges = z
                .cdf
                .iter()
                .flat_map(|&c| [c.wrapping_sub(1), c, c.wrapping_add(1)]);
            let draws = (0..1_000_000).map(|_| rng.next_u64());
            for x in [0, 1, u64::MAX - 1, u64::MAX]
                .into_iter()
                .chain(edges)
                .chain(draws)
            {
                assert_eq!(z.rank_of(x), search(x), "n {n} θ {theta} x {x:#x}");
            }
        }
    }

    /// The guide is fine enough that no bucket holds two CDF steps, so the
    /// compare after the lookup resolves every draw: a bucket's smallest
    /// draw and the next bucket's are at most one rank apart, and the last
    /// bucket's at most one below the last rank. θ = +inf's zero steps take
    /// the capped guide; the cluster default (2 M ranks, θ 1.0) and
    /// (50 000, 1.2) keep one bucket per rank, rounded to a power of two.
    #[test]
    fn zipf_guide_buckets_hold_at_most_one_step() {
        for (n, theta) in [
            (1_000, 0.99),
            (1_000, 1.2),
            (1_000, 0.5),
            (3, 0.5),
            (1, 1.0),
        ] {
            let z = ZipfKeys::new(n, theta);
            let last = [z.cdf.len() as u32 - 1];
            let ends = z.guide.iter().chain(&last).collect::<Vec<_>>();
            assert!(
                ends.windows(2).all(|w| w[1] - w[0] <= 1),
                "n {n} θ {theta}: {} buckets",
                z.guide.len()
            );
            assert_eq!(z.guide.len(), 1 << (64 - z.shift));
        }
        assert_eq!(ZipfKeys::new(1_000, f64::INFINITY).guide.len(), GUIDE_CAP);
        for (n, theta) in [(2_000_000, 1.0), (50_000, 1.2)] {
            let z = ZipfKeys::new(n, theta);
            assert_eq!(z.guide.len(), (n as usize).next_power_of_two());
        }
    }

    /// Degenerate parameters still give a distribution: NaN and negative
    /// exponents are uniform, +inf is a point mass on rank 0, zero ranks is
    /// one rank.
    #[test]
    fn zipf_table_is_never_degenerate() {
        let uniform = ZipfKeys::new(4, 0.0);
        for theta in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert_eq!(ZipfKeys::new(4, theta).cdf, uniform.cdf, "{theta}");
        }
        assert_eq!(uniform.cdf, [1 << 62, 1 << 63, 3 << 62, u64::MAX]);
        let point = ZipfKeys::new(1_000, f64::INFINITY);
        assert!([0, 1 << 63, u64::MAX]
            .iter()
            .all(|&x| point.rank_of(x) == 0));
        assert_eq!(ZipfKeys::new(0, 0.99).n(), 1);
    }

    /// Pins the CDF alone, so the distribution (and with it every draw) is
    /// pinned whatever guide the table is searched through.
    #[test]
    fn zipf_cdf_checksum_is_pinned() {
        for (n, theta, want) in [
            (1_000, 0.99, 0xedf9_047a_afc1_f708u64),
            (50_000, 1.2, 0x3d7e_aeca_0d6a_a2e8),
        ] {
            let h = ZipfKeys::new(n, theta)
                .cdf
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(h, want, "n {n} θ {theta}: cdf changed: {h:#018x}");
        }
    }

    /// Pins the (1 000, 0.99) table — the `sum_lowcard_adaptive` keys — so
    /// a change to the weights or the layout is a deliberate one.
    #[test]
    fn zipf_table_checksum_is_pinned() {
        let z = ZipfKeys::new(1_000, 0.99);
        let words = z
            .cdf
            .iter()
            .copied()
            .chain(z.guide.iter().map(|&g| u64::from(g)));
        let h = words.fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((z.cdf.len(), z.guide.len(), z.shift), (1_000, 8_192, 51));
        assert_eq!(h, 0xe148_4243_52e9_c6b1, "table changed: {h:#018x}");
    }

    #[test]
    fn watermark_monotone_as_stream_advances() {
        let mut s = YsbSource::new(2, 10, 2, 1000);
        let mut prev = s.low_watermark();
        for _ in 0..5 {
            let mut v = Vec::new();
            s.fill(100, &mut v);
            let wm = s.low_watermark();
            assert!(wm >= prev);
            prev = wm;
        }
    }
}
