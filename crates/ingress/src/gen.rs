use std::sync::Arc;

use sbx_prng::SbxRng;

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

/// Deterministic Zipf-distributed rank sampler over `{0, .., n-1}` (rank 0
/// most popular), using the rejection-free inverse-CDF approximation of
/// Gray et al. ("Quickly generating billion-record synthetic databases").
///
/// Drives the skewed cluster workloads: a Zipf key stream concentrates
/// traffic on the slots owning the low ranks, producing the hot shard the
/// rebalance trigger must detect and move.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    n: u64,
    theta: f64,
    zetan: f64,
    eta: f64,
    threshold2: f64,
}

impl ZipfKeys {
    /// A Zipf sampler over `n` ranks with exponent `theta` in `(0, 1)`;
    /// `theta` near 1 is heavily skewed (YCSB's default is 0.99).
    pub fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1);
        let theta = theta.clamp(0.01, 0.999);
        let mut zetan = 0.0;
        for i in 1..=n {
            zetan += 1.0 / (i as f64).powf(theta);
        }
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfKeys {
            n,
            theta,
            zetan,
            eta,
            threshold2: zeta2,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one rank in `[0, n)` from `rng` (rank 0 most popular).
    pub fn sample(&self, rng: &mut SbxRng) -> u64 {
        let u = rng.random_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.threshold2 {
            return 1;
        }
        let rank =
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(1.0 / (1.0 - self.theta))) as u64;
        rank.min(self.n - 1)
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
    /// narrow key range (the cluster tier's hot-shard scenario).
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
        // The generator state lives in a local for the loop: the Zipf
        // sampler calls into libm, and across that call a state reached
        // through `self` is stored and reloaded on every draw of every key
        // distribution.
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

/// Partitions an inner source by key hash across `instances` engine
/// instances: instance `id` sees exactly the records whose key column
/// hashes to it (how a distributed StreamBox-HBM deployment shards one
/// logical stream, paper §3).
///
/// All instances constructed from identically seeded inner sources observe
/// disjoint, jointly exhaustive record sets.
#[derive(Debug)]
pub struct Partitioned<S> {
    inner: S,
    key_col: usize,
    instances: u64,
    id: u64,
    /// Owned rows fetched from the inner source but not yet emitted.
    spare: Vec<u64>,
    spare_pos: usize,
    /// Staging for the inner source's rows between refills.
    raw: Vec<u64>,
    schema: Arc<Schema>,
}

impl<S: Source> Partitioned<S> {
    /// Shard `inner` on column `key_col` into `instances` parts; this
    /// source yields part `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= instances` or `instances == 0`.
    pub fn new(inner: S, key_col: usize, instances: u64, id: u64) -> Self {
        assert!(instances > 0, "need at least one instance");
        assert!(id < instances, "instance id {id} out of range");
        Partitioned {
            schema: inner.schema(),
            inner,
            key_col,
            instances,
            id,
            spare: Vec::new(),
            spare_pos: 0,
            raw: Vec::new(),
        }
    }

    fn owns(&self, key: u64) -> bool {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.instances == self.id
    }
}

impl<S: Source> Source for Partitioned<S> {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        let ncols = self.schema.ncols();
        let mut produced = 0usize;
        while produced < rows {
            if self.spare_pos >= self.spare.len() {
                // Refill: fetch from the inner stream and keep only owned
                // rows; no record is ever dropped from a shard.
                self.spare.clear();
                self.spare_pos = 0;
                self.raw.clear();
                self.inner.fill((rows - produced).max(64), &mut self.raw);
                for row in self.raw.chunks(ncols) {
                    if self.owns(row[self.key_col]) {
                        self.spare.extend_from_slice(row);
                    }
                }
                continue;
            }
            out.extend_from_slice(&self.spare[self.spare_pos..self.spare_pos + ncols]);
            self.spare_pos += ncols;
            produced += 1;
        }
    }

    fn low_watermark(&self) -> EventTime {
        self.inner.low_watermark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_sources_are_disjoint_and_exhaustive() {
        let mk = |id| Partitioned::new(KvSource::new(42, 1_000, 1_000), 0, 3, id);
        let mut all_keys = std::collections::HashSet::new();
        let mut total = 0usize;
        for id in 0..3 {
            let mut s = mk(id);
            let mut v = Vec::new();
            s.fill(500, &mut v);
            assert_eq!(v.len() % 3, 0);
            total += v.len() / 3;
            for row in v.chunks(3) {
                // Every key this instance sees hashes to it...
                assert!(s.owns(row[0]));
                all_keys.insert(row[0]);
            }
        }
        assert_eq!(total, 1_500);
        assert!(all_keys.len() > 100, "shards cover many keys");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partitioned_rejects_bad_instance_id() {
        let _ = Partitioned::new(KvSource::new(1, 10, 10), 0, 2, 2);
    }

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
