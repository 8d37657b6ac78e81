//! Metrics registry: named counters, gauges, histograms and row series.
//!
//! A [`MetricsRegistry`] is either *active* (backed by shared atomics) or a
//! *no-op* (`MetricsRegistry::noop()`, the default). Handles taken from a
//! no-op registry are inert and allocation-free, so instrumented code paths
//! pay only a branch when observability is off. Registries and handles are
//! cheap `Arc` clones and safe to share across threads.
//!
//! All timestamps recorded through the registry are *simulated* time values
//! supplied by the caller — the registry never reads a clock, keeping
//! exports deterministic (see DESIGN.md §10).

// sbx-lint: out-of-scope(atomic-ordering, counter module; relaxed increments are aggregated at export time)
// sbx-lint: out-of-scope(raw-alloc, metrics registry and export; off the simulated data path)
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{HistCore, HistSnapshot, Histogram};
use crate::json::{self, ObjWriter};
use crate::sync::lock;

/// A monotonically increasing `u64` counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert handle: adding does nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// True if this handle discards all increments.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for no-op handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Acquire))
    }
}

#[derive(Debug)]
pub(crate) struct GaugeCore {
    /// f64 bit pattern of the last set value.
    value: AtomicU64,
    /// f64 bit pattern of the running maximum; -inf until first set.
    max: AtomicU64,
    sets: AtomicU64,
}

impl GaugeCore {
    fn new() -> Self {
        GaugeCore {
            value: AtomicU64::new(0f64.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            sets: AtomicU64::new(0),
        }
    }
}

/// An `f64` gauge handle that also tracks its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCore>>);

impl Gauge {
    /// An inert handle: setting does nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// True if this handle discards all sets.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Sets the gauge, updating the running maximum.
    pub fn set(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.value.store(v.to_bits(), Ordering::Release);
            core.sets.fetch_add(1, Ordering::Relaxed);
            let mut cur = core.max.load(Ordering::Relaxed);
            while f64::from_bits(cur) < v {
                match core.max.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(observed) => cur = observed,
                }
            }
        }
    }

    /// Last set value (0.0 if never set or no-op).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.value.load(Ordering::Acquire)))
    }

    /// Maximum value ever set (0.0 if never set or no-op).
    pub fn max(&self) -> f64 {
        match &self.0 {
            Some(core) if core.sets.load(Ordering::Acquire) > 0 => {
                f64::from_bits(core.max.load(Ordering::Acquire))
            }
            _ => 0.0,
        }
    }
}

#[derive(Debug)]
pub(crate) struct SeriesCore {
    fields: Vec<String>,
    rows: Mutex<Vec<Vec<f64>>>,
}

/// A handle to a time-series of fixed-width `f64` rows (e.g. one row per
/// engine round). Field names are fixed at creation.
#[derive(Debug, Clone, Default)]
pub struct Series(pub(crate) Option<Arc<SeriesCore>>);

impl Series {
    /// An inert handle: pushing does nothing.
    pub fn noop() -> Self {
        Series(None)
    }

    /// True if this handle discards all rows.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Appends one row. Shorter rows are zero-padded, longer rows truncated
    /// to the series width.
    pub fn push(&self, row: &[f64]) {
        if let Some(core) = &self.0 {
            let mut fixed = vec![0.0; core.fields.len()];
            for (dst, src) in fixed.iter_mut().zip(row.iter()) {
                *dst = *src;
            }
            lock(&core.rows).push(fixed);
        }
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |c| lock(&c.rows).len())
    }

    /// True if no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCore>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCore>>>,
    series: Mutex<BTreeMap<String, Arc<SeriesCore>>>,
}

/// The metrics registry. `Default` is the no-op registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// A no-op registry: every handle it returns is inert.
    pub fn noop() -> Self {
        MetricsRegistry { inner: None }
    }

    /// An active registry backed by shared atomics.
    pub fn active() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// True if this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter registered under `name`, creating it if needed.
    /// Handles for the same name share one cell.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.counters)
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Returns the gauge registered under `name`, creating it if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.gauges)
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(GaugeCore::new())),
            )
        }))
    }

    /// Returns the histogram registered under `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.hists)
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(HistCore::new())),
            )
        }))
    }

    /// Returns the series registered under `name`, creating it with the given
    /// field names if needed (an existing series keeps its original fields).
    pub fn series(&self, name: &str, fields: &[&str]) -> Series {
        Series(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock(&inner.series)
                    .entry(name.to_owned())
                    .or_insert_with(|| {
                        Arc::new(SeriesCore {
                            fields: fields.iter().map(|f| (*f).to_owned()).collect(),
                            rows: Mutex::new(Vec::new()),
                        })
                    }),
            )
        }))
    }

    /// A bounded copy of the last `last_n` rows of the series named
    /// `name`, or `None` when the registry is a no-op or the series does
    /// not exist. Detectors and the flight recorder use this to read a
    /// recent suffix without cloning a whole run's row history (as
    /// [`MetricsRegistry::snapshot`] would).
    pub fn series_window(&self, name: &str, last_n: usize) -> Option<SeriesDump> {
        let inner = self.inner.as_ref()?;
        let core = Arc::clone(lock(&inner.series).get(name)?);
        let rows = lock(&core.rows);
        let start = rows.len().saturating_sub(last_n);
        Some(SeriesDump {
            name: name.to_owned(),
            fields: core.fields.clone(),
            rows: rows[start..].to_vec(),
        })
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsDump {
        let mut dump = MetricsDump::default();
        let Some(inner) = &self.inner else {
            return dump;
        };
        for (name, cell) in lock(&inner.counters).iter() {
            dump.counters
                .push((name.clone(), cell.load(Ordering::Acquire)));
        }
        for (name, core) in lock(&inner.gauges).iter() {
            let sets = core.sets.load(Ordering::Acquire);
            dump.gauges.push(GaugeDump {
                name: name.clone(),
                value: f64::from_bits(core.value.load(Ordering::Acquire)),
                max: if sets == 0 {
                    0.0
                } else {
                    f64::from_bits(core.max.load(Ordering::Acquire))
                },
            });
        }
        for (name, core) in lock(&inner.hists).iter() {
            dump.histograms.push(HistogramDump {
                name: name.clone(),
                snapshot: core.snapshot(),
            });
        }
        for (name, core) in lock(&inner.series).iter() {
            dump.series.push(SeriesDump {
                name: name.clone(),
                fields: core.fields.clone(),
                rows: lock(&core.rows).clone(),
            });
        }
        dump
    }

    /// Exports every instrument as JSONL (one flat JSON object per line),
    /// deterministically ordered by instrument kind then name.
    pub fn export_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    /// Folds another registry's exported instruments into this one under
    /// `prefix` (`prefix` + name). Counter values accumulate, gauges are
    /// re-set (then re-set to their max so the high-water mark survives),
    /// histogram snapshots are absorbed bucket-for-bucket, and series rows
    /// are appended. Used by the cluster tier to merge per-shard engine
    /// registries into one cluster-wide export
    /// (`cluster.shard0.engine.records_in`, ...), so per-shard delay
    /// quantiles and round series survive into the cluster dump.
    pub fn adopt(&self, prefix: &str, dump: &MetricsDump) {
        if self.inner.is_none() {
            return;
        }
        for (name, value) in &dump.counters {
            self.counter(&format!("{prefix}{name}")).add(*value);
        }
        for g in &dump.gauges {
            let gauge = self.gauge(&format!("{prefix}{}", g.name));
            // Setting the max first raises the high-water mark; the second
            // set restores the last observed value.
            gauge.set(g.max);
            gauge.set(g.value);
        }
        for h in &dump.histograms {
            self.histogram(&format!("{prefix}{}", h.name))
                .absorb(&h.snapshot);
        }
        for s in &dump.series {
            let fields: Vec<&str> = s.fields.iter().map(String::as_str).collect();
            let series = self.series(&format!("{prefix}{}", s.name), &fields);
            for row in &s.rows {
                series.push(row);
            }
        }
    }
}

/// An exported gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeDump {
    /// Instrument name.
    pub name: String,
    /// Last set value.
    pub value: f64,
    /// Maximum value ever set.
    pub max: f64,
}

/// An exported histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDump {
    /// Instrument name.
    pub name: String,
    /// The histogram state.
    pub snapshot: HistSnapshot,
}

/// An exported series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDump {
    /// Instrument name.
    pub name: String,
    /// Field names, in row order.
    pub fields: Vec<String>,
    /// Rows, each `fields.len()` wide.
    pub rows: Vec<Vec<f64>>,
}

impl SeriesDump {
    /// Index of a field by name.
    pub fn field_index(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == field)
    }
}

/// A parsed or snapshotted set of instruments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDump {
    /// `(name, value)` counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, ascending by name.
    pub gauges: Vec<GaugeDump>,
    /// Histograms, ascending by name.
    pub histograms: Vec<HistogramDump>,
    /// Series, ascending by name.
    pub series: Vec<SeriesDump>,
}

impl MetricsDump {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeDump> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramDump> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&SeriesDump> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Serializes the dump as JSONL, one flat object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            ObjWriter::open(&mut out, "counter")
                .text("name", name)
                .u64("value", *value)
                .end();
        }
        for g in &self.gauges {
            ObjWriter::open(&mut out, "gauge")
                .text("name", &g.name)
                .f64("value", g.value)
                .f64("max", g.max)
                .end();
        }
        for h in &self.histograms {
            let s = &h.snapshot;
            let encoded: Vec<String> = s.buckets.iter().map(|(i, c)| format!("{i}:{c}")).collect();
            ObjWriter::open(&mut out, "histogram")
                .text("name", &h.name)
                .u64("count", s.count)
                .f64("sum", s.sum)
                .f64("min", s.min)
                .f64("max", s.max)
                .f64("p50", s.quantile(0.5))
                .f64("p90", s.quantile(0.9))
                .f64("p95", s.quantile(0.95))
                .f64("p99", s.quantile(0.99))
                .text("buckets", &encoded.join(";"))
                .end();
        }
        for s in &self.series {
            for (row_idx, row) in s.rows.iter().enumerate() {
                let mut w = ObjWriter::open(&mut out, "series")
                    .text("name", &s.name)
                    .u64("row", row_idx as u64);
                for (field, value) in s.fields.iter().zip(row.iter()) {
                    w = w.f64(field, *value);
                }
                w.end();
            }
        }
        out
    }

    /// Parses a JSONL export produced by [`MetricsDump::to_jsonl`].
    ///
    /// Values round-trip exactly: `f64`s are emitted in shortest
    /// round-tripping form and re-parsed bit-for-bit, and counters are read
    /// as integers.
    pub fn parse_jsonl(text: &str) -> Result<MetricsDump, String> {
        let mut dump = MetricsDump::default();
        for line in json::lines(text) {
            let line = line?;
            let name = line
                .opt_text("name")
                .ok_or_else(|| line.err("missing name"))?
                .to_owned();
            match line.kind() {
                "counter" => dump.counters.push((name, line.u64("value"))),
                "gauge" => dump.gauges.push(GaugeDump {
                    name,
                    value: line.f64("value"),
                    max: line.f64("max"),
                }),
                "histogram" => {
                    let mut buckets = Vec::new();
                    for part in line.text("buckets").split(';').filter(|p| !p.is_empty()) {
                        let (idx, count) = part
                            .split_once(':')
                            .ok_or_else(|| line.err(format_args!("bad bucket {part:?}")))?;
                        buckets.push((
                            idx.parse::<usize>()
                                .map_err(|e| format!("bad bucket idx: {e}"))?,
                            count
                                .parse::<u64>()
                                .map_err(|e| format!("bad bucket count: {e}"))?,
                        ));
                    }
                    dump.histograms.push(HistogramDump {
                        name,
                        snapshot: HistSnapshot {
                            count: line.u64("count"),
                            sum: line.f64("sum"),
                            min: line.f64("min"),
                            max: line.f64("max"),
                            buckets,
                        },
                    });
                }
                "series" => {
                    let fields: Vec<(&str, f64)> = line
                        .numbers()
                        .filter(|(k, _)| !matches!(*k, "type" | "name" | "row"))
                        .collect();
                    let idx = match dump.series.iter().position(|s| s.name == name) {
                        Some(i) => i,
                        None => {
                            dump.series.push(SeriesDump {
                                name,
                                fields: fields.iter().map(|(k, _)| (*k).to_owned()).collect(),
                                rows: Vec::new(),
                            });
                            dump.series.len() - 1
                        }
                    };
                    let Some(entry) = dump.series.get_mut(idx) else {
                        continue;
                    };
                    let row: Vec<f64> = entry
                        .fields
                        .iter()
                        .map(|field| {
                            fields
                                .iter()
                                .find(|(k, _)| k == field)
                                .map_or(0.0, |(_, v)| *v)
                        })
                        .collect();
                    entry.rows.push(row);
                }
                other => return Err(line.err(format_args!("unknown type {other:?}"))),
            }
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_registry_handles_are_inert() {
        let reg = MetricsRegistry::noop();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        let s = reg.series("t", &["a"]);
        assert!(c.is_noop() && g.is_noop() && h.is_noop() && s.is_noop());
        c.add(5);
        g.set(1.0);
        h.record(1.0);
        s.push(&[1.0]);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(s.len(), 0);
        assert_eq!(reg.snapshot(), MetricsDump::default());
        assert!(reg.export_jsonl().is_empty());
    }

    #[test]
    fn same_name_handles_share_one_cell() {
        let reg = MetricsRegistry::active();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let reg = MetricsRegistry::active();
        let g = reg.gauge("hbm.used");
        assert_eq!(g.max(), 0.0);
        g.set(5.0);
        g.set(9.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(g.max(), 9.0);
        // A gauge only ever set negative still reports its true max.
        let n = reg.gauge("neg");
        n.set(-3.0);
        n.set(-7.0);
        assert_eq!(n.max(), -3.0);
    }

    #[test]
    fn export_parses_back_bit_exact() {
        let reg = MetricsRegistry::active();
        reg.counter("engine.bundles").add(42);
        let g = reg.gauge("bw.dram_gbps");
        g.set(17.25);
        g.set(3.5);
        let h = reg.histogram("delay_secs");
        h.record(0.125);
        h.record_n(0.7, 3);
        let s = reg.series("engine.round", &["at_secs", "hbm_usage"]);
        s.push(&[0.1, 0.333333333333]);
        s.push(&[0.2, 1.0 / 3.0]);

        let exported = reg.export_jsonl();
        let parsed = MetricsDump::parse_jsonl(&exported).unwrap();
        assert_eq!(parsed, reg.snapshot());
        // Re-export of the parsed dump is byte-identical.
        assert_eq!(parsed.to_jsonl(), exported);
        // f64 fields round-trip bit-exact.
        let row = &parsed.series("engine.round").unwrap().rows[1];
        assert_eq!(row[1].to_bits(), (1.0f64 / 3.0).to_bits());
        let hd = parsed.histogram("delay_secs").unwrap();
        assert_eq!(hd.snapshot.sum.to_bits(), (0.125f64 + 0.7 * 3.0).to_bits());
    }

    #[test]
    fn counters_above_2_pow_53_round_trip_exactly() {
        let reg = MetricsRegistry::active();
        reg.counter("max").add(u64::MAX);
        reg.counter("odd").add((1 << 53) + 1);
        let exported = reg.export_jsonl();
        let parsed = MetricsDump::parse_jsonl(&exported).unwrap();
        assert_eq!(parsed.counter("max"), Some(u64::MAX));
        assert_eq!(parsed.counter("odd"), Some((1 << 53) + 1));
        assert_eq!(parsed.to_jsonl(), exported);
    }

    #[test]
    fn adopt_carries_histograms_and_series_under_prefix() {
        let shard = MetricsRegistry::active();
        shard.counter("records_in").add(10);
        let g = shard.gauge("hbm.used");
        g.set(9.0);
        g.set(2.0);
        let h = shard.histogram("engine.output_delay_secs");
        h.record(0.125);
        h.record_n(0.7, 3);
        let s = shard.series("engine.round", &["at_secs", "hbm_usage"]);
        s.push(&[0.1, 0.5]);
        s.push(&[0.2, 1.0 / 3.0]);

        let cluster = MetricsRegistry::active();
        cluster.adopt("cluster.shard0.engine.", &shard.snapshot());
        let dump = cluster.snapshot();

        assert_eq!(dump.counter("cluster.shard0.engine.records_in"), Some(10));
        let adopted_gauge = dump.gauge("cluster.shard0.engine.hbm.used").unwrap();
        assert_eq!(adopted_gauge.value, 2.0);
        assert_eq!(adopted_gauge.max, 9.0, "high-water mark survives adoption");
        // The shard histogram round-trips exactly: count, bit-exact sum,
        // min/max and every bucket.
        let shard_h = shard.snapshot();
        let shard_h = &shard_h
            .histogram("engine.output_delay_secs")
            .unwrap()
            .snapshot;
        let adopted = dump
            .histogram("cluster.shard0.engine.engine.output_delay_secs")
            .unwrap();
        assert_eq!(adopted.snapshot.count, shard_h.count);
        assert_eq!(adopted.snapshot.sum.to_bits(), shard_h.sum.to_bits());
        assert_eq!(adopted.snapshot.min, shard_h.min);
        assert_eq!(adopted.snapshot.max, shard_h.max);
        assert_eq!(adopted.snapshot.buckets, shard_h.buckets);
        // Series rows and fields survive with the prefix.
        let adopted_s = dump.series("cluster.shard0.engine.engine.round").unwrap();
        assert_eq!(adopted_s.fields, vec!["at_secs", "hbm_usage"]);
        assert_eq!(adopted_s.rows.len(), 2);
        assert_eq!(adopted_s.rows[1][1].to_bits(), (1.0f64 / 3.0).to_bits());
        // And the adopted dump still round-trips through JSONL bit-exact.
        let exported = cluster.export_jsonl();
        assert_eq!(MetricsDump::parse_jsonl(&exported).unwrap(), dump);
    }

    #[test]
    fn series_rows_are_fixed_width() {
        let reg = MetricsRegistry::active();
        let s = reg.series("t", &["a", "b"]);
        s.push(&[1.0]);
        s.push(&[1.0, 2.0, 3.0]);
        let dump = reg.snapshot();
        let rows = &dump.series("t").unwrap().rows;
        assert_eq!(rows[0], vec![1.0, 0.0]);
        assert_eq!(rows[1], vec![1.0, 2.0]);
    }

    #[test]
    fn series_window_reads_bounded_suffix() {
        let reg = MetricsRegistry::active();
        let s = reg.series("t", &["a"]);
        s.push(&[1.0]);
        s.push(&[2.0]);
        assert_eq!(reg.series_window("t", 1).unwrap().rows, [[2.0]]);
        assert_eq!(reg.series_window("t", 10).unwrap().rows.len(), 2);
        assert!(MetricsRegistry::noop().series_window("t", 4).is_none());
        assert!(reg.series_window("not-there", 4).is_none());
    }

    #[test]
    fn hostile_histogram_lines_re_export_without_panicking() {
        // min above max, and bucket counts that overflow when summed.
        let line = format!(
            "{{\"type\":\"histogram\",\"name\":\"h\",\"count\":{0},\"min\":5,\"max\":1,\"buckets\":\"70:{0};71:{0}\"}}",
            u64::MAX
        );
        let dump = MetricsDump::parse_jsonl(&line).unwrap();
        assert!(dump.to_jsonl().starts_with("{\"type\":\"histogram\""));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(MetricsDump::parse_jsonl("{\"type\":\"counter\"}").is_err());
        assert!(MetricsDump::parse_jsonl("{\"type\":\"bogus\",\"name\":\"x\"}").is_err());
        assert!(MetricsDump::parse_jsonl("not json").is_err());
        assert!(MetricsDump::parse_jsonl("\n\n")
            .unwrap()
            .counters
            .is_empty());
    }
}
