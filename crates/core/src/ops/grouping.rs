//! Pluggable grouping backends for [`KeyedAggregate`] and the adaptive
//! sort-vs-hash decision (DESIGN.md §14).
//!
//! The paper's central bet is that sort-based KPA grouping beats hashing on
//! HBM because sequential bandwidth dwarfs random access — but its own
//! Figure 2 concedes the low-cardinality regime to hashing, and HBM
//! analytics work (Kara et al.) confirms hash probes gain little from
//! bandwidth while scans gain a lot. This module stops hard-coding the bet:
//! GroupBy is parameterized over a [`GroupingBackend`] — the adapter shape
//! of map-bench `Collection`/`CollectionHandle` harnesses, specialized to
//! windowed aggregation — with two implementations:
//!
//! - [`SortMergeBackend`]: the paper's KPA path (sort each arriving KPA,
//!   merge at close, keyed reduction), verbatim from the original operator.
//! - [`HashBackend`], *hashed*: one open-addressing table per window
//!   (`sbx_kpa::hash`), filled on the engine thread, placed like any
//!   other task allocation and charged at the tier it lives on. Drains
//!   are key-sorted, so outputs are bit-identical across thread counts.
//! - [`HashBackend`], *row baseline*: the same table on DRAM, charged at
//!   the row engine's calibrated per-record cost — the Flink-class
//!   baseline, kept as a measurable floor.
//!
//! On top sits the per-window *adaptive* decision ([`decide_backend`]):
//! a deterministic cardinality/skew sketch of the first KPA plus the
//! exponentially-smoothed history of closed windows feeds the recalibrated
//! cost model (`profile::sort_chunked` vs `profile::hash_group_grown`),
//! and the cheaper backend wins.
//! Every construction emits a `groupby.backend.*` event that the engine
//! surfaces as `engine.groupby.backend.*` counters.

use std::sync::Arc;

use sbx_kpa::hash::{HashAgg, HashGrouper};
use sbx_kpa::mergepath::KeyFold;
use sbx_kpa::sketch::GroupSketch;
use sbx_kpa::{agg, profile, ExtractCharge, Kpa};
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::{AccessProfile, MemEnv, MemKind, MemPool, Priority};

use crate::checkpoint::StateEntry;
use crate::ops::AggKind;
use crate::{EngineError, OpCtx};

/// Which grouping backend a [`KeyedAggregate`](crate::ops::KeyedAggregate)
/// uses (CLI: `--grouping {sort,hash,adaptive}`). Under
/// [`EngineMode::Row`](crate::EngineMode::Row) every keyed aggregate groups
/// in the row engine's DRAM table instead, whatever its spec says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingSpec {
    /// The paper's KPA sort-merge path (default).
    #[default]
    SortMerge,
    /// One open-addressing hash table per window, drained in key order.
    Hash,
    /// Per-window sort-vs-hash decision from the cardinality sketch, the
    /// window history, and the recalibrated cost model.
    Adaptive,
}

impl GroupingSpec {
    /// Parses a CLI spelling (`sort`, `hash`, `adaptive`).
    pub fn parse(s: &str) -> Option<GroupingSpec> {
        match s {
            "sort" => Some(GroupingSpec::SortMerge),
            "hash" => Some(GroupingSpec::Hash),
            "adaptive" => Some(GroupingSpec::Adaptive),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            GroupingSpec::SortMerge => "sort",
            GroupingSpec::Hash => "hash",
            GroupingSpec::Adaptive => "adaptive",
        }
    }
}

/// Backend-decision events, surfaced by the engine as
/// `engine.groupby.backend.*` counters (one increment per window).
const EV_BACKEND_SORT: &str = "groupby.backend.sort";
/// See [`EV_BACKEND_SORT`].
const EV_BACKEND_HASH: &str = "groupby.backend.hash";
/// See [`EV_BACKEND_SORT`].
const EV_BACKEND_ROW: &str = "groupby.backend.row";

/// Snapshot-entry ports (see `KeyedAggregate::snapshot`): the port both
/// routes an entry to sorted KPAs or a table on restore (the operator's
/// [`GroupingSpec`] picks which table) and versions the row layout within.
pub(crate) const PORT_SORT_KPA: u8 = 0;
/// Pane-combining partial bundles (not a backend port).
pub(crate) const PORT_PANE_BUNDLE: u8 = 1;
/// A hash table (either configuration), scalar `(key, sum, count)` rows.
pub(crate) const PORT_HASH_SCALAR: u8 = 2;
/// A hash table, `(key, value, 0)` rows in per-key insertion order.
pub(crate) const PORT_HASH_VALUES: u8 = 3;

/// Per-operator aggregation parameters threaded to the backends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggParams {
    /// The aggregate computed per key.
    pub kind: AggKind,
    /// Value column dereferenced per record.
    pub value_col: Col,
    /// Whether the sort path pre-reduces arriving KPAs to partials.
    pub early: bool,
}

impl AggParams {
    /// `Count` never dereferences the value column — the hash backends
    /// exploit this by touching keys only.
    fn count_only(&self) -> bool {
        matches!(self.kind, AggKind::Count)
    }
}

/// The table mode a [`HashGrouper`]-based backend needs for `kind`:
/// `Sum`/`Count` are exact from the scalar `(sum, count)` lanes; everything
/// else needs the per-key value multiset (`agg::average` sums in `u128`, so
/// even `Avg` cannot use the wrapping scalar sum).
fn hash_mode(kind: AggKind) -> HashAgg {
    match kind {
        AggKind::Sum | AggKind::Count => HashAgg::SumCount,
        _ => HashAgg::Values,
    }
}

/// One window's grouping state behind [`KeyedAggregate`]: ingest sorted or
/// hashed, drain in ascending key order at window close, snapshot/restore
/// through the checkpoint barrier machinery.
///
/// The contract every implementation upholds: for the same multiset of
/// `(key, value)` pairs, [`GroupingBackend::close`] appends *byte-identical*
/// `[key, aggregate, window-start]` rows — ascending keys, `agg::*`
/// semantics per kind — regardless of backend, thread count, or arrival
/// interleaving within the window.
pub(crate) trait GroupingBackend: Send + std::fmt::Debug {
    /// The `groupby.backend.*` event that counts this backend's windows.
    fn event(&self) -> &'static str;

    /// Absorbs one windowed KPA (already key-swapped and key-mapped), with
    /// its records' `p.value_col` when the key swap read them; `fold` is
    /// the operator's scratch for early aggregation.
    fn ingest(
        &mut self,
        ctx: &mut OpCtx<'_>,
        kpa: Kpa,
        p: &AggParams,
        values: Option<&[u64]>,
        fold: &mut KeyFold,
    ) -> Result<(), EngineError>;

    /// Whether [`GroupingBackend::ingest`] reads each record's value, so
    /// the key swap should read it too.
    fn reads_values(&self, _p: &AggParams) -> bool {
        false
    }

    /// Drains the window into one output bundle of `schema` (`[key, agg,
    /// start]` rows, ascending keys) and returns it with the number of
    /// distinct groups.
    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        p: &AggParams,
        start: u64,
        schema: &Arc<Schema>,
    ) -> Result<(Arc<RecordBundle>, u64), EngineError>;

    /// Records ingested so far (feeds the adaptive window history).
    fn records(&self) -> u64;

    /// Appends this window's state entries to a checkpoint snapshot.
    fn snapshot(
        &self,
        ctx: &mut OpCtx<'_>,
        window: u64,
        out: &mut Vec<StateEntry>,
    ) -> Result<(), EngineError>;

    /// Rebuilds state from one snapshot entry previously produced by
    /// [`GroupingBackend::snapshot`] on the same backend kind.
    fn restore_entry(&mut self, ctx: &mut OpCtx<'_>, e: &StateEntry) -> Result<(), EngineError>;
}

/// Appends one group's `[key, aggregate, start]` output rows, computed from
/// all of its values, which Median, TopK and UniqueCount reorder in place
/// instead of copying — shared by the sort backend's close and the hash
/// backends' drains, so their bytes cannot diverge.
///
/// # Panics
///
/// Panics on `Sum` and `Count`, which both callers fold without gathering.
pub fn emit_group(kind: AggKind, key: u64, values: &mut [u64], start: u64, rows: &mut Vec<u64>) {
    match kind {
        // sbx-lint: allow(no-panic, both callers route the scalar kinds to their scalar folds)
        AggKind::Sum | AggKind::Count => unreachable!("scalar kinds fold without gathering"),
        AggKind::Avg => {
            rows.extend_from_slice(&[key, agg::average(values), start]);
        }
        AggKind::Median => {
            rows.extend_from_slice(&[key, agg::median(values), start]);
        }
        AggKind::TopK(k) => {
            for &v in agg::top_k(values, k) {
                rows.extend_from_slice(&[key, v, start]);
            }
        }
        AggKind::UniqueCount => {
            rows.extend_from_slice(&[key, agg::unique_count(values), start]);
        }
    }
}

// ---------------------------------------------------------------------------
// Sort-merge backend (the paper's path, ported verbatim)
// ---------------------------------------------------------------------------

/// The KPA sort-merge grouping path: sort each arriving KPA (pre-reducing
/// to partials when early aggregation applies), merge all of them at close,
/// and run the keyed reduction.
#[derive(Debug, Default)]
pub(crate) struct SortMergeBackend {
    kpas: Vec<Kpa>,
    records: u64,
}

impl SortMergeBackend {
    /// An empty window.
    pub(crate) fn new() -> Self {
        SortMergeBackend::default()
    }

    /// Early aggregation, first half: reduces one KPA to a (small) bundle
    /// of per-key `(key, partial, 0)` rows, ascending, its values
    /// (`values`, when the key swap read them) summed by key in `fold`: the
    /// Sort is charged, but no pair is sorted (DESIGN.md §14). Pane
    /// combining keeps these bundles, one per pane, to share them across
    /// windows.
    pub(crate) fn partials(
        ctx: &mut OpCtx<'_>,
        kpa: &Kpa,
        p: &AggParams,
        values: Option<&[u64]>,
        fold: &mut KeyFold,
    ) -> Result<Arc<RecordBundle>, EngineError> {
        // Early aggregation is only enabled for Sum and Count (see
        // `KeyedAggregate::new`). One partial row per distinct key;
        // counting them up front lets the fold write straight into the
        // partial bundle's pool buffer.
        let col = (p.kind == AggKind::Sum).then_some(p.value_col);
        let rb = ctx.record_bytes_of(kpa);
        let slots = 3 * ctx.charged(rb, |e| kpa.sort_fold(e, col, values, fold));
        let env = ctx.env();
        let partials = RecordBundle::from_fill(&env, Schema::kvt(), slots, |rows| {
            ctx.charged(16, |e| {
                kpa.reduce_fold(e, fold, |key, sum| rows.extend_from_slice(&[key, sum, 0]));
            });
        })?;
        Ok(partials)
    }

    /// Early aggregation, second half: adds a bundle of [`Self::partials`]
    /// to the window as a sorted KPA over it, its pairs left in its rows.
    pub(crate) fn push_partials(
        &mut self,
        ctx: &mut OpCtx<'_>,
        partials: &Arc<RecordBundle>,
    ) -> Result<(), EngineError> {
        // The partial bundle was just written: fuse its extraction
        // (paper §4.3 optimization 1).
        let (kind, prio) = ctx.place();
        let mut kpa = ctx.charged(24, |e| {
            Kpa::extract_in_place(e, partials, Col(0), kind, prio, ExtractCharge::Fused)
        })?;
        // The scalar fold emitted the partials in ascending key order.
        kpa.mark_sorted();
        self.kpas.push(kpa);
        Ok(())
    }

    /// Whether the window holds no KPA yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.kpas.is_empty()
    }
}

impl GroupingBackend for SortMergeBackend {
    fn event(&self) -> &'static str {
        EV_BACKEND_SORT
    }

    fn ingest(
        &mut self,
        ctx: &mut OpCtx<'_>,
        mut kpa: Kpa,
        p: &AggParams,
        values: Option<&[u64]>,
        fold: &mut KeyFold,
    ) -> Result<(), EngineError> {
        self.records += kpa.len() as u64;
        if p.early {
            // Every arriving KPA, one pair or many: close reads the window
            // as partials. The raw KPA stays allocated until its
            // replacement is placed.
            let partials = Self::partials(ctx, &kpa, p, values, fold)?;
            self.push_partials(ctx, &partials)
        } else {
            ctx.sort(&mut kpa)?;
            self.kpas.push(kpa);
            Ok(())
        }
    }

    fn reads_values(&self, p: &AggParams) -> bool {
        p.early && p.kind == AggKind::Sum
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        p: &AggParams,
        start: u64,
        schema: &Arc<Schema>,
    ) -> Result<(Arc<RecordBundle>, u64), EngineError> {
        let kpas = std::mem::take(&mut self.kpas);
        let env = ctx.env();
        if kpas.is_empty() {
            return Ok((RecordBundle::from_rows(&env, Arc::clone(schema), &[])?, 0));
        }
        // One pass: the window's KPAs merged and reduced bucket by bucket,
        // the rows written once and adopted by the output bundle; the merged
        // KPA's stand-in is held until that bundle is placed.
        let (rows, _merged, groups) = if let AggKind::Sum | AggKind::Count = p.kind {
            // When early aggregation ran, the window holds partials, in
            // column 1 of their bundles and summed for either kind.
            let raw = (p.kind == AggKind::Sum).then_some(p.value_col);
            let col = if p.early { Some(Col(1)) } else { raw };
            let fold =
                |e: &mut _, kpas, kind, prio| Kpa::merge_fold(e, kpas, col, start, kind, prio);
            let (rows, merged) = ctx.merge(kpas, fold)?;
            ctx.charged(16, |e| merged.charge_reduce(e));
            let groups = rows.len() / schema.ncols();
            (rows, merged, groups)
        } else {
            // No group emits more rows than it has pairs.
            let pairs: usize = kpas.iter().map(Kpa::len).sum();
            let (mut rows, mut groups) = (MemPool::host_buffer(schema.ncols() * pairs), 0);
            let merged = ctx.gather(kpas, p.value_col, |key, values| {
                groups += 1;
                emit_group(p.kind, key, values, start, &mut rows);
            })?;
            (rows, merged, groups)
        };
        let out = RecordBundle::from_host_rows(&env, Arc::clone(schema), rows)?;
        Ok((out, groups as u64))
    }

    fn records(&self) -> u64 {
        self.records
    }

    fn snapshot(
        &self,
        ctx: &mut OpCtx<'_>,
        window: u64,
        out: &mut Vec<StateEntry>,
    ) -> Result<(), EngineError> {
        for kpa in &self.kpas {
            out.push(StateEntry::from_kpa(ctx, window, PORT_SORT_KPA, kpa)?);
        }
        Ok(())
    }

    fn restore_entry(&mut self, ctx: &mut OpCtx<'_>, e: &StateEntry) -> Result<(), EngineError> {
        let kpa = e.to_kpa(ctx)?;
        self.records += kpa.len() as u64;
        self.kpas.push(kpa);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Hash backends
// ---------------------------------------------------------------------------

/// Initial capacity of a window's table in keys (2 048 slots); the
/// table grows, and spills as a whole, on demand.
const SEED_KEYS: usize = 1024;

/// The hashed charge for `n` pairs: the cardinality-aware probe cost at the
/// *observed* table size (a cache-resident table is cheap, a spilled one
/// pays the full Figure-2 rate, whatever the adaptive estimate said), plus
/// one random value dereference per pair (the gather the sort path pays in
/// its keyed reduction) unless the aggregate only counts.
fn hashed_ingest_profile(
    n: usize,
    groups: usize,
    tier: MemKind,
    count_only: bool,
) -> AccessProfile {
    let prof = profile::hash_group_carded(n, groups.max(1), tier);
    if count_only {
        prof
    } else {
        prof.merge(&AccessProfile::new().rand(MemKind::Dram, n as f64))
    }
}

/// The row engine's charge: the flat Figure-2 probe. The rest of its
/// per-record overhead is charged at ingest
/// ([`EngineMode::ingest_profile`](crate::EngineMode::ingest_profile)).
fn row_ingest_profile(n: usize, _groups: usize, tier: MemKind, _count_only: bool) -> AccessProfile {
    profile::hash_group(n, tier)
}

/// The hash grouping backend: one open-addressing table (pool-accounted,
/// growing and tier-spilling on demand). Its two configurations differ in
/// two values: the table's tier and the charged ingest profile; both
/// snapshot into the same ports. Every charge reads the tier the table
/// lives on.
#[derive(Debug)]
pub(crate) struct HashBackend {
    event: &'static str,
    table: HashGrouper,
    ingest_profile: fn(usize, usize, MemKind, bool) -> AccessProfile,
    records: u64,
}

impl HashBackend {
    /// A fresh table at the placement chosen for this task.
    pub(crate) fn hashed(ctx: &mut OpCtx<'_>, kind: AggKind) -> Result<Self, EngineError> {
        let (tier, prio) = ctx.place();
        Ok(HashBackend {
            event: EV_BACKEND_HASH,
            table: HashGrouper::with_mode(ctx.exec(), SEED_KEYS, hash_mode(kind), tier, prio)?,
            ingest_profile: hashed_ingest_profile,
            records: 0,
        })
    }

    /// The Flink-class row engine's table: one DRAM table, what every
    /// keyed aggregate groups in under `EngineMode::Row` (the adaptive
    /// policy never selects it).
    pub(crate) fn row_baseline(ctx: &mut OpCtx<'_>, kind: AggKind) -> Result<Self, EngineError> {
        Ok(HashBackend {
            event: EV_BACKEND_ROW,
            table: HashGrouper::with_mode(
                ctx.exec(),
                SEED_KEYS,
                hash_mode(kind),
                MemKind::Dram,
                Priority::Normal,
            )?,
            ingest_profile: row_ingest_profile,
            records: 0,
        })
    }

    /// Charges the walk over every slot that a drain or snapshot makes.
    fn charge_drain(&self, ctx: &mut OpCtx<'_>) {
        let t = &self.table;
        let prof = profile::hash_drain(t.slots(), t.len(), t.kind());
        ctx.charged(16, |e| e.charge(&prof));
    }

    /// Drains the table into key-sorted output rows via [`emit_group`],
    /// matching the sort path's ascending-key emission.
    fn drain(&self, p: &AggParams, start: u64, rows: &mut Vec<u64>) -> u64 {
        match self.table.mode() {
            HashAgg::SumCount => {
                let entries = self.table.drain_sorted();
                for &(k, s, c) in &entries {
                    match p.kind {
                        AggKind::Count => rows.extend_from_slice(&[k, c, start]),
                        // Scalar mode exists only for Sum and Count.
                        _ => rows.extend_from_slice(&[k, s, start]),
                    }
                }
                entries.len() as u64
            }
            HashAgg::Values => {
                let mut entries = self.table.drain_values_sorted();
                for (k, vals) in &mut entries {
                    emit_group(p.kind, *k, vals, start, rows);
                }
                entries.len() as u64
            }
        }
    }
}

impl GroupingBackend for HashBackend {
    fn event(&self) -> &'static str {
        self.event
    }

    fn ingest(
        &mut self,
        ctx: &mut OpCtx<'_>,
        kpa: Kpa,
        p: &AggParams,
        values: Option<&[u64]>,
        _fold: &mut KeyFold,
    ) -> Result<(), EngineError> {
        let n = kpa.len();
        if n == 0 {
            return Ok(());
        }
        self.records += n as u64;
        // `Count` reads no values (the hash advantage the adaptive policy
        // exploits). A KPA in place is read from its rows, key and value.
        let (count_only, table) = (p.count_only(), &mut self.table);
        if let Some(b) = kpa.rows_in_place() {
            let (rows, ncols) = (b.as_rows(), b.schema().ncols());
            let (key, col) = (kpa.resident().0, p.value_col.0);
            let key = |i: usize| rows[i * ncols + key];
            match count_only {
                true => table.try_insert_all(n, key, |_| 0)?,
                false => table.try_insert_all(n, key, |i| rows[i * ncols + col])?,
            }
        } else {
            let keys = kpa.keys();
            let key = |i: usize| keys[i];
            if count_only {
                table.try_insert_all(n, key, |_| 0)?;
            } else if let Some(values) = values {
                table.try_insert_all(n, key, |i| values[i])?;
            } else {
                let records = kpa.resolver();
                table.try_insert_all(n, key, |i| records.value(i, p.value_col))?;
            }
        }
        let t = &self.table;
        let prof = (self.ingest_profile)(n, t.len(), t.kind(), count_only);
        ctx.charged(16, |e| e.charge(&prof));
        Ok(())
    }

    fn reads_values(&self, p: &AggParams) -> bool {
        !p.count_only()
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        p: &AggParams,
        start: u64,
        schema: &Arc<Schema>,
    ) -> Result<(Arc<RecordBundle>, u64), EngineError> {
        self.charge_drain(ctx);
        let mut rows: Vec<u64> = Vec::new();
        let groups = self.drain(p, start, &mut rows);
        let out = RecordBundle::from_rows(&ctx.env(), Arc::clone(schema), &rows)?;
        Ok((out, groups))
    }

    fn records(&self) -> u64 {
        self.records
    }

    /// One snapshot entry per window: scalar `(key, sum, count)` triples or
    /// `(key, value, 0)` triples in per-key insertion order, key-sorted.
    fn snapshot(
        &self,
        ctx: &mut OpCtx<'_>,
        window: u64,
        out: &mut Vec<StateEntry>,
    ) -> Result<(), EngineError> {
        self.charge_drain(ctx);
        let mut rows: Vec<u64> = Vec::new();
        let port = match self.table.mode() {
            HashAgg::SumCount => {
                for (k, s, c) in self.table.drain_sorted() {
                    rows.extend_from_slice(&[k, s, c]);
                }
                PORT_HASH_SCALAR
            }
            HashAgg::Values => {
                for (k, vals) in self.table.drain_values_sorted() {
                    for v in vals {
                        rows.extend_from_slice(&[k, v, 0]);
                    }
                }
                PORT_HASH_VALUES
            }
        };
        out.push(StateEntry::from_rows(window, port, 3, 2, rows));
        Ok(())
    }

    /// Scalar entries fold `(sum, count)` partials; value entries replay
    /// the inserts (which rebuilds the scalar lanes too). Restores the
    /// exact record count.
    fn restore_entry(&mut self, _ctx: &mut OpCtx<'_>, e: &StateEntry) -> Result<(), EngineError> {
        let scalar = self.table.mode() == HashAgg::SumCount;
        for chunk in e.rows.chunks_exact(3) {
            let (k, a, b) = (chunk[0], chunk[1], chunk[2]);
            if scalar {
                self.table.merge_entry(k, a, b)?;
                self.records += b;
            } else {
                self.table.try_insert(k, a)?;
                self.records += 1;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Adaptive decision
// ---------------------------------------------------------------------------

/// Exponentially-smoothed history of closed windows feeding the adaptive
/// decision (integer arithmetic only: `ema ← (3·ema + x) / 4`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AdaptState {
    /// Smoothed records per window.
    pub records_ema: u64,
    /// Smoothed distinct groups per window.
    pub groups_ema: u64,
    /// Windows closed so far.
    pub windows_seen: u64,
}

impl AdaptState {
    /// Folds one closed window into the history.
    pub(crate) fn observe_window(&mut self, records: u64, groups: u64) {
        if self.windows_seen == 0 {
            self.records_ema = records;
            self.groups_ema = groups;
        } else {
            self.records_ema = (3 * self.records_ema + records) / 4;
            self.groups_ema = (3 * self.groups_ema + groups) / 4;
        }
        self.windows_seen += 1;
    }
}

/// The backend of one window: what [`decide_backend`] picks between
/// (`Sort`, `Hash`) plus the table only `EngineMode::Row` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackendChoice {
    /// KPA sort-merge.
    Sort,
    /// One hash table.
    Hash,
    /// The row engine's DRAM table.
    Row,
}

impl BackendChoice {
    /// An empty window on this backend.
    pub(crate) fn open(
        self,
        ctx: &mut OpCtx<'_>,
        kind: AggKind,
    ) -> Result<Box<dyn GroupingBackend>, EngineError> {
        Ok(match self {
            // sbx-lint: allow(raw-alloc, one boxed backend per window)
            BackendChoice::Sort => Box::new(SortMergeBackend::new()),
            // sbx-lint: allow(raw-alloc, one boxed backend per window)
            BackendChoice::Hash => Box::new(HashBackend::hashed(ctx, kind)?),
            // sbx-lint: allow(raw-alloc, one boxed backend per window)
            BackendChoice::Row => Box::new(HashBackend::row_baseline(ctx, kind)?),
        })
    }
}

/// Decides the backend for a new window from the first arriving KPA.
///
/// Deterministic by construction: inputs are the key bytes (via the
/// [`GroupSketch`]), the closed-window history, the machine model, and the
/// KPA tier — never thread counts, wall-clock, or allocator state. The
/// first window always takes the paper's sort-merge default (no history to
/// trust; mispredicting hash on a high-cardinality window costs far more
/// than one sorted window forgoes).
///
/// Later windows estimate the window's records (history, floored by this
/// KPA) and distinct groups (sketch vs. history, capped by records), then
/// discount the table footprint by the heavy-hitter share — skewed streams
/// keep their hot slots resident even at high nominal cardinality.
///
/// Both sides are modelled the way the backends actually charge a
/// bundle-fed window: the sort side as per-bundle chunk sorts plus one
/// close-time k-way merge and the keyed reduction
/// ([`profile::sort_chunked`]); the hash side with the table *growing*
/// across the window, so early bundles probe a resident table even when
/// the final one spills ([`profile::hash_group_grown`]), plus the
/// close-time drain. The cheaper modelled profile wins.
pub(crate) fn decide_backend(
    env: &MemEnv,
    kpa: &Kpa,
    p: &AggParams,
    table_kind: MemKind,
    adapt: &AdaptState,
) -> BackendChoice {
    if adapt.windows_seen == 0 {
        return BackendChoice::Sort;
    }
    let mut sk = GroupSketch::new();
    sk.observe_all(kpa.key_iter());
    let est_records = adapt.records_ema.max(kpa.len() as u64).max(1);
    let est_groups = adapt
        .groups_ema
        .max(sk.distinct_estimate())
        .clamp(1, est_records);
    // A key owning h‰ of the stream keeps its slot hot; discount half the
    // heavy share from the effective (cache-relevant) table size.
    let heavy = sk.heavy_permille();
    let eff_groups = est_groups
        .saturating_sub(est_groups.saturating_mul(heavy) / 2000)
        .max(1);

    let n = est_records as usize;
    // This KPA is one bundle of the window; the backends charge per
    // bundle. Cap the chunk count so a tiny probe KPA cannot inflate the
    // modelled merge fan-in beyond anything the engine produces.
    let chunk = kpa.len().max(1);
    let chunks = n.div_ceil(chunk).min(1024);
    let cores = env.machine().cores;
    let cost = env.cost();

    let mut sort_prof = profile::sort_chunked(n, chunk, table_kind)
        .merge(&profile::merge_kway(n, chunks, table_kind, table_kind))
        .merge(&profile::reduce_keyed(n, table_kind));
    if p.early {
        // Early aggregation adds a per-bundle pre-reduce pass (and the
        // re-extraction of the partials) before the close-time merge.
        sort_prof = sort_prof
            .merge(&profile::reduce_keyed(n, table_kind))
            .merge(&profile::extract(n, 24, table_kind));
    }

    let g = eff_groups as usize;
    let slots = (eff_groups as f64 * profile::HASH_LOAD_INV) as usize;
    let mut hash_prof = profile::hash_group_grown(n, g, table_kind)
        .merge(&profile::hash_drain(slots, g, table_kind));
    if !p.count_only() {
        hash_prof = hash_prof.merge(&AccessProfile::new().rand(MemKind::Dram, n as f64));
    }
    if cost.time_secs(&hash_prof, cores) < cost.time_secs(&sort_prof, cores) {
        BackendChoice::Hash
    } else {
        BackendChoice::Sort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag};
    use sbx_simmem::{MachineConfig, MemEnv};

    fn mk_kpa(env: &MemEnv, ctx: &mut OpCtx<'_>, pairs: &[(u64, u64)]) -> Kpa {
        let mut flat: Vec<u64> = Vec::new();
        for &(k, v) in pairs {
            flat.extend_from_slice(&[k, v, 0]);
        }
        let b = RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap();
        ctx.extract(&b, Col(0)).unwrap()
    }

    fn harness() -> (MemEnv, DemandBalancer) {
        (
            MemEnv::new(MachineConfig::knl().scaled(0.01)),
            DemandBalancer::new(),
        )
    }

    fn close_with(
        backend: &mut dyn GroupingBackend,
        ctx: &mut OpCtx<'_>,
        p: &AggParams,
    ) -> Vec<u64> {
        let (out, _) = backend.close(ctx, p, 0, &Schema::kvt()).unwrap();
        out.as_rows().to_vec()
    }

    /// All three backend configurations must produce byte-identical close rows for every
    /// aggregate kind.
    #[test]
    fn backends_agree_on_every_kind() {
        let (env, mut bal) = harness();
        let pairs: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 17, (i * 13) % 97)).collect();
        for kind in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Median,
            AggKind::TopK(3),
            AggKind::UniqueCount,
        ] {
            let p = AggParams {
                kind,
                value_col: Col(1),
                early: matches!(kind, AggKind::Sum | AggKind::Count),
            };
            let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
            let mut fold = KeyFold::default();
            let mut sort_b = SortMergeBackend::new();
            let mut hash_b = HashBackend::hashed(&mut ctx, kind).unwrap();
            let mut row_b = HashBackend::row_baseline(&mut ctx, kind).unwrap();
            for chunk in pairs.chunks(100) {
                let kpa = mk_kpa(&env, &mut ctx, chunk);
                sort_b.ingest(&mut ctx, kpa, &p, None, &mut fold).unwrap();
                let kpa = mk_kpa(&env, &mut ctx, chunk);
                hash_b.ingest(&mut ctx, kpa, &p, None, &mut fold).unwrap();
                let kpa = mk_kpa(&env, &mut ctx, chunk);
                row_b.ingest(&mut ctx, kpa, &p, None, &mut fold).unwrap();
            }
            let a = close_with(&mut sort_b, &mut ctx, &p);
            let b = close_with(&mut hash_b, &mut ctx, &p);
            let c = close_with(&mut row_b, &mut ctx, &p);
            assert_eq!(a, b, "sort vs hash rows for {kind:?}");
            assert_eq!(a, c, "sort vs row rows for {kind:?}");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn hash_snapshot_roundtrips_scalar_and_values() {
        let (env, mut bal) = harness();
        for kind in [AggKind::Sum, AggKind::Median] {
            let p = AggParams {
                kind,
                value_col: Col(1),
                early: false,
            };
            let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
            let mut fold = KeyFold::default();
            let mut orig = HashBackend::hashed(&mut ctx, kind).unwrap();
            let pairs: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 23, i)).collect();
            let kpa = mk_kpa(&env, &mut ctx, &pairs);
            orig.ingest(&mut ctx, kpa, &p, None, &mut fold).unwrap();

            let mut entries = Vec::new();
            orig.snapshot(&mut ctx, 0, &mut entries).unwrap();
            assert_eq!(entries.len(), 1);

            let mut restored = HashBackend::hashed(&mut ctx, kind).unwrap();
            restored.restore_entry(&mut ctx, &entries[0]).unwrap();
            assert_eq!(restored.records(), orig.records());
            assert_eq!(
                close_with(&mut orig, &mut ctx, &p),
                close_with(&mut restored, &mut ctx, &p),
                "restore must reproduce close bytes for {kind:?}"
            );
        }
    }

    /// A table that outgrows HBM spills as a whole, and the ingest charge
    /// reads the tier it lives on: the probes that miss cache land on DRAM.
    #[test]
    fn hash_table_is_charged_at_the_tier_it_lives_on() {
        let mut machine = MachineConfig::knl().scaled(0.01);
        machine.hbm.capacity_bytes = 1 << 20;
        let env = MemEnv::new(machine);
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let p = AggParams {
            kind: AggKind::Count,
            value_col: Col(1),
            early: false,
        };
        let mut fold = KeyFold::default();
        let mut hash_b = HashBackend::hashed(&mut ctx, p.kind).unwrap();
        assert_eq!(hash_b.table.kind(), MemKind::Hbm, "a fresh table fits HBM");
        // 600 k groups: a table past both HBM and the cache-resident budget.
        let pairs: Vec<(u64, u64)> = (0..600_000u64).map(|k| (k, 0)).collect();
        let kpa = mk_kpa(&env, &mut ctx, &pairs);
        ctx.take_profile();
        hash_b.ingest(&mut ctx, kpa, &p, None, &mut fold).unwrap();
        assert_eq!(
            hash_b.table.kind(),
            MemKind::Dram,
            "the grown table spilled"
        );
        let charged = ctx.take_profile();
        assert_eq!(charged.rand_accesses[MemKind::Hbm.index()], 0.0);
        assert!(charged.rand_accesses[MemKind::Dram.index()] > 0.0);
    }

    #[test]
    fn adaptive_cold_start_is_sort_then_history_drives_hash() {
        let (env, mut bal) = harness();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let p = AggParams {
            kind: AggKind::Count,
            value_col: Col(1),
            early: true,
        };
        let pairs: Vec<(u64, u64)> = (0..2000u64).map(|i| (i % 100, i)).collect();
        let kpa = mk_kpa(&env, &mut ctx, &pairs);

        let mut adapt = AdaptState::default();
        assert_eq!(
            decide_backend(&env, &kpa, &p, MemKind::Hbm, &adapt),
            BackendChoice::Sort,
            "window 0 takes the paper default"
        );
        // Low-cardinality history: hash must win from window 1 on.
        adapt.observe_window(2000, 100);
        assert_eq!(
            decide_backend(&env, &kpa, &p, MemKind::Hbm, &adapt),
            BackendChoice::Hash
        );
        // High-cardinality history: sort wins even though the bundle's own
        // sketch only sees 100 keys.
        let mut adapt_hi = AdaptState::default();
        adapt_hi.observe_window(8_000_000, 4_000_000);
        assert_eq!(
            decide_backend(&env, &kpa, &p, MemKind::Hbm, &adapt_hi),
            BackendChoice::Sort
        );
    }

    #[test]
    fn ema_smooths_and_first_window_seeds() {
        let mut a = AdaptState::default();
        a.observe_window(1000, 10);
        assert_eq!((a.records_ema, a.groups_ema, a.windows_seen), (1000, 10, 1));
        a.observe_window(2000, 30);
        assert_eq!(a.records_ema, (3 * 1000 + 2000) / 4);
        assert_eq!(a.groups_ema, (3 * 10 + 30) / 4);
    }

    #[test]
    fn grouping_spec_parses_cli_spellings() {
        assert_eq!(GroupingSpec::parse("sort"), Some(GroupingSpec::SortMerge));
        assert_eq!(GroupingSpec::parse("hash"), Some(GroupingSpec::Hash));
        assert_eq!(GroupingSpec::parse("row"), None, "row is an engine mode");
        assert_eq!(
            GroupingSpec::parse("adaptive"),
            Some(GroupingSpec::Adaptive)
        );
        assert_eq!(GroupingSpec::parse("bogus"), None);
        assert_eq!(GroupingSpec::Adaptive.label(), "adaptive");
        assert_eq!(GroupingSpec::default(), GroupingSpec::SortMerge);
    }
}
