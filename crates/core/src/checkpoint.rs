//! Checkpoint mechanism: asynchronous-barrier snapshotting types and the
//! engine-side hooks (paper-adjacent; see DESIGN.md §9).
//!
//! A [`CheckpointBarrier`] is injected by the ingress sender and flows
//! *in-band* with bundles through the pipeline. Because the engine drives
//! the serial chain in arrival order, a barrier reaching an operator means
//! every pre-barrier record has already been processed — the alignment
//! property of Chandy–Lamport style snapshots. Each stateful operator then
//! captures its window state into an [`OpState`] and forwards the barrier;
//! the engine assembles the per-operator states plus its own counters into
//! a [`PipelineSnapshot`] and hands it to the run's [`CheckpointHooks`]
//! (implemented by `sbx-checkpoint`'s snapshot store).
//!
//! This module is the only one that knows the snapshot format: the entry
//! layout and its one check, the column an entry is keyed on, how an entry
//! splits across new owners, and the u64-word wire codec
//! ([`encode_snapshot`] / [`decode_snapshot`]).
//!
//! KPAs hold *pointers* into RC-pinned bundles, so snapshots cannot store
//! them directly: each KPA is first run through the Table-2 `Materialize`
//! primitive (§4.3) to produce self-contained records, which restore
//! re-extracts into fresh KPAs. [`StateEntry::from_kpa`] and
//! [`StateEntry::to_kpa`] are the only place that happens; keys an operator
//! *computed* (a key map, a composite key) are no column of those records,
//! so they are saved as one more column of the rows and put back from it.
//! A KPA whose pairs are its one bundle's rows in order (an early-aggregated
//! partial) needs no gather: its entry shares that immutable bundle, and the
//! encoder writes the rows straight into the store.

// sbx-lint: out-of-scope(raw-alloc, snapshot assembly at epoch barriers; bounded by operator-state size)
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use sbx_kpa::{ExtractCharge, Kpa};
use sbx_records::{Col, RecordBundle, Schema, WindowSpec};
use sbx_simmem::{AccessProfile, MemEnv};

use crate::{EngineError, KnobState, OpCtx, StreamData};

/// How a [`StateEntry`]'s rows are rebuilt on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryRepr {
    /// Re-extract a KPA from the materialized rows: `resident` is the key
    /// column the KPA was resident on, `sorted` whether its pairs were
    /// sorted (materialization preserves pair order, so sortedness holds
    /// for the re-extracted KPA as well).
    Kpa {
        /// Resident key column index of the snapshotted KPA.
        resident: usize,
        /// Whether the snapshotted KPA was sorted by resident key.
        sorted: bool,
    },
    /// A [`EntryRepr::Kpa`] whose keys an operator computed rather than
    /// copied from the resident column: every row carries its key as one
    /// more, last column (counted in [`StateEntry::ncols`]).
    KeyedKpa {
        /// Resident key column index of the snapshotted KPA.
        resident: usize,
        /// Whether the snapshotted KPA was sorted by its keys.
        sorted: bool,
    },
    /// Keep the rows as plain records (pane bundles, pending join rows).
    Rows,
}

/// One unit of snapshotted operator state: the materialized rows of a KPA
/// or a raw row buffer, keyed by window and input port.
#[derive(Debug, Clone, PartialEq)]
pub struct StateEntry {
    /// Window the state belongs to (operator-specific meaning).
    pub window: u64,
    /// Input port / side index for multi-input operators.
    pub port: u8,
    /// How to rebuild the entry on restore.
    pub repr: EntryRepr,
    /// Columns per row.
    pub ncols: usize,
    /// Timestamp column index.
    pub ts_col: usize,
    /// Row-major record data.
    pub rows: EntryRows,
}

/// A [`StateEntry`]'s row-major words: its own (decoded, split or computed
/// rows), or shared with the immutable bundle a KPA's pairs are the rows of,
/// in order ([`Kpa::rows_in_place`]). Reads as the words either way.
#[derive(Clone)]
pub enum EntryRows {
    /// Words the entry owns.
    Owned(Vec<u64>),
    /// Every row of a record bundle, in order.
    Shared(Arc<RecordBundle>),
}

impl EntryRows {
    /// Appends one word, taking a copy of shared rows first.
    pub fn push(&mut self, word: u64) {
        if let EntryRows::Shared(b) = self {
            *self = EntryRows::Owned(b.as_rows().to_vec());
        }
        if let EntryRows::Owned(words) = self {
            words.push(word);
        }
    }
}

impl Deref for EntryRows {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            EntryRows::Owned(words) => words,
            EntryRows::Shared(b) => b.as_rows(),
        }
    }
}

impl From<Vec<u64>> for EntryRows {
    fn from(words: Vec<u64>) -> Self {
        EntryRows::Owned(words)
    }
}

impl FromIterator<u64> for EntryRows {
    fn from_iter<I: IntoIterator<Item = u64>>(words: I) -> Self {
        EntryRows::Owned(words.into_iter().collect())
    }
}

impl PartialEq for EntryRows {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for EntryRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl StateEntry {
    /// Snapshots a KPA by materializing it (Table-2 `Materialize`, §4.3)
    /// and copying the self-contained rows out of the transient bundle.
    /// A KPA whose pairs are its bundle's rows in order shares that bundle
    /// instead; Materialize is charged and its DRAM request made all the
    /// same, so the simulated run cannot tell the two apart.
    ///
    /// When the keys are not a copy of the resident column (`update_keys`,
    /// `key_compose`), each row carries its key as one more column, so the
    /// restored KPA groups as the saved one did; a plain-column KPA encodes
    /// exactly as it always has.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when the materialize scratch bundle
    /// cannot be allocated.
    pub fn from_kpa(
        ctx: &mut OpCtx<'_>,
        window: u64,
        port: u8,
        kpa: &Kpa,
    ) -> Result<StateEntry, EngineError> {
        let schema = kpa.schema();
        let rb = if kpa.is_empty() || kpa.source_count() == 0 {
            16
        } else {
            schema.record_bytes()
        };
        let (resident, sorted) = (kpa.resident().0, kpa.is_sorted());
        let mut ncols = schema.ncols();
        // Either way the Materialize output's DRAM request is held until
        // the rows are in the entry.
        let (rows, carries_keys) = if let Some(b) = kpa.rows_in_place() {
            let _request = ctx.charged(rb, |e| kpa.materialize_request(e))?;
            (EntryRows::Shared(Arc::clone(b)), false)
        } else {
            let bundle = ctx.charged(rb, |e| kpa.materialize(e))?;
            let rows = bundle.as_rows();
            let carries_keys = rows
                .chunks_exact(ncols)
                .zip(kpa.keys())
                .any(|(row, &key)| row[resident] != key);
            let rows = if carries_keys {
                // Computed keys: lay the rows out again, each with its key.
                let mut keyed = Vec::with_capacity(rows.len() + kpa.len());
                for (row, &key) in rows.chunks_exact(ncols).zip(kpa.keys()) {
                    keyed.extend_from_slice(row);
                    keyed.push(key);
                }
                ncols += 1;
                keyed
            } else {
                rows.to_vec()
            };
            (EntryRows::Owned(rows), carries_keys)
        };
        Ok(StateEntry {
            window,
            port,
            repr: if carries_keys {
                EntryRepr::KeyedKpa { resident, sorted }
            } else {
                EntryRepr::Kpa { resident, sorted }
            },
            ncols,
            ts_col: schema.ts_col().0,
            rows,
        })
    }

    /// Snapshots a raw record bundle (pane buffers) as plain rows, shared
    /// with the bundle.
    pub fn from_bundle(window: u64, port: u8, b: &Arc<RecordBundle>) -> StateEntry {
        StateEntry {
            window,
            port,
            repr: EntryRepr::Rows,
            ncols: b.schema().ncols(),
            ts_col: b.schema().ts_col().0,
            rows: EntryRows::Shared(Arc::clone(b)),
        }
    }

    /// A raw-rows entry from already-flat row data.
    pub fn from_rows(
        window: u64,
        port: u8,
        ncols: usize,
        ts_col: usize,
        rows: Vec<u64>,
    ) -> StateEntry {
        StateEntry {
            window,
            port,
            repr: EntryRepr::Rows,
            ncols,
            ts_col,
            rows: rows.into(),
        }
    }

    /// The column the entry is keyed on, and so routed by when a rescale
    /// splits it: a KPA's resident column; plain rows key on column 0.
    pub fn key_col(&self) -> usize {
        match self.repr {
            EntryRepr::Kpa { resident, .. } | EntryRepr::KeyedKpa { resident, .. } => resident,
            EntryRepr::Rows => 0,
        }
    }

    /// Splits the rows into `parts` entries of the same window, port and
    /// layout: each row goes to part `owner(key)` of its key column. A part
    /// may be empty. Rows keep their order, so a sorted entry's parts are
    /// sorted too.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a corrupt layout or an owner of
    /// `parts` or more.
    pub fn split(
        &self,
        parts: usize,
        mut owner: impl FnMut(u64) -> usize,
    ) -> Result<Vec<StateEntry>, EngineError> {
        self.record_cols()?;
        let kc = self.key_col();
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); parts];
        for row in self.rows.chunks_exact(self.ncols) {
            let part = out.get_mut(owner(row[kc])).ok_or_else(|| {
                EngineError::Config(format!("a snapshot row's owner is past {parts} parts"))
            })?;
            part.extend_from_slice(row);
        }
        let part = |rows: Vec<u64>| StateEntry {
            rows: rows.into(),
            ..*self
        };
        Ok(out.into_iter().map(part).collect())
    }

    /// Rebuilds the entry's records (without the key column a KPA entry may
    /// carry) as a pool-accounted bundle.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a corrupt entry and
    /// [`EngineError::Alloc`] when DRAM is exhausted.
    pub fn to_bundle(&self, ctx: &mut OpCtx<'_>) -> Result<Arc<RecordBundle>, EngineError> {
        let schema = self.schema()?;
        let (env, ncols) = (ctx.env(), schema.ncols());
        let slots = self.rows.len() / self.ncols * ncols;
        RecordBundle::from_fill(&env, schema, slots, |out| {
            for row in self.rows.chunks_exact(self.ncols) {
                out.extend_from_slice(&row[..ncols]);
            }
        })
        .map_err(EngineError::from)
    }

    /// Rebuilds a KPA: restores the records as a bundle, re-extracts on the
    /// saved resident column at the placement chosen by the current knob,
    /// puts back the keys the entry carries, and re-marks sortedness. The
    /// pairs are left in the restored rows ([`Kpa::extract_in_place`],
    /// charged as fused with the restore), written only to put keys back.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when the entry does not describe a
    /// KPA or claims a sort order its keys do not have, and
    /// [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn to_kpa(&self, ctx: &mut OpCtx<'_>) -> Result<Kpa, EngineError> {
        let (EntryRepr::Kpa { sorted, .. } | EntryRepr::KeyedKpa { sorted, .. }) = self.repr else {
            return Err(EngineError::Config(
                "snapshot entry does not describe a KPA".into(),
            ));
        };
        let bundle = self.to_bundle(ctx)?;
        let ((kind, prio), col) = (ctx.place(), Col(self.key_col()));
        let rb = bundle.schema().record_bytes();
        let mut kpa = ctx
            .charged(rb, |e| {
                Kpa::extract_in_place(e, &bundle, col, kind, prio, ExtractCharge::Fused)
            })
            .map_err(EngineError::from)?;
        if self.carries_keys() {
            let mut keys = self
                .rows
                .chunks_exact(self.ncols)
                .map(|row| row[self.ncols - 1]);
            ctx.charged(rb, |e| kpa.update_keys(e, |k| keys.next().unwrap_or(k)));
        }
        if sorted {
            // The keys, read from the entry: a KPA in place has no key column.
            let key_at = if self.carries_keys() {
                self.ncols - 1
            } else {
                self.key_col()
            };
            if !self
                .rows
                .chunks_exact(self.ncols)
                .map(|row| row[key_at])
                .is_sorted()
            {
                return Err(EngineError::Config(
                    "corrupt snapshot entry: keys marked sorted are not".into(),
                ));
            }
            kpa.mark_sorted();
        }
        Ok(kpa)
    }

    fn carries_keys(&self) -> bool {
        matches!(self.repr, EntryRepr::KeyedKpa { .. })
    }

    /// The one layout check, shared by every reader of an entry: a whole
    /// number of rows, and the timestamp and key columns inside the record.
    /// Returns the record's columns, a carried key column not counted.
    fn record_cols(&self) -> Result<usize, EngineError> {
        let ncols = self.ncols.saturating_sub(usize::from(self.carries_keys()));
        if ncols == 0
            || self.ts_col >= ncols
            || self.key_col() >= ncols
            || !self.rows.len().is_multiple_of(self.ncols)
        {
            return Err(EngineError::Config(format!(
                "corrupt snapshot entry for window {}: {} words over {} columns",
                self.window,
                self.rows.len(),
                self.ncols
            )));
        }
        Ok(ncols)
    }

    /// The schema of the entry's records; a carried key column is no part
    /// of it.
    fn schema(&self) -> Result<Arc<Schema>, EngineError> {
        let names: Vec<String> = (0..self.record_cols()?).map(|i| format!("c{i}")).collect();
        Ok(Schema::new(names, Col(self.ts_col)))
    }
}

/// Snapshot of one stateful operator, captured at barrier alignment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpState {
    /// Late-data horizon: the highest watermark the operator has observed.
    pub horizon: Option<u64>,
    /// Words that outlive every window: `KeyedAggregate`'s pane cursor and
    /// adaptive window history. They advance with the watermark, alike on
    /// every shard of a lockstep cluster, so a rescale hands every new shard
    /// shard 0's words.
    pub cadence: Vec<u64>,
    /// Window-keyed state entries: everything a window holds.
    pub entries: Vec<StateEntry>,
}

/// Refuses a window id read from a snapshot that no run can have saved: the
/// engine and the window lifecycle compute window bounds from ids unchecked.
pub(crate) fn check_window_id(spec: &WindowSpec, id: u64) -> Result<(), EngineError> {
    if id > spec.last_window().0 {
        return Err(EngineError::Config(format!(
            "snapshot holds window {id}, past the end of event time"
        )));
    }
    Ok(())
}

/// Refuses run counters read from a snapshot that the rest of the run could
/// overflow; no run counts that far.
pub(crate) fn check_counters(snap: &PipelineSnapshot) -> Result<(), EngineError> {
    let (r, b) = (snap.records_in, snap.bundles_in);
    let (w, o) = (snap.windows_closed, snap.output_records);
    if r.max(b).max(w).max(o) > u64::MAX / 2 {
        return Err(EngineError::Config(format!(
            "snapshot counts more than a run can: {r} records in {b} bundles, {w} windows, {o} outputs"
        )));
    }
    Ok(())
}

/// A checkpoint barrier flowing in-band through the pipeline, accumulating
/// each stateful operator's [`OpState`] as it passes.
#[derive(Debug, Default)]
pub struct CheckpointBarrier {
    /// Monotone checkpoint epoch (1-based; assigned by the sender).
    pub epoch: u64,
    /// States collected so far, in pipeline order of the stateful operators.
    pub states: Vec<OpState>,
}

impl CheckpointBarrier {
    /// A fresh barrier for `epoch` with no states collected yet.
    pub fn new(epoch: u64) -> Self {
        CheckpointBarrier {
            epoch,
            states: Vec::new(),
        }
    }
}

/// A consistent snapshot of one engine instance: every stateful operator's
/// state plus the engine counters and the ingress replay offset needed to
/// resume exactly where the barrier fell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineSnapshot {
    /// Checkpoint epoch this snapshot belongs to.
    pub epoch: u64,
    /// Ingress replay offset: bundles the sender had produced when the
    /// barrier was injected. Recovery rewinds the sender to this offset.
    pub bundles_sent: u64,
    /// Records ingested so far.
    pub records_in: u64,
    /// Bundles ingested so far.
    pub bundles_in: u64,
    /// Output records externalized so far.
    pub output_records: u64,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Next window the engine expects to close.
    pub next_to_close: u64,
    /// Highest window id seen in the input.
    pub max_window_seen: u64,
    /// Raw value of the last watermark driven through the pipeline.
    pub watermark: u64,
    /// Simulated time at the checkpoint, nanoseconds.
    pub clock_ns: u64,
    /// The demand-balance knob `{k_low, k_high}` (paper §5).
    pub knob: KnobState,
    /// Per-operator states in pipeline order of the stateful operators.
    pub ops: Vec<OpState>,
}

/// First word of every encoded snapshot: `b"SBXCKPT2"` as a big-endian
/// integer. The trailing digit is the format version.
pub const SNAPSHOT_MAGIC: u64 = u64::from_be_bytes(*b"SBXCKPT2");

fn corrupt(what: &str) -> EngineError {
    EngineError::Config(format!("corrupt snapshot: {what}"))
}

/// The one encoder: hands the snapshot's wire format to `put`, a run of
/// words at a time.
///
/// Layout: a fixed header (magic, engine counters, replay offset,
/// watermark, clock, `{k_low, k_high}` as IEEE-754 bits), then each
/// operator state as `[has_horizon, horizon, n_cadence, cadence...,
/// n_entries, entries...]`, each entry as `[window, port, repr_tag,
/// resident, sorted, ncols, ts_col, n_row_words, rows...]`.
pub fn encode_words(snap: &PipelineSnapshot, mut put: impl FnMut(&[u64])) {
    put(&[
        SNAPSHOT_MAGIC,
        snap.epoch,
        snap.bundles_sent,
        snap.records_in,
        snap.bundles_in,
        snap.output_records,
        snap.windows_closed,
        snap.next_to_close,
        snap.max_window_seen,
        snap.watermark,
        snap.clock_ns,
        snap.knob.k_low.to_bits(),
        snap.knob.k_high.to_bits(),
        snap.ops.len() as u64,
    ]);
    for op in &snap.ops {
        put(&[
            u64::from(op.horizon.is_some()),
            op.horizon.unwrap_or(0),
            op.cadence.len() as u64,
        ]);
        put(&op.cadence);
        put(&[op.entries.len() as u64]);
        for e in &op.entries {
            let (tag, resident, sorted) = match e.repr {
                EntryRepr::Rows => (0u64, 0u64, 0u64),
                EntryRepr::Kpa { resident, sorted } => (1, resident as u64, u64::from(sorted)),
                EntryRepr::KeyedKpa { resident, sorted } => (2, resident as u64, u64::from(sorted)),
            };
            put(&[
                e.window,
                u64::from(e.port),
                tag,
                resident,
                sorted,
                e.ncols as u64,
                e.ts_col as u64,
                e.rows.len() as u64,
            ]);
            put(&e.rows);
        }
    }
}

/// Words the encoder produces for `snap`, counted by the encoder itself.
pub fn encoded_len(snap: &PipelineSnapshot) -> usize {
    let mut len = 0;
    encode_words(snap, |words| len += words.len());
    len
}

/// Serializes a [`PipelineSnapshot`] into the u64-word wire format.
pub fn encode_snapshot(snap: &PipelineSnapshot) -> Vec<u64> {
    let mut w: Vec<u64> = Vec::new();
    encode_words(snap, |words| w.extend_from_slice(words));
    w
}

struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self) -> Result<u64, EngineError> {
        let v = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos += 1;
        Ok(v)
    }

    fn take_usize(&mut self) -> Result<usize, EngineError> {
        usize::try_from(self.take()?).map_err(|_| corrupt("length overflows usize"))
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u64], EngineError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("length overflow"))?;
        let s = self
            .words
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos = end;
        Ok(s)
    }
}

/// Deserializes a snapshot encoded by [`encode_snapshot`].
///
/// # Errors
///
/// Returns [`EngineError::Config`] on a bad magic word, truncation, or any
/// malformed field — never panics, whatever the input bytes.
pub fn decode_snapshot(words: &[u64]) -> Result<PipelineSnapshot, EngineError> {
    let mut c = Cursor { words, pos: 0 };
    if c.take()? != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut snap = PipelineSnapshot {
        epoch: c.take()?,
        bundles_sent: c.take()?,
        records_in: c.take()?,
        bundles_in: c.take()?,
        output_records: c.take()?,
        windows_closed: c.take()?,
        next_to_close: c.take()?,
        max_window_seen: c.take()?,
        watermark: c.take()?,
        clock_ns: c.take()?,
        knob: KnobState {
            k_low: f64::from_bits(c.take()?),
            k_high: f64::from_bits(c.take()?),
        },
        ops: Vec::new(),
    };
    let n_ops = c.take_usize()?;
    for _ in 0..n_ops {
        let has_horizon = c.take()?;
        let horizon_raw = c.take()?;
        let horizon = match has_horizon {
            0 => None,
            1 => Some(horizon_raw),
            _ => return Err(corrupt("bad horizon flag")),
        };
        let n_cadence = c.take_usize()?;
        let cadence = c.take_slice(n_cadence)?.to_vec();
        let n_entries = c.take_usize()?;
        let mut entries: Vec<StateEntry> = Vec::new();
        for _ in 0..n_entries {
            let window = c.take()?;
            let port = u8::try_from(c.take()?).map_err(|_| corrupt("bad port"))?;
            let tag = c.take()?;
            let resident = c.take_usize()?;
            let sorted = match c.take()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("bad sorted flag")),
            };
            let repr = match tag {
                0 => EntryRepr::Rows,
                1 => EntryRepr::Kpa { resident, sorted },
                2 => EntryRepr::KeyedKpa { resident, sorted },
                _ => return Err(corrupt("bad repr tag")),
            };
            let ncols = c.take_usize()?;
            let ts_col = c.take_usize()?;
            let n_rows = c.take_usize()?;
            let rows = c.take_slice(n_rows)?.to_vec().into();
            entries.push(StateEntry {
                window,
                port,
                repr,
                ncols,
                ts_col,
                rows,
            });
        }
        snap.ops.push(OpState {
            horizon,
            cadence,
            entries,
        });
    }
    if c.pos != words.len() {
        return Err(corrupt("trailing words"));
    }
    Ok(snap)
}

/// Where in the round lifecycle a crash-injection decision is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// A bundle arrived and is about to be driven.
    Ingest,
    /// A watermark round completed.
    RoundEnd,
    /// A barrier arrived. Every bundle ahead of it was driven on arrival,
    /// so this cuts the same state as [`CrashPhase::BarrierAligned`].
    BarrierBeforeAlignment,
    /// Pre-barrier bundles driven; operators are about to snapshot.
    BarrierAligned,
    /// Operator states collected but the snapshot is not yet persisted.
    BarrierBeforeCommit,
    /// The snapshot persisted successfully.
    BarrierCommitted,
}

/// Context handed to [`CheckpointHooks::should_crash`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSite {
    /// Lifecycle phase of the decision point.
    pub phase: CrashPhase,
    /// Barrier epoch (meaningful only in the `Barrier*` phases, else 0).
    pub epoch: u64,
    /// Bundles ingested so far.
    pub bundles_in: u64,
}

/// Engine-side checkpoint callbacks, implemented by `sbx-checkpoint`'s
/// coordinator (snapshot store + transactional output buffer + crash plan).
pub trait CheckpointHooks {
    /// Persists a completed snapshot. The returned [`AccessProfile`] is
    /// merged into the current round so the snapshot's DRAM writes are
    /// counted in the round's traffic and seen by the balancer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the snapshot cannot be persisted (for
    /// example, the DRAM pool cannot hold it).
    fn on_checkpoint(
        &mut self,
        env: &MemEnv,
        snap: PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError>;

    /// Observes one externalized output (for transactional two-phase
    /// output: pending until the next snapshot commits).
    fn on_output(&mut self, data: &StreamData) {
        let _ = data;
    }

    /// Whether to tear the worker down at `site` (fault injection).
    fn should_crash(&mut self, site: CrashSite) -> bool {
        let _ = site;
        false
    }
}

/// Hooks that do nothing: plain runs without checkpointing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHooks;

impl CheckpointHooks for NoopHooks {
    fn on_checkpoint(
        &mut self,
        _env: &MemEnv,
        _snap: PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError> {
        Ok(AccessProfile::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag};
    use sbx_simmem::MachineConfig;

    fn ctx_env() -> (MemEnv, DemandBalancer) {
        (
            MemEnv::new(MachineConfig::knl().scaled(0.01)),
            DemandBalancer::new(),
        )
    }

    #[test]
    fn kpa_round_trips_through_materialized_entry() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::Urgent);
        let rows: Vec<u64> = (0..50u64).flat_map(|i| [i % 5, i, i * 3]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).unwrap();
        let mut kpa = ctx.extract(&b, Col(0)).unwrap();
        ctx.sort(&mut kpa).unwrap();

        let entry = StateEntry::from_kpa(&mut ctx, 7, 0, &kpa).unwrap();
        assert_eq!(entry.window, 7);
        assert_eq!(entry.rows.len(), 50 * 3);

        let restored = entry.to_kpa(&mut ctx).unwrap();
        assert_eq!(restored.len(), kpa.len());
        assert!(restored.is_sorted());
        assert!(restored.key_iter().eq(kpa.key_iter()));
        // Values dereference identically through the restored bundle.
        for i in 0..kpa.len() {
            assert_eq!(restored.value_at(i, Col(1)), kpa.value_at(i, Col(1)));
        }

        // Computed keys ride along as one more column, and again in a
        // second snapshot taken of the restored KPA.
        ctx.charged(16, |e| kpa.update_keys(e, |k| (k * 7) % 5));
        ctx.sort(&mut kpa).unwrap();
        let entry = StateEntry::from_kpa(&mut ctx, 7, 0, &kpa).unwrap();
        assert_eq!((entry.ncols, entry.rows.len()), (4, 50 * 4));
        let restored = entry.to_kpa(&mut ctx).unwrap();
        assert!(restored.is_sorted());
        assert_eq!(restored.keys(), kpa.keys());
        for i in 0..kpa.len() {
            assert_eq!(restored.value_at(i, Col(1)), kpa.value_at(i, Col(1)));
        }
        assert_eq!(
            StateEntry::from_kpa(&mut ctx, 7, 0, &restored).unwrap(),
            entry
        );
    }

    /// An early-aggregation partial's entry shares its bundle; one whose
    /// keys went through an identity `update_keys` is gathered. Both must
    /// be the same entry, encode to the same words, and leave the same DRAM
    /// pool and charge behind.
    #[test]
    fn partial_by_reference_matches_the_gathered_entry() {
        let snapshot_of = |gathered: bool| {
            let (env, mut bal) = ctx_env();
            let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::Urgent);
            // Partials as the scalar fold writes them: ascending keys.
            let rows: Vec<u64> = (0..400u64).flat_map(|k| [3 * k, k * k, 0]).collect();
            let partials = RecordBundle::from_rows(&env, Schema::kvt(), &rows).unwrap();
            let (kind, prio) = ctx.place();
            let mut kpa = ctx
                .charged(24, |e| {
                    Kpa::extract_in_place(e, &partials, Col(0), kind, prio, ExtractCharge::Fused)
                })
                .unwrap();
            kpa.mark_sorted();
            if gathered {
                ctx.charged(16, |e| kpa.update_keys(e, |k| k));
                kpa.mark_sorted();
            }
            assert_eq!(kpa.rows_in_place().is_some(), !gathered);
            ctx.take_profile();
            let entry = StateEntry::from_kpa(&mut ctx, 5, 0, &kpa).unwrap();
            assert_eq!(matches!(entry.rows, EntryRows::Shared(_)), !gathered);
            let snap = PipelineSnapshot {
                ops: vec![OpState {
                    entries: vec![entry.clone()],
                    ..OpState::default()
                }],
                ..PipelineSnapshot::default()
            };
            let dram = env.pool(sbx_simmem::MemKind::Dram).stats();
            (entry, encode_snapshot(&snap), dram, ctx.take_profile())
        };
        let (shared, gathered) = (snapshot_of(false), snapshot_of(true));
        assert_eq!(shared.0, gathered.0);
        assert_eq!(shared.1, gathered.1);
        assert_eq!(shared.2, gathered.2);
        assert!(
            shared.2.high_water_bytes > shared.2.used_bytes,
            "the stand-in request was made"
        );
        assert_eq!(shared.3, gathered.3);
    }

    #[test]
    fn rows_entry_round_trips_as_bundle() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::Urgent);
        let entry = StateEntry::from_rows(3, 1, 3, 2, vec![1, 2, 3, 4, 5, 6]);
        let b = entry.to_bundle(&mut ctx).unwrap();
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(1), &[4, 5, 6]);
    }

    #[test]
    fn corrupt_entries_are_config_errors_not_panics() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::Urgent);
        let ragged = StateEntry::from_rows(0, 0, 3, 2, vec![1, 2]);
        assert!(matches!(
            ragged.to_bundle(&mut ctx),
            Err(EngineError::Config(_))
        ));
        let bad_res = StateEntry {
            repr: EntryRepr::Kpa {
                resident: 9,
                sorted: false,
            },
            ..StateEntry::from_rows(0, 0, 3, 2, vec![1, 2, 3])
        };
        assert!(matches!(
            bad_res.to_kpa(&mut ctx),
            Err(EngineError::Config(_))
        ));
        let lying = StateEntry {
            repr: EntryRepr::Kpa {
                resident: 0,
                sorted: true,
            },
            ..StateEntry::from_rows(0, 0, 3, 2, vec![9, 0, 0, 1, 0, 0])
        };
        assert!(matches!(
            lying.to_kpa(&mut ctx),
            Err(EngineError::Config(_))
        ));
        let not_kpa = StateEntry::from_rows(0, 0, 3, 2, vec![1, 2, 3]);
        assert!(matches!(
            not_kpa.to_kpa(&mut ctx),
            Err(EngineError::Config(_))
        ));
    }

    fn sample_snapshot() -> PipelineSnapshot {
        PipelineSnapshot {
            epoch: 3,
            bundles_sent: 17,
            records_in: 17_000,
            bundles_in: 17,
            output_records: 42,
            windows_closed: 2,
            next_to_close: 3,
            max_window_seen: 4,
            watermark: 3_100_000_000,
            clock_ns: 123_456_789,
            knob: KnobState {
                k_low: 0.25,
                k_high: 1.0,
            },
            ops: vec![
                OpState {
                    horizon: Some(3_100_000_000),
                    cadence: vec![7, 8, 9],
                    entries: vec![
                        StateEntry {
                            window: 3,
                            port: 0,
                            repr: EntryRepr::Kpa {
                                resident: 0,
                                sorted: true,
                            },
                            ncols: 3,
                            ts_col: 2,
                            rows: vec![1, 2, 3, 4, 5, 6].into(),
                        },
                        StateEntry {
                            window: 4,
                            port: 1,
                            repr: EntryRepr::Rows,
                            ncols: 2,
                            ts_col: 1,
                            rows: vec![10, 11].into(),
                        },
                    ],
                },
                OpState::default(),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_through_wire_format() {
        let snap = sample_snapshot();
        let words = encode_snapshot(&snap);
        assert_eq!(words[0], SNAPSHOT_MAGIC);
        assert_eq!(words.len(), encoded_len(&snap));
        assert_eq!(decode_snapshot(&words).unwrap(), snap);
        // The empty snapshot round-trips too.
        let empty = PipelineSnapshot::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let snap = sample_snapshot();
        let words = encode_snapshot(&snap);
        // Bad magic.
        let mut bad = words.clone();
        bad[0] ^= 1;
        assert!(matches!(decode_snapshot(&bad), Err(EngineError::Config(_))));
        // Every truncation point decodes to an error, never a panic.
        for cut in 0..words.len() {
            assert!(
                decode_snapshot(&words[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected.
        let mut long = words.clone();
        long.push(99);
        assert!(decode_snapshot(&long).is_err());
        // Arbitrary flips either decode to *something* or error cleanly.
        for i in 1..words.len() {
            let mut flipped = words.clone();
            flipped[i] = flipped[i].wrapping_add(1);
            let _ = decode_snapshot(&flipped);
        }
    }
}
