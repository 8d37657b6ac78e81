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
//! KPAs hold *pointers* into RC-pinned bundles, so snapshots cannot store
//! them directly: each KPA is first run through the Table-2 `Materialize`
//! primitive (§4.3) to produce self-contained records, which restore
//! re-extracts into fresh KPAs. [`StateEntry::from_kpa`] and
//! [`StateEntry::to_kpa`] are the only place that happens; keys an operator
//! *computed* (a key map, a composite key) are no column of those records,
//! so they are saved as one more column of the rows and put back from it.

// sbx-lint: out-of-scope(raw-alloc, snapshot assembly at epoch barriers; bounded by operator-state size)
use std::sync::Arc;

use sbx_kpa::Kpa;
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
    pub rows: Vec<u64>,
}

impl StateEntry {
    /// Snapshots a KPA by materializing it (Table-2 `Materialize`, §4.3)
    /// and copying the self-contained rows out of the transient bundle.
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
        let bundle = ctx.charged(rb, |e| kpa.materialize(e))?;
        let (resident, sorted) = (kpa.resident().0, kpa.is_sorted());
        let mut ncols = schema.ncols();
        let mut rows = bundle.as_rows().to_vec();
        let carries_keys = rows
            .chunks_exact(ncols)
            .zip(kpa.keys())
            .any(|(row, &key)| row[resident] != key);
        if carries_keys {
            // Computed keys: lay the rows out again, each with its key.
            let mut keyed = Vec::with_capacity(rows.len() + kpa.len());
            for (row, &key) in rows.chunks_exact(ncols).zip(kpa.keys()) {
                keyed.extend_from_slice(row);
                keyed.push(key);
            }
            rows = keyed;
            ncols += 1;
        }
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

    /// Snapshots a raw record bundle (pane buffers) as plain rows.
    pub fn from_bundle(window: u64, port: u8, b: &RecordBundle) -> StateEntry {
        StateEntry {
            window,
            port,
            repr: EntryRepr::Rows,
            ncols: b.schema().ncols(),
            ts_col: b.schema().ts_col().0,
            rows: b.as_rows().to_vec(),
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
            rows,
        }
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
    /// puts back the keys the entry carries, and re-marks sortedness.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when the entry does not describe a
    /// KPA or claims a sort order its keys do not have, and
    /// [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn to_kpa(&self, ctx: &mut OpCtx<'_>) -> Result<Kpa, EngineError> {
        let (resident, sorted) = match self.repr {
            EntryRepr::Kpa { resident, sorted } | EntryRepr::KeyedKpa { resident, sorted } => {
                (resident, sorted)
            }
            EntryRepr::Rows => {
                return Err(EngineError::Config(
                    "snapshot entry does not describe a KPA".into(),
                ));
            }
        };
        let bundle = self.to_bundle(ctx)?;
        if resident >= bundle.schema().ncols() {
            return Err(EngineError::Config(
                "snapshot KPA resident column out of range".into(),
            ));
        }
        let (kind, prio) = ctx.place();
        let rb = bundle.schema().record_bytes();
        let mut kpa = ctx
            .charged(rb, |e| {
                Kpa::extract_fused(e, &bundle, Col(resident), kind, prio)
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
            if !kpa.keys().is_sorted() {
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

    /// The schema of the entry's records; a carried key column is no part
    /// of it.
    fn schema(&self) -> Result<Arc<Schema>, EngineError> {
        let ncols = self.ncols.saturating_sub(usize::from(self.carries_keys()));
        if ncols == 0 || self.ts_col >= ncols || !self.rows.len().is_multiple_of(self.ncols) {
            return Err(EngineError::Config(
                "corrupt snapshot entry: bad column layout".into(),
            ));
        }
        let names: Vec<String> = (0..ncols).map(|i| format!("c{i}")).collect();
        Ok(Schema::new(names, Col(self.ts_col)))
    }
}

/// Snapshot of one stateful operator, captured at barrier alignment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpState {
    /// Late-data horizon: the highest watermark the operator has observed.
    pub horizon: Option<u64>,
    /// Operator-specific scalar state (counters, split u128 accumulators).
    pub scalars: Vec<u64>,
    /// Window-keyed state entries.
    pub entries: Vec<StateEntry>,
}

/// Splits a `u128` accumulator into `(hi, lo)` words for [`OpState::scalars`].
pub fn split_u128(v: u128) -> (u64, u64) {
    ((v >> 64) as u64, v as u64)
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

/// Rejoins a `u128` split by [`split_u128`].
pub fn join_u128(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
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

/// Where in the round lifecycle a crash-injection decision is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// A bundle was ingested (batched, not yet flushed).
    Ingest,
    /// A watermark round completed.
    RoundEnd,
    /// A barrier arrived; pre-barrier bundles are not yet flushed.
    BarrierBeforeAlignment,
    /// Pre-barrier bundles flushed; operators are about to snapshot.
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
    /// Simulated time, seconds.
    pub sim_secs: f64,
}

/// Engine-side checkpoint callbacks, implemented by `sbx-checkpoint`'s
/// coordinator (snapshot store + transactional output buffer + crash plan).
pub trait CheckpointHooks {
    /// Persists a completed snapshot. The returned [`AccessProfile`] is
    /// merged into the current round so the snapshot's DRAM writes are
    /// visible to the bandwidth monitor and the balancer.
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
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::Urgent);
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
        assert_eq!(restored.keys(), kpa.keys());
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

    #[test]
    fn rows_entry_round_trips_as_bundle() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::Urgent);
        let entry = StateEntry::from_rows(3, 1, 3, 2, vec![1, 2, 3, 4, 5, 6]);
        let b = entry.to_bundle(&mut ctx).unwrap();
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(1), &[4, 5, 6]);
    }

    #[test]
    fn corrupt_entries_are_config_errors_not_panics() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::Urgent);
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

    #[test]
    fn u128_split_round_trips() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let (hi, lo) = split_u128(v);
        assert_eq!(join_u128(hi, lo), v);
    }
}
