//! sbx-checkpoint: barrier snapshots, crash injection, and exactly-once
//! recovery for StreamBox-HBM (DESIGN.md §9).
//!
//! The engine side of asynchronous barrier snapshotting lives in
//! `sbx-engine` ([`sbx_engine::checkpoint`]): the ingress sender injects
//! [`sbx_engine::CheckpointBarrier`]s in-band, each stateful operator
//! materializes its window state onto the passing barrier (Table-2
//! `Materialize`, paper §4.3 — KPAs hold pointers, so snapshots must copy
//! records out), and the engine assembles a [`PipelineSnapshot`]. This
//! crate supplies everything *around* that mechanism:
//!
//! * a [`SnapshotStore`] whose buffers hold snapshots in `sbx-engine`'s
//!   wire format (re-exported here: [`encode_snapshot`] /
//!   [`decode_snapshot`]) and come from the accounted DRAM pool,
//!   so checkpoint pressure is visible to the bandwidth monitor and the
//!   demand balancer exactly like any other engine allocation,
//! * a [`CheckpointCoordinator`] implementing the engine's
//!   [`CheckpointHooks`]: it persists snapshots, holds sink outputs in a
//!   *pending* [`RowLog`] that only commits when the next checkpoint does
//!   (transactional two-phase output — the half of exactly-once that
//!   barrier replay alone cannot give), and evaluates a [`CrashPlan`],
//! * the one recovery loop, [`run_segment`]: run, crash, restore the latest
//!   complete snapshot, rewind the deterministic sender to the saved
//!   offset, resume — committed outputs end up byte-identical to a
//!   fault-free run. [`run_with_recovery`] drives a whole run through it;
//!   the cluster tier drives each side of a rescale cut through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rowlog;

pub use rowlog::{RowLog, Rows};

pub use sbx_engine::checkpoint::{decode_snapshot, encode_snapshot, SNAPSHOT_MAGIC};

use sbx_engine::checkpoint::{encode_words, encoded_len};
use sbx_engine::{
    CheckpointHooks, CrashPhase, CrashSite, Engine, EngineError, Pipeline, PipelineSnapshot,
    RunConfig, RunReport, StreamData,
};
use sbx_ingress::Sources;
use sbx_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use sbx_simmem::{AccessProfile, MemEnv, MemKind, PoolVec, Priority};

/// Snapshot storage backed by the accounted DRAM pool.
///
/// Every persisted snapshot lives in a [`PoolVec`] allocated from the
/// engine's DRAM pool, so checkpoint bytes show up in
/// `env.pool(MemKind::Dram).used_bytes()` and compete for capacity with
/// ingested bundles — the balancer observes checkpoint pressure like any
/// other memory demand. Snapshots are kept per epoch, newest last;
/// coordinated cluster recovery may need an epoch older than a shard's
/// newest, so a small history is retained (see
/// [`CheckpointCoordinator::retain`]).
#[derive(Debug, Default)]
pub struct SnapshotStore {
    snaps: Vec<(u64, PoolVec)>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        SnapshotStore { snaps: Vec::new() }
    }

    /// Encodes `snap` and persists it in a DRAM-pool buffer, replacing any
    /// previous snapshot of the same epoch. Returns the accounted bytes of
    /// the new buffer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when the DRAM pool cannot hold the
    /// encoded snapshot.
    pub fn persist(&mut self, env: &MemEnv, snap: &PipelineSnapshot) -> Result<u64, EngineError> {
        let mut buf = env
            .pool(MemKind::Dram)
            .alloc_u64(encoded_len(snap), Priority::Normal)
            .map_err(EngineError::from)?;
        encode_words(snap, |words| buf.extend_from_slice(words));
        let bytes = buf.accounted_bytes();
        self.snaps.retain(|(e, _)| *e != snap.epoch);
        self.snaps.push((snap.epoch, buf));
        self.snaps.sort_by_key(|(e, _)| *e);
        Ok(bytes)
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether no snapshot has been persisted yet.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Epoch of the newest complete snapshot.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.snaps.last().map(|(e, _)| *e)
    }

    /// All held epochs, oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        let mut es = Vec::new();
        for (e, _) in &self.snaps {
            es.push(*e);
        }
        es
    }

    /// Decodes the newest complete snapshot, if any.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if the stored bytes are corrupt.
    pub fn latest(&self) -> Result<Option<PipelineSnapshot>, EngineError> {
        match self.snaps.last() {
            Some((_, buf)) => Ok(Some(decode_snapshot(buf)?)),
            None => Ok(None),
        }
    }

    /// Decodes the snapshot for `epoch`, if held.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if the stored bytes are corrupt.
    pub fn at_epoch(&self, epoch: u64) -> Result<Option<PipelineSnapshot>, EngineError> {
        for (e, buf) in &self.snaps {
            if *e == epoch {
                return Ok(Some(decode_snapshot(buf)?));
            }
        }
        Ok(None)
    }

    /// Total accounted pool bytes held by the store.
    pub fn total_bytes(&self) -> u64 {
        self.snaps.iter().map(|(_, b)| b.accounted_bytes()).sum()
    }

    /// Drops all snapshots older than the newest `n` (0 keeps everything).
    pub fn prune_to_last(&mut self, n: usize) {
        if n > 0 && self.snaps.len() > n {
            let cut = self.snaps.len() - n;
            self.snaps.drain(..cut);
        }
    }
}

/// When the fault-injection harness tears the worker down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPlan {
    /// Crash at the first bundle ingest once `bundles_in` reaches the
    /// given count.
    AfterBundles(u64),
    /// Crash at the given phase of the given barrier epoch.
    AtBarrier {
        /// Barrier epoch to crash in.
        epoch: u64,
        /// Lifecycle phase to crash at.
        phase: CrashPhase,
    },
}

impl CrashPlan {
    fn fires(self, site: CrashSite) -> bool {
        match self {
            CrashPlan::AfterBundles(n) => site.phase == CrashPhase::Ingest && site.bundles_in >= n,
            CrashPlan::AtBarrier { epoch, phase } => site.phase == phase && site.epoch == epoch,
        }
    }
}

/// DRAM accounting observed at one checkpoint commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointSample {
    /// Epoch of the committed snapshot.
    pub epoch: u64,
    /// Accounted bytes of this snapshot's buffer.
    pub snapshot_bytes: u64,
    /// Accounted bytes of the whole store after pruning.
    pub store_bytes: u64,
    /// DRAM pool `used_bytes()` right after the commit.
    pub dram_used_bytes: u64,
}

/// The recovery layer's [`CheckpointHooks`] implementation: snapshot store,
/// transactional two-phase output buffer, and crash plan, for one engine
/// instance (one per shard in a cluster).
///
/// Sink outputs observed via `on_output` are *pending* until the next
/// checkpoint commits, then move to the *committed* log. A crash discards
/// pending outputs (they precede no durable snapshot and will be
/// regenerated from the replayed stream), so the committed sequence is
/// emitted exactly once however often the worker dies.
#[derive(Debug, Default)]
pub struct CheckpointCoordinator {
    store: SnapshotStore,
    pending: RowLog,
    committed: RowLog,
    plan: Option<CrashPlan>,
    stop_after: Option<u64>,
    samples: Vec<CheckpointSample>,
    retain: usize,
    metrics: CkptMetrics,
}

/// Checkpoint instruments (`checkpoint.*`); inert until
/// [`CheckpointCoordinator::with_metrics`] installs live handles.
#[derive(Debug)]
struct CkptMetrics {
    /// `checkpoint.commits` — committed snapshots.
    commits: Counter,
    /// `checkpoint.snapshot_bytes` — cumulative persisted snapshot bytes.
    snapshot_bytes: Counter,
    /// `checkpoint.store_bytes` — store footprint after each commit (its
    /// max is the retention high-water mark).
    store_bytes: Gauge,
    /// `checkpoint.commit_secs` — modelled persistence latency per commit.
    commit_secs: Histogram,
}

impl Default for CkptMetrics {
    fn default() -> Self {
        CkptMetrics {
            commits: Counter::noop(),
            snapshot_bytes: Counter::noop(),
            store_bytes: Gauge::noop(),
            commit_secs: Histogram::noop(),
        }
    }
}

impl CheckpointCoordinator {
    /// A coordinator with no crash plan, retaining the 4 newest snapshots.
    pub fn new() -> Self {
        CheckpointCoordinator {
            store: SnapshotStore::new(),
            pending: RowLog::default(),
            committed: RowLog::default(),
            plan: None,
            stop_after: None,
            samples: Vec::new(),
            retain: 4,
            metrics: CkptMetrics::default(),
        }
    }

    /// Registers checkpoint instruments in `registry`: commit count,
    /// snapshot bytes, store footprint and modelled commit latency
    /// (`checkpoint.*`). With a no-op registry this leaves the coordinator
    /// unobserved.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = CkptMetrics {
            commits: registry.counter("checkpoint.commits"),
            snapshot_bytes: registry.counter("checkpoint.snapshot_bytes"),
            store_bytes: registry.gauge("checkpoint.store_bytes"),
            commit_secs: registry.histogram("checkpoint.commit_secs"),
        };
        self
    }

    /// A coordinator armed with `plan`.
    pub fn with_crash(plan: CrashPlan) -> Self {
        let mut c = CheckpointCoordinator::new();
        c.arm(plan);
        c
    }

    /// Arms (or replaces) the crash plan. Plans are one-shot: after firing
    /// once the coordinator disarms itself so the recovered run survives
    /// the same probe point.
    pub fn arm(&mut self, plan: CrashPlan) {
        self.plan = Some(plan);
    }

    /// Ends the run at a coordinated cut: the engine is torn down right
    /// after `epoch`'s snapshot commits, and [`run_segment`] returns that
    /// snapshot instead of resuming. Armed crash plans keep firing, so a
    /// crash *during* the cut epoch composes with the cut.
    pub fn stop_after(&mut self, epoch: u64) {
        self.stop_after = Some(epoch);
    }

    /// The cut snapshot, when the teardown that just happened was the
    /// [`stop_after`](CheckpointCoordinator::stop_after) cut and not a
    /// crash: the store's newest epoch is then the stop epoch.
    fn cut_snapshot(&self) -> Result<Option<PipelineSnapshot>, EngineError> {
        if self.stop_after.is_some() && self.store.latest_epoch() == self.stop_after {
            self.store.latest()
        } else {
            Ok(None)
        }
    }

    /// Sets how many snapshots [`SnapshotStore`] keeps (0 = unbounded).
    /// Coordinated cluster recovery needs at least 2: a shard that
    /// completed epoch `e` may have to serve `e - 1` when a sibling
    /// crashed during `e`.
    pub fn retain(mut self, n: usize) -> Self {
        self.retain = n;
        self
    }

    /// The snapshot store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Persists an externally produced snapshot — the redistributed state a
    /// rescaled shard resumes from — so recovery treats it exactly like a
    /// checkpoint this coordinator committed itself: a later crash before
    /// any new epoch completes falls back to it rather than to scratch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when the DRAM pool cannot hold the
    /// encoded snapshot.
    pub fn seed(&mut self, env: &MemEnv, snap: &PipelineSnapshot) -> Result<u64, EngineError> {
        let bytes = self.store.persist(env, snap)?;
        self.store.prune_to_last(self.retain);
        Ok(bytes)
    }

    /// Accounting samples, one per committed checkpoint.
    pub fn samples(&self) -> &[CheckpointSample] {
        &self.samples
    }

    /// Outputs committed so far, in emission order.
    pub fn committed(&self) -> &RowLog {
        &self.committed
    }

    /// Outputs emitted since the last committed checkpoint.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Drops pending outputs after a crash: they precede no durable
    /// snapshot and the replayed stream will regenerate them.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Promotes pending outputs to committed, their blocks handed over
    /// rather than copied: at every checkpoint commit
    /// (everything emitted before the barrier is now covered by a durable
    /// snapshot, and a resume replays only post-barrier input) and at the
    /// end of a successful run.
    pub fn commit_pending(&mut self) {
        self.committed.append(&mut self.pending);
    }
}

impl CheckpointHooks for CheckpointCoordinator {
    fn on_checkpoint(
        &mut self,
        env: &MemEnv,
        snap: PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError> {
        let bytes = self.store.persist(env, &snap)?;
        self.store.prune_to_last(self.retain);
        self.commit_pending();
        self.samples.push(CheckpointSample {
            epoch: snap.epoch,
            snapshot_bytes: bytes,
            store_bytes: self.store.total_bytes(),
            dram_used_bytes: env.pool(MemKind::Dram).used_bytes(),
        });
        // Snapshot persistence is a sequential DRAM write; merging it into
        // the round makes checkpoint pressure visible to the bandwidth
        // monitor and the demand balancer.
        let profile = AccessProfile::new().seq(MemKind::Dram, bytes as f64);
        self.metrics.commits.incr();
        self.metrics.snapshot_bytes.add(bytes);
        self.metrics
            .store_bytes
            .set(self.store.total_bytes() as f64);
        self.metrics
            .commit_secs
            .record(env.cost().time_secs(&profile, env.machine().cores));
        Ok(profile)
    }

    fn on_output(&mut self, data: &StreamData) {
        self.pending.push_output(data);
    }

    fn should_crash(&mut self, site: CrashSite) -> bool {
        if self.plan.is_some_and(|plan| plan.fires(site)) {
            self.plan = None;
            return true;
        }
        site.phase == CrashPhase::BarrierCommitted && Some(site.epoch) == self.stop_after
    }
}

/// Outcome of [`run_with_recovery`].
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Report of the final, successful run segment (counters cover the
    /// whole logical run: resumed segments inherit the snapshot's).
    pub report: RunReport,
    /// Number of injected crashes survived.
    pub crashes: u64,
    /// Epoch resumed from after each crash, in order; 0 means no
    /// checkpoint had committed yet and the run restarted from scratch.
    pub resumed_epochs: Vec<u64>,
}

/// How a [`run_segment`] ended.
#[derive(Debug)]
pub enum SegmentEnd {
    /// The stream ended: the report of the final, successful attempt.
    Stream(RunReport),
    /// The coordinator's [`stop_after`](CheckpointCoordinator::stop_after)
    /// epoch committed first: that epoch's snapshot.
    Cut(PipelineSnapshot),
}

/// Outcome of [`run_segment`].
#[derive(Debug)]
pub struct Segment {
    /// How the segment ended.
    pub end: SegmentEnd,
    /// Number of injected crashes survived.
    pub crashes: u64,
    /// Epoch resumed from after each crash, in order (see
    /// [`RecoveryOutcome::resumed_epochs`]).
    pub resumed_epochs: Vec<u64>,
}

/// Safety valve for the recovery loop: give up after this many crashes.
/// Plans are one-shot, so a well-formed harness never gets near it.
pub const MAX_CRASHES: u64 = 64;

/// The recovery loop. Runs a checkpointed pipeline until the stream ends or
/// the coordinator's stop epoch commits, recovering from every injected
/// crash: on [`EngineError::Crashed`] the engine (and with it every
/// RC-pinned bundle and KPA) is dropped, pending outputs are discarded, the
/// crashed attempt's spans and flight-recorder state are cleared, the latest
/// complete snapshot is decoded, and a fresh engine resumes from it —
/// rewinding the deterministic sender to the snapshot's replay offset.
///
/// An empty store starts from `seed` when one is given — persisted first, so
/// a crash before any new epoch commits falls back to it — and from scratch
/// otherwise.
///
/// # Errors
///
/// Returns [`EngineError`] for real failures (allocation, configuration),
/// or the final crash if [`MAX_CRASHES`] is exceeded.
pub fn run_segment<S: Sources>(
    cfg: &RunConfig,
    make_source: impl Fn() -> S,
    make_pipeline: impl Fn() -> Pipeline,
    bundles: usize,
    barrier_interval: u64,
    coord: &mut CheckpointCoordinator,
    seed: Option<&PipelineSnapshot>,
) -> Result<Segment, EngineError> {
    let mut crashes = 0u64;
    let mut resumed_epochs = Vec::new();
    loop {
        let engine = Engine::new(cfg.clone());
        if let (Some(base), true) = (seed, coord.store().is_empty()) {
            coord.seed(engine.env(), base)?;
        }
        let snap = coord.store().latest()?;
        let result = match &snap {
            Some(s) => engine.resume_with_hooks(
                make_source(),
                make_pipeline(),
                bundles,
                Some(barrier_interval),
                coord,
                s,
            ),
            None => engine.run_with_hooks(
                make_source(),
                make_pipeline(),
                bundles,
                Some(barrier_interval),
                coord,
            ),
        };
        let end = match result {
            Ok(report) => {
                coord.commit_pending();
                SegmentEnd::Stream(report)
            }
            Err(crash @ EngineError::Crashed(_)) => {
                // The cut fires right after its epoch commits, so nothing is
                // pending: the commit took every output ahead of the barrier.
                if let Some(snap) = coord.cut_snapshot()? {
                    SegmentEnd::Cut(snap)
                } else if crashes == MAX_CRASHES {
                    return Err(crash);
                } else {
                    crashes += 1;
                    coord.discard_pending();
                    // Drop the crashed attempt's spans so the exported trace
                    // holds exactly one surviving attempt per id range — and
                    // the crashed attempt's flight-recorder state (rings,
                    // detector history, incidents, committed-epoch note) so
                    // only the surviving attempt's evidence is exported.
                    cfg.obs.trace.clear();
                    cfg.obs.recorder.clear();
                    resumed_epochs.push(coord.store().latest_epoch().unwrap_or(0));
                    continue;
                }
            }
            Err(e) => return Err(e),
        };
        return Ok(Segment {
            end,
            crashes,
            resumed_epochs,
        });
    }
}

/// Runs a checkpointed pipeline to completion through [`run_segment`],
/// starting from scratch. With no committed snapshot a crashed run restarts
/// from scratch.
///
/// # Errors
///
/// As [`run_segment`]; also [`EngineError::Config`] when `coord` carries a
/// stop epoch, which ends the run before its report exists.
pub fn run_with_recovery<S: Sources>(
    cfg: &RunConfig,
    make_source: impl Fn() -> S,
    make_pipeline: impl Fn() -> Pipeline,
    bundles: usize,
    barrier_interval: u64,
    coord: &mut CheckpointCoordinator,
) -> Result<RecoveryOutcome, EngineError> {
    let seg = run_segment(
        cfg,
        make_source,
        make_pipeline,
        bundles,
        barrier_interval,
        coord,
        None,
    )?;
    match seg.end {
        SegmentEnd::Stream(report) => Ok(RecoveryOutcome {
            report,
            crashes: seg.crashes,
            resumed_epochs: seg.resumed_epochs,
        }),
        SegmentEnd::Cut(_) => Err(EngineError::Config(
            "the run stopped at a coordinated cut".into(),
        )),
    }
}

/// The newest checkpoint epoch complete on *every* shard — the coordinated
/// cluster checkpoint. `None` if any shard has no complete snapshot yet.
pub fn coordinated_epoch(stores: &[&SnapshotStore]) -> Option<u64> {
    let mut min: Option<u64> = None;
    for s in stores {
        let e = s.latest_epoch()?;
        min = Some(min.map_or(e, |m| m.min(e)));
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_engine::{benchmarks, EngineMode, OpState, StateEntry};
    use sbx_ingress::{KvSource, NicModel, SenderConfig};
    use sbx_simmem::MachineConfig;

    fn sample_snapshot() -> PipelineSnapshot {
        PipelineSnapshot {
            epoch: 3,
            bundles_sent: 17,
            ops: vec![OpState {
                horizon: Some(3_100_000_000),
                cadence: vec![7, 8, 9],
                entries: vec![StateEntry::from_rows(4, 1, 2, 1, vec![10, 11])],
            }],
            ..PipelineSnapshot::default()
        }
    }

    #[test]
    fn store_bytes_are_visible_in_dram_pool_accounting() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let before = env.pool(MemKind::Dram).used_bytes();
        let mut store = SnapshotStore::new();
        let mut snap = sample_snapshot();
        let bytes = store.persist(&env, &snap).unwrap();
        assert!(bytes > 0);
        assert_eq!(
            env.pool(MemKind::Dram).used_bytes(),
            before + bytes,
            "snapshot bytes must be accounted in the DRAM pool"
        );
        assert_eq!(store.total_bytes(), bytes);
        assert_eq!(store.latest().unwrap().unwrap(), snap);

        // A second epoch accumulates; pruning keeps the newest.
        snap.epoch = 4;
        store.persist(&env, &snap).unwrap();
        assert_eq!(store.epochs(), vec![3, 4]);
        store.prune_to_last(1);
        assert_eq!(store.epochs(), vec![4]);
        assert_eq!(store.latest_epoch(), Some(4));
        assert!(store.at_epoch(3).unwrap().is_none());
    }

    #[test]
    fn crash_plans_fire_once() {
        let site = |phase, epoch, bundles_in| CrashSite {
            phase,
            epoch,
            bundles_in,
        };
        let mut c = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(5));
        assert!(!c.should_crash(site(CrashPhase::Ingest, 0, 4)));
        assert!(!c.should_crash(site(CrashPhase::RoundEnd, 0, 9)));
        assert!(c.should_crash(site(CrashPhase::Ingest, 0, 5)));
        // One-shot: the same probe no longer fires.
        assert!(!c.should_crash(site(CrashPhase::Ingest, 0, 6)));

        let mut c = CheckpointCoordinator::with_crash(CrashPlan::AtBarrier {
            epoch: 2,
            phase: CrashPhase::BarrierAligned,
        });
        assert!(!c.should_crash(site(CrashPhase::BarrierAligned, 1, 0)));
        assert!(!c.should_crash(site(CrashPhase::BarrierBeforeCommit, 2, 0)));
        assert!(c.should_crash(site(CrashPhase::BarrierAligned, 2, 0)));
    }

    fn quick_cfg() -> RunConfig {
        RunConfig {
            cores: 16,
            mode: EngineMode::Hybrid,
            sender: SenderConfig {
                bundle_rows: 1_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        }
    }

    #[test]
    fn coordinator_metrics_track_commits() {
        let reg = MetricsRegistry::active();
        let mut coord = CheckpointCoordinator::new().with_metrics(&reg);
        let mk_src = || KvSource::new(7, 50, 100_000).with_value_range(1_000);
        let out = run_with_recovery(
            &quick_cfg(),
            mk_src,
            benchmarks::sum_per_key,
            20,
            3,
            &mut coord,
        )
        .unwrap();
        assert_eq!(out.crashes, 0);
        let dump = reg.snapshot();
        let commits = dump.counter("checkpoint.commits").unwrap();
        assert_eq!(commits as usize, coord.samples().len());
        let total: u64 = coord.samples().iter().map(|s| s.snapshot_bytes).sum();
        assert_eq!(dump.counter("checkpoint.snapshot_bytes"), Some(total));
        let hist = dump.histogram("checkpoint.commit_secs").unwrap();
        assert_eq!(hist.snapshot.count, commits);
        assert!(hist.snapshot.sum > 0.0, "commit latency must be modelled");
        let store = dump.gauge("checkpoint.store_bytes").unwrap();
        assert!(store.max > 0.0);
    }

    #[test]
    fn recovery_emits_exactly_once() {
        let mk_src = || KvSource::new(7, 50, 100_000).with_value_range(1_000);
        // Fault-free oracle.
        let mut oracle = CheckpointCoordinator::new();
        let base = run_with_recovery(
            &quick_cfg(),
            mk_src,
            benchmarks::sum_per_key,
            20,
            3,
            &mut oracle,
        )
        .unwrap();
        assert_eq!(base.crashes, 0);
        assert!(!oracle.committed().is_empty());
        assert!(!oracle.samples().is_empty());

        // Crash mid-stream after a checkpoint has committed.
        let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(11));
        let out = run_with_recovery(
            &quick_cfg(),
            mk_src,
            benchmarks::sum_per_key,
            20,
            3,
            &mut coord,
        )
        .unwrap();
        assert_eq!(out.crashes, 1);
        assert!(out.resumed_epochs[0] > 0, "crash fell after a checkpoint");
        assert_eq!(
            coord.committed(),
            oracle.committed(),
            "committed outputs must be byte-identical to the fault-free run"
        );
        assert_eq!(out.report.records_in, base.report.records_in);
        assert_eq!(out.report.output_records, base.report.output_records);
    }

    #[test]
    fn crash_before_first_checkpoint_restarts_from_scratch() {
        let mk_src = || KvSource::new(9, 20, 100_000);
        let mut oracle = CheckpointCoordinator::new();
        run_with_recovery(
            &quick_cfg(),
            mk_src,
            benchmarks::sum_per_key,
            12,
            50, // interval longer than the run: no checkpoint ever commits
            &mut oracle,
        )
        .unwrap();

        let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(6));
        let out = run_with_recovery(
            &quick_cfg(),
            mk_src,
            benchmarks::sum_per_key,
            12,
            50,
            &mut coord,
        )
        .unwrap();
        assert_eq!(out.crashes, 1);
        assert_eq!(out.resumed_epochs, vec![0]);
        assert_eq!(coord.committed(), oracle.committed());
    }

    #[test]
    fn coordinated_epoch_is_min_over_shards() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut a = SnapshotStore::new();
        let mut b = SnapshotStore::new();
        assert_eq!(coordinated_epoch(&[&a, &b]), None);
        let mut snap = sample_snapshot();
        snap.epoch = 2;
        a.persist(&env, &snap).unwrap();
        assert_eq!(coordinated_epoch(&[&a, &b]), None);
        snap.epoch = 3;
        b.persist(&env, &snap).unwrap();
        assert_eq!(coordinated_epoch(&[&a, &b]), Some(2));
        assert_eq!(coordinated_epoch(&[]), None);
    }
}
