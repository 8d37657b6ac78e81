//! The sharded cluster driver: runs one logical pipeline across N
//! per-shard engines, cuts coordinated epochs, and rescales elastically.
//!
//! # Rescale protocol (DESIGN.md §12)
//!
//! A rescale is a *planned crash* at a coordinated epoch:
//!
//! 1. **Phase 1 — run to the cut.** Every old shard runs with barrier
//!    snapshotting and a coordinator told to stop after the cut epoch
//!    (`CheckpointCoordinator::stop_after`), which tears the engine down
//!    immediately after that epoch's snapshot commits. Routed sources
//!    advance in logical-block lockstep, so the cut covers exactly
//!    `cut * interval * bundle_rows` logical records on every shard.
//!    User-injected crashes compose: a shard that dies mid-phase recovers
//!    through its own checkpoints (discarding pending outputs) and still
//!    stops at the cut.
//! 2. **Shuffle.** The per-shard snapshots at the cut epoch are
//!    redistributed across the new route table ([`crate::shuffle`]), and
//!    the moved bytes are priced over the configured [`LinkModel`].
//! 3. **Phase 2 — resume on the new topology.** Each new shard seeds its
//!    checkpoint store with its redistributed snapshot and resumes from it,
//!    replaying the deterministic sender to the cut offset. Crashes after
//!    the cut recover exactly like ordinary checkpointed runs — falling
//!    back to the seeded snapshot if no newer epoch has committed.
//!
//! Every shard on either side of the cut goes through one function,
//! `ShardedCluster::run_shard`, and through it the one recovery loop,
//! `sbx_checkpoint::run_segment`.
//!
//! Committed outputs are the union of phase-1 and phase-2 committed
//! logs; as a canonical multiset they are byte-identical to a
//! fault-free single-topology run of the same stream.

// sbx-lint: out-of-scope(raw-alloc, cluster driver; per-shard summaries and snapshot lists, not per-record data)
use std::sync::Arc;

use sbx_checkpoint::{run_segment, CheckpointCoordinator, CrashPlan, RowLog, SegmentEnd};
use sbx_engine::{Pipeline, PipelineSnapshot, RunConfig};
use sbx_ingress::{LinkModel, Source};
use sbx_obs::{
    fabric_signals, ClusterTrace, FabricEvent, FlightRecorder, Incident, MetricsRegistry, Obs,
    SpanStream, TraceCollector, FABRIC_SHARD,
};

use crate::route::{merge_slot_counts, RouteTable, SlotStats, DEFAULT_SLOTS};
use crate::shuffle::{redistribute, ShufflePlan};
use crate::source::{KeyMap, RoutedSource};
use crate::ClusterError;

/// Configuration of a sharded cluster run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of shards in the initial topology.
    pub shards: u32,
    /// Number of routing slots (rebalance granularity).
    pub slots: u32,
    /// Raw key column records are routed on.
    pub key_col: usize,
    /// Optional raw-key → routing-key map (e.g. YSB ad → campaign), so
    /// records route by the key the pipeline aggregates on.
    pub key_map: Option<KeyMap>,
    /// Per-shard engine configuration (each shard gets its own machine).
    pub engine: RunConfig,
    /// The inter-node link shuffles are priced over.
    pub link: LinkModel,
    /// Cluster-level metrics sink; per-shard engine registries are folded
    /// in under `cluster.shard<i>.engine.*`. No-op by default.
    pub metrics: MetricsRegistry,
    /// Record per-shard span streams and stitch them (with priced fabric
    /// spans) into [`ClusterRunReport::trace`]. Off by default; implies
    /// the per-shard sequential span-ordering constraint, so cluster runs
    /// that trace should use `engine.threads = 1` for byte-identical
    /// exports.
    pub trace: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            slots: DEFAULT_SLOTS,
            key_col: 0,
            key_map: None,
            engine: RunConfig::default(),
            link: LinkModel::intra_rack_rdma(),
            metrics: MetricsRegistry::noop(),
            trace: false,
        }
    }
}

/// What the cluster rescales *to* at the cut epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Retarget {
    /// Grow or shrink to this many shards (uniform slot deal).
    Shards(u32),
    /// Keep the shard count but move hot slots off overloaded shards until
    /// the hottest carries at most `tolerance` × the mean load (from the
    /// per-slot record counts observed in phase 1).
    Rebalance {
        /// Load tolerance as a multiple of the mean shard load.
        tolerance: f64,
    },
}

/// An elastic rescale: cut a coordinated epoch, retarget, resume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticPlan {
    /// Barrier epoch to cut at (must complete before the stream ends:
    /// `at_epoch * interval < bundles`).
    pub at_epoch: u64,
    /// The new topology.
    pub retarget: Retarget,
}

/// Which side of the rescale cut a fault-injection plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RescalePhase {
    /// While the old topology runs toward the cut (phase 1).
    BeforeCut,
    /// After the new topology resumed from the redistributed state
    /// (phase 2). In a run without a rescale this phase never executes.
    AfterCut,
}

/// A crash injected into one shard of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCrash {
    /// Shard index the plan arms on (old topology for
    /// [`RescalePhase::BeforeCut`], new topology for
    /// [`RescalePhase::AfterCut`]).
    pub shard: u32,
    /// Which phase of an elastic run the plan arms in. Runs without a
    /// rescale arm [`RescalePhase::BeforeCut`] plans only.
    pub phase: RescalePhase,
    /// The crash plan itself.
    pub plan: CrashPlan,
}

/// Per-shard outcome of a cluster run (one topology phase).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index within its topology.
    pub shard: u32,
    /// Records this shard ingested during its phase.
    pub records_in: u64,
    /// Output records this shard externalized during its phase.
    pub output_records: u64,
    /// Rows in this shard's committed output buffer.
    pub committed_rows: usize,
    /// Injected crashes this shard recovered from.
    pub crashes: u64,
    /// Shard-local simulated time at the end of its phase.
    pub sim_secs: f64,
}

/// What the rescale moved and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RescaleSummary {
    /// Coordinated epoch the topology changed at.
    pub at_epoch: u64,
    /// Shards before the cut.
    pub from_shards: u32,
    /// Shards after the cut.
    pub to_shards: u32,
    /// Slots whose owner changed, ascending.
    pub moved_slots: Vec<u32>,
    /// State bytes that crossed inter-node links.
    pub wire_bytes: u64,
    /// State bytes that stayed on their node (free).
    pub local_bytes: u64,
    /// Simulated duration of the shuffle under the link model.
    pub shuffle_ns: u64,
    /// Per-link moved bytes `(src, dst, bytes)`, ascending by `(src, dst)`.
    pub links: Vec<(usize, usize, u64)>,
}

/// Outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Old-topology summaries when the run rescaled (empty otherwise).
    pub phase1: Vec<ShardSummary>,
    /// Final-topology per-shard summaries.
    pub shards: Vec<ShardSummary>,
    /// The rescale, when one happened.
    pub rescale: Option<RescaleSummary>,
    /// Records routed per slot across the whole run (the hot-shard
    /// signal; includes replayed records when crashes were injected).
    pub slot_loads: Vec<u64>,
    /// Total records ingested across all shards (each logical record
    /// counted once).
    pub records_in: u64,
    /// Total output records externalized across all shards.
    pub output_records: u64,
    /// Committed output rows of every shard, phase 1 first, in shard
    /// order. Row order *within* a shard is its emission order; use
    /// [`ClusterRunReport::canonical_outputs`] to compare across
    /// topologies.
    pub committed: RowLog,
    /// Cluster simulated time: the slowest shard's clock (shards run
    /// concurrently; phase-2 clocks include phase 1 and the shuffle).
    pub sim_secs: f64,
    /// The stitched cluster trace, when [`ClusterConfig::trace`] was on:
    /// one span stream per shard per topology era plus priced fabric
    /// spans (barrier-alignment waits and shuffle link transfers), in a
    /// shared id space.
    pub trace: Option<ClusterTrace>,
    /// Incidents captured by the per-shard flight recorders, tagged with
    /// their shard index, phase-1 shards first, in shard order. Always
    /// collected (the recorders are always on); empty on healthy runs.
    /// When [`ClusterConfig::metrics`] is active, the fabric detectors'
    /// verdicts follow as [`FABRIC_SHARD`] incidents.
    pub incidents: Vec<Incident>,
}

impl ClusterRunReport {
    /// The committed outputs as a canonical (sorted) multiset of rows —
    /// the representation that is byte-identical across shard counts and
    /// fault schedules for commutative aggregations.
    pub fn canonical_outputs(&self) -> Vec<&[u64]> {
        let mut rows: Vec<&[u64]> = self.committed.iter().collect();
        rows.sort_unstable();
        rows
    }

    /// Cluster throughput in records per second of simulated time.
    pub fn throughput_rps(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.records_in as f64 / self.sim_secs
        } else {
            0.0
        }
    }

    /// Per-shard record loads of the final topology.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.records_in).collect()
    }
}

/// What the shards of a run leave behind besides their summaries,
/// phase 1 first, in shard order.
#[derive(Default)]
struct Harvest {
    committed: RowLog,
    stats: Vec<Arc<SlotStats>>,
    streams: Vec<SpanStream>,
    incidents: Vec<Incident>,
}

/// The logical run every shard executes its share of.
struct Job<'a, F, G> {
    make_source: &'a F,
    make_pipeline: &'a G,
    bundles: usize,
    interval: u64,
    crash: Option<ClusterCrash>,
}

/// Which part of the run one shard executes.
enum Part<'a> {
    /// The whole stream, on a static topology.
    Whole,
    /// Phase 1 of a rescale: up to the commit of this cut epoch.
    ToCut(u64),
    /// Phase 2 of a rescale: from this redistributed snapshot to the end.
    FromCut(&'a PipelineSnapshot),
}

/// A sharded StreamBox-HBM cluster: N per-shard engines behind a key
/// router, with coordinated checkpoint cuts and elastic rescaling.
pub struct ShardedCluster {
    cfg: ClusterConfig,
}

impl ShardedCluster {
    /// A cluster for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` or `cfg.slots` is zero.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.slots > 0, "need at least one slot");
        ShardedCluster { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Runs `bundles` logical bundles of `make_source`'s stream through
    /// `make_pipeline` on every shard, checkpointing every
    /// `barrier_interval` bundles.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] on engine failure or misconfiguration.
    pub fn run<S: Source>(
        &self,
        make_source: impl Fn() -> S,
        make_pipeline: impl Fn() -> Pipeline,
        bundles: usize,
        barrier_interval: u64,
    ) -> Result<ClusterRunReport, ClusterError> {
        self.run_faulty(
            make_source,
            make_pipeline,
            bundles,
            barrier_interval,
            None,
            None,
        )
    }

    /// Runs with an elastic rescale at `plan.at_epoch`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] on engine failure or misconfiguration.
    pub fn run_elastic<S: Source>(
        &self,
        make_source: impl Fn() -> S,
        make_pipeline: impl Fn() -> Pipeline,
        bundles: usize,
        barrier_interval: u64,
        plan: ElasticPlan,
    ) -> Result<ClusterRunReport, ClusterError> {
        self.run_faulty(
            make_source,
            make_pipeline,
            bundles,
            barrier_interval,
            Some(plan),
            None,
        )
    }

    /// The full-control entry point: optional rescale, optional injected
    /// crash. Exactly-once holds across every combination — committed
    /// outputs match a fault-free single-topology oracle as a canonical
    /// multiset.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Topology`] when the rescale epoch would not
    /// complete before the stream ends, and [`ClusterError::Engine`] for
    /// engine failures.
    pub fn run_faulty<S: Source>(
        &self,
        make_source: impl Fn() -> S,
        make_pipeline: impl Fn() -> Pipeline,
        bundles: usize,
        barrier_interval: u64,
        plan: Option<ElasticPlan>,
        crash: Option<ClusterCrash>,
    ) -> Result<ClusterRunReport, ClusterError> {
        if barrier_interval == 0 {
            return Err(ClusterError::Topology(
                "barrier interval must be positive".into(),
            ));
        }
        if let Some(p) = &plan {
            if p.at_epoch == 0 {
                return Err(ClusterError::Topology("rescale epoch must be >= 1".into()));
            }
            // The cut barrier must be pulled before the stream ends: the
            // barrier for epoch e follows bundle e * interval.
            if p.at_epoch * barrier_interval >= bundles as u64 {
                return Err(ClusterError::Topology(format!(
                    "rescale epoch {} needs more than {} bundles at interval {}",
                    p.at_epoch, bundles, barrier_interval
                )));
            }
            if let Retarget::Shards(n) = p.retarget {
                if n == 0 {
                    return Err(ClusterError::Topology(
                        "cannot rescale to zero shards".into(),
                    ));
                }
            }
        }
        let table = RouteTable::uniform(self.cfg.shards, self.cfg.slots);
        let job = Job {
            make_source: &make_source,
            make_pipeline: &make_pipeline,
            bundles,
            interval: barrier_interval,
            crash,
        };
        let mut report = match plan {
            None => self.run_static(&job, &table)?,
            Some(p) => self.run_rescale(&job, &table, p)?,
        };
        self.export_metrics(&report);
        if self.cfg.metrics.is_enabled() {
            // The fabric detectors read the cluster export once the whole
            // run is in it, and file their verdicts after the shards'.
            for s in fabric_signals(&self.cfg.metrics.snapshot()) {
                report
                    .incidents
                    .push(Incident::from_signal(FABRIC_SHARD, s));
            }
        }
        Ok(report)
    }

    /// A routed shard-local view of the logical stream.
    fn routed<S: Source>(
        &self,
        inner: S,
        table: &RouteTable,
        shard: u32,
        stats: &Arc<SlotStats>,
    ) -> RoutedSource<S> {
        let mut src = RoutedSource::new(inner, self.cfg.key_col, table.clone(), shard)
            .with_stats(Arc::clone(stats));
        if let Some(map) = &self.cfg.key_map {
            src = src.with_key_map(Arc::clone(map));
        }
        src
    }

    /// Runs one shard through one [`Part`] of the job, recovering from
    /// injected crashes, and folds what it leaves into `harvest`: committed
    /// rows, slot counts, metrics (under `cluster.[phase1.]shard<i>.engine.`),
    /// its span stream when tracing, and its flight recorder's incidents,
    /// shard-tagged. A shard stopped at the cut also returns its cut-epoch
    /// snapshot, and its summary reads that snapshot's counters.
    ///
    /// Each shard engine gets its own metrics registry, trace collector and
    /// always-on [`FlightRecorder`].
    fn run_shard<S: Source, F: Fn() -> S, G: Fn() -> Pipeline>(
        &self,
        job: &Job<'_, F, G>,
        table: &RouteTable,
        shard: u32,
        part: Part<'_>,
        harvest: &mut Harvest,
    ) -> Result<(ShardSummary, Option<PipelineSnapshot>), ClusterError> {
        let (phase, cut, seed) = match part {
            Part::Whole => (RescalePhase::BeforeCut, None, None),
            Part::ToCut(cut) => (RescalePhase::BeforeCut, Some(cut), None),
            Part::FromCut(base) => (RescalePhase::AfterCut, None, Some(base)),
        };
        let st = SlotStats::new(self.cfg.slots);
        let reg = if self.cfg.metrics.is_enabled() {
            MetricsRegistry::active()
        } else {
            MetricsRegistry::noop()
        };
        let trace = if self.cfg.trace {
            TraceCollector::active()
        } else {
            TraceCollector::noop()
        };
        let recorder = FlightRecorder::new();
        let mut engine_cfg = self.cfg.engine.clone();
        engine_cfg.obs = Obs {
            metrics: reg.clone(),
            trace: trace.clone(),
            recorder: recorder.clone(),
        };
        let mut coord = CheckpointCoordinator::new();
        if let Some(c) = job.crash.filter(|c| c.shard == shard && c.phase == phase) {
            coord.arm(c.plan);
        }
        if let Some(cut) = cut {
            coord.stop_after(cut);
        }
        let seg = run_segment(
            &engine_cfg,
            || self.routed((job.make_source)(), table, shard, &st),
            job.make_pipeline,
            job.bundles,
            job.interval,
            &mut coord,
            seed,
        )?;

        let era = if cut.is_some() { "phase1." } else { "" };
        self.cfg.metrics.adopt(
            &format!("cluster.{era}shard{shard}.engine."),
            &reg.snapshot(),
        );
        if self.cfg.trace {
            harvest.streams.push(SpanStream {
                shard,
                slot_epoch: u32::from(phase == RescalePhase::AfterCut),
                spans: trace.spans(),
            });
        }
        harvest.incidents.extend(
            recorder
                .incidents()
                .into_iter()
                .map(|i| i.with_shard(shard)),
        );
        harvest.committed.extend(coord.committed());
        harvest.stats.push(st);

        let (records_in, output_records, sim_secs) = match &seg.end {
            SegmentEnd::Stream(r) => (r.records_in, r.output_records, r.sim_secs),
            SegmentEnd::Cut(s) => (s.records_in, s.output_records, s.clock_ns as f64 / 1e9),
        };
        let summary = ShardSummary {
            shard,
            records_in,
            output_records,
            committed_rows: coord.committed().len(),
            crashes: seg.crashes,
            sim_secs,
        };
        match (seg.end, cut) {
            (SegmentEnd::Cut(snap), _) => Ok((summary, Some(snap))),
            (SegmentEnd::Stream(_), None) => Ok((summary, None)),
            (SegmentEnd::Stream(_), Some(cut)) => Err(ClusterError::Topology(format!(
                "stream ended before the cut epoch {cut} was reached"
            ))),
        }
    }

    fn run_static<S: Source, F: Fn() -> S, G: Fn() -> Pipeline>(
        &self,
        job: &Job<'_, F, G>,
        table: &RouteTable,
    ) -> Result<ClusterRunReport, ClusterError> {
        let mut harvest = Harvest::default();
        let mut shards = Vec::new();
        for shard in 0..table.shards() {
            let (summary, _) = self.run_shard(job, table, shard, Part::Whole, &mut harvest)?;
            shards.push(summary);
        }
        Ok(self.report(Vec::new(), shards, None, harvest, &[]))
    }

    /// Assembles the run report from the per-shard summaries and harvest.
    fn report(
        &self,
        phase1: Vec<ShardSummary>,
        shards: Vec<ShardSummary>,
        rescale: Option<RescaleSummary>,
        harvest: Harvest,
        fabric: &[FabricEvent],
    ) -> ClusterRunReport {
        let all = || phase1.iter().chain(&shards);
        ClusterRunReport {
            slot_loads: merge_slot_counts(&harvest.stats),
            records_in: all().map(|s| s.records_in).sum(),
            output_records: all().map(|s| s.output_records).sum(),
            committed: harvest.committed,
            // Shards run concurrently, and phase-2 clocks include phase 1
            // and the shuffle: the slowest final shard is the cluster clock.
            sim_secs: shards.iter().map(|s| s.sim_secs).fold(0.0, f64::max),
            trace: if self.cfg.trace {
                Some(ClusterTrace::stitch(&harvest.streams, fabric))
            } else {
                None
            },
            incidents: harvest.incidents,
            phase1,
            shards,
            rescale,
        }
    }

    fn run_rescale<S: Source, F: Fn() -> S, G: Fn() -> Pipeline>(
        &self,
        job: &Job<'_, F, G>,
        table: &RouteTable,
        plan: ElasticPlan,
    ) -> Result<ClusterRunReport, ClusterError> {
        let cut = plan.at_epoch;

        // ---- Phase 1: every old shard runs to the cut. ----
        let mut harvest = Harvest::default();
        let mut phase1 = Vec::new();
        let mut cut_snaps = Vec::new();
        for shard in 0..table.shards() {
            let (summary, snap) =
                self.run_shard(job, table, shard, Part::ToCut(cut), &mut harvest)?;
            phase1.push(summary);
            cut_snaps.extend(snap);
        }

        // ---- Retarget and shuffle. ----
        let phase1_loads = merge_slot_counts(&harvest.stats);
        let new_table = match plan.retarget {
            Retarget::Shards(n) => table.rescaled_uniform(n),
            Retarget::Rebalance { tolerance } => table.rebalanced(&phase1_loads, tolerance).0,
        };
        let moved_slots: Vec<u32> = (0..self.cfg.slots)
            .filter(|&s| table.owner_of_slot(s) != new_table.owner_of_slot(s))
            .collect();
        let ShufflePlan {
            snapshots,
            traffic,
            shuffle_ns,
        } = redistribute(
            &cut_snaps,
            &new_table,
            &self.cfg.link,
            self.cfg.key_map.as_ref(),
        )?;
        let rescale = RescaleSummary {
            at_epoch: cut,
            from_shards: table.shards(),
            to_shards: new_table.shards(),
            moved_slots,
            wire_bytes: traffic.wire_bytes(),
            local_bytes: traffic.total_bytes() - traffic.wire_bytes(),
            shuffle_ns,
            links: traffic.link_rows(),
        };

        // Fabric spans, priced from the same quantities the rescale
        // charged: each old shard waits from its own cut clock to the
        // cluster-wide cut (straggler alignment), then every link drains
        // its moved bytes in parallel starting at the aligned clock.
        // Phase-2 engines resume at `clock_base + shuffle_ns`, which
        // bounds every link transfer, so all stitched edges stay causal.
        let mut fabric = Vec::new();
        if self.cfg.trace {
            let clock_base = cut_snaps.iter().map(|s| s.clock_ns).max().unwrap_or(0);
            for (shard, snap) in cut_snaps.iter().enumerate() {
                fabric.push(FabricEvent {
                    name: format!("barrier.wait.shard{shard}"),
                    cat: String::from("barrier"),
                    src_shard: shard as u32,
                    dst_shard: shard as u32,
                    epoch: cut,
                    start_ns: snap.clock_ns,
                    dur_ns: clock_base.saturating_sub(snap.clock_ns),
                    bytes: 0,
                });
            }
            for &(src, dst, bytes) in &rescale.links {
                fabric.push(FabricEvent {
                    name: format!("link.{src}->{dst}"),
                    cat: String::from("shuffle"),
                    src_shard: src as u32,
                    dst_shard: dst as u32,
                    epoch: cut,
                    start_ns: clock_base,
                    dur_ns: self.cfg.link.transfer_ns(bytes),
                    bytes,
                });
            }
        }

        // ---- Phase 2: resume every new shard from its redistributed
        // snapshot. ----
        let mut shards = Vec::new();
        for (shard, base) in snapshots.iter().enumerate() {
            let part = Part::FromCut(base);
            let (summary, _) = self.run_shard(job, &new_table, shard as u32, part, &mut harvest)?;
            shards.push(summary);
        }
        Ok(self.report(phase1, shards, Some(rescale), harvest, &fabric))
    }

    /// Exports the cluster-level view of `report` into the configured
    /// metrics registry (deterministic: all values derive from simulated
    /// state). `sbx report` rebuilds its shard and link tables purely from
    /// this export.
    fn export_metrics(&self, report: &ClusterRunReport) {
        let m = &self.cfg.metrics;
        if !m.is_enabled() {
            return;
        }
        m.gauge("cluster.shards").set(report.shards.len() as f64);
        m.gauge("cluster.slots").set(self.cfg.slots as f64);
        m.gauge("cluster.sim_secs").set(report.sim_secs);
        for s in &report.shards {
            let p = format!("cluster.shard{}.", s.shard);
            m.counter(&format!("{p}records_in")).add(s.records_in);
            m.counter(&format!("{p}output_records"))
                .add(s.output_records);
            m.counter(&format!("{p}committed_rows"))
                .add(s.committed_rows as u64);
            m.counter(&format!("{p}crashes")).add(s.crashes);
        }
        for s in &report.phase1 {
            let p = format!("cluster.phase1.shard{}.", s.shard);
            m.counter(&format!("{p}records_in")).add(s.records_in);
            m.counter(&format!("{p}output_records"))
                .add(s.output_records);
        }
        for (slot, load) in report.slot_loads.iter().enumerate() {
            m.counter(&format!("cluster.slot{slot}.records")).add(*load);
        }
        if let Some(r) = &report.rescale {
            m.counter("cluster.rescale.at_epoch").add(r.at_epoch);
            m.counter("cluster.rescale.from_shards")
                .add(u64::from(r.from_shards));
            m.counter("cluster.rescale.to_shards")
                .add(u64::from(r.to_shards));
            m.counter("cluster.rescale.moved_slots")
                .add(r.moved_slots.len() as u64);
            for slot in &r.moved_slots {
                // Markers name the exact slots the retarget moved, so the
                // slot-skew detector can tie its hot-slot verdict to the
                // router's actual decision.
                m.counter(&format!("cluster.rescale.moved.slot{slot}"))
                    .add(1);
            }
            m.counter("cluster.shuffle.wire_bytes").add(r.wire_bytes);
            m.counter("cluster.shuffle.local_bytes").add(r.local_bytes);
            m.counter("cluster.shuffle.ns").add(r.shuffle_ns);
            for (src, dst, bytes) in &r.links {
                m.counter(&format!("cluster.link.{src}.{dst}.bytes"))
                    .add(*bytes);
                m.counter(&format!("cluster.link.{src}.{dst}.ns"))
                    .add(self.cfg.link.transfer_ns(*bytes));
            }
        }
    }
}
