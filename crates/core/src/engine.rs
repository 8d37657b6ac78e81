// sbx-lint: out-of-scope(raw-alloc, engine control plane; allocations here are per-task and per-window bookkeeping, record data stays in simmem pools)
use sbx_ingress::{IngestFormat, IngressEvent, Sender, SenderConfig, Sources};
use sbx_obs::{Obs, RoundPoint, Span};
use sbx_records::Watermark;
use sbx_simmem::{AccessProfile, MachineConfig, MemEnv, MemKind, MemPool};

use crate::checkpoint::{
    check_counters, check_window_id, CheckpointBarrier, CheckpointHooks, CrashPhase, CrashSite,
    NoopHooks, PipelineSnapshot,
};
use crate::observe::{OpMetrics, RunMetrics};
use crate::pipeline::OpNode;
use crate::{
    DemandBalancer, EngineError, EngineMode, ImpactTag, Message, Pipeline, RunReport, StreamData,
};

/// Configuration of one engine run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The modelled machine. Defaults to the paper's KNL scaled to 1/256
    /// capacity (64 MiB HBM / 384 MiB DRAM) so capacity dynamics are
    /// observable at test scale; figure harnesses pass the full machine.
    pub machine: MachineConfig,
    /// Modelled cores the engine may use (the x-axis of most figures).
    pub cores: u32,
    /// Memory-management mode (the Figure 9 ablation axis).
    pub mode: EngineMode,
    /// Ingestion configuration (bundle size, watermark cadence, NIC).
    pub sender: SenderConfig,
    /// Host lanes: ignored, as every primitive runs on the engine thread
    /// (modelled parallelism comes from `cores`). It stays for the
    /// harnesses that set it.
    pub threads: usize,
    /// Whether to keep sink output bundles in the report.
    pub collect_outputs: bool,
    /// Encoding of records on the ingestion wire (paper §7.4): non-`Raw`
    /// formats are decoded for real per bundle and their parse cost is
    /// charged to the pipeline.
    pub ingest_format: IngestFormat,
    /// Observability sinks (DESIGN.md §10). The default no-op handles cost
    /// nothing; [`sbx_obs::Obs::enabled`] collects per-operator/per-pool
    /// metrics and a span per operator invocation.
    pub obs: Obs,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            machine: MachineConfig::knl().scaled(1.0 / 256.0),
            cores: 64,
            mode: EngineMode::Hybrid,
            sender: SenderConfig::default(),
            threads: 2,
            collect_outputs: false,
            ingest_format: IngestFormat::Raw,
            obs: Obs::noop(),
        }
    }
}

/// Engine-level CPU cycles charged per record per operator invocation:
/// scheduling, work tracking and allocation overheads beyond the raw
/// primitive costs (charged where operators are invoked, `Engine::drive`).
pub const ENGINE_OVERHEAD_CYCLES: f64 = 75.0;

/// Target output delay in seconds (the paper evaluates under 1 s). A round
/// whose window closes take less than 90 % of it leaves the demand balancer
/// headroom to trade HBM capacity for DRAM bandwidth.
pub const TARGET_DELAY_SECS: f64 = 1.0;

#[derive(Debug, Default)]
struct Round {
    profile: AccessProfile,
    close_profile: AccessProfile,
    max_task_secs: f64,
    ingest_ns: u64,
    records: u64,
    closed_windows: u64,
    /// Bytes `[hbm, dram]` held when the round's watermark arrived.
    held_at_watermark: [u64; 2],
}

/// What a pool held this round — the larger of the reading at the watermark
/// and the one at round end — in bytes and as a fraction of capacity.
fn round_usage(pool: &MemPool, at_watermark: u64) -> (f64, f64) {
    let used = at_watermark.max(pool.used_bytes()) as f64;
    let capacity = pool.capacity_bytes() as f64;
    (used, if capacity > 0.0 { used / capacity } else { 1.0 })
}

/// The StreamBox-HBM runtime: pulls bundles from a sender, drives them
/// through the operator pipeline, places KPAs via the demand balancer, and
/// accounts simulated time per watermark round.
///
/// Execution is functionally exact (every record flows through the real
/// primitives); *timing* comes from the calibrated cost model evaluated at
/// the configured core count, with ingestion overlapping computation — see
/// DESIGN.md §6.
#[derive(Debug)]
pub struct Engine {
    cfg: RunConfig,
    env: MemEnv,
    balancer: DemandBalancer,
    /// Id of the next operator invocation's trace span.
    next_task: u64,
    /// Watermark round currently being accumulated (0-based); stamped onto
    /// spans so traces align with the per-round series.
    cur_round: u64,
    /// Checkpoint epoch currently in effect (0 before the first barrier);
    /// stamped onto spans so cluster traces can cut per-epoch chains.
    cur_epoch: u64,
    /// Run-level instruments; always live so report statistics derive from
    /// them (see [`crate::observe`]).
    rm: RunMetrics,
    /// Per-operator instruments in chain order, built per run; inert when
    /// observability is off.
    op_metrics: Vec<OpMetrics>,
}

impl Engine {
    /// An engine for `cfg` with fresh memory pools.
    pub fn new(cfg: RunConfig) -> Self {
        let machine = cfg.machine.with_cores(cfg.cores);
        let env = MemEnv::new_observed(machine, &cfg.obs.metrics);
        let balancer = DemandBalancer::new().with_metrics(&cfg.obs.metrics);
        let rm = RunMetrics::for_run(&cfg.obs.metrics);
        Engine {
            cfg,
            env,
            balancer,
            next_task: 0,
            cur_round: 0,
            cur_epoch: 0,
            rm,
            op_metrics: Vec::new(),
        }
    }

    /// The engine's hybrid-memory environment.
    pub fn env(&self) -> &MemEnv {
        &self.env
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Runs `pipeline` over `bundles` bundles pulled from `sources`: one
    /// source, or a `Vec` of one per input port — `bundles` counts all ports.
    ///
    /// A final watermark flush closes all remaining windows so the report
    /// covers every ingested record.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if memory is exhausted beyond recovery or
    /// the pipeline is misconfigured.
    pub fn run<S: Sources>(
        self,
        sources: S,
        pipeline: Pipeline,
        bundles: usize,
    ) -> Result<RunReport, EngineError> {
        self.run_with_hooks(sources, pipeline, bundles, None, &mut NoopHooks)
    }

    /// Runs like [`Engine::run`], with asynchronous barrier snapshotting:
    /// when `barrier_interval` is `Some(n)`, the sender injects a
    /// checkpoint barrier every `n` bundles per port and `hooks.on_checkpoint`
    /// receives the aligned [`PipelineSnapshot`]. `hooks` also observes
    /// every sink output and may inject crashes (fault-injection harness).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Crashed`] when `hooks.should_crash` fires,
    /// plus the usual memory/configuration errors.
    pub fn run_with_hooks<S: Sources>(
        self,
        sources: S,
        pipeline: Pipeline,
        bundles: usize,
        barrier_interval: Option<u64>,
        hooks: &mut dyn CheckpointHooks,
    ) -> Result<RunReport, EngineError> {
        self.run_or_resume(sources, pipeline, bundles, barrier_interval, hooks, None)
    }

    /// Resumes a crashed run from `snap`: restores every stateful
    /// operator's window state, the demand-balance knob, the simulated
    /// clock and the engine counters, replays the rate-limited sender to
    /// the saved bundle offset (the deterministic sources regenerate the
    /// identical streams, and the one offset positions all of them — see
    /// [`Sender`]), then continues pulling until `bundles` total
    /// bundles — the same target as the original run — have been ingested.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `snap` does not match the
    /// pipeline's stateful operators, and the same errors as
    /// [`Engine::run_with_hooks`] otherwise.
    pub fn resume_with_hooks<S: Sources>(
        self,
        sources: S,
        pipeline: Pipeline,
        bundles: usize,
        barrier_interval: Option<u64>,
        hooks: &mut dyn CheckpointHooks,
        snap: &PipelineSnapshot,
    ) -> Result<RunReport, EngineError> {
        self.run_or_resume(
            sources,
            pipeline,
            bundles,
            barrier_interval,
            hooks,
            Some(snap),
        )
    }

    /// Fires a crash-injection probe; `Err(Crashed)` unwinds the run,
    /// dropping the pipeline and all its RC-pinned bundles.
    fn crash_check(
        &self,
        hooks: &mut dyn CheckpointHooks,
        phase: CrashPhase,
        epoch: u64,
        bundles_in: u64,
    ) -> Result<(), EngineError> {
        let site = CrashSite {
            phase,
            epoch,
            bundles_in,
        };
        if hooks.should_crash(site) {
            return Err(EngineError::Crashed(format!(
                "{phase:?} at epoch {epoch}, bundle {bundles_in}"
            )));
        }
        Ok(())
    }

    /// Externalizes sink-level messages: hands every output to `hooks`,
    /// keeps the bundles when the run collects them, and returns the number
    /// of records emitted.
    fn emit(
        &self,
        sink: impl IntoIterator<Item = Message>,
        hooks: &mut dyn CheckpointHooks,
        outputs: &mut Vec<std::sync::Arc<sbx_records::RecordBundle>>,
    ) -> u64 {
        let mut records = 0;
        for msg in sink {
            if let Message::Data { data, .. } = msg {
                records += data.len() as u64;
                hooks.on_output(&data);
                if self.cfg.collect_outputs {
                    if let StreamData::Bundle(b) = data {
                        outputs.push(b);
                    }
                }
            }
        }
        self.rm.output_records.add(records);
        records
    }

    fn run_or_resume<S: Sources>(
        mut self,
        sources: S,
        mut pipeline: Pipeline,
        bundles: usize,
        barrier_interval: Option<u64>,
        hooks: &mut dyn CheckpointHooks,
        resume: Option<&PipelineSnapshot>,
    ) -> Result<RunReport, EngineError> {
        let mut sender = Sender::new(&self.env, sources, self.cfg.sender);
        if let Some(interval) = barrier_interval {
            sender = sender.with_barriers(interval);
        }
        // Replay the sender to the snapshot's offset: pull and discard
        // events so the sources' deterministic generator state advances
        // exactly as it did before the crash.
        let skip = resume.map_or(0, |s| s.bundles_sent) as usize;
        while sender.bundles_sent() < skip {
            sender.next_event()?;
        }

        let spec = pipeline.spec();
        let stride = spec.stride();
        let cores = self.cfg.cores;
        let cost = self.env.cost().clone();
        let machine = self.env.machine();
        let dram_bw_limit = machine.spec(MemKind::Dram).bandwidth_bytes_per_sec;
        let hbm_bw_limit = machine.spec(MemKind::Hbm).bandwidth_bytes_per_sec;

        self.op_metrics = OpMetrics::for_pipeline(&self.cfg.obs.metrics, &pipeline);

        let mut round = Round::default();
        let mut samples: Vec<RoundPoint> = Vec::new();
        let mut records_in = 0u64;
        let mut bundles_in = 0u64;
        let mut windows_closed = 0u64;
        let mut output_records = 0u64;
        let mut outputs = Vec::new();
        let mut next_to_close = 0u64;
        let mut max_window_seen = 0u64;
        let mut last_watermark = 0u64;
        self.cur_epoch = 0;

        if let Some(snap) = resume {
            check_window_id(&spec, snap.max_window_seen)?;
            check_counters(snap)?;
            records_in = snap.records_in;
            bundles_in = snap.bundles_in;
            windows_closed = snap.windows_closed;
            output_records = snap.output_records;
            // Seed the run counters so exported totals match the report's
            // whole-run view rather than only the post-resume suffix.
            self.rm.records_in.add(snap.records_in);
            self.rm.bundles_in.add(snap.bundles_in);
            self.rm.windows_closed.add(snap.windows_closed);
            self.rm.output_records.add(snap.output_records);
            next_to_close = snap.next_to_close;
            max_window_seen = snap.max_window_seen;
            last_watermark = snap.watermark;
            self.cur_epoch = snap.epoch;
            self.env.clock().advance_to(snap.clock_ns);
            self.balancer.restore(snap.knob);
            // Rebuild every stateful operator's window state from the
            // snapshot, pairing states with operators in pipeline order.
            let mut idx = 0usize;
            for op in pipeline.ops_mut() {
                if let crate::pipeline::OpNode::Stateful(op) = op {
                    let Some(st) = snap.ops.get(idx) else {
                        return Err(EngineError::Config(format!(
                            "snapshot holds {} operator states but the pipeline has more \
                             stateful operators",
                            snap.ops.len()
                        )));
                    };
                    let mut ctx = self.ctx(ImpactTag::Urgent);
                    op.restore(&mut ctx, st)?;
                    round.profile = round.profile.merge(&ctx.take_profile());
                    idx += 1;
                }
            }
            if idx != snap.ops.len() {
                return Err(EngineError::Config(format!(
                    "snapshot holds {} operator states but the pipeline has only {idx} \
                     stateful operators",
                    snap.ops.len()
                )));
            }
        }

        // Bundles buffer within the watermark round and are flushed, in
        // arrival order, at its watermark or barrier.
        let mut batch: Vec<(Message, ImpactTag)> = Vec::new();

        // Cumulative spill count at the previous round boundary, so the tier
        // timeline carries per-round deltas. Sourced from always-on state
        // (the env's atomic counter) rather than a registry counter, so the
        // flight recorder sees the same values whether or not metrics are
        // attached.
        let mut prev_spills = self.env.spill_count();

        loop {
            // Once `bundles` are in, the final flush closes what is open.
            let last = sender.bundles_sent() >= bundles;
            let ev = if last {
                IngressEvent::Watermark(Watermark::from(u64::MAX))
            } else {
                sender.next_event()?
            };
            let mut sink = Vec::new();
            let is_wm = match ev {
                IngressEvent::Bundle(b, wire_ns, port) => {
                    self.crash_check(hooks, CrashPhase::Ingest, self.cur_epoch, bundles_in)?;
                    let fmt = self.cfg.ingest_format;
                    let wire_ns = if fmt == IngestFormat::Raw {
                        wire_ns
                    } else {
                        // Encoded ingestion (paper §7.4): decode every
                        // record for real (round-trip through the codec)
                        // and charge the parse cost plus the fatter wire.
                        let schema = b.schema();
                        let decoded = fmt.round_trip(schema, b.as_rows());
                        assert_eq!(decoded, b.as_rows(), "ingest codec corrupted records");
                        round.profile = round.profile.merge(
                            &AccessProfile::new().cpu(b.rows() as f64 * fmt.cycles_per_record()),
                        );
                        self.cfg
                            .sender
                            .nic
                            .transfer_ns((b.rows() * fmt.wire_bytes_per_record(schema)) as u64)
                    };
                    round.ingest_ns += wire_ns;
                    round.records += b.rows() as u64;
                    records_in += b.rows() as u64;
                    bundles_in += 1;
                    self.rm.records_in.add(b.rows() as u64);
                    self.rm.bundles_in.incr();
                    let wid = if b.is_empty() {
                        next_to_close
                    } else {
                        b.ts(0).raw() / stride
                    };
                    max_window_seen = max_window_seen.max(wid);
                    let tag = ImpactTag::from_window_distance(wid.saturating_sub(next_to_close));
                    batch.push((
                        Message::Data {
                            port,
                            data: StreamData::Bundle(b),
                        },
                        tag,
                    ));
                    false
                }
                IngressEvent::Watermark(wm) => {
                    last_watermark = last_watermark.max(wm.time().raw());
                    sink.extend(self.flush_batch(
                        &mut pipeline,
                        &mut round,
                        std::mem::take(&mut batch),
                    )?);
                    // The crest of the round: every KPA of the round is in
                    // window state and nothing has closed. The round-end
                    // reading alone is the trough.
                    round.held_at_watermark =
                        MemKind::ALL.map(|kind| self.env.pool(kind).used_bytes());
                    sink.extend(self.drive(
                        &mut round,
                        pipeline.ops_mut(),
                        vec![Message::Watermark(wm)],
                        ImpactTag::Urgent,
                        true,
                    )?);
                    let new_next = (wm.time().raw() / stride)
                        .min(max_window_seen + 1)
                        .max(next_to_close);
                    round.closed_windows += new_next - next_to_close;
                    next_to_close = new_next;
                    true
                }
                IngressEvent::Barrier(epoch) => {
                    self.cur_epoch = epoch;
                    self.crash_check(hooks, CrashPhase::BarrierBeforeAlignment, epoch, bundles_in)?;
                    // Barrier alignment: drain every bundle buffered ahead
                    // of the barrier so the snapshot covers a consistent
                    // prefix of the stream.
                    sink.extend(self.flush_batch(
                        &mut pipeline,
                        &mut round,
                        std::mem::take(&mut batch),
                    )?);
                    self.crash_check(hooks, CrashPhase::BarrierAligned, epoch, bundles_in)?;
                    // Drive the barrier through the chain; each stateful
                    // operator materializes its window state onto it.
                    let driven = self.drive(
                        &mut round,
                        pipeline.ops_mut(),
                        vec![Message::Barrier(CheckpointBarrier::new(epoch))],
                        ImpactTag::Urgent,
                        false,
                    )?;
                    let mut states = Vec::new();
                    for m in driven {
                        match m {
                            Message::Barrier(b) => states = b.states,
                            other => sink.push(other),
                        }
                    }
                    // Outputs produced by the alignment flush precede the
                    // snapshot point: count and externalize them *before*
                    // the checkpoint commits, so a resume from this
                    // snapshot neither re-emits nor loses them.
                    output_records += self.emit(sink.drain(..), hooks, &mut outputs);
                    let snap = PipelineSnapshot {
                        epoch,
                        bundles_sent: bundles_in,
                        records_in,
                        bundles_in,
                        output_records,
                        windows_closed,
                        next_to_close,
                        max_window_seen,
                        watermark: last_watermark,
                        clock_ns: self.env.clock().now_ns(),
                        knob: self.balancer.knob(),
                        ops: states,
                    };
                    self.crash_check(hooks, CrashPhase::BarrierBeforeCommit, epoch, bundles_in)?;
                    let prof = hooks.on_checkpoint(&self.env, snap)?;
                    round.profile = round.profile.merge(&prof);
                    self.crash_check(hooks, CrashPhase::BarrierCommitted, epoch, bundles_in)?;
                    // The commit survived both crash points: incidents
                    // captured from here on cite this epoch as their
                    // preceding recovery point.
                    self.cfg.obs.recorder.note_commit(epoch);
                    false
                }
            };

            output_records += self.emit(sink, hooks, &mut outputs);

            if is_wm {
                // End of round: account time, sample resources, update knob.
                let compute_secs = cost
                    .time_secs(&round.profile, cores)
                    .max(round.max_task_secs);
                let ingest_secs = round.ingest_ns as f64 / 1e9;
                let round_secs = compute_secs.max(ingest_secs);
                let start_ns = self.env.clock().now_ns();
                if round_secs > 0.0 {
                    self.env.charge_traffic(&round.profile);
                    self.env.clock().advance((round_secs * 1e9) as u64);
                }
                let close_secs = cost.time_secs(&round.close_profile, cores);
                if round.closed_windows > 0 {
                    // Single source of output-delay statistics: the report's
                    // max/avg derive from this histogram (weighted by the
                    // windows closed this round), and the exported metrics
                    // carry the same distribution.
                    self.rm
                        .output_delay
                        .record_n(close_secs, round.closed_windows);
                    windows_closed += round.closed_windows;
                    self.rm.windows_closed.add(round.closed_windows);
                }
                let dram_bytes = round.profile.bytes_on(MemKind::Dram);
                let hbm_bytes = round.profile.bytes_on(MemKind::Hbm);
                // Traffic flows while computing: when a round is
                // ingestion-bound, extra cores still compress the compute
                // phase and raise peak bandwidth (paper Fig. 7b).
                let (dram_bw, hbm_bw) = if compute_secs > 0.0 {
                    (dram_bytes / compute_secs, hbm_bytes / compute_secs)
                } else {
                    (0.0, 0.0)
                };
                // Both readings are taken between tasks, so they are a
                // function of (seed, config).
                let [hbm_held, dram_held] = round.held_at_watermark;
                let (hbm_used_bytes, hbm_occupancy) =
                    round_usage(self.env.pool(MemKind::Hbm), hbm_held);
                let (dram_used_bytes, dram_occupancy) =
                    round_usage(self.env.pool(MemKind::Dram), dram_held);
                let spills_now = self.env.spill_count();
                // A spill is the definition of full (paper §5): the Normal
                // ceiling turns requests away below 100 % occupancy.
                let hbm_usage = if spills_now > prev_spills {
                    1.0
                } else {
                    hbm_occupancy
                };
                let knob = self.balancer.knob();
                let headroom = close_secs < 0.9 * TARGET_DELAY_SECS;
                let moved = self
                    .balancer
                    .update(hbm_usage, dram_bw / dram_bw_limit, headroom);
                if let Some(mv) = moved {
                    self.rm.note_knob_move(mv);
                }
                // The one per-round record (taken after the balancer update
                // so the round's own knob move is part of its delta); the
                // round and tier series, the report's samples, the flight
                // recorder and incident capture all read it.
                let knob_next = self.balancer.knob();
                let [delay_p50, delay_p95, delay_p99] = self.rm.output_delay.percentiles();
                let point = RoundPoint {
                    round: self.cur_round,
                    epoch: self.cur_epoch,
                    at_secs: self.env.clock().now_secs(),
                    round_secs,
                    close_secs,
                    closed_windows: round.closed_windows as f64,
                    records: round.records as f64,
                    watermark_secs: last_watermark as f64 / 1e9,
                    open_windows: (max_window_seen + 1).saturating_sub(next_to_close) as f64,
                    hbm_occupancy,
                    dram_occupancy,
                    spills: spills_now.saturating_sub(prev_spills) as f64,
                    knob_moves: if moved.is_some() { 1.0 } else { 0.0 },
                    delay_p50,
                    delay_p95,
                    delay_p99,
                    hbm_used_bytes,
                    dram_used_bytes,
                    hbm_bw_gbps: hbm_bw / 1e9,
                    dram_bw_gbps: dram_bw / 1e9,
                    hbm_bw_util: hbm_bw / hbm_bw_limit,
                    dram_bw_util: dram_bw / dram_bw_limit,
                    k_low: knob.k_low,
                    k_high: knob.k_high,
                    k_low_next: knob_next.k_low,
                    k_high_next: knob_next.k_high,
                };
                self.rm.record_round(&point);
                samples.push(point);
                prev_spills = spills_now;
                // Flight recorder (DESIGN.md §15): one synthetic round span
                // and the round's record feed the always-on detectors. The
                // terminal flush round is excluded — its mass window close
                // is the stream ending, not an anomaly — and everything
                // recorded here is simulated-time data at the quiescent
                // boundary.
                if !last {
                    let recorder = self.cfg.obs.recorder.clone();
                    recorder.record_span(Span {
                        id: self.cur_round,
                        parent: None,
                        name: "round".into(),
                        cat: "round".into(),
                        lane: 0,
                        round: self.cur_round,
                        epoch: self.cur_epoch,
                        start_ns,
                        dur_ns: (round_secs * 1e9) as u64,
                        records_in: round.records,
                        records_out: round.closed_windows,
                    });
                    let fired = recorder.on_round(point);
                    for verdict in fired {
                        // Freeze the evidence window around the firing
                        // round: full trace spans when tracing is on, else
                        // the recorder's span ring.
                        let (window, ring_spans) = recorder.freeze();
                        let from_round = window.first().map_or(0, |p| p.round);
                        let spans = if self.cfg.obs.trace.is_enabled() {
                            let mut all = self.cfg.obs.trace.spans();
                            all.retain(|s| s.round >= from_round);
                            all
                        } else {
                            ring_spans
                        };
                        recorder.push_incident(sbx_obs::Incident::capture(
                            verdict,
                            self.cur_epoch,
                            recorder.committed_epoch(),
                            point.at_secs,
                            window,
                            spans,
                            self.rm.tier_window(sbx_obs::recorder::CAPTURE_ROUNDS),
                        ));
                    }
                }
                self.cur_round += 1;
                round = Round::default();
                self.crash_check(hooks, CrashPhase::RoundEnd, self.cur_epoch, bundles_in)?;
            }

            if last {
                break;
            }
        }

        // Leak sweep at engine drop: the final flush closed every window, so
        // once the pipeline (and with it every KPA it still held) is gone,
        // the only bundles legitimately alive are the emitted outputs — any
        // other surviving shadow entry is a pointer-plane leak.
        #[cfg(feature = "sanitize")]
        {
            drop(pipeline);
            let keep: Vec<u64> = outputs.iter().map(|b| b.id().0 as u64).collect();
            let _scope = sbx_sanitize::op_scope(self.next_task, "engine-drop");
            self.env.sanitizer().sweep_leaks(&keep);
        }

        let sim_secs = self.env.clock().now_secs();
        let throughput = if sim_secs > 0.0 {
            records_in as f64 / sim_secs
        } else {
            0.0
        };
        // Final quiescent usage sample: every round boundary already set the
        // gauge, but a run with no completed round would otherwise report
        // zero. Deliberately NOT the allocator's `high_water_bytes`: that
        // mark is taken mid-task.
        self.rm
            .hbm_used
            .set(self.env.pool(MemKind::Hbm).used_bytes() as f64);
        // Peak and delay statistics derive from the run instruments — the
        // same values the metrics export carries.
        self.rm.note_recorder(&self.cfg.obs.recorder);
        let [p50_delay, p95_delay, p99_delay] = self.rm.output_delay.percentiles();
        Ok(RunReport {
            records_in,
            bundles_in,
            windows_closed,
            output_records,
            sim_secs,
            throughput_rps: throughput,
            peak_hbm_bw_gbps: self.rm.hbm_bw.max(),
            peak_dram_bw_gbps: self.rm.dram_bw.max(),
            hbm_peak_used_bytes: self.rm.hbm_used.max() as u64,
            max_output_delay_secs: self.rm.output_delay.max(),
            avg_output_delay_secs: self.rm.output_delay.mean(),
            p50_output_delay_secs: p50_delay,
            p95_output_delay_secs: p95_delay,
            p99_output_delay_secs: p99_delay,
            samples,
            outputs,
        })
    }

    /// A task context placing through the engine's balancer.
    fn ctx(&mut self, tag: ImpactTag) -> crate::OpCtx<'_> {
        let cfg = &self.cfg;
        crate::OpCtx::new(&self.env, &mut self.balancer, cfg.mode, cfg.threads, tag)
    }

    /// Pushes `frontier` through `ops`: every operator is invoked on every
    /// message reaching it, tallied, charged to `round`, accounted on its
    /// instruments and, when the run traces, logged as a span. Returns the
    /// messages leaving the last operator. The one place operators are
    /// invoked from.
    ///
    /// Each operator invocation over data additionally charges
    /// [`ENGINE_OVERHEAD_CYCLES`] per record: scheduling, work tracking and
    /// allocator costs that the raw primitives do not capture. The constant
    /// is calibrated so that YSB saturates 10 GbE with ~5 cores and RDMA
    /// with ~16, and Windowed Average All plateaus near 110 M records/s —
    /// the paper's §7.1/§7.2 operating points.
    fn drive(
        &mut self,
        round: &mut Round,
        ops: &mut [OpNode],
        frontier: Vec<Message>,
        tag: ImpactTag,
        closing: bool,
    ) -> Result<Vec<Message>, EngineError> {
        let tracing = self.cfg.obs.trace.is_enabled();
        // Span timestamps are simulated: children become available when
        // their parent's modelled execution interval ends.
        let base_ns = self.env.clock().now_ns();
        // Frontier entries carry the parent invocation's span id and
        // availability time.
        let mut frontier: Vec<(Message, Option<u64>, u64)> =
            frontier.into_iter().map(|m| (m, None, base_ns)).collect();
        for (op_index, op) in ops.iter_mut().enumerate() {
            let mut next = Vec::new();
            for (m, parent, avail_ns) in frontier {
                let is_data = matches!(&m, Message::Data { .. });
                let records_in = m.data_len() as u64;
                let cat = if closing {
                    "close"
                } else {
                    match &m {
                        Message::Data { .. } => "task",
                        Message::Watermark(_) => "watermark",
                        Message::Barrier(_) => "barrier",
                    }
                };
                // Attribute every shadow-table event inside this operator
                // invocation to its prospective span id (`next_task` is the
                // id the invocation's span gets below when tracing).
                #[cfg(feature = "sanitize")]
                let _scope = sbx_sanitize::op_scope(self.next_task, op.name());
                let mut ctx = self.ctx(tag);
                let outs = match op {
                    OpNode::Stateless(op) => op.apply(&mut ctx, m)?,
                    OpNode::Stateful(op) => op.on_message(&mut ctx, m)?,
                };
                let tally = ctx.exec().take_tally();
                let events = ctx.take_events();
                let task = ctx
                    .take_profile()
                    .cpu(records_in as f64 * ENGINE_OVERHEAD_CYCLES);
                self.rm.note_events(events);
                let task_secs = self.env.cost().time_secs(&task, self.cfg.cores);
                round.max_task_secs = round.max_task_secs.max(task_secs);
                round.profile = round.profile.merge(&task);
                if closing {
                    round.close_profile = round.close_profile.merge(&task);
                }
                let (mut records_out, mut bundles_out) = (0u64, 0u64);
                for o in &outs {
                    if let Message::Data { data, .. } = o {
                        records_out += data.len() as u64;
                        bundles_out += 1;
                    }
                }
                if let Some(om) = self.op_metrics.get(op_index) {
                    om.note(is_data, records_in, records_out, bundles_out, &tally);
                    if closing {
                        om.close_secs.record(task_secs);
                    }
                }
                let dur_ns = (task_secs * 1e9) as u64;
                let id = tracing.then_some(self.next_task);
                if let Some(id) = id {
                    self.next_task += 1;
                    self.cfg.obs.trace.record(Span {
                        id,
                        parent,
                        name: op.name().into(),
                        cat: cat.into(),
                        lane: op_index as u64,
                        round: self.cur_round,
                        epoch: self.cur_epoch,
                        start_ns: avail_ns,
                        dur_ns,
                        records_in,
                        records_out,
                    });
                }
                let child_avail = avail_ns + dur_ns;
                next.extend(outs.into_iter().map(|o| (o, id, child_avail)));
            }
            frontier = next;
        }
        Ok(frontier.into_iter().map(|(m, _, _)| m).collect())
    }

    /// Flushes a round's buffered bundles through the pipeline, one bundle
    /// at a time in arrival order, on the engine thread: every pool
    /// allocation of the round is made here, so which request gets the
    /// last HBM byte is a function of (seed, config), never of the host
    /// schedule.
    fn flush_batch(
        &mut self,
        pipeline: &mut Pipeline,
        round: &mut Round,
        batch: Vec<(Message, ImpactTag)>,
    ) -> Result<Vec<Message>, EngineError> {
        let mut sink = Vec::new();
        for (msg, tag) in batch {
            sink.extend(self.drive(round, pipeline.ops_mut(), vec![msg], tag, false)?);
        }
        Ok(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::benchmarks;
    use sbx_ingress::{KvSource, NicModel, Source};
    use sbx_records::Col;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            cores: 16,
            sender: SenderConfig {
                bundle_rows: 1_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            collect_outputs: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn sum_per_key_end_to_end_matches_oracle() {
        use std::collections::HashMap;
        let cfg = quick_cfg();
        // Mirror the generator to build the oracle.
        let mut oracle_src = KvSource::new(7, 50, 100_000).with_value_range(1_000);
        let mut flat = Vec::new();
        oracle_src.fill(20 * 1_000, &mut flat);
        let mut expect: HashMap<(u64, u64), u64> = HashMap::new();
        for row in flat.chunks(3) {
            let w = row[2] / benchmarks::WINDOW_TICKS;
            *expect.entry((w, row[0])).or_insert(0) += row[1];
        }

        let engine = Engine::new(cfg);
        let source = KvSource::new(7, 50, 100_000).with_value_range(1_000);
        let report = engine.run(source, benchmarks::sum_per_key(), 20).unwrap();

        let mut got: HashMap<(u64, u64), u64> = HashMap::new();
        for b in &report.outputs {
            for r in 0..b.rows() {
                let w = b.value(r, Col(2)) / benchmarks::WINDOW_TICKS;
                *got.entry((w, b.value(r, Col(0)))).or_insert(0) += b.value(r, Col(1));
            }
        }
        assert_eq!(got, expect);
        assert_eq!(report.records_in, 20_000);
        assert!(report.windows_closed > 0);
        assert!(report.sim_secs > 0.0);
    }

    #[test]
    fn final_flush_closes_all_windows() {
        let engine = Engine::new(quick_cfg());
        let source = KvSource::new(1, 10, 1_000_000);
        let report = engine.run(source, benchmarks::avg_all(), 12).unwrap();
        // 12 bundles x 1000 records at 1M rec/s event time ≈ 0.012 s of
        // event time => exactly 1 window, closed by the final flush.
        assert_eq!(report.windows_closed, 1);
        assert_eq!(report.output_records, 1);
    }

    #[test]
    fn slower_nic_caps_throughput() {
        let mut fast_cfg = quick_cfg();
        fast_cfg.sender.nic = NicModel::rdma_40g();
        let mut slow_cfg = quick_cfg();
        slow_cfg.sender.nic = NicModel::ethernet_10g();
        let fast = Engine::new(fast_cfg)
            .run(KvSource::new(3, 100, 10_000_000), benchmarks::avg_all(), 40)
            .unwrap();
        let slow = Engine::new(slow_cfg)
            .run(KvSource::new(3, 100, 10_000_000), benchmarks::avg_all(), 40)
            .unwrap();
        assert!(
            fast.throughput_rps > 1.5 * slow.throughput_rps,
            "fast {} vs slow {}",
            fast.throughput_rps,
            slow.throughput_rps
        );
    }

    #[test]
    fn dram_only_mode_is_slower_at_scale() {
        let mk = |mode: EngineMode| {
            let mut cfg = quick_cfg();
            cfg.mode = mode;
            cfg.cores = 64;
            cfg.sender.bundle_rows = 20_000;
            Engine::new(cfg)
                .run(
                    KvSource::new(5, 1_000, 50_000_000),
                    benchmarks::topk_per_key(3),
                    30,
                )
                .unwrap()
        };
        let hybrid = mk(EngineMode::Hybrid);
        let dram = mk(EngineMode::DramOnly);
        let nokpa = mk(EngineMode::CachingNoKpa);
        assert!(hybrid.throughput_rps > dram.throughput_rps);
        assert!(dram.throughput_rps > nokpa.throughput_rps);
    }

    #[test]
    fn two_stream_join_runs_end_to_end() {
        let engine = Engine::new(quick_cfg());
        let l = KvSource::new(11, 20, 100_000);
        let r = KvSource::new(12, 20, 100_000);
        let report = engine
            .run(vec![l, r], benchmarks::temporal_join(), 20)
            .unwrap();
        assert_eq!(report.bundles_in, 20);
        assert!(report.output_records > 0, "some keys must match");
    }

    #[test]
    fn report_samples_track_rounds() {
        let engine = Engine::new(quick_cfg());
        let report = engine
            .run(
                KvSource::new(2, 10, 1_000_000),
                benchmarks::sum_per_key(),
                15,
            )
            .unwrap();
        // 15 bundles at 5 per watermark => 3 senders watermarks + final flush.
        assert!(report.samples.len() >= 3);
        for s in &report.samples {
            assert!(s.k_low >= 0.0 && s.k_low <= 1.0);
            assert!(s.hbm_occupancy >= 0.0 && s.hbm_occupancy <= 1.0);
        }
    }
}
