//! The traced run: (A) engine reps with a span around every call into a
//! layer, (B) a staged replay of the record path one primitive at a time,
//! and (C) the layer measurements that only make sense on one workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sbx_checkpoint::{decode_snapshot, encode_snapshot};
use sbx_cluster::{ClusterConfig, ElasticPlan, Retarget, ShardedCluster};
use sbx_engine::ops::GroupingSpec;
use sbx_engine::{Engine, Pipeline, RunConfig, RunReport};
use sbx_ingress::parse::{json as wire_json, proto as wire_proto, text as wire_text};
use sbx_ingress::{IngestFormat, Source};
use sbx_kpa::sketch::GroupSketch;
use sbx_kpa::{reduce_keyed, ExecCtx, Kpa, WorkerPool};
use sbx_obs::Obs;
use sbx_records::{Col, RecordBundle};
use sbx_simmem::{AccessProfile, MemEnv, MemKind, Priority};

use crate::json::Json;
use crate::metrics::{PARSERS, PER_LAYER, STAGED};
use crate::procfs;
use crate::spans::{self_time_by_name, Span};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::tap::Session;
use crate::workloads::{
    Workload, BARRIER_INTERVAL, BUNDLES_PER_WATERMARK, BUNDLES_PER_WINDOW, BUNDLE_ROWS, CORES,
};
use crate::{Options, Outcome};

/// Share of `--seconds` spent on the alternating untraced/traced engine
/// reps; the rest of a traced run is fixed-size work.
const ENGINE_REP_SHARE: f64 = 0.7;
/// Windows the staged replay covers.
const STAGED_WINDOWS: usize = 10;
/// Bundles of each single-layer engine run (obs modes, grouping backends,
/// thread counts): five windows.
const LAYER_RUN_BUNDLES: usize = 5 * BUNDLES_PER_WINDOW;
/// Logical bundles of the cluster run and the epoch it rescales at (bundle
/// 40, the middle of the second window, so open state has to move).
const CLUSTER_BUNDLES: usize = 100;
const CLUSTER_RESCALE_EPOCH: u64 = 4;

fn ns_per(total_s: f64, n: u64) -> f64 {
    total_s * 1e9 / n.max(1) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs `w` traced and computes every per-layer metric.
pub fn run(w: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let cpu_before = procfs::cpu_times()?;

    let engine_ns = engine_reps(w, opts, &mut out, &mut m)?;
    let staged_ns = staged_replay(w, opts, &mut m)?;
    // What the engine costs beyond (or, with early aggregation or the hash
    // backend, below) generating the records and pushing every one of
    // them through the staged primitives.
    m.insert(
        "engine.residual.host_ns_per_rec",
        engine_ns - staged_ns - m["ingress.gen.host_ns_per_rec"],
    );
    parsers(w, opts, &mut m);
    obs_overhead(w, opts, &mut m)?;
    grouping_backends(w, opts, &mut m)?;
    thread_scaling(w, opts, &mut m)?;
    cluster(w, opts, &mut m)?;
    m.insert("simmem.alloc_free.host_ns_per_op", alloc_free(w));

    let cpu = procfs::cpu_times()?;
    m.insert(
        "bench.cpu_sys_share",
        ratio(
            cpu.sys_s - cpu_before.sys_s,
            cpu.total_s() - cpu_before.total_s(),
        ),
    );
    m.insert("bench.failed_share", out.failed_share());

    for metric in PER_LAYER {
        // A layer measurement that does not apply to this workload reads 0.
        out.metric(metric.name, m.remove(metric.name).unwrap_or(0.0));
    }
    if let Some(stray) = m.keys().next() {
        return Err(format!("{stray} is not in the metric dictionary"));
    }
    Ok(out)
}

/// (A) Alternating untraced and traced engine reps; everything the spans
/// and the engine's report show. Returns the traced wall per record, ns.
fn engine_reps(
    w: &'static Workload,
    opts: &Options,
    out: &mut Outcome,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let mut session = Session::new(w, opts.seed, opts.corrupt_oracle);
    out.count(&session.verify_rep());

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut commit_ms, mut align_ms, mut close_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while traced_s.len() < opts.min_reps().min(2)
        || start.elapsed().as_secs_f64() < opts.seconds * ENGINE_REP_SHARE
    {
        session.set_tracing(false);
        let mut plain = session.timed_rep();
        out.count(&plain);
        plain_s.push(plain.wall_s);
        close_ms.append(&mut plain.close_ms);

        session.set_tracing(true);
        let mut traced = session.timed_rep();
        out.count(&traced);
        traced_s.push(traced.wall_s);
        close_ms.append(&mut traced.close_ms);
        commit_ms.append(&mut traced.commit_ms);
        align_ms.append(&mut traced.align_ms);
        if let Err(e) = &traced.report {
            out.fail(format!("traced rep: engine error: {e}"));
        }
        last = Some(traced);
    }
    let last = last.expect("at least one traced rep");
    m.insert(
        "bench.trace_overhead_pct",
        (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
    );

    let trace_file = opts.out_dir.join(format!("{}.trace.jsonl", w.name));
    let (by_name, gaps_ms) = session.with_spans(|log| {
        std::fs::write(&trace_file, log.to_jsonl())
            .map_err(|e| format!("write {trace_file:?}: {e}"))?;
        Ok::<_, String>((self_time_by_name(log.spans()), round_gaps_ms(log.spans())))
    })?;

    let records = (traced_s.len() * w.rep_bundles * BUNDLE_ROWS) as u64;
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let root_s: f64 = traced_s.iter().sum();
    let accounted: f64 = by_name.values().map(|&ns| ns as f64 / 1e9).sum();
    if (accounted / root_s - 1.0).abs() > 0.01 {
        out.fail(format!(
            "span self-times sum to {accounted} s, root spans to {root_s} s"
        ));
    }
    m.insert(
        "ingress.gen.host_ns_per_rec",
        ns_per(self_s("ingress.gen"), records),
    );
    m.insert("ingress.gen.share", self_s("ingress.gen") / root_s);
    m.insert(
        "engine.self.host_ns_per_rec",
        ns_per(self_s("engine.run"), records),
    );
    m.insert("engine.self.share", self_s("engine.run") / root_s);
    m.insert("sink.emit.share", self_s("sink.emit") / root_s);
    m.insert(
        "checkpoint.commit.share",
        self_s("checkpoint.commit") / root_s,
    );
    // The tail of close latency is a per-layer metric because it cannot be
    // held to a bound on the reference box (README, "Calibration").
    if !close_ms.is_empty() {
        m.insert("engine.close_ms_p90", percentile(&close_ms, 90));
        out.detail
            .push(("close_ms_samples".into(), Json::Num(close_ms.len() as f64)));
        if highest_supported_percentile(close_ms.len()).is_none_or(|p| p < 90) {
            out.note(format!(
                "engine.close_ms_p90: fewer than ten of {} samples lie beyond it",
                close_ms.len()
            ));
        }
    }
    if !gaps_ms.is_empty() {
        m.insert("engine.round_gap_ms_p50", percentile(&gaps_ms, 50));
        m.insert("engine.round_gap_ms_p90", percentile(&gaps_ms, 90));
    }

    if let Ok(report) = &last.report {
        m.insert("engine.records_in", report.records_in as f64);
        m.insert("engine.windows_closed", report.windows_closed as f64);
        m.insert("engine.output_records", report.output_records as f64);
        m.insert(
            "simmem.hbm_peak_mib",
            report.hbm_peak_used_bytes as f64 / (1 << 20) as f64,
        );
        m.insert("simmem.hbm_bw_peak_gbps", report.peak_hbm_bw_gbps);
        m.insert("simmem.dram_bw_peak_gbps", report.peak_dram_bw_gbps);
        m.insert("simmem.spills", last.spills as f64);
        // The knob is only visible from outside as its per-round samples.
        let moves = report
            .samples
            .windows(2)
            .filter(|s| (s[0].k_low, s[0].k_high) != (s[1].k_low, s[1].k_high))
            .count();
        m.insert("simmem.knob_moves", moves as f64);
    }

    if let Some(coordinator) = &last.coordinator {
        m.insert("checkpoint.commit_ms_p50", median(&commit_ms));
        m.insert("checkpoint.align_ms_p50", median(&align_ms));
        let samples = coordinator.samples();
        let bytes: u64 = samples.iter().map(|s| s.snapshot_bytes).sum();
        m.insert(
            "checkpoint.snapshot_kib_per_epoch",
            bytes as f64 / 1024.0 / samples.len().max(1) as f64,
        );
        let snap = coordinator
            .store()
            .latest()
            .map_err(|e| format!("decode latest snapshot: {e}"))?
            .ok_or("the checkpointed workload committed no snapshot")?;
        let (mut enc_s, mut dec_s, mut kib) = (0.0, 0.0, 0.0);
        for _ in 0..20 {
            let t = Instant::now();
            let words = black_box(encode_snapshot(black_box(&snap)));
            enc_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = decode_snapshot(black_box(&words)).map_err(|e| format!("decode: {e}"))?;
            dec_s += t.elapsed().as_secs_f64();
            if back != snap {
                out.fail("snapshot did not survive encode/decode".into());
            }
            kib += words.len() as f64 * 8.0 / 1024.0;
        }
        m.insert("checkpoint.encode.host_ns_per_kib", enc_s * 1e9 / kib);
        m.insert("checkpoint.decode.host_ns_per_kib", dec_s * 1e9 / kib);
    }
    Ok(ns_per(root_s, records))
}

/// The stall ingestion sees at each watermark round: from the end of the
/// round's last fill to the start of the next round's first fill.
fn round_gaps_ms(spans: &[Span]) -> Vec<f64> {
    let mut fills: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "ingress.gen") {
        fills.entry(s.rep).or_default().push(s);
    }
    let mut gaps = Vec::new();
    for rep in fills.values() {
        for pair in rep
            .chunks(BUNDLES_PER_WATERMARK)
            .collect::<Vec<_>>()
            .windows(2)
        {
            let (last, next) = (pair[0][pair[0].len() - 1], pair[1][0]);
            gaps.push(next.start_ns.saturating_sub(last.end_ns) as f64 / 1e6);
        }
    }
    gaps
}

/// Accumulated cost of one primitive over the staged replay.
#[derive(Default)]
struct Stage {
    host_s: f64,
    sim_s: f64,
    bytes: f64,
    records: u64,
}

impl Stage {
    fn add(&mut self, host_s: f64, profile: &AccessProfile, env: &MemEnv, records: usize) {
        self.host_s += host_s;
        self.sim_s += env.cost().time_secs(profile, CORES);
        self.bytes += profile.bytes_on(MemKind::Hbm) + profile.bytes_on(MemKind::Dram);
        self.records += records as u64;
    }

    fn host_ns(&self) -> f64 {
        ns_per(self.host_s, self.records)
    }
}

/// (B) Replays the record path of the seed's first windows by calling each
/// primitive directly and taking the `ExecCtx` profile after every call,
/// so each primitive's host time, simulated time and bytes moved can be
/// told apart. Returns the summed host ns/record of the six staged
/// primitives.
fn staged_replay(
    w: &'static Workload,
    opts: &Options,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let env = MemEnv::new(w.run_config().machine.with_cores(CORES));
    let (key_col, value_col) = w.key_value_cols();
    let mut source = w.source(opts.seed);
    let schema = source.schema();
    let pool2 = WorkerPool::new(2);
    let alloc = |e| format!("staged replay: {e}");
    let windows = if opts.quick { 2 } else { STAGED_WINDOWS };

    let [mut build, mut extract, mut sort, mut merge, mut reduce, mut materialize] =
        std::array::from_fn(|_| Stage::default());
    let (mut sort2_s, mut sketch_s, mut per_bundle_records) = (0.0, 0.0, 0u64);
    let mut rows = Vec::new();
    for _ in 0..windows {
        let mut kpas = Vec::new();
        for _ in 0..BUNDLES_PER_WINDOW {
            rows.clear();
            source.fill(BUNDLE_ROWS, &mut rows);

            let t = Instant::now();
            let bundle =
                RecordBundle::from_rows(&env, Arc::clone(&schema), &rows).map_err(alloc)?;
            // The engine charges nothing for bundle build (the modelled NIC
            // delivers into pre-allocated buffers); price the one
            // sequential DRAM write the host does.
            let written = AccessProfile::new().seq(MemKind::Dram, bundle.bytes() as f64);
            build.add(t.elapsed().as_secs_f64(), &written, &env, BUNDLE_ROWS);

            let mut ctx = ExecCtx::new(&env);
            let t = Instant::now();
            let mut kpa = Kpa::extract(&mut ctx, &bundle, key_col, MemKind::Hbm, Priority::Normal)
                .map_err(alloc)?;
            extract.add(
                t.elapsed().as_secs_f64(),
                &ctx.take_profile(),
                &env,
                kpa.len(),
            );

            let t = Instant::now();
            let mut sketch = GroupSketch::new();
            sketch.observe_all(kpa.keys());
            black_box(sketch.distinct_estimate());
            sketch_s += t.elapsed().as_secs_f64();

            // The same pairs again, sorted on a two-lane worker pool.
            let mut ctx2 = ExecCtx::with_pool(&env, pool2.clone());
            let mut twin =
                Kpa::extract(&mut ctx2, &bundle, key_col, MemKind::Hbm, Priority::Normal)
                    .map_err(alloc)?;
            let t = Instant::now();
            twin.sort(&mut ctx2, 2).map_err(alloc)?;
            sort2_s += t.elapsed().as_secs_f64();
            drop(twin);

            let t = Instant::now();
            kpa.sort(&mut ctx, 1).map_err(alloc)?;
            sort.add(
                t.elapsed().as_secs_f64(),
                &ctx.take_profile(),
                &env,
                kpa.len(),
            );
            per_bundle_records += kpa.len() as u64;
            kpas.push(kpa);
        }

        let mut ctx = ExecCtx::new(&env);
        let t = Instant::now();
        let merged =
            Kpa::merge_many(&mut ctx, kpas, MemKind::Hbm, Priority::Normal).map_err(alloc)?;
        merge.add(
            t.elapsed().as_secs_f64(),
            &ctx.take_profile(),
            &env,
            merged.len(),
        );

        let t = Instant::now();
        let mut folded = 0u64;
        let groups = reduce_keyed(&mut ctx, &merged, value_col, |g| {
            folded = g
                .values
                .iter()
                .fold(folded ^ g.key, |a, &v| a.wrapping_add(v));
        });
        black_box((groups, folded));
        reduce.add(
            t.elapsed().as_secs_f64(),
            &ctx.take_profile(),
            &env,
            merged.len(),
        );

        let t = Instant::now();
        let copy = merged.materialize(&mut ctx).map_err(alloc)?;
        materialize.add(
            t.elapsed().as_secs_f64(),
            &ctx.take_profile(),
            &env,
            copy.rows(),
        );
    }

    // Same order as `STAGED`.
    let stages = [&build, &extract, &sort, &merge, &reduce, &materialize];
    let mut total_ns = 0.0;
    for (stage, prim) in stages.into_iter().zip(STAGED) {
        let [host, sim, bytes, over] = columns(
            prim,
            [
                "host_ns_per_rec",
                "sim_ns_per_rec",
                "bytes_per_rec",
                "host_over_sim",
            ],
        );
        total_ns += stage.host_ns();
        m.insert(host, stage.host_ns());
        m.insert(sim, ns_per(stage.sim_s, stage.records));
        m.insert(bytes, stage.bytes / stage.records.max(1) as f64);
        m.insert(over, ratio(stage.host_s, stage.sim_s));
    }
    m.insert(
        "kpa.sketch.host_ns_per_rec",
        ns_per(sketch_s, per_bundle_records),
    );
    m.insert(
        "kpa.sort_t2.host_ns_per_rec",
        ns_per(sort2_s, per_bundle_records),
    );
    m.insert("pool.sort_speedup_t2", ratio(sort.host_s, sort2_s));
    Ok(total_ns)
}

/// The dictionary's names for `columns` of layer primitive `prim`.
fn columns<const N: usize>(prim: &str, columns: [&str; N]) -> [&'static str; N] {
    columns.map(|col| {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix(prim).and_then(|r| r.strip_prefix('.')) == Some(col))
            .expect("the dictionary holds every column of every staged primitive and parser")
    })
}

/// Decode cost of the three wire formats on YSB rows, against the cycles
/// the cost model charges per record. No end-to-end workload decodes.
fn parsers(w: &Workload, opts: &Options, m: &mut BTreeMap<&'static str, f64>) {
    if !w.is_ysb() {
        return;
    }
    let records = if opts.quick {
        BUNDLE_ROWS
    } else {
        10 * BUNDLE_ROWS
    };
    let env = MemEnv::new(w.run_config().machine.with_cores(CORES));
    let mut source = w.source(opts.seed);
    let schema = source.schema();
    let ncols = schema.ncols();
    let names: Vec<&str> = (0..ncols).map(|c| schema.name(Col(c))).collect();
    let mut rows = Vec::new();
    source.fill(records, &mut rows);

    let sim_s = |format: IngestFormat| {
        let charged = AccessProfile::new().cpu(records as f64 * format.cycles_per_record());
        env.cost().time_secs(&charged, CORES)
    };
    let mut decoded = Vec::with_capacity(rows.len());
    let mut time = |encoded: &[Vec<u8>], parse: &dyn Fn(&[u8], &mut Vec<u64>) -> bool| {
        decoded.clear();
        let t = Instant::now();
        let ok = encoded.iter().all(|rec| parse(rec, &mut decoded));
        let host_s = t.elapsed().as_secs_f64();
        assert!(ok && decoded == rows, "a wire codec did not round-trip");
        host_s
    };

    type Parse<'a> = &'a dyn Fn(&[u8], &mut Vec<u64>) -> bool;
    // Same order as `PARSERS`.
    let formats: [(IngestFormat, Vec<Vec<u8>>, Parse<'_>); 3] = [
        (
            IngestFormat::Json,
            rows.chunks(ncols)
                .map(|r| wire_json::encode(r, &names).into_bytes())
                .collect(),
            &|b, out| wire_json::parse(b, out).is_ok(),
        ),
        (
            IngestFormat::Proto,
            rows.chunks(ncols).map(wire_proto::encode).collect(),
            &|b, out| wire_proto::parse(b, ncols, out).is_ok(),
        ),
        (
            IngestFormat::Text,
            rows.chunks(ncols)
                .map(|r| wire_text::encode(r).into_bytes())
                .collect(),
            &|b, out| wire_text::parse(b, out).is_ok(),
        ),
    ];
    for ((format, encoded, parse), prim) in formats.into_iter().zip(PARSERS) {
        let host_s = time(&encoded, parse);
        let [host, over] = columns(prim, ["host_ns_per_rec", "host_over_sim"]);
        m.insert(host, ns_per(host_s, records as u64));
        m.insert(over, ratio(host_s, sim_s(format)));
    }
}

/// One plain engine run (no wrappers) of `bundles` bundles; wall seconds
/// and the report.
fn plain_run(
    w: &Workload,
    opts: &Options,
    cfg: RunConfig,
    pipeline: Pipeline,
) -> Result<(f64, RunReport), String> {
    let bundles = if opts.quick {
        BUNDLES_PER_WINDOW
    } else {
        LAYER_RUN_BUNDLES
    };
    let engine = Engine::new(cfg);
    let t = Instant::now();
    let report = engine
        .run(w.source(opts.seed), pipeline, bundles)
        .map_err(|e| format!("layer run: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), report))
}

/// Fastest of a few [`plain_run`]s, as ns per record.
fn best_ns_per_rec(
    w: &Workload,
    opts: &Options,
    cfg: impl Fn() -> RunConfig,
    pipeline: impl Fn() -> Pipeline,
) -> Result<f64, String> {
    let tries = if opts.quick { 1 } else { 2 };
    let mut best = f64::INFINITY;
    for _ in 0..tries {
        let (wall_s, report) = plain_run(w, opts, cfg(), pipeline())?;
        best = best.min(ns_per(wall_s, report.records_in));
    }
    Ok(best)
}

/// What metrics and span tracing cost YSB, against the no-op handles.
fn obs_overhead(
    w: &Workload,
    opts: &Options,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    if !w.is_ysb() {
        return Ok(());
    }
    let with = |obs: fn() -> Obs| {
        best_ns_per_rec(
            w,
            opts,
            || RunConfig {
                obs: obs(),
                ..w.run_config()
            },
            || w.pipeline(),
        )
    };
    let noop = with(Obs::noop)?;
    m.insert(
        "obs.metrics.overhead_pct",
        (with(Obs::metrics_only)? / noop - 1.0) * 100.0,
    );
    m.insert(
        "obs.trace.overhead_pct",
        (with(Obs::enabled)? / noop - 1.0) * 100.0,
    );
    Ok(())
}

/// The same input under the three grouping specs.
fn grouping_backends(
    w: &Workload,
    opts: &Options,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    if w.sum_pipeline_grouped(GroupingSpec::SortMerge).is_none() {
        return Ok(());
    }
    let with = |spec| {
        best_ns_per_rec(
            w,
            opts,
            || w.run_config(),
            || w.sum_pipeline_grouped(spec).expect("checked above"),
        )
    };
    let (sort, hash, adaptive) = (
        with(GroupingSpec::SortMerge)?,
        with(GroupingSpec::Hash)?,
        with(GroupingSpec::Adaptive)?,
    );
    m.insert("engine.grouping_sort.host_ns_per_rec", sort);
    m.insert("engine.grouping_hash.host_ns_per_rec", hash);
    m.insert("engine.grouping_adaptive.host_ns_per_rec", adaptive);
    m.insert(
        "engine.grouping.adaptive_over_best",
        adaptive / sort.min(hash),
    );
    Ok(())
}

/// The workload on one and on two host threads.
fn thread_scaling(
    w: &Workload,
    opts: &Options,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    if !w.scales_threads() {
        return Ok(());
    }
    let on = |threads| {
        best_ns_per_rec(
            w,
            opts,
            || RunConfig {
                threads,
                ..w.run_config()
            },
            || w.pipeline(),
        )
        .map(|ns| 1e3 / ns)
    };
    m.insert("engine.run_t1.host_mrec_per_s", on(1)?);
    m.insert("engine.run_t2.host_mrec_per_s", on(2)?);
    Ok(())
}

/// One short elastic cluster run (2 → 4 shards) of the workload.
fn cluster(
    w: &'static Workload,
    opts: &Options,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (key_col, key_map) = w.routing();
    let cfg = ClusterConfig {
        shards: 2,
        key_col,
        key_map,
        engine: w.run_config(),
        ..ClusterConfig::default()
    };
    let t = Instant::now();
    let report = ShardedCluster::new(cfg)
        .run_elastic(
            || w.source(opts.seed),
            || w.pipeline(),
            CLUSTER_BUNDLES,
            BARRIER_INTERVAL,
            ElasticPlan {
                at_epoch: CLUSTER_RESCALE_EPOCH,
                retarget: Retarget::Shards(4),
            },
        )
        .map_err(|e| format!("cluster run: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    m.insert(
        "cluster.run.host_ns_per_rec",
        ns_per(wall_s, report.records_in),
    );
    m.insert("cluster.sim_mrec_per_s", report.throughput_rps() / 1e6);
    m.insert(
        "cluster.shuffle_wire_kib",
        report
            .rescale
            .as_ref()
            .map_or(0.0, |r| r.wire_bytes as f64 / 1024.0),
    );
    let loads = report.shard_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    m.insert(
        "cluster.load_max_over_mean",
        ratio(loads.iter().copied().max().unwrap_or(0) as f64, mean),
    );
    Ok(())
}

/// Cost of one bundle-sized allocation and release on the HBM pool.
fn alloc_free(w: &Workload) -> f64 {
    const OPS: u64 = 200_000;
    let env = MemEnv::new(w.run_config().machine.with_cores(CORES));
    let t = Instant::now();
    for _ in 0..OPS {
        let buf = env
            .pool(MemKind::Hbm)
            .alloc_u64(BUNDLE_ROWS, Priority::Normal);
        black_box(buf.is_ok());
    }
    ns_per(t.elapsed().as_secs_f64(), OPS)
}
