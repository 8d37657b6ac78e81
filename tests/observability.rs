//! End-to-end observability tests (DESIGN.md §10): deterministic
//! simulated-time exports, exact reconstruction of the Figure-10 series
//! from metrics JSONL, span parenting along chain dependencies, engine-wide
//! signal coverage, and the instrumentation-overhead bound.

use streambox_hbm::prelude::*;

/// 10 ms of event time per window at harness scale.
const WINDOW_TICKS: u64 = 10_000_000;

fn cfg_with(obs: Obs) -> RunConfig {
    RunConfig {
        cores: 16,
        sender: SenderConfig {
            bundle_rows: 5_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        obs,
        ..RunConfig::default()
    }
}

fn pipeline() -> Pipeline {
    PipelineBuilder::new(WindowSpec::fixed(WINDOW_TICKS))
        .windowed()
        .keyed_aggregate(Col(0), Col(1), AggKind::Sum)
        .build()
}

fn run_with(obs: Obs) -> RunReport {
    Engine::new(cfg_with(obs))
        .run(KvSource::new(7, 500, 1_000_000), pipeline(), 30)
        .expect("run")
}

/// Acceptance: `RoundPoint::from_series` over the exported JSONL must
/// reproduce the round-series columns of the in-memory `report.samples`
/// exactly — the Figure-10 time series survives export and re-parse
/// bit-for-bit.
#[test]
fn metrics_export_reconstructs_round_samples_exactly() {
    let obs = Obs::metrics_only();
    let report = run_with(obs.clone());
    assert!(!report.samples.is_empty());

    let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("parse");
    let rebuilt = RoundPoint::from_series(&ROUND_VIEW, dump.series(ROUND_SERIES));
    let rows = |ps: &[RoundPoint]| ps.iter().map(|p| p.row(&ROUND_VIEW)).collect::<Vec<_>>();
    assert_eq!(rows(&rebuilt), rows(&report.samples));

    // The whole-run totals in the report come from the same instruments.
    assert_eq!(dump.counter("engine.records_in"), Some(report.records_in));
    assert_eq!(dump.counter("engine.bundles_in"), Some(report.bundles_in));
    assert_eq!(
        dump.counter("engine.windows_closed"),
        Some(report.windows_closed)
    );
    assert_eq!(
        dump.counter("engine.output_records"),
        Some(report.output_records)
    );
    let hbm_bw = dump.gauge("engine.hbm_bw_gbps").expect("gauge");
    assert!((hbm_bw.max - report.peak_hbm_bw_gbps).abs() < 1e-12);
    let delay = dump.histogram("engine.output_delay_secs").expect("hist");
    assert_eq!(delay.snapshot.count, report.windows_closed);
    assert!((delay.snapshot.max - report.max_output_delay_secs).abs() < 1e-12);
}

/// Two identical seeded runs must export byte-identical metrics JSONL,
/// span JSONL, and Chrome traces (tracing pins the serial execution path,
/// and every timestamp is simulated).
#[test]
fn exports_are_byte_identical_across_identical_runs() {
    let (a, b) = (Obs::enabled(), Obs::enabled());
    let ra = run_with(a.clone());
    let rb = run_with(b.clone());
    assert_eq!(ra.records_in, rb.records_in);

    assert_eq!(a.metrics.export_jsonl(), b.metrics.export_jsonl());
    assert_eq!(a.trace.export_jsonl(), b.trace.export_jsonl());
    assert_eq!(a.trace.export_chrome(), b.trace.export_chrome());
    assert!(!a.trace.is_empty());
}

/// Spans parent along chain dependencies: a child's availability time is
/// its parent's start plus duration, ids are allocated in dependency
/// order, and names are the pipeline's operator names.
#[test]
fn spans_parent_along_chain_dependencies() {
    let obs = Obs::enabled();
    let _report = run_with(obs.clone());
    let spans = obs.trace.spans();
    assert!(!spans.is_empty());

    for s in &spans {
        assert!(
            matches!(&*s.name, "Window" | "KeyedAggregate"),
            "{}",
            s.name
        );
        assert!(
            matches!(&*s.cat, "task" | "watermark" | "close"),
            "{}",
            s.cat
        );
        let Some(pid) = s.parent else { continue };
        assert!(pid < s.id, "child {} before parent {pid}", s.id);
        let parent = spans.iter().find(|p| p.id == pid).expect("parent span");
        assert_eq!(
            s.start_ns,
            parent.start_ns + parent.dur_ns,
            "child starts when its parent's simulated work completes"
        );
        // Chains run downstream: the parent sits on the previous lane.
        assert_eq!(s.lane, parent.lane + 1);
    }
}

/// The Chrome export is structurally sound for Perfetto: one complete
/// ("X") event per span inside a `traceEvents` array.
#[test]
fn chrome_trace_is_well_formed() {
    let obs = Obs::enabled();
    let _report = run_with(obs.clone());
    let chrome = obs.trace.export_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":[\n"));
    assert!(chrome.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    let events = chrome.matches("\"ph\":\"X\"").count();
    assert_eq!(events, obs.trace.len());
    assert_eq!(chrome.matches("\"pid\":1").count(), events);
}

/// One registry sees every layer of a run: per-operator counters, simmem
/// pool and bandwidth accounting, and balancer placement decisions.
#[test]
fn engine_pool_and_balancer_metrics_populate() {
    let obs = Obs::metrics_only();
    let report = run_with(obs.clone());
    let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("parse");

    // Per-operator instruments follow the pipeline's operator order.
    assert_eq!(
        dump.counter("op.00.Window.records_in"),
        Some(report.records_in)
    );
    assert!(
        dump.counter("op.01.KeyedAggregate.invocations")
            .unwrap_or(0)
            > 0
    );
    assert!(dump.counter("op.01.KeyedAggregate.sort_bytes").unwrap_or(0) > 0);

    // simmem pools: KPAs land in HBM, record bundles in DRAM.
    assert!(dump.counter("pool.hbm.allocs").unwrap_or(0) > 0);
    assert!(dump.counter("pool.dram.allocs").unwrap_or(0) > 0);
    assert!(dump.counter("bw.dram.total_bytes").unwrap_or(0) > 0);
    assert!(dump.counter("bw.hbm.total_bytes").unwrap_or(0) > 0);

    // The balancer recorded a placement decision per KPA allocation.
    let placed = dump.counter("balancer.placed.hbm").unwrap_or(0)
        + dump.counter("balancer.placed.dram").unwrap_or(0);
    assert!(placed > 0);
}

/// Checkpoint commits report into the same registry as the engine run.
#[test]
fn checkpoint_metrics_share_the_run_registry() {
    let obs = Obs::metrics_only();
    let cfg = RunConfig {
        collect_outputs: true,
        ..cfg_with(obs.clone())
    };
    let mut coord = CheckpointCoordinator::new().with_metrics(&obs.metrics);
    let out = run_with_recovery(
        &cfg,
        || KvSource::new(7, 500, 1_000_000),
        pipeline,
        30,
        5,
        &mut coord,
    )
    .expect("run");

    let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("parse");
    let commits = dump.counter("checkpoint.commits").unwrap_or(0);
    assert_eq!(commits, coord.samples().len() as u64);
    assert!(commits > 0);
    assert!(dump.counter("checkpoint.snapshot_bytes").unwrap_or(0) > 0);
    assert_eq!(
        dump.counter("engine.records_in"),
        Some(out.report.records_in)
    );
}

/// Satellite: instrumentation overhead. The recorders never touch
/// simulated time, so enabled-vs-no-op *simulated* throughput must agree
/// to well under the 3% budget (EXPERIMENTS.md records the host-side
/// cost).
#[test]
fn enabled_instrumentation_stays_within_3_percent_of_noop() {
    let base = run_with(Obs::noop());
    let metered = run_with(Obs::metrics_only());
    assert_eq!(base.records_in, metered.records_in);
    let rel = (base.throughput_rps - metered.throughput_rps).abs() / base.throughput_rps;
    assert!(rel < 0.03, "metrics-on deviates {rel}");

    let traced = run_with(Obs::enabled());
    let rel = (base.throughput_rps - traced.throughput_rps).abs() / base.throughput_rps;
    assert!(rel < 0.03, "tracing-on deviates {rel}");
}
