//! Profiling-layer tests (DESIGN.md §10): critical-path correctness on a
//! hand-built span DAG, byte-identical critical-path/timeline reports
//! across same-seed runs, delay quantiles in the run report, and the
//! bench-trajectory regression gate catching a deliberately slowed kernel.

use sbx_bench::trajectory::{
    collect, compare, run as run_trajectory, Trajectory, TrajectoryConfig,
};
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

fn rec(id: u64, parent: Option<u64>, lane: u64, round: u64, start: u64, dur: u64) -> Span {
    Span {
        id,
        parent,
        name: format!("Op{lane}").into(),
        cat: "task".into(),
        lane,
        round,
        epoch: 0,
        start_ns: start,
        dur_ns: dur,
        records_in: 1,
        records_out: 1,
    }
}

/// Satellite: critical-path correctness on a hand-built DAG. Three chains
/// across two rounds; the analysis must pick the slowest chain per round
/// and whole-run, and split critical versus slack time per operator.
#[test]
fn critical_path_is_exact_on_a_hand_built_dag() {
    let spans = vec![
        // Round 0, chain A: 0 -> 1 -> 2 (ends at 600).
        rec(0, None, 0, 0, 0, 100),
        rec(1, Some(0), 1, 0, 100, 300),
        rec(2, Some(1), 2, 0, 400, 200),
        // Round 0, chain B: 3 -> 4 (ends at 450; slack).
        rec(3, None, 0, 0, 0, 150),
        rec(4, Some(3), 1, 0, 150, 300),
        // Round 1, chain C: 5 -> 6 (ends at 1900 — the run's critical tip).
        rec(5, None, 0, 1, 1000, 400),
        rec(6, Some(5), 1, 1, 1400, 500),
    ];
    let cp = CriticalPath::compute(&spans);

    // Whole-run chain is round 1's: latest simulated end wins.
    assert_eq!(cp.makespan_ns, 1900);
    assert_eq!(cp.critical_ns, 900);
    assert_eq!(
        cp.steps.iter().map(|s| s.id).collect::<Vec<_>>(),
        vec![5, 6]
    );
    assert_eq!(cp.total_work_ns, 1950);

    // Per-round chains are the longest within each round.
    assert_eq!(cp.per_round.len(), 2);
    assert_eq!(cp.per_round[0].round, 0);
    assert_eq!(cp.per_round[0].critical_ns, 600);
    assert_eq!(cp.per_round[0].steps, 3);
    assert_eq!(cp.per_round[0].end_ns, 600);
    assert_eq!(cp.per_round[1].critical_ns, 900);

    // Operator attribution: lane 1's critical time is span 6 only; the
    // rest of its work (spans 1 and 4) is slack.
    let lane1 = cp.per_operator.iter().find(|o| o.lane == 1).unwrap();
    assert_eq!(lane1.critical_ns, 500);
    assert_eq!(lane1.slack_ns(), 600);
    assert_eq!(lane1.critical_invocations, 1);
    assert_eq!(lane1.invocations, 3);
    let lane2 = cp.per_operator.iter().find(|o| o.lane == 2).unwrap();
    assert_eq!(lane2.critical_ns, 0);
    assert_eq!(lane2.slack_ns(), 200);

    // The render names the chain and never panics on small k.
    let text = cp.render(1, None);
    assert!(text.contains("critical path: 2 steps"));
    assert!(text.contains("00:Op0 @0.001 +0.000 -> 01:Op1 @0.001 +0.001"));
}

/// Acceptance: the critical-path and timeline reports are pure functions
/// of the exported artifacts, so two same-seed runs render byte-identical
/// text and JSONL.
#[test]
fn critical_path_and_timeline_are_byte_identical_across_same_seed_runs() {
    let (a, b) = (Obs::enabled(), Obs::enabled());
    let ra = run_with(a.clone());
    let rb = run_with(b.clone());
    assert_eq!(ra.records_in, rb.records_in);

    let render = |obs: &Obs| {
        let spans = parse_spans_jsonl(&obs.trace.export_jsonl()).expect("spans");
        let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("dump");
        let cp = CriticalPath::compute(&spans).render(5, Some(&dump));
        let tl = Timeline::from_dump(&dump);
        (cp, tl.to_jsonl(), tl.render())
    };
    let (cp_a, tl_jsonl_a, tl_text_a) = render(&a);
    let (cp_b, tl_jsonl_b, tl_text_b) = render(&b);
    assert_eq!(cp_a, cp_b);
    assert_eq!(tl_jsonl_a, tl_jsonl_b);
    assert_eq!(tl_text_a, tl_text_b);
    assert!(cp_a.contains("per-primitive"));
    assert!(!tl_jsonl_a.is_empty());

    // Parsed spans carry the same analysis as the in-memory ones.
    let from_memory = CriticalPath::compute(&a.trace.spans());
    let from_export =
        CriticalPath::compute(&parse_spans_jsonl(&a.trace.export_jsonl()).expect("spans"));
    assert_eq!(from_memory, from_export);
}

/// A single engine is a one-track trace: its spans, in memory or read back
/// through the cluster parser (an absent `shard` reads as 0), give the same
/// analysis. On a checkpointed run the five buckets partition the makespan
/// with a barrier drive on the chain, and the render keeps the one-engine
/// layout, adding only the per-epoch block.
#[test]
fn a_single_engine_is_a_one_track_trace() {
    let obs = Obs::enabled();
    let mut coord = CheckpointCoordinator::new();
    let source = || KvSource::new(7, 10_000, 20_000_000);
    let mut cfg = cfg_with(obs.clone());
    (cfg.cores, cfg.sender.bundles_per_watermark) = (64, 10);
    let sum = benchmarks::sum_per_key;
    run_with_recovery(&cfg, source, sum, 30, 3, &mut coord).expect("run");
    let cp = CriticalPath::compute(&obs.trace.spans());
    let parsed = parse_cluster_spans_jsonl(&obs.trace.export_jsonl()).expect("spans");
    assert_eq!(cp, CriticalPath::compute(&parsed));
    assert_eq!(
        cp.compute_ns + cp.shuffle_ns + cp.barrier_wait_ns + cp.straggler_ns + cp.fabric_ns,
        cp.makespan_ns
    );
    assert!(cp.barrier_wait_ns > 0, "{cp:?}");
    assert_eq!(cp.shuffle_ns + cp.straggler_ns, 0);
    assert_eq!(cp.per_track.len(), 1);
    assert!(cp.per_epoch.len() > 1);
    let text = cp.render(5, None);
    assert!(text.contains("per-epoch") && !text.contains("attribution"));
}

/// The tier timeline reconstructed from the metrics dump aligns with the
/// run's round samples: one point per watermark round, matching simulated
/// timestamps and knob positions, and the span DAG's rounds cover the
/// same range.
#[test]
fn timeline_aligns_with_round_samples_and_span_rounds() {
    let obs = Obs::enabled();
    let report = run_with(obs.clone());
    let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("dump");
    let tl = Timeline::from_dump(&dump);

    assert_eq!(tl.points.len(), report.samples.len());
    assert!(!tl.is_empty());
    for (p, s) in tl.points.iter().zip(report.samples.iter()) {
        assert!((p.at_secs - s.at_secs).abs() < 1e-15);
        assert!((p.hbm_occupancy - s.hbm_occupancy).abs() < 1e-15);
        assert!((p.k_low_next - s.k_low_next).abs() < 1e-15);
        assert!((p.k_high_next - s.k_high_next).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&p.hbm_occupancy));
        assert!(p.hbm_bw_util >= 0.0);
    }
    assert!(tl.peak_hbm_occupancy() > 0.0);

    // Spans' watermark rounds stay within the timeline's rounds.
    let max_round = obs.trace.spans().iter().map(|s| s.round).max().unwrap();
    assert!((max_round as usize) < tl.points.len());

    // The rendering summarises every round.
    let text = tl.render();
    assert!(text.contains(&format!("{} rounds", tl.points.len())));
}

/// Satellite: p50/p95/p99 output-delay quantiles surface in the run
/// report, correctly ordered against the max.
#[test]
fn report_delay_quantiles_are_ordered() {
    let report = run_with(Obs::noop());
    assert!(report.p50_output_delay_secs > 0.0);
    assert!(report.p50_output_delay_secs <= report.p95_output_delay_secs);
    assert!(report.p95_output_delay_secs <= report.p99_output_delay_secs);
    assert!(report.p99_output_delay_secs <= report.max_output_delay_secs);
}

/// Satellites: the bench trajectory is byte-identical across same-seed
/// collections, and the regression gate demonstrably fails when every
/// kernel cost constant is inflated 2× (`cost_scale`).
#[test]
fn trajectory_is_bit_stable_and_catches_a_slowed_kernel() {
    let nominal = TrajectoryConfig::default();
    let t1 = collect(&nominal).expect("collect");
    let t2 = collect(&nominal).expect("collect");
    assert_eq!(
        t1.to_json(),
        t2.to_json(),
        "same-seed trajectory must be byte-identical"
    );
    assert!(compare(&t1, &t2).is_ok());
    assert!(compare(&t1, &t2).render().contains("bit-stable"));

    // Round-trip through the on-disk format is bit-exact.
    assert_eq!(Trajectory::parse_json(&t1.to_json()).expect("parse"), t1);

    // A 2× kernel-cost handicap must trip the gate end-to-end: write the
    // nominal snapshot as BENCH_1.json, then run the handicapped
    // trajectory against it.
    let dir = std::env::temp_dir().join("sbx_profiling_gate_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("BENCH_1.json"), t1.to_json()).expect("seed snapshot");
    let slowed = TrajectoryConfig {
        dir: dir.clone(),
        cost_scale: 2.0,
    };
    let outcome = run_trajectory(&slowed).expect("trajectory run");
    assert_eq!(outcome.compared_to, Some(1));
    assert!(
        !outcome.is_ok(),
        "2x kernel cost must register as a regression"
    );
    let report = outcome.render();
    assert!(report.contains("trajectory gate: FAIL"));
    assert!(
        outcome
            .comparison
            .regressions
            .iter()
            .any(|r| r.contains("ysb_c8.sim_secs") || r.contains("ysb_c8.throughput_mrps")),
        "regressions: {:?}",
        outcome.comparison.regressions
    );
    // The failing snapshot is still persisted for inspection.
    assert!(dir.join("BENCH_2.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
