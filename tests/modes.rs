//! Engine-mode invariants: the Figure-9 ablation modes and the Figure-7 row
//! engine change *where data lives and what it costs*, never *what is
//! computed*. Every mode must produce bit-identical results; only the
//! simulated timing and memory placement may differ.

use std::collections::BTreeMap;

use streambox_hbm::prelude::*;

fn run_mode(mode: EngineMode) -> (BTreeMap<(u64, u64), u64>, RunReport) {
    let cfg = RunConfig {
        cores: 32,
        mode,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(
            KvSource::new(99, 500, 200_000).with_value_range(10_000),
            benchmarks::topk_per_key(3),
            20,
        )
        .expect("run");
    let mut digest = BTreeMap::new();
    for b in &report.outputs {
        for r in 0..b.rows() {
            *digest
                .entry((b.value(r, Col(2)), b.value(r, Col(0))))
                .or_insert(0u64) ^= b.value(r, Col(1)).rotate_left((r % 63) as u32);
        }
    }
    (digest, report)
}

#[test]
fn all_modes_compute_identical_results() {
    let (hybrid, _) = run_mode(EngineMode::Hybrid);
    for mode in [
        EngineMode::CachingKpa,
        EngineMode::DramOnly,
        EngineMode::CachingNoKpa,
        EngineMode::Row,
    ] {
        let (digest, _) = run_mode(mode);
        assert_eq!(digest, hybrid, "{mode} diverged from Hybrid");
    }
}

/// Runs `pipeline` over `bundles` 2 000-row bundles under `mode`, with
/// metrics on; returns the output rows in emission order, the report, and
/// how many windows grouped in the row engine's table and in sorted KPAs.
fn run_rows<S: Source>(
    mode: EngineMode,
    source: S,
    pipeline: Pipeline,
    bundles: usize,
) -> (Vec<u64>, RunReport, [u64; 2]) {
    let obs = Obs::metrics_only();
    let cfg = RunConfig {
        cores: 16,
        mode,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::ethernet_10g(),
        },
        obs: obs.clone(),
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(source, pipeline, bundles)
        .expect("run");
    let rows = report.outputs.iter().flat_map(|b| b.as_rows().to_vec());
    let windows = ["row", "sort"].map(|b| {
        let name = format!("engine.groupby.backend.{b}");
        obs.metrics.counter(&name).get()
    });
    (rows.collect(), report, windows)
}

/// The row engine counts YSB's views per campaign as StreamBox-HBM does,
/// every window in its own table, and pays for it in simulated time.
#[test]
fn row_mode_counts_ysb_views_per_campaign() {
    let run = |mode| {
        let source = YsbSource::new(3, 1_000, 100, 10_000_000);
        run_rows(mode, source, benchmarks::ysb(100), 20)
    };
    let (rows, report, [row, sort]) = run(EngineMode::Row);
    assert_eq!(report.records_in, 40_000);
    assert!(report.windows_closed >= 1);
    // With 100 campaigns and 40 k records, every campaign sees events.
    assert!(report.output_records >= 100);
    assert!(row >= 1 && sort == 0, "row {row}, sort {sort} windows");
    let (hybrid_rows, hybrid, _) = run(EngineMode::Hybrid);
    assert_eq!(rows, hybrid_rows);
    assert!(report.sim_secs > hybrid.sim_secs);
}

/// The row engine's table sums per key as the hash backend does, whatever
/// grouping the aggregate asks for.
#[test]
fn row_mode_sums_per_key_like_hash() {
    let run = |mode, grouping| {
        let source = KvSource::new(5, 10, 1_000_000).with_value_range(100);
        run_rows(mode, source, benchmarks::sum_per_key_grouped(grouping), 10)
    };
    let (rows, report, [row, sort]) = run(EngineMode::Row, GroupingSpec::SortMerge);
    assert_eq!(report.records_in, 20_000);
    // 10 distinct keys, 1 window.
    assert_eq!(report.output_records, 10);
    assert!(row >= 1 && sort == 0, "row {row}, sort {sort} windows");
    let (hash_rows, ..) = run(EngineMode::Hybrid, GroupingSpec::Hash);
    assert_eq!(rows, hash_rows);
}

/// Under the row mode the keyed aggregate groups in the row engine's
/// table, and its metrics and spans say so: `KeyedAggregate(row)`, never
/// the sort-merge name.
#[test]
fn row_mode_names_the_keyed_aggregate_row() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("row_mode_name");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sbx"))
        .args(["bench", "ysb", "--mode", "row"])
        .args([
            "--metrics-out",
            "metrics.jsonl",
            "--trace-out",
            "spans.jsonl",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn sbx");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics");
    assert!(metrics.contains("\"op.02.KeyedAggregate(row).invocations\""));
    assert!(
        !metrics.contains("op.02.KeyedAggregate."),
        "sort-merge name in metrics"
    );
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans");
    assert!(spans.contains("\"name\":\"KeyedAggregate(row)\""));
    assert!(
        !spans.contains("\"name\":\"KeyedAggregate\""),
        "sort-merge name in spans"
    );
}

/// Neither DRAM-only mode places anything in HBM.
#[test]
fn dram_only_mode_touches_no_hbm_capacity() {
    for mode in [EngineMode::DramOnly, EngineMode::Row] {
        let cfg = RunConfig {
            cores: 32,
            mode,
            sender: SenderConfig {
                bundle_rows: 2_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        };
        let engine = Engine::new(cfg);
        let env = engine.env().clone();
        engine
            .run(
                KvSource::new(1, 100, 200_000).with_value_range(100),
                benchmarks::sum_per_key(),
                10,
            )
            .expect("run");
        assert_eq!(env.pool(MemKind::Hbm).stats().high_water_bytes, 0, "{mode}");
    }
}

#[test]
fn modes_differ_in_simulated_time_not_output_count() {
    let (_, hybrid) = run_mode(EngineMode::Hybrid);
    let (_, nokpa) = run_mode(EngineMode::CachingNoKpa);
    assert_eq!(hybrid.output_records, nokpa.output_records);
    assert_eq!(hybrid.records_in, nokpa.records_in);
    assert!(
        nokpa.sim_secs >= hybrid.sim_secs,
        "NoKPA must not be faster: {} vs {}",
        nokpa.sim_secs,
        hybrid.sim_secs
    );
}

/// Host lanes never change what a run computes or where it places it: the
/// output rows in emission order, the simulated time and the HBM peak are
/// bit-identical at every thread count, with HBM tight enough (1 MiB) that
/// placement decides which allocations spill.
#[test]
fn outputs_are_identical_across_threads() {
    let run_with_threads = |threads: usize| {
        let mut machine = MachineConfig::knl().scaled(1.0 / 256.0);
        machine.hbm.capacity_bytes = 1 << 20;
        let cfg = RunConfig {
            machine,
            cores: 32,
            threads,
            collect_outputs: true,
            sender: SenderConfig {
                bundle_rows: 1_000,
                bundles_per_watermark: 6,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        };
        let report = Engine::new(cfg)
            .run(
                YsbSource::new(5, 1_000, 50, 200_000),
                benchmarks::ysb(50),
                24,
            )
            .expect("run");
        let rows: Vec<Vec<u64>> = report
            .outputs
            .iter()
            .map(|b| b.as_rows().to_vec())
            .collect();
        (
            rows,
            report.records_in,
            report.windows_closed,
            report.sim_secs.to_bits(),
            report.hbm_peak_used_bytes,
        )
    };
    let one = run_with_threads(1);
    assert!(one.2 > 0 && !one.0.is_empty());
    for threads in [2usize, 4, 16] {
        assert_eq!(run_with_threads(threads), one, "threads={threads}");
    }
}

/// Every byte gauge is a function of (seed, config): the trajectory's
/// `ysb_c32` run, and a hash-grouped sum whose 1 M-key table outgrows a
/// 16 MiB HBM, each report one HBM peak and one per-round series of held
/// bytes per tier, whatever the host thread count (65 runs in one process).
#[test]
fn byte_gauges_are_identical_across_threads_and_repeats() {
    let gauges = |threads: usize, hash: bool| {
        let mut cfg = RunConfig {
            cores: 32,
            threads,
            sender: SenderConfig {
                bundle_rows: 20_000,
                bundles_per_watermark: 10,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        };
        let run = if hash {
            cfg.machine = MachineConfig::knl();
            cfg.machine.hbm.capacity_bytes = 16 << 20;
            Engine::new(cfg).run(
                KvSource::new(1, 1_000_000, 20_000_000).with_value_range(1_000_000),
                benchmarks::sum_per_key_grouped(GroupingSpec::Hash),
                40,
            )
        } else {
            Engine::new(cfg).run(
                YsbSource::new(7, 10_000, 1_000, 10_000_000),
                benchmarks::ysb(1_000),
                30,
            )
        };
        let report = run.expect("run");
        let held = |s: &RoundPoint| (s.hbm_used_bytes, s.dram_used_bytes);
        let series: Vec<_> = report.samples.iter().map(held).collect();
        (report.hbm_peak_used_bytes, series)
    };
    let first = gauges(1, false);
    assert!(first.0 > 0 && first.1.len() == 3);
    for rep in 0..20 {
        for threads in [1usize, 2, 4] {
            assert_eq!(gauges(threads, false), first, "threads={threads} rep={rep}");
        }
    }
    let hash = gauges(1, true);
    assert!(hash.0 > 0 && hash.1.len() == 4);
    for threads in [2usize, 4, 16] {
        assert_eq!(gauges(threads, true), hash, "hash threads={threads}");
    }
}
