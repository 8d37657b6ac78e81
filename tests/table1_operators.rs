//! Table 1: each compound operator decomposes into the expected streaming
//! primitives. Verified structurally (pipeline composition) and
//! behaviourally (the access profile a pipeline charges reflects its
//! primitives' access patterns from Table 2).

use streambox_hbm::prelude::*;

/// Runs `pipeline` with metrics on; returns the report, the environment and
/// the `bw.<tier>.total_bytes` traffic counters, indexed by
/// [`MemKind::index`].
fn run_profiled(pipeline: Pipeline, seed: u64) -> (RunReport, MemEnv, [u64; 2]) {
    let obs = Obs::metrics_only();
    let cfg = RunConfig {
        cores: 16,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        obs: obs.clone(),
        ..RunConfig::default()
    };
    let engine = Engine::new(cfg);
    let env = engine.env().clone();
    let report = engine
        .run(
            KvSource::new(seed, 100, 100_000).with_value_range(1_000),
            pipeline,
            10,
        )
        .expect("run");
    let dump = obs.metrics.snapshot();
    let bytes = MemKind::ALL.map(|k| {
        dump.counter(&format!("bw.{}.total_bytes", k.label()))
            .expect("traffic counter")
    });
    (report, env, bytes)
}

#[test]
fn benchmark_pipelines_compose_per_table1() {
    // Grouping operators build on Windowing (Partition) + Sort/Merge;
    // reductions follow grouping, exactly as Table 1 lays out.
    assert_eq!(
        benchmarks::sum_per_key().op_names(),
        ["Window", "KeyedAggregate"]
    );
    assert_eq!(benchmarks::avg_all().op_names(), ["Window", "AvgAll"]);
    assert_eq!(
        benchmarks::temporal_join().op_names(),
        ["Window", "TemporalJoin"]
    );
    assert_eq!(
        benchmarks::windowed_filter().op_names(),
        ["Window", "WindowedFilter"]
    );
    assert_eq!(benchmarks::power_grid().op_names(), ["Window", "PowerGrid"]);
    assert_eq!(
        benchmarks::ysb(10).op_names(),
        ["Filter", "Window", "KeyedAggregate"],
        "YSB: ParDo filter, windowing, then per-campaign count"
    );
}

#[test]
fn grouping_charges_sequential_kpa_traffic() {
    // A keyed aggregation is dominated by sequential traffic on the KPA
    // tier (HBM): Extract + Partition + Sort + Merge are all sequential.
    let (_, _, [hbm, _]) = run_profiled(benchmarks::sum_per_key(), 11);
    assert!(hbm > 0, "grouping must touch HBM");
}

#[test]
fn unkeyed_reduction_stays_in_dram() {
    // AvgAll only extracts/partitions in HBM and reduces by dereferencing
    // into DRAM — its HBM traffic is far lower than a sort-based pipeline's.
    let (_, _, [sort_hbm, _]) = run_profiled(benchmarks::median_per_key(), 12);
    let (_, _, [avg_hbm, _]) = run_profiled(benchmarks::avg_all(), 12);
    assert!(
        sort_hbm > 2 * avg_hbm,
        "sort-based grouping ({sort_hbm}) must move far more HBM bytes than \
         unkeyed reduction ({avg_hbm})"
    );
}

#[test]
fn full_records_never_live_in_hbm() {
    // Bundles (ingested and materialized) are DRAM-only; HBM holds only
    // KPA-sized data. With 2k-row bundles of 24 B records, DRAM traffic
    // must dominate byte-for-byte at ingestion.
    let (report, env, [_, dram]) = run_profiled(benchmarks::avg_all(), 13);
    assert!(report.records_in > 0);
    assert!(
        dram >= report.records_in * 24,
        "every record is written to DRAM at ingestion"
    );
    // HBM pool never holds more than KPA-sized data: peak usage is bounded
    // by pairs (16 B per record per live window), far below total records.
    assert!(env.pool(MemKind::Hbm).stats().high_water_bytes < dram);
}
