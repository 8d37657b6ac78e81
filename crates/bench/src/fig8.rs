//! Figure 8: the nine synthetic benchmarks — throughput and peak HBM
//! bandwidth vs cores, under RDMA ingestion and 1 s target delay.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
use sbx_engine::benchmarks::SUITE;
use sbx_engine::ops::GroupingSpec;
use sbx_engine::{Engine, RunConfig, RunReport};
use sbx_ingress::{NicModel, SenderConfig};
use sbx_simmem::MachineConfig;

use crate::table::{f1, Table};
use crate::CORE_SWEEP;

const BUNDLE_ROWS: usize = 20_000;
const BUNDLES: usize = 30;
const EVENT_RATE: u64 = 20_000_000;

/// The nine Figure-8 panel titles, in the paper's order.
pub fn titles() -> impl Iterator<Item = &'static str> {
    SUITE.iter().filter_map(|b| b.fig8.map(|(title, _)| title))
}

/// Runs the benchmark of panel `title` at one core count; returns the
/// report.
pub fn run_benchmark(title: &str, cores: u32) -> RunReport {
    let (bench, seed) = SUITE
        .iter()
        .find_map(|b| {
            b.fig8
                .and_then(|(t, seed)| (t == title).then_some((b, seed)))
        })
        .unwrap_or_else(|| panic!("unknown benchmark {title}"));
    let cfg = RunConfig {
        machine: MachineConfig::knl(),
        cores,
        sender: SenderConfig {
            bundle_rows: BUNDLE_ROWS,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    Engine::new(cfg)
        .run(
            bench.sources(seed, bench.keys, EVENT_RATE, None),
            (bench.pipeline)(GroupingSpec::SortMerge),
            BUNDLES,
        )
        .expect("run")
}

/// Regenerates Figure 8: one row per benchmark per core count.
pub fn run() -> String {
    let mut t = Table::new(
        "Figure 8: throughput (M rec/s) and peak HBM bandwidth (GB/s) under RDMA, 1 s delay",
        &["benchmark", "cores", "Mrec/s", "HBM GB/s", "delay s"],
    );
    for name in titles() {
        for &cores in &CORE_SWEEP {
            let r = run_benchmark(name, cores);
            t.row(vec![
                name.to_string(),
                cores.to_string(),
                f1(r.throughput_mrps()),
                f1(r.peak_hbm_bw_gbps),
                format!("{:.3}", r.max_output_delay_secs),
            ]);
        }
    }
    t.print()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_benchmarks_run_at_16_cores() {
        for name in titles() {
            let r = run_benchmark(name, 16);
            assert!(r.records_in > 0, "{name} ingested nothing");
            assert!(r.windows_closed > 0, "{name} closed no windows");
            assert!(r.throughput_rps > 0.0, "{name} zero throughput");
        }
    }

    /// Windowed Average is the cheapest pipeline and must be
    /// ingestion-bound at high core counts (the paper's 110 M rec/s).
    #[test]
    fn windowed_average_hits_the_rdma_plateau() {
        let r = run_benchmark("Windowed Average", 64);
        let limit = NicModel::rdma_40g().record_rate_limit(24) / 1e6;
        assert!(
            r.throughput_mrps() > 0.75 * limit,
            "got {} of limit {limit}",
            r.throughput_mrps()
        );
    }

    /// Grouping-heavy pipelines scale with cores before any plateau.
    #[test]
    fn topk_scales_with_cores() {
        let t2 = run_benchmark("TopK Per Key", 2).throughput_rps;
        let t16 = run_benchmark("TopK Per Key", 16).throughput_rps;
        assert!(t16 > 3.0 * t2, "t2={t2} t16={t16}");
    }
}
