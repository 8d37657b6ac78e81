//! Figure 7: YSB throughput (a) and peak HBM bandwidth (b) vs cores, for
//! StreamBox-HBM with RDMA and 10 GbE ingestion on KNL, and the Flink-class
//! row engine (`EngineMode::Row`) on KNL and X56 over 10 GbE.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
use sbx_engine::{benchmarks, Engine, EngineMode, RunConfig, RunReport};
use sbx_ingress::{NicModel, SenderConfig, YsbSource};
use sbx_simmem::MachineConfig;

use crate::table::{f1, Table};
use crate::CORE_SWEEP;

const NUM_ADS: u64 = 10_000;
const NUM_CAMPAIGNS: u64 = 1_000;
/// Event-time rate: high enough that a run spans a few windows.
const EVENT_RATE: u64 = 10_000_000;
const BUNDLE_ROWS: usize = 20_000;
const BUNDLES: usize = 50;

fn sender(nic: NicModel) -> SenderConfig {
    SenderConfig {
        bundle_rows: BUNDLE_ROWS,
        bundles_per_watermark: 10,
        nic,
    }
}

/// One YSB run of `mode` on `machine`.
fn ysb_point(machine: MachineConfig, cores: u32, mode: EngineMode, nic: NicModel) -> RunReport {
    let cfg = RunConfig {
        machine,
        cores,
        mode,
        sender: sender(nic),
        ..RunConfig::default()
    };
    Engine::new(cfg)
        .run(
            YsbSource::new(7, NUM_ADS, NUM_CAMPAIGNS, EVENT_RATE),
            benchmarks::ysb(NUM_CAMPAIGNS),
            BUNDLES,
        )
        .expect("run succeeds")
}

/// One StreamBox-HBM YSB run; returns (throughput Mrec/s, peak HBM GB/s).
pub fn streambox_point(cores: u32, nic: NicModel) -> (f64, f64) {
    let report = ysb_point(MachineConfig::knl(), cores, EngineMode::Hybrid, nic);
    (report.throughput_mrps(), report.peak_hbm_bw_gbps)
}

/// One Flink-class YSB run over 10 GbE, on the X56 (at most its 56 cores)
/// or on KNL; returns throughput in Mrec/s.
pub fn flink_point(cores: u32, x56: bool) -> f64 {
    let (machine, cores, nic) = if x56 {
        (
            MachineConfig::x56(),
            cores.min(56),
            NicModel::ethernet_10g_x56(),
        )
    } else {
        (MachineConfig::knl(), cores, NicModel::ethernet_10g())
    };
    ysb_point(machine, cores, EngineMode::Row, nic).throughput_mrps()
}

/// Regenerates both panels of Figure 7.
pub fn run() -> String {
    let mut a = Table::new(
        "Figure 7a: YSB input throughput under 1 s target delay, M records/s",
        &[
            "cores",
            "SBX KNL RDMA",
            "SBX KNL 10GbE",
            "Flink KNL 10GbE",
            "Flink X56 10GbE",
        ],
    );
    let mut b = Table::new(
        "Figure 7b: peak HBM bandwidth, GB/s",
        &["cores", "SBX KNL RDMA", "SBX KNL 10GbE"],
    );
    for &cores in &CORE_SWEEP {
        let (rdma_t, rdma_bw) = streambox_point(cores, NicModel::rdma_40g());
        let (eth_t, eth_bw) = streambox_point(cores, NicModel::ethernet_10g());
        let flink_knl = flink_point(cores, false);
        let flink_x56 = flink_point(cores, true);
        a.row(vec![
            cores.to_string(),
            f1(rdma_t),
            f1(eth_t),
            f1(flink_knl),
            f1(flink_x56),
        ]);
        b.row(vec![cores.to_string(), f1(rdma_bw), f1(eth_bw)]);
    }
    let limits = format!(
        "ingestion limits: RDMA {:.1} M rec/s, 10GbE {:.1} M rec/s (56-byte records)\n",
        NicModel::rdma_40g().record_rate_limit(56) / 1e6,
        NicModel::ethernet_10g().record_rate_limit(56) / 1e6,
    );
    // sbx-lint: allow(no-adhoc-io, figure banner printed with the table)
    println!("{limits}");
    let mut out = limits;
    out.push_str(&a.print());
    out.push_str(&b.print());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline comparison of §7.1: StreamBox-HBM's per-core YSB
    /// throughput is ~18x Flink's, and it saturates 10 GbE with a handful
    /// of cores while Flink cannot with all 64.
    #[test]
    fn per_core_gap_is_about_18x() {
        // StreamBox at its 10 GbE saturation point (few cores).
        let (sbx_t, _) = streambox_point(8, NicModel::ethernet_10g());
        let eth_limit = NicModel::ethernet_10g().record_rate_limit(56) / 1e6;
        assert!(
            sbx_t > 0.9 * eth_limit,
            "SBX should saturate 10GbE at 8 cores: {sbx_t}"
        );

        // SBX saturates with ~5 cores => per-core = limit / 5.
        let sbx_per_core = eth_limit / 5.0;
        let flink64 = flink_point(64, false);
        assert!(
            flink64 < eth_limit,
            "Flink must not saturate 10GbE: {flink64}"
        );
        let flink_per_core = flink64 / 64.0;
        let gap = sbx_per_core / flink_per_core;
        assert!(
            gap > 10.0 && gap < 30.0,
            "per-core gap {gap} should be ~18x"
        );
    }

    /// Compute-bound at 2 cores, the row engine runs ~1.3e9 / 5 900 ≈ 0.22
    /// M rec/s per KNL core, an order of magnitude below StreamBox-HBM's.
    #[test]
    fn per_core_gap_to_streambox_is_an_order_of_magnitude() {
        let flink = flink_point(2, false) / 2.0;
        assert!(flink > 0.15 && flink < 0.3, "{flink} Mrec/s/core");
        let (sbx, _) = streambox_point(2, NicModel::ethernet_10g());
        assert!(
            sbx / 2.0 > 10.0 * flink,
            "sbx {sbx} vs flink {flink} per core"
        );
    }

    #[test]
    fn more_cores_increase_throughput_until_nic_limit() {
        let t2 = flink_point(2, false);
        let t16 = flink_point(16, false);
        let t64 = flink_point(64, false);
        assert!(t16 > 3.0 * t2, "t2={t2} t16={t16}");
        assert!(t64 >= t16 * 0.95);
        // Even 64 KNL cores stay below the 10 GbE record-rate limit, while
        // 32 of the X56's 56 cores saturate it (paper §7.1).
        let limit = NicModel::ethernet_10g().record_rate_limit(56) / 1e6;
        assert!(t64 < limit, "t64={t64} limit={limit}");
        let x56 = flink_point(32, true);
        let x56_limit = NicModel::ethernet_10g_x56().record_rate_limit(56) / 1e6;
        assert!(
            x56 > 0.95 * x56_limit,
            "x56 at 32 cores: {x56} of {x56_limit}"
        );
    }

    #[test]
    fn rdma_beats_ethernet_at_high_cores() {
        let (rdma, _) = streambox_point(64, NicModel::rdma_40g());
        let (eth, _) = streambox_point(64, NicModel::ethernet_10g());
        assert!(rdma > 2.0 * eth, "rdma {rdma} vs eth {eth}");
    }
}
