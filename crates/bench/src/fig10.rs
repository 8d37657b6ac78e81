//! Figure 10: dynamic balancing of HBM capacity against DRAM bandwidth —
//! (a) under increasing ingestion rate and (b) under delayed watermarks.
//!
//! The machine's HBM is squeezed (16 MiB at harness scale) so the swept
//! ingestion rates cross the capacity knee: at low rates the KPA state
//! between watermarks fits in HBM, at high rates it overflows and the knob
//! must shed allocations to DRAM — exactly the regime the paper's balancer
//! is built for.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
use sbx_engine::ops::AggKind;
use sbx_engine::{Engine, Pipeline, PipelineBuilder, RunConfig, RunReport};
use sbx_ingress::{KvSource, NicModel, SenderConfig};
use sbx_records::{Col, WindowSpec};
use sbx_simmem::MachineConfig;

use crate::table::{f1, f2, Table};

const CORES: u32 = 64;
const BUNDLE_ROWS: usize = 50_000;
/// Watermark rounds per run: fixed so every swept configuration gives the
/// balancer the same number of knob updates and endpoints compare pressure,
/// not sampling cadence.
const ROUNDS: usize = 10;
/// Window length in event ticks: 10 ms of event time, so that a 40 M rec/s
/// stream puts 400 k records in each window.
const WINDOW_TICKS: u64 = 10_000_000;

fn machine() -> MachineConfig {
    let mut m = MachineConfig::knl();
    // Harness-scale memory: 16 MiB of HBM, 4 GiB of DRAM. Sized so the
    // sweep crosses the capacity knee: the lowest ingestion rate fits
    // comfortably, the highest overflows HBM several times over.
    m.hbm.capacity_bytes = 16 << 20;
    m.dram.capacity_bytes = 4 << 30;
    m
}

fn pipeline() -> Pipeline {
    PipelineBuilder::new(WindowSpec::fixed(WINDOW_TICKS))
        .windowed()
        .keyed_aggregate(Col(0), Col(1), AggKind::TopK(3))
        .build()
}

/// Watermark cadence for a given ingestion rate: the sender emits a
/// watermark every ~12.5 ms of event time, so faster streams put more
/// records (and more KPA state) between watermarks — the paper's Fig. 10a
/// mechanism.
pub fn paced_gap(rate_mrps: f64) -> usize {
    ((rate_mrps / 4.0) as usize).max(2)
}

/// Runs TopK at `rate_mrps` million records per event-second with
/// `bundles_per_watermark` watermark spacing, for `ROUNDS` watermark
/// rounds.
pub fn pressured_run(rate_mrps: f64, bundles_per_watermark: usize) -> RunReport {
    let bundles = bundles_per_watermark * ROUNDS;
    let cfg = RunConfig {
        machine: machine(),
        cores: CORES,
        sender: SenderConfig {
            bundle_rows: BUNDLE_ROWS,
            bundles_per_watermark,
            nic: NicModel {
                name: "rate-controlled",
                payload_bytes_per_sec: rate_mrps * 1e6 * 24.0,
                per_bundle_overhead_ns: 0,
            },
        },
        ..RunConfig::default()
    };
    Engine::new(cfg)
        .run(
            KvSource::new(10, 100_000, (rate_mrps * 1e6) as u64).with_value_range(1_000_000),
            pipeline(),
            bundles,
        )
        .expect("run")
}

fn summarize(t: &mut Table, label: String, r: &RunReport) {
    let last = r.samples.last().expect("samples");
    let avg_dram: f64 =
        r.samples.iter().map(|s| s.dram_bw_gbps).sum::<f64>() / r.samples.len() as f64;
    t.row(vec![
        label,
        format!("{:.1}", (r.hbm_peak_used_bytes as f64) / (1 << 20) as f64),
        f1(100.0
            * r.samples
                .iter()
                .map(|s| s.hbm_occupancy)
                .fold(0.0, f64::max)),
        f1(r.peak_dram_bw_gbps),
        f1(avg_dram),
        f2(last.k_low),
        f2(last.k_high),
    ]);
}

/// Regenerates both panels of Figure 10.
pub fn run() -> String {
    let mut a = Table::new(
        "Figure 10a: increasing ingestion rate (TopK, 16 MiB HBM at harness scale)",
        &[
            "Mrec/s",
            "HBM peak MiB",
            "HBM use %",
            "DRAM peak GB/s",
            "DRAM avg GB/s",
            "k_low",
            "k_high",
        ],
    );
    for rate in [20.0, 30.0, 40.0, 50.0, 60.0] {
        let r = pressured_run(rate, paced_gap(rate));
        summarize(&mut a, format!("{rate:.0}"), &r);
    }

    let mut b = Table::new(
        "Figure 10b: delaying watermark arrival (bundles between watermarks)",
        &[
            "bundles/wm",
            "HBM peak MiB",
            "HBM use %",
            "DRAM peak GB/s",
            "DRAM avg GB/s",
            "k_low",
            "k_high",
        ],
    );
    for gap in [5usize, 10, 15, 20, 25] {
        let r = pressured_run(40.0, gap);
        summarize(&mut b, gap.to_string(), &r);
    }

    let mut out = a.print();
    out.push_str(&b.print());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rising ingestion pressure must push the knob down (more KPAs to
    /// DRAM) — the arrows of Fig. 10a.
    #[test]
    fn knob_sheds_to_dram_under_pressure() {
        let low = pressured_run(20.0, paced_gap(20.0));
        let high = pressured_run(60.0, paced_gap(60.0));
        let knob = |r: &RunReport| {
            let s = r.samples.last().unwrap();
            s.k_low + s.k_high
        };
        assert!(
            knob(&high) < knob(&low) + 1e-9,
            "knob must not rise with pressure: low={} high={}",
            knob(&low),
            knob(&high)
        );
        assert!(knob(&high) < 2.0, "high pressure must move the knob");
        assert!(
            high.hbm_peak_used_bytes >= low.hbm_peak_used_bytes,
            "more records per window => more HBM demand"
        );
    }

    /// Delayed watermarks extend KPA lifespans and stress HBM capacity
    /// (Fig. 10b).
    #[test]
    fn delayed_watermarks_raise_hbm_pressure() {
        let short = pressured_run(40.0, 5);
        let long = pressured_run(40.0, 25);
        assert!(
            long.hbm_peak_used_bytes >= short.hbm_peak_used_bytes,
            "short={} long={}",
            short.hbm_peak_used_bytes,
            long.hbm_peak_used_bytes
        );
    }

    /// The engine survives the squeeze by spilling, and keeps average DRAM
    /// bandwidth within the hardware's capability.
    #[test]
    fn resources_stay_within_limits() {
        let r = pressured_run(60.0, 15);
        assert!(r.records_in > 0);
        let avg_dram: f64 =
            r.samples.iter().map(|s| s.dram_bw_gbps).sum::<f64>() / r.samples.len() as f64;
        assert!(avg_dram <= 80.0 * 1.1, "avg DRAM BW {avg_dram} too high");
        // HBM was genuinely under pressure in this regime.
        assert!(
            r.samples.iter().any(|s| s.hbm_occupancy > 0.5),
            "expected HBM pressure"
        );
    }
}
