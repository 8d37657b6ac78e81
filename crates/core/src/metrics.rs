use std::sync::Arc;

use sbx_obs::RoundPoint;
use sbx_records::RecordBundle;

/// Result of one engine run (see [`crate::Engine::run`]).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Records ingested.
    pub records_in: u64,
    /// Bundles ingested.
    pub bundles_in: u64,
    /// Temporal windows externalized.
    pub windows_closed: u64,
    /// Output records emitted by the sink.
    pub output_records: u64,
    /// Total simulated time, seconds.
    pub sim_secs: f64,
    /// Input throughput, records per second.
    pub throughput_rps: f64,
    /// Peak HBM bandwidth over any round, GB/s.
    pub peak_hbm_bw_gbps: f64,
    /// Peak DRAM bandwidth over any round, GB/s.
    pub peak_dram_bw_gbps: f64,
    /// Peak HBM usage in bytes, sampled at round boundaries (quiescent
    /// points, so the value is deterministic across same-seed runs; the
    /// allocator's mid-flight high-water mark is intentionally not used —
    /// it races with concurrent kernel-worker scratch allocations).
    pub hbm_peak_used_bytes: u64,
    /// Worst window-close output delay, seconds.
    pub max_output_delay_secs: f64,
    /// Mean window-close output delay, seconds.
    pub avg_output_delay_secs: f64,
    /// Median window-close output delay, seconds (histogram estimate).
    pub p50_output_delay_secs: f64,
    /// 95th-percentile window-close output delay, seconds.
    pub p95_output_delay_secs: f64,
    /// 99th-percentile window-close output delay, seconds.
    pub p99_output_delay_secs: f64,
    /// Per-round records (Figure 10's time series among their fields).
    pub samples: Vec<RoundPoint>,
    /// Sink output bundles (only when `collect_outputs` was set).
    pub outputs: Vec<Arc<RecordBundle>>,
}

impl RunReport {
    /// Throughput in millions of records per second (the paper's unit).
    pub fn throughput_mrps(&self) -> f64 {
        self.throughput_rps / 1e6
    }

    /// Whether every window met the target output delay.
    pub fn meets_delay_target(&self, target_secs: f64) -> bool {
        self.max_output_delay_secs <= target_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            records_in: 2_000_000,
            bundles_in: 10,
            windows_closed: 2,
            output_records: 100,
            sim_secs: 0.5,
            throughput_rps: 4e6,
            peak_hbm_bw_gbps: 100.0,
            peak_dram_bw_gbps: 40.0,
            hbm_peak_used_bytes: 1 << 20,
            max_output_delay_secs: 0.8,
            avg_output_delay_secs: 0.5,
            p50_output_delay_secs: 0.5,
            p95_output_delay_secs: 0.75,
            p99_output_delay_secs: 0.8,
            samples: Vec::new(),
            outputs: Vec::new(),
        }
    }

    #[test]
    fn mrps_converts_units() {
        assert!((report().throughput_mrps() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn delay_target_compares_worst_case() {
        assert!(report().meets_delay_target(1.0));
        assert!(!report().meets_delay_target(0.5));
    }
}
