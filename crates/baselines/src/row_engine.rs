// sbx-lint: out-of-scope(raw-alloc, baseline engine measured for contrast; not the production data path)
// sbx-lint: out-of-scope(no-panic, baseline engine measured for contrast; not the production data path)
use std::collections::BTreeMap;

use sbx_ingress::{IngressEvent, Sender, SenderConfig, Source};
use sbx_kpa::hash::HashGrouper;
use sbx_kpa::{profile, ExecCtx};
use sbx_records::{Col, WindowSpec};
use sbx_simmem::{AccessProfile, AllocError, CostModel, MachineConfig, MemEnv, MemKind, Priority};

/// Per-record engine overhead in KNL cycles: deserialization, per-record
/// operator dispatch, managed-runtime bookkeeping. Calibrated so that the
/// row engine's per-core YSB throughput is ~18x below StreamBox-HBM's on
/// KNL (paper Fig. 7).
pub const ROW_ENGINE_CYCLES_PER_RECORD_KNL: f64 = 5_900.0;

/// The same overhead on the X56 Xeon, whose wide out-of-order cores retire
/// the row-at-a-time instruction stream roughly twice as fast per cycle as
/// KNL's simple cores (calibrated to Flink saturating 10 GbE with 32 of 56
/// X56 cores, paper §7.1).
pub const ROW_ENGINE_CYCLES_PER_RECORD_X56: f64 = 3_000.0;

/// Configuration of a [`RowEngine`] run.
#[derive(Debug, Clone)]
pub struct RowEngineConfig {
    /// The machine to model.
    pub machine: MachineConfig,
    /// Cores the engine may use.
    pub cores: u32,
    /// Per-record overhead in cycles (see the calibration constants).
    pub cycles_per_record: f64,
    /// Ingestion configuration.
    pub sender: SenderConfig,
}

impl RowEngineConfig {
    /// Flink-class engine on the paper's KNL machine.
    pub fn flink_knl(cores: u32, sender: SenderConfig) -> Self {
        RowEngineConfig {
            machine: MachineConfig::knl(),
            cores,
            cycles_per_record: ROW_ENGINE_CYCLES_PER_RECORD_KNL,
            sender,
        }
    }

    /// Flink-class engine on the X56 Xeon.
    pub fn flink_x56(cores: u32, sender: SenderConfig) -> Self {
        RowEngineConfig {
            machine: MachineConfig::x56(),
            cores,
            cycles_per_record: ROW_ENGINE_CYCLES_PER_RECORD_X56,
            sender,
        }
    }
}

/// The row-engine workload: which per-record pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPipeline {
    /// The YSB pipeline: filter on `ad_type`, map `ad_id` to a campaign,
    /// count per campaign per window.
    YsbCount {
        /// Number of campaigns for the ad→campaign mapping.
        campaigns: u64,
    },
    /// Sum of a value column per key per window (benchmark 2's shape).
    SumPerKey {
        /// Grouping key column.
        key: Col,
        /// Summed value column.
        value: Col,
    },
}

/// Result of one row-engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RowRunReport {
    /// Records ingested.
    pub records_in: u64,
    /// Windows externalized.
    pub windows_closed: u64,
    /// Output (key, aggregate) pairs emitted.
    pub output_records: u64,
    /// Total simulated time, seconds.
    pub sim_secs: f64,
    /// Input throughput, records per second.
    pub throughput_rps: f64,
}

impl RowRunReport {
    /// Throughput in millions of records per second.
    pub fn throughput_mrps(&self) -> f64 {
        self.throughput_rps / 1e6
    }
}

/// A Flink-class comparison engine: row-at-a-time processing with hash
/// grouping on hardware-managed hybrid memory.
///
/// Functionally exact (real hash tables, real per-record filtering);
/// timing follows the same cost-model approach as the main engine, with
/// the per-record dispatch overhead dominating — which is precisely why
/// this engine class cannot saturate even a 10 GbE link on KNL.
#[derive(Debug)]
pub struct RowEngine {
    cfg: RowEngineConfig,
    env: MemEnv,
}

impl RowEngine {
    /// A row engine for `cfg`.
    pub fn new(cfg: RowEngineConfig) -> Self {
        let machine = cfg.machine.with_cores(cfg.cores);
        RowEngine {
            cfg,
            env: MemEnv::new(machine),
        }
    }

    /// The engine's memory environment.
    pub fn env(&self) -> &MemEnv {
        &self.env
    }

    /// Runs `pipeline` over `bundles` bundles from `source` with fixed
    /// windows of `window_ticks` event-time ticks.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM is exhausted.
    pub fn run<S: Source>(
        self,
        source: S,
        pipeline: RowPipeline,
        window_ticks: u64,
        bundles: usize,
    ) -> Result<RowRunReport, AllocError> {
        let spec = WindowSpec::fixed(window_ticks);
        let cost = CostModel::new(self.env.machine().clone());
        let cores = self.cfg.cores;
        let mut sender = Sender::new(&self.env, source, self.cfg.sender);
        let mut ctx = ExecCtx::new(&self.env);

        let mut windows: BTreeMap<u64, HashGrouper> = BTreeMap::new();
        let mut records_in = 0u64;
        let mut windows_closed = 0u64;
        let mut output_records = 0u64;
        let mut remaining = bundles;
        let mut round_profile = AccessProfile::new();
        let mut round_ingest_ns = 0u64;

        let flush_round = |profile: &mut AccessProfile, ingest_ns: &mut u64| {
            let compute = cost.time_secs(profile, cores);
            let ingest = *ingest_ns as f64 / 1e9;
            let secs = compute.max(ingest);
            if secs > 0.0 {
                let start = self.env.clock().now_ns();
                self.env.charge_traffic(profile, start, (secs * 1e9) as u64);
                self.env.clock().advance((secs * 1e9) as u64);
            }
            *profile = AccessProfile::new();
            *ingest_ns = 0;
        };

        while remaining > 0 {
            match sender.next_event()? {
                IngressEvent::Bundle(b, wire_ns, _) => {
                    remaining -= 1;
                    records_in += b.rows() as u64;
                    round_ingest_ns += wire_ns;
                    let schema = b.schema();
                    let ts_col = schema.ts_col();
                    for row in 0..b.rows() {
                        let w = b.ts(row).raw() / spec.stride();
                        let (key, value) = match pipeline {
                            RowPipeline::YsbCount { campaigns } => {
                                // Filter on ad_type (col 3), keep < 2 of 5.
                                if b.value(row, Col(3)) >= 2 {
                                    continue;
                                }
                                (b.value(row, Col(2)) % campaigns, 1)
                            }
                            RowPipeline::SumPerKey { key, value } => {
                                (b.value(row, key), b.value(row, value))
                            }
                        };
                        let table = match windows.get(&w) {
                            Some(_) => windows.get_mut(&w).expect("exists"),
                            None => {
                                let t = HashGrouper::with_slots(
                                    &mut ctx,
                                    1024,
                                    MemKind::Dram,
                                    Priority::Normal,
                                )?;
                                windows.entry(w).or_insert(t)
                            }
                        };
                        table.insert(key, value);
                        let _ = ts_col;
                    }
                    // Row-at-a-time costs: dispatch overhead per record plus
                    // the hash-grouping access profile.
                    let n = b.rows();
                    round_profile = round_profile
                        .merge(&profile::hash_group(n, MemKind::Dram))
                        .cpu(n as f64 * (self.cfg.cycles_per_record - profile::HASH_CYCLES));
                }
                IngressEvent::Watermark(wm) => {
                    let closing: Vec<u64> = windows
                        .keys()
                        .copied()
                        .take_while(|&w| wm.closes(spec.end(sbx_records::WindowId(w))))
                        .collect();
                    for w in closing {
                        let table = windows.remove(&w).expect("window exists");
                        output_records += table.len() as u64;
                        windows_closed += 1;
                        round_profile = round_profile
                            .merge(&AccessProfile::new().rand(MemKind::Dram, table.len() as f64));
                    }
                    flush_round(&mut round_profile, &mut round_ingest_ns);
                }
                // The baseline row engine does not checkpoint; barriers
                // only appear when explicitly requested via the sender.
                IngressEvent::Barrier(_) => {}
            }
        }
        // Drain remaining windows.
        for (_, table) in std::mem::take(&mut windows) {
            output_records += table.len() as u64;
            windows_closed += 1;
        }
        flush_round(&mut round_profile, &mut round_ingest_ns);

        let sim_secs = self.env.clock().now_secs();
        Ok(RowRunReport {
            records_in,
            windows_closed,
            output_records,
            sim_secs,
            throughput_rps: if sim_secs > 0.0 {
                records_in as f64 / sim_secs
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_ingress::{KvSource, NicModel, YsbSource};

    fn sender_cfg() -> SenderConfig {
        SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::ethernet_10g(),
        }
    }

    #[test]
    fn ysb_count_runs_and_counts_views() {
        let cfg = RowEngineConfig::flink_knl(64, sender_cfg());
        let engine = RowEngine::new(cfg);
        let src = YsbSource::new(3, 1000, 100, 10_000_000);
        let report = engine
            .run(
                src,
                RowPipeline::YsbCount { campaigns: 100 },
                1_000_000_000,
                20,
            )
            .unwrap();
        assert_eq!(report.records_in, 40_000);
        assert!(report.windows_closed >= 1);
        // With 100 campaigns and 40k records, every campaign sees events.
        assert!(report.output_records >= 100);
        assert!(report.throughput_rps > 0.0);
    }

    #[test]
    fn sum_per_key_matches_hash_semantics() {
        let cfg = RowEngineConfig::flink_knl(16, sender_cfg());
        let engine = RowEngine::new(cfg);
        let src = KvSource::new(5, 10, 1_000_000).with_value_range(100);
        let report = engine
            .run(
                src,
                RowPipeline::SumPerKey {
                    key: Col(0),
                    value: Col(1),
                },
                1_000_000_000,
                10,
            )
            .unwrap();
        assert_eq!(report.records_in, 20_000);
        // 10 distinct keys, 1 window.
        assert_eq!(report.output_records, 10);
    }

    #[test]
    fn per_core_gap_to_streambox_is_an_order_of_magnitude() {
        // Row engine per-core rate on KNL: ~1.3e9 / 5900 ≈ 0.22 M rec/s.
        let per_core = 1.3e9 / ROW_ENGINE_CYCLES_PER_RECORD_KNL / 1e6;
        assert!(per_core > 0.15 && per_core < 0.3, "{per_core} Mrec/s/core");
    }

    #[test]
    fn x56_cores_are_faster_per_record() {
        // Compile-time relationship between the two calibration constants;
        // kept as a test so a recalibration that breaks it shows up in CI.
        const { assert!(ROW_ENGINE_CYCLES_PER_RECORD_X56 < ROW_ENGINE_CYCLES_PER_RECORD_KNL) }
    }

    #[test]
    fn more_cores_increase_throughput_until_nic_limit() {
        let run = |cores: u32| {
            let engine = RowEngine::new(RowEngineConfig::flink_knl(cores, sender_cfg()));
            engine
                .run(
                    YsbSource::new(1, 100, 10, 50_000_000),
                    RowPipeline::YsbCount { campaigns: 10 },
                    1_000_000_000,
                    20,
                )
                .unwrap()
                .throughput_rps
        };
        let t2 = run(2);
        let t16 = run(16);
        let t64 = run(64);
        assert!(t16 > 3.0 * t2, "t2={t2} t16={t16}");
        assert!(t64 >= t16 * 0.95);
        // Even 64 KNL cores stay below the 10 GbE record-rate limit.
        let limit = NicModel::ethernet_10g().record_rate_limit(56);
        assert!(t64 < limit, "t64={t64} limit={limit}");
    }
}
