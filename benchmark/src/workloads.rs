//! The four workloads: what runs, on which configuration, and how one
//! input row contributes to the reference result.

use std::sync::Arc;

use sbx_cluster::KeyMap;
use sbx_engine::ops::GroupingSpec;
use sbx_engine::{benchmarks, Pipeline, RunConfig};
use sbx_ingress::{KvSource, NicModel, SenderConfig, Source, YsbSource};
use sbx_obs::Obs;
use sbx_records::{Col, EventTime, Schema};
use sbx_simmem::MachineConfig;

/// Records per bundle.
pub const BUNDLE_ROWS: usize = 20_000;
/// Bundles between two watermarks.
pub const BUNDLES_PER_WATERMARK: usize = 5;
/// Records per second of event time; one 1-s window is therefore
/// 25 bundles or 5 watermark rounds.
pub const EVENT_RATE: u64 = 500_000;
/// Bundles per window.
pub const BUNDLES_PER_WINDOW: usize = EVENT_RATE as usize / BUNDLE_ROWS;
/// Modelled cores of every run.
pub const CORES: u32 = 32;
/// Barrier cadence of the checkpointed workload, bundles.
pub const BARRIER_INTERVAL: u64 = 10;
/// YSB campaigns (grouping keys).
const YSB_CAMPAIGNS: u64 = 1_000;
/// YSB ads mapped onto the campaigns.
const YSB_ADS: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ysb,
    SumHighcardSort,
    SumLowcardAdaptive,
    SumCkptTightHbm,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
    /// Bundles one engine rep ingests: a whole number of windows, sized so
    /// a rep takes about a second on the reference box. Fixed, so a rep is
    /// the same work on every commit.
    pub rep_bundles: usize,
}

/// Whichever of the repository's sources a workload reads, behind one type
/// the engine's generic entry points accept.
pub struct AnySource(Box<dyn Source>);

impl Source for AnySource {
    fn schema(&self) -> Arc<Schema> {
        self.0.schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        self.0.fill(rows, out);
    }

    fn low_watermark(&self) -> EventTime {
        self.0.low_watermark()
    }
}

/// All workloads, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ysb",
        why: "Paper headline: 7-column records make generation, bundle build and the stateless prefix the bulk; grouping is tiny (2/5 of records, 1000 keys). The single-threaded baseline.",
        kind: Kind::Ysb,
        rep_bundles: 600,
    },
    Workload {
        name: "sum_highcard_sort",
        why: "About 470k groups per window: extract, chunk sort, merge-path merge, keyed reduce and materialize dominate and generation is under 3 %; the paper's sort-merge grouping path under load.",
        kind: Kind::SumHighcardSort,
        rep_bundles: 150,
    },
    Workload {
        name: "sum_lowcard_adaptive",
        why: "Same operator on 1000 Zipf keys: the sketch picks the hash backend, so sort and merge are bypassed (a sort-kernel change must not move it) and generation is the largest share.",
        kind: Kind::SumLowcardAdaptive,
        rep_bundles: 800,
    },
    Workload {
        name: "sum_ckpt_tight_hbm",
        why: "Production shape: barrier every 10 bundles into a real coordinator, two-phase output, metrics on, out-of-order input, 16 MiB HBM so spill and the demand balancer move simulated time.",
        kind: Kind::SumCkptTightHbm,
        rep_bundles: 200,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// A fresh source for `seed`. Every rep starts one, so every rep of a
    /// run sees the same records.
    pub fn source(&self, seed: u64) -> AnySource {
        let kv = |keys| KvSource::new(seed, keys, EVENT_RATE).with_value_range(1_000_000);
        AnySource(match self.kind {
            Kind::Ysb => Box::new(YsbSource::new(seed, YSB_ADS, YSB_CAMPAIGNS, EVENT_RATE)),
            Kind::SumHighcardSort => Box::new(kv(4_000_000)),
            Kind::SumLowcardAdaptive => Box::new(kv(1_000).with_zipf(0.99)),
            // Records lag the emission front by up to 50 ms of event time:
            // out of order, but never behind the watermark.
            Kind::SumCkptTightHbm => Box::new(kv(100_000).with_jitter(50_000_000)),
        })
    }

    /// The workload's pipeline with `grouping` forced, for the kinds whose
    /// pipeline is a plain windowed sum per key.
    pub fn sum_pipeline_grouped(&self, grouping: GroupingSpec) -> Option<Pipeline> {
        match self.kind {
            Kind::SumHighcardSort | Kind::SumLowcardAdaptive => {
                Some(benchmarks::sum_per_key_grouped(grouping))
            }
            Kind::Ysb | Kind::SumCkptTightHbm => None,
        }
    }

    /// A fresh pipeline.
    pub fn pipeline(&self) -> Pipeline {
        match self.kind {
            Kind::Ysb => benchmarks::ysb(YSB_CAMPAIGNS),
            Kind::SumHighcardSort | Kind::SumCkptTightHbm => benchmarks::sum_per_key(),
            Kind::SumLowcardAdaptive => benchmarks::sum_per_key_grouped(GroupingSpec::Adaptive),
        }
    }

    /// Whether the run takes checkpoints into a real coordinator.
    pub fn checkpointed(&self) -> bool {
        self.kind == Kind::SumCkptTightHbm
    }

    /// Barrier cadence handed to the engine.
    pub fn barrier_interval(&self) -> Option<u64> {
        self.checkpointed().then_some(BARRIER_INTERVAL)
    }

    /// Whether this is the YSB workload (the one the parsers and the obs
    /// overhead are measured on).
    pub fn is_ysb(&self) -> bool {
        self.kind == Kind::Ysb
    }

    /// Whether the thread-scaling pair (`engine.run_t1|t2`) is measured
    /// on this workload.
    pub fn scales_threads(&self) -> bool {
        self.kind == Kind::SumHighcardSort
    }

    /// A fresh run configuration (fresh observability handles included).
    pub fn run_config(&self) -> RunConfig {
        let mut machine = MachineConfig::knl();
        let mut obs = Obs::noop();
        if self.checkpointed() {
            machine.hbm.capacity_bytes = 16 << 20;
            obs = Obs::metrics_only();
        }
        RunConfig {
            machine,
            cores: CORES,
            sender: SenderConfig {
                bundle_rows: BUNDLE_ROWS,
                bundles_per_watermark: BUNDLES_PER_WATERMARK,
                nic: NicModel::unlimited(),
            },
            // One engine thread on every workload: the reference box has two
            // vCPUs, and a run that keeps both busy measures its scheduler
            // (README, *Where this departs from the issue*).
            threads: 1,
            obs,
            ..RunConfig::default()
        }
    }

    /// Grouping-key and value columns of the input records, for the
    /// staged replay.
    pub fn key_value_cols(&self) -> (Col, Col) {
        match self.kind {
            Kind::Ysb => (Col(2), Col(0)),
            _ => (Col(0), Col(1)),
        }
    }

    /// Routing key of the cluster run: raw key column and the map applied
    /// to it (YSB routes by campaign, the key it aggregates on).
    pub fn routing(&self) -> (usize, Option<KeyMap>) {
        match self.kind {
            Kind::Ysb => (2, Some(Arc::new(|ad| ad % YSB_CAMPAIGNS))),
            _ => (0, None),
        }
    }

    /// What input `row` adds to the reference result: `(window, key,
    /// addend)`, or `None` when the pipeline filters the row out. Every
    /// workload's aggregate is a wrapping sum of the addends.
    pub fn contribution(&self, row: &[u64]) -> Option<(u64, u64, u64)> {
        match self.kind {
            // Count of "view" ad types (< 2 of 5) per campaign.
            Kind::Ysb => {
                (row[3] < 2).then(|| (row[5] / benchmarks::WINDOW_TICKS, row[2] % YSB_CAMPAIGNS, 1))
            }
            _ => Some((row[2] / benchmarks::WINDOW_TICKS, row[0], row[1])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_are_whole_windows_and_checkpoint_rounds() {
        for w in WORKLOADS {
            assert_eq!(w.rep_bundles % BUNDLES_PER_WINDOW, 0, "{}", w.name);
            assert_eq!(w.rep_bundles as u64 % BARRIER_INTERVAL, 0, "{}", w.name);
            assert_eq!(w.run_config().threads, 1, "{}", w.name);
            assert!(Workload::by_name(w.name).is_some());
        }
        assert_eq!(BUNDLES_PER_WINDOW, 25);
        assert!(Workload::by_name("join").is_none());
    }

    #[test]
    fn same_seed_gives_the_same_rows() {
        for w in WORKLOADS {
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            w.source(7).fill(100, &mut a);
            w.source(7).fill(100, &mut b);
            w.source(8).fill(100, &mut c);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
        }
    }
}
