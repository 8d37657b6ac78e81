//! Incident-pipeline tests (DESIGN.md §15): each manufactured failure
//! scenario fires exactly the detector built for it, clean runs file
//! nothing, and the exported `incidents.jsonl` artifacts are
//! byte-identical across repeats and host thread counts — every value
//! the flight recorder samples is simulated-time.

use std::sync::Arc;

use streambox_hbm::prelude::*;
use streambox_hbm::records::EventTime as Et;

/// The memory-lifecycle spill recipe: HBM shrunk to 256 KiB so KPA
/// allocations storm into DRAM while the run still succeeds.
fn spill_cfg(threads: usize, obs: Obs) -> RunConfig {
    let mut machine = MachineConfig::knl().scaled(1.0 / 256.0);
    machine.hbm.capacity_bytes = 256 * 1024;
    RunConfig {
        machine,
        cores: 16,
        threads,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        obs,
        ..RunConfig::default()
    }
}

fn spill_run(threads: usize) -> Obs {
    let obs = Obs::metrics_only();
    Engine::new(spill_cfg(threads, obs.clone()))
        .run(
            KvSource::new(3, 1_000, 100_000).with_value_range(100),
            benchmarks::sum_per_key(),
            40,
        )
        .expect("spill run must survive HBM exhaustion");
    obs
}

fn kinds(incidents: &[Incident]) -> Vec<String> {
    incidents.iter().map(|i| i.verdict.kind.clone()).collect()
}

/// Scenario: spill storm. Tiny HBM makes every round fall back
/// HBM→DRAM; the CUSUM detector must fire, and no other detector may
/// co-fire on the same run.
#[test]
fn tiny_hbm_fires_only_the_spill_storm_detector() {
    let obs = spill_run(2);
    let incidents = obs.recorder.incidents();
    assert!(
        !incidents.is_empty(),
        "tiny HBM must trip the spill-storm detector"
    );
    for i in &incidents {
        assert_eq!(
            i.verdict.kind, "spill-storm",
            "unexpected co-firing detector: {:?}",
            i.verdict
        );
        assert!(
            i.verdict.detail.contains("HBM->DRAM"),
            "detail names the spill direction: {}",
            i.verdict.detail
        );
        // The capture window froze real evidence at the verdict round.
        assert!(!i.rounds.is_empty(), "frozen round window");
        assert!(i.rounds.iter().any(|p| p.spills > 0.0));
        assert_eq!(i.rounds.last().map(|p| p.round), Some(i.verdict.round));
        // Metrics were on, so the tier-timeline slice rode along.
        assert!(!i.tier.is_empty(), "tier-timeline evidence");
    }
}

/// A source that freezes its watermark promise after `stall_after`
/// bundles while records keep flowing — the late-data-flood shape.
#[derive(Debug)]
struct StallSource {
    inner: KvSource,
    bundles: u64,
    stall_after: u64,
    frozen: Option<Et>,
}

impl StallSource {
    fn new(seed: u64, stall_after: u64) -> Self {
        StallSource {
            inner: KvSource::new(seed, 500, 1_000_000).with_value_range(1_000),
            bundles: 0,
            stall_after,
            frozen: None,
        }
    }
}

impl Source for StallSource {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        self.inner.fill(rows, out);
        self.bundles += 1;
        if self.bundles >= self.stall_after && self.frozen.is_none() {
            self.frozen = Some(self.inner.low_watermark());
        }
    }

    fn low_watermark(&self) -> Et {
        self.frozen.unwrap_or_else(|| self.inner.low_watermark())
    }
}

/// Scenario: watermark stall. After the freeze no window can close
/// while records keep arriving; only the stall detector may fire.
#[test]
fn frozen_watermark_fires_only_the_stall_detector() {
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
    Engine::new(cfg)
        .run(StallSource::new(7, 20), benchmarks::sum_per_key(), 60)
        .expect("stalled run still completes");
    let incidents = obs.recorder.incidents();
    assert!(
        !incidents.is_empty(),
        "a frozen watermark must trip the stall detector"
    );
    for i in &incidents {
        assert_eq!(
            i.verdict.kind, "watermark-stall",
            "unexpected co-firing detector: {:?}",
            i.verdict
        );
        assert!(i.verdict.detail.contains("frozen"));
        // Every frozen-evidence round after the stall shows the same
        // watermark and zero closes.
        let last = i.rounds.last().expect("evidence");
        assert_eq!(last.closed_windows, 0.0);
        assert!(last.records > 0.0);
    }
}

/// Scenario: straggler shard. A Zipf-skewed key draw with a rebalance
/// cut trips the fabric-level skew detectors; the per-shard engine
/// detectors stay silent (the shards themselves are healthy). The
/// slot-skew incident names the run's hottest slot, which is one the
/// `Retarget::Rebalance` cut actually moved.
#[test]
fn zipf_skew_fires_only_the_fabric_skew_detectors() {
    let mut cfg = ClusterConfig {
        shards: 5,
        metrics: MetricsRegistry::active(),
        ..ClusterConfig::default()
    };
    cfg.engine.cores = 16;
    cfg.engine.sender = SenderConfig {
        bundle_rows: 2_000,
        bundles_per_watermark: 10,
        nic: NicModel::rdma_40g(),
    };
    let report = ShardedCluster::new(cfg)
        .run_elastic(
            || KvSource::new(1, 50_000, 20_000_000).with_zipf(1.0),
            benchmarks::sum_per_key,
            30,
            5,
            ElasticPlan {
                at_epoch: 2,
                retarget: Retarget::Rebalance { tolerance: 1.05 },
            },
        )
        .expect("zipf rebalance run");
    let (fabric, engine): (Vec<Incident>, Vec<Incident>) = report
        .incidents
        .iter()
        .cloned()
        .partition(|i| i.shard == FABRIC_SHARD);
    assert!(
        engine.is_empty(),
        "healthy shards must not file engine incidents: {:?}",
        kinds(&engine)
    );
    for kind in kinds(&fabric) {
        assert!(
            matches!(kind.as_str(), "slot-skew" | "straggler" | "watermark-lag"),
            "unexpected fabric detector: {kind}"
        );
    }
    // The skew detector tripped on the run's actual hottest routing
    // slot...
    let skew = fabric
        .iter()
        .map(|i| &i.verdict)
        .find(|v| v.kind == "slot-skew")
        .expect("zipf skew must trip slot-skew");
    let hottest = report
        .slot_loads
        .iter()
        .enumerate()
        .max_by_key(|&(slot, load)| (load, u64::MAX - slot as u64))
        .map(|(slot, _)| slot as u32)
        .expect("slot loads");
    assert_eq!(skew.subject, format!("slot{hottest}"));
    // ...which the Rebalance retarget actually moved, and its detail says so.
    let rescale = report.rescale.as_ref().expect("rescale happened");
    assert!(
        rescale.moved_slots.contains(&hottest),
        "rebalance must move the hot slot (moved {:?}, hot {hottest})",
        rescale.moved_slots
    );
    assert!(skew.detail.contains("moved by rebalance"));
    // The report round-trips byte-for-byte, fabric tag included.
    let jsonl = IncidentReport::new(report.incidents.clone()).to_jsonl();
    let parsed = IncidentReport::parse_jsonl(&jsonl).expect("parse");
    assert_eq!(parsed.to_jsonl(), jsonl);
    assert_eq!(parsed.incidents, report.incidents);
}

/// A clean YSB run files zero incidents, and its artifact is the bare
/// (still diffable) trailer line.
#[test]
fn clean_ysb_files_zero_incidents() {
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
    let report = Engine::new(cfg)
        .run(
            YsbSource::new(1, 10_000, 1_000, 20_000_000),
            benchmarks::ysb(1_000),
            40,
        )
        .expect("clean run");
    assert!(report.windows_closed > 0);
    let incidents = obs.recorder.incidents();
    assert!(
        incidents.is_empty(),
        "clean YSB tripped: {:?}",
        kinds(&incidents)
    );
    assert_eq!(
        IncidentReport::new(incidents).to_jsonl(),
        "{\"type\":\"incidents\",\"count\":0}\n"
    );
    // The recorder ran the whole time: its rings hold the recent rounds
    // and its pool accounting is visible in the metrics export.
    assert!(!obs.recorder.rounds().is_empty());
    assert!(obs.recorder.accounted_bytes() > 0);
    let dump = MetricsDump::parse_jsonl(&obs.metrics.export_jsonl()).expect("parse");
    assert_eq!(
        dump.gauge("recorder.accounted_bytes").map(|g| g.value),
        Some(obs.recorder.accounted_bytes() as f64)
    );
}

/// Acceptance: clean same-seed runs file zero incidents and export a
/// bit-identical artifact (and report rendering) across repeats and
/// host thread counts {1, 2, 4, 8, 16} — host parallelism must not
/// leak into the incident stream.
#[test]
fn clean_artifacts_are_byte_identical_across_repeats_and_threads() {
    let artifact = |threads: usize| {
        let obs = Obs::metrics_only();
        let cfg = RunConfig {
            cores: 16,
            threads,
            sender: SenderConfig {
                bundle_rows: 2_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            obs: obs.clone(),
            ..RunConfig::default()
        };
        Engine::new(cfg)
            .run(
                YsbSource::new(1, 10_000, 1_000, 20_000_000),
                benchmarks::ysb(1_000),
                40,
            )
            .expect("clean run");
        let report = IncidentReport::new(obs.recorder.incidents());
        (report.to_jsonl(), report.render())
    };
    let baseline = artifact(1);
    assert_eq!(baseline.0, "{\"type\":\"incidents\",\"count\":0}\n");
    assert_eq!(artifact(1), baseline, "same-seed repeat diverged");
    for threads in [2usize, 4, 8, 16] {
        assert_eq!(artifact(threads), baseline, "threads={threads}");
    }
}

/// Degraded-scenario determinism: under capacity pressure, same-seed
/// spill-storm artifacts are byte-identical across repeats and host thread
/// counts, and round-trip through parse → export unchanged. So is the
/// metrics export: lanes only run inside the close merge and the join
/// scan, which write into buffers the engine thread allocated.
#[test]
fn spill_artifacts_are_byte_identical_across_repeats() {
    let artifact = |threads: usize| {
        let obs = spill_run(threads);
        let incidents = IncidentReport::new(obs.recorder.incidents()).to_jsonl();
        (incidents, obs.metrics.snapshot().to_jsonl())
    };
    let one_lane = artifact(1);
    let baseline = one_lane.0.clone();
    assert!(baseline.contains("\"kind\":\"spill-storm\""));
    assert_eq!(artifact(1), one_lane, "same-seed repeat diverged");
    for threads in [2usize, 4, 16] {
        assert_eq!(artifact(threads), one_lane, "threads={threads}");
    }
    let parsed = IncidentReport::parse_jsonl(&baseline).expect("parse");
    assert_eq!(parsed.to_jsonl(), baseline);
    assert!(!parsed.render().is_empty());
}
