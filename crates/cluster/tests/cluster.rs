//! End-to-end properties of the sharded cluster tier.
//!
//! The invariants under test, across seeds, shard counts, and crash
//! points (ISSUE: cluster property suite):
//!
//! * **Route totality** — every key is owned by exactly one shard under
//!   every table the cluster can produce (uniform, rescaled, rebalanced).
//! * **Topology transparency** — for commutative aggregations the
//!   canonical committed output multiset is byte-identical across shard
//!   counts (1, 2, 4, 8, 16), with or without a mid-run rescale.
//! * **Exactly-once** — committed outputs match a fault-free oracle even
//!   when crashes land before, inside, or after the rescale epoch.

use std::sync::Arc;

use sbx_checkpoint::{run_with_recovery, CheckpointCoordinator, CrashPlan};
use sbx_cluster::{
    ClusterConfig, ClusterCrash, ClusterError, ClusterRunReport, ElasticPlan, KeyMap, RescalePhase,
    Retarget, RouteTable, ShardedCluster,
};
use sbx_engine::ops::GroupingSpec;
use sbx_engine::{benchmarks, CrashPhase, RunConfig};
use sbx_ingress::{KvSource, NicModel, SenderConfig, YsbSource};
use sbx_prng::SbxRng;

const BUNDLES: usize = 20;
const INTERVAL: u64 = 3;
const CUT: u64 = 2;

fn cluster_cfg(shards: u32) -> ClusterConfig {
    ClusterConfig {
        shards,
        engine: RunConfig {
            cores: 16,
            sender: SenderConfig {
                bundle_rows: 1_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn kv(seed: u64) -> impl Fn() -> KvSource {
    move || KvSource::new(seed, 500, 100_000).with_value_range(1_000)
}

fn run_shards(seed: u64, shards: u32) -> ClusterRunReport {
    ShardedCluster::new(cluster_cfg(shards))
        .run(kv(seed), benchmarks::sum_per_key, BUNDLES, INTERVAL)
        .expect("cluster run")
}

#[test]
fn outputs_bit_identical_across_shard_counts() {
    for seed in [7u64, 21] {
        let oracle = run_shards(seed, 1);
        assert!(oracle.output_records > 0, "oracle must produce outputs");
        for shards in [2u32, 4, 8, 16] {
            let run = run_shards(seed, shards);
            assert_eq!(
                run.canonical_outputs(),
                oracle.canonical_outputs(),
                "{shards} shards must emit the oracle multiset (seed {seed})"
            );
            assert_eq!(
                run.records_in, oracle.records_in,
                "no record lost or duplicated"
            );
            let routed: u64 = run.slot_loads.iter().sum();
            assert_eq!(routed, run.records_in, "slot stats count each record once");
        }
    }
}

#[test]
fn static_cluster_crash_is_exactly_once() {
    let oracle = run_shards(7, 4);
    let crashed = ShardedCluster::new(cluster_cfg(4))
        .run_faulty(
            kv(7),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            None,
            Some(ClusterCrash {
                shard: 1,
                phase: RescalePhase::BeforeCut,
                plan: CrashPlan::AfterBundles(11),
            }),
        )
        .expect("crashed cluster run");
    assert_eq!(crashed.shards[1].crashes, 1, "the crash fired");
    assert_eq!(crashed.canonical_outputs(), oracle.canonical_outputs());
    assert_eq!(crashed.records_in, oracle.records_in);
}

#[test]
fn grow_rescale_matches_fault_free_oracle() {
    let oracle = run_shards(7, 4);
    let grown = ShardedCluster::new(cluster_cfg(4))
        .run_elastic(
            kv(7),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Shards(8),
            },
        )
        .expect("grow rescale");
    let rescale = grown.rescale.as_ref().expect("rescale happened");
    assert_eq!(rescale.from_shards, 4);
    assert_eq!(rescale.to_shards, 8);
    assert!(!rescale.moved_slots.is_empty(), "growing moves slots");
    assert!(rescale.wire_bytes > 0, "moved state crosses links");
    assert!(rescale.shuffle_ns > 0, "the shuffle costs simulated time");
    assert_eq!(grown.phase1.len(), 4);
    assert_eq!(grown.shards.len(), 8);
    assert_eq!(grown.canonical_outputs(), oracle.canonical_outputs());
    assert_eq!(grown.records_in, oracle.records_in);
    // Phase-2 clocks carry phase 1 plus the shuffle, so the elastic run's
    // critical path is strictly positive and includes the shuffle cost.
    assert!(grown.sim_secs * 1e9 > rescale.shuffle_ns as f64);
}

#[test]
fn shrink_rescale_matches_fault_free_oracle() {
    let oracle = run_shards(21, 8);
    let shrunk = ShardedCluster::new(cluster_cfg(8))
        .run_elastic(
            kv(21),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Shards(4),
            },
        )
        .expect("shrink rescale");
    let rescale = shrunk.rescale.as_ref().expect("rescale happened");
    assert_eq!((rescale.from_shards, rescale.to_shards), (8, 4));
    assert_eq!(shrunk.phase1.len(), 8);
    assert_eq!(shrunk.shards.len(), 4);
    assert!(rescale.wire_bytes > 0);
    assert_eq!(shrunk.canonical_outputs(), oracle.canonical_outputs());
    assert_eq!(shrunk.records_in, oracle.records_in);
}

#[test]
fn crashes_during_the_rescale_epoch_compose_with_the_cut() {
    let oracle = run_shards(7, 4);
    let crashes: &[(RescalePhase, CrashPlan)] = &[
        // Mid-phase-1 ingest crash, well before the cut.
        (RescalePhase::BeforeCut, CrashPlan::AfterBundles(4)),
        // Crash at the cut barrier's alignment: inside the rescale epoch.
        (
            RescalePhase::BeforeCut,
            CrashPlan::AtBarrier {
                epoch: CUT,
                phase: CrashPhase::BarrierAligned,
            },
        ),
        // Crash between the cut snapshot's construction and its commit:
        // the hardest point — the rescale epoch itself must replay.
        (
            RescalePhase::BeforeCut,
            CrashPlan::AtBarrier {
                epoch: CUT,
                phase: CrashPhase::BarrierBeforeCommit,
            },
        ),
        // Crash right after the new topology resumed.
        (
            RescalePhase::AfterCut,
            CrashPlan::AfterBundles(CUT * INTERVAL + 2),
        ),
        // Crash at the first post-rescale checkpoint commit.
        (
            RescalePhase::AfterCut,
            CrashPlan::AtBarrier {
                epoch: CUT + 1,
                phase: CrashPhase::BarrierBeforeCommit,
            },
        ),
    ];
    for (phase, plan) in crashes {
        let run = ShardedCluster::new(cluster_cfg(4))
            .run_faulty(
                kv(7),
                benchmarks::sum_per_key,
                BUNDLES,
                INTERVAL,
                Some(ElasticPlan {
                    at_epoch: CUT,
                    retarget: Retarget::Shards(8),
                }),
                Some(ClusterCrash {
                    shard: 1,
                    phase: *phase,
                    plan: *plan,
                }),
            )
            .expect("faulty elastic run");
        let crashed_shard = match phase {
            RescalePhase::BeforeCut => &run.phase1[1],
            RescalePhase::AfterCut => &run.shards[1],
        };
        assert_eq!(crashed_shard.crashes, 1, "{phase:?} {plan:?} must fire");
        assert_eq!(
            run.canonical_outputs(),
            oracle.canonical_outputs(),
            "exactly-once must survive {phase:?} {plan:?}"
        );
        assert_eq!(run.records_in, oracle.records_in);
    }
}

#[test]
fn property_rescales_match_oracle_across_seeds_and_topologies() {
    for seed in [3u64, 11] {
        let oracle = run_shards(seed, 1);
        for (from, to) in [(2u32, 4u32), (4, 2), (2, 8)] {
            let run = ShardedCluster::new(cluster_cfg(from))
                .run_faulty(
                    kv(seed),
                    benchmarks::sum_per_key,
                    BUNDLES,
                    INTERVAL,
                    Some(ElasticPlan {
                        at_epoch: CUT,
                        retarget: Retarget::Shards(to),
                    }),
                    Some(ClusterCrash {
                        shard: from - 1,
                        phase: RescalePhase::BeforeCut,
                        plan: CrashPlan::AfterBundles(5),
                    }),
                )
                .expect("elastic run");
            assert_eq!(
                run.canonical_outputs(),
                oracle.canonical_outputs(),
                "seed {seed}: {from}->{to} with a crash must match the oracle"
            );
        }
    }
}

#[test]
fn route_tables_stay_total_under_random_loads() {
    let mut rng = SbxRng::seed_from_u64(42);
    for _ in 0..50 {
        let shards = 1 + (rng.next_u64() % 16) as u32;
        let table = RouteTable::uniform(shards, 64);
        let loads: Vec<u64> = (0..64).map(|_| rng.next_u64() % 10_000).collect();
        let (rebalanced, moved) = table.rebalanced(&loads, 1.25);
        // Totality: every slot still owned by a valid shard.
        let owned: u32 = (0..shards)
            .map(|s| rebalanced.slots_of(s).len() as u32)
            .sum();
        assert_eq!(owned, 64);
        for key in (0..2_000u64).map(|_| rng.next_u64()) {
            assert!(rebalanced.owner_of(key) < shards);
        }
        // A rebalance never increases the maximum shard load.
        let before = table.shard_loads(&loads).into_iter().max().unwrap_or(0);
        let after = rebalanced
            .shard_loads(&loads)
            .into_iter()
            .max()
            .unwrap_or(0);
        assert!(after <= before, "rebalance must not worsen the hot shard");
        // Moves are deterministic.
        assert_eq!(table.rebalanced(&loads, 1.25).1, moved);
    }
}

#[test]
fn ysb_mapped_keys_route_and_shuffle_consistently() {
    const CAMPAIGNS: u64 = 10;
    let cfg_for = |shards: u32| ClusterConfig {
        key_col: 2, // ad_id
        key_map: Some(Arc::new(|ad| ad % CAMPAIGNS)),
        ..cluster_cfg(shards)
    };
    let mk_src = || YsbSource::new(9, 100, CAMPAIGNS, 100_000);
    let mk_pipe = || benchmarks::ysb(CAMPAIGNS);
    let oracle = ShardedCluster::new(cfg_for(1))
        .run(mk_src, mk_pipe, BUNDLES, INTERVAL)
        .expect("ysb oracle");
    assert!(oracle.output_records > 0);
    let sharded = ShardedCluster::new(cfg_for(4))
        .run(mk_src, mk_pipe, BUNDLES, INTERVAL)
        .expect("ysb 4 shards");
    assert_eq!(sharded.canonical_outputs(), oracle.canonical_outputs());
    // And through a rescale: window state holding raw ad ids must be
    // shuffled by campaign, like the records that produced it.
    let grown = ShardedCluster::new(cfg_for(4))
        .run_elastic(
            mk_src,
            mk_pipe,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Shards(8),
            },
        )
        .expect("ysb rescale");
    assert_eq!(grown.canonical_outputs(), oracle.canonical_outputs());
}

#[test]
fn zipf_hot_shard_rebalance_moves_the_hot_key_range() {
    let mk_src = || KvSource::new(13, 10_000, 100_000).with_zipf(1.1);
    let cluster = ShardedCluster::new(cluster_cfg(4));
    let run = cluster
        .run_elastic(
            mk_src,
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Rebalance { tolerance: 1.10 },
            },
        )
        .expect("rebalance run");
    let rescale = run.rescale.as_ref().expect("rebalance happened");
    assert_eq!(rescale.from_shards, 4);
    assert_eq!(rescale.to_shards, 4);
    assert!(
        !rescale.moved_slots.is_empty(),
        "Zipf skew must trigger slot moves"
    );
    // The phase-1 hot shard demonstrably sheds key ranges (later moves may
    // drain other shards once the hottest is flattened).
    let uniform = RouteTable::uniform(4, run.slot_loads.len() as u32);
    let hot = run
        .phase1
        .iter()
        .max_by_key(|s| s.records_in)
        .map(|s| s.shard)
        .expect("phase 1 ran");
    assert!(
        rescale
            .moved_slots
            .iter()
            .any(|&s| uniform.owner_of_slot(s) == hot),
        "a hot key range must move off shard {hot}"
    );
    // The final topology is measurably flatter than the skewed phase 1:
    // compare each phase's max shard share of its own traffic.
    let share = |shards: &[sbx_cluster::ShardSummary]| {
        let total: u64 = shards.iter().map(|s| s.records_in).sum();
        let max = shards.iter().map(|s| s.records_in).max().unwrap_or(0);
        max as f64 / total.max(1) as f64
    };
    assert!(
        share(&run.shards) < share(&run.phase1),
        "rebalance must flatten the hot shard (before {:.3}, after {:.3})",
        share(&run.phase1),
        share(&run.shards)
    );
    // Exactly-once holds through the rebalance too.
    let oracle = cluster
        .run(mk_src, benchmarks::sum_per_key, BUNDLES, INTERVAL)
        .expect("zipf oracle");
    assert_eq!(run.canonical_outputs(), oracle.canonical_outputs());
}

#[test]
fn deterministic_metrics_across_identical_runs() {
    let export = || {
        let reg = sbx_obs::MetricsRegistry::active();
        let cfg = ClusterConfig {
            metrics: reg.clone(),
            ..cluster_cfg(4)
        };
        ShardedCluster::new(cfg)
            .run_elastic(
                kv(5),
                benchmarks::sum_per_key,
                BUNDLES,
                INTERVAL,
                ElasticPlan {
                    at_epoch: CUT,
                    retarget: Retarget::Shards(8),
                },
            )
            .expect("metrics run");
        reg.snapshot().to_jsonl()
    };
    let a = export();
    let b = export();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same export bytes");
    assert!(a.contains("cluster.shard0.records_in"));
    assert!(a.contains("cluster.shuffle.wire_bytes"));
    assert!(a.contains("cluster.link."));
}

#[test]
fn invalid_plans_are_rejected() {
    let cluster = ShardedCluster::new(cluster_cfg(4));
    // Cut epoch after the stream ends.
    let err = cluster
        .run_elastic(
            kv(1),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: 99,
                retarget: Retarget::Shards(8),
            },
        )
        .expect_err("late cut must be rejected");
    assert!(matches!(err, ClusterError::Topology(_)));
    // Zero-shard retarget.
    assert!(matches!(
        cluster.run_elastic(
            kv(1),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Shards(0),
            },
        ),
        Err(ClusterError::Topology(_))
    ));
    // Epoch zero.
    assert!(matches!(
        cluster.run_elastic(
            kv(1),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: 0,
                retarget: Retarget::Shards(8),
            },
        ),
        Err(ClusterError::Topology(_))
    ));
}

/// A cluster gives one engine's answer or refuses the job. The two suite
/// pipelines that aggregate across keys are refused, naming the operator.
/// Every other single-stream benchmark, on every grouping it is wired for,
/// commits the rows of one unsharded engine — an oracle that shares no
/// routing code with the cluster — at 1 and 4 shards, and through a 4 → 8
/// rescale whose cut falls inside an open window, with a crash on shard 1
/// before the cut and, in a second run, one after it.
#[test]
fn pipelines_that_aggregate_across_keys_are_refused() {
    const RUN: usize = 6;
    let plan = Some(ElasticPlan {
        at_epoch: 1,
        retarget: Retarget::Shards(8),
    });
    let crash = |phase, plan| {
        Some(ClusterCrash {
            shard: 1,
            phase,
            plan,
        })
    };
    for b in benchmarks::SUITE.iter().filter(|b| b.streams == 1) {
        let groupings: &[GroupingSpec] = if b.grouped {
            &[
                GroupingSpec::SortMerge,
                GroupingSpec::Hash,
                GroupingSpec::Adaptive,
            ]
        } else {
            &[GroupingSpec::SortMerge]
        };
        for &grouping in groupings {
            let case = format!("{} ({})", b.name, grouping.label());
            let source = || (b.source)(1, b.keys, 100_000, None);
            let pipeline = || (b.pipeline)(grouping);
            let run = |shards, plan, crash| {
                let cfg = ClusterConfig {
                    key_col: b.key_col,
                    key_map: b.key_map.map(|map| Arc::new(map) as KeyMap),
                    ..cluster_cfg(shards)
                };
                ShardedCluster::new(cfg).run_faulty(source, pipeline, RUN, INTERVAL, plan, crash)
            };
            let global = match b.name {
                "avg-all" => Some("AvgAll"),
                "power-grid" => Some("PowerGrid"),
                _ => None,
            };
            if let Some(op) = global {
                match run(4, None, None) {
                    Err(ClusterError::Topology(msg)) => {
                        assert!(msg.starts_with(op), "{case}: {msg}");
                    }
                    other => panic!("{case}: {:?}", other.map(|r| r.output_records)),
                }
                continue;
            }
            let mut engine = CheckpointCoordinator::new();
            let cfg = cluster_cfg(1).engine;
            run_with_recovery(&cfg, source, pipeline, RUN, INTERVAL, &mut engine)
                .unwrap_or_else(|e| panic!("{case}: one engine: {e}"));
            let mut oracle: Vec<&[u64]> = engine.committed().iter().collect();
            oracle.sort_unstable();
            assert!(!oracle.is_empty(), "{case}: the engine commits rows");
            for (what, shards, plan, crash) in [
                ("1 shard", 1, None, None),
                ("4 shards", 4, None, None),
                (
                    "4 -> 8, crash before the cut",
                    4,
                    plan,
                    crash(RescalePhase::BeforeCut, CrashPlan::AfterBundles(2)),
                ),
                (
                    "4 -> 8, crash after the cut",
                    4,
                    plan,
                    crash(
                        RescalePhase::AfterCut,
                        CrashPlan::AfterBundles(INTERVAL + 1),
                    ),
                ),
            ] {
                let report =
                    run(shards, plan, crash).unwrap_or_else(|e| panic!("{case}, {what}: {e}"));
                assert_eq!(report.canonical_outputs(), oracle, "{case}, {what}");
                if let Some(c) = crash {
                    let crashed = match c.phase {
                        RescalePhase::BeforeCut => &report.phase1[1],
                        RescalePhase::AfterCut => &report.shards[1],
                    };
                    assert_eq!(crashed.crashes, 1, "{case}, {what}: the crash fired");
                    let rescale = report.rescale.as_ref().expect("the run rescaled");
                    assert!(
                        rescale.wire_bytes > 0,
                        "{case}: window state moved at the cut"
                    );
                }
            }
        }
    }
}
