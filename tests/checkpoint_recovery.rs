//! End-to-end checkpoint/recovery integration tests: barrier snapshots,
//! crash injection, exactly-once recovery, and snapshot accounting in the
//! DRAM pool (DESIGN.md §9).
//!
//! The exactly-once criterion everywhere: the coordinator's *committed*
//! output sequence after crash + recovery must be byte-identical to the
//! committed sequence of a fault-free run over the same deterministic
//! stream — no loss, no duplication, same order.

use sbx_prng::SbxRng;
use streambox_hbm::cluster::{RoutedSource, DEFAULT_SLOTS};
use streambox_hbm::engine::CrashPhase;
use streambox_hbm::prelude::*;

fn base_cfg() -> RunConfig {
    RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    }
}

/// The acceptance scenario: a TopK-per-key run is killed mid-window, well
/// past its latest checkpoint; recovery restores the snapshot, rewinds the
/// sender, and the windowed outputs come out identical to an uninterrupted
/// run — with the snapshot bytes visible in the DRAM pool accounting.
#[test]
fn topk_crash_mid_window_recovers_identically() {
    // 10 k records per event-second and 1 k-row bundles: each bundle
    // covers 0.1 s of event time, so 40 bundles span four 1 s windows and
    // a crash at bundle 17 (t = 1.7 s) falls mid-window, with window 0
    // already externalized and window 1 half-built.
    let mk_src = || KvSource::new(11, 25, 10_000).with_value_range(1_000);
    let mk_pipe = || benchmarks::topk_per_key(3);
    let cfg = base_cfg();

    let mut oracle = CheckpointCoordinator::new();
    let base = run_with_recovery(&cfg, mk_src, mk_pipe, 40, 5, &mut oracle).expect("oracle");
    assert_eq!(base.crashes, 0);
    assert!(base.report.windows_closed >= 4);
    assert!(!oracle.committed().is_empty());

    let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(17));
    let out = run_with_recovery(&cfg, mk_src, mk_pipe, 40, 5, &mut coord).expect("recover");
    assert_eq!(out.crashes, 1);
    // Bundle 17 is past the epoch-3 barrier (bundle 15).
    assert_eq!(out.resumed_epochs, vec![3]);

    // Exactly-once: committed outputs byte-identical to the fault-free run.
    assert_eq!(coord.committed(), oracle.committed());
    assert_eq!(out.report.records_in, base.report.records_in);
    assert_eq!(out.report.output_records, base.report.output_records);
    assert_eq!(out.report.windows_closed, base.report.windows_closed);

    // Snapshot bytes are real DRAM-pool allocations, visible in the
    // accounting the balancer watches. (Across a crash the store also
    // retains snapshots from the dead engine's pool, so only the snapshot
    // just persisted is guaranteed to be in the *current* pool's usage.)
    assert!(!coord.samples().is_empty());
    for s in coord.samples() {
        assert!(s.snapshot_bytes > 0);
        assert!(
            s.dram_used_bytes >= s.snapshot_bytes,
            "a fresh snapshot's bytes must show up in DRAM accounting"
        );
    }
}

/// One crash-and-recover comparison against the fault-free oracle over the
/// same stream: committed rows, record counts and snapshot accounting.
fn crash_and_compare<S: Sources>(
    cfg: &RunConfig,
    mk_src: impl Fn() -> S,
    mk_pipe: impl Fn() -> Pipeline,
    interval: u64,
    plan: CrashPlan,
    what: &str,
) {
    let bundles = 18usize;
    let mut oracle = CheckpointCoordinator::new();
    let base =
        run_with_recovery(cfg, &mk_src, &mk_pipe, bundles, interval, &mut oracle).expect("oracle");
    assert!(!oracle.committed().is_empty(), "{what}: no output at all");

    let mut coord = CheckpointCoordinator::with_crash(plan);
    let out =
        run_with_recovery(cfg, &mk_src, &mk_pipe, bundles, interval, &mut coord).expect("recover");
    // An AtBarrier plan may target an epoch the cadence never reaches;
    // otherwise exactly one crash fires.
    assert!(out.crashes <= 1, "{what}");

    assert_eq!(
        coord.committed(),
        oracle.committed(),
        "{what}: outputs diverged"
    );
    assert_eq!(out.report.records_in, base.report.records_in, "{what}");
    assert_eq!(
        out.report.output_records, base.report.output_records,
        "{what}"
    );

    // Snapshots live inside the accounted pool: never over capacity.
    let dram_capacity = cfg.machine.dram.capacity_bytes;
    for s in coord.samples() {
        assert!(s.store_bytes <= dram_capacity, "{what}");
        assert!(s.dram_used_bytes <= dram_capacity, "{what}");
    }
}

/// Property test: whatever the benchmark of the suite (all ten rows, the
/// two-stream ones included), whatever the crash point (bundle offsets,
/// barrier phases) and whatever the checkpoint cadence, recovery is
/// exactly-once and snapshots never exceed the DRAM pool's capacity. 18
/// bundles of 500 records at 3 000 records per event-second span three
/// windows of a single stream, so crashes land before, between and after
/// window closes.
#[test]
fn random_crash_points_recover_exactly_once() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_ec04);
    let phases = [
        CrashPhase::BarrierBeforeAlignment,
        CrashPhase::BarrierAligned,
        CrashPhase::BarrierBeforeCommit,
        CrashPhase::BarrierCommitted,
        CrashPhase::RoundEnd,
    ];
    let cfg = RunConfig {
        cores: 8,
        sender: SenderConfig {
            bundle_rows: 500,
            bundles_per_watermark: 3,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    for b in &benchmarks::SUITE {
        for case in 0..12u64 {
            let interval = rng.random_range(1..8);
            let seed = rng.random_range(1..1_000_000);
            let plan = if case % 2 == 0 {
                CrashPlan::AfterBundles(rng.random_range(1..18))
            } else {
                CrashPlan::AtBarrier {
                    epoch: rng.random_range(1..4),
                    phase: phases[rng.random_range(0..phases.len() as u64) as usize],
                }
            };
            let what = format!("{} case {case}: {plan:?}, interval {interval}", b.name);
            let mk_src = || b.sources(seed, 40, 3_000, None);
            let mk_pipe = || (b.pipeline)(GroupingSpec::SortMerge);
            crash_and_compare(&cfg, mk_src, mk_pipe, interval, plan, &what);
        }
    }
}

/// A crash after the final checkpoint of the run: only the post-snapshot
/// tail is replayed, and the tail's outputs still come out exactly once.
#[test]
fn crash_after_last_checkpoint_replays_only_the_tail() {
    let mk_src = || KvSource::new(13, 30, 1_000_000).with_value_range(100);
    let mk_pipe = benchmarks::sum_per_key;
    let cfg = base_cfg();
    let mut oracle = CheckpointCoordinator::new();
    let base = run_with_recovery(&cfg, mk_src, mk_pipe, 24, 4, &mut oracle).expect("oracle");

    // Barriers fire after bundles 4, 8, ..., 20; bundle 22 is past the
    // last one, so recovery resumes from epoch 5 and replays 21..=24.
    let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(22));
    let out = run_with_recovery(&cfg, mk_src, mk_pipe, 24, 4, &mut coord).expect("recover");
    assert_eq!(out.crashes, 1);
    assert_eq!(out.resumed_epochs, vec![5]);
    assert_eq!(coord.committed(), oracle.committed());
    assert_eq!(out.report.output_records, base.report.output_records);
}

/// Per-shard coordinated checkpoints on a cluster: every shard sees the
/// same barrier cadence, so the coordinated epoch (min over shards) is the
/// common prefix a cluster-wide recovery would restore.
#[test]
fn cluster_checkpoints_coordinate_across_shards() {
    let mk_src = || KvSource::new(17, 100, 1_000_000).with_value_range(1_000);
    // Each shard's engine under its own coordinator, barriers every 4 of
    // 16 bundles.
    let coords: Vec<CheckpointCoordinator> = (0..2)
        .map(|shard| {
            let mut coord = CheckpointCoordinator::new();
            Engine::new(base_cfg())
                .run_with_hooks(
                    RoutedSource::new(mk_src(), 0, RouteTable::uniform(2, DEFAULT_SLOTS), shard),
                    benchmarks::sum_per_key(),
                    16,
                    Some(4),
                    &mut coord,
                )
                .expect("shard run");
            coord
        })
        .collect();
    let (a, b) = (coords[0].store(), coords[1].store());
    // Identical cadence on every shard: both stores hold the same epochs
    // and the coordinated epoch is their (equal) latest.
    assert_eq!(a.epochs(), b.epochs());
    let coord_epoch = coordinated_epoch(&[a, b]);
    assert_eq!(coord_epoch, a.latest_epoch());
    assert!(coord_epoch.unwrap_or(0) >= 3, "16 bundles / interval 4");
    // Both shards' snapshots restore to matching replay offsets.
    let sa = a.latest().expect("decode").expect("snapshot");
    let sb = b.latest().expect("decode").expect("snapshot");
    assert_eq!(sa.epoch, sb.epoch);
    assert_eq!(sa.bundles_sent, sb.bundles_sent);
    // The sharded cluster keeps the same cadence: cutting it at that epoch
    // and resuming every shard from its snapshot loses and repeats nothing.
    let cluster = ShardedCluster::new(ClusterConfig {
        shards: 2,
        engine: base_cfg(),
        ..ClusterConfig::default()
    });
    let plan = ElasticPlan {
        at_epoch: sa.epoch,
        retarget: Retarget::Shards(2),
    };
    let whole = cluster.run(mk_src, benchmarks::sum_per_key, 16, 4);
    let cut = cluster.run_elastic(mk_src, benchmarks::sum_per_key, 16, 4, plan);
    assert_eq!(
        cut.expect("cut at the coordinated epoch")
            .canonical_outputs(),
        whole.expect("cluster run").canonical_outputs()
    );
}

/// Resuming with a mismatched pipeline (different stateful operator count)
/// is a typed configuration error.
#[test]
fn snapshot_pipeline_mismatch_is_config_error() {
    use streambox_hbm::engine::EngineError;
    let mk_src = || KvSource::new(19, 20, 1_000_000);
    let cfg = base_cfg();
    let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(9));
    let err = run_with_recovery(&cfg, mk_src, benchmarks::sum_per_key, 16, 4, &mut coord);
    assert!(err.is_ok(), "matching pipeline recovers fine");
    let snap = coord
        .store()
        .latest()
        .expect("decode")
        .expect("snapshot exists");
    // The snapshot holds one stateful operator's state; a stateless
    // pipeline has nowhere to put it.
    let stateless = PipelineBuilder::new(streambox_hbm::records::WindowSpec::fixed(1_000_000_000))
        .windowed()
        .build();
    let engine = Engine::new(cfg);
    let out = engine.resume_with_hooks(
        mk_src(),
        stateless,
        16,
        Some(4),
        &mut CheckpointCoordinator::new(),
        &snap,
    );
    assert!(
        matches!(out, Err(EngineError::Config(_))),
        "mismatched pipeline must be a config error, got {out:?}"
    );
}

/// The hash and adaptive grouping backends (DESIGN.md §14) survive a
/// mid-window crash exactly-once: the committed outputs after recovery are
/// byte-identical to a fault-free oracle — and to the sort-merge path's
/// oracle, so the backend choice stays invisible across a crash. For the
/// adaptive run the crash lands after the backend has flipped to hash (the
/// low-cardinality stream converges there after its cold-start window), so
/// recovery restores a hash table plus the decision history mid-window.
#[test]
fn hash_and_adaptive_groupby_crash_mid_window_recover_identically() {
    let mk_src = || KvSource::new(23, 25, 10_000).with_value_range(1_000);
    let cfg = base_cfg();

    let mut sort_oracle = CheckpointCoordinator::new();
    let sort_base = run_with_recovery(
        &cfg,
        mk_src,
        benchmarks::sum_per_key,
        40,
        5,
        &mut sort_oracle,
    )
    .expect("sort oracle");
    assert!(sort_base.report.windows_closed >= 3);

    for grouping in [GroupingSpec::Hash, GroupingSpec::Adaptive] {
        let mk_pipe = || benchmarks::sum_per_key_grouped(grouping);

        let mut oracle = CheckpointCoordinator::new();
        let base = run_with_recovery(&cfg, mk_src, mk_pipe, 40, 5, &mut oracle).expect("oracle");
        assert_eq!(base.crashes, 0);

        // Bundle 17 (t = 1.7 s) is mid-window-1, past the epoch-3 barrier.
        let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(17));
        let out = run_with_recovery(&cfg, mk_src, mk_pipe, 40, 5, &mut coord).expect("recover");
        assert_eq!(out.crashes, 1, "{grouping:?}");
        assert_eq!(out.resumed_epochs, vec![3], "{grouping:?}");

        // Exactly-once against the backend's own fault-free run...
        assert_eq!(coord.committed(), oracle.committed(), "{grouping:?}");
        assert_eq!(out.report.records_in, base.report.records_in);
        assert_eq!(out.report.output_records, base.report.output_records);
        assert_eq!(out.report.windows_closed, base.report.windows_closed);
        // ...and output-transparent against the sort-merge oracle.
        assert_eq!(
            coord.committed(),
            sort_oracle.committed(),
            "{grouping:?} committed bytes must match the sort-merge path"
        );
    }
}

/// The row log behind two-phase output: a bundle's rows, the same records
/// reached through a KPA's pointers (bare or windowed), and rows pushed one
/// at a time are the same log; a crash discards what is pending and leaves
/// what committed.
#[test]
fn row_log_holds_the_same_rows_however_they_arrive() {
    use std::sync::Arc;
    use streambox_hbm::checkpoint::RowLog;
    use streambox_hbm::engine::{CheckpointHooks, StreamData};
    use streambox_hbm::records::WindowId;

    let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
    let words: Vec<u64> = (0..30).collect(); // ten (key, value, ts) rows
    let bundle = RecordBundle::from_rows(&env, Schema::kvt(), &words).expect("bundle");
    let mut ctx = ExecCtx::new(&env);
    let mut kpa =
        || Kpa::extract(&mut ctx, &bundle, Col(0), MemKind::Dram, Priority::Normal).expect("kpa");
    let outputs = [
        StreamData::Bundle(Arc::clone(&bundle)),
        StreamData::Kpa(kpa()),
        StreamData::Windowed(WindowId(4), kpa()),
    ];

    let mut by_row = RowLog::default();
    for row in words.chunks(3) {
        by_row.push_row(row);
    }
    assert_eq!(by_row.len(), 10);
    assert!(by_row.iter().eq(words.chunks(3)));
    for data in &outputs {
        let mut log = RowLog::default();
        log.push_output(data);
        assert_eq!(log, by_row);
        assert!((&log).into_iter().eq(words.chunks(3)));
    }
    // A row of another width is still one row, after the others.
    let mut mixed = by_row.clone();
    mixed.push_row(&[7]);
    mixed.extend(&by_row);
    assert_eq!(mixed.len(), 21);
    assert_eq!(mixed.iter().nth(10), Some(&[7u64][..]));
    assert_eq!(mixed.iter().nth(11), Some(&words[..3]));
    assert_ne!(mixed, by_row);

    let mut coord = CheckpointCoordinator::new();
    coord.on_output(&outputs[0]);
    coord.commit_pending();
    coord.on_output(&outputs[1]);
    assert_eq!(coord.pending_rows(), 10);
    coord.discard_pending();
    assert_eq!(coord.pending_rows(), 0);
    assert_eq!(coord.committed(), &by_row);
    assert!(RowLog::default().is_empty() && !coord.committed().is_empty());
}
