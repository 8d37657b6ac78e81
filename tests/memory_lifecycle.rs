//! Memory-lifecycle integration tests: the reference-counted reclamation
//! protocol of paper §5.1 must free every bundle and every KPA by the time
//! a pipeline run completes, and the balancer's spill path must keep the
//! engine alive when HBM is tiny.

use streambox_hbm::engine::{CrashPhase, EngineError};
use streambox_hbm::prelude::*;

fn small_sender() -> SenderConfig {
    SenderConfig {
        bundle_rows: 2_000,
        bundles_per_watermark: 5,
        nic: NicModel::rdma_40g(),
    }
}

#[test]
fn run_leaves_no_live_bundles_when_outputs_dropped() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: false,
        sender: small_sender(),
        ..RunConfig::default()
    };
    let engine = Engine::new(cfg);
    let env = engine.env().clone();
    let report = engine
        .run(
            KvSource::new(1, 100, 100_000),
            benchmarks::sum_per_key(),
            25,
        )
        .expect("run");
    assert!(report.records_in > 0);
    assert_eq!(
        env.live_bundles(),
        0,
        "all ingested and emitted bundles must be reclaimed"
    );
}

#[test]
fn pool_accounting_returns_to_zero() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: false,
        sender: small_sender(),
        ..RunConfig::default()
    };
    let engine = Engine::new(cfg);
    let env = engine.env().clone();
    engine
        .run(
            KvSource::new(2, 100, 100_000),
            benchmarks::topk_per_key(3),
            25,
        )
        .expect("run");
    // The run dropped its last buffer: nothing is left accounted.
    assert_eq!(env.pool(MemKind::Hbm).used_bytes(), 0, "HBM leak");
    assert_eq!(env.pool(MemKind::Dram).used_bytes(), 0, "DRAM leak");
}

#[test]
fn tiny_hbm_forces_spill_but_run_succeeds() {
    let mut machine = MachineConfig::knl().scaled(1.0 / 256.0);
    machine.hbm.capacity_bytes = 256 * 1024; // 256 KiB of "HBM"
    let cfg = RunConfig {
        machine,
        cores: 16,
        sender: small_sender(),
        collect_outputs: true,
        ..RunConfig::default()
    };
    let engine = Engine::new(cfg);
    let env = engine.env().clone();
    let report = engine
        .run(
            KvSource::new(3, 1_000, 100_000).with_value_range(100),
            benchmarks::sum_per_key(),
            25,
        )
        .expect("run must survive HBM exhaustion by spilling");
    assert!(report.output_records > 0);
    // Spills happened: DRAM must have been used for KPA traffic well beyond
    // bundle storage alone, and some HBM allocations failed.
    assert!(
        env.pool(MemKind::Hbm).stats().failed_allocs > 0,
        "expected HBM pressure"
    );
}

#[test]
fn urgent_reserve_keeps_window_closes_working() {
    // HBM sized so normal allocations exhaust it but the reserved slice
    // still serves Urgent (window-close) allocations.
    let mut machine = MachineConfig::knl().scaled(1.0 / 256.0);
    machine.hbm.capacity_bytes = 2 << 20;
    let cfg = RunConfig {
        machine,
        cores: 16,
        sender: SenderConfig {
            bundle_rows: 5_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        collect_outputs: true,
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(
            KvSource::new(4, 500, 500_000).with_value_range(1_000),
            benchmarks::avg_per_key(),
            40,
        )
        .expect("run");
    assert!(report.windows_closed > 0);
    assert!(report.output_records > 0);
}

/// Crash injection tears a run down mid-flight with bundles still held
/// in the sink and in operator state; recovery then
/// replays them. Every bundle pinned across that whole crash + recover
/// cycle must still be reclaimed — the snapshot store holds materialized
/// row copies, never bundle references.
#[test]
fn crash_and_recovery_leave_no_live_bundles() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: false,
        sender: small_sender(),
        ..RunConfig::default()
    };
    let mk_src = || KvSource::new(6, 100, 100_000).with_value_range(100);
    let plans = [
        CrashPlan::AfterBundles(13),
        // Mid-barrier: every bundle ahead of the barrier has been driven
        // into the sink or window state when the crash lands — the
        // subtlest RC path.
        CrashPlan::AtBarrier {
            epoch: 3,
            phase: CrashPhase::BarrierAligned,
        },
    ];
    for plan in plans {
        let mut coord = CheckpointCoordinator::with_crash(plan);
        // The loop of `run_with_recovery`, spelled out so each attempt's
        // memory environment can be inspected once its engine is gone.
        // The coordinator (snapshots, committed outputs) outlives every
        // attempt: nothing it holds may pin a bundle.
        let mut crashes = 0;
        let report = loop {
            let engine = Engine::new(cfg.clone());
            let env = engine.env().clone();
            let snap = coord.store().latest().expect("snapshot store");
            let pipeline = benchmarks::topk_per_key(3);
            let result = match &snap {
                Some(s) => engine.resume_with_hooks(mk_src(), pipeline, 25, Some(5), &mut coord, s),
                None => engine.run_with_hooks(mk_src(), pipeline, 25, Some(5), &mut coord),
            };
            let crashed = matches!(result, Err(EngineError::Crashed(_)));
            assert_eq!(
                env.live_bundles(),
                0,
                "every RC-pinned bundle must be released ({plan:?}, crashed: {crashed})"
            );
            match result {
                Ok(report) => {
                    coord.commit_pending();
                    break report;
                }
                Err(EngineError::Crashed(_)) => {
                    crashes += 1;
                    coord.discard_pending();
                }
                Err(e) => panic!("recover: {e}"),
            }
        };
        assert_eq!(crashes, 1, "{plan:?}");
        assert!(report.records_in > 0);
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let run_once = || {
        let cfg = RunConfig {
            cores: 16,
            collect_outputs: true,
            sender: small_sender(),
            ..RunConfig::default()
        };
        let report = Engine::new(cfg)
            .run(
                KvSource::new(5, 50, 100_000).with_value_range(1_000),
                benchmarks::sum_per_key(),
                20,
            )
            .expect("run");
        let mut digest: Vec<(u64, u64, u64)> = report
            .outputs
            .iter()
            .flat_map(|b| {
                (0..b.rows())
                    .map(move |r| (b.value(r, Col(0)), b.value(r, Col(1)), b.value(r, Col(2))))
            })
            .collect();
        digest.sort_unstable();
        (report.records_in, report.windows_closed, digest)
    };
    assert_eq!(run_once(), run_once(), "same seed, same results");
}

/// The sender hands its receive buffer to each bundle instead of copying
/// it into one; the DRAM pool must not be able to tell. Bundle for bundle —
/// whether the source fills exactly what was asked (`KvSource`) or a
/// varying fraction of it that straddles two size classes (one shard of a
/// 4-way `RoutedSource`) — the pool's statistics equal those of the
/// copying path (`fill` into scratch, `RecordBundle::from_rows`), with
/// bundles released in the same pattern on both sides.
#[test]
fn sender_hand_off_accounts_like_a_copy() {
    use streambox_hbm::cluster::RoutedSource;
    use streambox_hbm::ingress::IngressEvent;

    fn check<S: Source>(what: &str, rows: usize, make: impl Fn() -> S) {
        let machine = MachineConfig::knl().scaled(0.01);
        let (copied, handed) = (MemEnv::new(machine.clone()), MemEnv::new(machine));
        let cfg = SenderConfig {
            bundle_rows: rows,
            bundles_per_watermark: 7,
            nic: NicModel::unlimited(),
        };
        let mut oracle = make();
        let mut scratch = Vec::new();
        let mut sender = Sender::new(&handed, make(), cfg);
        let (mut live_copied, mut live_handed) = (Vec::new(), Vec::new());
        let mut classes = std::collections::BTreeSet::new();
        for bundle in 0..50 {
            scratch.clear();
            oracle.fill(rows, &mut scratch);
            let want = RecordBundle::from_rows(&copied, oracle.schema(), &scratch).expect("fits");
            let got = loop {
                match sender.next_event().expect("fits") {
                    IngressEvent::Bundle(b, ..) => break b,
                    IngressEvent::Watermark(_) | IngressEvent::Barrier(_) => {}
                }
            };
            assert_eq!(got.as_rows(), want.as_rows(), "{what}: bundle {bundle}");
            classes.insert(scratch.len().next_power_of_two());
            live_copied.push(want);
            live_handed.push(got);
            // A few bundles stay pinned, as open windows pin them; every
            // tenth bundle closes them all.
            if bundle % 10 == 9 {
                live_copied.clear();
                live_handed.clear();
            } else if live_copied.len() > 3 {
                live_copied.remove(0);
                live_handed.remove(0);
            }
            assert_eq!(
                handed.pool(MemKind::Dram).stats(),
                copied.pool(MemKind::Dram).stats(),
                "{what}: after bundle {bundle}"
            );
        }
        assert_eq!(handed.live_bundles(), copied.live_bundles());
        assert!(what != "routed" || classes.len() > 1, "{what}: {classes:?}");
    }

    check("exact", 1_000, || KvSource::new(5, 1_000, 100_000));
    let table = RouteTable::uniform(4, 64);
    check("routed", 700, || {
        RoutedSource::new(KvSource::new(5, 1_000, 100_000), 0, table.clone(), 1)
    });
}
