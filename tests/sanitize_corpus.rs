//! Seeded-bug corpus for the pointer-provenance sanitizer.
//!
//! One deliberately-broken fixture per bug class, fault-free-oracle
//! style: each fixture models its fault *in shadow state only* (an
//! injected free, a generation bump, a forged pointer, a rebound pool)
//! over perfectly healthy real objects. The guarded KPA dereference
//! paths validate every resolution, record a span-attributed
//! [`sbx_sanitize::Report`], and substitute a benign value — so every
//! fixture runs to completion and the report is the sole observable.
//!
//! Each fixture asserts it trips **exactly** the intended check and
//! nothing else, and a clean end-to-end engine run asserts the absence
//! of findings on healthy code.

#![cfg(feature = "sanitize")]

use std::sync::Arc;

use sbx_kpa::{reduce_keyed_scalar, ExecCtx, Kpa};
use sbx_records::{BundleId, Col, RecordBundle, RecordRef, Schema};
use sbx_sanitize::{op_scope, BugClass, Sanitizer};
use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};
use streambox_hbm::engine::ops::emit_group;
use streambox_hbm::prelude::*;

fn env() -> MemEnv {
    MemEnv::new(MachineConfig::knl().scaled(0.01))
}

fn bundle(env: &MemEnv, rows: &[(u64, u64, u64)]) -> Arc<RecordBundle> {
    let flat: Vec<u64> = rows.iter().flat_map(|&(k, v, t)| [k, v, t]).collect();
    RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap()
}

fn alloc_id(b: &RecordBundle) -> u64 {
    b.id().0 as u64
}

/// Asserts `san` recorded exactly the given classes, in order.
fn assert_classes(san: &Sanitizer, classes: &[BugClass]) {
    let got: Vec<BugClass> = san.reports().iter().map(|r| r.class).collect();
    assert_eq!(got, classes, "unexpected findings: {:#?}", san.reports());
}

#[test]
fn fixture_use_after_free() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    // Single-row bundle so the copy-out retrips the same (class, alloc,
    // row) and dedups to one finding.
    let b = {
        let _g = op_scope(11, "ingest");
        bundle(&env, &[(5, 50, 0)])
    };
    let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();

    // The bug: a rogue reclamation frees the records while the KPA still
    // points into them (modelled in shadow state; `b` stays healthy).
    {
        let _g = op_scope(12, "rogue-reclaim");
        env.sanitizer().inject_free(alloc_id(&b));
    }

    // Pointer resolution is caught and yields the benign 0.
    let v = {
        let _g = op_scope(13, "aggregate");
        kpa.value_at(0, Col(1))
    };
    assert_eq!(v, 0);
    // Record copy-out over the same pointer is caught too (deduped) and
    // emits a zero row, so the run completes fault-free.
    let out = {
        let _g = op_scope(13, "aggregate");
        kpa.materialize(&mut ctx).unwrap()
    };
    assert_eq!(out.row(0), &[0, 0, 0]);

    assert_classes(env.sanitizer(), &[BugClass::UseAfterFree]);
    let r = &env.sanitizer().reports()[0];
    assert_eq!((r.alloc_span, r.fault_span), (11, 13));
    assert_eq!((r.owner, r.fault_owner), ("ingest", "aggregate"));

    // The real drop-path free absorbs the injected tombstone silently:
    // still exactly one finding.
    drop((kpa, b, out));
    assert_eq!(env.sanitizer().reports().len(), 1);
}

#[test]
fn fixture_use_after_spill_stale_tier() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let b = {
        let _g = op_scope(21, "ingest");
        bundle(&env, &[(1, 10, 0), (2, 20, 1)])
    };
    // The KPA captures the bundle at generation 1.
    let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
    assert_eq!(kpa.expected_generation(b.id()), Some(1));

    // The bug: a spill relocates the records to another tier, bumping the
    // shadow generation; the KPA's pointers are now use-after-spill.
    {
        let _g = op_scope(22, "spill");
        env.sanitizer()
            .relocate(alloc_id(&b), MemKind::Hbm.index() as u8);
    }

    let v = {
        let _g = op_scope(23, "join");
        kpa.value_at(0, Col(1))
    };
    assert_eq!(v, 0);
    assert_classes(env.sanitizer(), &[BugClass::StaleTier]);
    let r = &env.sanitizer().reports()[0];
    assert_eq!((r.alloc_span, r.fault_span), (21, 23));
    assert_eq!(r.fault_owner, "join");
}

#[test]
fn fixture_double_free() {
    let env = env();
    let b = {
        let _g = op_scope(31, "ingest");
        bundle(&env, &[(1, 10, 0)])
    };
    {
        let _g = op_scope(32, "reclaim-a");
        env.sanitizer().inject_free(alloc_id(&b));
    }
    {
        let _g = op_scope(33, "reclaim-b");
        env.sanitizer().inject_free(alloc_id(&b));
    }
    assert_classes(env.sanitizer(), &[BugClass::DoubleFree]);
    let r = &env.sanitizer().reports()[0];
    assert_eq!((r.alloc_span, r.fault_span), (31, 33));
    assert_eq!(r.fault_owner, "reclaim-b");
}

#[test]
fn fixture_cross_pool_confusion() {
    let env_a = env();
    let env_b = env();
    let mut ctx = ExecCtx::new(&env_a);
    let b = {
        let _g = op_scope(41, "ingest-a");
        bundle(&env_a, &[(1, 10, 0)])
    };
    let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();

    // The bug: the KPA's pointers get resolved against the wrong memory
    // pool (a shard handed to the wrong engine instance).
    kpa.rebind_sanitizer(&env_b);
    let v = {
        let _g = op_scope(42, "shuffle-b");
        kpa.value_at(0, Col(1))
    };
    assert_eq!(v, 0);

    // The wrong pool reports cross-pool confusion — not a wild pointer,
    // because pool A's index proves the allocation exists.
    assert_classes(env_b.sanitizer(), &[BugClass::CrossPool]);
    let r = &env_b.sanitizer().reports()[0];
    assert_eq!(r.fault_span, 42);
    assert!(
        r.detail
            .contains(&format!("pool {}", env_a.sanitizer().pool_id())),
        "detail should name the owning pool: {}",
        r.detail
    );
    // The owning pool saw nothing wrong.
    assert_classes(env_a.sanitizer(), &[]);
}

#[test]
fn fixture_wild_pointer() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let b = {
        let _g = op_scope(51, "ingest");
        bundle(&env, &[(1, 10, 0), (2, 20, 1)])
    };
    let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();

    // Bug one: a forged pointer naming a bundle no pool ever issued.
    kpa.corrupt_ptr(
        0,
        RecordRef {
            bundle: BundleId(u32::MAX - 17),
            row: 0,
        }
        .pack(),
    );
    // Bug two: a pointer into a real bundle but past its last row.
    kpa.corrupt_ptr(
        1,
        RecordRef {
            bundle: b.id(),
            row: 999,
        }
        .pack(),
    );

    let _g = op_scope(52, "aggregate");
    assert_eq!(kpa.value_at(0, Col(1)), 0);
    assert_eq!(kpa.value_at(1, Col(1)), 0);
    assert_classes(
        env.sanitizer(),
        &[BugClass::WildPointer, BugClass::WildPointer],
    );
    let reports = env.sanitizer().reports();
    assert_eq!(reports[0].fault_span, 52);
    assert_eq!(
        reports[1].alloc_span, 51,
        "row overflow names the real allocation"
    );
}

/// A count reads no record, yet the sanitizer still sees every pointer it
/// would have dereferenced: a forged one is a wild-pointer finding, and the
/// count itself is unaffected.
#[test]
fn fixture_wild_pointer_in_a_count() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let b = {
        let _g = op_scope(53, "ingest");
        bundle(&env, &[(1, 10, 0), (1, 11, 1), (2, 20, 2)])
    };
    let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
    kpa.mark_sorted();
    kpa.corrupt_ptr(
        1,
        RecordRef {
            bundle: BundleId(u32::MAX - 19),
            row: 0,
        }
        .pack(),
    );

    let _g = op_scope(54, "count");
    let mut counts = Vec::new();
    reduce_keyed_scalar(&mut ctx, &kpa, None, |key, _, count| {
        counts.push((key, count));
    });
    assert_eq!(counts, vec![(1, 2), (2, 1)]);
    assert_classes(env.sanitizer(), &[BugClass::WildPointer]);
    assert_eq!(env.sanitizer().reports()[0].fault_span, 54);
}

/// A fused window close reads every run through its own resolver: a forged
/// pointer in one run of three is a wild-pointer finding in the close's
/// span and sums as 0, as `Resolver::value` reads it, while the rest fold
/// as usual; a `Count`, which reads no record, still validates it, and a
/// Median's gather reads it as 0 too.
#[test]
fn fixture_wild_pointer_in_a_fused_close() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let bundles = {
        let _g = op_scope(71, "ingest");
        [
            bundle(&env, &[(1, 10, 0), (2, 20, 1)]),
            bundle(&env, &[(1, 100, 2), (3, 30, 3)]),
            bundle(&env, &[(2, 5, 4)]),
        ]
    };
    let window = |ctx: &mut ExecCtx| -> Vec<Kpa> {
        let mut kpas: Vec<Kpa> = bundles
            .iter()
            .map(|b| Kpa::extract(ctx, b, Col(0), MemKind::Hbm, Priority::Normal).unwrap())
            .collect();
        kpas.iter_mut().for_each(Kpa::mark_sorted);
        let wild = RecordRef {
            bundle: BundleId(u32::MAX - 23),
            row: 0,
        };
        kpas[1].corrupt_ptr(1, wild.pack());
        kpas
    };
    let hbm = (MemKind::Hbm, Priority::Normal);

    let kpas = window(&mut ctx);
    let (sums, _) = {
        let _g = op_scope(72, "close");
        Kpa::merge_fold(&mut ctx, kpas, Some(Col(1)), 0, hbm.0, hbm.1).unwrap()
    };
    assert_eq!(sums, vec![1, 110, 0, 2, 25, 0, 3, 0, 0]);
    assert_classes(env.sanitizer(), &[BugClass::WildPointer]);
    assert_eq!(env.sanitizer().reports()[0].fault_span, 72);

    env.sanitizer().clear_reports();
    let kpas = window(&mut ctx);
    let (counts, _) = {
        let _g = op_scope(73, "count");
        Kpa::merge_fold(&mut ctx, kpas, None, 0, hbm.0, hbm.1).unwrap()
    };
    assert_eq!(counts, vec![1, 2, 0, 2, 2, 0, 3, 1, 0]);
    assert_classes(env.sanitizer(), &[BugClass::WildPointer]);
    assert_eq!(env.sanitizer().reports()[0].fault_span, 73);

    env.sanitizer().clear_reports();
    let kpas = window(&mut ctx);
    let mut medians = Vec::new();
    {
        let _g = op_scope(74, "median");
        let median = |key, values: &mut [u64]| {
            emit_group(AggKind::Median, key, values, 0, &mut medians);
        };
        Kpa::merge_gather(&mut ctx, kpas, Col(1), hbm.0, hbm.1, median).unwrap();
    }
    // Key 3 gathers the forged value alone, read as 0.
    assert_eq!(medians, vec![1, 10, 0, 2, 5, 0, 3, 0, 0]);
    assert_classes(env.sanitizer(), &[BugClass::WildPointer]);
    assert_eq!(env.sanitizer().reports()[0].fault_span, 74);
}

#[test]
fn fixture_leak_at_engine_drop() {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let b = {
        let _g = op_scope(61, "ingest");
        bundle(&env, &[(1, 10, 0)])
    };
    let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();

    // The bug: the engine drops while the bundle is still pinned and is
    // not part of the emitted outputs.
    {
        let _g = op_scope(62, "engine-drop");
        env.sanitizer().sweep_leaks(&[]);
    }
    assert_classes(env.sanitizer(), &[BugClass::Leak]);
    let r = &env.sanitizer().reports()[0];
    assert_eq!(r.alloc, alloc_id(&b));
    assert_eq!((r.alloc_span, r.fault_span), (61, 62));
    assert_eq!(r.owner, "ingest");

    // Excluding the bundle (a legitimate output) reports nothing new.
    env.sanitizer().clear_reports();
    env.sanitizer().sweep_leaks(&[alloc_id(&b)]);
    assert_classes(env.sanitizer(), &[]);
    drop(kpa);
}

/// A healthy end-to-end engine run — ingestion, grouping, window closure,
/// materialized outputs, engine-drop leak sweep — must produce zero
/// findings.
#[test]
fn clean_engine_run_has_no_findings() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let engine = Engine::new(cfg);
    let san = engine.env().sanitizer().clone();
    let source = KvSource::new(7, 50, 100_000).with_value_range(1_000);
    let report = engine
        .run(source, benchmarks::sum_per_key(), 20)
        .expect("engine run");
    assert!(report.output_records > 0);
    assert!(
        san.reports().is_empty(),
        "clean run produced findings: {:#?}",
        san.reports()
    );
}

/// The sanitizer only observes — same-seed runs stay bit-identical with
/// the feature compiled in.
#[test]
fn sanitized_runs_are_deterministic() {
    let run = || {
        let cfg = RunConfig {
            cores: 16,
            collect_outputs: true,
            sender: SenderConfig {
                bundle_rows: 500,
                bundles_per_watermark: 4,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        };
        let source = KvSource::new(99, 20, 100_000).with_value_range(500);
        Engine::new(cfg)
            .run(source, benchmarks::sum_per_key(), 12)
            .expect("engine run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.records_in, b.records_in);
    assert_eq!(a.output_records, b.output_records);
    assert_eq!(a.sim_secs, b.sim_secs);
    let rows = |r: &RunReport| -> Vec<Vec<u64>> {
        r.outputs
            .iter()
            .flat_map(|bdl| (0..bdl.rows()).map(move |i| bdl.row(i).to_vec()))
            .collect()
    };
    assert_eq!(rows(&a), rows(&b), "outputs must be bit-identical");
}
