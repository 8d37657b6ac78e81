//! Property test for the pluggable grouping backends (DESIGN.md §14):
//! over random seeds, cardinalities, skews and thread counts, every
//! backend — KPA sort-merge, hash, row-engine baseline, and the
//! adaptive chooser — must emit byte-identical committed window
//! aggregates, and the adaptive backend's per-window decisions must be a
//! pure function of the stream (identical across thread counts and across
//! repeated same-seed runs).

use sbx_prng::SbxRng;
use streambox_hbm::engine::ops::{AggKind, KeyedAggregate, WindowInto};
use streambox_hbm::engine::{
    DemandBalancer, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData,
};
use streambox_hbm::prelude::*;

const ROWS_PER_WINDOW: usize = 2_000;
const WINDOWS: usize = 3;
const BUNDLES_PER_WINDOW: usize = 8;
const WINDOW_TICKS: u64 = 10;
const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Deterministic key stream: uniform draws over `domain`, or cubed-unit
/// draws (mass piled onto low keys) when `skewed`.
fn gen_keys(seed: u64, domain: u64, skewed: bool) -> Vec<u64> {
    let mut rng = SbxRng::seed_from_u64(seed);
    (0..ROWS_PER_WINDOW * WINDOWS)
        .map(|_| {
            if skewed {
                let u = rng.random_f64();
                (((u * u * u) * domain as f64) as u64).min(domain - 1)
            } else {
                rng.random_range(0..domain)
            }
        })
        .collect()
}

/// Feeds the stream through `WindowInto -> KeyedAggregate` with the given
/// backend and thread count; returns the flattened committed output rows
/// and the per-window backend decisions.
fn run(
    keys: &[u64],
    kind: AggKind,
    grouping: GroupingSpec,
    threads: usize,
) -> (Vec<u64>, Vec<&'static str>) {
    let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
    let mut bal = DemandBalancer::new();
    let spec = WindowSpec::fixed(WINDOW_TICKS);
    let mut window_op = WindowInto::new(spec);
    let mut agg = KeyedAggregate::new(spec, Col(0), Col(1), kind).with_grouping(grouping);
    let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, threads, ImpactTag::High);

    let mut out = Vec::new();
    let mut picks = Vec::new();
    let bundle_rows = ROWS_PER_WINDOW.div_ceil(BUNDLES_PER_WINDOW);
    for w in 0..WINDOWS {
        let wkeys = &keys[w * ROWS_PER_WINDOW..(w + 1) * ROWS_PER_WINDOW];
        for chunk in wkeys.chunks(bundle_rows) {
            let mut flat = Vec::with_capacity(chunk.len() * 3);
            for (j, &k) in chunk.iter().enumerate() {
                let ts = w as u64 * WINDOW_TICKS + (j as u64 % WINDOW_TICKS);
                flat.extend_from_slice(&[k, (k * 7 + 3) % 1_000, ts]);
            }
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
            for m in window_op
                .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
                .unwrap()
            {
                let outs = agg.on_message(&mut ctx, m).unwrap();
                assert!(outs.is_empty(), "no output before watermark");
            }
            picks.extend(ctx.take_events());
        }
        let wm = Watermark::from((w as u64 + 1) * WINDOW_TICKS);
        for m in window_op
            .on_message(&mut ctx, Message::Watermark(wm))
            .unwrap()
        {
            for o in agg.on_message(&mut ctx, m).unwrap() {
                if let Message::Data {
                    data: StreamData::Bundle(b),
                    ..
                } = o
                {
                    for r in 0..b.rows() {
                        out.extend_from_slice(&[
                            b.value(r, Col(0)),
                            b.value(r, Col(1)),
                            b.value(r, Col(2)),
                        ]);
                    }
                }
            }
        }
    }
    (out, picks)
}

/// The core property: byte-identical outputs across every backend and
/// thread count, for uniform and skewed streams at three cardinalities,
/// for every aggregate kind: the scalar ones (Sum, Count) and those whose
/// hash drain gathers each key's values (Avg, Median, TopK, UniqueCount).
#[test]
fn backends_and_thread_counts_are_output_transparent() {
    for seed in [3u64, 17] {
        for domain in [8u64, 500, 20_000] {
            for skewed in [false, true] {
                let keys = gen_keys(seed, domain, skewed);
                let kinds = if skewed {
                    [AggKind::Median, AggKind::TopK(3), AggKind::UniqueCount]
                } else {
                    [AggKind::Sum, AggKind::Count, AggKind::Avg]
                };
                for kind in kinds {
                    let (reference, _) = run(&keys, kind, GroupingSpec::SortMerge, 2);
                    assert!(!reference.is_empty(), "windows must close");
                    for grouping in [
                        GroupingSpec::SortMerge,
                        GroupingSpec::Hash,
                        GroupingSpec::RowBaseline,
                        GroupingSpec::Adaptive,
                    ] {
                        for threads in THREADS {
                            let (out, _) = run(&keys, kind, grouping, threads);
                            assert_eq!(
                                out, reference,
                                "{kind:?} on {grouping:?} at {threads} threads diverges \
                                 (seed {seed}, domain {domain}, skewed {skewed})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Adaptive decisions are a pure function of the stream: identical across
/// thread counts and across repeated runs of the same seed.
#[test]
fn adaptive_decisions_are_deterministic() {
    for seed in [3u64, 17] {
        for domain in [8u64, 20_000] {
            let keys = gen_keys(seed, domain, false);
            let (_, reference) = run(&keys, AggKind::Sum, GroupingSpec::Adaptive, 1);
            assert_eq!(reference.len(), WINDOWS, "one decision per window");
            assert_eq!(reference[0], "groupby.backend.sort", "cold start sorts");
            for threads in THREADS {
                for _repeat in 0..2 {
                    let (_, picks) = run(&keys, AggKind::Sum, GroupingSpec::Adaptive, threads);
                    assert_eq!(
                        picks, reference,
                        "decisions drifted (seed {seed}, domain {domain}, {threads} threads)"
                    );
                }
            }
        }
    }
}
