//! Randomized property tests over the core data structures and primitives:
//! sorting, merging, joining, partitioning, extraction round-trips, parser
//! codecs and window assignment.
//!
//! Cases are generated from a fixed-seed [`SbxRng`], so every run checks
//! the exact same inputs (fully deterministic, offline-friendly stand-in
//! for the earlier proptest suite).

use std::sync::Arc;

use sbx_bench::kernel_scaling::{ptrs_of, reference};
use sbx_prng::SbxRng;
use streambox_hbm::cluster::RoutedSource;
use streambox_hbm::engine::ops::emit_group;
use streambox_hbm::ingress::parse::{json, proto, text};
use streambox_hbm::kpa::{
    hash, join_sorted, reduce_keyed, sort_pairs, ExecCtx, ExtractCharge, Kpa,
};
use streambox_hbm::prelude::*;

const CASES: u64 = 48;

fn env() -> MemEnv {
    MemEnv::new(MachineConfig::knl().scaled(0.05))
}

fn kpa_from_keys(env: &MemEnv, ctx: &mut ExecCtx, keys: &[u64]) -> Kpa {
    let rows: Vec<u64> = keys
        .iter()
        .enumerate()
        .flat_map(|(i, &k)| [k, i as u64, 0])
        .collect();
    let b = RecordBundle::from_rows(env, Schema::kvt(), &rows).expect("fits");
    Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits")
}

fn any_keys(rng: &mut SbxRng, max_len: u64) -> Vec<u64> {
    let n = rng.random_range(0..max_len) as usize;
    (0..n).map(|_| rng.random()).collect()
}

/// Sort produces exactly the multiset of inputs, ordered, and every pointer
/// still dereferences to a record carrying its key.
#[test]
fn sort_is_a_permutation_and_pointers_follow() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1001);
    for _ in 0..CASES {
        let keys = any_keys(&mut rng, 2_000);
        let threads = rng.random_range(1..6) as usize;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_from_keys(&env, &mut ctx, &keys);
        kpa.sort(&mut ctx, threads).expect("sort");

        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(kpa.keys(), &expect[..]);
        for i in 0..kpa.len() {
            assert_eq!(kpa.value_at(i, Col(0)), kpa.keys()[i]);
        }
    }
}

/// Merging any partition of a sorted sequence reproduces the sequence.
#[test]
fn merge_many_reassembles_sorted_input() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1002);
    for _ in 0..CASES {
        let mut keys = any_keys(&mut rng, 1_500);
        if keys.is_empty() {
            keys.push(rng.random());
        }
        let chunks = rng.random_range(1..8) as usize;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let chunk = keys.len().div_ceil(chunks);
        let mut parts = Vec::new();
        for piece in keys.chunks(chunk) {
            let mut kpa = kpa_from_keys(&env, &mut ctx, piece);
            kpa.sort(&mut ctx, 2).expect("sort");
            parts.push(kpa);
        }
        let merged =
            Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal).expect("merge");
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(merged.keys(), &expect[..]);
    }
}

/// Extract then Materialize reproduces the source bundle row-for-row.
#[test]
fn extract_materialize_round_trips() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1003);
    for _ in 0..CASES {
        let mut rows = any_keys(&mut rng, 600);
        rows.truncate(rows.len() / 3 * 3);
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits");
        let kpa = Kpa::extract(&mut ctx, &b, Col(1), MemKind::Hbm, Priority::Normal).expect("fits");
        let out = kpa.materialize(&mut ctx).expect("fits");
        assert_eq!(out.rows(), b.rows());
        for r in 0..b.rows() {
            assert_eq!(out.row(r), b.row(r));
        }
    }
}

/// A KPA in place ([`Kpa::rows_in_place`]) promises that Materialize would
/// copy out its source's rows unchanged and that every key is the resident
/// column. Random chains of the primitives that keep, move, drop or
/// recompute pairs and keys must never leave the promise standing when it
/// no longer holds.
#[test]
fn rows_in_order_holds_whenever_it_is_claimed() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_100f);
    let (mut claimed, mut steps) = (0, 0);
    for _ in 0..CASES {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        // Few distinct keys, so sorts and merges reorder; distinct values,
        // so a reordered row shows.
        let bundle = |rng: &mut SbxRng| {
            let n = rng.random_range(0..300);
            let rows: Vec<u64> = (0..n)
                .flat_map(|i| [rng.random_range(0..40), i, rng.random_range(0..1_000)])
                .collect();
            RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits")
        };
        let (kind, prio, read) = (MemKind::Hbm, Priority::Normal, ExtractCharge::Read);
        let col = |rng: &mut SbxRng| Col(rng.random_range(0..3) as usize);
        let b = bundle(&mut rng);
        let mut kpa =
            Kpa::extract_in_place(&mut ctx, &b, col(&mut rng), kind, prio, read).expect("fits");
        for _ in 0..8 {
            match rng.random_range(0..9) {
                0 => {
                    let b = bundle(&mut rng);
                    kpa = Kpa::extract_in_place(&mut ctx, &b, col(&mut rng), kind, prio, read)
                        .expect("fits");
                }
                1 => {
                    let (b, cut) = (bundle(&mut rng), rng.random_range(0..50));
                    let c = col(&mut rng);
                    kpa = Kpa::extract_select(&mut ctx, &b, c, kind, prio, |k| k >= cut)
                        .expect("fits");
                }
                2 => kpa.sort(&mut ctx, 1).expect("sort"),
                3 => kpa.key_swap(&mut ctx, col(&mut rng)),
                4 => {
                    let flip = rng.random_range(0..2);
                    kpa.update_keys(&mut ctx, |k| k ^ flip);
                }
                5 => kpa.key_compose(&mut ctx, &[Col(0), Col(2)], |v| v[0] + v[1]),
                6 => {
                    let b = bundle(&mut rng);
                    let mut other =
                        Kpa::extract(&mut ctx, &b, kpa.resident(), kind, prio).expect("fits");
                    other.sort(&mut ctx, 1).expect("sort");
                    kpa.sort(&mut ctx, 1).expect("sort");
                    kpa = Kpa::merge(&mut ctx, &kpa, &other, kind, prio).expect("merge");
                }
                7 => {
                    let width = rng.random_range(1..600);
                    let mut parts = if rng.random_range(0..2) == 0 {
                        kpa.partition_by(&mut ctx, prio, width)
                    } else {
                        let whole = std::mem::replace(
                            &mut kpa,
                            Kpa::extract_in_place(&mut ctx, &b, Col(0), kind, prio, read)
                                .expect("fits"),
                        );
                        whole.into_partitions(&mut ctx, prio, width)
                    }
                    .expect("fits");
                    if !parts.is_empty() {
                        let at = rng.random_range(0..parts.len() as u64) as usize;
                        kpa = parts.swap_remove(at).1;
                    }
                }
                _ => {
                    // A pointer moved to another row of the same bundle.
                    #[cfg(feature = "sanitize")]
                    if kpa.len() > 1 {
                        let last = kpa.record_ref(kpa.len() - 1).pack();
                        kpa.corrupt_ptr(0, last);
                    }
                }
            }
            steps += 1;
            let Some(src) = kpa.rows_in_place() else {
                continue;
            };
            claimed += 1;
            let ncols = src.schema().ncols();
            let out = kpa.materialize(&mut ctx).expect("fits");
            assert_eq!(out.as_rows(), src.as_rows(), "rows moved under the claim");
            let column = src
                .as_rows()
                .chunks_exact(ncols)
                .map(|r| r[kpa.resident().0]);
            assert!(kpa.key_iter().eq(column), "keys left the resident column");
        }
    }
    assert!(
        10 * claimed > steps,
        "the claim is exercised: {claimed} of {steps}"
    );
}

/// Partition is a lossless, order-preserving split.
#[test]
fn partition_is_complete_and_ordered() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1004);
    for _ in 0..CASES {
        let n = rng.random_range(0..1_500) as usize;
        let keys = rng.vec_in(n, 0..1_000);
        let stride = rng.random_range(1..200);
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_from_keys(&env, &mut ctx, &keys);
        let parts = kpa
            .partition_by(&mut ctx, Priority::Normal, stride)
            .expect("fits");
        // Groups are disjoint, correctly classified and jointly exhaustive.
        let mut total = 0usize;
        let mut reassembled: Vec<(u64, u64)> = Vec::new();
        for (g, p) in &parts {
            for (i, &k) in p.keys().iter().enumerate() {
                assert_eq!(k / stride, *g);
                // value col 1 carries the original index: use it to check
                // order preservation within a group.
                reassembled.push((*g, p.value_at(i, Col(1))));
            }
            total += p.len();
        }
        assert_eq!(total, keys.len());
        for w in reassembled.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "order within group must be stable");
            }
        }
    }
}

/// Select behaves exactly like the slice filter.
#[test]
fn select_matches_filter_oracle() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1005);
    for _ in 0..CASES {
        let keys = any_keys(&mut rng, 1_500);
        let threshold = rng.random();
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_from_keys(&env, &mut ctx, &keys);
        let selected = kpa
            .select(&mut ctx, Priority::Normal, |k| k >= threshold)
            .expect("fits");
        let expect: Vec<u64> = keys.iter().copied().filter(|&k| k >= threshold).collect();
        assert_eq!(selected.keys(), &expect[..]);
    }
}

/// Runs `f` and counts the requests it made of the HBM pool.
fn hbm_requests<T>(env: &MemEnv, f: impl FnOnce() -> T) -> (T, u64) {
    let before = env.pool(MemKind::Hbm).stats().total_allocs;
    let out = f();
    (out, env.pool(MemKind::Hbm).stats().total_allocs - before)
}

/// Select/Extract's branch-free compaction equals the per-row loop it
/// replaced — keys, pointers and pool requests — on every column of a
/// 7-column and a 3-column schema, for empty, tiny and multi-class
/// bundles, keeping no row, every row and a data-dependent subset; so do
/// the unfiltered Extract and a Select over the extracted KPA.
#[test]
fn select_extract_compaction_matches_the_per_row_loop() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_100f);
    let sizes = [0usize, 1, 2, 511, 513, 1_500];
    let ysb = sizes.map(|rows| (Schema::ysb(), rows));
    let kvt = sizes.map(|rows| (Schema::kvt(), rows));
    for (schema, rows) in ysb.into_iter().chain(kvt) {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let ncols = schema.ncols();
        let data: Vec<u64> = (0..rows * ncols).map(|_| rng.random_range(0..50)).collect();
        let b = RecordBundle::from_rows(&env, schema, &data).expect("fits");
        for col in (0..ncols).map(Col) {
            let modulus = rng.random_range(2..9);
            let kept_below = rng.random_range(1..modulus);
            type Pred = Box<dyn Fn(u64) -> bool>;
            let preds: [(&str, Pred); 3] = [
                ("none", Box::new(|_| false)),
                ("all", Box::new(|_| true)),
                ("some", Box::new(move |v| v % modulus < kept_below)),
            ];
            for (name, pred) in &preds {
                let (want, asked_old) =
                    hbm_requests(&env, || reference::extract_where(&env, &b, col, pred));
                let (got, asked_new) = hbm_requests(&env, || {
                    Kpa::extract_select(&mut ctx, &b, col, MemKind::Hbm, Priority::Normal, pred)
                        .expect("fits")
                });
                let case = format!("{rows} rows of {ncols}, {col}, keep {name}");
                assert_eq!(got.key_iter().collect::<Vec<_>>(), want.0[..], "{case}");
                assert_eq!(ptrs_of(&got), want.1[..], "{case}");
                let kept_all = got.len() == rows;
                assert_eq!(got.rows_in_place().is_some(), kept_all, "{case}: in place");
                assert_eq!(
                    (asked_new, got.footprint_bytes()),
                    (
                        asked_old,
                        want.0.accounted_bytes() + want.1.accounted_bytes()
                    ),
                    "{case}: pool requests"
                );
                assert_eq!((got.resident(), got.source_count()), (col, 1), "{case}");
                assert_eq!(got.is_sorted(), got.len() <= 1, "{case}");
            }

            let all =
                Kpa::extract(&mut ctx, &b, col, MemKind::Hbm, Priority::Normal).expect("fits");
            let want = reference::extract_where(&env, &b, col, |_| true);
            assert_eq!((all.keys(), ptrs_of(&all)), (&want.0[..], want.1.to_vec()));
            let some = &preds[2].1;
            let picked = all.select(&mut ctx, Priority::Normal, some).expect("fits");
            let want = reference::extract_where(&env, &b, col, some);
            assert_eq!(picked.keys(), &want.0[..], "{rows} rows, {col}: select");
            assert_eq!(ptrs_of(&picked), want.1[..], "{rows} rows, {col}: select");
            let copy = all
                .select(&mut ctx, Priority::Normal, |_| true)
                .expect("fits");
            assert_eq!((copy.keys(), ptrs_of(&copy)), (all.keys(), ptrs_of(&all)));
        }
    }
}

/// Partition by key-range width equals the per-pair classify-and-scatter
/// loop it replaced — groups ascending, order within a group preserved,
/// the same pool requests — whatever the run structure: one run,
/// alternating runs, keys in no order at all, keys at `u64::MAX`, width 1,
/// a width above every key, an empty KPA, and timestamps crossing a window
/// boundary mid-input, in order or lagging the front by up to 50 ticks.
#[test]
fn partition_by_width_matches_the_per_pair_loop() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1010);
    let n = 1_200usize;
    let top = u64::MAX;
    let shapes: Vec<(&str, Vec<u64>, u64)> = vec![
        ("empty", vec![], 10),
        (
            "one run",
            (0..n as u64).map(|i| 500 + i % 400).collect(),
            1_000,
        ),
        (
            "alternating runs",
            (0..n as u64).map(|i| (i / 3 % 2) * 1_000 + i).collect(),
            1_000,
        ),
        ("no order", rng.vec_in(n, 0..100_000), 977),
        (
            "full range",
            (0..n).map(|_| rng.random()).collect(),
            1 << 61,
        ),
        (
            "top of the range",
            (0..n as u64).map(|i| top - (i * 7919) % 5_000).collect(),
            1_000,
        ),
        (
            "last group is partial",
            vec![top, 0, top - 1, top / 2 + 2, top / 2 + 1, 1, top],
            top / 2 + 2,
        ),
        ("width above every key", rng.vec_in(n, 0..1 << 40), top),
        ("width 1", rng.vec_in(n, 0..40), 1),
        ("width 1 at the top", vec![top, top - 1, top, 0, top - 1], 1),
        (
            "a boundary mid-input",
            (0..n as u64).map(|i| 10_000 - n as u64 + 2 * i).collect(),
            10_000,
        ),
        (
            "jittered across a boundary",
            (0..n as u64)
                .map(|i| 10_000 - n as u64 + 2 * i - rng.random_range(0..=50))
                .collect(),
            10_000,
        ),
    ];
    for (shape, keys, width) in shapes {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_from_keys(&env, &mut ctx, &keys);
        let ptrs = ptrs_of(&kpa);
        let (want, asked_old) = hbm_requests(&env, || {
            reference::partition_by(&env, kpa.keys(), &ptrs, |k| k / width)
        });
        let (got, asked_new) = hbm_requests(&env, || {
            kpa.partition_by(&mut ctx, Priority::Normal, width)
                .expect("fits")
        });
        assert_eq!(asked_new, asked_old, "{shape}: pool requests");
        assert_eq!(got.len(), want.len(), "{shape}: groups");
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "{shape}: ascending"
        );
        for ((g, part), (want_g, want_keys, want_ptrs)) in got.iter().zip(&want) {
            assert_eq!(g, want_g, "{shape}");
            assert_eq!(part.keys(), &want_keys[..], "{shape}: group {g}");
            assert_eq!(
                part.footprint_bytes(),
                want_keys.accounted_bytes() + want_ptrs.accounted_bytes(),
                "{shape}: group {g}"
            );
            assert_eq!(ptrs_of(part), want_ptrs[..], "{shape}: group {g}");
            assert!(part.keys().iter().all(|k| k / width == *g), "{shape}");
        }
        assert_eq!(got.iter().map(|(_, p)| p.len()).sum::<usize>(), keys.len());
    }
}

/// A resolver over a single source bundle — direct index, no table —
/// agrees with the one-off `Kpa::value_at` on every column, for filtered
/// and reordered pointers, and with the hash-probed reference.
#[test]
fn single_source_resolver_matches_value_at() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1011);
    for case in 0..CASES {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let rows = rng.random_range(0..400) as usize;
        let data: Vec<u64> = (0..rows * 7).map(|_| rng.random()).collect();
        let b = RecordBundle::from_rows(&env, Schema::ysb(), &data).expect("fits");
        let keep = |v: u64| v % 5 < 3;
        let mut kpa =
            Kpa::extract_select(&mut ctx, &b, Col(3), MemKind::Hbm, Priority::Normal, keep)
                .expect("fits");
        if case % 2 == 1 {
            kpa.sort(&mut ctx, 1).expect("sort");
        }
        assert_eq!(kpa.source_count(), 1);
        let records = kpa.resolver();
        for i in 0..kpa.len() {
            let (bundle, row) = kpa.deref(i);
            assert_eq!(
                records.row(i),
                Some(bundle.row(row)),
                "case {case} pair {i}"
            );
            for col in (0..7).map(Col) {
                assert_eq!(records.value(i, col), kpa.value_at(i, col));
            }
        }
        let mut want = vec![0; kpa.len()];
        reference::key_swap(&mut want, &ptrs_of(&kpa), &[b], Col(6));
        kpa.key_swap(&mut ctx, Col(6));
        assert_eq!(kpa.keys(), &want[..], "case {case}");
    }
}

/// Under the sanitizer, a single-source resolver still validates before it
/// indexes: a pointer corrupted to name another bundle, or a row past the
/// end, records its finding and resolves to the benign 0.
#[cfg(feature = "sanitize")]
#[test]
fn single_source_resolver_reports_corrupted_pointers() {
    use streambox_hbm::records::{BundleId, RecordRef};
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let mut kpa = kpa_from_keys(&env, &mut ctx, &[7, 8, 9]);
    let own = kpa.record_ref(0).bundle;
    let forged = [
        RecordRef {
            bundle: BundleId(u32::MAX - 23),
            row: 0,
        },
        RecordRef {
            bundle: own,
            row: 999,
        },
    ];
    kpa.corrupt_ptr(0, forged[0].pack());
    kpa.corrupt_ptr(2, forged[1].pack());
    let records = kpa.resolver();
    assert_eq!(records.row(0), None);
    assert_eq!(records.value(0, Col(0)), 0);
    assert_eq!(
        records.value(1, Col(0)),
        8,
        "healthy pointers still resolve"
    );
    assert_eq!(records.value(2, Col(0)), 0);
    let found: Vec<_> = env.sanitizer().reports().iter().map(|r| r.class).collect();
    assert_eq!(found, vec![sbx_sanitize::BugClass::WildPointer; 2]);
}

/// Sorted join emits exactly the nested-loop pairs over the sorted sides,
/// in the nested loop's `(li, ri)` order, and counts the keys that matched.
#[test]
fn join_matches_nested_loop() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1006);
    for _ in 0..CASES {
        let ln = rng.random_range(0..120) as usize;
        let l = rng.vec_in(ln, 0..40);
        let rn = rng.random_range(0..120) as usize;
        let r = rng.vec_in(rn, 0..40);
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut lk = kpa_from_keys(&env, &mut ctx, &l);
        let mut rk = kpa_from_keys(&env, &mut ctx, &r);
        lk.sort(&mut ctx, 2).expect("sort");
        rk.sort(&mut ctx, 2).expect("sort");
        let mut got = Vec::new();
        let stats = join_sorted(&mut ctx, &lk, &rk, 32, |_, li, _, ri| got.push((li, ri)));
        let (lkeys, rkeys) = (lk.keys(), rk.keys());
        let mut want = Vec::new();
        for (li, a) in lkeys.iter().enumerate() {
            for (ri, b) in rkeys.iter().enumerate() {
                if a == b {
                    want.push((li, ri));
                }
            }
        }
        assert_eq!(got, want);
        assert_eq!(stats.emitted, want.len());
        let mut matched: Vec<u64> = want.iter().map(|&(li, _)| lkeys[li]).collect();
        matched.dedup();
        assert_eq!(stats.matched_keys, matched.len());
    }
}

/// Keyed reduction visits every pair exactly once, grouped by key.
#[test]
fn reduce_keyed_covers_all_pairs() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1007);
    for _ in 0..CASES {
        let n = rng.random_range(0..1_000) as usize;
        let keys = rng.vec_in(n, 0..100);
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_from_keys(&env, &mut ctx, &keys);
        kpa.sort(&mut ctx, 2).expect("sort");
        let mut seen = 0usize;
        let mut last_key = None;
        let groups = reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
            seen += g.values.len();
            if let Some(k) = last_key {
                assert!(g.key > k, "keys strictly increase across groups");
            }
            last_key = Some(g.key);
        });
        assert_eq!(seen, keys.len());
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(groups, uniq.len());
    }
}

/// A window of `sources` sorted KPAs over `keys` (split evenly, values
/// spread over the whole `u64` range), merged, with the group count the
/// merge took.
fn merged_window(env: &MemEnv, ctx: &mut ExecCtx, keys: &[u64], sources: usize) -> Kpa {
    let mut parts = Vec::new();
    let chunk = keys.len().div_ceil(sources).max(1);
    for s in 0..sources {
        let piece = keys
            .get(s * chunk..keys.len().min((s + 1) * chunk))
            .unwrap_or(&[]);
        let rows: Vec<u64> = piece
            .iter()
            .zip(0u64..)
            .flat_map(|(&k, i)| [k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i, 0])
            .collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &rows).expect("fits");
        let mut kpa = Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits");
        kpa.sort(ctx, 1).expect("sort");
        parts.push(kpa);
    }
    Kpa::merge_many(ctx, parts, MemKind::Hbm, Priority::Normal).expect("merge")
}

/// The scalar fold hands out exactly what `reduce_keyed`'s per-key value
/// slices fold to — wrapping sum and count per key, with and without a
/// value column — over one source, 25 sources, duplicate-heavy and
/// all-distinct keys, and an empty window.
#[test]
fn scalar_fold_equals_the_key_group_fold() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1012);
    for case in 0..CASES {
        let sources = [1, 25][case as usize % 2];
        let n = match case % 6 {
            0 | 1 => 0,
            _ => rng.random_range(1..2_000) as usize,
        };
        let space = [3, 100, u64::MAX][case as usize % 3];
        let keys = rng.vec_in(n, 0..space);
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = merged_window(&env, &mut ctx, &keys, sources);
        for col in [Some(Col(1)), None] {
            let mut want = Vec::new();
            let want_groups = reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
                let sum = g.values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
                let sum = if col.is_some() { sum } else { 0 };
                want.push((g.key, sum, g.values.len() as u64));
            });
            let mut got = Vec::new();
            let groups =
                reference::reduce_keyed_scalar(&mut ctx, &kpa, col, |k, s, c| got.push((k, s, c)));
            assert_eq!(got, want, "case {case}, {sources} sources, {col:?}");
            assert_eq!(groups, want_groups, "case {case}");
        }
    }
}

/// One run of a window a fused close folds: `keys` (sorted here) with
/// `values`, either a partial bundle early aggregation leaves — one source,
/// rows in key order — or, raw, the rows spread over `sources` bundles in
/// arrival order, sorted and merged into one KPA over all of them.
fn fold_run(env: &MemEnv, ctx: &mut ExecCtx, keys: &[u64], values: &[u64], sources: usize) -> Kpa {
    let rows: Vec<u64> = keys
        .iter()
        .zip(values)
        .flat_map(|(&k, &v)| [k, v, 0])
        .collect();
    if sources == 1 {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let rows: Vec<u64> = order
            .iter()
            .flat_map(|&i| rows[3 * i..3 * i + 3].to_vec())
            .collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &rows).expect("fits");
        let (hbm, fused) = (MemKind::Hbm, ExtractCharge::Fused);
        let mut kpa =
            Kpa::extract_in_place(ctx, &b, Col(0), hbm, Priority::Normal, fused).expect("fits");
        kpa.write_pairs();
        kpa.mark_sorted();
        return kpa;
    }
    let chunk = (rows.len() / 3).div_ceil(sources).max(1) * 3;
    let parts: Vec<Kpa> = (0..sources)
        .map(|s| {
            let piece = rows
                .get(s * chunk..rows.len().min((s + 1) * chunk))
                .unwrap_or(&[]);
            let b = RecordBundle::from_rows(env, Schema::kvt(), piece).expect("fits");
            let mut kpa =
                Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits");
            kpa.sort(ctx, 1).expect("sort");
            kpa
        })
        .collect();
    Kpa::merge_many(ctx, parts, MemKind::Hbm, Priority::Normal).expect("merge")
}

/// The fused closes equal the two-pass ones they replaced — the merged KPA
/// written, then read back by the scalar fold or `reduce_keyed` — over 1,
/// 2, 3, 25 and 64 runs (empty ones among them) of partial bundles or
/// multi-source raw KPAs, duplicate-heavy, all-equal, dense, at `u64::MAX`,
/// full-range keys and about eight key values per pair, as 4 M keys over a
/// window of 25 × 20 000 pairs (so both the array and the sorted fold
/// run, and the gather sorts dense buckets and sparse ones): row for row
/// for a `Sum` that wraps near `u64::MAX` and a `Count`; key by key,
/// values in order, for the gather; and row for row through `emit_group`
/// for TopK, Median, Avg and UniqueCount.
#[test]
fn fused_close_equals_merge_then_scalar_fold() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1014);
    for case in 0..45u64 {
        let k = [1, 2, 3, 25, 64][case as usize % 5];
        let sources = [1, 1, 3][case as usize % 3];
        let max_len = 24_000 / k as u64;
        let shape = case / 5 % 7;
        let runs: Vec<(Vec<u64>, Vec<u64>)> = (0..k)
            .map(|_| {
                let n = match rng.random_range(0..5) {
                    0 => 0,
                    1 => 1,
                    _ => rng.random_range(0..max_len) as usize,
                };
                let keys = match shape {
                    0 => rng.vec_in(n, 0..7),
                    1 => vec![u64::MAX; n],
                    2 => rng
                        .vec_in(n, u64::MAX - 40..u64::MAX)
                        .iter()
                        .map(|k| k + 1)
                        .collect(),
                    3 => rng.vec_in(n, 1_000..3_000),
                    4 => (0..n).map(|_| rng.random()).collect(),
                    5 => rng.vec_in(n, 0..400_000),
                    // A dense bucket, its array mostly empty.
                    _ => rng.vec_in(n, 0..60_000),
                };
                // Near the top, so that a sum of a few wraps.
                let values = rng.vec_in(n, u64::MAX - 1_000..u64::MAX);
                (keys, values)
            })
            .collect();
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let hbm = (MemKind::Hbm, Priority::Normal);
        let window = |ctx: &mut ExecCtx| -> Vec<Kpa> {
            runs.iter()
                .map(|(keys, values)| fold_run(&env, ctx, keys, values, sources))
                .collect()
        };
        for col in [Some(Col(1)), None] {
            let two_pass = window(&mut ctx);
            let want = reference::merge_fold(&mut ctx, two_pass, col, 9);
            let fused = window(&mut ctx);
            let (got, held) = Kpa::merge_fold(&mut ctx, fused, col, 9, hbm.0, hbm.1).expect("fits");
            assert_eq!(got, want, "case {case}: {k} runs, shape {shape}, {col:?}");
            drop(held);
        }

        let kpas = window(&mut ctx);
        let merged = Kpa::merge_many(&mut ctx, kpas, hbm.0, hbm.1).expect("fits");
        let mut want = Vec::new();
        reduce_keyed(&mut ctx, &merged, Col(1), |g| {
            want.push((g.key, g.values.to_vec()));
        });
        drop(merged);
        let mut got = Vec::new();
        let sink = |key, values: &mut [u64]| got.push((key, values.to_vec()));
        let kpas = window(&mut ctx);
        let held = Kpa::merge_gather(&mut ctx, kpas, Col(1), hbm.0, hbm.1, sink);
        drop(held.expect("fits"));
        assert!(got == want, "case {case}: {k} runs, shape {shape}, gather");

        let top = 1 + case as usize % 5;
        for kind in [
            AggKind::TopK(top),
            AggKind::Median,
            AggKind::Avg,
            AggKind::UniqueCount,
        ] {
            let two_pass = window(&mut ctx);
            let want = reference::merge_gather(&mut ctx, two_pass, Col(1), kind, 9);
            let (fused, mut got) = (window(&mut ctx), Vec::new());
            let emit = |key, values: &mut [u64]| emit_group(kind, key, values, 9, &mut got);
            let held = Kpa::merge_gather(&mut ctx, fused, Col(1), hbm.0, hbm.1, emit);
            drop(held.expect("fits"));
            assert_eq!(got, want, "case {case}: {k} runs, shape {shape}, {kind:?}");
        }
    }
}

/// A window of early-aggregated partial bundles (each key once, in key
/// order) folded with its pairs in place ([`Kpa::extract_in_place`]) equals
/// the same window with its pairs written, which the close reads through
/// their pointers: the same rows, both pools' `PoolStats` (high water
/// included) and the same charged profile — and the rows of the merge plus
/// scalar fold (`reference::merge_fold`). `Sum` and `Count`; 4 M and 10^8
/// keys (at these window sizes mostly the sorted fold) and 60 000 (mostly
/// the dense one, its array mostly empty); runs in HBM and runs spilled to
/// DRAM; a window as it arrives, restored from its snapshot, and two
/// overlapping windows sharing their middle bundles as pane combining shares
/// a pane. Under the sanitizer, a run with a corrupted pointer takes the
/// pointer path and reports it.
#[test]
fn in_place_close_equals_the_pointer_path_and_the_merge() {
    use streambox_hbm::engine::{DemandBalancer, EngineMode, ImpactTag, OpCtx, StateEntry};
    let mut rng = SbxRng::seed_from_u64(0x5b57_1016);
    let mut spilled = 0;
    for case in 0..36usize {
        let space = [4_000_000, 100_000_000, 60_000][case % 3];
        let hbm_kib = [1 << 16, 160][case / 3 % 2];
        let shape = case / 6 % 3;
        let bundles: Vec<Vec<u64>> = (0..rng.random_range(1..10))
            .map(|_| {
                let n = rng.random_range(0..3_000) as usize;
                let mut keys = rng.vec_in(n, 0..space);
                keys.sort_unstable();
                keys.dedup();
                keys.iter().flat_map(|&k| [k, rng.random(), 0]).collect()
            })
            .collect();
        for col in [Some(Col(1)), None] {
            let close = |in_place: bool| {
                let mut machine = MachineConfig::knl();
                machine.hbm.capacity_bytes = hbm_kib * 1024;
                let env = MemEnv::new(machine);
                let mut bal = DemandBalancer::new();
                let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
                let bundles: Vec<Arc<RecordBundle>> = bundles
                    .iter()
                    .map(|rows| RecordBundle::from_rows(&env, Schema::kvt(), rows).expect("fits"))
                    .collect();
                let write = |mut kpa: Kpa| {
                    if !in_place {
                        kpa.write_pairs();
                    }
                    kpa
                };
                let extract = |e: &mut ExecCtx, b: &Arc<RecordBundle>, col, kind, prio| {
                    Kpa::extract_in_place(e, b, col, kind, prio, ExtractCharge::Fused).map(write)
                };
                let hbm = (MemKind::Hbm, Priority::Normal);
                let window = |ctx: &mut OpCtx<'_>, bundles: &[Arc<RecordBundle>]| {
                    let kpas = bundles.iter().map(|b| {
                        let mut kpa = ctx.charged(24, |e| extract(e, b, Col(0), hbm.0, hbm.1));
                        kpa.as_mut().map(Kpa::mark_sorted).expect("fits");
                        kpa.expect("fits")
                    });
                    kpas.collect::<Vec<Kpa>>()
                };
                let mut windows = match shape {
                    0 => vec![window(&mut ctx, &bundles)],
                    1 => {
                        let entries: Vec<StateEntry> = window(&mut ctx, &bundles)
                            .iter()
                            .map(|k| StateEntry::from_kpa(&mut ctx, 0, 0, k).expect("fits"))
                            .collect();
                        let restore = |e: &StateEntry| e.to_kpa(&mut ctx).map(write);
                        vec![entries
                            .iter()
                            .map(restore)
                            .map(|k| k.expect("fits"))
                            .collect()]
                    }
                    _ => {
                        let half = bundles.len() / 2;
                        let early = window(&mut ctx, &bundles[..=half]);
                        vec![early, window(&mut ctx, &bundles[half..])]
                    }
                };
                let mut rows = Vec::new();
                for kpas in windows.drain(..) {
                    let fold = |e: &mut ExecCtx| Kpa::merge_fold(e, kpas, col, 9, hbm.0, hbm.1);
                    let (got, held) = ctx.charged(16, fold).expect("fits");
                    rows.push(got);
                    drop(held);
                }
                let pools = [MemKind::Hbm, MemKind::Dram].map(|k| env.pool(k).stats());
                let spills = env.spill_count();
                (rows, pools, spills, ctx.take_profile())
            };
            let (in_place, pointers) = (close(true), close(false));
            assert_eq!(in_place.0, pointers.0, "case {case}, {col:?}: rows");
            assert_eq!(in_place.1, pointers.1, "case {case}, {col:?}: pools");
            assert_eq!(in_place.2, pointers.2, "case {case}, {col:?}: spills");
            assert!(
                in_place.3 == pointers.3,
                "case {case}, {col:?}: charged profile"
            );
            spilled += usize::from(in_place.2 > 0);

            let env = env();
            let mut ctx = ExecCtx::new(&env);
            let half = bundles.len() / 2;
            let parts: Vec<&[Vec<u64>]> = match shape {
                2 => vec![&bundles[..=half], &bundles[half..]],
                _ => vec![&bundles[..]],
            };
            for (rows, part) in in_place.0.iter().zip(parts) {
                let kpas = part
                    .iter()
                    .map(|rows| {
                        let b = RecordBundle::from_rows(&env, Schema::kvt(), rows).expect("fits");
                        let mut kpa =
                            Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal)
                                .expect("fits");
                        kpa.mark_sorted();
                        kpa
                    })
                    .collect();
                let want = reference::merge_fold(&mut ctx, kpas, col, 9);
                assert_eq!(*rows, want, "case {case}, {col:?}: the merge");
            }
        }
    }
    assert!(spilled > 0, "some windows spill");

    #[cfg(feature = "sanitize")]
    {
        use streambox_hbm::records::{BundleId, RecordRef};
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let bundles = [[1, 10, 0, 2, 20, 0], [1, 100, 0, 3, 30, 0]];
        for col in [Some(Col(1)), None] {
            let mut kpas: Vec<Kpa> = bundles
                .iter()
                .map(|rows| {
                    let b = RecordBundle::from_rows(&env, Schema::kvt(), rows).expect("fits");
                    let (hbm, fused) = (MemKind::Hbm, ExtractCharge::Fused);
                    let kpa =
                        Kpa::extract_in_place(&mut ctx, &b, Col(0), hbm, Priority::Normal, fused);
                    let mut kpa = kpa.expect("fits");
                    kpa.mark_sorted();
                    kpa
                })
                .collect();
            let wild = RecordRef {
                bundle: BundleId(u32::MAX - 29),
                row: 0,
            };
            kpas[1].corrupt_ptr(1, wild.pack());
            assert!(
                kpas[1].rows_in_place().is_none(),
                "a corrupted KPA is not in order"
            );
            env.sanitizer().clear_reports();
            let (rows, held) =
                Kpa::merge_fold(&mut ctx, kpas, col, 0, MemKind::Hbm, Priority::Normal)
                    .expect("fits");
            drop(held);
            let want = match col {
                Some(_) => vec![1, 110, 0, 2, 20, 0, 3, 0, 0],
                None => vec![1, 2, 0, 2, 1, 0, 3, 1, 0],
            };
            assert_eq!(rows, want, "{col:?}");
            assert_eq!(
                env.sanitizer().reports().len(),
                1,
                "{col:?}: the one wild pointer"
            );
        }
    }
}

/// All three parser codecs are inverses of their encoders.
#[test]
fn codecs_round_trip() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_1008);
    for _ in 0..CASES {
        let n = rng.random_range(1..16) as usize;
        let record: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let names: Vec<String> = (0..record.len()).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(std::string::String::as_str).collect();

        let mut out = Vec::new();
        json::parse(json::encode(&record, &name_refs).as_bytes(), &mut out).expect("json");
        assert_eq!(&out, &record);

        out.clear();
        proto::parse(&proto::encode(&record), record.len(), &mut out).expect("proto");
        assert_eq!(&out, &record);

        out.clear();
        text::parse(text::encode(&record).as_bytes(), &mut out).expect("text");
        assert_eq!(&out, &record);
    }
}

/// The chunk sort kernel equals `sort_unstable` on `(key, ptr)` pairs —
/// the exact compound order, not just sorted keys — whatever kernel runs
/// underneath, for every length class, key shape (random, all-equal,
/// presorted, reversed, `0` and `u64::MAX` sprinkled in, the full `u64`
/// range, one key owning 90 % of the chunk, 4 M and 1 000 uniform keys,
/// Zipf 0.99 over 1 000) and pointer shape (ascending as
/// freshly extracted, unique but alternating between both ends of the
/// range, a handful of values repeated out of order, rows of several
/// bundles interleaved).
#[test]
fn chunk_sort_matches_reference() {
    use streambox_hbm::ingress::ZipfKeys;
    let zipf = ZipfKeys::new(1_000, 0.99);
    let mut rng = SbxRng::seed_from_u64(0x5b57_1009);
    let lens = (0..=130usize).chain([1_499, 20_000]);
    for (case, n) in lens.enumerate() {
        let key_space = match case % 3 {
            0 => u64::MAX,
            1 => 1 + rng.random_range(0..40),
            _ => 1 + n as u64 * 4,
        };
        let random: Vec<u64> = (0..n).map(|_| rng.random_range(0..key_space)).collect();
        let mut presorted = random.clone();
        presorted.sort_unstable();
        let reversed: Vec<u64> = presorted.iter().rev().copied().collect();
        let mut extremes = random.clone();
        for k in extremes.iter_mut().step_by(3) {
            *k = u64::MAX;
        }
        for k in extremes.iter_mut().skip(1).step_by(5) {
            *k = 0;
        }
        let full_range: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let hot = rng.random();
        let one_hot: Vec<u64> = (0..n)
            .map(|_| match rng.random_range(0..10) {
                0 => rng.random(),
                _ => hot,
            })
            .collect();
        let ptr_shapes: [Vec<u64>; 4] = [
            (0..n as u64).map(|row| 7 << 32 | row).collect(),
            (0..n as u64)
                .map(|i| if i % 2 == 0 { i } else { u64::MAX - i })
                .collect(),
            (0..n).map(|_| rng.random_range(0..8)).collect(),
            (0..n)
                .map(|_| rng.random_range(0..5) << 32 | rng.random_range(0..1 + n as u64))
                .collect(),
        ];
        let uniform_4m = rng.vec_in(n, 0..4_000_000);
        let keys_1000 = rng.vec_in(n, 0..1_000);
        let zipf_099: Vec<u64> = (0..n).map(|_| zipf.sample(&mut rng)).collect();
        let key_shapes = [
            random,
            vec![42; n],
            presorted,
            reversed,
            extremes,
            full_range,
            one_hot,
            uniform_4m,
            keys_1000,
            zipf_099,
        ];
        for (ks, keys) in key_shapes.iter().enumerate() {
            for (ps, ptrs) in ptr_shapes.iter().enumerate() {
                let mut want: Vec<(u64, u64)> =
                    keys.iter().copied().zip(ptrs.iter().copied()).collect();
                want.sort_unstable();
                let (mut k, mut p) = (keys.clone(), ptrs.clone());
                sort_pairs(&mut k, &mut p);
                let got: Vec<(u64, u64)> = k.into_iter().zip(p).collect();
                assert_eq!(got, want, "len {n} keys {ks} ptrs {ps}");
            }
        }
    }
}

/// A `Resolver` pass agrees with the one-off `Kpa::value_at` / `Kpa::deref`
/// lookups on a merged KPA whose source bundle ids are sparse: bundles
/// created on another environment in between leave gaps in the
/// process-global id sequence. KeySwap over the 1 to 40 sources agrees
/// with the hash-probed reference.
#[test]
fn resolver_matches_value_at_on_sparse_bundle_ids() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_100e);
    for case in 0..CASES {
        let env = env();
        let elsewhere = self::env();
        let mut ctx = ExecCtx::new(&env);
        let sources = 1 + rng.random_range(0..40) as usize;
        let mut parts = Vec::new();
        for _ in 0..sources {
            // Each of these takes an id between two of the KPA's sources.
            for _ in 0..rng.random_range(1..4) {
                RecordBundle::from_rows(&elsewhere, Schema::kvt(), &[0, 0, 0]).expect("fits");
            }
            let keys: Vec<u64> = (0..rng.random_range(0..100))
                .map(|_| rng.random_range(0..50))
                .collect();
            let mut kpa = kpa_from_keys(&env, &mut ctx, &keys);
            kpa.sort(&mut ctx, 1).expect("sort");
            parts.push(kpa);
        }
        let mut merged =
            Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal).expect("merge");
        let records = merged.resolver();
        for i in 0..merged.len() {
            let (bundle, row) = merged.deref(i);
            assert_eq!(
                records.row(i),
                Some(bundle.row(row)),
                "case {case} pair {i}"
            );
            for col in [Col(0), Col(1), Col(2)] {
                assert_eq!(records.value(i, col), merged.value_at(i, col));
            }
        }
        let mut sources: Vec<Arc<RecordBundle>> = (0..merged.len())
            .map(|i| Arc::clone(merged.deref(i).0))
            .collect();
        sources.sort_by_key(|b| b.id());
        sources.dedup_by_key(|b| b.id());
        let mut want = vec![0; merged.len()];
        reference::key_swap(&mut want, &ptrs_of(&merged), &sources, Col(1));
        merged.key_swap(&mut ctx, Col(1));
        assert_eq!(merged.keys(), &want[..], "case {case}: key swap");
    }
}

/// The hash grouper agrees with a BTreeMap oracle across arbitrary insert
/// sequences (including growth past the initial capacity).
#[test]
fn hash_grouper_matches_btreemap() {
    use std::collections::BTreeMap;
    let mut rng = SbxRng::seed_from_u64(0x5b57_100a);
    for _ in 0..CASES {
        let n = rng.random_range(0..3_000) as usize;
        let pairs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.random(), rng.random_range(0..1_000)))
            .collect();
        let capacity = rng.random_range(1..64) as usize;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut table =
            hash::HashGrouper::with_slots(&mut ctx, capacity, MemKind::Dram, Priority::Normal)
                .expect("fits");
        let mut oracle: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for &(k, v) in &pairs {
            table.try_insert(k, v).expect("fits");
            let e = oracle.entry(k).or_insert((0, 0));
            e.0 = e.0.wrapping_add(v);
            e.1 += 1;
        }
        assert_eq!(table.len(), oracle.len());
        let mut got: Vec<(u64, u64, u64)> = table.iter().collect();
        got.sort_unstable();
        let expect: Vec<(u64, u64, u64)> =
            oracle.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
        assert_eq!(got, expect);
    }
}

/// The hash grouper's batch loop is the per-pair loop. Over both modes,
/// dense, sparse, Zipf and 4 M uniform keys, batch splits from one or two
/// pairs up to the whole input (every key shape with every split and mode),
/// and HBMs small enough that a grow spills the table, pairs
/// fed in batches through `try_insert_all` leave the table of one
/// `try_insert` per pair ([`reference::hash_ingest`]) after every batch —
/// slots, tier, length, spills and both pools' statistics, high water
/// included — and drain the same rows. The smallest splits come first: a
/// loop that checks the load factor only once per batch is caught there,
/// before a whole-input batch could overfill its table.
#[test]
fn hash_batch_insert_equals_the_per_pair_loop() {
    use streambox_hbm::ingress::ZipfKeys;
    use streambox_hbm::kpa::hash::{HashAgg, HashGrouper};
    let zipf = ZipfKeys::new(1_000, 0.99);
    let mut rng = SbxRng::seed_from_u64(0x5b57_1010);
    let mut spilled = [0; 2];
    for case in 0..CASES as usize {
        let n = rng.random_range(0..3_000) as usize;
        let keys: Vec<u64> = (0..n)
            .map(|_| match case % 4 {
                0 => rng.random_range(0..200),
                1 => rng.random(),
                2 => zipf.sample(&mut rng),
                _ => rng.random_range(0..4_000_000),
            })
            .collect();
        let values: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let most = [2, 5, 100, n.max(1)][(case / 4) % 4];
        let mode = [HashAgg::SumCount, HashAgg::Values][(case / 16) % 2];
        let hbm_kib = [48, 160, 1 << 16][rng.random_range(0..3) as usize];
        let expected = rng.random_range(1..64) as usize;
        let side = || {
            let mut machine = MachineConfig::knl();
            machine.hbm.capacity_bytes = hbm_kib * 1024;
            let env = MemEnv::new(machine);
            let mut ctx = ExecCtx::new(&env);
            let table =
                HashGrouper::with_mode(&mut ctx, expected, mode, MemKind::Hbm, Priority::Normal)
                    .expect("the seed table fits");
            (env, table)
        };
        let state = |env: &MemEnv, t: &HashGrouper| {
            let pools = (
                env.pool(MemKind::Hbm).stats(),
                env.pool(MemKind::Dram).stats(),
            );
            (t.slots(), t.kind(), t.len(), env.spill_count(), pools)
        };
        let ((pair_env, mut per_pair), (batch_env, mut batched)) = (side(), side());
        let mut at = 0;
        while at < n {
            let end = n.min(at + rng.random_range(1..=most as u64) as usize);
            let value = |i: usize| values[at + i];
            reference::hash_ingest(&mut per_pair, &keys[at..end], value).expect("fits");
            let batch = &keys[at..end];
            let key = |i: usize| batch[i];
            batched
                .try_insert_all(batch.len(), key, value)
                .expect("fits");
            assert_eq!(
                state(&batch_env, &batched),
                state(&pair_env, &per_pair),
                "case {case}: after pairs {at}..{end}"
            );
            at = end;
        }
        assert_eq!(
            batched.drain_sorted(),
            per_pair.drain_sorted(),
            "case {case}"
        );
        assert_eq!(
            batched.drain_values_sorted(),
            per_pair.drain_values_sorted(),
            "case {case}"
        );
        spilled[(case / 16) % 2] += usize::from(batched.kind() == MemKind::Dram);
    }
    assert!(
        spilled.iter().all(|&s| s > 0),
        "a grow spills in both modes: {spilled:?}"
    );
}

/// The hash path's one-pass key swap (`Kpa::key_swap_reading`, each
/// record's key and value read together) fills the table exactly as the
/// two-pass path — `key_swap`, then a resolver pass for the values inside
/// the insert loop — with and without a key map: the same drained rows,
/// slots, tier, spill count, both pools' `PoolStats` and charged profile.
#[test]
fn hash_swap_reading_equals_the_two_pass_ingest() {
    use streambox_hbm::kpa::hash::{HashAgg, HashGrouper};
    let mut rng = SbxRng::seed_from_u64(0x5b57_1017);
    let mut spilled = 0;
    for case in 0..CASES as usize {
        let batches: Vec<Vec<u64>> = (0..rng.random_range(1..6))
            .map(|_| {
                let n = rng.random_range(0..3_000);
                let space = [200, 50_000, u64::MAX][case % 3];
                (0..n)
                    .flat_map(|t| [rng.random_range(0..space), rng.random(), t])
                    .collect()
            })
            .collect();
        let mapped = case % 2 == 1;
        let hbm_kib = [48, 1 << 16][case / 2 % 2];
        let side = |one_pass: bool| {
            let mut machine = MachineConfig::knl();
            machine.hbm.capacity_bytes = hbm_kib * 1024;
            let env = MemEnv::new(machine);
            let mut ctx = ExecCtx::new(&env);
            let (hbm, mode) = ((MemKind::Hbm, Priority::Normal), HashAgg::SumCount);
            let mut table =
                HashGrouper::with_mode(&mut ctx, 1024, mode, hbm.0, hbm.1).expect("fits");
            let mut values = Vec::new();
            for rows in &batches {
                let b = RecordBundle::from_rows(&env, Schema::kvt(), rows).expect("fits");
                let mut kpa = Kpa::extract(&mut ctx, &b, Col(2), hbm.0, hbm.1).expect("fits");
                if one_pass {
                    kpa.key_swap_reading(&mut ctx, Col(0), Col(1), &mut values);
                } else {
                    kpa.key_swap(&mut ctx, Col(0));
                }
                if mapped {
                    kpa.update_keys(&mut ctx, |k| k % 977);
                }
                let (n, keys) = (kpa.len(), kpa.keys());
                let key = |i: usize| keys[i];
                if one_pass {
                    table.try_insert_all(n, key, |i| values[i]).expect("fits");
                } else {
                    let records = kpa.resolver();
                    let value = |i| records.value(i, Col(1));
                    table.try_insert_all(n, key, value).expect("fits");
                }
            }
            let pools = [MemKind::Hbm, MemKind::Dram].map(|k| env.pool(k).stats());
            let state = (table.slots(), table.kind(), env.spill_count(), pools);
            (table.drain_sorted(), state, ctx.take_profile())
        };
        let (one, two) = (side(true), side(false));
        assert_eq!(one.0, two.0, "case {case}: rows");
        assert_eq!(one.1, two.1, "case {case}: table and pools");
        assert!(one.2 == two.2, "case {case}: charged profile");
        spilled += usize::from(one.1 .1 == MemKind::Dram);
    }
    assert!(spilled > 0, "a table spills");
}

/// Early aggregation's per-bundle partial folds each pair's value by key
/// (`Kpa::sort_fold`, then `Kpa::reduce_fold` into the partial bundle)
/// where it once sorted the pointer KPA and read each value back through
/// its pointer (`reference::partials`): the same rows, both pools'
/// `PoolStats`, spill count and charged profile, for a Sum and a Count,
/// over dense, sparse and exactly-at-threshold key spans, all-equal and
/// `u64::MAX` keys, 1 000 and 4 M uniform keys, n in {0, 1, 32, 33, 20 000}, with and without a key map
/// and values read by the key swap, each partial placed as a window's run
/// at 64 MiB and at 160 KiB of HBM.
#[test]
fn early_partials_equal_sort_then_scalar_fold() {
    use streambox_hbm::kpa::mergepath::{KeyFold, DENSE_SPAN};
    let mut rng = SbxRng::seed_from_u64(0x5b57_1018);
    let (mut case, mut spilled) = (0usize, 0);
    for n in [0usize, 1, 32, 33, 20_000] {
        // Key spans: dense, sparse, just below and exactly at the
        // threshold, all equal, next to `u64::MAX`, and the 1 000 and 4 M
        // keys of `ysb`'s campaigns and `sum_highcard_sort`.
        for shape in 0..8 {
            let span = DENSE_SPAN * n as u64;
            let base = rng.random_range(0..1 << 40);
            let mut keys: Vec<u64> = (0..n)
                .map(|_| match shape {
                    0 => rng.random_range(0..n.max(1) as u64),
                    1 => rng.random(),
                    2 => base + rng.random_range(0..span.max(1)),
                    3 => base + rng.random_range(0..=span),
                    4 => base,
                    5 => u64::MAX - rng.random_range(0..3),
                    6 => rng.random_range(0..1_000),
                    _ => rng.random_range(0..4_000_000),
                })
                .collect();
            // Pin the span's ends where the shape needs them.
            if let (2 | 3, [first, second, ..]) = (shape, &mut keys[..]) {
                (*first, *second) = (base, base + span - u64::from(shape == 2));
            }
            for kind in [Some(Col(1)), None] {
                case += 1;
                let (swapped, mapped) = (case % 2 == 0, case % 3 == 0);
                let hbm_kib = [1 << 16, 160][case / 4 % 2];
                let bundles: Vec<Vec<u64>> = (0..3)
                    .map(|t| keys.iter().flat_map(|&k| [k, rng.random(), t]).collect())
                    .collect();
                let side = |mut fold: Option<&mut KeyFold>| {
                    let mut machine = MachineConfig::knl();
                    machine.hbm.capacity_bytes = hbm_kib * 1024;
                    let env = MemEnv::new(machine);
                    let mut ctx = ExecCtx::new(&env);
                    let hbm = (MemKind::Hbm, Priority::Normal);
                    let (mut window, mut rows, mut values) = (Vec::new(), Vec::new(), Vec::new());
                    for flat in &bundles {
                        let b = RecordBundle::from_rows(&env, Schema::kvt(), flat).expect("fits");
                        let resident = if swapped { Col(2) } else { Col(0) };
                        let mut kpa =
                            Kpa::extract(&mut ctx, &b, resident, hbm.0, hbm.1).expect("fits");
                        let read = swapped && kind.is_some() && fold.is_some();
                        if read {
                            kpa.key_swap_reading(&mut ctx, Col(0), Col(1), &mut values);
                        } else if swapped {
                            kpa.key_swap(&mut ctx, Col(0));
                        }
                        if mapped {
                            kpa.update_keys(&mut ctx, |k| k % 977);
                        }
                        let partials = match fold.as_deref_mut() {
                            Some(fold) => {
                                let values = read.then_some(&values[..]);
                                let slots = 3 * kpa.sort_fold(&mut ctx, kind, values, fold);
                                RecordBundle::from_fill(&env, Schema::kvt(), slots, |rows| {
                                    let emit = |k, s| rows.extend_from_slice(&[k, s, 0]);
                                    kpa.reduce_fold(&mut ctx, fold, emit);
                                })
                            }
                            None => reference::partials(&mut ctx, &mut kpa, kind),
                        }
                        .expect("fits");
                        let fused = ExtractCharge::Fused;
                        let mut run =
                            Kpa::extract_in_place(&mut ctx, &partials, Col(0), hbm.0, hbm.1, fused)
                                .expect("fits");
                        run.mark_sorted();
                        rows.push(partials.as_rows().to_vec());
                        window.push(run);
                    }
                    let pools = [MemKind::Hbm, MemKind::Dram].map(|k| env.pool(k).stats());
                    (rows, pools, env.spill_count(), ctx.take_profile())
                };
                let (want, got) = (side(None), side(Some(&mut KeyFold::default())));
                let what = format!("case {case}: n {n}, shape {shape}, {kind:?}");
                assert_eq!(got.0, want.0, "{what}: rows");
                assert_eq!(got.1, want.1, "{what}: pools");
                assert_eq!(got.2, want.2, "{what}: spills");
                assert!(got.3 == want.3, "{what}: charged profile");
                spilled += usize::from(hbm_kib == 160 && got.2 > 0);
            }
        }
    }
    assert!(spilled > 0, "a partial spills at 160 KiB of HBM");
}

/// A window's bundle taken in place — `WindowInto` makes Extract's request
/// and charge but writes no pair, a bundle in one pane reaches the key swap
/// as its rows, and the sort fold and the hash insert read key and value
/// from them — closes as the written path does
/// (`reference::window_written`: Extract, Partition, then the key swap
/// reading each value through its pointer): the same rows, both pools'
/// `PoolStats`, spill count and charged profile. `Sum` and `Count` on the
/// sort, hash, adaptive and row backends; bundles in one pane, straddling
/// two, and out of order; 1 000 and 4 M keys; 64 MiB and 160 KiB of HBM.
#[test]
fn in_place_windows_equal_extract_partition_and_the_key_swap() {
    use streambox_hbm::engine::ops::{KeyedAggregate, WindowInto};
    use streambox_hbm::engine::{
        DemandBalancer, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData,
    };
    const WIDTH: u64 = 1_000;
    let mut rng = SbxRng::seed_from_u64(0x5b57_1019);
    let (mut spilled, mut hashed) = (0, 0);
    for case in 0..12usize {
        let (shape, hbm_kib) = (case % 3, [1 << 16, 160][case / 3 % 2]);
        let space = [1_000, 4_000_000][case / 6];
        // Three bundles to a pane, each a third of it; straddling bundles
        // start 400 ticks apart and span 500; out-of-order ones add up to
        // 400 ticks of jitter to one-pane bundles.
        let starts: Vec<u64> = (0..12u64)
            .map(|j| match shape {
                1 => 400 * j,
                _ => j / 3 * WIDTH + j % 3 * WIDTH / 3,
            })
            .collect();
        let bundles: Vec<Vec<u64>> = starts
            .iter()
            .map(|&t0| {
                let n = rng.random_range(0..1_500);
                let span = if shape == 1 { 500 } else { WIDTH / 3 };
                (0..n)
                    .flat_map(|i| {
                        let jitter = if shape == 2 {
                            rng.random_range(0..400)
                        } else {
                            0
                        };
                        let t = t0 + i * span / n + jitter;
                        [rng.random_range(0..space), rng.random_range(0..1 << 20), t]
                    })
                    .collect()
            })
            .collect();
        for kind in [AggKind::Sum, AggKind::Count] {
            for backend in [
                (GroupingSpec::SortMerge, EngineMode::Hybrid),
                (GroupingSpec::Hash, EngineMode::Hybrid),
                (GroupingSpec::Adaptive, EngineMode::Hybrid),
                (GroupingSpec::SortMerge, EngineMode::Row),
            ] {
                let side = |in_place: bool| {
                    let mut machine = MachineConfig::knl();
                    machine.hbm.capacity_bytes = hbm_kib * 1024;
                    let env = MemEnv::new(machine);
                    let mut bal = DemandBalancer::new();
                    let mut ctx = OpCtx::new(&env, &mut bal, backend.1, ImpactTag::High);
                    let spec = WindowSpec::fixed(WIDTH);
                    let mut window = WindowInto::new(spec);
                    let mut agg =
                        KeyedAggregate::new(spec, Col(0), Col(1), kind).with_grouping(backend.0);
                    let mut rows = Vec::new();
                    let mut feed = |ctx: &mut OpCtx<'_>, msgs: Vec<Message>| {
                        for out in msgs
                            .into_iter()
                            .flat_map(|m| agg.on_message(ctx, m).unwrap())
                        {
                            if let Message::Data {
                                data: StreamData::Bundle(b),
                                ..
                            } = out
                            {
                                rows.extend_from_slice(b.as_rows());
                            }
                        }
                    };
                    for (flat, &t0) in bundles.iter().zip(&starts) {
                        let b = RecordBundle::from_rows(&env, Schema::kvt(), flat).expect("fits");
                        let windowed = match in_place {
                            true => window
                                .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
                                .expect("fits"),
                            false => reference::window_written(&mut ctx, b, WIDTH),
                        };
                        feed(&mut ctx, windowed);
                        let wm = Watermark::from(t0.saturating_sub(WIDTH / 2));
                        feed(&mut ctx, vec![Message::Watermark(wm)]);
                    }
                    feed(
                        &mut ctx,
                        vec![Message::Watermark(Watermark::from(u64::MAX))],
                    );
                    let events = ctx.take_events();
                    let pools = [MemKind::Hbm, MemKind::Dram].map(|k| env.pool(k).stats());
                    (rows, pools, env.spill_count(), ctx.take_profile(), events)
                };
                let (got, want) = (side(true), side(false));
                let what = format!("case {case}: shape {shape}, {kind:?}, {backend:?}");
                assert_eq!(got.0, want.0, "{what}: rows");
                assert_eq!(got.1, want.1, "{what}: pools");
                assert_eq!(got.2, want.2, "{what}: spills");
                assert!(got.3 == want.3, "{what}: charged profile");
                assert_eq!(got.4, want.4, "{what}: backend events");
                spilled += usize::from(got.2 > 0);
                if backend.0 == GroupingSpec::Adaptive {
                    hashed += got.4.iter().filter(|e| e.ends_with("hash")).count();
                }
            }
        }
    }
    assert!(spilled > 0, "a window spills at 160 KiB of HBM");
    assert!(hashed > 0, "the adaptive choice picks a hash table");
}

/// Routed shards are disjoint and jointly exhaustive: over random shard
/// and slot counts, every key lives on one shard, and the shards' rows of
/// one logical block are exactly that block's records.
#[test]
fn routed_shards_cover_the_stream() {
    use std::collections::HashMap;
    let mut rng = SbxRng::seed_from_u64(0x5b57_100b);
    for _ in 0..CASES {
        let shards = rng.random_range(1..6) as u32;
        let slots = rng.random_range(u64::from(shards)..200) as u32;
        let rows = rng.random_range(1..200) as usize;
        let seed = rng.random();
        let table = RouteTable::uniform(shards, slots);
        let mut owner_of: HashMap<u64, u32> = HashMap::new();
        let mut got: Vec<[u64; 3]> = Vec::new();
        for shard in 0..shards {
            let mut s = RoutedSource::new(KvSource::new(seed, 50, 1_000), 0, table.clone(), shard);
            let mut v = Vec::new();
            s.fill(rows, &mut v);
            assert_eq!(v.len() % 3, 0);
            for row in v.chunks(3) {
                if let Some(prev) = owner_of.insert(row[0], shard) {
                    assert_eq!(prev, shard, "key {} seen on two shards", row[0]);
                }
                got.push([row[0], row[1], row[2]]);
            }
        }
        let mut block = Vec::new();
        KvSource::new(seed, 50, 1_000).fill(rows, &mut block);
        let mut block: Vec<[u64; 3]> = block.chunks(3).map(|r| [r[0], r[1], r[2]]).collect();
        got.sort_unstable();
        block.sort_unstable();
        assert_eq!(got, block, "the shards split the block exactly");
    }
}

/// The single-pass k-way merge of arbitrary sorted partitions is the sorted
/// concatenation of their keys.
#[test]
fn kway_merge_is_the_sorted_concatenation() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_100c);
    for _ in 0..CASES {
        let mut keys = any_keys(&mut rng, 800);
        if keys.is_empty() {
            keys.push(rng.random());
        }
        let chunks = rng.random_range(1..9) as usize;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let chunk = keys.len().div_ceil(chunks);
        let parts: Vec<Kpa> = keys
            .chunks(chunk)
            .map(|piece| {
                let mut kpa = kpa_from_keys(&env, &mut ctx, piece);
                kpa.sort(&mut ctx, 2).expect("sort");
                kpa
            })
            .collect();
        let merged =
            Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal).expect("merge");
        keys.sort_unstable();
        assert_eq!(merged.keys(), &keys[..]);
    }
}

/// Window assignment: every window of a timestamp contains it, and fixed
/// windows tile time exactly.
#[test]
fn window_assignment_invariants() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_100d);
    for _ in 0..CASES {
        let ts = rng.random();
        let size = rng.random_range(1..1_000_000);
        let k = rng.random_range(1..5);
        let size = size * k; // ensure slide divides size
        let fixed = WindowSpec::fixed(size);
        let w = fixed.window_of(EventTime(ts));
        assert!(fixed.start(w).raw() <= ts);
        if let Some(end) = fixed.start(w).raw().checked_add(size) {
            assert!(ts < end);
        }
        let sliding = WindowSpec::sliding(size, size / k);
        for w in sliding.windows_of(EventTime(ts)) {
            assert!(sliding.start(w).raw() <= ts && ts < sliding.end(w).raw());
        }
    }
}
