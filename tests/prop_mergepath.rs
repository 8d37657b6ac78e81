//! Randomized property tests for the k-way merge and the thread-count
//! determinism of the sort and the join.
//!
//! Cases come from a fixed-seed [`SbxRng`], so every run checks the same
//! inputs (deterministic, offline-friendly).

use sbx_prng::SbxRng;
use streambox_hbm::ingress::ZipfKeys;
use streambox_hbm::kpa::mergepath::{merge_runs, Run};
use streambox_hbm::kpa::{join_sorted, ExecCtx, Kpa, WorkerPool};
use streambox_hbm::prelude::*;

fn env() -> MemEnv {
    MemEnv::new(MachineConfig::knl().scaled(0.05))
}

fn as_runs(data: &[(Vec<u64>, Vec<u64>)]) -> Vec<Run<'_>> {
    data.iter().map(|(k, p)| Run::pairs(k, p)).collect()
}

/// The oracle `merge_runs` is checked against, whatever kernel it runs:
/// per output pair, a linear scan of all run heads for the minimum key,
/// the lowest run index winning ties.
fn linear_scan_merge(runs: &[Run<'_>]) -> (Vec<u64>, Vec<u64>) {
    let mut pos = vec![0usize; runs.len()];
    let (mut keys, mut ptrs) = (Vec::new(), Vec::new());
    loop {
        let mut best: Option<(u64, usize)> = None;
        for r in 0..runs.len() {
            if pos[r] < runs[r].len() {
                let v = runs[r].key(pos[r]);
                if best.is_none_or(|(b, _)| v < b) {
                    best = Some((v, r));
                }
            }
        }
        let Some((_, r)) = best else { break };
        keys.push(runs[r].key(pos[r]));
        ptrs.push(runs[r].ptr(pos[r]));
        pos[r] += 1;
    }
    (keys, ptrs)
}

/// Key distributions the merge kernels are checked on.
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    /// A few dozen distinct keys at most: heavy ties across runs.
    Duplicates,
    /// One key everywhere.
    AllEqual,
    /// One key owns nine pairs in ten, the rest are spread out.
    OneHot,
    /// Small keys plus a single `u64::MAX` pair somewhere.
    FarOutlier,
    /// The full `u64` range, `0` and `u64::MAX` included.
    FullWidth,
    /// 4 M uniform keys, as `sum_highcard_sort`: nearly every key distinct.
    Uniform4M,
    /// 1 000 uniform keys: a few pairs per key and run.
    Keys1000,
    /// 1 000 keys, Zipf 0.99, as `sum_lowcard_adaptive`: a few hot keys own
    /// most pairs.
    Zipf099,
}

const KEY_SHAPES: [KeyShape; 8] = [
    KeyShape::Duplicates,
    KeyShape::AllEqual,
    KeyShape::OneHot,
    KeyShape::FarOutlier,
    KeyShape::FullWidth,
    KeyShape::Uniform4M,
    KeyShape::Keys1000,
    KeyShape::Zipf099,
];

/// `k` runs sorted by key, keys drawn from `shape`: every third run or so
/// is empty, every fourth holds a single pair, the rest up to `max_len`
/// pairs. Pointers are drawn from a handful of values and from the whole
/// range alike, out of order within equal keys, so a merge that broke ties
/// by pointer instead of by run would show.
fn shaped_runs(
    rng: &mut SbxRng,
    k: usize,
    max_len: u64,
    shape: KeyShape,
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let key_space = 1 + rng.random_range(0..6) * rng.random_range(0..6);
    let hot = rng.random();
    let outlier_run = rng.random_range(0..k as u64) as usize;
    let zipf = ZipfKeys::new(1_000, 0.99);
    (0..k)
        .map(|r| {
            let n = match rng.random_range(0..12) {
                0..4 => 0,
                4..7 => 1,
                _ => rng.random_range(0..max_len) as usize,
            };
            let mut pairs: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    let key = match shape {
                        KeyShape::Duplicates | KeyShape::FarOutlier => {
                            rng.random_range(0..key_space)
                        }
                        KeyShape::AllEqual => hot,
                        KeyShape::OneHot => match rng.random_range(0..10) {
                            0 => rng.random(),
                            _ => hot,
                        },
                        KeyShape::FullWidth => match rng.random_range(0..50) {
                            0 => 0,
                            1 => u64::MAX,
                            _ => rng.random(),
                        },
                        KeyShape::Uniform4M => rng.random_range(0..4_000_000),
                        KeyShape::Keys1000 => rng.random_range(0..1_000),
                        KeyShape::Zipf099 => zipf.sample(rng),
                    };
                    let ptr = match rng.random_range(0..2) {
                        0 => rng.random_range(0..4),
                        _ => rng.random(),
                    };
                    (key, ptr)
                })
                .collect();
            if matches!(shape, KeyShape::FarOutlier) && r == outlier_run {
                pairs.push((u64::MAX, rng.random()));
            }
            pairs.sort_by_key(|&(key, _)| key);
            pairs.into_iter().unzip()
        })
        .collect()
}

/// `merge_runs` is byte-identical to the linear-scan oracle at narrow and
/// wide fan-ins, over every key shape, with empty and single-pair runs.
/// Runs are long enough at the wider fan-ins, and at two runs of up to
/// 12 000 pairs (the join's merges), for the kernel to cut its input into
/// several buckets.
#[test]
fn merge_span_matches_linear_scan_oracle() {
    let mut rng = SbxRng::seed_from_u64(0x6d70_0005);
    for (k, max_len) in [
        (1usize, 300),
        (2, 300),
        (3, 6_000),
        (25, 1_500),
        (64, 600),
        (200, 200),
        (2, 12_000),
    ] {
        for shape in KEY_SHAPES {
            for _case in 0..4 {
                let data = shaped_runs(&mut rng, k, max_len, shape);
                let runs = as_runs(&data);
                let total: usize = runs.iter().map(Run::len).sum();
                let (want_k, want_p) = linear_scan_merge(&runs);
                assert_eq!(want_k.len(), total);

                let mut got_k = vec![0u64; total];
                let mut got_p = vec![0u64; total];
                merge_runs(&runs, &mut got_k, &mut got_p);
                assert_eq!(got_k, want_k, "k {k} {shape:?} keys");
                assert_eq!(got_p, want_p, "k {k} {shape:?} ptrs");
            }
        }
    }
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

/// `Kpa::sort` is bit-identical across the thread counts its ignored
/// argument and the `WorkerPool` shim still take: identical keys and
/// identical referenced rows at every position, for duplicate-heavy and
/// uniform key distributions alike.
#[test]
fn sort_is_deterministic_across_thread_counts() {
    let mut rng = SbxRng::seed_from_u64(0x6d70_0003);
    for case in 0..12u64 {
        let n = rng.random_range(1..4_000) as usize;
        let key_space = 1 + rng.random_range(0..100);
        let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..key_space)).collect();

        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut reference = kpa_from_keys(&env, &mut ctx, &keys);
        reference.sort(&mut ctx, 1).expect("sort");
        let want: Vec<(u64, u32)> = (0..reference.len())
            .map(|i| (reference.keys()[i], reference.record_ref(i).row))
            .collect();

        for threads in [2usize, 3, 5, 8] {
            let mut ctx = ExecCtx::with_pool(&env, WorkerPool::new(threads));
            let mut kpa = kpa_from_keys(&env, &mut ctx, &keys);
            kpa.sort(&mut ctx, threads).expect("sort");
            let got: Vec<(u64, u32)> = (0..kpa.len())
                .map(|i| (kpa.keys()[i], kpa.record_ref(i).row))
                .collect();
            assert_eq!(got, want, "case {case} threads {threads}");
        }
    }
}

/// The join emits the same sequence through a context built with the
/// `WorkerPool` shim at every width it once fanned out to.
#[test]
fn partitioned_join_preserves_emission_order() {
    let mut rng = SbxRng::seed_from_u64(0x6d70_0004);
    for case in 0..12u64 {
        let key_space = 1 + rng.random_range(0..30);
        let ln = rng.random_range(0..800) as usize;
        let rn = rng.random_range(0..800) as usize;
        let mut lkeys: Vec<u64> = (0..ln).map(|_| rng.random_range(0..key_space)).collect();
        let mut rkeys: Vec<u64> = (0..rn).map(|_| rng.random_range(0..key_space)).collect();
        lkeys.sort_unstable();
        rkeys.sort_unstable();

        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut left = kpa_from_keys(&env, &mut ctx, &lkeys);
        let mut right = kpa_from_keys(&env, &mut ctx, &rkeys);
        left.sort(&mut ctx, 1).expect("sort");
        right.sort(&mut ctx, 1).expect("sort");

        let mut want = Vec::new();
        let want_stats = join_sorted(&mut ctx, &left, &right, 32, |_, li, _, ri| {
            want.push((li, ri));
        });

        for width in [2usize, 4, 7] {
            let mut ctx = ExecCtx::with_pool(&env, WorkerPool::new(width));
            let mut got = Vec::new();
            let stats = join_sorted(&mut ctx, &left, &right, 32, |_, li, _, ri| {
                got.push((li, ri));
            });
            assert_eq!(stats, want_stats, "case {case} width {width}");
            assert_eq!(got, want, "case {case} width {width}");
        }
    }
}
