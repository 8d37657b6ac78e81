//! Kernel scaling: host wall-clock of the merge-path grouping kernels
//! (Sort, Merge, Join) across worker-pool widths, the serial chunk sort and
//! k-way merge against the kernels they replaced over a grid of key
//! distributions and run counts, plus the modelled pass-bytes comparison
//! between the retired multipass structure and the single-pass merge-path
//! kernels.
//!
//! Unlike the figure sweeps, the *time* column here is real host time of
//! the functional kernels (`std::time::Instant`), not modelled KNL time:
//! it demonstrates that the partitioned kernels scale with threads on the
//! host. The modelled columns show the memory-traffic reduction that
//! feeds Figures 7-9.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
use std::sync::Arc;
use std::time::Instant; // sbx-lint: allow(wall-clock, host microbench is the point of this table)

use sbx_ingress::ZipfKeys;
use sbx_kpa::mergepath::{self, RankBy, Run};
use sbx_kpa::{join_sorted, profile, sort_pairs, ExecCtx, Kpa, WorkerPool};
use sbx_prng::SbxRng;
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

use crate::table::{f1, Table};

/// Pairs per KPA in the sweep.
pub const PAIRS: usize = 1_000_000;
/// Worker-pool widths swept.
pub const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];
/// Inputs to the wide-merge comparison (one KPA per ingested bundle of a
/// watermark round, as in window closure).
pub const MERGE_WAYS: usize = 16;
/// Pairs per chunk sort in the host-kernel grid: one ingested bundle of
/// the repo benchmark's workloads.
pub const CHUNK_PAIRS: usize = 20_000;
/// Sorted runs per merge swept by the host-kernel grid; 25 is the KPAs
/// closing one window of the repo benchmark.
pub const RUN_COUNTS: [usize; 4] = [2, 8, 25, 64];

/// Key distributions swept by the host-kernel grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// 4 M uniform keys: nearly every key of a chunk distinct
    /// (`sum_highcard_sort`).
    Uniform4M,
    /// 1 000 uniform keys: twenty pairs per key and chunk.
    Keys1000,
    /// 1 000 keys, Zipf 0.99: a few hot keys own most pairs
    /// (`sum_lowcard_adaptive`'s keys).
    Zipf099,
    /// Keys over the full 64-bit range: every digit varies.
    Full64,
}

impl KeyDist {
    /// Every distribution, in table order.
    pub const ALL: [KeyDist; 4] = [
        KeyDist::Uniform4M,
        KeyDist::Keys1000,
        KeyDist::Zipf099,
        KeyDist::Full64,
    ];

    fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform4M => "4 M uniform",
            KeyDist::Keys1000 => "1 000 keys",
            KeyDist::Zipf099 => "Zipf 0.99",
            KeyDist::Full64 => "full 64-bit",
        }
    }

    fn keys(self, rng: &mut SbxRng, n: usize) -> Vec<u64> {
        let zipf = ZipfKeys::new(1_000, 0.99);
        (0..n)
            .map(|_| match self {
                KeyDist::Uniform4M => rng.random_range(0..4_000_000),
                KeyDist::Keys1000 => rng.random_range(0..1_000),
                KeyDist::Zipf099 => zipf.sample(rng),
                KeyDist::Full64 => rng.random(),
            })
            .collect()
    }
}

fn env() -> MemEnv {
    MemEnv::new(MachineConfig::knl().scaled(0.05))
}

fn bundle(env: &MemEnv, n: usize, seed: u64) -> Arc<RecordBundle> {
    let mut rng = SbxRng::seed_from_u64(seed);
    let flat: Vec<u64> = (0..n)
        .flat_map(|_| [rng.random_range(0..(n as u64 / 4).max(1)), rng.random(), 0])
        .collect();
    RecordBundle::from_rows(env, Schema::kvt(), &flat).expect("bundle fits in DRAM")
}

fn extracted(ctx: &mut ExecCtx, b: &Arc<RecordBundle>) -> Kpa {
    Kpa::extract(ctx, b, Col(0), MemKind::Hbm, Priority::Normal).expect("KPA fits in HBM")
}

/// Runs `f` and returns its result with the host seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now(); // sbx-lint: allow(wall-clock, host kernel timing)
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times `sort`, two-way `merge` and `join` at pool width `width` over
/// [`PAIRS`]-pair inputs; returns host milliseconds per kernel.
pub fn measure_width(width: usize) -> (f64, f64, f64) {
    let env = env();
    let mut ctx = ExecCtx::with_pool(&env, WorkerPool::new(width));
    let b = bundle(&env, PAIRS, 11);

    let mut kpa = extracted(&mut ctx, &b);
    let ((), sort_s) = timed(|| kpa.sort(&mut ctx, width).expect("sort"));

    // Two sorted halves of the same pair count feed merge and join.
    let bh = bundle(&env, PAIRS / 2, 12);
    let bh2 = bundle(&env, PAIRS / 2, 13);
    let mut left = extracted(&mut ctx, &bh);
    let mut right = extracted(&mut ctx, &bh2);
    left.sort(&mut ctx, width).expect("sort");
    right.sort(&mut ctx, width).expect("sort");

    let (merged, merge_s) = timed(|| {
        Kpa::merge(&mut ctx, &left, &right, MemKind::Hbm, Priority::Normal).expect("merge fits")
    });
    assert_eq!(merged.len(), PAIRS, "merge covers both inputs");

    let mut emitted = 0usize;
    let (stats, join_s) =
        timed(|| join_sorted(&mut ctx, &left, &right, 32, |_, _, _, _| emitted += 1));
    assert_eq!(stats.emitted, emitted, "join stats agree with emissions");

    (sort_s * 1e3, merge_s * 1e3, join_s * 1e3)
}

/// One cell of the host-kernel grid: median host nanoseconds per pair of
/// the serial chunk sort and the k-way merge, reference kernel vs current.
#[derive(Debug, Clone, Copy)]
pub struct KernelCell {
    /// Reference chunk sort ([`reference::sort_pairs`]).
    pub sort_old: f64,
    /// Current chunk sort ([`sbx_kpa::sort_pairs`]).
    pub sort_new: f64,
    /// Reference merge ([`reference::merge_span`]).
    pub merge_old: f64,
    /// Current merge ([`mergepath::merge_span`]).
    pub merge_new: f64,
}

/// Times the serial kernels on `runs` chunks of [`CHUNK_PAIRS`] pairs drawn
/// from `dist`, pointers ascending as a fresh extraction leaves them, then
/// merges the sorted chunks in key order as a window close does; `reps`
/// fresh inputs, median over all timings.
///
/// # Panics
///
/// Panics if the current kernels' output differs from the reference
/// kernels' in any byte.
pub fn measure_kernel_cell(dist: KeyDist, runs: usize, reps: usize) -> KernelCell {
    let median = |mut ns: Vec<f64>| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    let per_pair = |secs: f64, pairs: usize| secs * 1e9 / pairs as f64;
    let mut rng = SbxRng::seed_from_u64(16 + runs as u64);
    let (mut sort_old, mut sort_new) = (Vec::new(), Vec::new());
    let (mut merge_old, mut merge_new) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let mut chunks = Vec::new();
        for bundle in 0..runs as u64 {
            let keys = dist.keys(&mut rng, CHUNK_PAIRS);
            let ptrs: Vec<u64> = (0..CHUNK_PAIRS as u64)
                .map(|row| bundle << 32 | row)
                .collect();
            let (mut want_k, mut want_p) = (keys.clone(), ptrs.clone());
            let ((), secs) = timed(|| reference::sort_pairs(&mut want_k, &mut want_p));
            sort_old.push(per_pair(secs, CHUNK_PAIRS));
            let (mut got_k, mut got_p) = (keys, ptrs);
            let ((), secs) = timed(|| sort_pairs(&mut got_k, &mut got_p));
            sort_new.push(per_pair(secs, CHUNK_PAIRS));
            assert!(
                got_k == want_k && got_p == want_p,
                "chunk sort differs from the reference: {dist:?}"
            );
            chunks.push((got_k, got_p));
        }
        let inputs: Vec<Run<'_>> = chunks
            .iter()
            .map(|(keys, ptrs)| Run { keys, ptrs })
            .collect();
        let (lo, hi) = (vec![0; runs], vec![CHUNK_PAIRS; runs]);
        let total = runs * CHUNK_PAIRS;
        // Non-zero fill: the pages are touched before the timing starts.
        let (mut want_k, mut want_p) = (vec![1u64; total], vec![1u64; total]);
        let (mut got_k, mut got_p) = (vec![1u64; total], vec![1u64; total]);
        let ((), secs) = timed(|| {
            reference::merge_span(&inputs, &lo, &hi, RankBy::Key, &mut want_k, &mut want_p);
        });
        merge_old.push(per_pair(secs, total));
        let ((), secs) = timed(|| {
            mergepath::merge_span(&inputs, &lo, &hi, RankBy::Key, &mut got_k, &mut got_p);
        });
        merge_new.push(per_pair(secs, total));
        assert!(
            got_k == want_k && got_p == want_p,
            "merge differs from the reference: {dist:?} x {runs} runs"
        );
    }
    KernelCell {
        sort_old: median(sort_old),
        sort_new: median(sort_new),
        merge_old: median(merge_old),
        merge_new: median(merge_new),
    }
}

/// Runs the host-kernel grid ([`KeyDist::ALL`] × [`RUN_COUNTS`]) and renders
/// it. Up to two runs merge with the same two-way loop on both sides, so
/// those merge cells read 1.0 x within noise.
pub fn run_kernel_grid(reps: usize) -> String {
    let mut t = Table::new(
        &format!(
            "Host kernels, serial, {CHUNK_PAIRS}-pair chunks (median ns/pair): \
             PR 12 reference (pdqsort, loser tree) vs radix sort, splitter merge"
        ),
        &[
            "keys",
            "runs",
            "sort old",
            "sort new",
            "gain",
            "merge old",
            "merge new",
            "gain",
        ],
    );
    for dist in KeyDist::ALL {
        for runs in RUN_COUNTS {
            let c = measure_kernel_cell(dist, runs, reps);
            t.row(vec![
                dist.label().into(),
                runs.to_string(),
                f1(c.sort_old),
                f1(c.sort_new),
                format!("{}x", f1(c.sort_old / c.sort_new)),
                f1(c.merge_old),
                f1(c.merge_new),
                format!("{}x", f1(c.merge_old / c.merge_new)),
            ]);
        }
    }
    t.print()
}

/// The kernels `sbx_kpa::sort_pairs` and `mergepath::merge_span` ran before
/// the radix kernels, kept as the reference the grid times and checks them
/// against.
pub mod reference {
    use sbx_kpa::mergepath::{RankBy, Run};

    /// Chunk sort: one pattern-defeating quicksort over the pairs packed as
    /// 128-bit `(key << 64) | ptr` values.
    pub fn sort_pairs(keys: &mut [u64], ptrs: &mut [u64]) {
        let mut packed: Vec<u128> = keys
            .iter()
            .zip(ptrs.iter())
            .map(|(&k, &p)| (u128::from(k) << 64) | u128::from(p))
            .collect();
        packed.sort_unstable();
        for ((k, p), v) in keys.iter_mut().zip(ptrs.iter_mut()).zip(packed) {
            *k = (v >> 64) as u64;
            *p = v as u64;
        }
    }

    /// K-way merge of `runs[r][lo[r]..hi[r]]` in `by` order, run index
    /// breaking ties: two-way loop up to two runs, loser tree above.
    pub fn merge_span(
        runs: &[Run<'_>],
        lo: &[usize],
        hi: &[usize],
        by: RankBy,
        out_keys: &mut [u64],
        out_ptrs: &mut [u64],
    ) {
        match by {
            RankBy::Compound => {
                let head = |r: usize, i: usize| (runs[r].keys[i], runs[r].ptrs[i]);
                merge_span_by(runs, lo, hi, head, out_keys, out_ptrs);
            }
            RankBy::Key => {
                let head = |r: usize, i: usize| runs[r].keys[i];
                merge_span_by(runs, lo, hi, head, out_keys, out_ptrs);
            }
        }
    }

    fn merge_span_by<V: Ord + Copy + Default>(
        runs: &[Run<'_>],
        lo: &[usize],
        hi: &[usize],
        head: impl Fn(usize, usize) -> V,
        out_keys: &mut [u64],
        out_ptrs: &mut [u64],
    ) {
        let k = runs.len();
        let mut pos: Vec<usize> = lo.to_vec();
        let mut o = 0usize;
        let mut take = |r: usize, pos: &mut [usize]| {
            out_keys[o] = runs[r].keys[pos[r]];
            out_ptrs[o] = runs[r].ptrs[pos[r]];
            pos[r] += 1;
            o += 1;
        };
        let survivor = if k <= 2 {
            if k == 2 {
                while pos[0] < hi[0] && pos[1] < hi[1] {
                    let r = usize::from(head(1, pos[1]) < head(0, pos[0]));
                    take(r, &mut pos);
                }
            }
            (0..k).find(|&r| pos[r] < hi[r])
        } else {
            // Loser tree over `(drained, head value, run)` entries: leaf `r`
            // hangs below node `(k + r) / 2`, node `n` keeps the loser of
            // its match and `tree[0]` the overall winner.
            let entry = |r: usize, pos: &[usize]| {
                if pos[r] < hi[r] {
                    (false, head(r, pos[r]), r)
                } else {
                    (true, V::default(), r)
                }
            };
            let mut up = vec![(true, V::default(), 0); k];
            up.extend((0..k).map(|r| entry(r, &pos)));
            let mut live = up.iter().filter(|e| !e.0).count();
            let mut tree = up[..k].to_vec();
            for n in (1..k).rev() {
                let (a, b) = (up[2 * n], up[2 * n + 1]);
                (up[n], tree[n]) = if b < a { (b, a) } else { (a, b) };
            }
            tree[0] = up[1];
            while live > 1 {
                let w = tree[0].2;
                take(w, &mut pos);
                let mut cur = entry(w, &pos);
                live -= usize::from(cur.0);
                let mut n = (k + w) / 2;
                while n >= 1 {
                    if tree[n] < cur {
                        std::mem::swap(&mut tree[n], &mut cur);
                    }
                    n /= 2;
                }
                tree[0] = cur;
            }
            (live == 1).then(|| tree[0].2)
        };
        if let Some(r) = survivor {
            let span = pos[r]..hi[r];
            let len = span.len();
            out_keys[o..o + len].copy_from_slice(&runs[r].keys[span.clone()]);
            out_ptrs[o..o + len].copy_from_slice(&runs[r].ptrs[span]);
        }
    }
}

/// Modelled streaming bytes of the old multipass kernels vs the
/// single-pass merge-path kernels, in MB, for [`PAIRS`] pairs on one tier:
/// `(sort_old, sort_new, merge_old, merge_new)`. The merge columns cover a
/// [`MERGE_WAYS`]-way window-closure merge (pairwise rounds re-stream the
/// data `ceil(log2 k)` times; merge-path streams it once).
pub fn modelled_pass_bytes() -> (f64, f64, f64, f64) {
    let mb = |b: f64| b / 1e6;
    let sort_old = profile::sort_multipass(PAIRS, MemKind::Hbm).seq_bytes[MemKind::Hbm.index()];
    let sort_new = profile::sort(PAIRS, MemKind::Hbm).seq_bytes[MemKind::Hbm.index()];
    let rounds = (MERGE_WAYS as f64).log2().ceil();
    let per_pass =
        profile::merge(PAIRS, MemKind::Hbm, MemKind::Hbm).seq_bytes[MemKind::Hbm.index()];
    let merge_old = per_pass * rounds;
    let merge_new = profile::merge_kway(PAIRS, MERGE_WAYS, MemKind::Hbm, MemKind::Hbm).seq_bytes
        [MemKind::Hbm.index()];
    (mb(sort_old), mb(sort_new), mb(merge_old), mb(merge_new))
}

/// Runs the sweep and renders both tables.
pub fn run() -> String {
    let mut t = Table::new(
        "Kernel scaling: host wall-clock per kernel vs worker-pool width (1 M pairs)",
        &["threads", "sort ms", "merge ms", "join ms"],
    );
    for &w in &WIDTHS {
        let (sort_ms, merge_ms, join_ms) = measure_width(w);
        t.row(vec![w.to_string(), f1(sort_ms), f1(merge_ms), f1(join_ms)]);
    }
    let mut out = t.print();

    out.push_str(&run_kernel_grid(5));

    let (so, sn, mo, mn) = modelled_pass_bytes();
    let mut m = Table::new(
        "Modelled streaming traffic: multipass vs single-pass merge-path (1 M pairs, MB)",
        &["kernel", "multipass", "merge-path", "reduction"],
    );
    m.row(vec![
        "sort".into(),
        f1(so),
        f1(sn),
        format!("{}x", f1(so / sn)),
    ]);
    m.row(vec![
        format!("merge ({MERGE_WAYS}-way)"),
        f1(mo),
        f1(mn),
        format!("{}x", f1(mo / mn)),
    ]);
    out.push_str(&m.print());

    let pool = WorkerPool::new(4);
    let mut ctx = ExecCtx::with_pool(&env(), pool.clone());
    let b = bundle(ctx.env(), 100_000, 14);
    let mut kpa = extracted(&mut ctx, &b);
    kpa.sort(&mut ctx, 4).expect("sort");
    let stats = pool.stats();
    let line = format!(
        "pool reuse at width 4: {} scope(s), {} thread spawns, {} waves, {} jobs \
         (one spawn set serves both sort phases)\n",
        stats.scopes, stats.threads_spawned, stats.waves, stats.jobs
    );
    // sbx-lint: allow(no-adhoc-io, bench harness prints its summary line)
    println!("{line}");
    out.push_str(&line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every width produces working kernels; host times are positive.
    /// (Monotone speedup is asserted by eye in EXPERIMENTS.md — wall-clock
    /// on a shared CI box is too noisy for a hard ordering assert.)
    #[test]
    fn kernels_run_at_every_width() {
        for &w in &[1usize, 4] {
            let (s, m, j) = measure_width(w);
            assert!(s > 0.0 && m > 0.0 && j > 0.0, "width {w}: {s} {m} {j}");
        }
    }

    /// A grid cell runs both kernel generations, byte-identical (asserted
    /// inside), and reports positive times.
    #[test]
    fn kernel_grid_cell_matches_the_reference() {
        let c = measure_kernel_cell(KeyDist::Zipf099, 3, 1);
        for ns in [c.sort_old, c.sort_new, c.merge_old, c.merge_new] {
            assert!(ns > 0.0, "{c:?}");
        }
    }

    /// The modelled traffic table must show the single-pass win: sort
    /// drops from levels+1 passes to 2, wide merge from log2(k) to 1.
    #[test]
    fn modelled_bytes_show_single_pass_win() {
        let (so, sn, mo, mn) = modelled_pass_bytes();
        let levels = profile::sort_merge_levels(PAIRS);
        assert!((so / sn - (levels + 1.0) / 2.0).abs() < 1e-9, "{so} / {sn}");
        assert!((mo / mn - 4.0).abs() < 1e-9, "16-way: 4 rounds vs 1 pass");
    }

    /// One pool scope serves both phases of a parallel sort: exactly
    /// `width - 1` threads are spawned, and both waves run through them.
    #[test]
    fn sort_reuses_one_spawn_set() {
        let pool = WorkerPool::new(4);
        let mut ctx = ExecCtx::with_pool(&env(), pool.clone());
        let b = bundle(ctx.env(), 10_000, 15);
        let mut kpa = extracted(&mut ctx, &b);
        kpa.sort(&mut ctx, 4).expect("sort");
        let stats = pool.stats();
        assert_eq!(stats.scopes, 1, "one scope per sort");
        assert_eq!(stats.threads_spawned, 3, "width - 1 spawns");
        assert_eq!(stats.waves, 2, "chunk wave + span wave");
        assert_eq!(stats.jobs, 8, "4 chunk jobs + 4 span jobs");
    }
}
