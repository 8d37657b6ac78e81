//! Kernel scaling: host wall-clock of the merge-path grouping kernels
//! (Sort, Merge, Join) across worker-pool widths, plus the modelled
//! pass-bytes comparison between the retired multipass structure and the
//! single-pass merge-path kernels.
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

use sbx_kpa::{join_sorted, profile, ExecCtx, Kpa, WorkerPool};
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
/// Pairs per chunk sort in the host-kernel table: one ingested bundle of
/// the repo benchmark's `sum_highcard_sort` workload.
pub const CHUNK_PAIRS: usize = 20_000;
/// Sorted runs per merge in the host-kernel table: the KPAs closing one
/// window of that workload.
pub const CHUNK_RUNS: usize = 25;

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

/// Host nanoseconds per pair of the serial grouping kernels at the repo
/// benchmark's shape (`benchmark/`, workload `sum_highcard_sort`): a
/// [`CHUNK_PAIRS`]-pair chunk sort with nearly all keys distinct, and the
/// [`CHUNK_RUNS`]-run window-closure merge of such chunks. Median of
/// `reps` timings each: `(sort, merge)`.
pub fn measure_host_kernels(reps: usize) -> (f64, f64) {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let mut rng = SbxRng::seed_from_u64(16);
    let mut chunk = |ctx: &mut ExecCtx| {
        let flat: Vec<u64> = (0..CHUNK_PAIRS)
            .flat_map(|_| [rng.random_range(0..4_000_000), rng.random(), 0])
            .collect();
        let b = RecordBundle::from_rows(ctx.env(), Schema::kvt(), &flat).expect("bundle fits");
        extracted(ctx, &b)
    };
    let median = |mut ns: Vec<f64>| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    let (mut sort_ns, mut merge_ns) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let mut runs = Vec::new();
        for _ in 0..CHUNK_RUNS {
            let mut kpa = chunk(&mut ctx);
            let ((), secs) = timed(|| kpa.sort(&mut ctx, 1).expect("sort"));
            sort_ns.push(secs * 1e9 / CHUNK_PAIRS as f64);
            runs.push(kpa);
        }
        let (merged, secs) = timed(|| {
            Kpa::merge_many(&mut ctx, runs, MemKind::Hbm, Priority::Normal).expect("merge fits")
        });
        merge_ns.push(secs * 1e9 / merged.len() as f64);
    }
    (median(sort_ns), median(merge_ns))
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

    let (sort_ns, merge_ns) = measure_host_kernels(5);
    let mut h = Table::new(
        "Host kernels at the repo benchmark's shape (serial, median, ns/pair)",
        &["kernel", "host ns/pair"],
    );
    h.row(vec![
        format!("chunk sort ({CHUNK_PAIRS} pairs)"),
        f1(sort_ns),
    ]);
    h.row(vec![
        format!("merge ({CHUNK_RUNS} runs x {CHUNK_PAIRS} pairs)"),
        f1(merge_ns),
    ]);
    out.push_str(&h.print());

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

    /// The benchmark-shaped host kernels run and report positive times.
    #[test]
    fn host_kernels_run_at_the_benchmark_shape() {
        let (sort_ns, merge_ns) = measure_host_kernels(1);
        assert!(sort_ns > 0.0 && merge_ns > 0.0, "{sort_ns} {merge_ns}");
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
