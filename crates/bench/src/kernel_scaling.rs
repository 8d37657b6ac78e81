//! Kernel scaling: host wall-clock of the chunk sort and k-way merge
//! against the kernels they replaced over a grid of key distributions and
//! run counts, the per-bundle front half (Select/Extract, Partition,
//! KeySwap, hash ingest, early aggregation's partial) and the window close
//! (fused merge-fold, fused merge-gather per aggregate kind) against the passes
//! they replaced, the generators' `fill` and Zipf draw, plus the modelled
//! pass-bytes comparison between the retired multipass structure and the
//! single-pass kernels.
//!
//! Unlike the figure sweeps, the *time* column here is real host time of
//! the functional kernels (`std::time::Instant`), not modelled KNL time.
//! The modelled columns show the memory-traffic reduction that feeds
//! Figures 7-9.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
// sbx-lint: out-of-scope(libm, bench table; the reference Zipf sampler and pass counts are host-side)
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant; // sbx-lint: allow(wall-clock, host microbench is the point of this table)

use sbx_engine::ops::{emit_group, AggKind};
use sbx_ingress::{KvSource, PowerGridSource, Source, YsbSource, ZipfKeys};
use sbx_kpa::hash::HashGrouper;
use sbx_kpa::mergepath::{self, KeyFold, Run};
use sbx_kpa::{profile, sort_pairs, ExecCtx, Kpa};
use sbx_prng::SbxRng;
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

use crate::table::{f1, Table};

/// Pairs per KPA in the modelled traffic table.
pub const PAIRS: usize = 1_000_000;
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

fn extracted(ctx: &mut ExecCtx, b: &Arc<RecordBundle>) -> Kpa {
    Kpa::extract(ctx, b, Col(0), MemKind::Hbm, Priority::Normal).expect("KPA fits in HBM")
}

/// Runs `f` and returns its result with the host seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now(); // sbx-lint: allow(wall-clock, host kernel timing)
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn median(mut timings: Vec<f64>) -> f64 {
    timings.sort_by(f64::total_cmp);
    timings[timings.len() / 2]
}

/// One cell of the host-kernel grid: median host nanoseconds per pair of
/// the serial chunk sort and the k-way merge, reference kernel vs current.
#[derive(Debug, Clone, Copy)]
pub struct KernelCell {
    /// Reference chunk sort ([`reference::sort_pairs`]).
    pub sort_old: f64,
    /// Current chunk sort ([`sbx_kpa::sort_pairs`]).
    pub sort_new: f64,
    /// Reference merge ([`reference::merge_runs`]).
    pub merge_old: f64,
    /// Current merge ([`mergepath::merge_runs`]).
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
        let slices: Vec<(&[u64], &[u64])> = chunks.iter().map(|(k, p)| (&k[..], &p[..])).collect();
        let inputs: Vec<Run<'_>> = slices.iter().map(|&(k, p)| Run::pairs(k, p)).collect();
        let total = runs * CHUNK_PAIRS;
        // Non-zero fill: the pages are touched before the timing starts.
        let (mut want_k, mut want_p) = (vec![1u64; total], vec![1u64; total]);
        let (mut got_k, mut got_p) = (vec![1u64; total], vec![1u64; total]);
        let ((), secs) = timed(|| {
            reference::merge_runs(&slices, &mut want_k, &mut want_p);
        });
        merge_old.push(per_pair(secs, total));
        let ((), secs) = timed(|| {
            mergepath::merge_runs(&inputs, &mut got_k, &mut got_p);
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

/// One row of the front- and close-half tables: median host nanoseconds per
/// input pair of the loop a primitive ran before
/// ([`reference`](mod@reference)) and of the primitive today.
#[derive(Debug, Clone)]
pub struct FrontCell {
    /// The primitive.
    pub kernel: &'static str,
    /// The input shape.
    pub case: String,
    /// Reference loop.
    pub old: f64,
    /// Current kernel.
    pub new: f64,
}

impl FrontCell {
    /// The row of `(old, new)` timings, one pair per repetition.
    fn median_of(kernel: &'static str, case: String, timings: Vec<(f64, f64)>) -> Self {
        let (old, new) = timings.into_iter().unzip();
        let (old, new) = (median(old), median(new));
        FrontCell {
            kernel,
            case,
            old,
            new,
        }
    }
}

/// The packed pointers of `kpa`, in pair order.
pub fn ptrs_of(kpa: &Kpa) -> Vec<u64> {
    (0..kpa.len()).map(|i| kpa.record_ref(i).pack()).collect()
}

/// Times the per-bundle front half on [`CHUNK_PAIRS`]-row inputs, `reps`
/// fresh inputs per row of the table, median over all timings:
/// Select/Extract at keep rates 0 / 0.4 / 1 on 3- and 7-column bundles
/// (the filtered column is uniform over five values, as YSB's `ad_type`),
/// Partition of timestamps forming one run (one pane: `into_partitions`
/// hands the input's buffers over), two runs (a window boundary inside the
/// bundle) and many (the same boundary under 50 ms of jitter), KeySwap
/// through a resolver over 1 and 25 source bundles, and hash ingest of
/// Zipf 0.99 and 4 M uniform keys into a table seeded as the hash backend
/// seeds it, one `try_insert` per pair ([`reference::hash_ingest`]) vs
/// `try_insert_all`, and early aggregation's per-bundle partial over 1 000,
/// 100 k and 4 M uniform keys, sorting the pointer KPA and reading each
/// value back through its pointer ([`reference::partials`]) vs folding the
/// `(key, value)` pairs the key swap read ([`Kpa::sort_fold`]). Both sides
/// allocate from the same accounted pool. A resolver over several bundles
/// probes the same table on both sides, so that row reads 1.0 x within
/// noise.
///
/// # Panics
///
/// Panics if a current kernel's output differs from the reference loop's in
/// any byte.
pub fn measure_front_half(reps: usize) -> Vec<FrontCell> {
    const WINDOW: u64 = 1_000_000_000;
    const RATE: u64 = 500_000;
    let reps = reps.max(1);
    let n = CHUNK_PAIRS;
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let per_pair = |secs: f64| secs * 1e9 / n as f64;
    let mut cells = Vec::new();
    let mut cell = |kernel, case, timings| cells.push(FrontCell::median_of(kernel, case, timings));

    for ncols in [3usize, 7] {
        for (threshold, rate) in [(0u64, "0"), (2, "0.4"), (5, "1")] {
            let mut timings = Vec::new();
            for rep in 0..reps as u64 {
                let mut rows = Vec::new();
                let (schema, col) = if ncols == 7 {
                    YsbSource::new(21 + rep, 10_000, 1_000, RATE).fill(n, &mut rows);
                    (Schema::ysb(), Col(3))
                } else {
                    KvSource::new(21 + rep, 1_000, RATE)
                        .with_value_range(5)
                        .fill(n, &mut rows);
                    (Schema::kvt(), Col(1))
                };
                let b = RecordBundle::from_rows(&env, schema, &rows).expect("bundle fits");
                let keep = move |v: u64| v < threshold;
                // Untimed first pass: both timed passes read a warm bundle.
                drop(reference::extract_where(&env, &b, col, keep));
                let (want, old) = timed(|| reference::extract_where(&env, &b, col, keep));
                let (got, new) = timed(|| {
                    Kpa::extract_select(&mut ctx, &b, col, MemKind::Hbm, Priority::Normal, keep)
                        .expect("KPA fits in HBM")
                });
                assert!(
                    got.keys() == &want.0[..] && ptrs_of(&got) == want.1[..],
                    "Select/Extract differs from the reference: {ncols} columns, keep {rate}"
                );
                timings.push((per_pair(old), per_pair(new)));
            }
            cell(
                "Select/Extract",
                format!("{ncols} columns, keep {rate}"),
                timings,
            );
        }
    }

    // (label, first timestamp, most a timestamp lags the emission front)
    let mid_bundle_boundary = WINDOW - (n as u64 / 2) * (WINDOW / RATE);
    for (runs, start, jitter) in [
        ("1 run", 0, 0),
        ("2 runs", mid_bundle_boundary, 0),
        ("many runs", mid_bundle_boundary, WINDOW / 20),
    ] {
        let mut timings = Vec::new();
        for rep in 0..reps as u64 {
            let mut rng = SbxRng::seed_from_u64(31 + rep);
            let rows: Vec<u64> = (0..n as u64)
                .flat_map(|i| {
                    let lag = rng.random_range(0..=jitter);
                    [i, 0, (start + i * (WINDOW / RATE)).saturating_sub(lag)]
                })
                .collect();
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("bundle fits");
            let kpa = Kpa::extract(&mut ctx, &b, Col(2), MemKind::Hbm, Priority::Normal)
                .expect("KPA fits in HBM");
            let (keys, ptrs) = (kpa.keys().to_vec(), ptrs_of(&kpa));
            let input = kpa.keys().as_ptr();
            drop(reference::partition_by(&env, &keys, &ptrs, |ts| {
                ts / WINDOW
            }));
            let (want, old) =
                timed(|| reference::partition_by(&env, &keys, &ptrs, |ts| ts / WINDOW));
            let (got, new) = timed(|| {
                kpa.into_partitions(&mut ctx, Priority::Normal, WINDOW)
                    .expect("partitions fit in HBM")
            });
            assert!(
                got.len() == want.len()
                    && got.iter().zip(&want).all(|((g, part), (wg, keys, ptrs))| {
                        g == wg && part.keys() == &keys[..] && ptrs_of(part) == ptrs[..]
                    }),
                "Partition differs from the reference: {runs}"
            );
            // One run is one pane: its output holds the input's buffers.
            assert_eq!(
                got[0].1.keys().as_ptr() == input,
                got.len() == 1,
                "Partition hand-over: {runs}"
            );
            timings.push((per_pair(old), per_pair(new)));
        }
        cell("Partition", runs.to_string(), timings);
    }

    for sources in [1usize, 25] {
        let mut timings = Vec::new();
        for rep in 0..reps as u64 {
            let mut src = KvSource::new(41 + rep, 4_000_000, RATE).with_value_range(1_000_000);
            let mut bundles = Vec::new();
            let mut parts = Vec::new();
            for _ in 0..sources {
                let mut rows = Vec::new();
                src.fill(n / sources, &mut rows);
                let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("bundle fits");
                let mut kpa = extracted(&mut ctx, &b);
                if sources > 1 {
                    kpa.sort(&mut ctx, 1).expect("sort");
                }
                bundles.push(b);
                parts.push(kpa);
            }
            let mut kpa = Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal)
                .expect("merge fits");
            assert_eq!((kpa.len(), kpa.source_count()), (n, sources));
            let ptrs = ptrs_of(&kpa);
            let mut want = vec![1u64; n];
            reference::key_swap(&mut want, &ptrs, &bundles, Col(1));
            let ((), old) = timed(|| reference::key_swap(&mut want, &ptrs, &bundles, Col(1)));
            let ((), new) = timed(|| kpa.key_swap(&mut ctx, Col(1)));
            assert!(
                kpa.keys() == &want[..],
                "KeySwap differs from the reference: {sources} source(s)"
            );
            timings.push((per_pair(old), per_pair(new)));
        }
        cell("KeySwap", format!("{sources} source(s)"), timings);
    }

    for dist in [KeyDist::Zipf099, KeyDist::Uniform4M] {
        let mut timings = Vec::new();
        for rep in 0..reps as u64 {
            let mut rng = SbxRng::seed_from_u64(51 + rep);
            let keys = dist.keys(&mut rng, n);
            let rows: Vec<u64> = keys.iter().flat_map(|&k| [k, k ^ rep, 0]).collect();
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("bundle fits");
            let kpa = extracted(&mut ctx, &b);
            let records = kpa.resolver();
            let value = |i| records.value(i, Col(1));
            // Seeded as the hash backend seeds a window's table.
            let mut table = || {
                HashGrouper::with_slots(&mut ctx, 1_024, MemKind::Hbm, Priority::Normal)
                    .expect("table fits in HBM")
            };
            let (mut want, mut got) = (table(), table());
            let ((), old) =
                timed(|| reference::hash_ingest(&mut want, kpa.keys(), value).expect("fits"));
            let ((), new) = timed(|| got.try_insert_all(kpa.keys(), value).expect("fits"));
            assert!(
                got.drain_sorted() == want.drain_sorted() && got.slots() == want.slots(),
                "hash ingest differs from the per-pair loop: {}",
                dist.label()
            );
            timings.push((per_pair(old), per_pair(new)));
        }
        cell("hash ingest", dist.label().to_string(), timings);
    }

    let mut fold = KeyFold::default();
    for (label, space) in [("1 000", 1_000), ("100 k", 100_000), ("4 M", 4_000_000)] {
        let mut timings = Vec::new();
        for rep in 0..reps as u64 {
            let mut rng = SbxRng::seed_from_u64(81 + rep);
            let rows: Vec<u64> = (0..n as u64)
                .flat_map(|t| [rng.random_range(0..space), rng.random(), t])
                .collect();
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("bundle fits");
            // As a window's KPA arrives: extracted on its timestamps and
            // swapped to its keys, the fold's side reading the values too.
            let swapped = |ctx: &mut ExecCtx, values: Option<&mut Vec<u64>>| {
                let mut kpa = Kpa::extract(ctx, &b, Col(2), MemKind::Hbm, Priority::Normal)
                    .expect("KPA fits in HBM");
                match values {
                    Some(values) => kpa.key_swap_reading(ctx, Col(0), Col(1), values),
                    None => kpa.key_swap(ctx, Col(0)),
                }
                kpa
            };
            let mut values = Vec::new();
            let mut sorted = swapped(&mut ctx, None);
            let folded = swapped(&mut ctx, Some(&mut values));
            let (want, old) = timed(|| reference::partials(&mut ctx, &mut sorted, Some(Col(1))));
            let (got, new) = timed(|| {
                let slots = 3 * folded.sort_fold(&mut ctx, Some(Col(1)), Some(&values), &mut fold);
                RecordBundle::from_fill(&env, Schema::kvt(), slots, |rows| {
                    let emit = |key, sum| rows.extend_from_slice(&[key, sum, 0]);
                    folded.reduce_fold(&mut ctx, &mut fold, emit);
                })
            });
            assert!(
                got.expect("fits").as_rows() == want.expect("fits").as_rows(),
                "per-bundle partial differs from sort + pointer gather: {label} keys"
            );
            timings.push((per_pair(old), per_pair(new)));
        }
        let case = format!("{label} keys, sort + pointer gather vs (key, value) fold");
        cell("per-bundle partial", case, timings);
    }
    cells
}

/// The aggregate kinds a window close gathers values for, one close-half
/// row each; TopK as the `topk` benchmark runs it.
pub const GATHERED: [AggKind; 4] = [
    AggKind::TopK(3),
    AggKind::Median,
    AggKind::Avg,
    AggKind::UniqueCount,
];

/// Times the window close on `reps` windows as early aggregation leaves
/// them — 25 KPAs over [`CHUNK_PAIRS`]-record bundles in key order, 4 M
/// uniform or 1 000 keys: the merge plus the scalar fold
/// ([`reference::merge_fold`]) vs the fused [`Kpa::merge_fold`], and for
/// each of the [`GATHERED`] kinds the merge plus `reduce_keyed` and
/// [`emit_group`] ([`reference::merge_gather`])
/// vs [`Kpa::merge_gather`] into `emit_group`; then 25 partial bundles
/// over 4 M and 10^8 keys (the dense and the sorted fold) merged and folded
/// by [`reference::merge_fold`] vs folded in place ([`Kpa::extract_in_place`],
/// [`Kpa::merge_fold`]). Panics if the two sides of a row disagree in any
/// byte.
pub fn measure_close_half(reps: usize) -> Vec<FrontCell> {
    let env = env();
    let mut ctx = ExecCtx::new(&env);
    let hbm = (MemKind::Hbm, Priority::Normal);
    let pairs = (RUN_COUNTS[2] * CHUNK_PAIRS) as f64;
    let per_pair = |(old, new): (f64, f64)| (old * 1e9 / pairs, new * 1e9 / pairs);
    let mut cells = Vec::new();
    for dist in [KeyDist::Uniform4M, KeyDist::Keys1000] {
        let mut fused = Vec::new();
        let mut gathered = GATHERED.map(|_| Vec::new());
        for rep in 0..reps.max(1) as u64 {
            let mut rng = SbxRng::seed_from_u64(51 + rep);
            let mut bundles = Vec::new();
            for _ in 0..RUN_COUNTS[2] {
                let mut keys = dist.keys(&mut rng, CHUNK_PAIRS);
                keys.sort_unstable();
                let rows: Vec<u64> = keys.iter().flat_map(|&k| [k, rng.random(), 0]).collect();
                bundles.push(RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits"));
            }
            let window = |ctx: &mut ExecCtx| -> Vec<Kpa> {
                let mut kpas: Vec<Kpa> = bundles.iter().map(|b| extracted(ctx, b)).collect();
                kpas.iter_mut().for_each(Kpa::mark_sorted);
                kpas
            };
            let two_pass = window(&mut ctx);
            let (want, old) = timed(|| reference::merge_fold(&mut ctx, two_pass, Some(Col(1)), 7));
            let one_pass = window(&mut ctx);
            let (got, new) =
                timed(|| Kpa::merge_fold(&mut ctx, one_pass, Some(Col(1)), 7, hbm.0, hbm.1));
            assert!(got.expect("merge fits").0 == want, "{dist:?}: fused close");
            fused.push(per_pair((old, new)));

            for (&kind, timings) in GATHERED.iter().zip(&mut gathered) {
                let old = |ctx: &mut ExecCtx, kpas| {
                    timed(|| reference::merge_gather(ctx, kpas, Col(1), kind, 7))
                };
                let new = |ctx: &mut ExecCtx, kpas| {
                    let mut got = Vec::new();
                    let emit = |key, values: &mut [u64]| emit_group(kind, key, values, 7, &mut got);
                    let (merged, secs) =
                        timed(|| Kpa::merge_gather(ctx, kpas, Col(1), hbm.0, hbm.1, emit));
                    drop(merged.expect("merge fits"));
                    (got, secs)
                };
                // The side that runs first alternates: the first after a
                // close finds the allocator and caches as that close left
                // them.
                let (two_pass, one_pass) = (window(&mut ctx), window(&mut ctx));
                let ((want, old), (got, new)) = if rep % 2 == 0 {
                    let old = old(&mut ctx, two_pass);
                    (old, new(&mut ctx, one_pass))
                } else {
                    let new = new(&mut ctx, one_pass);
                    (old(&mut ctx, two_pass), new)
                };
                assert!(got == want, "{dist:?}: {kind:?} gather");
                timings.push(per_pair((old, new)));
            }
        }
        let mut rows = vec![("Merge-fold", "merge + scalar fold vs fused".into(), fused)];
        for (kind, timings) in GATHERED.iter().zip(gathered) {
            let what = format!("{kind:?}, merge + KeyGroup vs gather");
            rows.push(("Merge-gather", what, timings));
        }
        for (kernel, what, timings) in rows {
            let case = format!("{}, {what}", dist.label());
            cells.push(FrontCell::median_of(kernel, case, timings));
        }
    }
    for (label, space) in [("4 M uniform", 4_000_000), ("1e8 uniform", 100_000_000)] {
        let mut timings = Vec::new();
        for rep in 0..reps.max(1) as u64 {
            // Partial bundles as early aggregation leaves them: each key
            // once, in key order.
            let mut rng = SbxRng::seed_from_u64(61 + rep);
            let mut partials = || {
                let mut keys: Vec<u64> = (0..CHUNK_PAIRS)
                    .map(|_| rng.random_range(0..space))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let rows: Vec<u64> = keys.iter().flat_map(|&k| [k, rng.random(), 0]).collect();
                RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits")
            };
            let bundles: Vec<Arc<RecordBundle>> = (0..RUN_COUNTS[2]).map(|_| partials()).collect();
            let pairs = bundles.iter().map(|b| b.rows()).sum::<usize>() as f64;
            let window = |ctx: &mut ExecCtx, in_place: bool| -> Vec<Kpa> {
                let extract = if in_place {
                    Kpa::extract_in_place
                } else {
                    Kpa::extract_fused
                };
                let kpas = bundles
                    .iter()
                    .map(|b| extract(ctx, b, Col(0), hbm.0, hbm.1));
                let mut kpas: Vec<Kpa> = kpas.map(|k| k.expect("fits")).collect();
                kpas.iter_mut().for_each(Kpa::mark_sorted);
                kpas
            };
            let two_pass = window(&mut ctx, false);
            let (want, old) = timed(|| reference::merge_fold(&mut ctx, two_pass, Some(Col(1)), 7));
            let in_place = window(&mut ctx, true);
            let (got, new) =
                timed(|| Kpa::merge_fold(&mut ctx, in_place, Some(Col(1)), 7, hbm.0, hbm.1));
            assert!(got.expect("merge fits").0 == want, "{label}: in-place fold");
            timings.push((old * 1e9 / pairs, new * 1e9 / pairs));
        }
        let case = format!("{label}, partials: merge + scalar fold vs in place");
        cells.push(FrontCell::median_of("Merge-fold", case, timings));
    }
    cells
}

/// Renders rows of old vs new host time under `title`.
fn cell_table(title: &str, cells: Vec<FrontCell>) -> String {
    let mut t = Table::new(title, &["kernel", "case", "old", "new", "gain"]);
    for c in cells {
        let gain = format!("{}x", f1(c.old / c.new));
        t.row(vec![c.kernel.into(), c.case, f1(c.old), f1(c.new), gain]);
    }
    t.print()
}

/// Runs the close-half comparison ([`measure_close_half`]) and renders it.
pub fn run_close_half(reps: usize) -> String {
    let title = format!(
        "Host kernels, window close, {} x {CHUNK_PAIRS}-pair KPAs \
         (median ns/pair): replaced passes vs one streaming pass",
        RUN_COUNTS[2]
    );
    cell_table(&title, measure_close_half(reps))
}

/// Times `fill(CHUNK_PAIRS)` of every source shape the benchmarks draw from,
/// and a Zipf draw by the closed form it replaced ([`reference::gray_zipf`])
/// and by [`ZipfKeys`], over the 1 000 keys of `sum_lowcard_adaptive` and
/// the 2 M of `sbx cluster --skew`: `(row, median host ns per record or
/// draw)` of `reps` runs after a warm-up run.
pub fn measure_generators(reps: usize) -> Vec<(String, f64)> {
    let (n, rate) = (CHUNK_PAIRS, 500_000);
    let time = |f: &mut dyn FnMut()| {
        f();
        let ns = (0..reps.max(1)).map(|_| timed(&mut *f).1 * 1e9 / n as f64);
        median(ns.collect())
    };
    // Named after the shapes `crates/ingress/tests/generator_streams.rs` pins.
    let kv = |keys| KvSource::new(1, keys, rate);
    let sources: [(&str, Box<dyn Source>); 7] = [
        ("kv", Box::new(kv(4_000_000))),
        ("kv_jitter", Box::new(kv(100_000).with_jitter(50_000_000))),
        ("kv_zipf", Box::new(kv(1_000).with_zipf(0.99))),
        ("kv_zipf_1_2", Box::new(kv(50_000).with_zipf(1.2))),
        ("kv_secondary", Box::new(kv(1_000).with_secondary_key(64))),
        ("ysb", Box::new(YsbSource::new(1, 10_000, 1_000, rate))),
        (
            "power_grid",
            Box::new(PowerGridSource::new(1, 40, 20, rate)),
        ),
    ];
    let mut rows = Vec::new();
    for (shape, mut src) in sources {
        let mut out = Vec::new();
        let ns = time(&mut || {
            out.clear();
            src.fill(n, &mut out);
        });
        rows.push((format!("fill {shape}"), ns));
    }
    for keys in [1_000, 2_000_000] {
        let table = ZipfKeys::new(keys, 0.99);
        type Sampler<'a> = &'a dyn Fn(&mut SbxRng) -> u64;
        let samplers: [(&str, Sampler); 2] = [
            ("closed form", &reference::gray_zipf(keys, 0.99)),
            ("table", &|rng| table.sample(rng)),
        ];
        for (what, sample) in samplers {
            let mut rng = SbxRng::seed_from_u64(71);
            let ns = time(&mut || {
                black_box((0..n).fold(0, |a, _| a ^ sample(&mut rng)));
            });
            rows.push((format!("Zipf 0.99 draw over {keys}, {what}"), ns));
        }
    }
    rows
}

/// Runs the generator timings ([`measure_generators`]) and renders them.
pub fn run_generators(reps: usize) -> String {
    let title = format!("Host generators, {CHUNK_PAIRS} records (median ns/record or draw)");
    let mut t = Table::new(&title, &["generator", "ns"]);
    for (row, ns) in measure_generators(reps) {
        t.row(vec![row, f1(ns)]);
    }
    t.print()
}

/// Runs the front-half comparison ([`measure_front_half`]) and renders it.
pub fn run_front_half(reps: usize) -> String {
    let title = format!(
        "Host kernels, per-bundle front half, {CHUNK_PAIRS}-row bundles \
         (median ns/input pair): per-element reference loops vs one streaming pass"
    );
    cell_table(&title, measure_front_half(reps))
}

/// The kernels `sbx_kpa::sort_pairs` and `mergepath::merge_runs` ran before
/// the radix kernels, the per-element loops Select/Extract, Partition and
/// the pointer resolver ran before their streaming passes, the per-pair
/// hash ingest, the two-pass closes `Kpa::merge_fold` and
/// `Kpa::merge_gather` fuse, early aggregation's sort and scalar fold
/// (`reduce_keyed_scalar`) that `Kpa::sort_fold` replaced, and the Zipf
/// sampler `ZipfKeys` replaced, kept
/// as the reference the tables here (and `tests/prop_primitives.rs`) time
/// and check the current code against.
pub mod reference {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use sbx_engine::ops::{emit_group, AggKind};
    use sbx_kpa::hash::HashGrouper;
    use sbx_kpa::mergepath::count_groups;
    use sbx_kpa::{profile, reduce_keyed, ExecCtx, Kpa};
    use sbx_prng::SbxRng;
    use sbx_records::{BundleId, Col, RecordBundle, RecordRef, Schema};
    use sbx_simmem::{AllocError, MemEnv, MemKind, PoolVec, Priority};

    /// `ZipfKeys`' predecessor: the rejection-free inverse-CDF approximation
    /// of Gray et al. ("Quickly generating billion-record synthetic
    /// databases"), one `random_f64` and one `powf` per draw, `theta`
    /// clamped to `[0.01, 0.999]`, where the closed form holds.
    pub fn gray_zipf(n: u64, theta: f64) -> impl Fn(&mut SbxRng) -> u64 {
        let (n, theta) = (n.max(1), theta.clamp(0.01, 0.999));
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        move |rng| {
            let u = rng.random_f64();
            match u * zetan {
                uz if uz < 1.0 => 0,
                uz if uz < zeta2 => 1,
                _ => {
                    ((n as f64 * (eta * u - eta + 1.0).powf(1.0 / (1.0 - theta))) as u64).min(n - 1)
                }
            }
        }
    }

    fn pair_bufs(env: &MemEnv, n: usize) -> (PoolVec, PoolVec) {
        let alloc = || {
            env.pool(MemKind::Hbm)
                .alloc_u64(n, Priority::Normal)
                .expect("pair buffer fits in HBM")
        };
        (alloc(), alloc())
    }

    /// Select fused with Extract: a bounds-checked column read and a
    /// taken-or-not branch per row, two pushes per kept row. Buffers come
    /// from `env`'s HBM pool, one request of `bundle.rows()` slots each.
    pub fn extract_where(
        env: &MemEnv,
        bundle: &RecordBundle,
        col: Col,
        mut keep: impl FnMut(u64) -> bool,
    ) -> (PoolVec, PoolVec) {
        let n = bundle.rows();
        let (mut keys, mut ptrs) = pair_bufs(env, n);
        for row in 0..n {
            let k = bundle.value(row, col);
            if keep(k) {
                keys.push(k);
                ptrs.push(bundle.record_ref(row).pack());
            }
        }
        (keys, ptrs)
    }

    /// Partition by `classify(key)`: an ordered-map lookup and a call of
    /// `classify` per pair in both the counting and the scatter pass.
    /// Buffers come from `env`'s HBM pool, exactly sized, requested in
    /// ascending group order.
    pub fn partition_by(
        env: &MemEnv,
        keys: &[u64],
        ptrs: &[u64],
        mut classify: impl FnMut(u64) -> u64,
    ) -> Vec<(u64, PoolVec, PoolVec)> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &k in keys {
            *counts.entry(classify(k)).or_insert(0) += 1;
        }
        let mut outs: BTreeMap<u64, (PoolVec, PoolVec)> = BTreeMap::new();
        for (&g, &c) in &counts {
            outs.insert(g, pair_bufs(env, c));
        }
        for (&key, &ptr) in keys.iter().zip(ptrs) {
            if let Some((k, p)) = outs.get_mut(&classify(key)) {
                k.push(key);
                p.push(ptr);
            }
        }
        outs.into_iter().map(|(g, (k, p))| (g, k, p)).collect()
    }

    /// Hash ingest one [`HashGrouper::try_insert`] per pair, as the hash
    /// backend ran it before [`HashGrouper::try_insert_all`].
    ///
    /// # Errors
    ///
    /// As `try_insert`, at the first pair that fails.
    pub fn hash_ingest(
        table: &mut HashGrouper,
        keys: &[u64],
        value: impl Fn(usize) -> u64,
    ) -> Result<(), AllocError> {
        let mut pairs = keys.iter().enumerate();
        pairs.try_for_each(|(i, &key)| table.try_insert(key, value(i)))
    }

    /// KeySwap through the hash-probed resolver: `keys[i]` becomes column
    /// `col` of the record `ptrs[i]` points to, found by probing an
    /// open-addressed `bundle id → rows` table however many bundles there
    /// are.
    ///
    /// # Panics
    ///
    /// Panics if a pointer leads outside `sources`.
    pub fn key_swap(keys: &mut [u64], ptrs: &[u64], sources: &[Arc<RecordBundle>], col: Col) {
        let len = (2 * sources.len()).next_power_of_two().max(2);
        let shift = u64::BITS - len.trailing_zeros();
        let home =
            |id: BundleId| (u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let mut slots: Vec<Option<(BundleId, usize, &[u64])>> = vec![None; len];
        for b in sources {
            let mut at = home(b.id());
            while slots[at].is_some() {
                at = (at + 1) % len;
            }
            slots[at] = Some((b.id(), b.schema().ncols(), b.as_rows()));
        }
        for (key, &raw) in keys.iter_mut().zip(ptrs) {
            let r = RecordRef::unpack(raw);
            let mut at = home(r.bundle);
            let (ncols, rows) = loop {
                let slot = &slots[at];
                assert!(slot.is_some(), "pointer into unlinked bundle {}", r.bundle);
                match slot {
                    Some((id, ncols, rows)) if *id == r.bundle => break (*ncols, *rows),
                    _ => at = (at + 1) % len,
                }
            };
            let at = r.row as usize * ncols;
            *key = rows[at..at + ncols][col.0];
        }
    }

    /// The keyed reduction to scalars the `Sum` / `Count` paths ran before
    /// the fused close and early aggregation's fold: `f(key, sum, count)`
    /// per key of a sorted KPA, each record's column `col` read through its
    /// pointer (no column: only resolved, for the sanitizer), charged as
    /// `reduce_keyed`. Returns the distinct keys.
    pub fn reduce_keyed_scalar(
        ctx: &mut ExecCtx,
        kpa: &Kpa,
        col: Option<Col>,
        mut f: impl FnMut(u64, u64, u64),
    ) -> usize {
        assert!(kpa.is_sorted(), "keyed reduction requires a sorted KPA");
        let (keys, records) = (kpa.keys(), kpa.resolver());
        let (mut groups, mut i) = (0, 0);
        while let Some(&key) = keys.get(i) {
            let (start, mut sum) = (i, 0u64);
            while keys.get(i) == Some(&key) {
                match col {
                    Some(col) => sum = sum.wrapping_add(records.value(i, col)),
                    None => _ = records.row(i),
                }
                i += 1;
            }
            f(key, sum, (i - start) as u64);
            groups += 1;
        }
        ctx.charge(&profile::reduce_keyed(keys.len(), kpa.kind()));
        groups
    }

    /// The window close `Kpa::merge_fold` replaced: the merged KPA written
    /// by `Kpa::merge_many`, then read back by the scalar fold — its
    /// `[key, sum of col (no column: count), start]` rows.
    pub fn merge_fold(ctx: &mut ExecCtx, kpas: Vec<Kpa>, col: Option<Col>, start: u64) -> Vec<u64> {
        let merged = Kpa::merge_many(ctx, kpas, MemKind::Hbm, Priority::Normal).expect("fits");
        let mut rows = Vec::new();
        reduce_keyed_scalar(ctx, &merged, col, |key, sum, count| {
            rows.extend_from_slice(&[key, if col.is_some() { sum } else { count }, start]);
        });
        rows
    }

    /// Early aggregation's per-bundle partial that `Kpa::sort_fold` and
    /// `Kpa::reduce_fold` replaced: the KPA sorted, then [`reduce_keyed_scalar`] reading each
    /// value through its pointer in key order — its `[key, sum of col (no
    /// column: count), 0]` rows, in a bundle whose size the distinct keys
    /// of the sorted KPA gave.
    pub fn partials(
        ctx: &mut ExecCtx,
        kpa: &mut Kpa,
        col: Option<Col>,
    ) -> Result<Arc<RecordBundle>, AllocError> {
        kpa.sort(ctx, 1)?;
        let env = ctx.env().clone();
        let slots = 3 * count_groups(kpa.keys());
        RecordBundle::from_fill(&env, Schema::kvt(), slots, |rows| {
            reduce_keyed_scalar(ctx, kpa, col, |key, sum, count| {
                rows.extend_from_slice(&[key, if col.is_some() { sum } else { count }, 0]);
            });
        })
    }

    /// The window close `Kpa::merge_gather` replaced for the kinds that
    /// need each key's values: the merged KPA written by `Kpa::merge_many`,
    /// then read back by `reduce_keyed`, each group's values copied into
    /// reused scratch for `emit_group` — its `[key, aggregate, start]` rows.
    pub fn merge_gather(
        ctx: &mut ExecCtx,
        kpas: Vec<Kpa>,
        col: Col,
        kind: AggKind,
        start: u64,
    ) -> Vec<u64> {
        let merged = Kpa::merge_many(ctx, kpas, MemKind::Hbm, Priority::Normal).expect("fits");
        let (mut rows, mut scratch) = (Vec::new(), Vec::new());
        reduce_keyed(ctx, &merged, col, |g| {
            scratch.clear();
            scratch.extend_from_slice(g.values);
            emit_group(kind, g.key, &mut scratch, start, &mut rows);
        });
        rows
    }

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

    /// K-way merge of the `runs`' parallel key and pointer slices in key
    /// order, run index breaking ties: two-way loop up to two runs, loser
    /// tree above.
    pub fn merge_runs(runs: &[(&[u64], &[u64])], out_keys: &mut [u64], out_ptrs: &mut [u64]) {
        let head = |r: usize, i: usize| runs[r].0[i];
        let k = runs.len();
        let mut pos = vec![0usize; k];
        let mut o = 0usize;
        let mut take = |r: usize, pos: &mut [usize]| {
            out_keys[o] = runs[r].0[pos[r]];
            out_ptrs[o] = runs[r].1[pos[r]];
            pos[r] += 1;
            o += 1;
        };
        let survivor = if k <= 2 {
            if k == 2 {
                while pos[0] < runs[0].0.len() && pos[1] < runs[1].0.len() {
                    let r = usize::from(head(1, pos[1]) < head(0, pos[0]));
                    take(r, &mut pos);
                }
            }
            (0..k).find(|&r| pos[r] < runs[r].0.len())
        } else {
            // Loser tree over `(drained, head value, run)` entries: leaf `r`
            // hangs below node `(k + r) / 2`, node `n` keeps the loser of
            // its match and `tree[0]` the overall winner.
            let entry = |r: usize, pos: &[usize]| {
                if pos[r] < runs[r].0.len() {
                    (false, head(r, pos[r]), r)
                } else {
                    (true, 0, r)
                }
            };
            let mut up = vec![(true, 0, 0); k];
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
            let span = pos[r]..runs[r].0.len();
            let len = span.len();
            out_keys[o..o + len].copy_from_slice(&runs[r].0[span.clone()]);
            out_ptrs[o..o + len].copy_from_slice(&runs[r].1[span]);
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

/// Runs every table and renders them.
pub fn run() -> String {
    let mut out = run_kernel_grid(5);
    out.push_str(&run_front_half(25));
    out.push_str(&run_close_half(9));
    out.push_str(&run_generators(25));

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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid cell runs both kernel generations, byte-identical (asserted
    /// inside), and reports positive times.
    #[test]
    fn kernel_grid_cell_matches_the_reference() {
        let c = measure_kernel_cell(KeyDist::Zipf099, 3, 1);
        for ns in [c.sort_old, c.sort_new, c.merge_old, c.merge_new] {
            assert!(ns > 0.0, "{c:?}");
        }
    }

    /// Every front-half row runs both generations, byte-identical
    /// (asserted inside), and reports positive times.
    #[test]
    fn front_half_rows_match_the_reference() {
        let cells = measure_front_half(1);
        assert_eq!(cells.len(), 6 + 3 + 2 + 2 + 3);
        for c in &cells {
            assert!(c.old > 0.0 && c.new > 0.0, "{c:?}");
        }
    }

    /// Every close-half row runs both sides, byte-identical (asserted
    /// inside), and reports positive times.
    #[test]
    fn close_half_rows_match_the_reference() {
        let cells = measure_close_half(1);
        assert_eq!(cells.len(), 2 * (1 + GATHERED.len()) + 2);
        for c in &cells {
            assert!(c.old > 0.0 && c.new > 0.0, "{c:?}");
        }
    }

    /// Every generator row runs and reports a positive time, and the closed
    /// form draws rank 0 about as often as Zipf 0.99 over 1 000 keys should
    /// (13 %).
    #[test]
    fn generator_rows_run() {
        let rows = measure_generators(1);
        assert_eq!(rows.len(), 7 + 2 * 2);
        assert!(rows.iter().all(|(_, ns)| *ns > 0.0), "{rows:?}");
        let mut rng = SbxRng::seed_from_u64(3);
        let old = reference::gray_zipf(1_000, 0.99);
        let hot = (0..10_000).filter(|_| old(&mut rng) == 0).count();
        assert!((1_000..2_000).contains(&hot), "rank 0 drawn {hot} times");
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
}
