//! The k-way merge of sorted runs, and the keyed reduction fused into it.
//!
//! A window close (paper §4.2, Fig. 4a) merges every KPA the window holds,
//! then reduces each key's records. Here one bucket walker,
//! `walk_buckets`, cuts the runs, however many, at common key *splitters*
//! into buckets of a few thousand pairs that cover disjoint key ranges, and
//! hands each bucket to one of three sinks:
//!
//! * [`merge_runs`] sorts the bucket into the merged KPA's next slice;
//! * [`fold_runs`] sums each key's values, writing no merged pair;
//! * [`gather_runs`] sorts the bucket on its keys alone and hands each
//!   key's values, in merged order, to the caller's reduction, writing no
//!   merged pair either.
//!
//! Every bucket sort is one kernel, `sort_bucket` (`radix.rs`), whatever
//! the run count or key span; only the fold sums a dense bucket in an
//! array instead ([`KeyFold`]).
//!
//! Everything runs on the calling thread: StreamBox parallelises across
//! bundles and windows (§3), not inside one merge.
//!
//! A [`Run`] is a KPA's key and pointer columns, or the rows of a KPA in
//! place, read one record width apart: a close reads key and value together.
//!
//! The merge ranks by the resident key alone, ties resolved by run index
//! (run 0's equal keys precede run 1's), each run keeping its own order.
//! This reproduces the sequential "left input wins ties" merge exactly, so
//! it applies to KPAs that are key-sorted but not compound-sorted (e.g.
//! marked via `mark_sorted`).

use std::ops::Range;

use sbx_simmem::MemPool;

use crate::radix::{self, Digits, Pairs, RankBy};

/// One sorted input run: `len` records of `width` words with the key,
/// nondecreasing, at word `key` — a KPA's key column (one-word records) or a
/// bundle's rows read in place — and their packed pointers: `ptrs`, or
/// `base + i` for rows in place.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    words: &'a [u64],
    width: usize,
    key: usize,
    len: usize,
    ptrs: &'a [u64],
    base: Option<u64>,
}

impl<'a> Run<'a> {
    /// A KPA's parallel key and pointer columns.
    pub fn pairs(keys: &'a [u64], ptrs: &'a [u64]) -> Self {
        Run::of(keys, 1, 0, ptrs, None)
    }

    /// The rows of a bundle (`rows`, `ncols` words each) in place: key `i`
    /// is row `i`'s column `col`, its pointer packed `base + i`.
    pub fn rows(rows: &'a [u64], ncols: usize, col: usize, base: u64) -> Self {
        Run::of(rows, ncols, col, &[], Some(base))
    }

    fn of(words: &'a [u64], width: usize, key: usize, ptrs: &'a [u64], base: Option<u64>) -> Self {
        let len = words.len() / width;
        Run {
            words,
            width,
            key,
            len,
            ptrs,
            base,
        }
    }

    /// Number of pairs in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.words[i * self.width + self.key]
    }

    /// Pointer `i`.
    #[inline]
    pub fn ptr(&self, i: usize) -> u64 {
        self.base
            .map_or_else(|| self.ptrs[i], |base| base + i as u64)
    }

    /// The records of pairs `at`.
    #[inline]
    fn records(&self, at: Range<usize>) -> std::slice::ChunksExact<'a, u64> {
        self.words[at.start * self.width..at.end * self.width].chunks_exact(self.width)
    }

    /// The keys of pairs `at`, in order.
    #[inline]
    pub fn keys(&self, at: Range<usize>) -> impl Iterator<Item = u64> + 'a {
        let key = self.key;
        self.records(at).map(move |record| record[key])
    }

    /// Key and word `col` of the records of pairs `at`, one stream, for
    /// rows in place.
    #[inline]
    fn keyed_column(
        &self,
        at: Range<usize>,
        col: Option<usize>,
    ) -> Option<impl Iterator<Item = (u64, u64)> + 'a> {
        let (key, col) = (self.key, col.filter(|_| self.base.is_some())?);
        Some(
            self.records(at)
                .map(move |record| (record[key], record[col])),
        )
    }
}

/// Pairs per bucket the k-way merge sorts at a time: source and scratch of
/// a bucket stay cache-resident while its counting passes run.
const BUCKET_PAIRS: usize = 4096;

/// Distinct keys of a key-sorted slice, counted branch-free.
pub fn count_groups(keys: &[u64]) -> usize {
    let changes: usize = keys.windows(2).map(|w| usize::from(w[0] != w[1])).sum();
    usize::from(!keys.is_empty()) + changes
}

/// K-way merges the `runs` into `out_keys` / `out_ptrs` in key order (run
/// index breaks ties), preserving each run's internal order. The output
/// slices must hold exactly the runs' pairs.
///
/// The runs, however many, are cut at common key *splitters* into buckets
/// of a few thousand pairs (`walk_buckets`), and each bucket is sorted on
/// its own: its sub-runs are concatenated in run order and a stable radix
/// sort (`radix.rs`) over the bits in which the bucket's keys can still
/// differ puts them in order, the last pass scattering straight into the
/// output. Stable over run-order concatenation is exactly the merge's tie
/// rule.
///
/// # Panics
///
/// Panics if the output slices are shorter than the runs.
pub fn merge_runs(runs: &[Run<'_>], out_keys: &mut [u64], out_ptrs: &mut [u64]) {
    let (mut scratch, mut done) = (Vec::new(), 0);
    let ptr = |r: usize, i: usize| runs[r].ptr(i);
    walk_buckets(runs, |pos, cut| {
        let len = claimed(pos, cut);
        let out = (
            &mut out_keys[done..done + len],
            &mut out_ptrs[done..done + len],
        );
        let bucket = Bucket(runs, pos, cut, None, &ptr);
        sort_bucket(len, key_bounds(runs, pos, cut), bucket, out, &mut scratch);
        done += len;
    });
    MemPool::return_host_buffer(scratch);
    debug_assert_eq!(done, out_keys.len(), "buckets did not fill the output");
}

/// Calls `visit(pos, cut)` for each bucket `runs[r][pos[r]..cut[r]]` of the
/// runs, in ascending key order: the keys below a [`splitters`] key, then
/// that key by itself, so every key lies in one bucket and a far outlier or
/// a Zipf head cannot collapse the partition. The one walker behind
/// [`merge_runs`], [`fold_runs`] and [`gather_runs`].
fn walk_buckets(runs: &[Run<'_>], mut visit: impl FnMut(&[usize], &[usize])) {
    let (mut pos, mut cut) = (Vec::new(), Vec::new());
    pos.resize(runs.len(), 0);
    cut.resize(runs.len(), 0);
    for splitter in splitters(runs) {
        for inclusive in [false, true] {
            for ((c, &p), run) in cut.iter_mut().zip(&pos).zip(runs) {
                let below = |key: &u64| *key < splitter || inclusive && *key == splitter;
                *c = p + run.keys(p..run.len()).take_while(below).count();
            }
            visit(&pos, &cut);
            pos.copy_from_slice(&cut);
        }
    }
    for (c, run) in cut.iter_mut().zip(runs) {
        *c = run.len();
    }
    visit(&pos, &cut);
}

/// Pairs in `runs[r][lo[r]..hi[r]]` over all `r`.
fn claimed(lo: &[usize], hi: &[usize]) -> usize {
    lo.iter().zip(hi).map(|(lo, hi)| hi - lo).sum()
}

/// Ascending, distinct keys at which `walk_buckets` cuts the runs. Every
/// run contributes each `stride`-th of its keys and every `per`-th of the
/// sorted sample becomes a splitter, so the pairs strictly between two
/// splitters number `BUCKET_PAIRS` on average and at most
/// `(per + k) * stride`, about twice that, however the keys are
/// distributed.
fn splitters(runs: &[Run<'_>]) -> Vec<u64> {
    let mut sample: Vec<u64> = Vec::new();
    let total: usize = runs.iter().map(Run::len).sum();
    if total <= BUCKET_PAIRS {
        return sample;
    }
    let per = runs.len().max(16);
    let stride = (BUCKET_PAIRS / per).max(1);
    sample.reserve_exact(total / stride);
    for run in runs {
        sample.extend((stride - 1..run.len()).step_by(stride).map(|i| run.key(i)));
    }
    sample.sort_unstable();
    let mut kept = 0;
    for i in (per - 1..sample.len()).step_by(per) {
        if kept == 0 || sample[kept - 1] != sample[i] {
            sample[kept] = sample[i];
            kept += 1;
        }
    }
    sample.truncate(kept);
    sample
}

/// Sorts the `len` pairs `pairs` yields, keys in `min..=max`, into `out`
/// by key, stably in the order they come: a radix sort over the bits in
/// which the keys can still differ (`radix.rs`), its last pass scattering
/// into `out`. `scratch` is grown to the largest sort seen.
fn sort_bucket(
    len: usize,
    (min, max): (u64, u64),
    pairs: impl FoldPairs,
    out: Pairs<'_>,
    scratch: &mut Vec<u64>,
) {
    // Above the lowest key, only the bits of the range can differ.
    let key_mask = max
        .saturating_sub(min)
        .checked_ilog2()
        .map_or(0, |top| u64::MAX >> (63 - top));
    let digits = Digits::covering(min, key_mask, 0);
    let sorted = len > radix::SMALL && !digits.is_empty();
    if sorted {
        grow(scratch, 2 * len);
    }
    let scratch = halves(scratch, if sorted { len } else { 0 });
    match sorted && digits.starts_in_scratch() {
        true => pairs.fill(scratch.0, scratch.1),
        false => pairs.fill(out.0, out.1),
    }
    if sorted {
        digits.sort(out, scratch, RankBy::Key);
    } else if len > 1 {
        radix::insertion_sort(out.0, out.1, RankBy::Key);
    }
}

/// The lowest and highest key of `runs[r][lo[r]..hi[r]]` over all `r`:
/// the runs are sorted, so their ends bound the bucket.
fn key_bounds(runs: &[Run<'_>], lo: &[usize], hi: &[usize]) -> (u64, u64) {
    let (mut min, mut max) = (u64::MAX, 0);
    for (run, (&lo, &hi)) in runs.iter().zip(lo.iter().zip(hi)) {
        if lo < hi {
            min = min.min(run.key(lo));
            max = max.max(run.key(hi - 1));
        }
    }
    (min, max)
}

/// Key values per pair up to which a [`KeyFold`] sums in an array.
pub const DENSE_SPAN: u64 = 16;

/// The keyed fold behind [`fold_runs`] and early aggregation's partials
/// ([`crate::Kpa::sort_fold`]): sums the values of each distinct key of a
/// set of pairs, then hands out `(key, sum)` in ascending key order. Pairs
/// whose keys span fewer than [`DENSE_SPAN`] values per pair are summed into
/// an array indexed by key, their keys found again from a seen-bitmap; a
/// sparser set is radix-sorted on its keys alone, values alongside, and
/// folded in one sequential pass.
///
/// The buffers outlive a fold: emitting a key zeroes the slot it read, so
/// once grown a fold allocates nothing and clears no whole array. They come
/// from the host reserve and go back to it on drop, like every host
/// scratch of a kernel, outside glibc's heap-placement lottery.
#[derive(Debug, Default)]
pub struct KeyFold {
    sums: Vec<u64>,
    seen: Vec<u64>,
    /// A sparse fold's keys, then its values.
    pairs: Vec<u64>,
    scratch: Vec<u64>,
    loaded: Loaded,
}

/// What a [`KeyFold`] holds until [`KeyFold::emit`].
#[derive(Debug, Default, Clone, Copy)]
enum Loaded {
    #[default]
    Nothing,
    /// Sums at `key - min`, seen-bits in the first `words` words.
    Dense { min: u64, words: usize },
    /// `len` key-sorted pairs.
    Sparse { len: usize },
}

impl KeyFold {
    /// Sums the `len` pairs `pairs` yields, whose keys lie in `min..=max`,
    /// by key, and returns the number of distinct keys. A fold loaded
    /// before and never emitted is dropped first.
    pub fn load(&mut self, len: usize, (min, max): (u64, u64), pairs: impl FoldPairs) -> usize {
        self.emit(|_, _| {});
        if len == 0 {
            return 0;
        }
        if max - min < DENSE_SPAN * len as u64 {
            let span = (max - min) as usize + 1;
            let words = span.div_ceil(64);
            grow(&mut self.sums, span);
            grow(&mut self.seen, words);
            let (sums, seen) = (&mut self.sums, &mut self.seen);
            pairs.each(|key, value| {
                let at = (key - min) as usize;
                sums[at] = sums[at].wrapping_add(value);
                seen[at / 64] |= 1 << (at % 64);
            });
            self.loaded = Loaded::Dense { min, words };
            return seen[..words].iter().map(|w| w.count_ones() as usize).sum();
        }
        let groups = count_groups(self.sort(len, (min, max), pairs).0);
        self.loaded = Loaded::Sparse { len };
        groups
    }

    /// Sorts the `len` pairs `pairs` yields, keys in `bounds`, by key
    /// alone, stably, and returns them: the keys, then their values.
    fn sort(&mut self, len: usize, bounds: (u64, u64), pairs: impl FoldPairs) -> Pairs<'_> {
        grow(&mut self.pairs, 2 * len);
        let out = halves(&mut self.pairs, len);
        sort_bucket(len, bounds, pairs, out, &mut self.scratch);
        halves(&mut self.pairs, len)
    }

    /// Calls `f(key, sum)` for every key of the loaded fold, ascending, and
    /// empties the fold.
    pub fn emit(&mut self, mut f: impl FnMut(u64, u64)) {
        match std::mem::take(&mut self.loaded) {
            Loaded::Nothing => {}
            Loaded::Dense { min, words } => {
                for (word, bits) in self.seen[..words].iter_mut().enumerate() {
                    let mut bits = std::mem::take(bits);
                    while bits != 0 {
                        let at = 64 * word + bits.trailing_zeros() as usize;
                        f(min + at as u64, std::mem::take(&mut self.sums[at]));
                        bits &= bits - 1;
                    }
                }
            }
            Loaded::Sparse { len } => {
                let (keys, vals) = self.pairs.split_at(len);
                let mut i = 0;
                while let Some(&key) = keys.get(i) {
                    let mut sum = 0u64;
                    while keys.get(i) == Some(&key) {
                        sum = sum.wrapping_add(vals[i]);
                        i += 1;
                    }
                    f(key, sum);
                }
            }
        }
    }
}

impl Drop for KeyFold {
    fn drop(&mut self) {
        let KeyFold {
            sums,
            seen,
            pairs,
            scratch,
            ..
        } = self;
        for buf in [sums, seen, pairs, scratch] {
            MemPool::return_host_buffer(std::mem::take(buf));
        }
    }
}

/// Grows `buf` to at least `len` words, all zero, in a buffer of the host
/// reserve ([`MemPool::host_buffer`]) once its capacity is outgrown, the old
/// one handed back. A fold's arrays are zero between folds, so the grown
/// one holds what the old one held.
fn grow(buf: &mut Vec<u64>, len: usize) {
    if buf.capacity() < len {
        MemPool::return_host_buffer(std::mem::replace(buf, MemPool::host_buffer(len)));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
}

/// The first `len` words of `buf` and the `len` after them.
fn halves(buf: &mut [u64], len: usize) -> Pairs<'_> {
    let (keys, vals) = buf.split_at_mut(len);
    (keys, &mut vals[..len])
}

/// The pairs a [`KeyFold`] loads: `each(f)` calls `f(key, value)` once
/// per pair. Any iterator of pairs is one.
pub trait FoldPairs: Sized {
    /// Calls `f` on every pair.
    fn each(self, f: impl FnMut(u64, u64));

    /// Writes the pairs into `keys` and `values`, as many as they hold.
    fn fill(self, keys: &mut [u64], values: &mut [u64]) {
        let mut dst = keys.iter_mut().zip(values);
        self.each(|key, value| {
            if let Some((k, v)) = dst.next() {
                (*k, *v) = (key, value);
            }
        });
    }
}

impl<I: Iterator<Item = (u64, u64)>> FoldPairs for I {
    fn each(self, mut f: impl FnMut(u64, u64)) {
        self.for_each(|(key, value)| f(key, value));
    }
}

/// One bucket of [`walk_buckets`], `(runs, pos, cut, col, value)`: sub-run
/// `pos[r]..cut[r]` of each run `r`, fed run by run, each in one stream,
/// with word `col` of a run of rows in place as its values, else
/// `value(r, i)`.
struct Bucket<'s, 'a, V>(
    &'s [Run<'a>],
    &'s [usize],
    &'s [usize],
    Option<usize>,
    &'s V,
);

impl<V: Fn(usize, usize) -> u64> FoldPairs for Bucket<'_, '_, V> {
    fn each(self, mut f: impl FnMut(u64, u64)) {
        let Bucket(runs, pos, cut, col, value) = self;
        for (r, run) in runs.iter().enumerate() {
            let at = pos[r]..cut[r];
            match run.keyed_column(at.clone(), col) {
                Some(pairs) => pairs.for_each(|(key, v)| f(key, v)),
                None => run
                    .keys(at.clone())
                    .zip(at)
                    .for_each(|(key, i)| f(key, value(r, i))),
            }
        }
    }
}

/// The keyed reduction to sums, fused into the k-way merge: appends to
/// `rows` one `[key, sum, start]` row per distinct key of the key-sorted
/// `runs`, ascending: `sum` wraps over the values of the key's pairs
/// `runs[r][i]` — word `col` of the record, for a run of rows read in
/// place, and `value(r, i)` otherwise. Each of [`merge_runs`]' buckets is
/// one [`KeyFold`], each run's values read in run order.
/// No key straddles two buckets, and no merged pair is written.
pub fn fold_runs(
    runs: &[Run<'_>],
    col: Option<usize>,
    value: impl Fn(usize, usize) -> u64,
    start: u64,
    rows: &mut Vec<u64>,
) {
    let mut fold = KeyFold::default();
    walk_buckets(runs, |pos, cut| {
        let bucket = Bucket(runs, pos, cut, col, &value);
        fold.load(claimed(pos, cut), key_bounds(runs, pos, cut), bucket);
        fold.emit(|key, sum| rows.extend_from_slice(&[key, sum, start]));
    });
}

/// The keyed reduction's gather, fused into the k-way merge: calls
/// `sink(key, values)` once per distinct key of the key-sorted `runs`, in
/// ascending key order, `values` holding `value(r, i)` for the key's pairs
/// `runs[r][i]` in merged order (run by run, each in its own order) — what
/// `reduce_keyed` hands out over the [`merge_runs`] output, which is never
/// written. The buckets are [`fold_runs`]', each sorted on its keys alone
/// as a sparse [`KeyFold`] is, and cut where the key changes.
pub fn gather_runs(
    runs: &[Run<'_>],
    value: impl Fn(usize, usize) -> u64,
    mut sink: impl FnMut(u64, &mut [u64]),
) {
    let mut fold = KeyFold::default();
    walk_buckets(runs, |pos, cut| {
        let bucket = Bucket(runs, pos, cut, None, &value);
        let (keys, vals) = fold.sort(claimed(pos, cut), key_bounds(runs, pos, cut), bucket);
        let mut i = 0;
        while let Some(&key) = keys.get(i) {
            let end = i + keys[i..].iter().take_while(|&&k| k == key).count();
            sink(key, &mut vals[i..end]);
            i = end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<'a>(keys: &'a [u64], ptrs: &'a [u64]) -> Run<'a> {
        Run::pairs(keys, ptrs)
    }

    fn merged(runs: &[Run<'_>]) -> (Vec<u64>, Vec<u64>) {
        let total = runs.iter().map(Run::len).sum();
        let (mut keys, mut ptrs) = (vec![0u64; total], vec![0u64; total]);
        merge_runs(runs, &mut keys, &mut ptrs);
        (keys, ptrs)
    }

    #[test]
    fn merge_span_equals_serial_merge() {
        let ka = [1u64, 3, 3, 8];
        let pa = [1u64, 2, 3, 4];
        let kb = [2u64, 3, 9];
        let pb = [5u64, 6, 7];
        let kc = [3u64];
        let pc = [8u64];
        let runs = [run(&ka, &pa), run(&kb, &pb), run(&kc, &pc)];
        let (keys, ptrs) = merged(&runs);
        // Stable left-wins ties: run a's 3s, then b's 3, then c's 3.
        assert_eq!(keys, vec![1, 2, 3, 3, 3, 3, 8, 9]);
        assert_eq!(ptrs, vec![1, 5, 2, 3, 6, 8, 4, 7]);
        // Two runs walk the same buckets, with the same tie rule.
        let (keys, ptrs) = merged(&runs[..2]);
        assert_eq!(keys, vec![1, 2, 3, 3, 3, 8, 9]);
        assert_eq!(ptrs, vec![1, 5, 2, 3, 6, 4, 7]);
    }

    #[test]
    fn empty_runs_and_zero_ranks_are_handled() {
        let empty: [u64; 0] = [];
        let ka = [2u64];
        let pa = [0u64];
        let runs = [run(&empty, &empty), run(&ka, &pa)];
        assert_eq!(merged(&runs).0, vec![2]);
        assert_eq!(merged(&runs[..1]).0, Vec::<u64>::new());
        assert_eq!(merged(&[]).0, Vec::<u64>::new());
    }

    #[test]
    fn gather_hands_each_key_its_values_in_run_order() {
        // Dense keys in one bucket, then one run of keys far apart, then
        // three runs of many buckets, over 1 000 keys and over all of `u64`.
        let ka = [1u64, 2, 2, 7];
        let kb = [2u64, 7, 7];
        let kc = [0u64, 1 << 40, 1 << 41];
        let none = vec![0u64; 6_100];
        let mut rng = sbx_prng::SbxRng::seed_from_u64(0x6761_7468);
        let mut long = |len: usize, keys: u64| {
            let mut run: Vec<u64> = (0..len).map(|_| rng.random_range(0..keys)).collect();
            run.sort_unstable();
            run
        };
        let dense = [long(6_000, 1_000), long(5_900, 1_000), long(6_100, 1_000)];
        let sparse = [
            long(6_000, u64::MAX),
            long(6_100, u64::MAX),
            long(5_900, u64::MAX),
        ];
        for runs in [
            vec![run(&ka, &none[..4]), run(&kb, &none[..3])],
            vec![run(&kc, &none[..3]), run(&ka, &none[..4])],
            dense.iter().map(|k| run(k, &none[..k.len()])).collect(),
            sparse.iter().map(|k| run(k, &none[..k.len()])).collect(),
        ] {
            let value = |r: usize, i: usize| (r as u64) << 32 | i as u64;
            let mut got = Vec::new();
            gather_runs(&runs, value, |key, vals| got.push((key, vals.to_vec())));
            let (keys, _) = merged(&runs);
            let mut want: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut at = vec![0usize; runs.len()];
            for key in keys {
                let r = (0..runs.len())
                    .find(|&r| at[r] < runs[r].len() && runs[r].key(at[r]) == key)
                    .unwrap();
                match want.last_mut() {
                    Some((k, vals)) if *k == key => vals.push(value(r, at[r])),
                    _ => want.push((key, vec![value(r, at[r])])),
                }
                at[r] += 1;
            }
            assert_eq!(got, want);
        }
    }
}
