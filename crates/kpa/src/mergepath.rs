//! The k-way merge of sorted runs, and the keyed reduction fused into it.
//!
//! A window close (paper §4.2, Fig. 4a) merges every KPA the window holds,
//! then reduces each key's records. Here one bucket walker,
//! `walk_buckets`, cuts the runs at common key *splitters* into buckets of
//! a few thousand pairs that cover disjoint key ranges, and hands each
//! bucket to one of three sinks:
//!
//! * [`merge_runs`] sorts the bucket into the merged KPA's next slice;
//! * [`fold_runs`] sums each key's values, writing no merged pair;
//! * [`gather_runs`] hands each key's values, in merged order, to the
//!   caller's reduction, writing no merged pair either.
//!
//! Everything runs on the calling thread: StreamBox parallelises across
//! bundles and windows (§3), not inside one merge.
//!
//! Two rank orders are supported:
//!
//! * [`RankBy::Compound`] — the full `(key, ptr)` pair as a 128-bit value.
//!   `Kpa::sort` sorts in this total order, so its output is the multiset
//!   of pairs in compound order, independent of how the input was chunked.
//! * [`RankBy::Key`] — the resident key only, ties resolved by run index
//!   (run 0's equal keys precede run 1's). This reproduces the sequential
//!   "left input wins ties" merge exactly, so it applies to KPAs that are
//!   key-sorted but not compound-sorted (e.g. marked via `mark_sorted`).

use std::ops::Range;

use crate::radix::{self, Digits, Pairs};

/// Which order merges and rank splits operate in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Total order on `(key, ptr)` as one 128-bit compound value.
    Compound,
    /// Order on the key only; equal keys ordered by run index, preserving
    /// each run's internal order (stable, left-run-wins ties).
    Key,
}

/// One sorted input run: parallel key/pointer slices of equal length.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Resident keys, nondecreasing in the [`RankBy`] order used.
    pub keys: &'a [u64],
    /// Packed record pointers parallel to `keys`.
    pub ptrs: &'a [u64],
}

impl Run<'_> {
    /// Number of pairs in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
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

/// K-way merges the `runs` into `out_keys` / `out_ptrs` in `by` order (run
/// index breaks ties), preserving each run's internal order. The output
/// slices must hold exactly the runs' pairs.
///
/// Up to two runs merge with the plain two-way loop. More are cut at common
/// key *splitters* into buckets of a few thousand pairs (`walk_buckets`),
/// and each bucket is sorted on its own: its sub-runs are concatenated in
/// run order and a stable radix sort (`radix.rs`) over the bits in which the
/// bucket's keys can still differ puts them in order, the last pass
/// scattering straight into the output. Stable over run-order concatenation
/// is exactly [`RankBy::Key`]'s tie rule; [`RankBy::Compound`] adds the
/// pointer digits unless the sub-runs' pointer ranges already ascend from
/// run to run (the chunks of one freshly extracted KPA).
///
/// # Panics
///
/// Panics if the output slices are shorter than the runs.
pub fn merge_runs(runs: &[Run<'_>], by: RankBy, out_keys: &mut [u64], out_ptrs: &mut [u64]) {
    if runs.len() <= 2 {
        merge_two(runs, by, out_keys, out_ptrs);
        return;
    }
    let mut scratch = Vec::new();
    let mut done = 0;
    let copy_ptrs = |r: usize, at: Range<usize>, dst: &mut [u64]| {
        dst.copy_from_slice(&runs[r].ptrs[at]);
    };
    walk_buckets(runs, |pos, cut| {
        let out = (&mut out_keys[done..], &mut out_ptrs[done..]);
        done += sort_bucket(runs, pos, cut, by, copy_ptrs, out, &mut scratch);
    });
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
                let rest = &run.keys[p..];
                *c = p + if inclusive {
                    gallop(rest, |key| key <= splitter)
                } else {
                    gallop(rest, |key| key < splitter)
                };
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

/// `keys.partition_point(below)` for a point expected near the front: a
/// bucket takes a small share of each run, so doubling steps find the
/// point's neighbourhood in fewer probes than bisecting the whole remainder.
fn gallop(keys: &[u64], below: impl Fn(u64) -> bool) -> usize {
    let (mut lo, mut hi) = (0, keys.len().min(32));
    while hi < keys.len() && below(keys[hi - 1]) {
        lo = hi;
        hi = (2 * hi).min(keys.len());
    }
    lo + keys[lo..hi].partition_point(|&key| below(key))
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
        sample.extend(run.keys.iter().skip(stride - 1).step_by(stride));
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

/// Sorts one bucket of [`walk_buckets`] into the front of `out` and returns
/// its length: the keys, each beside the payload `fill(r, range, dst)`
/// writes for run `r`'s sub-run `range` (in a merge, its pointers).
/// `scratch` is grown to the largest bucket seen.
fn sort_bucket(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    by: RankBy,
    fill: impl Fn(usize, Range<usize>, &mut [u64]),
    out: Pairs<'_>,
    scratch: &mut Vec<u64>,
) -> usize {
    let len = claimed(lo, hi);
    let mut out: Pairs<'_> = (&mut out.0[..len], &mut out.1[..len]);
    let parts = || {
        (0..runs.len())
            .filter(|&r| lo[r] < hi[r])
            .map(|r| (r, lo[r]..hi[r]))
    };
    let concat_into = |dst: &mut Pairs<'_>| {
        let mut at = 0;
        for (r, part) in parts() {
            let end = at + part.len();
            dst.0[at..end].copy_from_slice(&runs[r].keys[part.clone()]);
            fill(r, part, &mut dst.1[at..end]);
            at = end;
        }
    };
    if len <= radix::SMALL {
        concat_into(&mut out);
        radix::insertion_sort(out.0, out.1, by);
        return len;
    }

    // Above the lowest key, only the bits of the bucket's range can differ.
    let (min, max) = key_bounds(runs, lo, hi);
    let key_mask = (max - min)
        .checked_ilog2()
        .map_or(0, |top| u64::MAX >> (63 - top));
    let ptr_mask = match by {
        RankBy::Key => 0,
        RankBy::Compound => {
            let first = parts()
                .next()
                .map_or(0, |(r, part)| runs[r].ptrs[part.start]);
            let (mut differing, mut ascending, mut below) = (0, true, 0);
            for (r, part) in parts() {
                let (mut low, mut high) = (u64::MAX, 0);
                for &ptr in &runs[r].ptrs[part] {
                    low = low.min(ptr);
                    high = high.max(ptr);
                    differing |= ptr ^ first;
                }
                ascending &= below <= low;
                below = high;
            }
            // Part after part of ascending pointers: run order is pointer
            // order wherever keys tie.
            if ascending {
                0
            } else {
                differing
            }
        }
    };

    let digits = Digits::covering(min, key_mask, ptr_mask);
    if digits.is_empty() {
        concat_into(&mut out);
        return len;
    }
    if scratch.len() < 2 * len {
        scratch.resize(2 * len, 0);
    }
    let (scratch_keys, scratch_ptrs) = scratch.split_at_mut(len);
    let mut scratch: Pairs<'_> = (scratch_keys, &mut scratch_ptrs[..len]);
    if digits.starts_in_scratch() {
        concat_into(&mut scratch);
    } else {
        concat_into(&mut out);
    }
    digits.sort(out, scratch, by);
    len
}

/// The lowest and highest key of `runs[r][lo[r]..hi[r]]` over all `r`:
/// the runs are sorted, so their ends bound the bucket.
fn key_bounds(runs: &[Run<'_>], lo: &[usize], hi: &[usize]) -> (u64, u64) {
    let (mut min, mut max) = (u64::MAX, 0);
    for (run, (&lo, &hi)) in runs.iter().zip(lo.iter().zip(hi)) {
        if lo < hi {
            min = min.min(run.keys[lo]);
            max = max.max(run.keys[hi - 1]);
        }
    }
    (min, max)
}

/// Key values per pair up to which a bucket is folded in an array.
const DENSE_SPAN: u64 = 16;

/// The keyed reduction to sums, fused into the k-way merge: appends to
/// `rows` one `[key, sum, start]` row per distinct key of the key-sorted
/// `runs`, ascending: `sum` wraps over `value(r, i)` for the key's pairs
/// `runs[r][i]`. The buckets are
/// [`merge_runs`]', each run's values read in run order. A dense bucket
/// (`DENSE_SPAN`) is summed into an array indexed by key, its keys emitted
/// in order from a bitmap; a sparser one is sorted on its keys alone and
/// folded in place.
/// No key straddles two buckets, and no merged pair is written.
pub fn fold_runs(
    runs: &[Run<'_>],
    value: impl Fn(usize, usize) -> u64,
    start: u64,
    rows: &mut Vec<u64>,
) {
    let (mut sums, mut seen) = (Vec::new(), Vec::new());
    let (mut bucket, mut scratch) = (Vec::new(), Vec::new());
    let values = |r: usize, at: Range<usize>, dst: &mut [u64]| {
        for (v, i) in dst.iter_mut().zip(at) {
            *v = value(r, i);
        }
    };
    walk_buckets(runs, |pos, cut| {
        let len = claimed(pos, cut);
        let (min, max) = key_bounds(runs, pos, cut);
        if len == 0 {
            return;
        }
        if max - min < DENSE_SPAN * len as u64 {
            let span = (max - min) as usize + 1;
            if sums.len() < span {
                sums.resize(span, 0u64);
                seen.resize(span.div_ceil(64), 0u64);
            }
            for (r, run) in runs.iter().enumerate() {
                for (&key, i) in run.keys[pos[r]..cut[r]].iter().zip(pos[r]..) {
                    let at = (key - min) as usize;
                    sums[at] = sums[at].wrapping_add(value(r, i));
                    seen[at / 64] |= 1 << (at % 64);
                }
            }
            // Emitting a key zeroes its slot for the next bucket.
            for (word, bits) in seen[..span.div_ceil(64)].iter_mut().enumerate() {
                let mut bits = std::mem::take(bits);
                while bits != 0 {
                    let at = 64 * word + bits.trailing_zeros() as usize;
                    let sum = std::mem::take(&mut sums[at]);
                    rows.extend_from_slice(&[min + at as u64, sum, start]);
                    bits &= bits - 1;
                }
            }
            return;
        }
        if bucket.len() < 2 * len {
            bucket.resize(2 * len, 0);
        }
        let (keys, vals) = bucket.split_at_mut(len);
        let out = (&mut *keys, &mut vals[..len]);
        sort_bucket(runs, pos, cut, RankBy::Key, values, out, &mut scratch);
        let mut i = 0;
        while let Some(&key) = keys.get(i) {
            let mut sum = 0u64;
            while keys.get(i) == Some(&key) {
                sum = sum.wrapping_add(vals[i]);
                i += 1;
            }
            rows.extend_from_slice(&[key, sum, start]);
        }
    });
}

/// Key values per pair up to which a gather bucket is counting-sorted.
const GATHER_SPAN: u64 = 2;

/// The keyed reduction's gather, fused into the k-way merge: calls
/// `sink(key, values)` once per distinct key of the key-sorted `runs`, in
/// ascending key order, `values` holding `value(r, i)` for the key's pairs
/// `runs[r][i]` in merged order (run by run, each in its own order) — what
/// `reduce_keyed` hands out over the [`merge_runs`] output, which is never
/// written. The buckets are [`fold_runs`]'. A dense bucket (`GATHER_SPAN`)
/// is counting-sorted by key; a sparser one is sorted on its keys alone and
/// cut where the key changes.
pub fn gather_runs(
    runs: &[Run<'_>],
    value: impl Fn(usize, usize) -> u64,
    mut sink: impl FnMut(u64, &mut [u64]),
) {
    let (mut ends, mut bucket, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let values = |r: usize, at: Range<usize>, dst: &mut [u64]| {
        for (v, i) in dst.iter_mut().zip(at) {
            *v = value(r, i);
        }
    };
    walk_buckets(runs, |pos, cut| {
        let len = claimed(pos, cut);
        if len == 0 {
            return;
        }
        if bucket.len() < 2 * len {
            bucket.resize(2 * len, 0);
        }
        let (keys, vals) = bucket.split_at_mut(len);
        let vals = &mut vals[..len];
        let (min, max) = key_bounds(runs, pos, cut);
        if max - min < GATHER_SPAN * len as u64 {
            // `ends[at]` counts key `min + at - 1`'s pairs, then holds where
            // key `min + at`'s values start, then where they end.
            let span = (max - min) as usize + 1;
            ends.clear();
            ends.resize(span + 1, 0usize);
            for (run, (&lo, &hi)) in runs.iter().zip(pos.iter().zip(cut)) {
                for &key in &run.keys[lo..hi] {
                    ends[(key - min) as usize + 1] += 1;
                }
            }
            for at in 1..span {
                ends[at] += ends[at - 1];
            }
            for (r, run) in runs.iter().enumerate() {
                for (&key, i) in run.keys[pos[r]..cut[r]].iter().zip(pos[r]..) {
                    let end = &mut ends[(key - min) as usize];
                    vals[*end] = value(r, i);
                    *end += 1;
                }
            }
            let mut start = 0;
            for (at, &end) in ends[..span].iter().enumerate() {
                if start < end {
                    sink(min + at as u64, &mut vals[start..end]);
                }
                start = end;
            }
            return;
        }
        sort_bucket(
            runs,
            pos,
            cut,
            RankBy::Key,
            values,
            (keys, vals),
            &mut scratch,
        );
        let mut i = 0;
        while let Some(&key) = keys.get(i) {
            let end = i + keys[i..].iter().take_while(|&&k| k == key).count();
            sink(key, &mut vals[i..end]);
            i = end;
        }
    });
}

/// [`merge_runs`] for at most two runs: the two-way loop, then a bulk copy
/// of whichever run still holds pairs.
fn merge_two(runs: &[Run<'_>], by: RankBy, out_keys: &mut [u64], out_ptrs: &mut [u64]) {
    // Monomorphized on the rank value, so the Key order compares one word.
    match by {
        RankBy::Compound => {
            let head = |r: usize, i: usize| (runs[r].keys[i], runs[r].ptrs[i]);
            merge_two_by(runs, head, out_keys, out_ptrs);
        }
        RankBy::Key => {
            let head = |r: usize, i: usize| runs[r].keys[i];
            merge_two_by(runs, head, out_keys, out_ptrs);
        }
    }
}

/// [`merge_two`] over the rank value `head(run, index)`.
fn merge_two_by<V: Ord>(
    runs: &[Run<'_>],
    head: impl Fn(usize, usize) -> V,
    out_keys: &mut [u64],
    out_ptrs: &mut [u64],
) {
    let mut pos = [0usize; 2];
    let mut o = 0usize;
    if let [a, b] = runs {
        // `<` keeps run 0 on ties: left wins.
        while pos[0] < a.len() && pos[1] < b.len() {
            let r = usize::from(head(1, pos[1]) < head(0, pos[0]));
            out_keys[o] = runs[r].keys[pos[r]];
            out_ptrs[o] = runs[r].ptrs[pos[r]];
            pos[r] += 1;
            o += 1;
        }
    }
    for (run, &pos) in runs.iter().zip(&pos) {
        let end = o + run.len() - pos;
        out_keys[o..end].copy_from_slice(&run.keys[pos..]);
        out_ptrs[o..end].copy_from_slice(&run.ptrs[pos..]);
        o = end;
    }
    debug_assert_eq!(o, out_keys.len(), "runs did not fill the output");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<'a>(keys: &'a [u64], ptrs: &'a [u64]) -> Run<'a> {
        Run { keys, ptrs }
    }

    fn merged(runs: &[Run<'_>], by: RankBy) -> (Vec<u64>, Vec<u64>) {
        let total = runs.iter().map(Run::len).sum();
        let (mut keys, mut ptrs) = (vec![0u64; total], vec![0u64; total]);
        merge_runs(runs, by, &mut keys, &mut ptrs);
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
        let (keys, ptrs) = merged(&runs, RankBy::Key);
        // Stable left-wins ties: run a's 3s, then b's 3, then c's 3.
        assert_eq!(keys, vec![1, 2, 3, 3, 3, 3, 8, 9]);
        assert_eq!(ptrs, vec![1, 5, 2, 3, 6, 8, 4, 7]);
        // Two runs take the two-way loop, with the same tie rule.
        let (keys, ptrs) = merged(&runs[..2], RankBy::Key);
        assert_eq!(keys, vec![1, 2, 3, 3, 3, 8, 9]);
        assert_eq!(ptrs, vec![1, 5, 2, 3, 6, 4, 7]);
    }

    #[test]
    fn compound_order_ranks_by_pointer_within_equal_keys() {
        let ka = [4u64, 4];
        let pa = [9u64, 11];
        let kb = [4u64, 4];
        let pb = [8u64, 10];
        let runs = [run(&ka, &pa), run(&kb, &pb)];
        assert_eq!(merged(&runs, RankBy::Compound).1, vec![8, 9, 10, 11]);
    }

    #[test]
    fn empty_runs_and_zero_ranks_are_handled() {
        let empty: [u64; 0] = [];
        let ka = [2u64];
        let pa = [0u64];
        let runs = [run(&empty, &empty), run(&ka, &pa)];
        assert_eq!(merged(&runs, RankBy::Key).0, vec![2]);
        assert_eq!(merged(&runs[..1], RankBy::Key).0, Vec::<u64>::new());
        assert_eq!(merged(&[], RankBy::Key).0, Vec::<u64>::new());
    }

    #[test]
    fn gather_hands_each_key_its_values_in_run_order() {
        // Dense keys in one bucket, then one run of keys far apart.
        let ka = [1u64, 2, 2, 7];
        let kb = [2u64, 7, 7];
        let kc = [0u64, 1 << 40, 1 << 41];
        let none = [0u64; 4];
        for runs in [
            vec![run(&ka, &none[..4]), run(&kb, &none[..3])],
            vec![run(&kc, &none[..3]), run(&ka, &none[..4])],
        ] {
            let value = |r: usize, i: usize| 10 * r as u64 + i as u64;
            let mut got = Vec::new();
            gather_runs(&runs, value, |key, vals| got.push((key, vals.to_vec())));
            let (keys, _) = merged(&runs, RankBy::Key);
            let mut want: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut at = vec![0usize; runs.len()];
            for key in keys {
                let r = (0..runs.len())
                    .find(|&r| runs[r].keys.get(at[r]) == Some(&key))
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
