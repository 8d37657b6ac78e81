//! Merge-path (diagonal) co-partitioning for single-pass parallel merges.
//!
//! The classic GPU/SIMD merge decomposition: given `k` sorted runs and `p`
//! workers, cut the *output* into `p` equal spans and binary-search, for
//! each span boundary, the unique per-run split positions whose prefix
//! counts sum to the boundary's global rank. Every worker then performs an
//! independent k-way merge of its claimed input slices into its claimed
//! output slice — all threads cooperate on one merge, data moves exactly
//! once, and there is no serial final-merge round.
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
//!
//! Rank-splitting searches the *value space* between the runs' lowest head
//! and highest tail for the smallest cutoff whose global `count_le` reaches
//! the target rank, then distributes
//! entries equal to the cutoff across runs in run order. This handles
//! arbitrarily duplicate-heavy inputs: the spans always tile the output
//! exactly (see `tests/prop_mergepath.rs`).

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

    fn value(&self, i: usize, by: RankBy) -> u128 {
        match by {
            RankBy::Compound => (u128::from(self.keys[i]) << 64) | u128::from(self.ptrs[i]),
            RankBy::Key => u128::from(self.keys[i]),
        }
    }

    /// Number of entries with value `<= c` (runs are sorted, so this is a
    /// binary search).
    fn count_le(&self, by: RankBy, c: u128) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.value(mid, by) <= c {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Number of entries with value `< c`.
    fn count_lt(&self, by: RankBy, c: u128) -> usize {
        if c == 0 {
            return 0;
        }
        self.count_le(by, c - 1)
    }
}

/// Per-run split positions for global output rank `d`: the returned
/// `splits[r]` prefix lengths sum to exactly `d`, and every entry in a
/// prefix is `<=` (in `by` order, ties in run order) every entry outside
/// one — the merge-path diagonal intersection.
///
/// # Panics
///
/// Panics (debug) if `d` exceeds the total input length.
pub fn rank_split(runs: &[Run<'_>], by: RankBy, d: usize) -> Vec<usize> {
    let total: usize = runs.iter().map(Run::len).sum();
    debug_assert!(d <= total, "rank beyond input length");
    if d == 0 {
        // sbx-lint: allow(raw-alloc, k split positions; pair data stays in the caller's buffers)
        return vec![0; runs.len()];
    }
    if d >= total {
        // sbx-lint: allow(raw-alloc, k split positions; pair data stays in the caller's buffers)
        return runs.iter().map(Run::len).collect();
    }

    // Smallest cutoff value whose global <=-count reaches d: it lies between
    // the lowest head and the highest tail, so the bisection takes one round
    // of k binary searches per bit in which the runs' values actually differ.
    let (mut lo, mut hi) = (u128::MAX, 0u128);
    for r in runs.iter().filter(|r| !r.is_empty()) {
        lo = lo.min(r.value(0, by));
        hi = hi.max(r.value(r.len() - 1, by));
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let le: usize = runs.iter().map(|r| r.count_le(by, mid)).sum();
        if le >= d {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cutoff = lo;

    // Everything strictly below the cutoff is inside the prefix; entries
    // equal to the cutoff fill the remainder in run order (matching the
    // merge comparator's run-index tie-break).
    // sbx-lint: allow(raw-alloc, k split positions; pair data stays in the caller's buffers)
    let mut splits: Vec<usize> = runs.iter().map(|r| r.count_lt(by, cutoff)).collect();
    let mut extra = d - splits.iter().sum::<usize>();
    for (s, r) in splits.iter_mut().zip(runs) {
        if extra == 0 {
            break;
        }
        let ties = r.count_le(by, cutoff) - *s;
        let take = ties.min(extra);
        *s += take;
        extra -= take;
    }
    debug_assert_eq!(extra, 0, "cutoff had fewer ties than required");
    splits
}

/// Split boundaries for `parts` equal output spans over `runs`: `parts + 1`
/// rows of per-run positions, row `p` at global rank `p * total / parts`.
/// Span `p` merges `runs[r][cuts[p][r]..cuts[p + 1][r]]` for every `r` and
/// writes output `[rank(p)..rank(p + 1))`; see [`span_rank`].
pub fn plan_spans(runs: &[Run<'_>], by: RankBy, parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.max(1);
    let total: usize = runs.iter().map(Run::len).sum();
    (0..=parts)
        .map(|p| rank_split(runs, by, span_rank(total, parts, p)))
        // sbx-lint: allow(raw-alloc, parts+1 boundary rows; pair data stays in the caller's buffers)
        .collect()
}

/// Global output rank of span boundary `p` of `parts` over `total` pairs.
pub fn span_rank(total: usize, parts: usize, p: usize) -> usize {
    total * p / parts.max(1)
}

/// Pairs per bucket the k-way merge sorts at a time: source and scratch of
/// a bucket stay cache-resident while its counting passes run.
const BUCKET_PAIRS: usize = 4096;

/// Distinct keys of a key-sorted slice, counted branch-free.
pub fn count_groups(keys: &[u64]) -> usize {
    let changes: usize = keys.windows(2).map(|w| usize::from(w[0] != w[1])).sum();
    usize::from(!keys.is_empty()) + changes
}

/// K-way merges `runs[r][lo[r]..hi[r]]` for all `r` into `out_keys` /
/// `out_ptrs` in `by` order (run index breaks ties), preserving each run's
/// internal order. The output slices must have length
/// `sum(hi[r] - lo[r])`.
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
/// Panics if the output slices are shorter than the claimed input span.
pub fn merge_span(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    by: RankBy,
    out_keys: &mut [u64],
    out_ptrs: &mut [u64],
) {
    merge_span_with(runs, lo, hi, by, (out_keys, out_ptrs), |_| {});
}

/// [`merge_span`], handing each bucket's merged keys to `sink` while in
/// cache; returns whether it cut buckets (the two-way loop does not).
fn merge_span_with(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    by: RankBy,
    out: Pairs<'_>,
    mut sink: impl FnMut(&[u64]),
) -> bool {
    debug_assert_eq!(runs.len(), lo.len());
    debug_assert_eq!(runs.len(), hi.len());
    let (out_keys, out_ptrs) = out;
    if runs.len() <= 2 {
        merge_two(runs, lo, hi, by, out_keys, out_ptrs);
        return false;
    }
    let mut scratch = Vec::new();
    let mut done = 0;
    let copy_ptrs = |r: usize, at: Range<usize>, dst: &mut [u64]| {
        dst.copy_from_slice(&runs[r].ptrs[at]);
    };
    walk_buckets(runs, lo, hi, |pos, cut| {
        let out = (&mut out_keys[done..], &mut out_ptrs[done..]);
        let len = sort_bucket(runs, pos, cut, by, copy_ptrs, out, &mut scratch);
        sink(&out_keys[done..done + len]);
        done += len;
    });
    debug_assert_eq!(done, out_keys.len(), "buckets did not fill the output");
    true
}

/// Calls `visit(pos, cut)` for each bucket `runs[r][pos[r]..cut[r]]` of
/// `runs[r][lo[r]..hi[r]]`, in ascending key order: the keys below a
/// [`splitters`] key, then that key by itself, so every key lies in one
/// bucket and a far outlier or a Zipf head cannot collapse the partition.
fn walk_buckets(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    mut visit: impl FnMut(&[usize], &[usize]),
) {
    let mut pos = lo.to_vec();
    let mut cut = lo.to_vec();
    for splitter in splitters(runs, lo, hi, claimed(lo, hi)) {
        for inclusive in [false, true] {
            for ((c, &p), (run, &h)) in cut.iter_mut().zip(&pos).zip(runs.iter().zip(hi)) {
                let rest = &run.keys[p..h];
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
    visit(&pos, hi);
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

/// Ascending, distinct keys at which [`merge_span`] cuts the `total` pairs
/// of `runs[r][lo[r]..hi[r]]`. Every run contributes each `stride`-th of its
/// keys and every `per`-th of the sorted sample becomes a splitter, so the
/// pairs strictly between two splitters number `BUCKET_PAIRS` on average and
/// at most `(per + k) * stride`, about twice that, however the keys are
/// distributed.
fn splitters(runs: &[Run<'_>], lo: &[usize], hi: &[usize], total: usize) -> Vec<u64> {
    let mut sample: Vec<u64> = Vec::new();
    if total <= BUCKET_PAIRS {
        return sample;
    }
    let per = runs.len().max(16);
    let stride = (BUCKET_PAIRS / per).max(1);
    sample.reserve_exact(total / stride);
    for (run, (&lo, &hi)) in runs.iter().zip(lo.iter().zip(hi)) {
        sample.extend(run.keys[lo..hi].iter().skip(stride - 1).step_by(stride));
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
/// [`merge_span`]'s, each run's values read in run order. A dense bucket
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
    let total = runs.iter().map(Run::len).sum();
    let (lo, hi) = (
        rank_split(runs, RankBy::Key, 0),
        rank_split(runs, RankBy::Key, total),
    );
    let (mut sums, mut seen) = (Vec::new(), Vec::new());
    let (mut bucket, mut scratch) = (Vec::new(), Vec::new());
    let values = |r: usize, at: Range<usize>, dst: &mut [u64]| {
        for (v, i) in dst.iter_mut().zip(at) {
            *v = value(r, i);
        }
    };
    walk_buckets(runs, &lo, &hi, |pos, cut| {
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

/// [`merge_span`] for at most two runs: the two-way loop, then a bulk copy
/// of whichever run still holds pairs.
fn merge_two(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    by: RankBy,
    out_keys: &mut [u64],
    out_ptrs: &mut [u64],
) {
    // Monomorphized on the rank value, so the Key order compares one word.
    match by {
        RankBy::Compound => {
            let head = |r: usize, i: usize| (runs[r].keys[i], runs[r].ptrs[i]);
            merge_two_by(runs, lo, hi, head, out_keys, out_ptrs);
        }
        RankBy::Key => {
            let head = |r: usize, i: usize| runs[r].keys[i];
            merge_two_by(runs, lo, hi, head, out_keys, out_ptrs);
        }
    }
}

/// [`merge_two`] over the rank value `head(run, index)`.
fn merge_two_by<V: Ord>(
    runs: &[Run<'_>],
    lo: &[usize],
    hi: &[usize],
    head: impl Fn(usize, usize) -> V,
    out_keys: &mut [u64],
    out_ptrs: &mut [u64],
) {
    let mut pos: Vec<usize> = lo.to_vec();
    let mut o = 0usize;
    if runs.len() == 2 {
        // `<` keeps run 0 on ties, matching rank_split's run-order tie
        // distribution.
        while pos[0] < hi[0] && pos[1] < hi[1] {
            let r = usize::from(head(1, pos[1]) < head(0, pos[0]));
            out_keys[o] = runs[r].keys[pos[r]];
            out_ptrs[o] = runs[r].ptrs[pos[r]];
            pos[r] += 1;
            o += 1;
        }
    }
    for (run, (&pos, &hi)) in runs.iter().zip(pos.iter().zip(hi)) {
        out_keys[o..o + hi - pos].copy_from_slice(&run.keys[pos..hi]);
        out_ptrs[o..o + hi - pos].copy_from_slice(&run.ptrs[pos..hi]);
        o += hi - pos;
    }
    debug_assert_eq!(o, out_keys.len(), "span did not fill its output");
}

/// Whole-input k-way merge on a worker pool: plans `width` equal output
/// spans and merges them concurrently (every lane cooperates on the one
/// merge — no serial final round); byte-identical at every `width`. With
/// `count`, also returns the distinct keys written, counted bucket by bucket
/// in cache (`None` for at most two runs), exact at every width.
///
/// # Panics
///
/// Panics if the output slices do not hold exactly the total run length.
pub fn merge_runs_pooled(
    pool: &sbx_pool::WorkerPool,
    width: usize,
    runs: &[Run<'_>],
    by: RankBy,
    out_keys: &mut [u64],
    out_ptrs: &mut [u64],
    count: bool,
) -> Option<usize> {
    let total = out_keys.len();
    debug_assert_eq!(total, runs.iter().map(Run::len).sum::<usize>());
    let width = width.clamp(1, total.max(1));
    let cuts = plan_spans(runs, by, width);
    // Each lane counts its buckets' keys, if asked to, as they are merged.
    let merge = |(lo, hi, ok, op): SpanJob<'_>| {
        let mut groups = 0;
        let sink = |keys: &[u64]| groups += if count { count_groups(keys) } else { 0 };
        let walked = merge_span_with(runs, &lo, &hi, by, (ok, op), sink);
        (walked && count).then_some(groups)
    };
    if width == 1 {
        return merge((cuts[0].clone(), cuts[1].clone(), out_keys, out_ptrs));
    }
    // sbx-lint: allow(raw-alloc, per-invocation span-job list of borrowed slices)
    let mut jobs: Vec<SpanJob<'_>> = Vec::with_capacity(width);
    {
        let (mut kr, mut pr) = (&mut *out_keys, out_ptrs);
        let mut done = 0usize;
        for p in 0..width {
            let next = span_rank(total, width, p + 1);
            let (kh, kt) = kr.split_at_mut(next - done);
            let (ph, pt) = pr.split_at_mut(next - done);
            jobs.push((cuts[p].clone(), cuts[p + 1].clone(), kh, ph));
            kr = kt;
            pr = pt;
            done = next;
        }
    }
    let groups: Option<usize> = pool.run(width, merge, jobs).into_iter().sum();
    // With `width <= total` no span is empty, so the seams are distinct.
    let seams = (1..width).map(|p| span_rank(total, width, p));
    groups.map(|g| g - seams.filter(|&at| out_keys[at - 1] == out_keys[at]).count())
}

/// One claimed output span: per-run lo/hi cuts plus the output slices the
/// worker fills.
type SpanJob<'a> = (Vec<usize>, Vec<usize>, &'a mut [u64], &'a mut [u64]);

/// Serial whole-input k-way merge (the oracle the parallel spans are
/// checked against).
pub fn merge_runs_serial(runs: &[Run<'_>], by: RankBy, out_keys: &mut [u64], out_ptrs: &mut [u64]) {
    let total = runs.iter().map(Run::len).sum();
    let (lo, hi) = (rank_split(runs, by, 0), rank_split(runs, by, total));
    merge_span(runs, &lo, &hi, by, out_keys, out_ptrs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<'a>(keys: &'a [u64], ptrs: &'a [u64]) -> Run<'a> {
        Run { keys, ptrs }
    }

    #[test]
    fn rank_split_tiles_exactly_on_duplicates() {
        let ka = [1u64, 5, 5, 5, 9];
        let pa = [0u64, 1, 2, 3, 4];
        let kb = [5u64, 5, 7];
        let pb = [10u64, 11, 12];
        let runs = [run(&ka, &pa), run(&kb, &pb)];
        for d in 0..=8 {
            let s = rank_split(&runs, RankBy::Key, d);
            assert_eq!(s.iter().sum::<usize>(), d, "rank {d}");
            assert!(s[0] <= ka.len() && s[1] <= kb.len());
        }
        // Key ties at 5: run 0's three fives fill ranks 1..4 before run
        // 1's two fives at ranks 4..6.
        assert_eq!(rank_split(&runs, RankBy::Key, 4), vec![4, 0]);
        assert_eq!(rank_split(&runs, RankBy::Key, 5), vec![4, 1]);
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
        let total = 8;
        let mut want_k = vec![0u64; total];
        let mut want_p = vec![0u64; total];
        merge_runs_serial(&runs, RankBy::Key, &mut want_k, &mut want_p);
        // Stable left-wins ties: run a's 3s, then b's 3, then c's 3.
        assert_eq!(want_k, vec![1, 2, 3, 3, 3, 3, 8, 9]);
        assert_eq!(want_p, vec![1, 5, 2, 3, 6, 8, 4, 7]);

        for parts in 1..=6 {
            let cuts = plan_spans(&runs, RankBy::Key, parts);
            let mut got_k = vec![0u64; total];
            let mut got_p = vec![0u64; total];
            for p in 0..parts {
                let a = span_rank(total, parts, p);
                let b = span_rank(total, parts, p + 1);
                merge_span(
                    &runs,
                    &cuts[p],
                    &cuts[p + 1],
                    RankBy::Key,
                    &mut got_k[a..b],
                    &mut got_p[a..b],
                );
            }
            assert_eq!(got_k, want_k, "parts={parts}");
            assert_eq!(got_p, want_p, "parts={parts}");
        }
    }

    #[test]
    fn compound_order_ranks_by_pointer_within_equal_keys() {
        let ka = [4u64, 4];
        let pa = [9u64, 11];
        let kb = [4u64, 4];
        let pb = [8u64, 10];
        let runs = [run(&ka, &pa), run(&kb, &pb)];
        let mut out_k = vec![0u64; 4];
        let mut out_p = vec![0u64; 4];
        merge_runs_serial(&runs, RankBy::Compound, &mut out_k, &mut out_p);
        assert_eq!(out_p, vec![8, 9, 10, 11]);
        // And the rank split agrees with that order.
        assert_eq!(rank_split(&runs, RankBy::Compound, 2), vec![1, 1]);
    }

    #[test]
    fn empty_runs_and_zero_ranks_are_handled() {
        let empty: [u64; 0] = [];
        let ka = [2u64];
        let pa = [0u64];
        let runs = [run(&empty, &empty), run(&ka, &pa)];
        assert_eq!(rank_split(&runs, RankBy::Key, 0), vec![0, 0]);
        assert_eq!(rank_split(&runs, RankBy::Key, 1), vec![0, 1]);
        let mut k = vec![0u64; 1];
        let mut p = vec![0u64; 1];
        merge_runs_serial(&runs, RankBy::Key, &mut k, &mut p);
        assert_eq!(k, vec![2]);
    }

    #[test]
    fn extreme_values_survive_the_value_space_search() {
        let ka = [0u64, u64::MAX];
        let pa = [u64::MAX, u64::MAX];
        let kb = [u64::MAX];
        let pb = [0u64];
        let runs = [run(&ka, &pa), run(&kb, &pb)];
        let s = rank_split(&runs, RankBy::Compound, 2);
        assert_eq!(s.iter().sum::<usize>(), 2);
        // (MAX, 0) in run b sorts before (MAX, MAX) in run a.
        assert_eq!(s, vec![1, 1]);
    }
}
