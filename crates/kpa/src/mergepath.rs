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
//!   `Kpa::sort` canonicalizes on this total order, which makes the sorted
//!   output *bit-identical for any thread/chunk count*: the output is the
//!   multiset of pairs in compound order, independent of how the input was
//!   chunked.
//! * [`RankBy::Key`] — the resident key only, ties resolved by run index
//!   (run 0's equal keys precede run 1's). This reproduces the sequential
//!   "left input wins ties" merge exactly, so it applies to KPAs that are
//!   key-sorted but not compound-sorted (e.g. marked via `mark_sorted`).
//!
//! Rank-splitting searches the 128-bit *value space* for the smallest
//! cutoff whose global `count_le` reaches the target rank, then distributes
//! entries equal to the cutoff across runs in run order. This handles
//! arbitrarily duplicate-heavy inputs: the spans always tile the output
//! exactly (see `tests/prop_mergepath.rs`).

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

    // Smallest cutoff value whose global <=-count reaches d. 128-bit value
    // space: ~128 probe rounds of k binary searches each.
    let (mut lo, mut hi) = (0u128, u128::MAX);
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
/// writes output `[rank(p)..rank(p + 1))`; see [`span_ranks`].
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

/// K-way merges `runs[r][lo[r]..hi[r]]` for all `r` into `out_keys` /
/// `out_ptrs` in `by` order (run index breaks ties), preserving each run's
/// internal order. The output slices must have length
/// `sum(hi[r] - lo[r])`.
///
/// Up to two runs merge with the plain two-way loop; more go through a
/// loser tree (`ceil(log2 k)` comparisons per output pair). Either way the
/// last run left holding pairs finishes with a bulk copy.
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
    debug_assert_eq!(runs.len(), lo.len());
    debug_assert_eq!(runs.len(), hi.len());
    // Monomorphized on the rank value, so the Key order compares one word.
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

/// [`merge_span`] over the rank value `head(run, index)`.
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
    // Moves the pair under run `r`'s cursor to the output.
    let mut take = |r: usize, pos: &mut [usize]| {
        out_keys[o] = runs[r].keys[pos[r]];
        out_ptrs[o] = runs[r].ptrs[pos[r]];
        pos[r] += 1;
        o += 1;
    };

    // Merge until at most one run still holds pairs; that survivor is
    // bulk-copied below (the whole body when only one run is non-empty).
    let survivor = if k <= 2 {
        if k == 2 {
            // `<` keeps run 0 on ties, matching rank_split's run-order tie
            // distribution.
            while pos[0] < hi[0] && pos[1] < hi[1] {
                let r = usize::from(head(1, pos[1]) < head(0, pos[0]));
                take(r, &mut pos);
            }
        }
        (0..k).find(|&r| pos[r] < hi[r])
    } else {
        // Loser tree over the k run heads, each a `(drained, head value,
        // run)` entry compared as a tuple: a drained run loses to every
        // live head, and among equal values the lowest run index wins.
        // Leaf `r` hangs below internal node `(k + r) / 2`; internal node
        // `n` (1..k) keeps the loser of the match played there and
        // `tree[0]` the overall winner, so replacing the winner's head
        // replays one leaf-to-root path.
        let entry = |r: usize, pos: &[usize]| {
            if pos[r] < hi[r] {
                (false, head(r, pos[r]), r)
            } else {
                (true, V::default(), r)
            }
        };
        // First round, bottom-up: slot `n` of `up` holds the winner coming
        // up out of node `n` (the leaves are nodes k..2k).
        let mut up: Vec<(bool, V, usize)> = Vec::new();
        up.resize(k, (true, V::default(), 0));
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
        // A live head beats every drained one, so the winner is the
        // survivor.
        (live == 1).then(|| tree[0].2)
    };
    if let Some(r) = survivor {
        let span = pos[r]..hi[r];
        let len = span.len();
        out_keys[o..o + len].copy_from_slice(&runs[r].keys[span.clone()]);
        out_ptrs[o..o + len].copy_from_slice(&runs[r].ptrs[span]);
        o += len;
    }
    debug_assert_eq!(o, out_keys.len(), "span did not fill its output");
}

/// Whole-input k-way merge on a worker pool: plans `width` equal output
/// spans and merges them concurrently (every lane cooperates on the one
/// merge — no serial final round). `width <= 1` falls back to the serial
/// merge; the result is byte-identical either way.
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
) {
    let total = out_keys.len();
    debug_assert_eq!(total, runs.iter().map(Run::len).sum::<usize>());
    let width = width.clamp(1, total.max(1));
    if width == 1 {
        merge_runs_serial(runs, by, out_keys, out_ptrs);
        return;
    }
    let cuts = plan_spans(runs, by, width);
    // sbx-lint: allow(raw-alloc, per-invocation span-job list of borrowed slices)
    let mut jobs: Vec<SpanJob<'_>> = Vec::with_capacity(width);
    {
        let (mut kr, mut pr) = (out_keys, out_ptrs);
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
    pool.run(
        width,
        |(lo, hi, ok, op): SpanJob<'_>| {
            merge_span(runs, &lo, &hi, by, ok, op);
        },
        jobs,
    );
}

/// One claimed output span: per-run lo/hi cuts plus the output slices the
/// worker fills.
type SpanJob<'a> = (Vec<usize>, Vec<usize>, &'a mut [u64], &'a mut [u64]);

/// Serial whole-input k-way merge (the oracle the parallel spans are
/// checked against, and the `width == 1` path of the kernels).
pub fn merge_runs_serial(runs: &[Run<'_>], by: RankBy, out_keys: &mut [u64], out_ptrs: &mut [u64]) {
    // sbx-lint: allow(raw-alloc, k span bounds; pair data stays in the caller's buffers)
    let lo = vec![0usize; runs.len()];
    // sbx-lint: allow(raw-alloc, k span bounds; pair data stays in the caller's buffers)
    let hi: Vec<usize> = runs.iter().map(Run::len).collect();
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
