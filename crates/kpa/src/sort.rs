use sbx_records::Col;
use sbx_simmem::{AllocError, MemPool};

use crate::mergepath::KeyFold;
use crate::radix::{self, Digits, RankBy};
use crate::{profile, ExecCtx, Kpa, PrimGroup};

/// The chunk sort kernel: sorts parallel key/pointer slices in place in the
/// *compound* `(key, ptr)` order — the canonical total order [`Kpa::sort`]
/// sorts in — so the result is a function of the multiset of pairs, not of
/// the order they arrived in.
///
/// The host runs one stable radix sort (`radix.rs`) over the digits on
/// which the chunk's pairs disagree — three passes for 4 M distinct keys,
/// one for a thousand — and leaves the pointer digits out altogether when
/// the pointers already ascend, as they do in every freshly extracted,
/// partitioned or key-swapped KPA: a stable sort by key then *is* the
/// compound order. The cost model keeps pricing the paper's AVX-512 bitonic
/// block kernel ([`profile::sort`]). The scratch copy is host scratch, like
/// any sorter's, and stays outside the accounted pools: a
/// [`MemPool::host_buffer`] from the process-wide reserve, handed back
/// when the sort is done.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sort_pairs(keys: &mut [u64], ptrs: &mut [u64]) {
    assert_eq!(keys.len(), ptrs.len(), "key/pointer slices must pair up");
    let n = keys.len();
    if n <= radix::SMALL {
        radix::insertion_sort(keys, ptrs, RankBy::Compound);
        return;
    }
    let differing = |words: &[u64]| words.iter().fold(0, |mask, &w| mask | (w ^ words[0]));
    let ptr_mask = if ptrs.windows(2).all(|w| w[0] <= w[1]) {
        0
    } else {
        differing(ptrs)
    };
    let digits = Digits::covering(0, differing(keys), ptr_mask);
    if digits.is_empty() {
        return;
    }
    // The sort starts in whichever copy makes its last pass land in place.
    let mut scratch = MemPool::host_buffer(2 * n);
    scratch.extend_from_slice(keys);
    scratch.extend_from_slice(ptrs);
    let (scratch_keys, scratch_ptrs) = scratch.split_at_mut(n);
    digits.sort((keys, ptrs), (scratch_keys, scratch_ptrs), RankBy::Compound);
    MemPool::return_host_buffer(scratch);
}

/// The least and greatest of `keys`: `(u64::MAX, 0)` for none.
fn key_bounds(keys: impl Iterator<Item = u64>) -> (u64, u64) {
    keys.fold((u64::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)))
}

impl Kpa {
    /// **Sort** (Table 2): sorts the KPA by resident key, in place, with
    /// the chunk kernel [`sort_pairs`] (one read+write pass) on one lane.
    ///
    /// StreamBox parallelises across bundles and windows (paper §3,
    /// §4.2), not inside one bundle's sort, so the sort allocates no pool
    /// scratch, never spills, and moves no byte between tiers.
    ///
    /// The sort order is the *compound* `(key, ptr)` order, so the result
    /// depends only on the multiset of pairs.
    ///
    /// The lane count `_threads` is ignored. It stays so that callers
    /// written against the multi-lane sort this replaced keep compiling.
    ///
    /// # Errors
    ///
    /// None. The `Result` stays for the callers that propagate it.
    pub fn sort(&mut self, ctx: &mut ExecCtx, _threads: usize) -> Result<(), AllocError> {
        let n = self.len();
        if self.is_sorted() || n <= 1 {
            self.set_sorted(true);
            return Ok(());
        }
        let kind = self.kind();
        let (keys, ptrs) = self.keys_mut_parts();
        sort_pairs(keys, ptrs);
        ctx.charge_as(PrimGroup::Sort, &profile::sort(n, kind));
        self.set_sorted(true);
        Ok(())
    }

    /// Early aggregation's Sort (paper §4.2), charged as [`Kpa::sort`]
    /// charges it, but no pair moves: `fold` sums the pairs' values by key
    /// — `values[i]` for pair `i` when the key swap read them, else record
    /// column `col` in pair order, else 1 (a count, which still shows
    /// `--features sanitize` every pointer). A KPA in place feeds key and
    /// value from its rows in one stream. Returns the distinct keys.
    pub fn sort_fold(
        &self,
        ctx: &mut ExecCtx,
        col: Option<Col>,
        values: Option<&[u64]>,
        fold: &mut KeyFold,
    ) -> usize {
        let n = self.len();
        if !self.is_sorted() && n > 1 {
            ctx.charge_as(PrimGroup::Sort, &profile::sort(n, self.kind()));
        }
        if let Some(b) = self.rows_in_place() {
            let key = self.resident().0;
            let rows = b.as_rows().chunks_exact(b.schema().ncols());
            let bounds = key_bounds(rows.clone().map(|row| row[key]));
            return match col {
                Some(Col(col)) => fold.load(n, bounds, rows.map(|row| (row[key], row[col]))),
                None => fold.load(n, bounds, rows.map(|row| (row[key], 1))),
            };
        }
        let keys = self.keys();
        let bounds = key_bounds(keys.iter().copied());
        let keys = keys.iter().copied();
        if let (Some(_), Some(values)) = (col, values) {
            return fold.load(n, bounds, keys.zip(values.iter().copied()));
        }
        let records = self.resolver();
        fold.load(
            n,
            bounds,
            keys.zip(0..).map(|(key, i)| (key, records.summand(i, col))),
        )
    }

    /// The keyed reduction of a [`Kpa::sort_fold`]: `f(key, sum)` per key,
    /// ascending, charged as [`crate::reduce_keyed`] over this KPA.
    pub fn reduce_fold(&self, ctx: &mut ExecCtx, fold: &mut KeyFold, f: impl FnMut(u64, u64)) {
        fold.emit(f);
        ctx.charge(&profile::reduce_keyed(self.len(), self.kind()));
    }
}

#[cfg(test)]
mod tests {

    use sbx_records::{Col, RecordBundle, Schema};
    use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

    use super::*;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    fn kpa_of(env: &MemEnv, ctx: &mut ExecCtx, keys: &[u64]) -> Kpa {
        let flat: Vec<u64> = keys.iter().flat_map(|&k| [k, k * 10, 0]).collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap();
        let mut kpa = Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.set_sorted(keys.len() <= 1);
        kpa
    }

    #[test]
    fn sort_orders_keys_and_keeps_pointers_attached() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_of(&env, &mut ctx, &[9, 1, 7, 3, 3, 120, 0]);
        kpa.sort(&mut ctx, 3).unwrap();
        assert!(kpa.is_sorted());
        assert_eq!(kpa.keys(), &[0, 1, 3, 3, 7, 9, 120]);
        // Each pointer still leads to the record whose key it carries.
        for i in 0..kpa.len() {
            assert_eq!(kpa.value_at(i, Col(1)), kpa.keys()[i] * 10);
        }
    }

    #[test]
    fn sort_is_idempotent_and_cheap_when_sorted() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_of(&env, &mut ctx, &[4, 2, 8]);
        kpa.sort(&mut ctx, 2).unwrap();
        let charged = ctx.take_profile();
        assert!(charged.cpu_cycles > 0.0);
        kpa.sort(&mut ctx, 2).unwrap();
        assert_eq!(
            ctx.profile().cpu_cycles,
            0.0,
            "re-sort of sorted KPA is free"
        );
    }

    #[test]
    fn sort_matches_std_sort_on_random_input() {
        use sbx_prng::SbxRng;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut rng = SbxRng::seed_from_u64(42);
        let keys: Vec<u64> = (0..10_000).map(|_| rng.random_range(0..1000)).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        for threads in [1, 2, 3, 8] {
            let mut kpa = kpa_of(&env, &mut ctx, &keys);
            kpa.sort(&mut ctx, threads).unwrap();
            assert_eq!(kpa.keys(), &expect[..], "threads={threads}");
        }
    }

    #[test]
    fn sort_output_is_bit_identical_across_thread_counts() {
        use sbx_prng::SbxRng;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut rng = SbxRng::seed_from_u64(99);
        // Duplicate-heavy keys force tie-breaks onto the pointer order.
        let keys: Vec<u64> = (0..5_000).map(|_| rng.random_range(0..50)).collect();
        // Bundle IDs differ per KPA instance, so compare rows (unique per
        // record and instance-independent) rather than packed refs.
        let rows_of = |kpa: &Kpa| -> Vec<u64> {
            (0..kpa.len())
                .map(|i| u64::from(kpa.record_ref(i).row))
                .collect()
        };
        let reference = {
            let mut kpa = kpa_of(&env, &mut ctx, &keys);
            kpa.sort(&mut ctx, 1).unwrap();
            (kpa.keys().to_vec(), rows_of(&kpa))
        };
        for threads in [2usize, 4, 8] {
            let mut kpa = kpa_of(&env, &mut ctx, &keys);
            kpa.sort(&mut ctx, threads).unwrap();
            assert_eq!(kpa.keys(), &reference.0[..], "keys, threads={threads}");
            assert_eq!(rows_of(&kpa), reference.1, "pointers, threads={threads}");
        }
    }

    #[test]
    fn serial_sort_allocates_no_scratch() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_of(&env, &mut ctx, &[5, 3, 9, 1, 2, 8, 0, 7]);
        let hbm = env.pool(MemKind::Hbm);
        let (before, allocs) = (hbm.used_bytes(), hbm.stats().total_allocs);
        kpa.sort(&mut ctx, 1).unwrap();
        assert_eq!(
            hbm.used_bytes(),
            before,
            "threads == 1 sorts in place without scratch buffers"
        );
        assert_eq!(hbm.stats().total_allocs, allocs);
        assert_eq!(kpa.keys(), &[0, 1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn parallel_sort_allocates_no_scratch() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_of(&env, &mut ctx, &[5, 3, 9, 1, 2, 8, 0, 7]);
        let hbm = env.pool(MemKind::Hbm);
        let (before, allocs) = (hbm.used_bytes(), hbm.stats().total_allocs);
        let high_water = hbm.stats().high_water_bytes;
        kpa.sort(&mut ctx, 4).unwrap();
        // A lane count above one sorts in place too: no scratch pair is
        // allocated, so the pool's peak does not move.
        assert_eq!(hbm.used_bytes(), before);
        assert_eq!(hbm.stats().total_allocs, allocs);
        assert_eq!(hbm.stats().high_water_bytes, high_water);
        assert_eq!(kpa.keys(), &[0, 1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn sort_without_room_for_scratch_sorts_in_place() {
        // HBM just fits the KPA (and not a second scratch pair).
        let mut machine = MachineConfig::knl().scaled(0.01);
        machine.hbm.capacity_bytes = 40 * 1024;
        let env = MemEnv::new(machine);
        let mut ctx = ExecCtx::new(&env);
        let keys: Vec<u64> = (0..2000).rev().collect();
        let mut kpa = kpa_of(&env, &mut ctx, &keys);
        assert_eq!(kpa.kind(), MemKind::Hbm);
        let dram = env.pool(MemKind::Dram).used_bytes();
        kpa.sort(&mut ctx, 4).unwrap();
        assert_eq!(kpa.kind(), MemKind::Hbm, "KPA stays on its tier");
        let expect: Vec<u64> = (0..2000).collect();
        assert_eq!(kpa.keys(), &expect[..]);
        // Nothing spilled, and the DRAM pool never held a byte.
        assert_eq!(env.spill_count(), 0);
        let stats = env.pool(MemKind::Dram).stats();
        assert_eq!(stats.high_water_bytes, dram);
    }

    #[test]
    fn sort_handles_tiny_inputs() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        for keys in [vec![], vec![1], vec![2, 1]] {
            let mut kpa = kpa_of(&env, &mut ctx, &keys);
            kpa.set_sorted(false);
            kpa.sort(&mut ctx, 4).unwrap();
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(kpa.keys(), &expect[..]);
        }
    }

    #[test]
    fn kway_merge_matches_sorted_concatenation() {
        use sbx_prng::SbxRng;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mk_parts = |ctx: &mut ExecCtx, seed: u64| -> Vec<Kpa> {
            let mut rng = SbxRng::seed_from_u64(seed);
            (0..7)
                .map(|_| {
                    let n = rng.random_range(0..400);
                    let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..5_000)).collect();
                    let mut kpa = kpa_of(&env, ctx, &keys);
                    kpa.sort(ctx, 2).unwrap();
                    kpa
                })
                .collect()
        };
        let parts = mk_parts(&mut ctx, 17);
        let mut expect: Vec<u64> = parts.iter().flat_map(|p| p.keys().to_vec()).collect();
        expect.sort_unstable();
        let sources: usize = parts.iter().map(Kpa::source_count).sum();

        let kway = Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(kway.keys(), &expect[..]);
        assert_eq!(kway.source_count(), sources);
        assert!(kway.is_sorted());
        for i in 0..kway.len() {
            assert_eq!(kway.value_at(i, Col(0)), kway.keys()[i]);
        }
    }

    #[test]
    fn kway_merge_single_input_is_identity() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut kpa = kpa_of(&env, &mut ctx, &[3, 1, 2]);
        kpa.sort(&mut ctx, 2).unwrap();
        let merged = Kpa::merge_many(&mut ctx, vec![kpa], MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(merged.keys(), &[1, 2, 3]);
    }

    #[test]
    fn merge_many_produces_one_sorted_kpa() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let mut parts = Vec::new();
        for chunk in [&[5u64, 1, 3][..], &[2, 9][..], &[7][..], &[0, 8, 4, 6][..]] {
            let mut kpa = kpa_of(&env, &mut ctx, chunk);
            kpa.sort(&mut ctx, 2).unwrap();
            parts.push(kpa);
        }
        let merged = Kpa::merge_many(&mut ctx, parts, MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(merged.keys(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(merged.source_count(), 4);
    }

    /// Dropping an `Arc<RecordBundle>` after extraction must not break
    /// pointer dereferencing post-sort (the KPA pins its sources).
    #[test]
    fn sorted_kpa_survives_bundle_drop() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let flat: Vec<u64> = [3u64, 1, 2].iter().flat_map(|&k| [k, k + 100, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        drop(b);
        kpa.set_sorted(false);
        kpa.sort(&mut ctx, 2).unwrap();
        assert_eq!(kpa.value_at(0, Col(1)), 101);
    }

    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<Kpa>();
    };
}
