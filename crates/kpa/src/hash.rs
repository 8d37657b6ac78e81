//! Random-access hash grouping: the algorithm StreamBox-HBM *avoids* on
//! HBM — until the table fits in cache.
//!
//! This is the Figure-2 `Hash` contender (derived from the partition +
//! open-addressing scheme of the state-of-the-art KNL hash join the paper
//! measures) and the grouping engine of the Flink-class baseline. It
//! aggregates `(key, value)` pairs into an open-addressing table with linear
//! probing; probes are dependent random accesses, which is why the paper
//! finds hashing gains almost nothing from HBM's bandwidth.
//!
//! Beyond the paper's measurement, the table now also serves as the *hash
//! grouping backend* of the engine's pluggable GroupBy (DESIGN.md §14):
//! it supports every reduce kind of [`crate::agg`] — scalar `(sum,
//! count)` lanes for `Sum`/`Count`, and pool-accounted per-key value
//! chains ([`HashAgg::Values`]) for order-insensitive aggregates like
//! median, top-k and unique-count — and it grows by reallocating
//! pool-accounted buffers, spilling the whole table to DRAM instead of
//! failing when HBM is exhausted.

use std::ops::Range;

use sbx_simmem::{AllocError, MemEnv, MemKind, MemPool, PoolVec, Priority};

use crate::kpa::alloc_or_spill;
use crate::{profile, ExecCtx};

const LOAD_FACTOR_NUM: usize = 7; // grow above 7/10 occupancy
const LOAD_FACTOR_DEN: usize = 10;

/// Fibonacci multiplicative hash (also the hash the deterministic
/// cardinality sketch in [`crate::sketch`] builds on).
#[inline]
pub fn fib_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a [`HashGrouper`] accumulates per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashAgg {
    /// Scalar `(wrapping sum, count)` lanes — exact for `Sum`/`Count`.
    SumCount,
    /// Scalar lanes plus the full per-key value multiset, kept as a
    /// pool-accounted chain arena — needed by average/median/top-k/
    /// unique-count, whose results are not derivable from `(sum, count)`
    /// (average sums in `u128`).
    Values,
}

/// An open-addressing hash table aggregating `(key, value)` pairs per key.
///
/// Keys, sums and counts live in pool-accounted buffers on a chosen tier so
/// that the table's footprint and traffic are simulated faithfully. In
/// [`HashAgg::Values`] mode a per-key chain arena additionally records
/// every inserted value in insertion order.
///
/// # Example
///
/// ```
/// use sbx_kpa::hash::HashGrouper;
/// use sbx_kpa::ExecCtx;
/// use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};
///
/// let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
/// let mut ctx = ExecCtx::new(&env);
/// let mut t = HashGrouper::with_slots(&mut ctx, 16, MemKind::Dram, Priority::Normal)?;
/// t.try_insert(7, 10)?;
/// t.try_insert(7, 20)?;
/// assert_eq!(t.get(7), Some((30, 2)));
/// # Ok::<(), sbx_simmem::AllocError>(())
/// ```
#[derive(Debug)]
pub struct HashGrouper {
    env: MemEnv,
    keys: PoolVec,
    sums: PoolVec,
    counts: PoolVec,
    /// `Values` mode: per-slot 1-based index of the key's newest chain node.
    heads: Option<PoolVec>,
    /// `Values` mode: chain arena of `[value, previous-node-index]` pairs.
    arena: Option<PoolVec>,
    mask: usize,
    len: usize,
    kind: MemKind,
    prio: Priority,
    mode: HashAgg,
}

/// A zero-filled buffer of `slots` u64s from `pool`.
fn zeroed(pool: &MemPool, slots: usize, prio: Priority) -> Result<PoolVec, AllocError> {
    let mut v = pool.alloc_u64(slots, prio)?;
    v.resize(slots, 0);
    Ok(v)
}

impl HashGrouper {
    /// Creates a scalar `(sum, count)` table sized for at least
    /// `expected_keys` distinct keys on tier `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the table.
    pub fn with_slots(
        ctx: &mut ExecCtx,
        expected_keys: usize,
        kind: MemKind,
        prio: Priority,
    ) -> Result<Self, AllocError> {
        Self::with_mode(ctx, expected_keys, HashAgg::SumCount, kind, prio)
    }

    /// Creates a table in `mode` sized for at least `expected_keys`
    /// distinct keys on tier `kind` (as a whole on DRAM when that is HBM
    /// and cannot hold every buffer of the table).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the table.
    pub fn with_mode(
        ctx: &mut ExecCtx,
        expected_keys: usize,
        mode: HashAgg,
        kind: MemKind,
        prio: Priority,
    ) -> Result<Self, AllocError> {
        let slots =
            (expected_keys.max(8) * LOAD_FACTOR_DEN / LOAD_FACTOR_NUM + 1).next_power_of_two();
        let env = ctx.env().clone();
        let ((keys, sums, counts, heads, arena), tier) = alloc_or_spill(&env, kind, |pool| {
            let lane = || zeroed(pool, slots, prio);
            let (keys, sums, counts) = (lane()?, lane()?, lane()?);
            let (heads, arena) = match mode {
                HashAgg::SumCount => (None, None),
                HashAgg::Values => (Some(lane()?), Some(pool.alloc_u64(slots * 2, prio)?)),
            };
            Ok((keys, sums, counts, heads, arena))
        })?;
        Ok(HashGrouper {
            env,
            keys,
            sums,
            counts,
            heads,
            arena,
            mask: slots - 1,
            len: 0,
            kind: tier,
            prio,
            mode,
        })
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tier holding the table (may differ from the requested tier
    /// after a spill).
    pub fn kind(&self) -> MemKind {
        self.kind
    }

    /// Accumulation mode of the table.
    pub fn mode(&self) -> HashAgg {
        self.mode
    }

    /// Number of open-addressing slots currently allocated.
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Adds `value` to `key`'s running sum and increments its count,
    /// growing (and spilling across tiers) as needed: a one-pair
    /// [`HashGrouper::try_insert_all`].
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the table must grow and both tiers are
    /// exhausted.
    pub fn try_insert(&mut self, key: u64, value: u64) -> Result<(), AllocError> {
        self.insert_lanes(1, |_| key, |_| (value, 1))
    }

    /// Inserts key `key(i)` with value `value(i)` for every `i < len`, in
    /// order, as that many [`HashGrouper::try_insert`] calls would: the
    /// table grows (and spills) before the same pairs, and in
    /// [`HashAgg::Values`] mode every value joins its key's chain. The
    /// accessors read a key slice or a bundle's rows alike.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] at the first pair whose grow (or chain
    /// growth) finds both tiers exhausted; the pairs before it are in.
    pub fn try_insert_all(
        &mut self,
        len: usize,
        key: impl Fn(usize) -> u64,
        value: impl Fn(usize) -> u64,
    ) -> Result<(), AllocError> {
        self.insert_lanes(len, key, |i| (value(i), 1))
    }

    /// Folds a pre-aggregated `(sum, count)` partial into `key`'s slot —
    /// the checkpoint-restore path for scalar tables (a `Values` table
    /// would chain `sum` as one value).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the table must grow and both tiers are
    /// exhausted.
    pub fn merge_entry(&mut self, key: u64, sum: u64, count: u64) -> Result<(), AllocError> {
        self.insert_lanes(1, |_| key, |_| (sum, count))
    }

    /// The one insertion loop: adds `lanes(i)`, a `(sum, count)`, to the
    /// slot of `key(i)` for every `i < len`, growing first wherever the
    /// next pair would pass the load factor. A pair adds at most one key,
    /// so the check holds for the next `full - len` pairs once it holds for
    /// the first.
    fn insert_lanes(
        &mut self,
        len: usize,
        key: impl Fn(usize) -> u64,
        lanes: impl Fn(usize) -> (u64, u64),
    ) -> Result<(), AllocError> {
        let mut at = 0;
        while at < len {
            let full = self.keys.len() * LOAD_FACTOR_NUM / LOAD_FACTOR_DEN;
            if self.len >= full {
                self.grow()?;
                continue;
            }
            let end = len.min(at + (full - self.len));
            match self.mode {
                HashAgg::SumCount => self.insert_run::<false>(at..end, &key, &lanes)?,
                HashAgg::Values => self.insert_run::<true>(at..end, &key, &lanes)?,
            }
            at = end;
        }
        Ok(())
    }

    /// Inserts pairs `run`, all of which fit under the load factor (with
    /// `CHAINS`, chaining each value). The lanes are slices bounded by
    /// `mask`, so the probe carries no bounds check.
    fn insert_run<const CHAINS: bool>(
        &mut self,
        run: Range<usize>,
        key: &impl Fn(usize) -> u64,
        lanes: &impl Fn(usize) -> (u64, u64),
    ) -> Result<(), AllocError> {
        let mask = self.mask;
        let slots = &mut self.keys[..=mask];
        let (sums, counts) = (&mut self.sums[..=mask], &mut self.counts[..=mask]);
        for at in run {
            let (key, (sum, count)) = (key(at), lanes(at));
            let mut i = (fib_hash(key) as usize) & mask;
            loop {
                if counts[i] == 0 {
                    slots[i] = key;
                    sums[i] = sum;
                    counts[i] = count;
                    self.len += 1;
                    break;
                }
                if slots[i] == key {
                    sums[i] = sums[i].wrapping_add(sum);
                    counts[i] += count;
                    break;
                }
                i = (i + 1) & mask;
            }
            if let (true, Some(heads), Some(arena)) = (CHAINS, &mut self.heads, &mut self.arena) {
                if arena.len() + 2 > arena.capacity() {
                    let want = (arena.capacity() * 2).max(16);
                    let (mut fresh, _) = alloc_or_spill(&self.env, self.kind, |pool| {
                        pool.alloc_u64(want, self.prio)
                    })?;
                    fresh.extend_from_slice(arena);
                    *arena = fresh;
                }
                arena.push(sum);
                arena.push(heads[i]);
                heads[i] = (arena.len() / 2) as u64;
            }
        }
        Ok(())
    }

    /// The slot holding `key`, if present.
    fn slot_of(&self, key: u64) -> Option<usize> {
        let mut i = (fib_hash(key) as usize) & self.mask;
        while self.counts[i] != 0 {
            if self.keys[i] == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// The `(sum, count)` aggregate for `key`, if present.
    pub fn get(&self, key: u64) -> Option<(u64, u64)> {
        self.slot_of(key).map(|i| (self.sums[i], self.counts[i]))
    }

    /// The values inserted for `key` in insertion order (Values mode;
    /// `None` for scalar tables or absent keys).
    pub fn values_of(&self, key: u64) -> Option<Vec<u64>> {
        self.chain(self.slot_of(key)?)
    }

    /// The values of slot `i`'s key in insertion order (`None` for scalar
    /// tables).
    fn chain(&self, i: usize) -> Option<Vec<u64>> {
        let (heads, arena) = (self.heads.as_ref()?, self.arena.as_ref()?);
        // sbx-lint: allow(raw-alloc, per-key gather bounded by the key's multiplicity; drain/lookup path)
        let mut vals = Vec::with_capacity(self.counts[i] as usize);
        let mut node = heads[i];
        while node != 0 {
            let base = (node as usize - 1) * 2;
            vals.push(arena[base]);
            node = arena[base + 1];
        }
        vals.reverse();
        Some(vals)
    }

    /// Iterates over `(key, sum, count)` for every stored key, in table
    /// order. Table order depends on capacity history — callers that need
    /// a deterministic order must use [`HashGrouper::drain_sorted`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        (0..self.keys.len())
            .filter(|&i| self.counts[i] != 0)
            .map(move |i| (self.keys[i], self.sums[i], self.counts[i]))
    }

    /// Every `(key, sum, count)` entry in ascending key order — the
    /// deterministic drain used by the grouping backend, matching the
    /// ascending-key emission of sort-merge's keyed reduction.
    pub fn drain_sorted(&self) -> Vec<(u64, u64, u64)> {
        // sbx-lint: allow(raw-alloc, drain scratch bounded by distinct keys; window-close path)
        let mut out: Vec<(u64, u64, u64)> = self.iter().collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Every `(key, values)` entry in ascending key order, values in
    /// insertion order (Values mode; empty for scalar tables).
    pub fn drain_values_sorted(&self) -> Vec<(u64, Vec<u64>)> {
        let mut out: Vec<(u64, Vec<u64>)> = Vec::new();
        for i in (0..self.keys.len()).filter(|&i| self.counts[i] != 0) {
            if let Some(vals) = self.chain(i) {
                out.push((self.keys[i], vals));
            }
        }
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Doubles the table, reallocating pool-accounted buffers — all of them
    /// on DRAM when HBM cannot hold the grown set.
    fn grow(&mut self) -> Result<(), AllocError> {
        let new_slots = self.keys.len() * 2;
        let ((mut keys, mut sums, mut counts, mut heads), tier) =
            alloc_or_spill(&self.env, self.kind, |pool| {
                let lane = || zeroed(pool, new_slots, self.prio);
                let (keys, sums, counts) = (lane()?, lane()?, lane()?);
                let heads = match self.mode {
                    HashAgg::SumCount => None,
                    HashAgg::Values => Some(lane()?),
                };
                Ok((keys, sums, counts, heads))
            })?;
        let mask = new_slots - 1;
        for old in 0..self.keys.len() {
            if self.counts[old] == 0 {
                continue;
            }
            let mut i = (fib_hash(self.keys[old]) as usize) & mask;
            loop {
                if counts[i] == 0 {
                    keys[i] = self.keys[old];
                    sums[i] = self.sums[old];
                    counts[i] = self.counts[old];
                    if let (Some(nh), Some(oh)) = (heads.as_mut(), self.heads.as_ref()) {
                        nh[i] = oh[old];
                    }
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        self.keys = keys;
        self.sums = sums;
        self.counts = counts;
        if heads.is_some() {
            self.heads = heads.take();
        }
        self.mask = mask;
        self.kind = tier;
        Ok(())
    }
}

/// Groups `(key, value)` pairs into a fresh table on `kind`, charging the
/// calibrated hash-grouping profile — the Figure-2 `Hash` measurement.
///
/// # Errors
///
/// Returns [`AllocError`] if the tier cannot hold the table.
///
/// # Panics
///
/// Panics if `keys` and `values` lengths differ.
pub fn group_pairs(
    ctx: &mut ExecCtx,
    keys: &[u64],
    values: &[u64],
    kind: MemKind,
    prio: Priority,
) -> Result<HashGrouper, AllocError> {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    // Size for the common benchmark shape (~100 values per key), then let
    // the table grow as needed.
    let mut table = HashGrouper::with_slots(ctx, (keys.len() / 64).max(8), kind, prio)?;
    table.try_insert_all(keys.len(), |i| keys[i], |i| values[i])?;
    ctx.charge(&profile::hash_group(keys.len(), kind));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use sbx_simmem::{MachineConfig, MemEnv};

    use super::*;

    fn ctx() -> (MemEnv, ExecCtx) {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let ctx = ExecCtx::new(&env);
        (env, ctx)
    }

    #[test]
    fn insert_aggregates_sum_and_count() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_slots(&mut ctx, 4, MemKind::Dram, Priority::Normal).unwrap();
        t.try_insert(1, 10).unwrap();
        t.try_insert(1, 5).unwrap();
        t.try_insert(2, 7).unwrap();
        assert_eq!(t.get(1), Some((15, 2)));
        assert_eq!(t.get(2), Some((7, 1)));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_slots(&mut ctx, 4, MemKind::Dram, Priority::Normal).unwrap();
        for k in 0..10_000u64 {
            t.try_insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 10_000);
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(k), Some((k, 1)));
        }
    }

    #[test]
    fn colliding_keys_coexist() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_slots(&mut ctx, 64, MemKind::Dram, Priority::Normal).unwrap();
        // Keys crafted to collide in a small table are hard with fib
        // hashing; brute force a pair that shares an initial slot.
        let mask = 63usize;
        let base = 1u64;
        let slot = (fib_hash(base) as usize) & mask;
        let other = (2..10_000u64)
            .find(|&k| (fib_hash(k) as usize) & mask == slot)
            .expect("collision exists");
        t.try_insert(base, 1).unwrap();
        t.try_insert(other, 2).unwrap();
        assert_eq!(t.get(base), Some((1, 1)));
        assert_eq!(t.get(other), Some((2, 1)));
    }

    #[test]
    fn group_pairs_matches_reference() {
        use std::collections::HashMap;
        let (_env, mut ctx) = ctx();
        let keys: Vec<u64> = (0..5000).map(|i| i % 37).collect();
        let vals: Vec<u64> = (0..5000).collect();
        let t = group_pairs(&mut ctx, &keys, &vals, MemKind::Hbm, Priority::Normal).unwrap();
        let mut expect: HashMap<u64, (u64, u64)> = HashMap::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            let e = expect.entry(k).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        assert_eq!(t.len(), expect.len());
        for (k, s, c) in t.iter() {
            assert_eq!(expect[&k], (s, c));
        }
        // The hash profile is dominated by CPU cycles (compute-bound).
        assert!(ctx.profile().cpu_cycles >= 5000.0 * profile::HASH_CYCLES);
    }

    #[test]
    fn zero_key_is_a_valid_key() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_slots(&mut ctx, 4, MemKind::Dram, Priority::Normal).unwrap();
        t.try_insert(0, 42).unwrap();
        assert_eq!(t.get(0), Some((42, 1)));
    }

    #[test]
    fn values_mode_keeps_per_key_multisets_in_insertion_order() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_mode(
            &mut ctx,
            4,
            HashAgg::Values,
            MemKind::Dram,
            Priority::Normal,
        )
        .unwrap();
        t.try_insert(7, 30).unwrap();
        t.try_insert(9, 1).unwrap();
        t.try_insert(7, 10).unwrap();
        t.try_insert(7, 20).unwrap();
        assert_eq!(t.values_of(7), Some(vec![30, 10, 20]));
        assert_eq!(t.values_of(9), Some(vec![1]));
        assert_eq!(t.values_of(8), None);
        // Scalar lanes stay exact alongside the chains.
        assert_eq!(t.get(7), Some((60, 3)));
    }

    #[test]
    fn values_survive_growth() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_mode(
            &mut ctx,
            4,
            HashAgg::Values,
            MemKind::Dram,
            Priority::Normal,
        )
        .unwrap();
        for k in 0..2_000u64 {
            t.try_insert(k % 97, k).unwrap();
        }
        let vals = t.values_of(13).unwrap();
        let expect: Vec<u64> = (0..2_000u64).filter(|k| k % 97 == 13).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn drain_sorted_is_ascending_and_capacity_independent() {
        let (_env, mut ctx) = ctx();
        let mut small =
            HashGrouper::with_slots(&mut ctx, 4, MemKind::Dram, Priority::Normal).unwrap();
        let mut large =
            HashGrouper::with_slots(&mut ctx, 4096, MemKind::Dram, Priority::Normal).unwrap();
        for k in [9u64, 3, 0, 77, 3, 12, 9] {
            small.try_insert(k, k + 1).unwrap();
            large.try_insert(k, k + 1).unwrap();
        }
        let a = small.drain_sorted();
        assert_eq!(a, large.drain_sorted());
        let keys: Vec<u64> = a.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![0, 3, 9, 12, 77]);
    }

    #[test]
    fn grow_spills_to_the_sibling_tier_instead_of_erroring() {
        // An HBM pool too small for the grown table: the grow must land on
        // DRAM and inserts must keep succeeding.
        let mut mc = MachineConfig::knl();
        mc.hbm = sbx_simmem::MemSpec::new(0.0001, 375.0, 172.0); // ~100 KiB
        let env = MemEnv::new(mc);
        let mut ctx = ExecCtx::new(&env);
        let mut t = HashGrouper::with_slots(&mut ctx, 8, MemKind::Hbm, Priority::Normal).unwrap();
        for k in 0..50_000u64 {
            t.try_insert(k, 1).unwrap();
        }
        assert_eq!(t.len(), 50_000);
        assert_eq!(t.kind(), MemKind::Dram, "table should have spilled");
        assert_eq!(t.get(49_999), Some((1, 1)));
    }

    #[test]
    fn a_grow_that_half_fits_moves_the_whole_table_and_counts_one_spill() {
        const KIB: u64 = 1024;
        let mut mc = MachineConfig::knl();
        mc.hbm.capacity_bytes = 256 * KIB;
        let env = MemEnv::new(mc);
        let mut ctx = ExecCtx::new(&env);
        // 512 slots: three 4 KiB lanes that grow into three 8 KiB lanes.
        let mut t = HashGrouper::with_slots(&mut ctx, 300, MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!((t.slots(), t.kind()), (512, MemKind::Hbm));
        // Leave HBM room for exactly one of the grown lanes.
        let hbm = env.pool(MemKind::Hbm);
        let mut filler = Vec::new();
        while hbm.available_bytes(Priority::Normal) >= 16 * KIB {
            filler.push(hbm.alloc_u64(512, Priority::Normal).unwrap());
        }
        assert!(hbm.available_bytes(Priority::Normal) >= 8 * KIB);
        for k in 0..500u64 {
            t.try_insert(k, 1).unwrap();
        }
        assert_eq!((t.slots(), t.kind()), (1024, MemKind::Dram));
        assert_eq!(env.spill_count(), 1);
        assert_eq!(hbm.used_bytes(), 4 * KIB * filler.len() as u64);
        assert_eq!(env.pool(MemKind::Dram).used_bytes(), 3 * 8 * KIB);
    }

    #[test]
    fn merge_entry_folds_partials_exactly() {
        let (_env, mut ctx) = ctx();
        let mut t = HashGrouper::with_slots(&mut ctx, 4, MemKind::Dram, Priority::Normal).unwrap();
        t.merge_entry(5, 100, 3).unwrap();
        t.merge_entry(5, 11, 2).unwrap();
        t.merge_entry(6, 1, 1).unwrap();
        assert_eq!(t.get(5), Some((111, 5)));
        assert_eq!(t.get(6), Some((1, 1)));
        assert_eq!(t.len(), 2);
    }
}
