//! The reference loops the KPA kernels replaced, kept as the oracles of
//! `tests/prop_primitives.rs` and `tests/sanitize_corpus.rs`, and the
//! modelled pass-bytes comparison between the retired multipass structure
//! and the single-pass kernels (the trajectory's `kernel_model` rows).
//!
//! Nothing here times anything: a kernel change is measured end to end
//! (`scripts/ab_pairs.sh`) beside the benchmark's traced per-layer timers.

// sbx-lint: out-of-scope(raw-alloc, bench oracles; host-side reference loops)
// sbx-lint: out-of-scope(no-panic, bench oracles; a failed check should abort loudly)
// sbx-lint: out-of-scope(libm, bench model; the pass counts are host-side)
use sbx_kpa::{profile, Kpa};
use sbx_simmem::MemKind;

/// Pairs per KPA in the modelled traffic comparison.
pub const PAIRS: usize = 1_000_000;
/// Inputs to the wide-merge comparison (one KPA per ingested bundle of a
/// watermark round, as in window closure).
pub const MERGE_WAYS: usize = 16;

/// The packed pointers of `kpa`, in pair order.
pub fn ptrs_of(kpa: &Kpa) -> Vec<u64> {
    (0..kpa.len()).map(|i| kpa.record_ref(i).pack()).collect()
}

/// The per-element loops Select/Extract, Partition and the pointer resolver
/// ran before their streaming passes, the per-pair hash ingest, the
/// two-pass closes `Kpa::merge_fold` and `Kpa::merge_gather` fuse, and
/// early aggregation's sort and scalar fold (`reduce_keyed_scalar`) that
/// `Kpa::sort_fold` replaced, and the written windowing `WindowInto` ran
/// before it took a bundle in place, kept as the reference
/// `tests/prop_primitives.rs` checks the current code against.
pub mod reference {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use sbx_engine::ops::{emit_group, AggKind};
    use sbx_engine::{Message, OpCtx, StreamData};
    use sbx_kpa::hash::HashGrouper;
    use sbx_kpa::mergepath::count_groups;
    use sbx_kpa::{profile, reduce_keyed, ExecCtx, Kpa};
    use sbx_records::{BundleId, Col, RecordBundle, RecordRef, Schema, WindowId};
    use sbx_simmem::{AllocError, MemEnv, MemKind, PoolVec, Priority};

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

    /// `WindowInto` of a bundle (given up, as in a message) into fixed
    /// windows `width` long as it ran before it took the bundle in place:
    /// Extract writes every `(timestamp, pointer)` pair, then Partition
    /// hands them over or copies them — its windowed KPAs, in pane order.
    pub fn window_written(
        ctx: &mut OpCtx<'_>,
        bundle: Arc<RecordBundle>,
        width: u64,
    ) -> Vec<Message> {
        let kpa = ctx.extract(&bundle, bundle.schema().ts_col());
        drop(bundle);
        let (_, prio) = ctx.place();
        let panes = ctx.charged(16, |e| kpa.expect("fits").into_partitions(e, prio, width));
        let windowed = |(w, kpa)| Message::data(StreamData::Windowed(WindowId(w), kpa));
        panes.expect("fits").into_iter().map(windowed).collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The modelled traffic must show the single-pass win: sort
    /// drops from levels+1 passes to 2, wide merge from log2(k) to 1.
    #[test]
    fn modelled_bytes_show_single_pass_win() {
        let (so, sn, mo, mn) = modelled_pass_bytes();
        let levels = profile::sort_merge_levels(PAIRS);
        assert!((so / sn - (levels + 1.0) / 2.0).abs() < 1e-9, "{so} / {sn}");
        assert!((mo / mn - 4.0).abs() < 1e-9, "16-way: 4 rounds vs 1 pass");
    }
}
