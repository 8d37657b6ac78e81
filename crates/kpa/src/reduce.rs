use std::sync::Arc;

use sbx_records::{Col, RecordBundle};

use crate::{profile, ExecCtx, Kpa};

/// One contiguous group of equal keys handed to the keyed-reduction
/// callback: the key and the gathered nonresident-column values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyGroup<'a> {
    /// The shared resident key of the group.
    pub key: u64,
    /// The `value_col` values of every record in the group, in KPA order.
    pub values: &'a [u64],
}

/// The keyed-reduction loop behind [`reduce_keyed`] and
/// [`reduce_keyed_scalar`]: over a sorted KPA, `add(acc, i)` for each pair
/// and, after each run of equal keys, `emit(key, acc)`, which also resets
/// `acc`; one charge; returns the number of runs.
fn fold_groups<A: Default>(
    ctx: &mut ExecCtx,
    kpa: &Kpa,
    mut add: impl FnMut(&mut A, usize),
    mut emit: impl FnMut(u64, &mut A),
) -> usize {
    assert!(kpa.is_sorted(), "keyed reduction requires a sorted KPA");
    let keys = kpa.keys();
    let (mut acc, mut groups, mut i) = (A::default(), 0usize, 0usize);
    while let Some(&key) = keys.get(i) {
        while i < keys.len() && keys[i] == key {
            add(&mut acc, i);
            i += 1;
        }
        emit(key, &mut acc);
        groups += 1;
    }
    ctx.charge(&profile::reduce_keyed(keys.len(), kpa.kind()));
    groups
}

/// **Keyed reduction** (Table 2): scans a *sorted* KPA, tracks contiguous
/// key ranges, gathers the nonresident column `value_col` of each record
/// (random DRAM access) and calls `f` once per key (paper §4.2). For a
/// wrapping sum or a count, [`reduce_keyed_scalar`] gathers nothing.
///
/// No window close calls it: [`Kpa::merge_gather`] gathers each key's
/// values inside the merge instead, handing them out in the same order. It
/// stays as that gather's oracle and for callers that reduce a KPA they
/// merged themselves.
///
/// Returns the number of distinct keys.
///
/// # Panics
///
/// Panics if the KPA is not sorted.
pub fn reduce_keyed(
    ctx: &mut ExecCtx,
    kpa: &Kpa,
    value_col: Col,
    mut f: impl FnMut(KeyGroup<'_>),
) -> usize {
    let records = kpa.resolver();
    let gather = |values: &mut Vec<u64>, i| values.push(records.value(i, value_col));
    fold_groups(ctx, kpa, gather, |key, values| {
        f(KeyGroup { key, values });
        values.clear();
    })
}

/// **Keyed reduction** to scalars: `f(key, sum, count)` per key of a
/// *sorted* KPA, the wrapping sum of `value_col` over its records resolved
/// once each, nothing gathered; with no `value_col`, no record is read but
/// `--features sanitize` still validates every pointer. Charges, returns and
/// panics (on an unsorted KPA) as [`reduce_keyed`] does.
pub fn reduce_keyed_scalar(
    ctx: &mut ExecCtx,
    kpa: &Kpa,
    value_col: Option<Col>,
    mut f: impl FnMut(u64, u64, u64),
) -> usize {
    let records = kpa.resolver();
    let add = |(sum, count): &mut (u64, u64), i| {
        match value_col {
            Some(col) => *sum = sum.wrapping_add(records.value(i, col)),
            // Reading no record, a count still shows the sanitizer each pointer.
            None if cfg!(feature = "sanitize") => _ = records.row(i),
            None => {}
        }
        *count += 1;
    };
    fold_groups(ctx, kpa, add, |key, acc: &mut (u64, u64)| {
        f(key, acc.0, acc.1);
        *acc = (0, 0);
    })
}

/// **Unkeyed reduction** over a full record bundle: streams column `col`
/// of every record through the fold `f`.
pub fn reduce_unkeyed_bundle<A>(
    ctx: &mut ExecCtx,
    bundle: &Arc<RecordBundle>,
    col: Col,
    init: A,
    mut f: impl FnMut(A, u64) -> A,
) -> A {
    let mut acc = init;
    for row in 0..bundle.rows() {
        acc = f(acc, bundle.value(row, col));
    }
    ctx.charge(&profile::reduce_unkeyed(
        bundle.rows(),
        bundle.schema().record_bytes(),
    ));
    acc
}

/// **Unkeyed reduction** over a KPA: dereferences every pointer (random
/// DRAM access) and folds column `col` of the records.
pub fn reduce_unkeyed_kpa<A>(
    ctx: &mut ExecCtx,
    kpa: &Kpa,
    col: Col,
    init: A,
    mut f: impl FnMut(A, u64) -> A,
) -> A {
    let records = kpa.resolver();
    let mut acc = init;
    for i in 0..kpa.len() {
        acc = f(acc, records.value(i, col));
    }
    ctx.charge(&profile::reduce_keyed(kpa.len(), kpa.kind()));
    acc
}

/// Aggregation helpers shared by the compound operators.
pub mod agg {
    /// Arithmetic mean, rounded down; 0 for empty input.
    pub fn average(values: &[u64]) -> u64 {
        if values.is_empty() {
            return 0;
        }
        let sum: u128 = values.iter().map(|&v| v as u128).sum();
        (sum / values.len() as u128) as u64
    }

    /// Median by partial sort; 0 for empty input. For even lengths the
    /// lower-middle element is returned.
    pub fn median(values: &mut [u64]) -> u64 {
        if values.is_empty() {
            return 0;
        }
        let mid = (values.len() - 1) / 2;
        let (_, m, _) = values.select_nth_unstable(mid);
        *m
    }

    /// The `k` largest values, descending (sorts its scratch input).
    pub fn top_k(values: &mut [u64], k: usize) -> &[u64] {
        values.sort_unstable_by(|a, b| b.cmp(a));
        &values[..k.min(values.len())]
    }

    /// Number of distinct values (sorts its scratch input).
    pub fn unique_count(values: &mut [u64]) -> u64 {
        values.sort_unstable();
        crate::mergepath::count_groups(values) as u64
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn average_rounds_down_and_handles_empty() {
            assert_eq!(average(&[]), 0);
            assert_eq!(average(&[1, 2]), 1);
            assert_eq!(average(&[10, 20, 30]), 20);
            // No overflow on large values.
            assert_eq!(average(&[u64::MAX, u64::MAX]), u64::MAX);
        }

        #[test]
        fn median_picks_middle() {
            assert_eq!(median(&mut []), 0);
            assert_eq!(median(&mut [5]), 5);
            assert_eq!(median(&mut [3, 1, 2]), 2);
            assert_eq!(median(&mut [4, 1, 3, 2]), 2); // lower middle
        }

        #[test]
        fn top_k_descending_and_truncated() {
            assert_eq!(top_k(&mut [5, 1, 9, 3], 2), [9, 5]);
            assert_eq!(top_k(&mut [1], 5), [1]);
            assert!(top_k(&mut [], 3).is_empty());
        }

        #[test]
        fn unique_count_ignores_duplicates() {
            assert_eq!(unique_count(&mut []), 0);
            assert_eq!(unique_count(&mut [1, 1, 1]), 1);
            assert_eq!(unique_count(&mut [3, 1, 3, 2]), 3);
        }
    }
}

#[cfg(test)]
mod tests {
    use sbx_records::Schema;
    use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

    use super::*;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    fn kpa_kv(env: &MemEnv, ctx: &mut ExecCtx, rows: &[(u64, u64)]) -> Kpa {
        let flat: Vec<u64> = rows.iter().flat_map(|&(k, v)| [k, v, 0]).collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap();
        let mut kpa = Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.sort(ctx, 2).unwrap();
        kpa
    }

    #[test]
    fn keyed_reduction_groups_contiguous_keys() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_kv(
            &env,
            &mut ctx,
            &[(2, 20), (1, 10), (2, 21), (1, 11), (3, 30)],
        );
        let mut sums = Vec::new();
        let groups = reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
            sums.push((g.key, g.values.iter().sum::<u64>()));
        });
        assert_eq!(groups, 3);
        assert_eq!(sums, vec![(1, 21), (2, 41), (3, 30)]);
    }

    #[test]
    fn scalar_reduction_sums_and_counts_each_key() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_kv(
            &env,
            &mut ctx,
            &[(2, 20), (1, 10), (2, u64::MAX), (1, 11), (3, 30)],
        );
        let mut got = Vec::new();
        let mut scalar = ExecCtx::new(&env);
        let groups = reduce_keyed_scalar(&mut scalar, &kpa, Some(Col(1)), |k, s, c| {
            got.push((k, s, c));
        });
        assert_eq!(groups, 3);
        assert_eq!(got, vec![(1, 21, 2), (2, 19, 2), (3, 30, 1)]);
        let mut gathered = ExecCtx::new(&env);
        reduce_keyed(&mut gathered, &kpa, Col(1), |_| {});
        assert_eq!(scalar.profile(), gathered.profile(), "same charge");

        got.clear();
        reduce_keyed_scalar(&mut ctx, &kpa, None, |k, s, c| got.push((k, s, c)));
        assert_eq!(got, vec![(1, 0, 2), (2, 0, 2), (3, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn keyed_reduction_requires_sorted_input() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let flat = vec![5u64, 0, 0, 1, 0, 0];
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        reduce_keyed(&mut ctx, &kpa, Col(1), |_| {});
    }

    #[test]
    fn unkeyed_bundle_reduction_folds_all_rows() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 10, 0, 2, 20, 0]).unwrap();
        let sum = reduce_unkeyed_bundle(&mut ctx, &b, Col(1), 0u64, |a, v| a + v);
        assert_eq!(sum, 30);
        assert!(ctx.profile().seq_bytes[MemKind::Dram.index()] > 0.0);
    }

    #[test]
    fn unkeyed_kpa_reduction_dereferences_pointers() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_kv(&env, &mut ctx, &[(1, 5), (2, 7)]);
        let max = reduce_unkeyed_kpa(&mut ctx, &kpa, Col(1), 0u64, std::cmp::Ord::max);
        assert_eq!(max, 7);
    }

    #[test]
    fn empty_kpa_reduces_to_zero_groups() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_kv(&env, &mut ctx, &[]);
        let groups = reduce_keyed(&mut ctx, &kpa, Col(1), |_| panic!("no groups"));
        assert_eq!(groups, 0);
    }
}
