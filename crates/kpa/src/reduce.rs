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

/// **Keyed reduction** (Table 2): scans a *sorted* KPA, tracks contiguous
/// key ranges, gathers the nonresident column `value_col` of each record
/// (random DRAM access) and calls `f` once per key (paper §4.2).
///
/// No window close calls it: [`Kpa::merge_gather`] gathers each key's
/// values inside the merge instead, handing them out in the same order, and
/// early aggregation folds each bundle's values by key ([`Kpa::sort_fold`]).
/// It stays as the gather's oracle and for callers that reduce a KPA they
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
    assert!(kpa.is_sorted(), "keyed reduction requires a sorted KPA");
    let records = kpa.resolver();
    let mut keys = kpa.key_iter().enumerate().peekable();
    let (mut values, mut groups) = (Vec::new(), 0usize);
    while let Some((i, key)) = keys.next() {
        values.push(records.value(i, value_col));
        while let Some((i, _)) = keys.next_if(|&(_, k)| k == key) {
            values.push(records.value(i, value_col));
        }
        f(KeyGroup {
            key,
            values: &values,
        });
        values.clear();
        groups += 1;
    }
    ctx.charge(&profile::reduce_keyed(kpa.len(), kpa.kind()));
    groups
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
    // A pointer the sanitizer rejected reads 0, as `Resolver::value`.
    let value = |record: Option<&[u64]>| record.map_or(0, |r| r[col.0]);
    let acc = kpa
        .records()
        .fold(init, |acc, record| f(acc, value(record)));
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
    fn keyed_reduction_reads_a_kpa_in_place_as_written() {
        let env = env();
        let rows = [(1, 10), (1, 11), (2, 20), (3, 30), (3, 31)];
        let flat: Vec<u64> = rows.iter().flat_map(|&(k, v)| [k, v, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let reduce = |written: bool| {
            let mut ctx = ExecCtx::new(&env);
            let (hbm, read) = (MemKind::Hbm, crate::ExtractCharge::Read);
            let mut kpa =
                Kpa::extract_in_place(&mut ctx, &b, Col(0), hbm, Priority::Normal, read).unwrap();
            if written {
                kpa.write_pairs();
            }
            assert_eq!(kpa.rows_in_place().is_none(), written);
            kpa.mark_sorted();
            ctx.take_profile();
            let mut groups = Vec::new();
            reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
                groups.push((g.key, g.values.to_vec()));
            });
            (groups, ctx.take_profile())
        };
        let (groups, charged) = reduce(false);
        assert_eq!(groups.len(), 3);
        assert_eq!((groups, charged), reduce(true));
    }

    #[test]
    fn scalar_reduction_sums_and_counts_each_key() {
        use crate::mergepath::KeyFold;
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let kpa = kpa_kv(
            &env,
            &mut ctx,
            &[(2, 20), (1, 10), (2, u64::MAX), (1, 11), (3, 30)],
        );
        // Early aggregation's fold: no sort (the KPA already is), the
        // keyed reduction's charge.
        let mut scalar = ExecCtx::new(&env);
        let (mut fold, mut got) = (KeyFold::default(), Vec::new());
        assert_eq!(kpa.sort_fold(&mut scalar, Some(Col(1)), None, &mut fold), 3);
        kpa.reduce_fold(&mut scalar, &mut fold, |k, s| got.push((k, s)));
        assert_eq!(got, vec![(1, 21), (2, 19), (3, 30)]);
        let mut gathered = ExecCtx::new(&env);
        reduce_keyed(&mut gathered, &kpa, Col(1), |_| {});
        assert_eq!(scalar.profile(), gathered.profile(), "same charge");

        got.clear();
        kpa.sort_fold(&mut ctx, None, None, &mut fold);
        kpa.reduce_fold(&mut ctx, &mut fold, |k, s| got.push((k, s)));
        assert_eq!(got, vec![(1, 2), (2, 2), (3, 1)]);
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
