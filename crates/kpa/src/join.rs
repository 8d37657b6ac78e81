use crate::{profile, ExecCtx, Kpa};

/// Statistics returned by [`join_sorted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Number of `(left, right)` record pairs emitted.
    pub emitted: usize,
    /// Number of distinct join keys that matched.
    pub matched_keys: usize,
}

/// **Join** (Table 2): joins two KPAs sorted on the same resident column,
/// scanning both in one pass and invoking `emit(left, li, right, ri)` for
/// every pair of records sharing a key (paper §4.2).
///
/// Within a run of equal keys the cartesian product is emitted, as in the
/// Temporal Join operator (Fig. 4b). `out_record_bytes` is the size of the
/// record the caller materializes per emission and is used for cost
/// accounting only.
///
/// # Panics
///
/// Panics if either input is unsorted or the resident columns differ.
pub fn join_sorted(
    ctx: &mut ExecCtx,
    left: &Kpa,
    right: &Kpa,
    out_record_bytes: usize,
    mut emit: impl FnMut(&Kpa, usize, &Kpa, usize),
) -> JoinStats {
    assert!(
        left.is_sorted() && right.is_sorted(),
        "join requires sorted inputs"
    );
    assert_eq!(
        left.resident(),
        right.resident(),
        "resident columns must match"
    );

    let (lk, rk) = (left.run(), right.run());
    let mut stats = JoinStats::default();
    let (mut i, mut j) = (0, 0);
    while i < lk.len() && j < rk.len() {
        let (a, b) = (lk.key(i), rk.key(j));
        if a < b {
            i += 1;
        } else if a > b {
            j += 1;
        } else {
            let i_end = i + lk.keys(i..lk.len()).take_while(|&k| k == a).count();
            let j_end = j + rk.keys(j..rk.len()).take_while(|&k| k == a).count();
            for li in i..i_end {
                for ri in j..j_end {
                    emit(left, li, right, ri);
                }
            }
            stats.emitted += (i_end - i) * (j_end - j);
            stats.matched_keys += 1;
            (i, j) = (i_end, j_end);
        }
    }

    let kind = if left.kind() == right.kind() {
        left.kind()
    } else {
        // Mixed placement: charge the slower tier's scan conservatively.
        sbx_simmem::MemKind::Dram
    };
    ctx.charge(&profile::join(
        left.len(),
        right.len(),
        stats.emitted,
        kind,
        out_record_bytes,
    ));
    stats
}

#[cfg(test)]
mod tests {

    use sbx_records::{Col, RecordBundle, Schema};
    use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

    use super::*;

    fn sorted_kpa(env: &MemEnv, ctx: &mut ExecCtx, keys: &[u64]) -> Kpa {
        let flat: Vec<u64> = keys.iter().flat_map(|&k| [k, k * 2, 0]).collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap();
        let mut kpa = Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.sort(ctx, 2).unwrap();
        kpa
    }

    #[test]
    fn join_emits_matching_pairs() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut ctx = ExecCtx::new(&env);
        let l = sorted_kpa(&env, &mut ctx, &[1, 3, 5, 7]);
        let r = sorted_kpa(&env, &mut ctx, &[3, 4, 7, 9]);
        let mut seen = Vec::new();
        let stats = join_sorted(&mut ctx, &l, &r, 32, |lk, li, rk, ri| {
            seen.push((lk.keys()[li], rk.keys()[ri]));
        });
        assert_eq!(seen, vec![(3, 3), (7, 7)]);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.matched_keys, 2);
    }

    #[test]
    fn join_reads_kpas_in_place_as_written() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let bundle = |keys: &[u64]| {
            let flat: Vec<u64> = keys.iter().flat_map(|&k| [k, k * 2, 0]).collect();
            RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap()
        };
        let (lb, rb) = (bundle(&[1, 2, 2, 5, 7]), bundle(&[2, 2, 3, 7, 7, 9]));
        let join = |written: bool| {
            let mut ctx = ExecCtx::new(&env);
            let [l, r] = [&lb, &rb].map(|b| {
                let (hbm, read) = (MemKind::Hbm, crate::ExtractCharge::Read);
                let mut kpa =
                    Kpa::extract_in_place(&mut ctx, b, Col(0), hbm, Priority::Normal, read)
                        .unwrap();
                if written {
                    kpa.write_pairs();
                }
                assert_eq!(kpa.rows_in_place().is_none(), written);
                kpa.mark_sorted();
                kpa
            });
            ctx.take_profile();
            let mut seen = Vec::new();
            let stats = join_sorted(&mut ctx, &l, &r, 32, |lk, li, rk, ri| {
                seen.push((lk.key(li), li, rk.key(ri), ri));
            });
            (seen, stats, ctx.take_profile())
        };
        let (seen, stats, charged) = join(false);
        assert_eq!((seen.len(), stats.matched_keys), (6, 2));
        assert_eq!((seen, stats, charged), join(true));
    }

    #[test]
    fn equal_key_runs_emit_cartesian_product() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut ctx = ExecCtx::new(&env);
        let l = sorted_kpa(&env, &mut ctx, &[2, 2, 5]);
        let r = sorted_kpa(&env, &mut ctx, &[2, 2, 2]);
        let stats = join_sorted(&mut ctx, &l, &r, 32, |_, _, _, _| {});
        assert_eq!(stats.emitted, 6); // 2 x 3
        assert_eq!(stats.matched_keys, 1);
    }

    #[test]
    fn disjoint_inputs_emit_nothing() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut ctx = ExecCtx::new(&env);
        let l = sorted_kpa(&env, &mut ctx, &[1, 2]);
        let r = sorted_kpa(&env, &mut ctx, &[3, 4]);
        let stats = join_sorted(&mut ctx, &l, &r, 32, |_, _, _, _| panic!("no match"));
        assert_eq!(stats, JoinStats::default());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_inputs_rejected() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut ctx = ExecCtx::new(&env);
        let flat: Vec<u64> = [5u64, 1].iter().flat_map(|&k| [k, 0, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let l = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let r = sorted_kpa(&env, &mut ctx, &[1]);
        join_sorted(&mut ctx, &l, &r, 32, |_, _, _, _| {});
    }
}
