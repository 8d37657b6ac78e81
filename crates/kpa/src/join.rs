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

    let (lk, rk) = (left.keys(), right.keys());
    let mut stats = JoinStats::default();
    let (mut i, mut j) = (0, 0);
    while i < lk.len() && j < rk.len() {
        let (a, b) = (lk[i], rk[j]);
        if a < b {
            i += 1;
        } else if a > b {
            j += 1;
        } else {
            let i_end = i + lk[i..].iter().take_while(|&&k| k == a).count();
            let j_end = j + rk[j..].iter().take_while(|&&k| k == a).count();
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
