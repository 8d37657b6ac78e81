//! Figure 2: GroupBy with Sort vs Hash on HBM vs DRAM — throughput and
//! memory bandwidth as a function of cores.
//!
//! The paper groups 100 M key/value pairs (~100 values per key, 64-bit
//! random integers). Here the algorithms execute for real at a reduced pair
//! count (validating correctness and charging instrumented profiles), and
//! the figure series are produced by evaluating those calibrated profiles
//! at the paper's 100 M-pair scale across the core sweep.

// sbx-lint: out-of-scope(raw-alloc, bench table; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench table; a failed run should abort loudly)
use sbx_prng::SbxRng;

use sbx_kpa::hash::group_pairs;
use sbx_kpa::{profile, ExecCtx, Kpa};
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::{CostModel, MachineConfig, MemEnv, MemKind, Priority};

use crate::table::{f1, Table};
use crate::CORE_SWEEP;

/// Pairs in the paper's experiment.
pub const PAPER_PAIRS: usize = 100_000_000;
/// Pairs executed for real in the validation pass.
pub const REAL_PAIRS: usize = 200_000;

/// Runs the validation pass (real sort + real hash over [`REAL_PAIRS`]
/// pairs) and prints both Figure-2 panels. Returns the rendered tables.
pub fn run() -> String {
    validate_real_execution();

    let model = CostModel::new(MachineConfig::knl());
    let n = PAPER_PAIRS;

    let mut tput = Table::new(
        "Figure 2 (left): GroupBy throughput, M pairs/s (100 M pairs, ~100 values/key)",
        &["cores", "HBM Sort", "DRAM Sort", "HBM Hash", "DRAM Hash"],
    );
    let mut bw = Table::new(
        "Figure 2 (right): memory bandwidth, GB/s",
        &["cores", "HBM Sort", "DRAM Sort", "HBM Hash", "DRAM Hash"],
    );

    for &cores in &CORE_SWEEP {
        let mut t_row = vec![cores.to_string()];
        let mut b_row = vec![cores.to_string()];
        for (algo, kind) in [
            ("sort", MemKind::Hbm),
            ("sort", MemKind::Dram),
            ("hash", MemKind::Hbm),
            ("hash", MemKind::Dram),
        ] {
            // Figure 2 reproduces the paper's microbenchmark, which ran
            // the multi-pass merge sort; the engine's single-pass
            // merge-path variant is `profile::sort`.
            let p = match algo {
                "sort" => profile::sort_multipass(n, kind),
                _ => profile::hash_group(n, kind),
            };
            let secs = model.time_secs(&p, cores);
            let mpairs = n as f64 / secs / 1e6;
            let gbps = (p.bytes_on(MemKind::Hbm) + p.bytes_on(MemKind::Dram)) / secs / 1e9;
            t_row.push(f1(mpairs));
            b_row.push(f1(gbps));
        }
        tput.row(t_row);
        bw.row(b_row);
    }

    let mut out = tput.print();
    out.push_str(&bw.print());
    out
}

/// Executes sort and hash grouping for real and checks their results
/// against each other, guaranteeing the modelled series describe working
/// algorithms.
pub fn validate_real_execution() {
    let env = MemEnv::new(MachineConfig::knl().scaled(0.25));
    let mut ctx = ExecCtx::new(&env);
    let mut rng = SbxRng::seed_from_u64(2019);
    let keys_card = (REAL_PAIRS / 100) as u64; // ~100 values per key

    let mut rows = Vec::with_capacity(REAL_PAIRS * 3);
    for _ in 0..REAL_PAIRS {
        rows.extend_from_slice(&[rng.random_range(0..keys_card), rng.random(), 0]);
    }
    let bundle = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("DRAM fits");

    // Sort-based grouping.
    let mut kpa =
        Kpa::extract(&mut ctx, &bundle, Col(0), MemKind::Hbm, Priority::Normal).expect("HBM fits");
    kpa.sort(&mut ctx, 1).expect("sort");
    assert!(
        kpa.keys().windows(2).all(|w| w[0] <= w[1]),
        "sort must order keys"
    );

    // Hash-based grouping over the same pairs.
    let keys: Vec<u64> = rows.chunks(3).map(|r| r[0]).collect();
    let vals: Vec<u64> = rows.chunks(3).map(|r| r[1]).collect();
    let table = group_pairs(&mut ctx, &keys, &vals, MemKind::Dram, Priority::Normal).expect("fits");

    // Both groupings must agree on the number of groups and group sizes.
    let mut sort_groups = 0usize;
    let mut i = 0;
    while i < kpa.len() {
        let k = kpa.keys()[i];
        let run = kpa.keys()[i..].iter().take_while(|&&x| x == k).count();
        let (_, count) = table.get(k).expect("hash has the key");
        assert_eq!(count as usize, run, "group size mismatch for key {k}");
        sort_groups += 1;
        i += run;
    }
    assert_eq!(sort_groups, table.len(), "group count mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_execution_validates() {
        validate_real_execution();
    }

    /// The figure's qualitative claims, checked on the modelled series.
    #[test]
    fn figure2_shape_holds() {
        let model = CostModel::new(MachineConfig::knl());
        let n = PAPER_PAIRS;
        let tput = |algo: &str, kind: MemKind, cores: u32| {
            let p = if algo == "sort" {
                profile::sort_multipass(n, kind)
            } else {
                profile::hash_group(n, kind)
            };
            n as f64 / model.time_secs(&p, cores)
        };
        // (1) Sort on HBM is the overall winner at full parallelism.
        let best = tput("sort", MemKind::Hbm, 64);
        assert!(best > tput("sort", MemKind::Dram, 64));
        assert!(best > tput("hash", MemKind::Hbm, 64));
        assert!(best > tput("hash", MemKind::Dram, 64));
        // (2) At low parallelism sort cannot exploit HBM.
        let low_hbm = tput("sort", MemKind::Hbm, 2);
        let low_dram = tput("sort", MemKind::Dram, 2);
        assert!((low_hbm - low_dram).abs() / low_dram < 0.05);
        // (3) HBM reverses the DRAM preference: hash wins on DRAM at 64.
        assert!(tput("hash", MemKind::Dram, 64) > tput("sort", MemKind::Dram, 64));
        // (4) Sort beats hash on HBM by over 50% at every core count.
        for &c in &CORE_SWEEP {
            assert!(
                tput("sort", MemKind::Hbm, c) > 1.5 * tput("hash", MemKind::Hbm, c),
                "at {c} cores"
            );
        }
    }
}
