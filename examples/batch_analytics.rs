//! Beyond streaming (paper §1: StreamBox-HBM's techniques "should improve
//! a range of data processing systems, e.g., batch analytics"): use the KPA
//! primitives directly as a batch GroupBy engine over a static table, and
//! compare sort-based grouping on HBM against hash grouping on DRAM — the
//! Figure-2 experiment as a library call.
//!
//! Run with: `cargo run --release --example batch_analytics`

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use sbx_prng::SbxRng;
use streambox_hbm::kpa::{hash, reduce_keyed, ExecCtx, Kpa};
use streambox_hbm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A "fact table": 500k rows of (customer, amount, order_day).
    let rows_n = 500_000usize;
    let customers = 5_000u64;
    let env = MemEnv::new(MachineConfig::knl().scaled(0.25));
    let mut rng = SbxRng::seed_from_u64(2019);
    let mut rows = Vec::with_capacity(rows_n * 3);
    for _ in 0..rows_n {
        rows.extend_from_slice(&[
            rng.random_range(0..customers),
            rng.random_range(1..10_000),
            rng.random_range(0..365),
        ]);
    }
    let table = RecordBundle::from_rows(&env, Schema::kvt(), &rows)?;
    let model = env.cost().clone();

    // --- Sort-based GroupBy on HBM (the StreamBox-HBM way) ---
    let mut ctx = ExecCtx::new(&env);
    let mut kpa = Kpa::extract(&mut ctx, &table, Col(0), MemKind::Hbm, Priority::Normal)?;
    kpa.sort(&mut ctx, 1)?;
    let mut top_customer = (0u64, 0u64);
    let groups = reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
        let total: u64 = g.values.iter().sum();
        if total > top_customer.1 {
            top_customer = (g.key, total);
        }
    });
    let sort_secs = model.time_secs(&ctx.take_profile(), 64);

    // --- Hash-based GroupBy on DRAM (the conventional way) ---
    let keys: Vec<u64> = rows.chunks(3).map(|r| r[0]).collect();
    let vals: Vec<u64> = rows.chunks(3).map(|r| r[1]).collect();
    let grouped = hash::group_pairs(&mut ctx, &keys, &vals, MemKind::Dram, Priority::Normal)?;
    let hash_secs = model.time_secs(&ctx.take_profile(), 64);

    // Both agree, of course.
    assert_eq!(groups, grouped.len());
    assert_eq!(
        grouped.get(top_customer.0).map(|(sum, _)| sum),
        Some(top_customer.1)
    );

    println!("batch GroupBy over {rows_n} rows, {groups} customer groups");
    println!(
        "  top customer: #{} with total amount {}",
        top_customer.0, top_customer.1
    );
    println!(
        "  modelled at 64 KNL cores: sort-on-HBM {:.2} ms vs hash-on-DRAM {:.2} ms ({:.1}x)",
        sort_secs * 1e3,
        hash_secs * 1e3,
        hash_secs / sort_secs
    );
    Ok(())
}
