//! Table 2: wall-clock microbenchmarks of every KPA streaming primitive
//! (real host execution time, not modelled time).

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Arc;

use sbx_bench::harness::time_fn;
use sbx_kpa::hash::group_pairs;
use sbx_kpa::{join_sorted, reduce_keyed, ExecCtx, Kpa};
use sbx_prng::SbxRng;
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

const N: usize = 100_000;
const SAMPLES: usize = 10;

fn env() -> MemEnv {
    MemEnv::new(MachineConfig::knl().scaled(0.25))
}

fn bundle(env: &MemEnv, n: usize, keys: u64) -> Arc<RecordBundle> {
    let mut rng = SbxRng::seed_from_u64(7);
    let rows: Vec<u64> = (0..n)
        .flat_map(|i| [rng.random_range(0..keys), rng.random(), i as u64])
        .collect();
    RecordBundle::from_rows(env, Schema::kvt(), &rows).expect("fits")
}

fn sorted_kpa(env: &MemEnv, ctx: &mut ExecCtx, n: usize, keys: u64) -> Kpa {
    let b = bundle(env, n, keys);
    let mut kpa = Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits");
    kpa.sort(ctx, 2).expect("sort");
    kpa
}

fn main() {
    let env = env();
    println!("table2");

    let b = bundle(&env, N, 1_000);
    time_fn("extract_100k", SAMPLES, || {
        let mut ctx = ExecCtx::new(&env);
        Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits")
    });

    time_fn("sort_100k", SAMPLES, || {
        let mut ctx = ExecCtx::new(&env);
        let mut kpa =
            Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits");
        kpa.sort(&mut ctx, 1).expect("sort");
        kpa
    });

    time_fn("key_swap_100k", SAMPLES, || {
        let mut ctx = ExecCtx::new(&env);
        let mut kpa =
            Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).expect("fits");
        kpa.key_swap(&mut ctx, Col(2));
        kpa
    });

    {
        let mut ctx = ExecCtx::new(&env);
        let kpa = sorted_kpa(&env, &mut ctx, N, 1_000);
        time_fn("materialize_100k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            kpa.materialize(&mut ctx).expect("fits")
        });
        time_fn("select_100k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            kpa.select(&mut ctx, Priority::Normal, |k| k % 2 == 0)
                .expect("fits")
        });
        time_fn("partition_100k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            kpa.partition_by(&mut ctx, Priority::Normal, 100)
                .expect("fits")
        });
        time_fn("reduce_keyed_100k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            let mut sum = 0u64;
            reduce_keyed(&mut ctx, &kpa, Col(1), |g| {
                sum = sum.wrapping_add(g.values.len() as u64);
            });
            sum
        });
    }

    {
        let mut ctx = ExecCtx::new(&env);
        let a = sorted_kpa(&env, &mut ctx, N / 2, 1_000);
        let b2 = sorted_kpa(&env, &mut ctx, N / 2, 1_000);
        time_fn("merge_2x50k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            Kpa::merge(&mut ctx, &a, &b2, MemKind::Hbm, Priority::Normal).expect("fits")
        });
    }

    {
        let mut ctx = ExecCtx::new(&env);
        let a = sorted_kpa(&env, &mut ctx, N / 2, 100_000);
        let b2 = sorted_kpa(&env, &mut ctx, N / 2, 100_000);
        time_fn("join_2x50k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            let mut n = 0usize;
            join_sorted(&mut ctx, &a, &b2, 32, |_, _, _, _| n += 1);
            n
        });
    }

    {
        let mut rng = SbxRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..N).map(|_| rng.random_range(0..1_000)).collect();
        let vals: Vec<u64> = (0..N).map(|_| rng.random()).collect();
        time_fn("hash_group_100k", SAMPLES, || {
            let mut ctx = ExecCtx::new(&env);
            group_pairs(&mut ctx, &keys, &vals, MemKind::Dram, Priority::Normal).expect("fits")
        });
    }
}
