//! Randomized property tests for the simulation substrate: the pool
//! allocator's capacity invariants, the demand balancer's knob, and the
//! cost model's monotonicity.
//!
//! Cases are generated from a fixed-seed [`SbxRng`], so every run checks
//! the exact same inputs (fully deterministic, offline-friendly stand-in
//! for the earlier proptest suite).

use sbx_prng::SbxRng;
use streambox_hbm::engine::DemandBalancer;
use streambox_hbm::prelude::*;
use streambox_hbm::simmem::{AccessProfile, CostModel, MemPool, MemSpec, PoolVec};

const CASES: u64 = 64;

fn spec(capacity_bytes: u64) -> MemSpec {
    MemSpec {
        capacity_bytes,
        bandwidth_bytes_per_sec: 375e9,
        latency_ns: 172.0,
    }
}

/// Plays `script` against `pool` — a size allocates (a refusal is skipped),
/// 0 frees the oldest buffer held — checking after every step that the pool
/// accounts exactly the buffers `held`, and returns what is left of them.
fn play(pool: &MemPool, script: &[u64], check: bool) -> Vec<PoolVec> {
    let mut held: Vec<PoolVec> = Vec::new();
    for &s in script {
        if s == 0 {
            if !held.is_empty() {
                held.remove(0);
            }
        } else if let Ok(buf) = pool.alloc_u64(s as usize, Priority::Normal) {
            held.push(buf);
        }
        if check {
            let live: u64 = held.iter().map(PoolVec::accounted_bytes).sum();
            assert_eq!(pool.used_bytes(), live);
            assert!(live <= pool.capacity_bytes());
        }
    }
    held
}

/// The pool never hands out more than its capacity, accounts exactly the
/// buffers alive after any alloc/free sequence (0 once the last one drops)
/// and ends on the same value when two threads play the sequence's halves.
#[test]
fn pool_capacity_is_never_exceeded() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_0001);
    for _ in 0..CASES {
        let script: Vec<u64> = {
            let n = rng.random_range(2..40) as usize;
            let mut sizes = rng.vec_in(n, 1..20_000);
            // One step in four frees instead.
            for s in sizes.iter_mut().filter(|s| **s % 4 == 0) {
                *s = 0;
            }
            sizes
        };
        let capacity_kib = rng.random_range(64..2_048);
        let pool = MemPool::new(MemKind::Hbm, spec(capacity_kib * 1024), 0.0);
        drop(play(&pool, &script, true));
        assert_eq!(pool.used_bytes(), 0);

        // Roomy, so no request is refused on either schedule.
        let (a, b) = script.split_at(script.len() / 2);
        let serial = MemPool::new(MemKind::Hbm, spec(1 << 30), 0.0);
        let held = (play(&serial, a, true), play(&serial, b, false));
        let shared = MemPool::new(MemKind::Hbm, spec(1 << 30), 0.0);
        let threaded = std::thread::scope(|sc| {
            let t = sc.spawn(|| play(&shared, a, false));
            (play(&shared, b, false), t.join().expect("player thread"))
        });
        assert_eq!(shared.used_bytes(), serial.used_bytes());
        drop((held, threaded));
        assert_eq!((shared.used_bytes(), serial.used_bytes()), (0, 0));
    }
}

/// Reserved-priority allocations can use strictly more of the pool than
/// normal ones, but never more than capacity — also when a buffer of the
/// request's class was freed a moment ago.
#[test]
fn reserve_ordering_holds() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_0002);
    for _ in 0..CASES {
        let reserve = rng.random_f64();
        let pool = MemPool::new(MemKind::Hbm, spec(1 << 20), reserve);
        let normal = pool.available_bytes(Priority::Normal);
        let reserved = pool.available_bytes(Priority::Reserved);
        assert!(normal <= reserved);
        assert!(reserved <= pool.capacity_bytes());
    }

    const BUF: u64 = 4096; // the smallest size class
    let pool = MemPool::new(MemKind::Hbm, spec(4 * BUF), 0.5);
    let alloc = |prio| pool.alloc_u64(1, prio);
    let _normal = [alloc(Priority::Normal), alloc(Priority::Normal)].map(Result::unwrap);
    let _urgent = alloc(Priority::Reserved).unwrap();
    drop(alloc(Priority::Reserved).unwrap());
    assert_eq!(pool.used_bytes(), 3 * BUF, "above the Normal ceiling");
    assert!(alloc(Priority::Normal).is_err());
    assert!(alloc(Priority::Reserved).is_ok());
}

/// Whatever sequence of monitor samples arrives, the knob stays bounded in
/// [0, 1] on both axes.
#[test]
fn balancer_knob_stays_bounded() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_0003);
    for _ in 0..CASES {
        let mut b = DemandBalancer::new();
        let steps = rng.random_range(0..200);
        for _ in 0..steps {
            let hbm = rng.random_f64() * 1.2;
            let dram = rng.random_f64() * 1.5;
            let headroom = rng.random_bool(0.5);
            b.update(hbm, dram, headroom);
            let k = b.knob();
            assert!((0.0..=1.0).contains(&k.k_low), "k_low {}", k.k_low);
            assert!((0.0..=1.0).contains(&k.k_high), "k_high {}", k.k_high);
        }
    }
}

/// Over many placements, the HBM fraction tracks the knob value.
#[test]
fn placement_fraction_tracks_knob() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_0004);
    for _ in 0..20 {
        let steps = rng.random_range(0..20);
        let mut b = DemandBalancer::new();
        for _ in 0..steps {
            b.update(1.0, 0.0, true);
        }
        let k = b.knob().k_low;
        let n = 2_000;
        let hbm = (0..n)
            .filter(|_| b.place(streambox_hbm::engine::ImpactTag::Low).0 == MemKind::Hbm)
            .count();
        let frac = hbm as f64 / n as f64;
        assert!((frac - k).abs() < 1e-3, "frac {frac} vs knob {k}");
    }
}

/// Cost-model time is monotone: more work never takes less time, and more
/// cores never take more time.
#[test]
fn cost_model_is_monotone() {
    let mut rng = SbxRng::seed_from_u64(0x5b57_0007);
    for _ in 0..CASES {
        let seq = rng.random_f64() * 1e12;
        let rand_acc = rng.random_f64() * 1e9;
        let cpu = rng.random_f64() * 1e12;
        let cores = rng.random_range(1..128) as u32;
        let m = CostModel::new(MachineConfig::knl());
        let p = AccessProfile::new()
            .seq(MemKind::Hbm, seq)
            .rand(MemKind::Dram, rand_acc)
            .cpu(cpu);
        let bigger = p.merge(&AccessProfile::new().seq(MemKind::Hbm, 1.0).cpu(1.0));
        assert!(m.time_secs(&bigger, cores) >= m.time_secs(&p, cores));
        assert!(m.time_secs(&p, cores + 1) <= m.time_secs(&p, cores) + 1e-15);
    }
}
