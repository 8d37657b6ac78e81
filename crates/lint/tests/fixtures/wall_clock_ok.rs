//! Fixture: simulated-clock engine code, plus one justified host-timing
//! site of the kind the bench harness uses.

use std::time::Instant; // sbx-lint: allow(wall-clock, host microbenchmark harness)

pub fn step(env: &MemEnv) -> u64 {
    env.clock().now_ns()
}

pub fn host_time(f: impl FnOnce()) -> f64 {
    // sbx-lint: allow(wall-clock, host microbenchmark harness)
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}
