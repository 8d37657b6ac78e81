//! The speed reference: a fixed compute kernel timed beside every set-up
//! and every timed rep, so that host times can be reported at the
//! reference box's nominal speed.
//!
//! The reference box is a shared 2-vCPU VM whose effective CPU speed drifts
//! by 10–40 % over seconds to minutes (README, *Calibration*). That drift
//! multiplies every host time of a run alike and is most of the spread
//! between runs of the same code. The kernel is the same work on every call,
//! so its time measures the drift and nothing else; dividing a rep's times
//! by the slowness read just before it makes such runs agree two to four
//! times more closely.

use std::time::Instant;

/// Elements per sorted chunk: 32 KiB, resident in L1/L2 like the engine's
/// per-bundle chunk sorts.
const CHUNK: usize = 4096;
/// Distinct chunks of input (512 KiB in all, so the reference adds next to
/// nothing to the process's peak RSS).
const CHUNKS: usize = 16;
/// Times each chunk is copied and sorted per pass.
const ROUNDS: usize = 15;
/// Passes per reading; the reading is their median, so a single preemption
/// does not pass for a slow machine.
const PASSES: usize = 3;
/// Seconds one pass takes on the reference box at its usual speed (48 µs
/// per chunk). Only a scale: it fixes what "nominal" means, not how steady
/// the result is.
const NOMINAL_PASS_S: f64 = 0.0115;

/// The kernel's fixed input and scratch space.
pub struct SpeedRef {
    data: Vec<u64>,
    scratch: Vec<u64>,
}

impl SpeedRef {
    /// Builds the fixed input: xorshift64 from a constant, so every process
    /// sorts the same numbers.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data = (0..CHUNK * CHUNKS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        SpeedRef {
            data,
            scratch: vec![0; CHUNK],
        }
    }

    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for chunk in self.data.chunks_exact(CHUNK) {
                self.scratch.copy_from_slice(chunk);
                self.scratch.sort_unstable();
                acc = acc.wrapping_add(self.scratch[CHUNK / 2]);
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// How slow the box is right now: the kernel's time over its nominal
    /// time (1.0 = reference speed, 1.2 = everything takes 20 % longer).
    pub fn slowness(&mut self) -> f64 {
        let mut passes = [0.0; PASSES];
        for p in &mut passes {
            *p = self.pass();
        }
        passes.sort_by(f64::total_cmp);
        passes[PASSES / 2] / NOMINAL_PASS_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_the_same_work_every_time_and_reads_a_plausible_speed() {
        let mut a = SpeedRef::new();
        let b = SpeedRef::new();
        assert_eq!(a.data, b.data, "fixed input");
        assert_eq!(a.data.len(), CHUNK * CHUNKS);
        let before = a.data.clone();
        let s = a.slowness();
        assert_eq!(a.data, before, "the input is never sorted in place");
        assert!(a.scratch.windows(2).all(|w| w[0] <= w[1]), "it did sort");
        // Debug builds and loaded boxes are slower, none is 1000 × off.
        assert!(s.is_finite() && s > 0.01 && s < 1000.0, "{s}");
    }
}
