//! A small *scoped* worker pool for the two kernels that fan out: the
//! window-close k-way merge (`sbx_kpa::mergepath::merge_runs_pooled`) and
//! the join scan (`sbx_kpa::join_sorted`).
//!
//! StreamBox parallelises across bundles and windows (paper §3, §4.2);
//! every per-bundle primitive runs on one lane. What is left to spread is
//! one batch of independent jobs per kernel call, so [`WorkerPool::run`] is
//! one `std::thread::scope` call: it deals job `i` to lane `i % lanes`
//! (lane 0 is the caller), joins every lane, and returns the outputs in
//! job order. `width == 1` runs everything inline with zero spawns.
//!
//! The workspace forbids `unsafe_code`, which rules out the lifetime
//! erasure a *persistent* (cross-invocation) pool over borrowed slices
//! needs. Jobs are ordinary typed values, usually tuples of borrowed
//! slices, and the borrow checker sees every hand-off: borrowed buffers
//! must outlive the [`WorkerPool::run`] call, exactly the guarantee
//! `std::thread::scope` enforces.
//!
//! [`WorkerPool::stats`] reports how many OS threads and jobs the calls
//! consumed, which the `kernel_scaling` bench prints.
//!
//! # Example
//!
//! ```
//! use sbx_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut data = [3u64, 1, 2, 7, 5, 4];
//! let halves: Vec<&mut [u64]> = data.chunks_mut(3).collect();
//! let sorted = pool.run(
//!     2,
//!     |chunk: &mut [u64]| {
//!         chunk.sort_unstable();
//!         chunk
//!     },
//!     halves,
//! );
//! assert_eq!(sorted[0], &[1, 2, 3]);
//! assert_eq!(sorted[1], &[4, 5, 7]);
//! assert_eq!(pool.stats().threads_spawned, 1); // caller lane did half
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// sbx-lint: allow-file(atomic-ordering, diagnostics counters; read at quiescence after a run joins)
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters accumulated across every [`WorkerPool::run`] call sharing
/// the same pool handle (clones share counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// OS threads spawned in total (the caller lane is never spawned).
    pub threads_spawned: u64,
    /// Individual jobs executed (on workers or the caller lane).
    pub jobs: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    threads_spawned: AtomicU64,
    jobs: AtomicU64,
}

/// A handle to the worker pool.
///
/// Cloning is cheap and clones share statistics; the engine creates one
/// pool per run and threads a clone through every task's `ExecCtx`, so
/// all kernels draw on the same accounting. The pool spawns no threads
/// until [`WorkerPool::run`] is invoked with `width > 1`.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    width: usize,
    stats: Arc<StatCells>,
}

impl WorkerPool {
    /// A pool whose *default* parallel width is `width` lanes (clamped to
    /// at least 1). Kernels without an explicit lane count use this width.
    pub fn new(width: usize) -> Self {
        WorkerPool {
            width: width.max(1),
            stats: Arc::new(StatCells::default()),
        }
    }

    /// A pool that runs everything on the caller thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The default parallel width (lanes) of this pool.
    pub fn width(&self) -> usize {
        self.width
    }

    /// A snapshot of the accumulated counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads_spawned: self.stats.threads_spawned.load(Ordering::Relaxed),
            jobs: self.stats.jobs.load(Ordering::Relaxed),
        }
    }

    /// Runs `jobs` on `width` lanes (at most one per job) and returns the
    /// outputs in job order.
    ///
    /// Job `i` runs on lane `i % lanes`; lane 0 is the calling thread, the
    /// others are spawned for this call and joined before it returns.
    ///
    /// # Panics
    ///
    /// Re-raises, on the calling thread, the panic of any job.
    pub fn run<J, O, W>(&self, width: usize, worker: W, jobs: Vec<J>) -> Vec<O>
    where
        J: Send,
        O: Send,
        W: Fn(J) -> O + Sync,
    {
        let n = jobs.len();
        let lanes = width.clamp(1, n.max(1));
        self.stats.jobs.fetch_add(n as u64, Ordering::Relaxed);
        self.stats
            .threads_spawned
            .fetch_add(lanes as u64 - 1, Ordering::Relaxed);
        let mut dealt: Vec<Vec<J>> = Vec::new();
        dealt.resize_with(lanes, Vec::new);
        for (i, job) in jobs.into_iter().enumerate() {
            dealt[i % lanes].push(job);
        }
        // sbx-lint: allow(raw-alloc, one output list per lane; job data stays in caller buffers)
        let work = |lane: Vec<J>| -> Vec<O> { lane.into_iter().map(&worker).collect() };
        let mut dealt = dealt.into_iter();
        let own = dealt.next().unwrap_or_default();
        let mut outs = Vec::new();
        std::thread::scope(|s| {
            // sbx-lint: allow(raw-alloc, lanes - 1 join handles per run)
            let handles: Vec<_> = dealt.map(|lane| s.spawn(move || work(lane))).collect();
            outs.push(work(own).into_iter());
            for handle in handles {
                let lane = handle.join().unwrap_or_else(|p| resume_unwind(p));
                outs.push(lane.into_iter());
            }
        });
        // sbx-lint: allow(raw-alloc, the run's output list, one slot per job)
        (0..n).filter_map(|i| outs[i % lanes].next()).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn serial_scope_spawns_nothing_and_runs_inline() {
        let pool = WorkerPool::serial();
        let outs = pool.run(1, |x: u64| x * 2, vec![1, 2, 3]);
        assert_eq!(outs, vec![2, 4, 6]);
        let s = pool.stats();
        assert_eq!(s.threads_spawned, 0);
        assert_eq!(s.jobs, 3);
    }

    #[test]
    fn outputs_come_back_in_job_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<u64> = (0..100).collect();
        let outs = pool.run(4, |x| x + 1000, jobs);
        assert_eq!(outs, (1000..1100).collect::<Vec<u64>>());
        assert_eq!(pool.stats().threads_spawned, 3, "width - 1 spawns");
    }

    #[test]
    fn borrowed_mutable_slices_flow_out_and_back() {
        let pool = WorkerPool::new(2);
        let mut data = vec![5u64, 4, 3, 2, 1, 0];
        {
            let chunks: Vec<&mut [u64]> = data.chunks_mut(2).collect();
            let returned = pool.run(
                2,
                |c: &mut [u64]| {
                    c.sort_unstable();
                    c
                },
                chunks,
            );
            // The issuing thread can read the sorted chunks again.
            assert!(returned.iter().all(|c| c[0] <= c[1]));
        }
        assert_eq!(data, vec![4, 5, 2, 3, 0, 1]);
    }

    #[test]
    fn a_panicking_job_panics_the_issuer_on_every_lane() {
        for bad in 0..3u64 {
            let pool = WorkerPool::new(3);
            let run = || pool.run(3, |x: u64| assert_ne!(x, bad), vec![0, 1, 2]);
            assert!(catch_unwind(AssertUnwindSafe(run)).is_err(), "lane {bad}");
        }
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let pool = WorkerPool::new(3);
        let outs: Vec<u64> = pool.run(3, |x: u64| x, Vec::new());
        assert!(outs.is_empty());
        assert_eq!(pool.stats().threads_spawned, 0);
    }

    #[test]
    fn clones_share_counters() {
        let pool = WorkerPool::new(2);
        let clone = pool.clone();
        let _ = clone.run(2, |x: u64| x, vec![1, 2]);
        assert_eq!(pool.stats().jobs, 2);
        assert_eq!(pool.width(), 2);
    }

    #[test]
    fn width_is_clamped_to_at_least_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.width(), 1);
        let outs = pool.run(0, |x: u64| x + 1, vec![7]);
        assert_eq!(outs, vec![8]);
    }
}
