//! A small reusable *scoped* worker pool for the grouping kernels.
//!
//! The paper's primitives (§4.2) run every phase of a sort/merge/join on
//! all worker threads. Before this crate, each phase spawned its own
//! `std::thread::scope` threads — a sort paid one spawn set for the chunk
//! phase plus one per pairwise merge round. [`WorkerPool::scope`] spawns
//! the workers **once per primitive invocation** and then feeds them any
//! number of *waves* of jobs over channels, so a single-pass merge-path
//! sort costs one spawn set for both of its phases, and `threads == 1`
//! runs everything inline with zero spawns.
//!
//! The workspace forbids `unsafe_code`, which rules out the
//! crossbeam-style lifetime erasure a *persistent* (cross-invocation)
//! pool needs. Instead, jobs are ordinary typed values: the caller picks
//! a job type `J` (usually an enum of borrowed slices), the pool moves
//! jobs to workers and results back over `std::sync::mpsc` channels, and
//! the borrow checker sees every hand-off. Borrowed buffers therefore
//! must outlive the [`WorkerPool::scope`] call — exactly the guarantee
//! `std::thread::scope` already enforces.
//!
//! The pool also centralizes spawn accounting: [`WorkerPool::stats`]
//! reports how many OS threads, waves, and jobs a run consumed, which the
//! `kernel_scaling` bench uses to show the amortization.
//!
//! # Example
//!
//! ```
//! use sbx_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut data = [3u64, 1, 2, 7, 5, 4];
//! let halves: Vec<&mut [u64]> = data.chunks_mut(3).collect();
//! let sorted: Vec<&mut [u64]> = pool.scope(
//!     2,
//!     |chunk: &mut [u64]| {
//!         chunk.sort_unstable();
//!         chunk
//!     },
//!     |waves| waves.run(halves),
//! );
//! assert_eq!(sorted[0], &[1, 2, 3]);
//! assert_eq!(sorted[1], &[4, 5, 7]);
//! assert_eq!(pool.stats().threads_spawned, 1); // caller lane did half
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// sbx-lint: allow-file(atomic-ordering, wave/job diagnostics counters; read at quiescence after the scope joins)
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Counters accumulated across every [`WorkerPool::scope`] call sharing
/// the same pool handle (clones share counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Scoped invocations (one per primitive call that went parallel).
    pub scopes: u64,
    /// OS threads spawned in total (the caller lane is never spawned).
    pub threads_spawned: u64,
    /// Barrier-synchronized job waves executed.
    pub waves: u64,
    /// Individual jobs executed (on workers or the caller lane).
    pub jobs: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    scopes: AtomicU64,
    threads_spawned: AtomicU64,
    waves: AtomicU64,
    jobs: AtomicU64,
}

/// A handle to the worker pool.
///
/// Cloning is cheap and clones share statistics; the engine creates one
/// pool per run and threads a clone through every task's `ExecCtx`, so
/// all primitives draw on the same accounting. The pool spawns no
/// threads until [`WorkerPool::scope`] is invoked with `width > 1`.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    width: usize,
    stats: Arc<StatCells>,
}

impl WorkerPool {
    /// A pool whose *default* parallel width is `width` lanes (clamped to
    /// at least 1). Primitives without an explicit thread parameter use
    /// this width.
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
            scopes: self.stats.scopes.load(Ordering::Relaxed),
            threads_spawned: self.stats.threads_spawned.load(Ordering::Relaxed),
            waves: self.stats.waves.load(Ordering::Relaxed),
            jobs: self.stats.jobs.load(Ordering::Relaxed),
        }
    }

    /// Spawns `width - 1` worker threads (the caller is the remaining
    /// lane), runs `f` with a [`Waves`] handle that can execute any
    /// number of job waves on those same threads, and joins them before
    /// returning `f`'s result.
    ///
    /// `worker` executes one job and returns its output; job outputs are
    /// handed back to the wave issuer in job order, which is how phases
    /// return borrowed slices to the orchestrating thread (see the sort
    /// kernel). With `width <= 1` no threads are spawned and every wave
    /// runs inline.
    pub fn scope<J, O, R, W, F>(&self, width: usize, worker: W, f: F) -> R
    where
        J: Send,
        O: Send,
        W: Fn(J) -> O + Sync,
        F: FnOnce(&Waves<'_, J, O>) -> R,
    {
        let width = width.max(1);
        self.stats.scopes.fetch_add(1, Ordering::Relaxed);
        if width == 1 {
            let waves = Waves {
                remotes: Vec::new(),
                collector: None,
                worker: &worker,
                stats: &self.stats,
            };
            return f(&waves);
        }

        self.stats
            .threads_spawned
            .fetch_add(width as u64 - 1, Ordering::Relaxed);
        let (back_tx, back_rx) = std::sync::mpsc::channel::<(usize, std::thread::Result<O>)>();
        // sbx-lint: allow(raw-alloc, width-1 channel handles per scope; job data stays in caller buffers)
        let mut remotes: Vec<Sender<(usize, J)>> = Vec::with_capacity(width - 1);
        std::thread::scope(|s| {
            for _ in 1..width {
                let (tx, rx) = std::sync::mpsc::channel::<(usize, J)>();
                remotes.push(tx);
                let back = back_tx.clone();
                let worker = &worker;
                s.spawn(move || {
                    while let Ok((idx, job)) = rx.recv() {
                        // A panicking job travels back as its payload: the
                        // issuer is blocked on this channel and re-raises it.
                        let out = catch_unwind(AssertUnwindSafe(|| worker(job)));
                        if back.send((idx, out)).is_err() {
                            break;
                        }
                    }
                });
            }
            let waves = Waves {
                remotes,
                collector: Some(back_rx),
                worker: &worker,
                stats: &self.stats,
            };
            f(&waves)
            // `waves` (and with it every job sender) drops here, so the
            // workers' `recv` loops end and the scope joins them.
        })
    }

    /// Convenience for single-wave primitives: spawn, run one wave of
    /// `jobs` at `width` lanes, join, and return the outputs in job
    /// order.
    pub fn run<J, O, W>(&self, width: usize, worker: W, jobs: Vec<J>) -> Vec<O>
    where
        J: Send,
        O: Send,
        W: Fn(J) -> O + Sync,
    {
        self.scope(width.min(jobs.len().max(1)), worker, |waves| {
            waves.run(jobs)
        })
    }
}

/// Wave issuer handed to the closure of [`WorkerPool::scope`]: each
/// [`Waves::run`] call scatters jobs across the already-spawned workers
/// (plus the caller lane), blocks until all of them finish, and returns
/// their outputs in job order — a barrier between kernel phases that
/// costs no thread spawns.
pub struct Waves<'w, J, O> {
    remotes: Vec<Sender<(usize, J)>>,
    collector: Option<Receiver<(usize, std::thread::Result<O>)>>,
    worker: &'w (dyn Fn(J) -> O + Sync),
    stats: &'w StatCells,
}

impl<J, O> Waves<'_, J, O> {
    /// Executes one wave of jobs, returning outputs in job order.
    ///
    /// Jobs are dealt round-robin: job `i` runs on lane `i % lanes`,
    /// lane 0 being the calling thread itself, so a wave of `lanes` jobs
    /// runs one job per thread.
    ///
    /// # Panics
    ///
    /// Re-raises, on the calling thread, the panic of any job of the wave.
    pub fn run(&self, jobs: Vec<J>) -> Vec<O> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        self.stats.waves.fetch_add(1, Ordering::Relaxed);
        self.stats.jobs.fetch_add(n as u64, Ordering::Relaxed);
        let lanes = self.remotes.len() + 1;

        // sbx-lint: allow(raw-alloc, one output slot per job of the wave)
        let mut out: Vec<Option<O>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        // sbx-lint: allow(raw-alloc, caller-lane job list, at most n/lanes entries)
        let mut own: Vec<(usize, J)> = Vec::with_capacity(n.div_ceil(lanes));
        let mut remote_count = 0usize;
        for (i, job) in jobs.into_iter().enumerate() {
            let lane = i % lanes;
            if lane == 0 {
                own.push((i, job));
            } else if self.remotes[lane - 1].send((i, job)).is_ok() {
                remote_count += 1;
            } else {
                // Worker gone, which a panicking job no longer causes:
                // stop feeding it.
                // sbx-lint: allow(no-panic, surfacing a worker-thread panic on the issuing thread)
                panic!("pool worker terminated before the wave completed");
            }
        }
        for (i, job) in own {
            out[i] = Some((self.worker)(job));
        }
        if let Some(rx) = &self.collector {
            for _ in 0..remote_count {
                match rx.recv() {
                    Ok((i, Ok(o))) => out[i] = Some(o),
                    Ok((_, Err(payload))) => resume_unwind(payload),
                    // sbx-lint: allow(no-panic, surfacing a worker-thread panic on the issuing thread)
                    Err(_) => panic!("pool worker terminated before the wave completed"),
                }
            }
        }
        // Every slot was filled above: lanes either ran inline or were
        // collected; a missing slot means a worker died, caught earlier.
        // sbx-lint: allow(raw-alloc, unwraps the per-wave output slots)
        out.into_iter().flatten().collect()
    }

    /// Number of lanes (worker threads + the caller) in this scope.
    pub fn lanes(&self) -> usize {
        self.remotes.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_scope_spawns_nothing_and_runs_inline() {
        let pool = WorkerPool::serial();
        let outs = pool.run(1, |x: u64| x * 2, vec![1, 2, 3]);
        assert_eq!(outs, vec![2, 4, 6]);
        let s = pool.stats();
        assert_eq!(s.threads_spawned, 0);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.waves, 1);
    }

    #[test]
    fn outputs_come_back_in_job_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<u64> = (0..100).collect();
        let outs = pool.run(4, |x| x + 1000, jobs);
        assert_eq!(outs, (1000..1100).collect::<Vec<u64>>());
    }

    #[test]
    fn multiple_waves_reuse_the_same_spawn_set() {
        let pool = WorkerPool::new(4);
        let total: u64 = pool.scope(
            4,
            |x: u64| x * x,
            |waves| {
                let a: u64 = waves.run((0..8).collect()).into_iter().sum();
                let b: u64 = waves.run((8..16).collect()).into_iter().sum();
                a + b
            },
        );
        assert_eq!(total, (0..16u64).map(|x| x * x).sum());
        let s = pool.stats();
        assert_eq!(s.threads_spawned, 3, "one spawn set for both waves");
        assert_eq!(s.waves, 2);
        assert_eq!(s.jobs, 16);
    }

    #[test]
    fn borrowed_mutable_slices_flow_out_and_back() {
        let pool = WorkerPool::new(2);
        let mut data = vec![5u64, 4, 3, 2, 1, 0];
        {
            let chunks: Vec<&mut [u64]> = data.chunks_mut(2).collect();
            let returned: Vec<&mut [u64]> = pool.scope(
                2,
                |c: &mut [u64]| {
                    c.sort_unstable();
                    c
                },
                |waves| waves.run(chunks),
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
            let wave = || pool.run(3, |x: u64| assert_ne!(x, bad), vec![0, 1, 2]);
            assert!(catch_unwind(AssertUnwindSafe(wave)).is_err(), "lane {bad}");
        }
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let pool = WorkerPool::new(3);
        let outs: Vec<u64> = pool.scope(3, |x: u64| x, |waves| waves.run(Vec::new()));
        assert!(outs.is_empty());
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
