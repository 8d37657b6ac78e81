//! Simulated hybrid HBM/DRAM memory substrate for StreamBox-HBM.
//!
//! The original StreamBox-HBM (ASPLOS'19) runs on an Intel Knights Landing
//! machine whose 16 GB of 3D-stacked high-bandwidth memory (HBM) and 96 GB of
//! DDR4 DRAM are exposed as a flat, hybrid physical address space. This crate
//! replaces that hardware with an *accounted* software substrate that
//! preserves the two properties every design decision in the paper depends
//! on:
//!
//! 1. **Capacity** — HBM is small; allocations against the [`MemPool`] for
//!    [`MemKind::Hbm`] fail once the configured capacity is exhausted, which
//!    is what forces the engine to spill Key Pointer Arrays to DRAM.
//! 2. **Bandwidth and latency** — HBM has ~5x the sequential bandwidth of
//!    DRAM but ~20% *higher* latency. The [`CostModel`] turns instrumented
//!    access profiles (sequential bytes, random accesses, compute) into
//!    simulated time using the paper's Table 3 constants, and the
//!    [`BandwidthMonitor`] gives the runtime the same 10 ms bandwidth samples
//!    it would get from Intel PCM counters.
//!
//! Buffers handed out by [`MemPool`] are real heap memory (so the engine and
//! all algorithms execute for real); only *capacity accounting* and *timing*
//! are simulated.
//!
//! # Example
//!
//! ```
//! use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};
//!
//! let machine = MachineConfig::knl().scaled(1.0 / 1024.0); // 16 MiB of "HBM"
//! let env = MemEnv::new(machine);
//! let buf = env.pool(MemKind::Hbm).alloc_u64(1024, Priority::Normal).unwrap();
//! assert_eq!(buf.capacity(), 1024);
//! assert!(env.pool(MemKind::Hbm).used_bytes() >= 8 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod clock;
mod config;
mod cost;
mod env;
mod error;
mod kind;
mod pool;
pub mod sync;

pub use bandwidth::{BandwidthMonitor, BandwidthSample, SAMPLE_INTERVAL_NS};
pub use clock::SimClock;
pub use config::{MachineConfig, MemSpec};
pub use cost::{AccessProfile, CostModel};
pub use env::{BundleToken, MemEnv};
pub use error::AllocError;
pub use kind::MemKind;
pub use pool::{MemPool, PoolStats, PoolVec, Priority};
