//! Key Pointer Arrays (KPAs) and the streaming primitives of StreamBox-HBM.
//!
//! A [`Kpa`] is the only data structure StreamBox-HBM places in HBM: a
//! sequence of `(key, pointer)` pairs where the key replicates exactly one
//! *resident* column of the full records, and the pointer refers back to the
//! complete record in a DRAM bundle (paper §4.1). Grouping computations —
//! the dominant cost of stream analytics — run on KPAs with
//! sequential-access sort/merge/join algorithms that exploit HBM's
//! bandwidth, while reductions dereference pointers back into DRAM. Every
//! primitive runs on the calling thread: StreamBox parallelises across
//! bundles and windows (paper §3), so [`WorkerPool`] and
//! [`ExecCtx::with_pool`] stay only for callers written against them.
//!
//! The primitives implemented here are exactly the paper's Table 2:
//!
//! | Primitive | Access | Here |
//! |---|---|---|
//! | Extract | Sequential | [`Kpa::extract_in_place`] (pairs left in the rows); [`Kpa::extract`], its eager shim |
//! | Materialize | Random | [`Kpa::materialize`] |
//! | KeySwap | Random | [`Kpa::key_swap`] |
//! | Sort | Sequential | [`Kpa::sort`] |
//! | Merge | Sequential | [`Kpa::merge`] / [`Kpa::merge_many`] |
//! | Join | Sequential | [`join_sorted`] |
//! | Select | Sequential | [`Kpa::select`] / [`Kpa::extract_select`] |
//! | Partition | Sequential | [`Kpa::partition_by`] |
//! | Keyed reduce | Random | [`reduce_keyed`]; fused into the merge, [`Kpa::merge_fold`] / [`Kpa::merge_gather`]; early aggregation's, [`Kpa::sort_fold`] / [`Kpa::reduce_fold`] |
//! | Unkeyed reduce | Random | [`reduce_unkeyed_bundle`] / [`reduce_unkeyed_kpa`] |
//!
//! Every primitive executes for real against pool-accounted buffers *and*
//! charges an [`sbx_simmem::AccessProfile`] to its [`ExecCtx`], which the
//! engine aggregates per task to drive the timing model.
//!
//! The [`hash`] module implements the random-access hash-grouping
//! alternative used as the DRAM-preferred baseline in Figure 2, by the
//! Flink-class comparison engine, and — since the pluggable-grouping work
//! (DESIGN.md §14) — as the hash backend of the engine's GroupBy. The
//! [`sketch`] module provides the deterministic cardinality/skew estimate
//! that drives the adaptive sort-vs-hash backend decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
pub mod hash;
mod join;
mod kpa;
pub mod mergepath;
pub mod profile;
mod radix;
mod reduce;
pub mod sketch;
mod sort;

pub use ctx::{ExecCtx, PrimGroup, WorkerPool};
pub use join::{join_sorted, JoinStats};
pub use kpa::{ExtractCharge, FoldedWindow, Kpa, Resolver};
pub use reduce::{agg, reduce_keyed, reduce_unkeyed_bundle, reduce_unkeyed_kpa, KeyGroup};
pub use sort::sort_pairs;
