//! Compound (declarative) operators, built from the KPA streaming
//! primitives exactly as the paper's Table 1 prescribes:
//!
//! | Operator | Primitives on arrival | Window state | Primitives at close |
//! |---|---|---|---|
//! | [`Filter`] / [`Sample`] (ParDo) | Select | — | — |
//! | [`MapRecords`] (producing ParDo) | Unkeyed reduction, emits to DRAM | — | — |
//! | [`Union`] | — (stream merge) | — | — |
//! | [`ExternalJoin`] | KeySwap (in-place key update) | — | — |
//! | [`WindowInto`] | Partition (by timestamp) | — | — |
//! | [`KeyedAggregate`] | KeySwap, Sort (+ keyed pre-reduction) | sorted KPAs, or a hash table | Merge, keyed reduction |
//! | [`AvgAll`] | Unkeyed reduction | running average | — |
//! | [`Cogroup`] | KeySwap, Sort | sorted KPAs per side | Merge, keyed reduction per side |
//! | [`TemporalJoin`] | KeySwap, Sort, Join, Merge | one sorted KPA per side, joined rows | — |
//! | [`WindowedFilter`] | KeySwap (data) / unkeyed reduction (control) | KPAs, running average | Select, Materialize |
//! | [`PowerGrid`] | composite KeySwap, Sort | sorted KPAs, running average | Merge, keyed + unkeyed reduction |
//!
//! The stateless operators above the line process each message on its own
//! ([`StatelessOperator`](crate::StatelessOperator)). The six windowed ones
//! are each a `WindowLogic` — the two primitive columns of their row — run
//! by the one lifecycle in `windowed.rs`, which owns the late-data guard,
//! the window map and its `WindowState` store, the watermark-driven close,
//! and snapshot/restore.

mod aggregate;
mod avg_all;
mod cogroup;
mod external_join;
mod filter;
mod grouping;
mod pardo;
mod power_grid;
mod temporal_join;
mod union;
mod window;
mod windowed;
mod windowed_filter;

pub use aggregate::{AggKind, KeyedAggregate};
pub use avg_all::AvgAll;
pub use cogroup::{Cogroup, SideAgg};
pub use external_join::ExternalJoin;
pub use filter::Filter;
pub use grouping::GroupingSpec;
pub use pardo::{MapRecords, Sample};
pub use power_grid::PowerGrid;
pub use temporal_join::TemporalJoin;
pub use union::Union;
pub use window::WindowInto;
pub use windowed::Windowed;
pub use windowed_filter::WindowedFilter;
