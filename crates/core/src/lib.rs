//! StreamBox-HBM: a stream analytics engine for hybrid HBM/DRAM memories.
//!
//! This crate is the paper's primary contribution: a runtime that
//!
//! 1. ingests record bundles into DRAM,
//! 2. executes declarative pipelines whose grouping computations run on
//!    [Key Pointer Arrays](sbx_kpa::Kpa) with sequential-access
//!    sort/merge/join primitives,
//! 3. decides *per KPA allocation* whether it lands in HBM or DRAM via the
//!    demand-balance knob `{k_low, k_high}` driven by HBM capacity and DRAM
//!    bandwidth monitoring (paper §5), and
//! 4. tags tasks `Urgent`/`High`/`Low` by their distance from the next
//!    window to be externalized, reserving HBM for the critical path.
//!
//! # Quick start
//!
//! ```
//! use sbx_engine::{Engine, EngineMode, PipelineBuilder, RunConfig};
//! use sbx_engine::ops::AggKind;
//! use sbx_ingress::{KvSource, NicModel, SenderConfig};
//! use sbx_records::{Col, WindowSpec};
//!
//! // Sum values per key over 1-second windows (Listing 1 of the paper).
//! let pipeline = PipelineBuilder::new(WindowSpec::fixed(1_000_000_000))
//!     .windowed()
//!     .keyed_aggregate(Col(0), Col(1), AggKind::Sum)
//!     .build();
//! let source = KvSource::new(42, 1_000, 100_000);
//! let cfg = RunConfig {
//!     cores: 16,
//!     mode: EngineMode::Hybrid,
//!     sender: SenderConfig { bundle_rows: 2_000, bundles_per_watermark: 10,
//!                            nic: NicModel::rdma_40g() },
//!     ..RunConfig::default()
//! };
//! let report = Engine::new(cfg).run(source, pipeline, 40).unwrap();
//! assert!(report.windows_closed > 0);
//! assert!(report.throughput_rps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
pub mod checkpoint;
mod data;
mod engine;
mod error;
mod metrics;
mod mode;
mod observe;
mod operator;
pub mod ops;
mod pipeline;

pub use balancer::{DemandBalancer, KnobMove, KnobState, BALANCER_DELTA};
pub use checkpoint::{
    CheckpointBarrier, CheckpointHooks, CrashPhase, CrashSite, EntryRepr, EntryRows, NoopHooks,
    OpState, PipelineSnapshot, StateEntry,
};
pub use data::{Message, StreamData};
pub use engine::{Engine, RunConfig, ENGINE_OVERHEAD_CYCLES, TARGET_DELAY_SECS};
pub use error::EngineError;
pub use metrics::RunReport;
pub use mode::{EngineMode, ImpactTag};
pub use operator::{OpCtx, Operator, StatelessOperator};
pub use pipeline::{benchmarks, Pipeline, PipelineBuilder};
