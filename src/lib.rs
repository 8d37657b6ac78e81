//! # StreamBox-HBM
//!
//! A from-scratch Rust reproduction of **StreamBox-HBM: Stream Analytics on
//! High Bandwidth Hybrid Memory** (Miao et al., ASPLOS 2019): a stream
//! analytics engine that exploits hybrid HBM/DRAM memories by performing
//! data grouping with sequential-access sort/merge/join algorithms over
//! *Key Pointer Arrays* (KPAs) placed in HBM, while full records stay in
//! DRAM.
//!
//! The KNL hardware the paper evaluates on is replaced by an accounted
//! simulation substrate (see `DESIGN.md` for the substitution table); all
//! engine logic — KPA primitives, operators, watermarks, reference-counted
//! reclamation, the demand-balance knob — executes for real.
//!
//! ## Crate map
//!
//! * [`simmem`] — simulated hybrid memory: pools, bandwidth monitor, cost
//!   model.
//! * [`records`] — records, row-format DRAM bundles, event time, windows.
//! * [`kpa`] — Key Pointer Arrays and the Table-2 streaming primitives.
//! * [`engine`] — the runtime: operators, pipelines, scheduler tags, the
//!   HBM/DRAM demand balancer.
//! * [`ingress`] — workload generators, NIC-rate ingestion, parsers.
//! * [`checkpoint`] — barrier snapshot store, crash injection, and
//!   exactly-once recovery.
//! * [`cluster`] — the sharded distributed tier: hash-slot key routing,
//!   priced inter-node shuffles, and checkpoint-coordinated elastic
//!   rescaling.
//! * [`obs`] — simulated-time observability: metrics registry, span
//!   tracing, JSONL and Chrome-trace export.
//! * [`baselines`] — the Flink-class row engine used for comparisons.
//!
//! ## Example
//!
//! ```
//! use streambox_hbm::prelude::*;
//!
//! let pipeline = benchmarks::sum_per_key();
//! let source = KvSource::new(1, 100, 1_000_000);
//! let report = Engine::new(RunConfig::default())
//!     .run(source, pipeline, 16)?;
//! assert!(report.windows_closed >= 1);
//! # Ok::<(), streambox_hbm::engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sbx_baselines as baselines;
pub use sbx_checkpoint as checkpoint;
pub use sbx_cluster as cluster;
pub use sbx_engine as engine;
pub use sbx_ingress as ingress;
pub use sbx_kpa as kpa;
pub use sbx_obs as obs;
pub use sbx_records as records;
pub use sbx_simmem as simmem;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use sbx_baselines::{RowEngine, RowEngineConfig, RowPipeline};
    pub use sbx_checkpoint::{
        coordinated_epoch, run_with_recovery, CheckpointCoordinator, CrashPlan, RecoveryOutcome,
        SnapshotStore,
    };
    pub use sbx_cluster::{
        ClusterConfig, ClusterRunReport, ElasticPlan, Retarget, RouteTable, ShardedCluster,
    };
    pub use sbx_engine::ops::{AggKind, GroupingSpec};
    pub use sbx_engine::{
        benchmarks, Engine, EngineMode, Pipeline, PipelineBuilder, RunConfig, RunReport,
    };
    pub use sbx_ingress::{
        IngestFormat, KvSource, LinkModel, NicModel, PowerGridSource, Sender, SenderConfig, Source,
        Sources, YsbSource,
    };
    pub use sbx_kpa::{ExecCtx, Kpa};
    pub use sbx_obs::{
        parse_cluster_spans_jsonl, parse_spans_jsonl, ClusterSpan, ClusterTrace, CriticalPath,
        DetectorBank, FlightRecorder, Incident, IncidentReport, MetricsDump, MetricsRegistry, Obs,
        RoundPoint, Signal, Span, SpanStream, ThresholdRule, Timeline, TraceCollector,
        FABRIC_SHARD, ROUND_SERIES, ROUND_VIEW, TIER_SERIES, TIER_VIEW,
    };
    pub use sbx_records::{Col, EventTime, RecordBundle, Schema, Watermark, WindowSpec};
    pub use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};
}
