//! Data ingress for StreamBox-HBM: workload generators, NIC-rate-limited
//! ingestion and data-format parsers.
//!
//! The paper ingests streams from a separate *Sender* machine over 40 Gb/s
//! InfiniBand RDMA (bundles delivered into pre-allocated buffers) or 10 GbE
//! ZeroMQ. Neither NIC exists here, so ingestion is modelled by a
//! [`NicModel`] token rate: each bundle carries the simulated time the wire
//! transfer takes, and the engine's pipeline throughput plateaus at the NIC
//! payload rate exactly as in Figures 7 and 8 (the red "ingestion limit"
//! lines).
//!
//! Generators reproduce the paper's workloads:
//! * [`KvSource`] — the 3-column `key,value,ts` records of benchmarks 1–7,
//!   with a 4-column secondary-key variant for benchmarks 8–9.
//! * [`YsbSource`] — the Yahoo Streaming Benchmark's 7-column ad events.
//! * [`PowerGridSource`] — per-plug power samples in the shape of the DEBS
//!   2014 grand challenge used by the Power Grid benchmark.
//!
//! The [`parse`] module implements the three ingestion formats of Figure 11
//! (JSON, protobuf-style binary, and plain text) with real encoders and
//! decoders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod gen;
mod nic;
pub mod parse;
mod sender;

pub use format::{
    IngestFormat, JSON_CYCLES_PER_RECORD, PROTO_CYCLES_PER_RECORD, TEXT_CYCLES_PER_RECORD,
};
pub use gen::{KvSource, PowerGridSource, Source, YsbSource, ZipfKeys};
pub use nic::{LinkModel, NicModel};
pub use sender::{IngressEvent, Sender, SenderConfig, Sources};
