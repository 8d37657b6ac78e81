//! Multi-instance execution (paper §3) on the sharded cluster tier
//! (`sbx_cluster::ShardedCluster`, DESIGN.md §12): one logical stream is
//! routed by key hash across several per-shard engines, each with its own
//! hybrid memory, checkpointing on a common barrier cadence.
//!
//! Run with: `cargo run --release --example cluster`

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use streambox_hbm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mk_source = || KvSource::new(77, 50_000, 5_000_000).with_value_range(10_000);
    let engine = RunConfig {
        cores: 16,
        sender: SenderConfig {
            bundle_rows: 10_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };

    println!(
        "{:>6}  {:>14}  {:>12}  {:>10}",
        "shards", "records", "M rec/s", "sim secs"
    );
    for shards in [1u32, 2, 4, 8] {
        let cluster = ShardedCluster::new(ClusterConfig {
            shards,
            engine: engine.clone(),
            ..ClusterConfig::default()
        });
        let report = cluster.run(mk_source, benchmarks::sum_per_key, 40, 10)?;
        println!(
            "{:>6}  {:>14}  {:>12.1}  {:>10.4}",
            shards,
            report.records_in,
            report.throughput_rps() / 1e6,
            report.sim_secs,
        );
    }
    println!("\nEach shard owns a disjoint set of key slots; the cluster finishes when\nits slowest shard does, so throughput grows with shards until one\nshard's ingestion link saturates.");
    Ok(())
}
