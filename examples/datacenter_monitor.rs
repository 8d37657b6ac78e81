//! Data-center analytics, the paper's motivating scenario from §1:
//! "compute the distribution of machine utilization and network request
//! arrival rate, and then join them by time."
//!
//! Two streams — per-machine CPU utilization samples and per-machine
//! request-rate samples — are temporally joined by machine id per window,
//! pairing each machine's utilization with its request rate.
//!
//! Run with: `cargo run --release --example datacenter_monitor`

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use streambox_hbm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machines = 100_000;
    // Stream L: (machine_id, cpu_util_percent, ts)
    let util = KvSource::new(21, machines, 1_000_000).with_value_range(100);
    // Stream R: (machine_id, requests_per_sec, ts)
    let reqs = KvSource::new(22, machines, 1_000_000).with_value_range(50_000);

    let pipeline = PipelineBuilder::new(WindowSpec::fixed(1_000_000_000))
        .windowed()
        .temporal_join(Col(0), Col(1))
        .build();

    let cfg = RunConfig {
        cores: 32,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 5_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let report = Engine::new(cfg).run(vec![util, reqs], pipeline, 60)?;

    println!(
        "joined {} utilization/request samples into {} correlated pairs \
         across {} windows ({:.2} M records/s)",
        report.records_in,
        report.output_records,
        report.windows_closed,
        report.throughput_mrps()
    );
    if let Some(b) = report.outputs.iter().find(|b| b.rows() > 0) {
        println!("sample correlated readings (machine, cpu%, req/s):");
        for r in 0..b.rows().min(5) {
            println!(
                "  machine {:>4}: {:>3}% CPU while serving {:>6} req/s",
                b.value(r, Col(0)),
                b.value(r, Col(1)),
                b.value(r, Col(2)),
            );
        }
    }
    Ok(())
}
