//! The Yahoo Streaming Benchmark (paper Fig. 1a / Fig. 5): filter ad
//! events, join against the campaign table, count events per campaign per
//! 1-second window — compared side by side with a Flink-class row engine,
//! the paper's Figure-7 experiment in miniature.
//!
//! Run with: `cargo run --release --example ysb`

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use streambox_hbm::prelude::*;

const NUM_ADS: u64 = 1_000;
const NUM_CAMPAIGNS: u64 = 100;
const EVENT_RATE: u64 = 5_000_000; // records per second of event time

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sender = SenderConfig {
        bundle_rows: 20_000,
        bundles_per_watermark: 10,
        nic: NicModel::ethernet_10g(),
    };

    // --- StreamBox-HBM at the paper's comparison point: it saturates the
    // --- 10 GbE link with only 5 cores (paper §7.1).
    let cfg = RunConfig {
        cores: 5,
        sender,
        collect_outputs: true,
        ..RunConfig::default()
    };
    let source = YsbSource::new(7, NUM_ADS, NUM_CAMPAIGNS, EVENT_RATE);
    let report = Engine::new(cfg).run(source, benchmarks::ysb(NUM_CAMPAIGNS), 100)?;
    println!("== StreamBox-HBM (5 cores, 10 GbE) ==");
    println!(
        "  {:.2} M records/s, {} windows, {} per-campaign counts, delay {:.3}s",
        report.throughput_mrps(),
        report.windows_closed,
        report.output_records,
        report.max_output_delay_secs,
    );
    if let Some(b) = report.outputs.first() {
        println!("  sample counts (campaign -> views):");
        for r in 0..b.rows().min(5) {
            println!("    {:>4} -> {}", b.value(r, Col(0)), b.value(r, Col(1)));
        }
    }

    // --- Flink-class row engine with all 64 cores (it still cannot
    // --- saturate the link) ---
    let cfg = RunConfig {
        cores: 64,
        mode: EngineMode::Row,
        sender,
        ..RunConfig::default()
    };
    let source = YsbSource::new(7, NUM_ADS, NUM_CAMPAIGNS, EVENT_RATE);
    let row_report = Engine::new(cfg).run(source, benchmarks::ysb(NUM_CAMPAIGNS), 100)?;
    println!("== Flink-class row engine (64 cores, 10 GbE) ==");
    println!(
        "  {:.2} M records/s, {} windows, {} per-campaign counts",
        row_report.throughput_mrps(),
        row_report.windows_closed,
        row_report.output_records,
    );

    let per_core_gap = (report.throughput_rps / 5.0) / (row_report.throughput_rps / 64.0);
    println!("\nper-core throughput gap: {per_core_gap:.1}x (paper reports 18x)");
    Ok(())
}
