//! `sbx` — the StreamBox-HBM command-line driver.
//!
//! ```text
//! sbx bench <name> [--cores N] [--bundles N] [--bundle-rows N]
//!                  [--nic rdma|eth|unlimited] [--mode hybrid|caching|dram|nokpa]
//!                  [--grouping sort|hash|row|adaptive]
//!                  [--keys N] [--rate N] [--samples-csv PATH]
//!                  [--checkpoint-interval N] [--hbm-mib N]
//!                  [--metrics-out PATH] [--trace-out PATH] [--incidents-out PATH]
//! sbx recover <name> [--crash-after-bundles N] [--checkpoint-interval N]
//!                    [bench flags]
//! sbx cluster <name> [--shards N] [--slots N] [--bundles N] [--bundle-rows N]
//!                    [--interval N] [--keys N] [--rate N] [--skew THETA]
//!                    [--rescale-at EPOCH] [--rescale-to N] [--rebalance TOL]
//!                    [--link rdma|eth|unlimited] [--cores N]
//!                    [--metrics-out PATH] [--trace-out PATH] [--health-out PATH]
//!                    [--incidents-out PATH]
//! sbx report <metrics.jsonl> [--timeline] [--critical-path <spans.jsonl>]
//!                            [--cluster-critical-path <stitched.jsonl>]
//!                            [--health] [--incidents <incidents.jsonl>] [--top N]
//! sbx figure <2|7|8|9|10|11|ablation>
//! sbx machines
//! sbx list
//! ```
//!
//! `recover` crashes the run after the given bundle count, restores the
//! latest barrier snapshot, resumes, and verifies the committed outputs
//! are byte-identical to a fault-free run (exactly-once).
//!
//! `--metrics-out` exports the run's metrics registry as JSONL;
//! `--trace-out` additionally records one span per operator invocation
//! (in simulated time) and writes a Chrome trace loadable in Perfetto —
//! or span JSONL if the path ends in `.jsonl`. `sbx report` rebuilds the
//! run summary and the Figure-10 time series purely from an exported
//! metrics file; `--timeline` adds the per-round memory-tier timeline,
//! and `--critical-path <spans.jsonl>` runs critical-path attribution
//! over a span JSONL export (top-k controlled by `--top`). Because every
//! exported value is simulated-time, both renderings are byte-identical
//! across same-seed runs.
//!
//! `cluster` runs a benchmark sharded across N per-shard engines behind
//! the hash-slot router (`sbx-cluster`), optionally cutting a coordinated
//! epoch mid-run to grow/shrink (`--rescale-at` + `--rescale-to`) or to
//! rebalance hot slots (`--rescale-at` + `--rebalance`); `--skew` draws
//! keys from a Zipf distribution to manufacture a hot shard. A metrics
//! export of a cluster run feeds `sbx report`, which renders the
//! per-shard occupancy/skew table and per-link utilization purely from
//! the exported `cluster.*` counters.
//!
//! Cluster observability (DESIGN.md §13): `sbx cluster --trace-out PATH`
//! records every shard engine's span stream, stitches them with priced
//! fabric spans (barrier-alignment waits and shuffle link transfers)
//! into one cluster trace, and writes span JSONL (`.jsonl` paths) or a
//! Perfetto trace with one track per shard plus a fabric track;
//! `--health-out PATH` writes the shard-health detector report as
//! deterministic JSONL. `sbx report --cluster-critical-path
//! <stitched.jsonl>` runs the distributed critical-path analysis, whose
//! {compute, shuffle, barrier-wait, straggler-slack, fabric} split
//! partitions the simulated makespan exactly; `--health` re-evaluates
//! the health detectors from the metrics export.
//!
//! Incidents (DESIGN.md §15): every run carries an always-on flight
//! recorder whose online anomaly detectors (spill storms, output-delay
//! surges, watermark stalls, HBM pressure, backpressure) fire at round
//! boundaries; `--incidents-out PATH` writes the captured incident
//! reports — verdict plus the frozen evidence window — as deterministic
//! JSONL (same-seed runs write the same bytes). On `sbx cluster` the
//! file also folds in the fabric-level health signals. `--hbm-mib N`
//! shrinks the simulated HBM capacity to manufacture degraded runs.
//! `sbx report --incidents <incidents.jsonl>` renders the stories.

// sbx-lint: out-of-scope(no-panic, CLI entry point; bad arguments abort with a message)
// sbx-lint: out-of-scope(raw-alloc, CLI-side reporting and table formatting)
// Reporting binaries talk to stdout by design.
// sbx-lint: allow-file(no-adhoc-io, CLI front-end reports to stdout by design)
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::process::ExitCode;

use streambox_hbm::prelude::*;

const BENCHMARKS: [&str; 10] = [
    "topk",
    "sum",
    "median",
    "avg",
    "avg-all",
    "unique",
    "join",
    "filter",
    "power-grid",
    "ysb",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sbx bench <name> [--cores N] [--bundles N] [--bundle-rows N]\n\
         \x20                [--nic rdma|eth|unlimited] [--mode hybrid|caching|dram|nokpa]\n\
         \x20                [--grouping sort|hash|row|adaptive] (sum and ysb)\n\
         \x20                [--keys N] [--rate N] [--checkpoint-interval N] [--hbm-mib N]\n\
         \x20                [--metrics-out PATH] [--trace-out PATH] [--incidents-out PATH]\n\
         \x20 sbx recover <name> [--crash-after-bundles N] [--checkpoint-interval N]\n\
         \x20                [bench flags]\n\
         \x20 sbx cluster <name> [--shards N] [--slots N] [--bundles N] [--bundle-rows N]\n\
         \x20                [--interval N] [--keys N] [--rate N] [--skew THETA]\n\
         \x20                [--rescale-at EPOCH] [--rescale-to N] [--rebalance TOL]\n\
         \x20                [--link rdma|eth|unlimited] [--cores N] [--metrics-out PATH]\n\
         \x20                [--trace-out PATH] [--health-out PATH] [--incidents-out PATH]\n\
         \x20 sbx report <metrics.jsonl> [--timeline] [--critical-path <spans.jsonl>] [--top N]\n\
         \x20                [--cluster-critical-path <stitched.jsonl>] [--health]\n\
         \x20                [--incidents <incidents.jsonl>]\n\
         \x20 sbx figure <2|7|8|9|10|11|ablation>\n  sbx machines\n  sbx list\n\n\
         benchmarks: {}",
        BENCHMARKS.join(", ")
    );
    ExitCode::from(2)
}

#[derive(Debug, Clone)]
struct BenchArgs {
    name: String,
    cores: u32,
    bundles: usize,
    bundle_rows: usize,
    nic: NicModel,
    mode: EngineMode,
    grouping: GroupingSpec,
    keys: u64,
    rate: u64,
    samples_csv: Option<String>,
    checkpoint_interval: Option<u64>,
    crash_after: Option<u64>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// Flight-recorder incident report (deterministic JSONL).
    incidents_out: Option<String>,
    /// Shrink the simulated HBM capacity to N MiB (degraded-machine runs
    /// for incident demos; costs/bandwidths are untouched).
    hbm_mib: Option<u64>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            name: String::new(),
            cores: 64,
            bundles: 50,
            bundle_rows: 20_000,
            nic: NicModel::rdma_40g(),
            mode: EngineMode::Hybrid,
            grouping: GroupingSpec::SortMerge,
            keys: 10_000,
            rate: 20_000_000,
            samples_csv: None,
            checkpoint_interval: None,
            crash_after: None,
            metrics_out: None,
            trace_out: None,
            incidents_out: None,
            hbm_mib: None,
        }
    }
}

/// Walks the flags after a subcommand's positional argument: each flag in
/// `switches` stands alone, every other flag takes the next argument as its
/// value. `on` receives `(flag, value)` (an empty value for a switch).
fn walk_flags(
    args: &[String],
    switches: &[&str],
    mut on: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        if switches.contains(&flag.as_str()) {
            on(flag, "")?;
        } else {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            on(flag, value)?;
        }
    }
    Ok(())
}

/// Parses a flag's value, naming the flag on failure.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

/// [`parsed`] for a count that must be at least one.
fn positive(flag: &str, value: &str) -> Result<u64, String> {
    match parsed(flag, value)? {
        0 => Err(format!("{flag} must be positive")),
        n => Ok(n),
    }
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs {
        name: args.first().cloned().unwrap_or_default(),
        ..Default::default()
    };
    if !BENCHMARKS.contains(&out.name.as_str()) {
        return Err(format!("unknown benchmark '{}'", out.name));
    }
    walk_flags(args, &[], |flag, value| {
        match flag {
            "--cores" => out.cores = parsed(flag, value)?,
            "--bundles" => out.bundles = parsed(flag, value)?,
            "--bundle-rows" => out.bundle_rows = parsed(flag, value)?,
            "--keys" => out.keys = parsed(flag, value)?,
            "--rate" => out.rate = parsed(flag, value)?,
            "--samples-csv" => out.samples_csv = Some(value.to_owned()),
            "--metrics-out" => out.metrics_out = Some(value.to_owned()),
            "--trace-out" => out.trace_out = Some(value.to_owned()),
            "--incidents-out" => out.incidents_out = Some(value.to_owned()),
            "--hbm-mib" => out.hbm_mib = Some(positive(flag, value)?),
            "--checkpoint-interval" => out.checkpoint_interval = Some(positive(flag, value)?),
            "--crash-after-bundles" => out.crash_after = Some(parsed(flag, value)?),
            "--nic" => {
                out.nic = match value {
                    "rdma" => NicModel::rdma_40g(),
                    "eth" => NicModel::ethernet_10g(),
                    "unlimited" => NicModel::unlimited(),
                    other => return Err(format!("unknown nic '{other}'")),
                }
            }
            "--mode" => {
                out.mode = match value {
                    "hybrid" => EngineMode::Hybrid,
                    "caching" => EngineMode::CachingKpa,
                    "dram" => EngineMode::DramOnly,
                    "nokpa" => EngineMode::CachingNoKpa,
                    other => return Err(format!("unknown mode '{other}'")),
                }
            }
            "--grouping" => {
                out.grouping = GroupingSpec::parse(value)
                    .ok_or_else(|| format!("unknown grouping '{value}'"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        Ok(())
    })?;
    Ok(out)
}

fn pipeline_for(name: &str) -> Pipeline {
    match name {
        "topk" => benchmarks::topk_per_key(3),
        "sum" => benchmarks::sum_per_key(),
        "median" => benchmarks::median_per_key(),
        "avg" => benchmarks::avg_per_key(),
        "avg-all" => benchmarks::avg_all(),
        "unique" => benchmarks::unique_count_per_key(),
        "join" => benchmarks::temporal_join(),
        "filter" => benchmarks::windowed_filter(),
        "power-grid" => benchmarks::power_grid(),
        "ysb" => benchmarks::ysb(1_000),
        _ => unreachable!("validated"),
    }
}

/// [`pipeline_for`] honoring `--grouping`: the non-default backends are
/// wired for the keyed-aggregation benchmarks with grouped constructors.
fn grouped_pipeline_for(name: &str, grouping: GroupingSpec) -> Result<Pipeline, String> {
    if grouping == GroupingSpec::SortMerge {
        return Ok(pipeline_for(name));
    }
    match name {
        "sum" => Ok(benchmarks::sum_per_key_grouped(grouping)),
        "ysb" => Ok(benchmarks::ysb_grouped(1_000, grouping)),
        _ => Err(format!(
            "--grouping {} is only wired for benchmarks 'sum' and 'ysb'",
            grouping.label()
        )),
    }
}

/// Runs a single-stream benchmark, checkpointed when `interval` is set.
fn run_single<S: Source>(
    engine: Engine,
    src: S,
    pipeline: Pipeline,
    bundles: usize,
    interval: Option<u64>,
    coord: &mut CheckpointCoordinator,
) -> Result<RunReport, streambox_hbm::engine::EngineError> {
    match interval {
        Some(iv) => engine.run_with_hooks(src, pipeline, bundles, Some(iv), coord),
        None => engine.run(src, pipeline, bundles),
    }
}

fn run_bench(a: BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    // Tracing implies metrics; metrics alone keep the parallel prefix.
    let obs = if a.trace_out.is_some() {
        Obs::enabled()
    } else if a.metrics_out.is_some() {
        Obs::metrics_only()
    } else {
        Obs::noop()
    };
    let mut machine = MachineConfig::knl();
    if let Some(mib) = a.hbm_mib {
        machine.hbm.capacity_bytes = mib * 1024 * 1024;
    }
    let mut cfg = RunConfig {
        machine,
        cores: a.cores,
        mode: a.mode,
        sender: SenderConfig {
            bundle_rows: a.bundle_rows,
            bundles_per_watermark: 10,
            nic: a.nic,
        },
        obs: obs.clone(),
        ..RunConfig::default()
    };
    if a.incidents_out.is_some() {
        // Incident artifacts promise byte-identical same-seed exports;
        // pool placement under host-thread interleaving is the one
        // non-simulated input the recorder can see, so pin the serial
        // spine (the same pinning the fig10/cluster exports use).
        cfg.threads = 1;
    }
    if a.crash_after.is_some() {
        return Err("--crash-after-bundles only applies to 'sbx recover'".into());
    }
    let ck = a.checkpoint_interval;
    if ck.is_some() && matches!(a.name.as_str(), "join" | "filter") {
        return Err("--checkpoint-interval is not supported for two-stream benchmarks".into());
    }
    println!(
        "running '{}' on {} ({} cores, {}, {})",
        a.name, cfg.machine.name, a.cores, a.nic.name, a.mode
    );
    let engine = Engine::new(cfg);
    let pipeline = grouped_pipeline_for(&a.name, a.grouping)?;
    let mut coord = CheckpointCoordinator::new();
    let report = match a.name.as_str() {
        "join" | "filter" => {
            let l = KvSource::new(1, a.keys, a.rate).with_value_range(1_000_000);
            let r = KvSource::new(2, a.keys, a.rate).with_value_range(1_000_000);
            engine.run_pair(l, r, pipeline, a.bundles / 2)?
        }
        "power-grid" => run_single(
            engine,
            PowerGridSource::new(1, 100, 20, a.rate),
            pipeline,
            a.bundles,
            ck,
            &mut coord,
        )?,
        "ysb" => run_single(
            engine,
            YsbSource::new(1, 10_000, 1_000, a.rate),
            pipeline,
            a.bundles,
            ck,
            &mut coord,
        )?,
        _ => run_single(
            engine,
            KvSource::new(1, a.keys, a.rate).with_value_range(1_000_000),
            pipeline,
            a.bundles,
            ck,
            &mut coord,
        )?,
    };
    println!(
        "  throughput     : {:>10.2} M records/s ({} records in {:.4} s simulated)",
        report.throughput_mrps(),
        report.records_in,
        report.sim_secs
    );
    println!(
        "  windows        : {:>10} closed, {} output records",
        report.windows_closed, report.output_records
    );
    println!(
        "  bandwidth peak : {:>10.1} GB/s HBM, {:.1} GB/s DRAM",
        report.peak_hbm_bw_gbps, report.peak_dram_bw_gbps
    );
    if report.windows_closed == 0 {
        // No window ever closed, so there are no delay observations:
        // zeros here would read as "instant", which is the opposite of
        // the truth.
        println!("  output delay   : {:>10} (no windows closed)", "n/a");
        println!("  delay quantiles: {:>10}", "n/a");
    } else {
        println!(
            "  output delay   : {:>10.4} s max ({:.4} s avg)",
            report.max_output_delay_secs, report.avg_output_delay_secs
        );
        println!(
            "  delay quantiles: {:>10.4} s p50, {:.4} s p95, {:.4} s p99",
            report.p50_output_delay_secs,
            report.p95_output_delay_secs,
            report.p99_output_delay_secs
        );
    }
    println!(
        "  HBM peak used  : {:>10} KiB (round-boundary peak)",
        report.hbm_peak_used_bytes / 1024
    );
    if let Some(s) = report.samples.last() {
        println!("  knob (k_low, k_high): ({:.2}, {:.2})", s.k_low, s.k_high);
    }
    if ck.is_some() {
        println!(
            "  checkpoints    : {:>10} committed, last epoch {}, {} KiB store ({} KiB DRAM used)",
            coord.samples().len(),
            coord.store().latest_epoch().unwrap_or(0),
            coord.store().total_bytes() / 1024,
            coord
                .samples()
                .last()
                .map_or(0, |s| s.dram_used_bytes / 1024),
        );
    }
    if let Some(path) = &a.samples_csv {
        let mut csv = streambox_hbm::obs::round::columns(&ROUND_VIEW).join(",") + "\n";
        for s in &report.samples {
            csv.push_str(&s.row(&ROUND_VIEW).map(|v| v.to_string()).join(","));
            csv.push('\n');
        }
        std::fs::write(path, csv)?;
        println!("  samples        : written to {path}");
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, obs.metrics.export_jsonl())?;
        println!("  metrics        : written to {path}");
    }
    if let Some(path) = &a.trace_out {
        // Span JSONL for `.jsonl` paths; Chrome trace (Perfetto) otherwise.
        let text = if path.ends_with(".jsonl") {
            obs.trace.export_jsonl()
        } else {
            obs.trace.export_chrome()
        };
        std::fs::write(path, text)?;
        println!(
            "  trace          : {} spans written to {path}",
            obs.trace.len()
        );
    }
    if let Some(path) = &a.incidents_out {
        let incidents = IncidentReport::new(obs.recorder.incidents());
        std::fs::write(path, incidents.to_jsonl())?;
        println!(
            "  incidents      : {} incident(s) written to {path}",
            incidents.len()
        );
    }
    Ok(())
}

/// Arguments of `sbx cluster`.
#[derive(Debug, Clone, PartialEq)]
struct ClusterArgs {
    name: String,
    shards: u32,
    slots: u32,
    bundles: usize,
    bundle_rows: usize,
    interval: u64,
    keys: u64,
    rate: u64,
    cores: u32,
    /// Zipf theta for the key draw; uniform keys when absent.
    skew: Option<f64>,
    /// Coordinated epoch to rescale at.
    rescale_at: Option<u64>,
    /// Grow/shrink target shard count.
    rescale_to: Option<u32>,
    /// Hot-shard rebalance tolerance (× mean load).
    rebalance: Option<f64>,
    link: LinkModel,
    metrics_out: Option<String>,
    /// Stitched cluster trace output: span JSONL for `.jsonl` paths,
    /// Chrome trace (Perfetto) otherwise.
    trace_out: Option<String>,
    /// Shard-health detector report (deterministic JSONL).
    health_out: Option<String>,
    /// Flight-recorder incident report (per-shard incidents plus the
    /// fabric-level health signals, deterministic JSONL).
    incidents_out: Option<String>,
}

impl Default for ClusterArgs {
    fn default() -> Self {
        ClusterArgs {
            name: String::new(),
            shards: 4,
            slots: 64,
            bundles: 40,
            bundle_rows: 20_000,
            interval: 5,
            // Millions of simulated users: the cluster's reason to exist.
            keys: 2_000_000,
            rate: 20_000_000,
            cores: 16,
            skew: None,
            rescale_at: None,
            rescale_to: None,
            rebalance: None,
            link: LinkModel::intra_rack_rdma(),
            metrics_out: None,
            trace_out: None,
            health_out: None,
            incidents_out: None,
        }
    }
}

fn parse_cluster_args(args: &[String]) -> Result<ClusterArgs, String> {
    let mut out = ClusterArgs {
        name: args.first().cloned().unwrap_or_default(),
        ..Default::default()
    };
    if !BENCHMARKS.contains(&out.name.as_str()) {
        return Err(format!("unknown benchmark '{}'", out.name));
    }
    if matches!(out.name.as_str(), "join" | "filter") {
        return Err("cluster supports single-stream benchmarks only".into());
    }
    walk_flags(args, &[], |flag, value| {
        match flag {
            "--shards" => out.shards = parsed(flag, value)?,
            "--slots" => out.slots = parsed(flag, value)?,
            "--bundles" => out.bundles = parsed(flag, value)?,
            "--bundle-rows" => out.bundle_rows = parsed(flag, value)?,
            "--interval" => out.interval = parsed(flag, value)?,
            "--keys" => out.keys = parsed(flag, value)?,
            "--rate" => out.rate = parsed(flag, value)?,
            "--cores" => out.cores = parsed(flag, value)?,
            "--skew" => out.skew = Some(parsed(flag, value)?),
            "--rescale-at" => out.rescale_at = Some(parsed(flag, value)?),
            "--rescale-to" => out.rescale_to = Some(parsed(flag, value)?),
            "--rebalance" => out.rebalance = Some(parsed(flag, value)?),
            "--metrics-out" => out.metrics_out = Some(value.to_owned()),
            "--trace-out" => out.trace_out = Some(value.to_owned()),
            "--health-out" => out.health_out = Some(value.to_owned()),
            "--incidents-out" => out.incidents_out = Some(value.to_owned()),
            "--link" => {
                out.link = match value {
                    "rdma" => LinkModel::intra_rack_rdma(),
                    "eth" => LinkModel::cross_rack_10g(),
                    "unlimited" => LinkModel::unlimited(),
                    other => return Err(format!("unknown link '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        Ok(())
    })?;
    if out.shards == 0 {
        return Err("--shards must be positive".into());
    }
    if !(1..=64).contains(&out.shards) {
        return Err("--shards must be in 1..=64".into());
    }
    if out.interval == 0 {
        return Err("--interval must be positive".into());
    }
    if out.rescale_to.is_some() && out.rebalance.is_some() {
        return Err("--rescale-to and --rebalance are mutually exclusive".into());
    }
    if out.rescale_at.is_some() && out.rescale_to.is_none() && out.rebalance.is_none() {
        return Err("--rescale-at needs --rescale-to or --rebalance".into());
    }
    if out.rescale_at.is_none() && (out.rescale_to.is_some() || out.rebalance.is_some()) {
        return Err("--rescale-to/--rebalance need --rescale-at".into());
    }
    Ok(out)
}

fn run_cluster(a: ClusterArgs) -> Result<(), Box<dyn std::error::Error>> {
    use std::sync::Arc;

    // Health detectors are pure functions of the cluster metrics, so
    // `--health-out` implies an active registry even without
    // `--metrics-out`; `--incidents-out` folds the fabric-level health
    // signals into the incident report, so it implies one too.
    let metrics = if a.metrics_out.is_some() || a.health_out.is_some() || a.incidents_out.is_some()
    {
        MetricsRegistry::active()
    } else {
        MetricsRegistry::noop()
    };
    // YSB aggregates per campaign, so the cluster must route records (and
    // shuffle state) by the ad→campaign projection, not the raw ad id.
    const YSB_CAMPAIGNS: u64 = 1_000;
    let (key_col, key_map): (usize, Option<streambox_hbm::cluster::KeyMap>) = if a.name == "ysb" {
        (2, Some(Arc::new(|ad| ad % YSB_CAMPAIGNS)))
    } else {
        (0, None)
    };
    let cfg = ClusterConfig {
        shards: a.shards,
        slots: a.slots,
        key_col,
        key_map,
        engine: RunConfig {
            machine: MachineConfig::knl(),
            cores: a.cores,
            // One worker thread per shard engine: exported HBM-placement
            // gauges must not depend on host-contention-sensitive KPA
            // placement interleaving, so same-seed runs export the same
            // bytes (see the fig10 tests for the same pinning).
            threads: 1,
            sender: SenderConfig {
                bundle_rows: a.bundle_rows,
                bundles_per_watermark: 10,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        },
        link: a.link,
        metrics: metrics.clone(),
        trace: a.trace_out.is_some(),
    };
    let plan = a.rescale_at.map(|at_epoch| ElasticPlan {
        at_epoch,
        retarget: match (a.rescale_to, a.rebalance) {
            (Some(n), _) => Retarget::Shards(n),
            (None, Some(tolerance)) => Retarget::Rebalance { tolerance },
            (None, None) => unreachable!("validated"),
        },
    });
    println!(
        "clustering '{}' across {} shards ({} slots, {} keys, link {}{})",
        a.name,
        a.shards,
        a.slots,
        a.keys,
        a.link.nic.name,
        a.skew.map_or(String::new(), |t| format!(", zipf {t}")),
    );
    let cluster = ShardedCluster::new(cfg);
    let name = a.name.clone();
    let mk_pipe = move || {
        if name == "ysb" {
            benchmarks::ysb(YSB_CAMPAIGNS)
        } else {
            pipeline_for(&name)
        }
    };
    let run = |mk_src: &dyn Fn() -> KvSource| match plan {
        Some(p) => cluster.run_elastic(mk_src, &mk_pipe, a.bundles, a.interval, p),
        None => cluster.run(mk_src, &mk_pipe, a.bundles, a.interval),
    };
    let report = match a.name.as_str() {
        "ysb" => {
            let mk_src = || YsbSource::new(1, a.keys, YSB_CAMPAIGNS, a.rate);
            match plan {
                Some(p) => cluster.run_elastic(mk_src, &mk_pipe, a.bundles, a.interval, p)?,
                None => cluster.run(mk_src, &mk_pipe, a.bundles, a.interval)?,
            }
        }
        "power-grid" => {
            let mk_src = || PowerGridSource::new(1, a.keys.max(1), 20, a.rate);
            match plan {
                Some(p) => cluster.run_elastic(mk_src, &mk_pipe, a.bundles, a.interval, p)?,
                None => cluster.run(mk_src, &mk_pipe, a.bundles, a.interval)?,
            }
        }
        _ => {
            let skew = a.skew;
            let keys = a.keys;
            let rate = a.rate;
            let mk_src = move || {
                let src = KvSource::new(1, keys, rate).with_value_range(1_000_000);
                match skew {
                    Some(theta) => src.with_zipf(theta),
                    None => src,
                }
            };
            run(&mk_src)?
        }
    };
    println!(
        "  cluster        : {:>10.2} M records/s ({} records, {} outputs, {:.4} s simulated)",
        report.throughput_rps() / 1e6,
        report.records_in,
        report.output_records,
        report.sim_secs
    );
    let shard_table = |label: &str, shards: &[streambox_hbm::cluster::ShardSummary]| {
        let total: u64 = shards.iter().map(|s| s.records_in).sum();
        println!("  {label}:");
        println!(
            "    {:>5} {:>12} {:>7} {:>10} {:>8} {:>9}",
            "shard", "records", "share%", "outputs", "crashes", "sim_secs"
        );
        for s in shards {
            println!(
                "    {:>5} {:>12} {:>7.2} {:>10} {:>8} {:>9.4}",
                s.shard,
                s.records_in,
                100.0 * s.records_in as f64 / total.max(1) as f64,
                s.output_records,
                s.crashes,
                s.sim_secs
            );
        }
    };
    if let Some(r) = &report.rescale {
        shard_table("shards before the cut", &report.phase1);
        println!(
            "  rescale        : {} -> {} shards at epoch {}, {} slots moved",
            r.from_shards,
            r.to_shards,
            r.at_epoch,
            r.moved_slots.len()
        );
        println!(
            "  shuffle        : {} KiB over links, {} KiB local, {:.6} s simulated",
            r.wire_bytes / 1024,
            r.local_bytes / 1024,
            r.shuffle_ns as f64 / 1e9
        );
        for (src, dst, bytes) in &r.links {
            println!("    link {src}->{dst}: {:>10} KiB", bytes / 1024);
        }
        shard_table("shards after the cut", &report.shards);
    } else {
        shard_table("shard table", &report.shards);
    }
    let hot_slots = {
        let mut slots: Vec<(usize, u64)> = report
            .slot_loads
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, l)| *l > 0)
            .collect();
        slots.sort_by_key(|&(slot, load)| (u64::MAX - load, slot));
        slots.truncate(5);
        slots
    };
    if !hot_slots.is_empty() {
        let hottest: Vec<String> = hot_slots
            .iter()
            .map(|(slot, load)| format!("{slot}:{load}"))
            .collect();
        println!("  hottest slots  : {}", hottest.join(", "));
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, metrics.export_jsonl())?;
        println!("  metrics        : written to {path}");
    }
    if let Some(path) = &a.trace_out {
        let trace = report.trace.as_ref().ok_or("cluster trace missing")?;
        // Span JSONL for `.jsonl` paths; Chrome trace (Perfetto) otherwise.
        let text = if path.ends_with(".jsonl") {
            trace.export_jsonl()
        } else {
            trace.export_chrome()
        };
        std::fs::write(path, text)?;
        println!(
            "  cluster trace  : {} stitched spans written to {path}",
            trace.spans.len()
        );
    }
    if let Some(path) = &a.health_out {
        let health = HealthReport::compute(&metrics.snapshot());
        std::fs::write(path, health.to_jsonl())?;
        println!(
            "  health         : {} signal(s) written to {path}",
            health.signals.len()
        );
        print!("{}", health.render());
    }
    if let Some(path) = &a.incidents_out {
        // Per-shard recorder incidents first, then the fabric-level
        // health signals as evidence-free verdicts.
        let mut incidents = IncidentReport::new(report.incidents.clone());
        let health = HealthReport::compute(&metrics.snapshot());
        incidents.extend_from_health(&health);
        std::fs::write(path, incidents.to_jsonl())?;
        println!(
            "  incidents      : {} incident(s) written to {path}",
            incidents.len()
        );
    }
    Ok(())
}

/// Arguments of `sbx report`.
#[derive(Debug, Clone, PartialEq)]
struct ReportArgs {
    /// Metrics JSONL export to rebuild the report from.
    path: String,
    /// Render the per-round memory-tier timeline.
    timeline: bool,
    /// Span JSONL export to run critical-path attribution over.
    critical_path: Option<String>,
    /// Stitched cluster-trace JSONL to run the distributed critical-path
    /// analysis over.
    cluster_critical_path: Option<String>,
    /// Re-evaluate the shard-health detectors from the metrics export.
    health: bool,
    /// Incident JSONL export to render the incident stories from.
    incidents: Option<String>,
    /// Top-k rows in the critical-path tables.
    top: usize,
}

fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut out = ReportArgs {
        path: args
            .first()
            .cloned()
            .ok_or_else(|| "report needs a metrics.jsonl path".to_owned())?,
        timeline: false,
        critical_path: None,
        cluster_critical_path: None,
        health: false,
        incidents: None,
        top: 5,
    };
    walk_flags(args, &["--timeline", "--health"], |flag, value| {
        match flag {
            "--timeline" => out.timeline = true,
            "--health" => out.health = true,
            "--critical-path" => out.critical_path = Some(value.to_owned()),
            "--cluster-critical-path" => out.cluster_critical_path = Some(value.to_owned()),
            "--incidents" => out.incidents = Some(value.to_owned()),
            "--top" => out.top = parsed(flag, value)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
        Ok(())
    })?;
    Ok(out)
}

/// `sbx report`: rebuilds a run summary and the Figure-10 time series
/// purely from a metrics JSONL export; optionally renders the memory-tier
/// timeline and span critical-path attribution.
fn run_report(a: &ReportArgs) -> Result<(), Box<dyn std::error::Error>> {
    let path = a.path.as_str();
    let text = std::fs::read_to_string(path)?;
    let dump = MetricsDump::parse_jsonl(&text)?;
    println!("report from {path}");
    let c = |name: &str| dump.counter(name).unwrap_or(0);
    println!(
        "  input          : {:>10} records in {} bundles",
        c("engine.records_in"),
        c("engine.bundles_in")
    );
    println!(
        "  windows        : {:>10} closed, {} output records",
        c("engine.windows_closed"),
        c("engine.output_records")
    );
    let gmax = |name: &str| dump.gauge(name).map_or(0.0, |g| g.max);
    println!(
        "  bandwidth peak : {:>10.1} GB/s HBM, {:.1} GB/s DRAM",
        gmax("engine.hbm_bw_gbps"),
        gmax("engine.dram_bw_gbps")
    );
    println!(
        "  HBM peak used  : {:>10.0} KiB (round-boundary peak)",
        gmax("engine.hbm_used_bytes") / 1024.0
    );
    if let Some(h) = dump.histogram("engine.output_delay_secs") {
        if h.snapshot.count == 0 {
            // No delay observations: zeros would read as "instant".
            println!("  output delay   : {:>10} (no windows closed)", "n/a");
            println!("  delay quantiles: {:>10}", "n/a");
        } else {
            println!(
                "  output delay   : {:>10.4} s max ({:.4} s avg, {} windows)",
                h.snapshot.max,
                h.snapshot.mean(),
                h.snapshot.count
            );
            let [p50, p95, p99] = h.snapshot.percentiles();
            println!("  delay quantiles: {p50:>10.4} s p50, {p95:.4} s p95, {p99:.4} s p99");
        }
    }
    let ops: Vec<&(String, u64)> = dump
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("op.") && name.ends_with(".invocations"))
        .collect();
    if !ops.is_empty() {
        println!("  operators:");
        for (name, invocations) in ops {
            let stem = name.trim_end_matches("invocations");
            println!(
                "    {:<28} {:>8} invocations, {:>10} records in, {:>10} out",
                name.trim_start_matches("op.")
                    .trim_end_matches(".invocations"),
                invocations,
                c(&format!("{stem}records_in")),
                c(&format!("{stem}records_out"))
            );
        }
    }
    let samples = RoundPoint::from_series(&ROUND_VIEW, dump.series(ROUND_SERIES));
    if samples.is_empty() {
        println!("  no 'engine.round' series: Figure-10 table unavailable");
    } else {
        println!("  figure-10 series ({} rounds):", samples.len());
        println!(
            "    {:>8} {:>9} {:>12} {:>8} {:>8} {:>6} {:>6} {:>10}",
            "at_secs", "hbm_use", "hbm_KiB", "dram_bw", "hbm_bw", "k_low", "k_high", "records"
        );
        for s in &samples {
            println!(
                "    {:>8.3} {:>9.3} {:>12} {:>8.1} {:>8.1} {:>6.2} {:>6.2} {:>10}",
                s.at_secs,
                s.hbm_occupancy,
                s.hbm_used_bytes as u64 / 1024,
                s.dram_bw_gbps,
                s.hbm_bw_gbps,
                s.k_low,
                s.k_high,
                s.records
            );
        }
    }
    cluster_report(&dump);
    if a.timeline {
        print!("{}", Timeline::from_dump(&dump).render());
    }
    if let Some(spans_path) = &a.critical_path {
        let spans_text = std::fs::read_to_string(spans_path)?;
        let spans = parse_spans_jsonl(&spans_text)?;
        println!("critical path from {spans_path} ({} spans)", spans.len());
        print!(
            "{}",
            CriticalPath::compute(&spans).render(a.top, Some(&dump))
        );
    }
    if let Some(spans_path) = &a.cluster_critical_path {
        let spans_text = std::fs::read_to_string(spans_path)?;
        let spans = parse_cluster_spans_jsonl(&spans_text)?;
        let trace = ClusterTrace { spans };
        println!(
            "distributed critical path from {spans_path} ({} spans)",
            trace.spans.len()
        );
        print!("{}", ClusterCriticalPath::compute(&trace).render(a.top));
    }
    if a.health {
        print!("{}", HealthReport::compute(&dump).render());
    }
    if let Some(incidents_path) = &a.incidents {
        let incidents_text = std::fs::read_to_string(incidents_path)?;
        let incidents = IncidentReport::parse_jsonl(&incidents_text)?;
        println!(
            "incidents from {incidents_path} ({} incident(s))",
            incidents.len()
        );
        print!("{}", incidents.render());
    }
    Ok(())
}

/// Renders the cluster tier's shard occupancy/skew table and per-link
/// utilization, derived purely from exported `cluster.*` counters (absent
/// for single-engine runs). Deterministic: same-seed runs export the same
/// bytes, so this section renders identically.
fn cluster_report(dump: &MetricsDump) {
    let shards = dump.gauge("cluster.shards").map_or(0.0, |g| g.value) as u32;
    if shards == 0 {
        return;
    }
    let c = |name: &str| dump.counter(name).unwrap_or(0);
    let slots = dump.gauge("cluster.slots").map_or(0.0, |g| g.value) as u32;
    println!("  cluster        : {shards} shards over {slots} slots");
    let per_shard: Vec<(u32, u64, u64, u64)> = (0..shards)
        .map(|s| {
            (
                s,
                c(&format!("cluster.shard{s}.records_in")),
                c(&format!("cluster.shard{s}.output_records")),
                c(&format!("cluster.shard{s}.crashes")),
            )
        })
        .collect();
    let total: u64 = per_shard.iter().map(|(_, r, _, _)| r).sum();
    let max = per_shard.iter().map(|(_, r, _, _)| *r).max().unwrap_or(0);
    println!(
        "    {:>5} {:>12} {:>7} {:>10} {:>8}",
        "shard", "records", "share%", "outputs", "crashes"
    );
    for (s, records, outputs, crashes) in &per_shard {
        println!(
            "    {:>5} {:>12} {:>7.2} {:>10} {:>8}",
            s,
            records,
            100.0 * *records as f64 / total.max(1) as f64,
            outputs,
            crashes
        );
    }
    let mean = total as f64 / f64::from(shards.max(1));
    println!(
        "    skew           : max/mean {:.3} (hot shard {:.2}% of traffic)",
        max as f64 / mean.max(1.0),
        100.0 * max as f64 / total.max(1) as f64
    );
    // Per-shard output-delay quantiles and straggler scores, from the
    // adopted per-shard engine histograms and round series. Same-seed
    // runs export the same bytes, so the table renders identically.
    let last_at = |s: u32| -> Option<f64> {
        let name = format!("cluster.shard{s}.engine.engine.round");
        let series = dump.series.iter().find(|d| d.name == name)?;
        let col = series.field_index("at_secs")?;
        series.rows.last().and_then(|row| row.get(col).copied())
    };
    let delays: Vec<(u32, [f64; 3], u64, Option<f64>)> = (0..shards)
        .filter_map(|s| {
            let h = dump.histogram(&format!("cluster.shard{s}.engine.engine.output_delay_secs"))?;
            Some((s, h.snapshot.percentiles(), h.snapshot.count, last_at(s)))
        })
        .collect();
    if !delays.is_empty() {
        let finish_mean = {
            let finished: Vec<f64> = delays.iter().filter_map(|(_, _, _, at)| *at).collect();
            if finished.is_empty() {
                0.0
            } else {
                finished.iter().sum::<f64>() / finished.len() as f64
            }
        };
        println!(
            "    {:>5} {:>10} {:>10} {:>10} {:>8} {:>10}",
            "shard", "p50_delay", "p95_delay", "p99_delay", "windows", "straggler"
        );
        for (s, [p50, p95, p99], count, at) in &delays {
            let score = match at {
                Some(at) if finish_mean > 0.0 => format!("{:.2}x", at / finish_mean),
                _ => String::from("-"),
            };
            println!(
                "    {:>5} {:>9.4}s {:>9.4}s {:>9.4}s {:>8} {:>10}",
                s, p50, p95, p99, count, score
            );
        }
    }
    // Hottest slots, from the per-slot routing counters.
    let mut hot: Vec<(u32, u64)> = (0..slots)
        .map(|slot| (slot, c(&format!("cluster.slot{slot}.records"))))
        .filter(|(_, l)| *l > 0)
        .collect();
    hot.sort_by_key(|&(slot, load)| (u64::MAX - load, slot));
    hot.truncate(5);
    if !hot.is_empty() {
        let rendered: Vec<String> = hot
            .iter()
            .map(|(slot, load)| format!("{slot}:{load}"))
            .collect();
        println!("    hottest slots  : {}", rendered.join(", "));
    }
    let wire = c("cluster.shuffle.wire_bytes");
    if c("cluster.rescale.to_shards") > 0 {
        println!(
            "    rescale        : {} -> {} shards at epoch {}, {} slots moved",
            c("cluster.rescale.from_shards"),
            c("cluster.rescale.to_shards"),
            c("cluster.rescale.at_epoch"),
            c("cluster.rescale.moved_slots")
        );
        println!(
            "    shuffle        : {} KiB over links, {} KiB local, {:.6} s simulated",
            wire / 1024,
            c("cluster.shuffle.local_bytes") / 1024,
            c("cluster.shuffle.ns") as f64 / 1e9
        );
        // Per-link utilization rows: every exported cluster.link.S.D.bytes.
        for (name, bytes) in &dump.counters {
            let Some(rest) = name.strip_prefix("cluster.link.") else {
                continue;
            };
            let Some(pair) = rest.strip_suffix(".bytes") else {
                continue;
            };
            let Some((src, dst)) = pair.split_once('.') else {
                continue;
            };
            println!(
                "    link {src}->{dst}      : {:>10} KiB ({:.1}% of shuffle)",
                bytes / 1024,
                100.0 * *bytes as f64 / wire.max(1) as f64
            );
        }
    }
}

/// Crash-injected run followed by recovery and an exactly-once check
/// against a fault-free oracle over the same deterministic stream.
fn recover_demo<S: Source>(
    cfg: &RunConfig,
    mk_src: impl Fn() -> S,
    mk_pipe: impl Fn() -> Pipeline,
    bundles: usize,
    interval: u64,
    crash_after: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut oracle = CheckpointCoordinator::new();
    let base = run_with_recovery(cfg, &mk_src, &mk_pipe, bundles, interval, &mut oracle)?;
    let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(crash_after));
    let out = run_with_recovery(cfg, &mk_src, &mk_pipe, bundles, interval, &mut coord)?;
    println!(
        "  crash+recover  : {} crash(es), resumed from epoch(s) {:?}",
        out.crashes, out.resumed_epochs
    );
    println!(
        "  checkpoints    : {} committed, {} KiB store",
        coord.samples().len(),
        coord.store().total_bytes() / 1024
    );
    println!(
        "  outputs        : {} committed records vs {} fault-free",
        coord.committed().len(),
        oracle.committed().len()
    );
    if coord.committed() != oracle.committed()
        || out.report.records_in != base.report.records_in
        || out.report.output_records != base.report.output_records
    {
        return Err("exactly-once VIOLATED: recovered outputs diverge from fault-free run".into());
    }
    println!("  exactly-once   : VERIFIED (committed outputs byte-identical to fault-free run)");
    Ok(())
}

fn run_recover(a: BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    if matches!(a.name.as_str(), "join" | "filter") {
        return Err("recover supports single-stream benchmarks only".into());
    }
    let interval = a.checkpoint_interval.unwrap_or(10);
    let crash_after = a.crash_after.unwrap_or(a.bundles as u64 / 2);
    let cfg = RunConfig {
        machine: MachineConfig::knl(),
        cores: a.cores,
        mode: a.mode,
        sender: SenderConfig {
            bundle_rows: a.bundle_rows,
            bundles_per_watermark: 10,
            nic: a.nic,
        },
        ..RunConfig::default()
    };
    println!(
        "recovering '{}': crash after bundle {crash_after}, checkpoint every {interval} bundles",
        a.name
    );
    let name = a.name.clone();
    // Validate the grouping/benchmark combination once, up front.
    grouped_pipeline_for(&name, a.grouping)?;
    let mk_pipe = || grouped_pipeline_for(&name, a.grouping).expect("validated above");
    match a.name.as_str() {
        "power-grid" => recover_demo(
            &cfg,
            || PowerGridSource::new(1, 100, 20, a.rate),
            mk_pipe,
            a.bundles,
            interval,
            crash_after,
        ),
        "ysb" => recover_demo(
            &cfg,
            || YsbSource::new(1, 10_000, 1_000, a.rate),
            mk_pipe,
            a.bundles,
            interval,
            crash_after,
        ),
        _ => recover_demo(
            &cfg,
            || KvSource::new(1, a.keys, a.rate).with_value_range(1_000_000),
            mk_pipe,
            a.bundles,
            interval,
            crash_after,
        ),
    }
}

fn run_figure(which: &str) -> Result<(), String> {
    match which {
        "2" => sbx_bench::fig2::run(),
        "7" => sbx_bench::fig7::run(),
        "8" => sbx_bench::fig8::run(),
        "9" => sbx_bench::fig9::run(),
        "10" => sbx_bench::fig10::run(),
        "11" => sbx_bench::fig11::run(),
        "ablation" => sbx_bench::ablation::run(),
        other => return Err(format!("unknown figure '{other}'")),
    };
    Ok(())
}

fn print_machines() {
    for m in [MachineConfig::knl(), MachineConfig::x56()] {
        println!("{}", m.name);
        println!("  cores : {} @ {} GHz", m.cores, m.core_ghz);
        if m.has_hbm {
            println!(
                "  HBM   : {} GiB, {:.0} GB/s, {:.0} ns",
                m.hbm.capacity_bytes >> 30,
                m.hbm.bandwidth_bytes_per_sec / 1e9,
                m.hbm.latency_ns
            );
        }
        println!(
            "  DRAM  : {} GiB, {:.0} GB/s, {:.0} ns",
            m.dram.capacity_bytes >> 30,
            m.dram.bandwidth_bytes_per_sec / 1e9,
            m.dram.latency_ns
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => match parse_bench_args(&args[1..]) {
            Ok(a) => match run_bench(a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("recover") => match parse_bench_args(&args[1..]) {
            Ok(a) => match run_recover(a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("cluster") => match parse_cluster_args(&args[1..]) {
            Ok(a) => match run_cluster(a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("report") => match parse_report_args(&args[1..]) {
            Ok(a) => match run_report(&a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("figure") => match args.get(1) {
            Some(which) => match run_figure(which) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    usage()
                }
            },
            None => usage(),
        },
        Some("machines") => {
            print_machines();
            ExitCode::SUCCESS
        }
        Some("list") => {
            println!("{}", BENCHMARKS.join("\n"));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_bench_args(&s(&[
            "topk",
            "--cores",
            "16",
            "--bundles",
            "8",
            "--bundle-rows",
            "500",
            "--nic",
            "eth",
            "--mode",
            "dram",
            "--keys",
            "42",
            "--rate",
            "1000",
        ]))
        .unwrap();
        assert_eq!(a.cores, 16);
        assert_eq!(a.bundles, 8);
        assert_eq!(a.bundle_rows, 500);
        assert_eq!(a.mode, EngineMode::DramOnly);
        assert_eq!(a.keys, 42);
        assert_eq!(a.rate, 1000);
        assert_eq!(a.nic.name, NicModel::ethernet_10g().name);
    }

    #[test]
    fn parses_samples_csv_flag() {
        let a = parse_bench_args(&s(&["sum", "--samples-csv", "/tmp/x.csv"])).unwrap();
        assert_eq!(a.samples_csv.as_deref(), Some("/tmp/x.csv"));
    }

    #[test]
    fn parses_observability_flags() {
        let a = parse_bench_args(&s(&[
            "sum",
            "--metrics-out",
            "/tmp/m.jsonl",
            "--trace-out",
            "/tmp/t.json",
        ]))
        .unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.jsonl"));
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.json"));
        let plain = parse_bench_args(&s(&["sum"])).unwrap();
        assert!(plain.metrics_out.is_none() && plain.trace_out.is_none());
        assert!(parse_bench_args(&s(&["sum", "--metrics-out"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_bench_args(&s(&["nope"])).is_err());
        assert!(parse_bench_args(&s(&["topk", "--cores"])).is_err());
        assert!(parse_bench_args(&s(&["topk", "--nic", "carrier-pigeon"])).is_err());
        assert!(parse_bench_args(&s(&["topk", "--mode", "quantum"])).is_err());
        assert!(parse_bench_args(&s(&["topk", "--wat", "1"])).is_err());
    }

    #[test]
    fn parses_grouping_flag() {
        let a = parse_bench_args(&s(&["ysb", "--grouping", "adaptive"])).unwrap();
        assert_eq!(a.grouping, GroupingSpec::Adaptive);
        let d = parse_bench_args(&s(&["ysb"])).unwrap();
        assert_eq!(d.grouping, GroupingSpec::SortMerge);
        for g in ["sort", "hash", "row"] {
            assert!(parse_bench_args(&s(&["sum", "--grouping", g])).is_ok());
        }
        assert!(parse_bench_args(&s(&["sum", "--grouping", "btree"])).is_err());
    }

    #[test]
    fn grouping_is_wired_for_keyed_agg_benchmarks() {
        for g in [GroupingSpec::Hash, GroupingSpec::Adaptive] {
            assert!(grouped_pipeline_for("sum", g).is_ok());
            assert!(grouped_pipeline_for("ysb", g).is_ok());
            assert!(grouped_pipeline_for("join", g).is_err());
        }
        // The default backend keeps every benchmark available.
        for name in BENCHMARKS {
            assert!(grouped_pipeline_for(name, GroupingSpec::SortMerge).is_ok());
        }
    }

    #[test]
    fn parses_checkpoint_flags() {
        let a = parse_bench_args(&s(&[
            "topk",
            "--checkpoint-interval",
            "7",
            "--crash-after-bundles",
            "12",
        ]))
        .unwrap();
        assert_eq!(a.checkpoint_interval, Some(7));
        assert_eq!(a.crash_after, Some(12));
        assert!(parse_bench_args(&s(&["topk", "--checkpoint-interval", "0"])).is_err());
        assert!(parse_bench_args(&s(&["topk", "--checkpoint-interval", "x"])).is_err());
    }

    #[test]
    fn parses_report_flags() {
        let a = parse_report_args(&s(&[
            "m.jsonl",
            "--timeline",
            "--critical-path",
            "t.jsonl",
            "--top",
            "3",
        ]))
        .unwrap();
        assert_eq!(a.path, "m.jsonl");
        assert!(a.timeline);
        assert_eq!(a.critical_path.as_deref(), Some("t.jsonl"));
        assert_eq!(a.top, 3);
        let plain = parse_report_args(&s(&["m.jsonl"])).unwrap();
        assert!(!plain.timeline && plain.critical_path.is_none());
        assert_eq!(plain.top, 5);
        assert!(parse_report_args(&s(&[])).is_err());
        assert!(parse_report_args(&s(&["m.jsonl", "--critical-path"])).is_err());
        assert!(parse_report_args(&s(&["m.jsonl", "--top", "x"])).is_err());
        assert!(parse_report_args(&s(&["m.jsonl", "--wat"])).is_err());
    }

    #[test]
    fn parses_cluster_report_flags() {
        let a = parse_report_args(&s(&[
            "m.jsonl",
            "--cluster-critical-path",
            "stitched.jsonl",
            "--health",
        ]))
        .unwrap();
        assert_eq!(a.cluster_critical_path.as_deref(), Some("stitched.jsonl"));
        assert!(a.health);
        let plain = parse_report_args(&s(&["m.jsonl"])).unwrap();
        assert!(plain.cluster_critical_path.is_none() && !plain.health);
        assert!(parse_report_args(&s(&["m.jsonl", "--cluster-critical-path"])).is_err());
    }

    #[test]
    fn parses_cluster_flags() {
        let a = parse_cluster_args(&s(&[
            "ysb",
            "--shards",
            "8",
            "--slots",
            "128",
            "--rescale-at",
            "3",
            "--rescale-to",
            "16",
            "--skew",
            "1.2",
            "--link",
            "eth",
            "--metrics-out",
            "/tmp/c.jsonl",
        ]))
        .unwrap();
        assert_eq!(a.name, "ysb");
        assert_eq!(a.shards, 8);
        assert_eq!(a.slots, 128);
        assert_eq!(a.rescale_at, Some(3));
        assert_eq!(a.rescale_to, Some(16));
        assert_eq!(a.skew, Some(1.2));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/c.jsonl"));
        let plain = parse_cluster_args(&s(&["sum"])).unwrap();
        assert_eq!(plain.shards, 4);
        assert!(plain.rescale_at.is_none() && plain.skew.is_none());
        assert!(plain.trace_out.is_none() && plain.health_out.is_none());
    }

    #[test]
    fn parses_cluster_observability_flags() {
        let a = parse_cluster_args(&s(&[
            "ysb",
            "--trace-out",
            "/tmp/trace.jsonl",
            "--health-out",
            "/tmp/health.jsonl",
        ]))
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(a.health_out.as_deref(), Some("/tmp/health.jsonl"));
        assert!(parse_cluster_args(&s(&["ysb", "--trace-out"])).is_err());
        assert!(parse_cluster_args(&s(&["ysb", "--health-out"])).is_err());
    }

    #[test]
    fn rejects_inconsistent_cluster_flags() {
        // A retarget needs a cut epoch, and vice versa.
        assert!(parse_cluster_args(&s(&["sum", "--rescale-to", "8"])).is_err());
        assert!(parse_cluster_args(&s(&["sum", "--rescale-at", "2"])).is_err());
        // Rescale and rebalance are mutually exclusive retargets.
        assert!(parse_cluster_args(&s(&[
            "sum",
            "--rescale-at",
            "2",
            "--rescale-to",
            "8",
            "--rebalance",
            "1.25",
        ]))
        .is_err());
        assert!(parse_cluster_args(&s(&["sum", "--shards", "0"])).is_err());
        assert!(parse_cluster_args(&s(&["join", "--shards", "2"])).is_err());
        assert!(parse_cluster_args(&s(&["sum", "--link", "pigeon"])).is_err());
        assert!(parse_cluster_args(&s(&["sum", "--wat"])).is_err());
    }

    #[test]
    fn all_listed_benchmarks_have_pipelines() {
        for name in BENCHMARKS {
            let p = pipeline_for(name);
            assert!(!p.is_empty(), "{name}");
        }
    }
}
