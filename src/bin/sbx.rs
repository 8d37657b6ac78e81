//! `sbx` — the StreamBox-HBM command-line driver.
//!
//! ```text
//! sbx bench ysb --cores 32 --metrics-out m.jsonl --trace-out spans.jsonl
//! sbx report m.jsonl --timeline --critical-path spans.jsonl
//! sbx recover sum --crash-after-bundles 11 --checkpoint-interval 3
//! sbx cluster sum --shards 4 --rescale-at 2 --rescale-to 8 --incidents-out i.jsonl
//! ```
//!
//! The command line is two tables, [`COMMANDS`] and [`FLAGS`]. Parsing, the
//! rejection of a flag its subcommand does not take, and the usage text
//! (`sbx` with no arguments) all read them, so what a flag does is said in
//! its row and nowhere else. What the subcommands do:
//!
//! * `bench` runs one benchmark of the suite (`sbx list`) on one engine.
//!   Its exports — metrics registry, one span per operator invocation, the
//!   always-on flight recorder's incidents (DESIGN.md §10, §15) — hold
//!   simulated-time values only, so same-seed runs write the same bytes.
//! * `recover` crashes the run after a given bundle count, restores the
//!   latest barrier snapshot, resumes, and verifies that the committed
//!   outputs are byte-identical to a fault-free run (exactly-once).
//! * `cluster` runs a benchmark sharded across per-shard engines behind
//!   the hash-slot router (`sbx-cluster`), optionally cutting a coordinated
//!   epoch mid-run to grow, shrink or move hot slots. Its trace stitches
//!   every shard's span stream with priced fabric spans (barrier-alignment
//!   waits, shuffle link transfers) into one cluster trace; its incident
//!   file holds the shards' incidents and then the fabric detectors'
//!   verdicts (DESIGN.md §13).
//! * `report` renders from exported files alone: the run summary and the
//!   Figure-10 series, a cluster run's per-shard and per-link tables, the
//!   memory-tier timeline, the critical path of a span export (for a
//!   cluster trace split into compute, shuffle, barrier wait, straggler
//!   slack and fabric, which partition the makespan exactly) and the
//!   incident stories.

// sbx-lint: out-of-scope(no-panic, CLI entry point; bad arguments abort with a message)
// sbx-lint: out-of-scope(raw-alloc, CLI-side reporting and table formatting)
// Reporting binaries talk to stdout by design.
// sbx-lint: allow-file(no-adhoc-io, CLI front-end reports to stdout by design)
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

use streambox_hbm::engine::benchmarks::{Benchmark, SUITE};
use streambox_hbm::prelude::*;

type RunResult = Result<(), Box<dyn Error>>;
/// A subcommand's entry point.
type Run = fn(&Args) -> RunResult;
/// A figure's entry point; it prints its own table.
type Figure = fn() -> String;

/// The subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Bench,
    Recover,
    Cluster,
    Report,
    Figure,
    Machines,
    List,
}

/// Each subcommand: its spelling, the operand it takes (empty for none) and
/// its entry point.
type Command = (Cmd, &'static str, &'static str, Run);

const COMMANDS: [Command; 7] = [
    (Cmd::Bench, "bench", "<benchmark>", run_bench),
    (Cmd::Recover, "recover", "<benchmark>", run_recover),
    (Cmd::Cluster, "cluster", "<benchmark>", run_cluster),
    (Cmd::Report, "report", "<metrics.jsonl>", run_report),
    (Cmd::Figure, "figure", "<figure>", |a| {
        figure(&a.operand)?();
        Ok(())
    }),
    (Cmd::Machines, "machines", "", |_| {
        print_machines();
        Ok(())
    }),
    (Cmd::List, "list", "", |_| {
        SUITE.iter().for_each(|b| println!("{}", b.name));
        Ok(())
    }),
];

/// The figures `sbx figure` regenerates.
const FIGURES: [(&str, Figure); 7] = [
    ("2", sbx_bench::fig2::run),
    ("7", sbx_bench::fig7::run),
    ("8", sbx_bench::fig8::run),
    ("9", sbx_bench::fig9::run),
    ("10", sbx_bench::fig10::run),
    ("11", sbx_bench::fig11::run),
    ("ablation", sbx_bench::ablation::run),
];

fn figure(id: &str) -> Result<Figure, String> {
    let found = FIGURES.iter().find(|(name, _)| *name == id);
    found
        .map(|(_, run)| *run)
        .ok_or_else(|| format!("unknown figure '{id}'"))
}

fn suite_entry(name: &str) -> Result<&'static Benchmark, String> {
    benchmarks::find(name).ok_or_else(|| format!("unknown benchmark '{name}'"))
}

/// Every flag's value, at its subcommand's default until the flag is given.
#[derive(Debug, Clone)]
struct Args {
    cmd: Cmd,
    /// The subcommand's operand: a benchmark name, a metrics export, a
    /// figure id.
    operand: String,
    cores: u32,
    bundles: usize,
    bundle_rows: usize,
    keys: Option<u64>,
    rate: u64,
    nic: NicModel,
    mode: EngineMode,
    grouping: GroupingSpec,
    checkpoint_interval: Option<u64>,
    crash_after: Option<u64>,
    hbm_mib: Option<u64>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    incidents_out: Option<String>,
    shards: u32,
    slots: u32,
    interval: u64,
    skew: Option<f64>,
    rescale_at: Option<u64>,
    rescale_to: Option<u32>,
    rebalance: Option<f64>,
    link: LinkModel,
    timeline: bool,
    critical_path: Option<String>,
    incidents: Option<String>,
    top: usize,
}

impl Args {
    fn new(cmd: Cmd) -> Args {
        let cluster = cmd == Cmd::Cluster;
        Args {
            cmd,
            operand: String::new(),
            cores: if cluster { 16 } else { 64 },
            bundles: if cluster { 40 } else { 50 },
            bundle_rows: 20_000,
            keys: None,
            rate: 20_000_000,
            nic: NicModel::rdma_40g(),
            mode: EngineMode::Hybrid,
            grouping: GroupingSpec::SortMerge,
            checkpoint_interval: None,
            crash_after: None,
            hbm_mib: None,
            metrics_out: None,
            trace_out: None,
            incidents_out: None,
            shards: 4,
            slots: 64,
            interval: 5,
            skew: None,
            rescale_at: None,
            rescale_to: None,
            rebalance: None,
            link: LinkModel::intra_rack_rdma(),
            timeline: false,
            critical_path: None,
            incidents: None,
            top: 5,
        }
    }

    /// The key cardinality given, or its default: the benchmark's own on one
    /// engine, and on a cluster millions of simulated users — its reason to
    /// exist.
    fn keys(&self, b: &Benchmark) -> u64 {
        let default = if self.cmd == Cmd::Cluster {
            2_000_000
        } else {
            b.keys
        };
        self.keys.unwrap_or(default)
    }

    /// The engine configuration the run flags describe.
    fn run_config(&self, machine: MachineConfig, obs: Obs) -> RunConfig {
        RunConfig {
            machine,
            cores: self.cores,
            mode: self.mode,
            sender: SenderConfig {
                bundle_rows: self.bundle_rows,
                bundles_per_watermark: 10,
                nic: self.nic,
            },
            obs,
            ..RunConfig::default()
        }
    }
}

/// One flag: its spelling, the kind of value it takes as the usage text
/// shows it (empty for a switch), the subcommands that take it, its help
/// line, and where its value goes. Parsing, rejection and the usage text
/// all read this table; a flag is spelled nowhere else.
struct Flag {
    name: &'static str,
    value: &'static str,
    cmds: &'static [Cmd],
    help: &'static str,
    set: fn(&mut Args, &str, &str) -> Result<(), String>,
}

const RUNS: &[Cmd] = &[Cmd::Bench, Cmd::Recover, Cmd::Cluster];
const ENGINE: &[Cmd] = &[Cmd::Bench, Cmd::Recover];
const EXPORTS: &[Cmd] = &[Cmd::Bench, Cmd::Cluster];
const CLUSTER: &[Cmd] = &[Cmd::Cluster];
const REPORT: &[Cmd] = &[Cmd::Report];

// Flags that error messages outside the table name.
const GROUPING: &str = "--grouping";
const CHECKPOINT_INTERVAL: &str = "--checkpoint-interval";
const SKEW: &str = "--skew";
const RESCALE_AT: &str = "--rescale-at";
const RESCALE_TO: &str = "--rescale-to";
const REBALANCE: &str = "--rebalance";

const FLAGS: [Flag; 26] = [
    Flag {
        name: "--cores",
        value: "N",
        cmds: RUNS,
        help: "modelled cores per engine",
        set: |a, f, v| count(&mut a.cores, f, v),
    },
    Flag {
        name: "--bundles",
        value: "N",
        cmds: RUNS,
        help: "bundles to ingest",
        set: |a, f, v| num(&mut a.bundles, f, v),
    },
    Flag {
        name: "--bundle-rows",
        value: "N",
        cmds: RUNS,
        help: "records per bundle",
        set: |a, f, v| count(&mut a.bundle_rows, f, v),
    },
    Flag {
        name: "--keys",
        value: "N",
        cmds: RUNS,
        help: "distinct keys, ads or houses",
        set: |a, f, v| opt(&mut a.keys, f, v),
    },
    Flag {
        name: "--rate",
        value: "N",
        cmds: RUNS,
        help: "records per second of event time",
        set: |a, f, v| num(&mut a.rate, f, v),
    },
    Flag {
        name: "--nic",
        value: "rdma|eth|unlimited",
        cmds: ENGINE,
        help: "ingestion NIC",
        set: |a, f, v| {
            a.nic = match v {
                "rdma" => NicModel::rdma_40g(),
                "eth" => NicModel::ethernet_10g(),
                "unlimited" => NicModel::unlimited(),
                _ => return Err(unknown(f, v)),
            };
            Ok(())
        },
    },
    Flag {
        name: "--mode",
        value: "hybrid|caching|dram|nokpa|row",
        cmds: ENGINE,
        help: "memory-management mode (row fixes the grouping)",
        set: |a, f, v| {
            a.mode = match v {
                "hybrid" => EngineMode::Hybrid,
                "caching" => EngineMode::CachingKpa,
                "dram" => EngineMode::DramOnly,
                "nokpa" => EngineMode::CachingNoKpa,
                "row" => EngineMode::Row,
                _ => return Err(unknown(f, v)),
            };
            Ok(())
        },
    },
    Flag {
        name: GROUPING,
        value: "sort|hash|adaptive",
        cmds: ENGINE,
        help: "grouping backend",
        set: |a, f, v| {
            a.grouping = GroupingSpec::parse(v).ok_or_else(|| unknown(f, v))?;
            Ok(())
        },
    },
    Flag {
        name: CHECKPOINT_INTERVAL,
        value: "N",
        cmds: ENGINE,
        help: "barrier every N bundles",
        set: |a, f, v| {
            a.checkpoint_interval = Some(positive(f, v)?);
            Ok(())
        },
    },
    Flag {
        name: "--crash-after-bundles",
        value: "N",
        cmds: &[Cmd::Recover],
        help: "crash once N bundles are in",
        set: |a, f, v| opt(&mut a.crash_after, f, v),
    },
    Flag {
        name: "--hbm-mib",
        value: "N",
        cmds: &[Cmd::Bench],
        help: "shrink the simulated HBM to N MiB",
        set: |a, f, v| {
            a.hbm_mib = Some(positive(f, v)?);
            Ok(())
        },
    },
    Flag {
        name: "--metrics-out",
        value: "PATH",
        cmds: EXPORTS,
        help: "write the metrics registry as JSONL",
        set: |a, _, v| path(&mut a.metrics_out, v),
    },
    Flag {
        name: "--trace-out",
        value: "PATH",
        cmds: EXPORTS,
        help: "write the span trace: JSONL if PATH ends in .jsonl, else Chrome",
        set: |a, _, v| path(&mut a.trace_out, v),
    },
    Flag {
        name: "--incidents-out",
        value: "PATH",
        cmds: EXPORTS,
        help: "write the incidents as JSONL (for a cluster, fabric verdicts last)",
        set: |a, _, v| path(&mut a.incidents_out, v),
    },
    Flag {
        name: "--shards",
        value: "N",
        cmds: CLUSTER,
        help: "shard engines, 1..=64",
        set: |a, f, v| {
            a.shards = parsed(f, v)?;
            if (1..=64).contains(&a.shards) {
                Ok(())
            } else {
                Err(format!("{f} must be in 1..=64"))
            }
        },
    },
    Flag {
        name: "--slots",
        value: "N",
        cmds: CLUSTER,
        help: "hash slots of the router",
        set: |a, f, v| count(&mut a.slots, f, v),
    },
    Flag {
        name: "--interval",
        value: "N",
        cmds: CLUSTER,
        help: "barrier every N bundles",
        set: |a, f, v| count(&mut a.interval, f, v),
    },
    Flag {
        name: SKEW,
        value: "THETA",
        cmds: CLUSTER,
        help: "draw keys from a Zipf distribution",
        set: |a, f, v| match parsed(f, v)? {
            theta if theta > 0.0 && f64::is_finite(theta) => {
                a.skew = Some(theta);
                Ok(())
            }
            _ => Err(format!("{f} must be finite and positive")),
        },
    },
    Flag {
        name: RESCALE_AT,
        value: "EPOCH",
        cmds: CLUSTER,
        help: "cut a coordinated epoch and retarget there",
        set: |a, f, v| opt(&mut a.rescale_at, f, v),
    },
    Flag {
        name: RESCALE_TO,
        value: "N",
        cmds: CLUSTER,
        help: "retarget: grow or shrink to N shards",
        set: |a, f, v| opt(&mut a.rescale_to, f, v),
    },
    Flag {
        name: REBALANCE,
        value: "TOL",
        cmds: CLUSTER,
        help: "retarget: move hot slots off shards above TOL x mean load",
        set: |a, f, v| opt(&mut a.rebalance, f, v),
    },
    Flag {
        name: "--link",
        value: "rdma|eth|unlimited",
        cmds: CLUSTER,
        help: "inter-shard link",
        set: |a, f, v| {
            a.link = match v {
                "rdma" => LinkModel::intra_rack_rdma(),
                "eth" => LinkModel::cross_rack_10g(),
                "unlimited" => LinkModel::unlimited(),
                _ => return Err(unknown(f, v)),
            };
            Ok(())
        },
    },
    Flag {
        name: "--timeline",
        value: "",
        cmds: REPORT,
        help: "render the per-round memory-tier timeline",
        set: |a, _, _| {
            a.timeline = true;
            Ok(())
        },
    },
    Flag {
        name: "--critical-path",
        value: "SPANS.jsonl",
        cmds: REPORT,
        help: "critical-path attribution over an engine or cluster span export",
        set: |a, _, v| path(&mut a.critical_path, v),
    },
    Flag {
        name: "--incidents",
        value: "INCIDENTS.jsonl",
        cmds: REPORT,
        help: "render the incident stories",
        set: |a, _, v| path(&mut a.incidents, v),
    },
    Flag {
        name: "--top",
        value: "N",
        cmds: REPORT,
        help: "rows in the critical-path tables",
        set: |a, f, v| num(&mut a.top, f, v),
    },
];

/// Parses a flag's value, naming the flag on failure.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

/// [`parsed`] for a count that must be at least one.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    let n = parsed(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

fn num<T: std::str::FromStr>(slot: &mut T, flag: &str, value: &str) -> Result<(), String> {
    *slot = parsed(flag, value)?;
    Ok(())
}

/// [`num`] for a count that must be at least one.
fn count<T: std::str::FromStr + Default + PartialEq>(
    slot: &mut T,
    flag: &str,
    value: &str,
) -> Result<(), String> {
    *slot = positive(flag, value)?;
    Ok(())
}

fn opt<T: std::str::FromStr>(slot: &mut Option<T>, flag: &str, value: &str) -> Result<(), String> {
    *slot = Some(parsed(flag, value)?);
    Ok(())
}

// Infallible, but a `Flag::set` like the others.
#[allow(clippy::unnecessary_wraps)]
fn path(slot: &mut Option<String>, value: &str) -> Result<(), String> {
    *slot = Some(value.to_owned());
    Ok(())
}

fn unknown(flag: &str, value: &str) -> String {
    format!("unknown {flag} '{value}'")
}

impl Flag {
    /// The flag as the usage text spells it: its name and its value kind.
    fn spelled(&self) -> String {
        format!("{} {}", self.name, self.value)
            .trim_end()
            .to_owned()
    }
}

/// The usage text: every subcommand with the flags [`FLAGS`] gives it, then
/// every flag's help line.
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (cmd, name, operand, _) in &COMMANDS {
        let mut line = format!("  sbx {name} {operand}");
        for f in FLAGS.iter().filter(|f| f.cmds.contains(cmd)) {
            let item = format!("[{}]", f.spelled());
            if line.len() + item.len() > 78 {
                out += line.trim_end();
                out += "\n";
                line = " ".repeat(8);
            }
            line = line + " " + &item;
        }
        out += line.trim_end();
        out += "\n";
    }
    out += "\nflags:\n";
    for f in &FLAGS {
        out += &format!("  {:<40} {}\n", f.spelled(), f.help);
    }
    let suite: Vec<&str> = SUITE.iter().map(|b| b.name).collect();
    let grouped: Vec<&str> = SUITE.iter().filter(|b| b.grouped).map(|b| b.name).collect();
    let figures: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    out += &format!(
        "\nbenchmarks: {} ({GROUPING}: {})\nfigures: {}\n",
        suite.join(", "),
        grouped.join(", "),
        figures.join(", ")
    );
    out
}

/// Parses a command line (without the program name) against [`COMMANDS`]
/// and [`FLAGS`]: a flag its subcommand's row does not list is an error
/// naming the flag.
fn parse(argv: &[String]) -> Result<(Run, Args), String> {
    let mut rest = argv.iter();
    let name = rest.next().ok_or("missing subcommand")?;
    let &(cmd, _, operand, run) = COMMANDS
        .iter()
        .find(|c| c.1 == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let mut a = Args::new(cmd);
    if !operand.is_empty() {
        let given = rest.next().cloned();
        a.operand = given.ok_or_else(|| format!("{name} needs {operand}"))?;
    }
    while let Some(arg) = rest.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        if !flag.cmds.contains(&a.cmd) {
            return Err(format!("{arg} does not apply to 'sbx {name}'"));
        }
        let value = match flag.value {
            "" => "",
            _ => rest.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        (flag.set)(&mut a, arg, value)?;
    }
    match a.cmd {
        Cmd::Bench | Cmd::Recover | Cmd::Cluster => check_run(&a)?,
        Cmd::Figure => drop(figure(&a.operand)?),
        Cmd::Report | Cmd::Machines | Cmd::List => {}
    }
    Ok((run, a))
}

/// What a run's flags must agree on with its benchmark and with each other.
fn check_run(a: &Args) -> Result<(), String> {
    let b = suite_entry(&a.operand)?;
    if b.streams > 1 && a.cmd == Cmd::Cluster {
        return Err("cluster supports single-stream benchmarks only".into());
    }
    if a.grouping != GroupingSpec::SortMerge && !b.grouped {
        return Err(format!(
            "{GROUPING} {} is not wired for benchmark '{}'",
            a.grouping.label(),
            b.name
        ));
    }
    if a.skew.is_some() && !b.zipf {
        return Err(format!(
            "{SKEW}: benchmark '{}' has no Zipf key draw",
            b.name
        ));
    }
    if a.rescale_to.is_some() && a.rebalance.is_some() {
        return Err(format!(
            "{RESCALE_TO} and {REBALANCE} are mutually exclusive"
        ));
    }
    if a.rescale_at.is_some() != (a.rescale_to.is_some() || a.rebalance.is_some()) {
        return Err(format!(
            "{RESCALE_AT} and one of {RESCALE_TO} / {REBALANCE} need each other"
        ));
    }
    if a.cmd == Cmd::Cluster {
        ShardedCluster::check_pipeline(&(b.pipeline)(GroupingSpec::SortMerge))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run_bench(a: &Args) -> RunResult {
    let b = suite_entry(&a.operand)?;
    // Tracing implies metrics.
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
    let cfg = a.run_config(machine, obs.clone());
    let ck = a.checkpoint_interval;
    println!(
        "running '{}' on {} ({} cores, {}, {})",
        b.name, cfg.machine.name, a.cores, a.nic.name, a.mode
    );
    let engine = Engine::new(cfg);
    let pipeline = (b.pipeline)(a.grouping);
    let sources = b.sources(1, a.keys(b), a.rate, None);
    let mut coord = CheckpointCoordinator::new();
    let report = match ck {
        Some(iv) => engine.run_with_hooks(sources, pipeline, a.bundles, Some(iv), &mut coord)?,
        None => engine.run(sources, pipeline, a.bundles)?,
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

fn run_cluster(a: &Args) -> RunResult {
    let b = suite_entry(&a.operand)?;
    // The fabric detectors read the cluster metrics, so an incident export
    // implies an active registry even without a metrics export.
    let metrics = if a.metrics_out.is_some() || a.incidents_out.is_some() {
        MetricsRegistry::active()
    } else {
        MetricsRegistry::noop()
    };
    let cfg = ClusterConfig {
        shards: a.shards,
        slots: a.slots,
        key_col: b.key_col,
        key_map: b
            .key_map
            .map(|map| Arc::new(map) as streambox_hbm::cluster::KeyMap),
        engine: a.run_config(MachineConfig::knl(), Obs::noop()),
        link: a.link,
        metrics: metrics.clone(),
        trace: a.trace_out.is_some(),
    };
    let keys = a.keys(b);
    println!(
        "clustering '{}' across {} shards ({} slots, {} keys, link {}{})",
        b.name,
        a.shards,
        a.slots,
        keys,
        a.link.nic.name,
        a.skew.map_or(String::new(), |t| format!(", zipf {t}")),
    );
    let cluster = ShardedCluster::new(cfg);
    let mk_src = || (b.source)(1, keys, a.rate, a.skew);
    let mk_pipe = || (b.pipeline)(GroupingSpec::SortMerge);
    let retarget = match (a.rescale_to, a.rebalance) {
        (Some(n), _) => Some(Retarget::Shards(n)),
        (None, tolerance) => tolerance.map(|tolerance| Retarget::Rebalance { tolerance }),
    };
    let report = match (a.rescale_at, retarget) {
        (Some(at_epoch), Some(retarget)) => {
            let plan = ElasticPlan { at_epoch, retarget };
            cluster.run_elastic(mk_src, mk_pipe, a.bundles, a.interval, plan)?
        }
        _ => cluster.run(mk_src, mk_pipe, a.bundles, a.interval)?,
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
    if let Some(hottest) = hottest_slots(report.slot_loads.iter().copied()) {
        println!("  hottest slots  : {hottest}");
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
    if let Some(path) = &a.incidents_out {
        let incidents = IncidentReport::new(report.incidents.clone());
        std::fs::write(path, incidents.to_jsonl())?;
        println!(
            "  incidents      : {} incident(s) written to {path}",
            incidents.len()
        );
    }
    Ok(())
}

/// `sbx report`: rebuilds a run summary and the Figure-10 time series
/// purely from a metrics JSONL export; optionally renders the memory-tier
/// timeline and span critical-path attribution.
fn run_report(a: &Args) -> RunResult {
    let path = a.operand.as_str();
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
        // One engine's export reads as the single track (shard 0, era 0).
        let spans = parse_cluster_spans_jsonl(&std::fs::read_to_string(spans_path)?)?;
        println!("critical path from {spans_path} ({} spans)", spans.len());
        print!(
            "{}",
            CriticalPath::compute(&spans).render(a.top, Some(&dump))
        );
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

/// The five most loaded slots as `slot:load, ...`, heaviest first (ties by
/// slot); `None` when no slot saw a record.
fn hottest_slots(loads: impl Iterator<Item = u64>) -> Option<String> {
    let mut hot: Vec<(usize, u64)> = loads.enumerate().filter(|(_, l)| *l > 0).collect();
    hot.sort_by_key(|&(slot, load)| (u64::MAX - load, slot));
    hot.truncate(5);
    let rendered: Vec<String> = hot.iter().map(|(s, l)| format!("{s}:{l}")).collect();
    (!rendered.is_empty()).then(|| rendered.join(", "))
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
    let loads = (0..slots).map(|slot| c(&format!("cluster.slot{slot}.records")));
    if let Some(hottest) = hottest_slots(loads) {
        println!("    hottest slots  : {hottest}");
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

/// `sbx recover`: a crash-injected run followed by recovery, and an
/// exactly-once check against a fault-free oracle over the same
/// deterministic stream.
fn run_recover(a: &Args) -> RunResult {
    let b = suite_entry(&a.operand)?;
    let interval = a.checkpoint_interval.unwrap_or(10);
    let crash_after = a.crash_after.unwrap_or(a.bundles as u64 / 2);
    let cfg = a.run_config(MachineConfig::knl(), Obs::noop());
    println!(
        "recovering '{}': crash after bundle {crash_after}, checkpoint every {interval} bundles",
        b.name
    );
    let mk_src = || b.sources(1, a.keys(b), a.rate, None);
    let mk_pipe = || (b.pipeline)(a.grouping);
    let mut oracle = CheckpointCoordinator::new();
    let base = run_with_recovery(&cfg, mk_src, mk_pipe, a.bundles, interval, &mut oracle)?;
    let mut coord = CheckpointCoordinator::with_crash(CrashPlan::AfterBundles(crash_after));
    let out = run_with_recovery(&cfg, mk_src, mk_pipe, a.bundles, interval, &mut coord)?;
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (run, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = v.iter().map(ToString::to_string).collect();
        parse(&argv).map(|(_, a)| a)
    }

    #[test]
    fn parses_full_flag_set() {
        let a = args(&[
            "bench",
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
        ])
        .unwrap();
        assert_eq!(a.cores, 16);
        assert_eq!(a.bundles, 8);
        assert_eq!(a.bundle_rows, 500);
        assert_eq!(a.mode, EngineMode::DramOnly);
        assert_eq!(a.keys, Some(42));
        assert_eq!(a.rate, 1000);
        assert_eq!(a.nic.name, NicModel::ethernet_10g().name);
    }

    #[test]
    fn parses_observability_flags() {
        let a = args(&[
            "bench",
            "sum",
            "--metrics-out",
            "/tmp/m.jsonl",
            "--trace-out",
            "/tmp/t.json",
        ])
        .unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.jsonl"));
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.json"));
        let plain = args(&["bench", "sum"]).unwrap();
        assert!(plain.metrics_out.is_none() && plain.trace_out.is_none());
        assert!(args(&["bench", "sum", "--metrics-out"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args(&[]).is_err());
        assert!(args(&["benchmark"]).is_err());
        assert!(args(&["bench"]).is_err());
        assert!(args(&["bench", "nope"]).is_err());
        assert!(args(&["bench", "topk", "--cores"]).is_err());
        assert!(args(&["bench", "topk", "--nic", "carrier-pigeon"]).is_err());
        assert!(args(&["bench", "topk", "--mode", "quantum"]).is_err());
        assert!(args(&["bench", "topk", "--wat", "1"]).is_err());
        assert!(args(&["figure", "12"]).is_err());
        assert!(args(&["figure", "8"]).is_ok());
        assert!(args(&["list", "--cores", "2"]).is_err());
        // A zero count is refused by name: `--bundle-rows 0` and `--slots 0`
        // used to panic in the sender / router, `--cores 0` ran a machine
        // with no cores.
        for argv in [
            ["bench", "ysb", "--cores", "0"],
            ["bench", "sum", "--bundle-rows", "0"],
            ["recover", "sum", "--bundle-rows", "0"],
            ["cluster", "sum", "--bundle-rows", "0"],
            ["cluster", "sum", "--slots", "0"],
        ] {
            let e = args(&argv).expect_err(argv[2]);
            assert!(
                e.contains(argv[2]) && e.contains("positive"),
                "{argv:?}: {e}"
            );
        }
    }

    /// A flag is an error, by name, on every subcommand whose row does not
    /// list it — it used to be parsed and then ignored.
    #[test]
    fn rejects_flags_their_subcommand_does_not_take() {
        let refused = |argv: &[&str], flag: &str| {
            let e = args(argv).expect_err(flag);
            assert!(e.contains(flag), "{argv:?}: {e}");
        };
        for flag in [
            "--metrics-out",
            "--trace-out",
            "--incidents-out",
            "--hbm-mib",
        ] {
            assert!(args(&["bench", "ysb", flag, "1"]).is_ok());
            refused(&["recover", "ysb", flag, "1"], flag);
        }
        refused(
            &["bench", "sum", "--crash-after-bundles", "3"],
            "--crash-after-bundles",
        );
        refused(&["bench", "sum", "--skew", "1.0"], "--skew");
        refused(&["cluster", "sum", "--nic", "eth"], "--nic");
        refused(&["cluster", "sum", "--grouping", "hash"], "--grouping");
        refused(&["report", "m.jsonl", "--cores", "2"], "--cores");
        // A Zipf exponent needs a source with a Zipf key draw.
        assert!(args(&["cluster", "sum", "--skew", "1.0"]).is_ok());
        // ... finite and positive; NaN used to put every record on key 0.
        for theta in ["nan", "-1", "0", "inf"] {
            refused(&["cluster", "sum", "--skew", theta], "--skew");
        }
        refused(&["cluster", "ysb", "--skew", "1.0"], "--skew");
        refused(&["cluster", "power-grid", "--skew", "1.0"], "--skew");
    }

    /// `--keys` reaches every workload; unset, each keeps the cardinality it
    /// had when the flag was ignored.
    #[test]
    fn keys_default_to_the_workloads_own() {
        let keys = |argv: &[&str]| {
            let a = args(argv).unwrap();
            a.keys(suite_entry(&a.operand).unwrap())
        };
        assert_eq!(keys(&["bench", "sum"]), 10_000);
        assert_eq!(keys(&["bench", "ysb"]), 10_000);
        assert_eq!(keys(&["recover", "power-grid"]), 100);
        assert_eq!(keys(&["cluster", "sum"]), 2_000_000);
        for cmd in ["bench", "recover", "cluster"] {
            for name in ["sum", "ysb"] {
                assert_eq!(keys(&[cmd, name, "--keys", "7"]), 7, "{cmd} {name}");
            }
        }
        for cmd in ["bench", "recover"] {
            assert_eq!(keys(&[cmd, "power-grid", "--keys", "7"]), 7, "{cmd}");
        }
    }

    #[test]
    fn usage_is_the_tables() {
        let text = usage();
        for f in &FLAGS {
            assert!(
                text.contains(&format!("  {} {}", f.name, f.value)),
                "{}",
                f.name
            );
            assert!(text.contains(f.help), "{}", f.name);
        }
        for (_, name, operand, _) in &COMMANDS {
            assert!(text.contains(format!("  sbx {name} {operand}").trim_end()));
        }
        // `recover` shows the flags it takes and not the ones it refuses.
        let recover = text
            .split("  sbx ")
            .find(|s| s.starts_with("recover"))
            .unwrap();
        assert!(recover.contains("[--crash-after-bundles N]"));
        assert!(!recover.contains("--hbm-mib"));
        assert!(text.contains("power-grid, ysb"));
    }

    #[test]
    fn parses_grouping_flag() {
        let a = args(&["bench", "ysb", "--grouping", "adaptive"]).unwrap();
        assert_eq!(a.grouping, GroupingSpec::Adaptive);
        let d = args(&["bench", "ysb"]).unwrap();
        assert_eq!(d.grouping, GroupingSpec::SortMerge);
        for g in ["sort", "hash", "adaptive"] {
            assert!(args(&["bench", "sum", "--grouping", g]).is_ok());
        }
        assert!(args(&["bench", "sum", "--grouping", "btree"]).is_err());
        // The row engine is a mode, and it fixes the grouping.
        assert!(args(&["bench", "sum", "--grouping", "row"]).is_err());
        let r = args(&["bench", "sum", "--mode", "row"]).unwrap();
        assert_eq!(r.mode, EngineMode::Row);
    }

    #[test]
    fn grouping_is_wired_for_keyed_agg_benchmarks() {
        for cmd in ["bench", "recover"] {
            for g in ["hash", "adaptive"] {
                assert!(args(&[cmd, "sum", "--grouping", g]).is_ok());
                assert!(args(&[cmd, "ysb", "--grouping", g]).is_ok());
                assert!(args(&[cmd, "topk", "--grouping", g]).is_err());
            }
        }
        assert!(args(&["bench", "join", "--grouping", "hash"]).is_err());
        // The default backend keeps every benchmark available.
        for b in &SUITE {
            assert!(args(&["bench", b.name, "--grouping", "sort"]).is_ok());
        }
    }

    #[test]
    fn parses_checkpoint_flags() {
        let a = args(&[
            "recover",
            "topk",
            "--checkpoint-interval",
            "7",
            "--crash-after-bundles",
            "12",
        ])
        .unwrap();
        assert_eq!(a.checkpoint_interval, Some(7));
        assert_eq!(a.crash_after, Some(12));
        let b = args(&["bench", "topk", "--checkpoint-interval", "7"]).unwrap();
        assert_eq!(b.checkpoint_interval, Some(7));
        assert!(args(&["bench", "topk", "--checkpoint-interval", "0"]).is_err());
        assert!(args(&["bench", "topk", "--checkpoint-interval", "x"]).is_err());
    }

    #[test]
    fn parses_report_flags() {
        let a = args(&[
            "report",
            "m.jsonl",
            "--timeline",
            "--critical-path",
            "t.jsonl",
            "--top",
            "3",
        ])
        .unwrap();
        assert_eq!(a.operand, "m.jsonl");
        assert!(a.timeline);
        assert_eq!(a.critical_path.as_deref(), Some("t.jsonl"));
        assert_eq!(a.top, 3);
        let plain = args(&["report", "m.jsonl"]).unwrap();
        assert!(!plain.timeline && plain.critical_path.is_none());
        assert_eq!(plain.top, 5);
        assert!(args(&["report"]).is_err());
        assert!(args(&["report", "m.jsonl", "--critical-path"]).is_err());
        assert!(args(&["report", "m.jsonl", "--top", "x"]).is_err());
        assert!(args(&["report", "m.jsonl", "--wat"]).is_err());
    }

    /// A stitched cluster trace goes through `--critical-path` like an
    /// engine's, and fabric verdicts through `--incidents`; the retired
    /// second critical-path flag and the health flags are refused.
    #[test]
    fn parses_cluster_report_flags() {
        let a = args(&[
            "report",
            "m.jsonl",
            "--critical-path",
            "stitched.jsonl",
            "--incidents",
            "i.jsonl",
        ])
        .unwrap();
        assert_eq!(a.critical_path.as_deref(), Some("stitched.jsonl"));
        assert_eq!(a.incidents.as_deref(), Some("i.jsonl"));
        let plain = args(&["report", "m.jsonl"]).unwrap();
        assert!(plain.critical_path.is_none() && plain.incidents.is_none());
        let gone = ["report", "m.jsonl", "--cluster-critical-path", "t.jsonl"];
        assert!(args(&gone).is_err());
        assert!(args(&["report", "m.jsonl", "--health"]).is_err());
        assert!(args(&["cluster", "sum", "--health-out", "h.jsonl"]).is_err());
    }

    #[test]
    fn parses_cluster_flags() {
        let a = args(&[
            "cluster",
            "sum",
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
        ])
        .unwrap();
        assert_eq!(a.operand, "sum");
        assert_eq!(a.shards, 8);
        assert_eq!(a.slots, 128);
        assert_eq!(a.rescale_at, Some(3));
        assert_eq!(a.rescale_to, Some(16));
        assert_eq!(a.skew, Some(1.2));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/c.jsonl"));
        let plain = args(&["cluster", "ysb"]).unwrap();
        assert_eq!((plain.shards, plain.cores, plain.bundles), (4, 16, 40));
        assert!(plain.rescale_at.is_none() && plain.skew.is_none());
        assert!(plain.trace_out.is_none() && plain.incidents_out.is_none());
    }

    #[test]
    fn parses_cluster_observability_flags() {
        let a = args(&[
            "cluster",
            "ysb",
            "--trace-out",
            "/tmp/trace.jsonl",
            "--incidents-out",
            "/tmp/incidents.jsonl",
        ])
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(a.incidents_out.as_deref(), Some("/tmp/incidents.jsonl"));
        assert!(args(&["cluster", "ysb", "--trace-out"]).is_err());
        assert!(args(&["cluster", "ysb", "--incidents-out"]).is_err());
    }

    #[test]
    fn rejects_inconsistent_cluster_flags() {
        // A retarget needs a cut epoch, and vice versa.
        assert!(args(&["cluster", "sum", "--rescale-to", "8"]).is_err());
        assert!(args(&["cluster", "sum", "--rebalance", "1.25"]).is_err());
        assert!(args(&["cluster", "sum", "--rescale-at", "2"]).is_err());
        // Rescale and rebalance are mutually exclusive retargets.
        assert!(args(&[
            "cluster",
            "sum",
            "--rescale-at",
            "2",
            "--rescale-to",
            "8",
            "--rebalance",
            "1.25",
        ])
        .is_err());
        assert!(args(&["cluster", "sum", "--shards", "0"]).is_err());
        assert!(args(&["cluster", "sum", "--shards", "65"]).is_err());
        assert!(args(&["cluster", "sum", "--interval", "0"]).is_err());
        assert!(args(&["cluster", "sum", "--link", "pigeon"]).is_err());
        assert!(args(&["cluster", "sum", "--wat"]).is_err());
    }

    /// The suite table end to end: every `sbx list` name builds its pipeline
    /// and its sources and runs; only `sbx cluster` refuses, the two-stream
    /// names and the two that aggregate across keys; Figure 8 reads its panels and seeds from the same rows.
    #[test]
    fn all_listed_benchmarks_have_pipelines() {
        for b in &SUITE {
            let cfg = RunConfig {
                sender: SenderConfig {
                    bundle_rows: 500,
                    bundles_per_watermark: 2,
                    ..SenderConfig::default()
                },
                ..RunConfig::default()
            };
            let pipeline = (b.pipeline)(GroupingSpec::SortMerge);
            assert!(!pipeline.is_empty(), "{}", b.name);
            let sources = b.sources(1, b.keys, 1_000_000, None);
            assert_eq!(sources.len(), b.streams, "{}", b.name);
            let report = Engine::new(cfg).run(sources, pipeline, 4).unwrap();
            assert_eq!(report.bundles_in, 4, "{}", b.name);
            assert_eq!(report.records_in, 4 * 500, "{}", b.name);

            let refusal = |argv: &[&str]| args(argv).err().unwrap_or_default();
            let cluster = match (b.streams, b.name) {
                (1, "avg-all") => {
                    "invalid cluster topology: AvgAll aggregates across keys; \
                                   each shard would commit its own partial"
                }
                (1, "power-grid") => {
                    "invalid cluster topology: PowerGrid aggregates across \
                                      keys; each shard would commit its own partial"
                }
                (1, _) => "",
                _ => "cluster supports single-stream benchmarks only",
            };
            assert_eq!(refusal(&["cluster", b.name]), cluster);
            assert_eq!(refusal(&["recover", b.name]), "");
            assert_eq!(
                refusal(&["bench", b.name, "--checkpoint-interval", "3"]),
                ""
            );
        }
        assert_eq!(
            SUITE
                .iter()
                .filter(|b| b.streams == 2)
                .map(|b| b.name)
                .collect::<Vec<_>>(),
            ["join", "filter"]
        );

        let panels: Vec<(&str, u64)> = SUITE.iter().filter_map(|b| b.fig8).collect();
        assert_eq!(
            panels,
            [
                ("TopK Per Key", 34),
                ("Windowed Sum Per Key", 34),
                ("Windowed Med Per Key", 34),
                ("Windowed Avg Per Key", 34),
                ("Windowed Average", 34),
                ("Unique Count Per Key", 34),
                ("Temporal Join", 31),
                ("Windowed Filter", 31),
                ("Power Grid", 33),
            ]
        );
        assert!(sbx_bench::fig8::titles().eq(panels.iter().map(|p| p.0)));
    }
}
