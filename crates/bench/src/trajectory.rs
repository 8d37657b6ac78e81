//! Bench trajectory: persisted performance snapshots with a regression
//! gate (DESIGN.md §10).
//!
//! `sbx-bench trajectory` (the `benches/trajectory.rs` target) runs a fixed
//! set of scenarios — YSB end-to-end at two core counts, YSB over the
//! cluster tier at two shard counts plus a 4→8 rescale's modelled shuffle
//! bytes, and the modelled kernel pass-bytes — and writes the resulting
//! metrics to the next
//! `BENCH_<n>.json` in the trajectory directory. Before writing, it
//! compares against the highest existing snapshot and **fails on
//! regression**: simulated metrics are deterministic (every value descends
//! from the simulated clock or accounted byte counters and round-trips
//! bit-exactly through the JSON encoding), so they are compared exactly by
//! direction. Host time is not measured here: `benchmark/` does that, with
//! a speed-reference correction and bounds.
//!
//! The file is a valid JSON array but is written and parsed line-wise (one
//! flat object per line) so the dependency-free `sbx_obs::json` parser can
//! read it back.

// sbx-lint: out-of-scope(raw-alloc, snapshot encode/compare; runs once per gate, stays in no-panic scope)
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sbx_cluster::{ClusterConfig, ElasticPlan, Retarget, ShardedCluster};
use sbx_engine::{benchmarks, Engine, RunConfig};
use sbx_ingress::{NicModel, SenderConfig, YsbSource};
use sbx_obs::json::{array_lines, fmt_f64, ObjWriter};
use sbx_obs::Obs;
use sbx_simmem::MachineConfig;

use crate::kernel_scaling;
use Direction::{Exact, Higher, Lower};

/// Trajectory file schema version; bumped when scenarios or metric
/// definitions change incompatibly (older files are then only noted, not
/// compared).
pub const SCHEMA_VERSION: u64 = 1;

/// How a metric's change maps to regression/improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better (e.g. throughput); any exact decrease regresses.
    Higher,
    /// Lower is better (e.g. simulated latency); any exact increase
    /// regresses.
    Lower,
    /// Deterministic output (e.g. record counts); any change regresses.
    Exact,
}

impl Direction {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
            Direction::Exact => "exact",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(tag: &str) -> Option<Direction> {
        match tag {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            "exact" => Some(Direction::Exact),
            _ => None,
        }
    }
}

/// One measured value of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Scenario key (e.g. `ysb_c8`).
    pub scenario: String,
    /// Metric name within the scenario (e.g. `throughput_mrps`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Regression semantics.
    pub direction: Direction,
}

/// A full trajectory snapshot: what one `BENCH_<n>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Schema version of the snapshot.
    pub schema: u64,
    /// Kernel-cost handicap the snapshot was taken with (1 = nominal).
    pub cost_scale: f64,
    /// All metrics, in scenario order.
    pub metrics: Vec<Metric>,
}

impl Trajectory {
    /// Serializes the snapshot as a line-wise JSON array (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        ObjWriter::open(&mut out, "meta")
            .u64("schema", self.schema)
            .f64("cost_scale", self.cost_scale)
            .end_bare();
        for m in &self.metrics {
            out.push_str(",\n");
            ObjWriter::open(&mut out, "metric")
                .text("scenario", &m.scenario)
                .text("name", &m.name)
                .f64("value", m.value)
                .text("direction", m.direction.tag())
                .end_bare();
        }
        out.push_str("\n]\n");
        out
    }

    /// Parses a snapshot written by [`Trajectory::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_json(text: &str) -> Result<Trajectory, String> {
        let mut schema = 0u64;
        let mut cost_scale = 1.0f64;
        let mut metrics = Vec::new();
        for line in array_lines(text) {
            let line = line?;
            match line.kind() {
                "meta" => {
                    schema = line.u64("schema");
                    cost_scale = line.opt_f64("cost_scale").unwrap_or(1.0);
                }
                "metric" => {
                    let dir = line.text("direction");
                    metrics.push(Metric {
                        scenario: line.text("scenario").to_owned(),
                        name: line.text("name").to_owned(),
                        value: line.f64("value"),
                        direction: Direction::from_tag(dir)
                            .ok_or_else(|| line.err(format_args!("bad direction {dir:?}")))?,
                    });
                }
                other => return Err(line.err(format_args!("unknown type {other:?}"))),
            }
        }
        Ok(Trajectory {
            schema,
            cost_scale,
            metrics,
        })
    }

    /// Looks up a metric by scenario and name.
    pub fn metric(&self, scenario: &str, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .find(|m| m.scenario == scenario && m.name == name)
    }
}

/// Configuration of one trajectory run.
#[derive(Debug, Clone)]
pub struct TrajectoryConfig {
    /// Directory holding `BENCH_<n>.json` files (the repository root in CI).
    pub dir: PathBuf,
    /// Kernel-cost handicap: the modelled core clock is divided by this, so
    /// `2.0` emulates every CPU-cycle cost constant being inflated 2×. The
    /// regression tests use this to prove the comparator catches slowdowns.
    pub cost_scale: f64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            dir: PathBuf::from("."),
            cost_scale: 1.0,
        }
    }
}

/// The YSB rows of the trajectory: `(scenario, cores, HBM bytes, host
/// threads)`. The first two are the machine's own HBM and the default thread
/// count. The 1 MiB row is the one HBM capacity can move, and pins one
/// thread as `cluster_engine_cfg` does: once capacity binds, which of two
/// concurrent prefix workers gets the last HBM slot is a race.
const YSB_ROWS: [(&str, u32, u64, usize); 3] = [
    ("ysb_c8", 8, 16 << 30, 2),
    ("ysb_c32", 32, 16 << 30, 2),
    ("ysb_c32_hbm1m", 32, 1 << 20, 1),
];

const YSB_BUNDLES: usize = 30;

fn ysb_scenario(
    (scenario, cores, hbm_bytes, threads): (&str, u32, u64, usize),
    cost_scale: f64,
) -> Result<Vec<Metric>, String> {
    let mut machine = MachineConfig::knl();
    machine.hbm.capacity_bytes = hbm_bytes;
    // The handicap makes every modelled CPU cycle `cost_scale`× longer —
    // exactly what an accidentally inflated kernel cost constant would do.
    machine.core_ghz /= cost_scale.max(1e-9);
    let obs = Obs::metrics_only();
    let cfg = RunConfig {
        machine,
        cores,
        threads,
        sender: SenderConfig {
            bundle_rows: 20_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        obs: obs.clone(),
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(
            YsbSource::new(7, 10_000, 1_000, 10_000_000),
            benchmarks::ysb(1_000),
            YSB_BUNDLES,
        )
        .map_err(|e| format!("{scenario} failed: {e:?}"))?;
    let dump = obs.metrics.snapshot();
    let pass_bytes = |tier: &str| dump.counter(&format!("bw.{tier}.total_bytes")).unwrap_or(0);
    let m = |name: &str, value: f64, direction: Direction| Metric {
        scenario: scenario.to_owned(),
        name: name.to_owned(),
        value,
        direction,
    };
    Ok(vec![
        m("throughput_mrps", report.throughput_mrps(), Higher),
        m("sim_secs", report.sim_secs, Lower),
        m("output_records", report.output_records as f64, Exact),
        m("windows_closed", report.windows_closed as f64, Exact),
        m("max_output_delay_secs", report.max_output_delay_secs, Lower),
        m("p99_output_delay_secs", report.p99_output_delay_secs, Lower),
        m("hbm_pass_bytes", pass_bytes("hbm") as f64, Lower),
        m("dram_pass_bytes", pass_bytes("dram") as f64, Lower),
        m(
            "hbm_peak_used_bytes",
            report.hbm_peak_used_bytes as f64,
            Lower,
        ),
    ])
}

/// Shard counts the cluster trajectory sweeps (DESIGN.md §12).
pub const CLUSTER_SHARDS: [u32; 2] = [4, 16];

fn cluster_engine_cfg(cost_scale: f64) -> RunConfig {
    let mut machine = MachineConfig::knl();
    machine.core_ghz /= cost_scale.max(1e-9);
    RunConfig {
        machine,
        cores: 8,
        // Deterministic KPA placement, as in the fig10 scenarios.
        threads: 1,
        sender: SenderConfig {
            bundle_rows: 20_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    }
}

fn cluster_scenario(shards: u32, cost_scale: f64) -> Result<Vec<Metric>, String> {
    let cfg = ClusterConfig {
        shards,
        key_col: 2,
        key_map: Some(Arc::new(|ad| ad % 1_000)),
        engine: cluster_engine_cfg(cost_scale),
        ..ClusterConfig::default()
    };
    let report = ShardedCluster::new(cfg)
        .run(
            || YsbSource::new(7, 10_000, 1_000, 10_000_000),
            || benchmarks::ysb(1_000),
            YSB_BUNDLES,
            5,
        )
        .map_err(|e| format!("cluster ysb at {shards} shards failed: {e}"))?;
    let scenario = format!("ysb_shards{shards}");
    let m = |name: &str, value: f64, direction: Direction| Metric {
        scenario: scenario.clone(),
        name: name.to_owned(),
        value,
        direction,
    };
    Ok(vec![
        m("throughput_mrps", report.throughput_rps() / 1e6, Higher),
        m("sim_secs", report.sim_secs, Lower),
        m("output_records", report.output_records as f64, Exact),
        m("committed_rows", report.committed.len() as f64, Exact),
    ])
}

fn cluster_rescale_scenario(cost_scale: f64) -> Result<Vec<Metric>, String> {
    let cfg = ClusterConfig {
        shards: 4,
        key_col: 2,
        key_map: Some(Arc::new(|ad| ad % 1_000)),
        engine: cluster_engine_cfg(cost_scale),
        ..ClusterConfig::default()
    };
    let report = ShardedCluster::new(cfg)
        .run_elastic(
            || YsbSource::new(7, 10_000, 1_000, 10_000_000),
            || benchmarks::ysb(1_000),
            YSB_BUNDLES,
            5,
            ElasticPlan {
                at_epoch: 2,
                retarget: Retarget::Shards(8),
            },
        )
        .map_err(|e| format!("cluster rescale failed: {e}"))?;
    let rescale = report
        .rescale
        .ok_or_else(|| "rescale summary missing".to_owned())?;
    let m = |name: &str, value: f64, direction: Direction| Metric {
        scenario: "cluster_rescale_4to8".to_owned(),
        name: name.to_owned(),
        value,
        direction,
    };
    Ok(vec![
        m("shuffle_wire_bytes", rescale.wire_bytes as f64, Lower),
        m("shuffle_secs", rescale.shuffle_ns as f64 / 1e9, Lower),
        m("moved_slots", rescale.moved_slots.len() as f64, Exact),
        m("sim_secs", report.sim_secs, Lower),
    ])
}

fn kernel_model_scenario() -> Vec<Metric> {
    let (sort_old, sort_new, merge_old, merge_new) = kernel_scaling::modelled_pass_bytes();
    let m = |name: &str, value: f64| Metric {
        scenario: "kernel_model".to_owned(),
        name: name.to_owned(),
        value,
        direction: Lower,
    };
    vec![
        m("sort_multipass_mb", sort_old),
        m("sort_mergepath_mb", sort_new),
        m("merge_multipass_mb", merge_old),
        m("merge_kway_mb", merge_new),
    ]
}

/// Minimum modelled steady-state speedup the adaptive GroupBy must hold
/// over the pure sort-merge path on the low-cardinality scenario. A
/// shortfall is a hard scenario error, not just a gate regression.
pub const GROUPBY_MIN_SPEEDUP: f64 = 1.3;

/// Order-sensitive FNV-1a fold of output rows, truncated to 32 bits so the
/// value survives the f64 metric encoding exactly.
fn output_checksum(rows: &[u64]) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in rows {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h >> 32) as f64
}

/// Low-cardinality YSB-like grouping: 50 k-row Count windows over 1 000
/// campaign keys, drawn uniformly and (the `_zipf1_2` rows) Zipf 1.2. Runs
/// all four backends through the grouping-matrix harness (which enforces
/// byte-identical outputs and the adaptive-vs-best-static bound) and
/// additionally holds the adaptive backend to [`GROUPBY_MIN_SPEEDUP`]× over
/// sort-merge.
fn groupby_lowcard_scenario() -> Result<Vec<Metric>, String> {
    use crate::grouping_matrix::{run_cell, Cell};
    let mut metrics = Vec::new();
    for (scenario, theta) in [("groupby_lowcard", 0.0), ("groupby_lowcard_zipf1_2", 1.2)] {
        let cell = Cell {
            rows: 50_000,
            domain: 1_000,
            theta,
            bundles: 16,
        };
        let runs = run_cell(&cell, 7); // [sort, hash, row, adaptive]
        let sort = runs[0].steady_secs;
        let adaptive = runs[3].steady_secs;
        let speedup = sort / adaptive.max(1e-12);
        if speedup < GROUPBY_MIN_SPEEDUP {
            return Err(format!(
                "adaptive GroupBy speedup {speedup:.2}x over sort-merge is below \
                 the {GROUPBY_MIN_SPEEDUP}x bar on {scenario}"
            ));
        }
        let hash_windows = runs[3].picks.iter().filter(|p| p.as_str() == "H").count();
        let m = |name: &str, value: f64, direction: Direction| Metric {
            scenario: scenario.to_owned(),
            name: name.to_owned(),
            value,
            direction,
        };
        metrics.extend([
            m("sort_steady_ms", sort * 1e3, Lower),
            m("hash_steady_ms", runs[1].steady_secs * 1e3, Lower),
            m("adaptive_steady_ms", adaptive * 1e3, Lower),
            m("adaptive_speedup_vs_sort", speedup, Higher),
            m("adaptive_hash_windows", hash_windows as f64, Exact),
            m("output_checksum", output_checksum(&runs[3].out), Exact),
        ]);
    }
    Ok(metrics)
}

/// High-cardinality uniform sweep: 2 M-row windows over an 8 M-key
/// domain, where the grouping table spills the on-package budget and
/// sort-merge wins. The adaptive backend must stay on sort every window
/// and its output must match the sort-merge reference byte for byte.
fn groupby_highcard_scenario() -> Result<Vec<Metric>, String> {
    use crate::grouping_matrix::{gen_keys, run_backend, Cell, GroupingSpec};
    let cell = Cell {
        rows: 2_000_000,
        domain: 8_000_000,
        theta: 0.0,
        bundles: 4,
    };
    let keys = gen_keys(&cell, 7);
    let sort = run_backend(&cell, GroupingSpec::SortMerge, &keys);
    let adaptive = run_backend(&cell, GroupingSpec::Adaptive, &keys);
    if adaptive.out != sort.out {
        return Err(
            "adaptive output diverges from sort-merge on the high-cardinality sweep".to_owned(),
        );
    }
    let sort_windows = adaptive.picks.iter().filter(|p| p.as_str() == "S").count();
    let m = |name: &str, value: f64, direction: Direction| Metric {
        scenario: "groupby_highcard".to_owned(),
        name: name.to_owned(),
        value,
        direction,
    };
    Ok(vec![
        m("sort_steady_ms", sort.steady_secs * 1e3, Lower),
        m("adaptive_steady_ms", adaptive.steady_secs * 1e3, Lower),
        m("adaptive_sort_windows", sort_windows as f64, Exact),
        m("output_checksum", output_checksum(&adaptive.out), Exact),
    ])
}

/// Runs every scenario of `cfg` and returns the snapshot (not yet written).
///
/// # Errors
///
/// Returns a message if a scenario's engine run fails.
pub fn collect(cfg: &TrajectoryConfig) -> Result<Trajectory, String> {
    let mut metrics = Vec::new();
    for row in YSB_ROWS {
        metrics.extend(ysb_scenario(row, cfg.cost_scale)?);
    }
    for shards in CLUSTER_SHARDS {
        metrics.extend(cluster_scenario(shards, cfg.cost_scale)?);
    }
    metrics.extend(cluster_rescale_scenario(cfg.cost_scale)?);
    metrics.extend(kernel_model_scenario());
    metrics.extend(groupby_lowcard_scenario()?);
    metrics.extend(groupby_highcard_scenario()?);
    Ok(Trajectory {
        schema: SCHEMA_VERSION,
        cost_scale: cfg.cost_scale,
        metrics,
    })
}

/// Result of comparing a new snapshot against its predecessor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Regressions (gate failures), one line each.
    pub regressions: Vec<String>,
    /// Improvements, one line each (informational).
    pub improvements: Vec<String>,
    /// Notes: new/renamed metrics, schema changes.
    pub notes: Vec<String>,
}

impl Comparison {
    /// True if the gate passes (no regressions).
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the comparison as a deterministic text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            out.push_str(&format!("REGRESSION  {r}\n"));
        }
        for i in &self.improvements {
            out.push_str(&format!("improvement {i}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note        {n}\n"));
        }
        if self.regressions.is_empty() && self.improvements.is_empty() {
            out.push_str("no metric moved: trajectory is bit-stable\n");
        }
        out
    }
}

/// Compares `cur` against the earlier snapshot `prev`: metrics compare
/// exactly by direction. A metric present in `prev` but missing from `cur`
/// is a regression (lost coverage); a new metric is a note.
pub fn compare(prev: &Trajectory, cur: &Trajectory) -> Comparison {
    let mut cmp = Comparison::default();
    if prev.schema != cur.schema {
        cmp.notes.push(format!(
            "schema changed {} -> {}: snapshots are not comparable, skipping metric checks",
            prev.schema, cur.schema
        ));
        return cmp;
    }
    if prev.cost_scale != cur.cost_scale {
        cmp.notes.push(format!(
            "cost_scale differs ({} -> {}): comparing anyway",
            fmt_f64(prev.cost_scale),
            fmt_f64(cur.cost_scale)
        ));
    }
    for p in &prev.metrics {
        let key = format!("{}.{}", p.scenario, p.name);
        let Some(c) = cur.metric(&p.scenario, &p.name) else {
            cmp.regressions.push(format!(
                "{key}: metric disappeared (was {})",
                fmt_f64(p.value)
            ));
            continue;
        };
        let moved = format!("{key}: {} -> {}", fmt_f64(p.value), fmt_f64(c.value));
        match p.direction {
            Direction::Exact => {
                if c.value != p.value {
                    cmp.regressions.push(format!("{moved} (expected exact)"));
                }
            }
            Direction::Higher => {
                if c.value < p.value {
                    cmp.regressions.push(moved);
                } else if c.value > p.value {
                    cmp.improvements.push(moved);
                }
            }
            Direction::Lower => {
                if c.value > p.value {
                    cmp.regressions.push(moved);
                } else if c.value < p.value {
                    cmp.improvements.push(moved);
                }
            }
        }
    }
    for c in &cur.metrics {
        if prev.metric(&c.scenario, &c.name).is_none() {
            cmp.notes.push(format!(
                "new metric {}.{} = {}",
                c.scenario,
                c.name,
                fmt_f64(c.value)
            ));
        }
    }
    cmp
}

/// Finds the highest-numbered `BENCH_<n>.json` in `dir`, if any.
///
/// # Errors
///
/// Returns a message if `dir` cannot be read.
pub fn latest_in(dir: &Path) -> Result<Option<(u64, PathBuf)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(n) = num.parse::<u64>() else { continue };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, entry.path()));
        }
    }
    Ok(best)
}

/// Outcome of one trajectory run: where the snapshot landed and how it
/// compared to its predecessor.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Path of the snapshot written by this run.
    pub path: PathBuf,
    /// Its index `n` in `BENCH_<n>.json`.
    pub index: u64,
    /// Index of the predecessor compared against, if one existed.
    pub compared_to: Option<u64>,
    /// The comparison (empty when there was no predecessor).
    pub comparison: Comparison,
    /// The snapshot itself.
    pub trajectory: Trajectory,
}

impl Outcome {
    /// True if the regression gate passes.
    pub fn is_ok(&self) -> bool {
        self.comparison.is_ok()
    }

    /// Renders a deterministic summary (paths aside) of the run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trajectory snapshot {} ({} metrics)",
            self.path.display(),
            self.trajectory.metrics.len()
        ));
        match self.compared_to {
            Some(prev) => out.push_str(&format!(", compared against BENCH_{prev}.json:\n")),
            None => out.push_str(", no predecessor to compare against\n"),
        }
        if self.compared_to.is_some() {
            out.push_str(&self.comparison.render());
        }
        out.push_str(if self.is_ok() {
            "trajectory gate: PASS\n"
        } else {
            "trajectory gate: FAIL\n"
        });
        out
    }
}

/// Runs the scenarios, compares against the latest existing snapshot in
/// `cfg.dir`, writes the next `BENCH_<n>.json`, and returns the outcome.
/// The snapshot is written even when the gate fails, so the failing point
/// is preserved for inspection.
///
/// # Errors
///
/// Returns a message on scenario failure or filesystem errors.
pub fn run(cfg: &TrajectoryConfig) -> Result<Outcome, String> {
    let cur = collect(cfg)?;
    let prev = latest_in(&cfg.dir)?;
    let (index, compared_to, comparison) = match &prev {
        Some((n, path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let prev_traj = Trajectory::parse_json(&text)?;
            (n + 1, Some(*n), compare(&prev_traj, &cur))
        }
        None => (1, None, Comparison::default()),
    };
    let path = cfg.dir.join(format!("BENCH_{index}.json"));
    std::fs::write(&path, cur.to_json()).map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(Outcome {
        path,
        index,
        compared_to,
        comparison,
        trajectory: cur,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(scenario: &str, name: &str, value: f64, direction: Direction) -> Metric {
        Metric {
            scenario: scenario.to_owned(),
            name: name.to_owned(),
            value,
            direction,
        }
    }

    fn snapshot(values: &[(&str, &str, f64, Direction)]) -> Trajectory {
        Trajectory {
            schema: SCHEMA_VERSION,
            cost_scale: 1.0,
            metrics: values
                .iter()
                .map(|(s, n, v, d)| metric(s, n, *v, *d))
                .collect(),
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let t = snapshot(&[
            ("ysb_c8", "throughput_mrps", 1.0 / 3.0, Direction::Higher),
            ("ysb_c8", "sim_secs", 5e-324, Direction::Lower),
            ("kernel_model", "sort_mergepath_mb", 16.0, Direction::Lower),
            ("cluster_s4", "records_in", 12.5, Direction::Exact),
        ]);
        let text = t.to_json();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(Trajectory::parse_json(&text).unwrap(), t);
    }

    #[test]
    fn identical_snapshots_pass_bit_stable() {
        let t = snapshot(&[("s", "a", 1.5, Direction::Higher)]);
        let cmp = compare(&t, &t.clone());
        assert!(cmp.is_ok());
        assert!(cmp.render().contains("bit-stable"));
    }

    #[test]
    fn direction_semantics_drive_the_gate() {
        let prev = snapshot(&[
            ("s", "up", 10.0, Direction::Higher),
            ("s", "down", 10.0, Direction::Lower),
            ("s", "fixed", 10.0, Direction::Exact),
        ]);
        // Higher got lower, Lower got higher, Exact changed: 3 regressions.
        let worse = snapshot(&[
            ("s", "up", 9.0, Direction::Higher),
            ("s", "down", 11.0, Direction::Lower),
            ("s", "fixed", 10.5, Direction::Exact),
        ]);
        assert_eq!(compare(&prev, &worse).regressions.len(), 3);
        // Higher got higher, Lower got lower: improvements, Exact equal.
        let better = snapshot(&[
            ("s", "up", 11.0, Direction::Higher),
            ("s", "down", 9.0, Direction::Lower),
            ("s", "fixed", 10.0, Direction::Exact),
        ]);
        let cmp = compare(&prev, &better);
        assert!(cmp.is_ok());
        assert_eq!(cmp.improvements.len(), 2);
    }

    #[test]
    fn missing_metric_is_a_regression_and_new_is_a_note() {
        let prev = snapshot(&[("s", "a", 1.0, Direction::Exact)]);
        let cur = snapshot(&[("s", "b", 2.0, Direction::Exact)]);
        let cmp = compare(&prev, &cur);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("disappeared"));
        assert_eq!(cmp.notes.len(), 1);
        assert!(cmp.notes[0].contains("new metric"));
    }

    #[test]
    fn schema_mismatch_skips_comparison() {
        let mut prev = snapshot(&[("s", "a", 1.0, Direction::Exact)]);
        prev.schema = SCHEMA_VERSION + 1;
        let cur = snapshot(&[("s", "a", 2.0, Direction::Exact)]);
        let cmp = compare(&prev, &cur);
        assert!(cmp.is_ok());
        assert!(cmp.notes[0].contains("schema changed"));
    }

    #[test]
    fn latest_in_picks_the_highest_index() {
        let dir = std::env::temp_dir().join("sbx_traj_latest_test");
        std::fs::create_dir_all(&dir).unwrap();
        for n in [1u64, 2, 10] {
            std::fs::write(dir.join(format!("BENCH_{n}.json")), "[\n]\n").unwrap();
        }
        std::fs::write(dir.join("BENCH_x.json"), "junk").unwrap();
        let (n, path) = latest_in(&dir).unwrap().unwrap();
        assert_eq!(n, 10);
        assert!(path.ends_with("BENCH_10.json"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
