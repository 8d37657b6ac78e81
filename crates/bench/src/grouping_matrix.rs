//! Grouping-backend matrix: cardinality × skew × window size sweep over
//! the pluggable GroupBy backends (DESIGN.md §14).
//!
//! Each cell generates a deterministic keyed stream (uniform or Zipf keys
//! over a bounded domain), runs it through `WindowInto → KeyedAggregate`
//! once per backend — KPA sort-merge, sharded hash, row-engine baseline,
//! and the adaptive chooser — and accounts the modelled per-window cost of
//! the aggregation operator. Windows arrive as multiple bundles, as they
//! do under the engine, so the adaptive sketch only ever sees a window's
//! first slice.
//!
//! Invariants checked on every cell:
//!
//! 1. all four backends emit byte-identical window aggregates, and
//! 2. the adaptive backend's steady-state cost (windows after its sort
//!    cold-start) is within [`ADAPTIVE_TOLERANCE`] of the best static
//!    backend — i.e. the decision lands on the right side of the
//!    sort/hash crossover in every regime.

// sbx-lint: out-of-scope(raw-alloc, bench matrix; host-side stream assembly and tables)
// sbx-lint: out-of-scope(no-panic, bench matrix; a failed cell should abort loudly)

use sbx_engine::ops::{AggKind, KeyedAggregate, WindowInto};
use sbx_engine::{DemandBalancer, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData};
use sbx_ingress::ZipfKeys;
use sbx_prng::SbxRng;
use sbx_records::{Col, RecordBundle, Schema, Watermark, WindowSpec};
use sbx_simmem::{CostModel, MachineConfig, MemEnv};

pub use sbx_engine::ops::GroupingSpec;

use crate::table::{f2, Table};

/// Event-time ticks per window.
const WINDOW_TICKS: u64 = 10;
/// Windows per cell. Window 0 is the adaptive backend's sort cold-start;
/// steady-state cost sums windows `1..`.
const WINDOWS: usize = 4;
/// Modelled cores the per-window profiles are evaluated at.
const CORES: u32 = 64;
/// Steady-state slack allowed to the adaptive backend over the best
/// static one (sketch on the first slice of each window, decision jitter).
pub const ADAPTIVE_TOLERANCE: f64 = 1.05;

/// One matrix cell: a window size, a key domain, and a Zipf exponent
/// (`theta == 0.0` is uniform).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Records per window.
    pub rows: usize,
    /// Key domain (distinct keys are `<= domain`).
    pub domain: u64,
    /// Zipf exponent; 0.0 draws uniformly.
    pub theta: f64,
    /// Bundles each window arrives in (mirrors engine feeding; keeps the
    /// adaptive sketch on a slice, not the whole window).
    pub bundles: usize,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{} rows, |K|={}, theta={:.1}",
            self.rows, self.domain, self.theta
        )
    }
}

/// The small-window half of the matrix (hash-friendly regimes). Quick
/// enough for CI smoke.
pub fn quick_cells() -> Vec<Cell> {
    let rows = 50_000;
    let mut cells = Vec::new();
    for domain in [100, 8_192, 4 * rows as u64] {
        for theta in [0.0, 1.2] {
            cells.push(Cell {
                rows,
                domain,
                theta,
                bundles: 16,
            });
        }
    }
    cells
}

/// The full matrix: small windows plus large windows whose uniform
/// high-cardinality cell crosses over to sort-merge (the grouping table
/// spills the on-package budget early in each window).
pub fn full_cells() -> Vec<Cell> {
    let mut cells = quick_cells();
    let rows = 2_000_000;
    for domain in [100, 8_192, 4 * rows as u64] {
        for theta in [0.0, 1.2] {
            cells.push(Cell {
                rows,
                domain,
                theta,
                bundles: 4,
            });
        }
    }
    cells
}

/// Deterministic key stream for one cell: `rows * WINDOWS` keys from
/// `SbxRng(seed)`, uniform or drawn by [`ZipfKeys`].
pub fn gen_keys(cell: &Cell, seed: u64) -> Vec<u64> {
    let mut rng = SbxRng::seed_from_u64(seed);
    let zipf = (cell.theta > 0.0).then(|| ZipfKeys::new(cell.domain, cell.theta));
    (0..cell.rows * WINDOWS)
        .map(|_| match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.random_range(0..cell.domain),
        })
        .collect()
}

/// Outcome of one backend over one cell.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend ran.
    pub grouping: GroupingSpec,
    /// Modelled aggregation seconds per window.
    pub window_secs: Vec<f64>,
    /// Steady-state seconds: windows `1..` (past the adaptive cold start).
    pub steady_secs: f64,
    /// Flattened `(key, value, ts)` output rows across all windows.
    pub out: Vec<u64>,
    /// Backend events noted per window (adaptive decisions).
    pub picks: Vec<String>,
}

/// Runs one backend over one cell's key stream and accounts the modelled
/// cost of every task the aggregation operator executes.
pub fn run_backend(cell: &Cell, grouping: GroupingSpec, keys: &[u64]) -> BackendRun {
    let machine = MachineConfig::knl();
    let env = MemEnv::new(machine.clone());
    let cost = CostModel::new(machine);
    let mut bal = DemandBalancer::new();
    let spec = WindowSpec::fixed(WINDOW_TICKS);
    let mut window_op = WindowInto::new(spec);
    // Early aggregation is disabled so the cells isolate pure grouping
    // work; the adaptive decision models it when enabled.
    let mut agg = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Count)
        .with_grouping(grouping)
        .without_early_aggregation();
    let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 4, ImpactTag::High);

    let mut window_secs = Vec::new();
    let mut out = Vec::new();
    let mut picks = Vec::new();
    let bundle_rows = cell.rows.div_ceil(cell.bundles);
    for w in 0..WINDOWS {
        let wkeys = &keys[w * cell.rows..(w + 1) * cell.rows];
        let mut secs = 0.0;
        let mut events: Vec<&'static str> = Vec::new();
        for chunk in wkeys.chunks(bundle_rows) {
            let mut flat = Vec::with_capacity(chunk.len() * 3);
            for (j, &k) in chunk.iter().enumerate() {
                let ts = w as u64 * WINDOW_TICKS + (j as u64 % WINDOW_TICKS);
                flat.extend_from_slice(&[k, 1, ts]);
            }
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
            let msgs = window_op
                .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
                .unwrap();
            // Windowing/extraction cost is identical across backends;
            // exclude it so the cell isolates the grouping work.
            let _ = ctx.take_profile();
            for m in msgs {
                let outs = agg.on_message(&mut ctx, m).unwrap();
                secs += cost.time_secs(&ctx.take_profile(), CORES);
                events.extend(ctx.take_events());
                assert!(outs.is_empty(), "no output before watermark");
            }
        }
        let wm = Watermark::from((w as u64 + 1) * WINDOW_TICKS);
        let mut closed = Vec::new();
        for m in window_op
            .on_message(&mut ctx, Message::Watermark(wm))
            .unwrap()
        {
            let _ = ctx.take_profile();
            closed.extend(agg.on_message(&mut ctx, m).unwrap());
            secs += cost.time_secs(&ctx.take_profile(), CORES);
            events.extend(ctx.take_events());
        }
        for m in closed {
            if let Message::Data {
                data: StreamData::Bundle(b),
                ..
            } = m
            {
                for r in 0..b.rows() {
                    out.extend_from_slice(&[
                        b.value(r, Col(0)),
                        b.value(r, Col(1)),
                        b.value(r, Col(2)),
                    ]);
                }
            }
        }
        window_secs.push(secs);
        picks.push(
            events
                .iter()
                .map(|e| match *e {
                    "groupby.backend.hash" => "H",
                    "groupby.backend.row" => "R",
                    _ => "S",
                })
                .collect::<String>(),
        );
    }
    let steady_secs = window_secs.iter().skip(1).sum();
    BackendRun {
        grouping,
        window_secs,
        steady_secs,
        out,
        picks,
    }
}

/// All four backends over one cell, with the byte-identity and
/// adaptive-vs-best-static invariants checked.
pub fn run_cell(cell: &Cell, seed: u64) -> Vec<BackendRun> {
    let keys = gen_keys(cell, seed);
    let runs: Vec<BackendRun> = [
        GroupingSpec::SortMerge,
        GroupingSpec::Hash,
        GroupingSpec::RowBaseline,
        GroupingSpec::Adaptive,
    ]
    .iter()
    .map(|&g| run_backend(cell, g, &keys))
    .collect();
    for r in &runs[1..] {
        assert_eq!(
            r.out,
            runs[0].out,
            "{:?} output diverges from sort-merge on cell [{}]",
            r.grouping,
            cell.label()
        );
    }
    let best_static = runs[..3]
        .iter()
        .map(|r| r.steady_secs)
        .fold(f64::INFINITY, f64::min);
    let adaptive = runs[3].steady_secs;
    assert!(
        adaptive <= best_static * ADAPTIVE_TOLERANCE,
        "adaptive steady-state {:.3} ms exceeds best static {:.3} ms on cell [{}] (picks {:?})",
        adaptive * 1e3,
        best_static * 1e3,
        cell.label(),
        runs[3].picks
    );
    runs
}

fn render(cells: &[Cell], title: &str) -> String {
    let mut table = Table::new(
        title,
        &[
            "rows/window",
            "domain",
            "theta",
            "sort ms",
            "hash ms",
            "row ms",
            "adaptive ms",
            "picks",
            "winner",
        ],
    );
    for cell in cells {
        let runs = run_cell(cell, 7);
        let ms: Vec<f64> = runs.iter().map(|r| r.steady_secs * 1e3).collect();
        let winner = if ms[0] <= ms[1] { "sort" } else { "hash" };
        table.row(vec![
            cell.rows.to_string(),
            cell.domain.to_string(),
            format!("{:.1}", cell.theta),
            f2(ms[0]),
            f2(ms[1]),
            f2(ms[2]),
            f2(ms[3]),
            runs[3].picks.join(","),
            winner.to_string(),
        ]);
    }
    table.print()
}

/// The full matrix (bench target): small and large windows.
pub fn run() -> String {
    let out = render(
        &full_cells(),
        "Grouping matrix: steady-state modelled cost per backend (KNL, 64 cores)",
    );
    crate::save_experiment("grouping_matrix", &out);
    out
}

/// The quick half of the matrix (CI smoke: small windows only).
pub fn run_quick() -> String {
    render(
        &quick_cells(),
        "Grouping matrix (quick): steady-state modelled cost per backend",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key generation is deterministic and respects the domain.
    #[test]
    fn keygen_is_deterministic_and_bounded() {
        let cell = Cell {
            rows: 1_000,
            domain: 64,
            theta: 1.2,
            bundles: 16,
        };
        let a = gen_keys(&cell, 7);
        let b = gen_keys(&cell, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_000 * WINDOWS);
        assert!(a.iter().all(|&k| k < 64));
        // Zipf skews: key 0 should own well over its uniform share.
        let zeros = a.iter().filter(|&&k| k == 0).count();
        assert!(zeros > a.len() / 32, "zipf mass missing: {zeros}");
    }

    /// A hash-friendly cell: identical outputs, adaptive picks hash after
    /// its cold-start window and lands at the static-hash cost.
    #[test]
    fn low_cardinality_cell_prefers_hash() {
        let cell = Cell {
            rows: 20_000,
            domain: 256,
            theta: 0.0,
            bundles: 16,
        };
        let runs = run_cell(&cell, 7);
        assert!(runs[1].steady_secs < runs[0].steady_secs, "hash should win");
        let picks = &runs[3].picks;
        assert_eq!(picks[0], "S", "cold start must sort");
        assert!(
            picks[1..].iter().all(|p| p == "H"),
            "steady picks: {picks:?}"
        );
    }

    /// A skewed cell keeps the byte-identity invariant (heavy keys stress
    /// shard balance and Misra-Gries).
    #[test]
    fn skewed_cell_outputs_are_identical() {
        let cell = Cell {
            rows: 20_000,
            domain: 80_000,
            theta: 1.2,
            bundles: 16,
        };
        run_cell(&cell, 11);
    }
}
