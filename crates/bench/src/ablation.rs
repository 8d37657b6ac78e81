//! Design-choice ablations beyond the paper's Figure 9: early
//! aggregation (paper §4.2's optimization), bundle granularity (the unit of
//! data parallelism), and the coalesced Extract (paper §4.3 optimization 1,
//! measured at the primitive level).

// sbx-lint: out-of-scope(raw-alloc, bench harness; host-side measurement setup)
// sbx-lint: out-of-scope(no-panic, bench harness; a failed run should abort loudly)
use sbx_engine::ops::{AggKind, KeyedAggregate};
use sbx_engine::{benchmarks, Engine, PipelineBuilder, RunConfig};
use sbx_ingress::{KvSource, NicModel, SenderConfig};
use sbx_kpa::{ExecCtx, Kpa};
use sbx_records::{Col, RecordBundle, Schema, WindowSpec};
use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};

use crate::table::{f1, Table};

const CORES: u32 = 64;

fn cfg(bundle_rows: usize) -> RunConfig {
    RunConfig {
        machine: MachineConfig::knl(),
        cores: CORES,
        sender: SenderConfig {
            bundle_rows,
            bundles_per_watermark: 10,
            nic: NicModel::unlimited(),
        },
        ..RunConfig::default()
    }
}

/// Sum-per-key throughput with and without early aggregation, Mrec/s.
pub fn early_aggregation_ablation() -> (f64, f64) {
    let spec = WindowSpec::fixed(benchmarks::WINDOW_TICKS);
    let run = |early: bool| {
        let mut agg = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum);
        if !early {
            agg = agg.without_early_aggregation();
        }
        let pipeline = PipelineBuilder::new(spec)
            .windowed()
            .op(Box::new(agg))
            .build();
        Engine::new(cfg(20_000))
            .run(
                KvSource::new(5, 1_000, 20_000_000).with_value_range(1_000_000),
                pipeline,
                30,
            )
            .expect("run")
            .throughput_mrps()
    };
    (run(true), run(false))
}

/// TopK throughput across bundle sizes (the data-parallelism granularity).
pub fn bundle_size_sweep() -> Vec<(usize, f64)> {
    [2_000usize, 10_000, 50_000, 200_000]
        .iter()
        .map(|&rows| {
            let t = Engine::new(cfg(rows))
                .run(
                    KvSource::new(6, 10_000, 20_000_000).with_value_range(1_000_000),
                    benchmarks::topk_per_key(3),
                    600_000 / rows,
                )
                .expect("run")
                .throughput_mrps();
            (rows, t)
        })
        .collect()
}

/// Sliding-window Sum throughput (Mrec/s): pane-duplicating vs CQL-style
/// pane-combining, 40 ms windows sliding by 10 ms (4x overlap).
pub fn sliding_strategy_ablation() -> (f64, f64) {
    // Window 40 ms sliding by 10 ms at 20 M rec/s of event time: the run
    // spans several panes, so duplication really quadruples grouping work.
    let spec = WindowSpec::sliding(40_000_000, 10_000_000);
    let run = |panes: bool| {
        let pipeline = if panes {
            PipelineBuilder::new(spec)
                .windowed_panes()
                .op(Box::new(
                    KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum).with_pane_combining(),
                ))
                .build()
        } else {
            PipelineBuilder::new(spec)
                .windowed()
                .keyed_aggregate(Col(0), Col(1), AggKind::Sum)
                .build()
        };
        Engine::new(cfg(20_000))
            .run(
                KvSource::new(8, 1_000, 20_000_000).with_value_range(1_000_000),
                pipeline,
                30,
            )
            .expect("run")
            .throughput_mrps()
    };
    (run(false), run(true))
}

/// Modelled time (µs at 64 cores) of pairwise vs k-way window-closure
/// merge of `k` sorted KPAs of `n` rows each, with the KPAs spilled to
/// DRAM (the bandwidth-priced tier where the single-pass k-way merge pays
/// off; on HBM at these sizes both strategies are compute-bound and tie).
pub fn merge_strategy_ablation(k: usize, n: usize) -> (f64, f64) {
    let env = MemEnv::new(MachineConfig::knl().scaled(0.25));
    let model = env.cost().clone();
    let mk_parts = |ctx: &mut ExecCtx| -> Vec<Kpa> {
        (0..k)
            .map(|i| {
                let rows: Vec<u64> = (0..n as u64)
                    .flat_map(|j| [(j * 31 + i as u64) % 10_000, j, 0])
                    .collect();
                let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits");
                let mut kpa =
                    Kpa::extract(ctx, &b, Col(0), MemKind::Dram, Priority::Normal).unwrap();
                kpa.sort(ctx, 2).unwrap();
                kpa
            })
            .collect()
    };

    let mut ctx = ExecCtx::new(&env);
    let parts = mk_parts(&mut ctx);
    ctx.take_profile();
    // The structure `merge_many` replaced: `log2(k)` rounds of two-way
    // merges, every pair moved once per round.
    let mut round = parts;
    while round.len() > 1 {
        let mut next = Vec::new();
        let mut iter = round.into_iter();
        while let Some(a) = iter.next() {
            next.push(match iter.next() {
                Some(b) => Kpa::merge(&mut ctx, &a, &b, MemKind::Dram, Priority::Normal).unwrap(),
                None => a,
            });
        }
        round = next;
    }
    let pairwise = model.time_secs(&ctx.take_profile(), CORES) * 1e6;

    let parts = mk_parts(&mut ctx);
    ctx.take_profile();
    let _ = Kpa::merge_many(&mut ctx, parts, MemKind::Dram, Priority::Normal).unwrap();
    let kway = model.time_secs(&ctx.take_profile(), CORES) * 1e6;
    (pairwise, kway)
}

/// Modelled time (µs at 64 cores) of plain vs fused Extract of `n` rows.
pub fn fused_extract_ablation(n: usize) -> (f64, f64) {
    let env = MemEnv::new(MachineConfig::knl().scaled(0.25));
    let rows: Vec<u64> = (0..n as u64).flat_map(|i| [i, i, 0]).collect();
    let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).expect("fits");
    let model = env.cost().clone();

    let mut ctx = ExecCtx::new(&env);
    let _ = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
    let plain = model.time_secs(&ctx.take_profile(), CORES) * 1e6;
    let _ = Kpa::extract_fused(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
    let fused = model.time_secs(&ctx.take_profile(), CORES) * 1e6;
    (plain, fused)
}

/// Runs all ablations and prints the results table.
pub fn run() -> String {
    let mut t = Table::new(
        "Design ablations (64 cores, unlimited NIC)",
        &["ablation", "variant", "result"],
    );
    let (with_ea, without_ea) = early_aggregation_ablation();
    t.row(vec![
        "early aggregation".into(),
        "on".into(),
        format!("{} Mrec/s", f1(with_ea)),
    ]);
    t.row(vec![
        "early aggregation".into(),
        "off".into(),
        format!("{} Mrec/s", f1(without_ea)),
    ]);
    for (rows, tput) in bundle_size_sweep() {
        t.row(vec![
            "bundle size".into(),
            format!("{rows} rows"),
            format!("{} Mrec/s", f1(tput)),
        ]);
    }
    let (plain, fused) = fused_extract_ablation(1_000_000);
    t.row(vec![
        "extract 1M rows".into(),
        "plain".into(),
        format!("{} us", f1(plain)),
    ]);
    t.row(vec![
        "extract 1M rows".into(),
        "fused (§4.3)".into(),
        format!("{} us", f1(fused)),
    ]);
    let (dup, panes) = sliding_strategy_ablation();
    t.row(vec![
        "sliding 4x overlap".into(),
        "duplicate panes".into(),
        format!("{} Mrec/s", f1(dup)),
    ]);
    t.row(vec![
        "sliding 4x overlap".into(),
        "pane combining".into(),
        format!("{} Mrec/s", f1(panes)),
    ]);
    let (pairwise, kway) = merge_strategy_ablation(16, 50_000);
    t.row(vec![
        "merge 16x50k (DRAM)".into(),
        "pairwise".into(),
        format!("{} us", f1(pairwise)),
    ]);
    t.row(vec![
        "merge 16x50k (DRAM)".into(),
        "k-way heap".into(),
        format!("{} us", f1(kway)),
    ]);
    t.print()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Early aggregation shrinks window state and the close-time merge, so
    /// it must not be slower.
    #[test]
    fn early_aggregation_helps_or_ties() {
        let (with_ea, without_ea) = early_aggregation_ablation();
        assert!(
            with_ea >= without_ea * 0.95,
            "early aggregation regressed: {with_ea} vs {without_ea}"
        );
    }

    /// The fused extract must be strictly cheaper than the plain one.
    #[test]
    fn fused_extract_is_cheaper() {
        let (plain, fused) = fused_extract_ablation(100_000);
        assert!(fused < plain, "fused {fused} vs plain {plain}");
    }

    /// Computing each pane once must beat duplicating it into all four
    /// overlapping windows.
    #[test]
    fn pane_combining_is_faster_for_sliding_windows() {
        let (dup, panes) = sliding_strategy_ablation();
        assert!(panes > dup, "panes {panes} vs duplicating {dup}");
    }

    /// Pairwise merging moves each pair log2(k) times; the k-way heap
    /// moves it once. On bandwidth-priced DRAM (spilled window state) the
    /// k-way pass must be cheaper for wide merges in the model.
    #[test]
    fn kway_merge_is_modelled_cheaper_for_wide_merges() {
        let (pairwise, kway) = merge_strategy_ablation(16, 20_000);
        assert!(kway < pairwise, "kway {kway} vs pairwise {pairwise}");
    }

    #[test]
    fn bundle_size_sweep_runs() {
        let sweep = bundle_size_sweep();
        assert_eq!(sweep.len(), 4);
        for (_, t) in sweep {
            assert!(t > 0.0);
        }
    }
}
