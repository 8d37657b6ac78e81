//! End-to-end tests for the extended Table-1 operators (Sample,
//! MapRecords, Union, Cogroup) running inside full engine pipelines.

use std::collections::HashMap;

use streambox_hbm::engine::ops::SideAgg;
use streambox_hbm::prelude::*;

const WINDOW: u64 = 1_000_000_000;

fn cfg() -> RunConfig {
    RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    }
}

#[test]
fn sample_then_count_is_a_subset_of_full_count() {
    let spec = WindowSpec::fixed(WINDOW);
    let run = |fraction: f64| {
        let pipeline = PipelineBuilder::new(spec)
            .sample(Col(0), fraction)
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::Count)
            .build();
        let report = Engine::new(cfg())
            .run(KvSource::new(7, 1_000, 50_000), pipeline, 10)
            .expect("run");
        let total: u64 = report
            .outputs
            .iter()
            .flat_map(|b| (0..b.rows()).map(move |r| b.value(r, Col(1))))
            .sum();
        total
    };
    let full = run(1.0);
    let half = run(0.5);
    assert_eq!(full, 10_000);
    assert!(half > 3_500 && half < 6_500, "kept {half} of 10000");
}

#[test]
fn map_records_feeds_downstream_aggregation() {
    // Map: square the value, drop odd keys; then sum per key.
    let spec = WindowSpec::fixed(WINDOW);
    let pipeline = PipelineBuilder::new(spec)
        .map_records(Schema::kvt(), |row, out| {
            if row[0] % 2 == 0 {
                out.extend_from_slice(&[row[0], row[1] * row[1], row[2]]);
            }
        })
        .windowed()
        .keyed_aggregate(Col(0), Col(1), AggKind::Sum)
        .build();
    let report = Engine::new(cfg())
        .run(
            KvSource::new(8, 10, 50_000).with_value_range(100),
            pipeline,
            10,
        )
        .expect("run");

    // Oracle.
    let mut src = KvSource::new(8, 10, 50_000).with_value_range(100);
    let mut flat = Vec::new();
    src.fill(10_000, &mut flat);
    let mut expect: HashMap<(u64, u64), u64> = HashMap::new();
    for r in flat.chunks(3) {
        if r[0] % 2 == 0 {
            *expect.entry((r[2] / WINDOW, r[0])).or_insert(0) += r[1] * r[1];
        }
    }
    let mut got: HashMap<(u64, u64), u64> = HashMap::new();
    for b in &report.outputs {
        for r in 0..b.rows() {
            got.insert(
                (b.value(r, Col(2)) / WINDOW, b.value(r, Col(0))),
                b.value(r, Col(1)),
            );
        }
    }
    assert_eq!(got, expect);
}

#[test]
fn union_merges_two_streams_into_one_aggregation() {
    let spec = WindowSpec::fixed(WINDOW);
    let pipeline = PipelineBuilder::new(spec)
        .union()
        .windowed()
        .keyed_aggregate(Col(0), Col(1), AggKind::Count)
        .build();
    let l = KvSource::new(11, 5, 50_000).with_value_range(10);
    let r = KvSource::new(12, 5, 50_000).with_value_range(10);
    let report = Engine::new(cfg())
        .run(vec![l, r], pipeline, 10)
        .expect("run");
    let total: u64 = report
        .outputs
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |r| b.value(r, Col(1))))
        .sum();
    // Both streams' records are counted together.
    assert_eq!(total, report.records_in);
    assert_eq!(report.records_in, 10_000);
}

#[test]
fn cogroup_matches_per_side_oracles() {
    let spec = WindowSpec::fixed(WINDOW);
    let pipeline = PipelineBuilder::new(spec)
        .windowed()
        .cogroup(Col(0), Col(1), [SideAgg::Sum, SideAgg::Count])
        .build();
    let l = KvSource::new(21, 20, 50_000).with_value_range(1_000);
    let r = KvSource::new(22, 20, 50_000).with_value_range(1_000);
    let report = Engine::new(cfg())
        .run(vec![l, r], pipeline, 10)
        .expect("run");

    let oracle = |seed: u64| {
        let mut s = KvSource::new(seed, 20, 50_000).with_value_range(1_000);
        let mut f = Vec::new();
        s.fill(5_000, &mut f);
        let mut m: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        for row in f.chunks(3) {
            let e = m.entry((row[2] / WINDOW, row[0])).or_insert((0, 0));
            e.0 += row[1];
            e.1 += 1;
        }
        m
    };
    let (lo, ro) = (oracle(21), oracle(22));

    let mut seen = 0usize;
    for b in &report.outputs {
        for row in 0..b.rows() {
            let key = (b.value(row, Col(3)) / WINDOW, b.value(row, Col(0)));
            let l_sum = lo.get(&key).map_or(0, |e| e.0);
            let r_count = ro.get(&key).map_or(0, |e| e.1);
            assert_eq!(b.value(row, Col(1)), l_sum, "left sum for {key:?}");
            assert_eq!(b.value(row, Col(2)), r_count, "right count for {key:?}");
            seen += 1;
        }
    }
    let mut all_keys: std::collections::HashSet<_> = lo.keys().collect();
    all_keys.extend(ro.keys());
    assert_eq!(seen, all_keys.len(), "one output row per key per window");
}

/// CQL-style pane combining: a sliding-window Sum computed from
/// single-copy panes must equal the pane-duplicating implementation.
#[test]
fn pane_combining_matches_duplicating_sliding_sum() {
    use streambox_hbm::engine::ops::{AggKind, KeyedAggregate};

    // 4 panes/window; the 20k-record run spans ~8 panes.
    let spec = WindowSpec::sliding(100_000_000, 25_000_000);
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
        let report = Engine::new(cfg())
            .run(
                KvSource::new(31, 50, 100_000).with_value_range(1_000),
                pipeline,
                20,
            )
            .expect("run");
        let mut digest: Vec<(u64, u64, u64)> = report
            .outputs
            .iter()
            .flat_map(|b| {
                (0..b.rows())
                    .map(move |r| (b.value(r, Col(2)), b.value(r, Col(0)), b.value(r, Col(1))))
            })
            .collect();
        digest.sort_unstable();
        digest
    };
    let duplicating = run(false);
    let combining = run(true);
    assert!(!duplicating.is_empty());
    assert_eq!(combining, duplicating);
}

/// Pane combining must also be transparent for plain fixed windows.
#[test]
fn pane_combining_is_transparent_for_fixed_windows() {
    use streambox_hbm::engine::ops::{AggKind, KeyedAggregate};

    let spec = WindowSpec::fixed(WINDOW);
    let pipeline = PipelineBuilder::new(spec)
        .windowed_panes()
        .op(Box::new(
            KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Count).with_pane_combining(),
        ))
        .build();
    let report = Engine::new(cfg())
        .run(KvSource::new(32, 10, 50_000), pipeline, 10)
        .expect("run");
    let total: u64 = report
        .outputs
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |r| b.value(r, Col(1))))
        .sum();
    assert_eq!(total, report.records_in);
}
