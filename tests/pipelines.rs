//! End-to-end pipeline tests: every benchmark pipeline is run through the
//! full engine (ingestion → operators → watermark closure → egress) and
//! checked against an independently computed scalar oracle over the *same*
//! generated records.

use std::collections::HashMap;

use streambox_hbm::prelude::*;

const WINDOW: u64 = 1_000_000_000;

/// Replays the generator to obtain the exact records the engine saw.
fn generated_rows(seed: u64, keys: u64, rate: u64, vrange: u64, n: usize) -> Vec<[u64; 3]> {
    let mut src = KvSource::new(seed, keys, rate).with_value_range(vrange);
    let mut flat = Vec::new();
    src.fill(n, &mut flat);
    flat.chunks(3).map(|c| [c[0], c[1], c[2]]).collect()
}

fn run_benchmark(pipeline: Pipeline, seed: u64, keys: u64, vrange: u64) -> RunReport {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_500,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let source = KvSource::new(seed, keys, 60_000).with_value_range(vrange);
    Engine::new(cfg)
        .run(source, pipeline, 20)
        .expect("engine run")
}

fn outputs_as_map(report: &RunReport) -> HashMap<(u64, u64), u64> {
    let mut got = HashMap::new();
    for b in &report.outputs {
        for r in 0..b.rows() {
            let w = b.value(r, Col(2)) / WINDOW;
            let prev = got.insert((w, b.value(r, Col(0))), b.value(r, Col(1)));
            assert!(prev.is_none(), "duplicate output for window/key");
        }
    }
    got
}

#[test]
fn avg_per_key_matches_oracle() {
    let rows = generated_rows(101, 20, 60_000, 10_000, 30_000);
    let report = run_benchmark(benchmarks::avg_per_key(), 101, 20, 10_000);
    let mut sums: HashMap<(u64, u64), (u128, u64)> = HashMap::new();
    for [k, v, t] in &rows {
        let e = sums.entry((t / WINDOW, *k)).or_insert((0, 0));
        e.0 += *v as u128;
        e.1 += 1;
    }
    let expect: HashMap<(u64, u64), u64> = sums
        .into_iter()
        .map(|(k, (s, c))| (k, (s / c as u128) as u64))
        .collect();
    assert_eq!(outputs_as_map(&report), expect);
}

#[test]
fn median_per_key_matches_oracle() {
    let rows = generated_rows(102, 10, 60_000, 1_000, 30_000);
    let report = run_benchmark(benchmarks::median_per_key(), 102, 10, 1_000);
    let mut groups: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    for [k, v, t] in &rows {
        groups.entry((t / WINDOW, *k)).or_default().push(*v);
    }
    let expect: HashMap<(u64, u64), u64> = groups
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort_unstable();
            (k, vs[(vs.len() - 1) / 2])
        })
        .collect();
    assert_eq!(outputs_as_map(&report), expect);
}

#[test]
fn unique_count_per_key_matches_oracle() {
    let rows = generated_rows(103, 10, 60_000, 50, 30_000);
    let report = run_benchmark(benchmarks::unique_count_per_key(), 103, 10, 50);
    let mut groups: HashMap<(u64, u64), std::collections::HashSet<u64>> = HashMap::new();
    for [k, v, t] in &rows {
        groups.entry((t / WINDOW, *k)).or_default().insert(*v);
    }
    let expect: HashMap<(u64, u64), u64> = groups
        .into_iter()
        .map(|(k, s)| (k, s.len() as u64))
        .collect();
    assert_eq!(outputs_as_map(&report), expect);
}

#[test]
fn topk_emits_k_largest_values_per_key() {
    let rows = generated_rows(104, 5, 60_000, 1_000_000, 30_000);
    let report = run_benchmark(benchmarks::topk_per_key(3), 104, 5, 1_000_000);
    let mut groups: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    for [k, v, t] in &rows {
        groups.entry((t / WINDOW, *k)).or_default().push(*v);
    }
    // Collect engine outputs per (window, key).
    let mut got: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    for b in &report.outputs {
        for r in 0..b.rows() {
            let w = b.value(r, Col(2)) / WINDOW;
            got.entry((w, b.value(r, Col(0))))
                .or_default()
                .push(b.value(r, Col(1)));
        }
    }
    for (key, mut vs) in groups {
        vs.sort_unstable_by(|a, b| b.cmp(a));
        vs.truncate(3);
        assert_eq!(got.get(&key), Some(&vs), "top-3 mismatch for {key:?}");
    }
}

#[test]
fn ysb_counts_views_per_campaign() {
    let campaigns = 20u64;
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(
            YsbSource::new(77, 500, campaigns, 100_000),
            benchmarks::ysb(campaigns),
            20,
        )
        .expect("run");

    // Oracle over the same generated records.
    let mut src = YsbSource::new(77, 500, campaigns, 100_000);
    let mut flat = Vec::new();
    src.fill(40_000, &mut flat);
    let mut expect: HashMap<(u64, u64), u64> = HashMap::new();
    for rec in flat.chunks(7) {
        if rec[3] < 2 {
            // same ad_type filter as the pipeline
            *expect
                .entry((rec[5] / WINDOW, rec[2] % campaigns))
                .or_insert(0) += 1;
        }
    }
    assert_eq!(outputs_as_map(&report), expect);
}

#[test]
fn temporal_join_pairs_matching_machines() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 500,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let l = KvSource::new(201, 50, 20_000).with_value_range(100);
    let r = KvSource::new(202, 50, 20_000).with_value_range(100);
    let report = Engine::new(cfg)
        .run(vec![l, r], benchmarks::temporal_join(), 20)
        .expect("run");

    // Oracle: nested-loop join over the same two generated streams.
    let mk = |seed: u64| {
        let mut s = KvSource::new(seed, 50, 20_000).with_value_range(100);
        let mut f = Vec::new();
        s.fill(10 * 500, &mut f);
        f.chunks(3).map(|c| [c[0], c[1], c[2]]).collect::<Vec<_>>()
    };
    let (lrows, rrows) = (mk(201), mk(202));
    let mut expect = 0u64;
    for [lk, _, lt] in &lrows {
        for [rk, _, rt] in &rrows {
            if lk == rk && lt / WINDOW == rt / WINDOW {
                expect += 1;
            }
        }
    }
    assert_eq!(report.output_records, expect);
}

#[test]
fn power_grid_runs_and_emits_winning_houses() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let houses = 20u64;
    let report = Engine::new(cfg)
        .run(
            PowerGridSource::new(301, houses, 10, 50_000),
            benchmarks::power_grid(),
            20,
        )
        .expect("run");
    assert!(report.windows_closed > 0);
    assert!(report.output_records > 0);
    for b in &report.outputs {
        for r in 0..b.rows() {
            assert!(b.value(r, Col(0)) < houses, "winner must be a real house");
            assert!(b.value(r, Col(1)) >= 1, "winner has at least one hot plug");
        }
    }
}

#[test]
fn windowed_filter_keeps_above_average_records() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let data = KvSource::new(401, 100, 40_000).with_value_range(1_000);
    let control = KvSource::new(402, 100, 40_000).with_value_range(1_000);
    let report = Engine::new(cfg)
        .run(vec![data, control], benchmarks::windowed_filter(), 20)
        .expect("run");

    // Oracle: per window, control average; count data records above it.
    let mk = |seed: u64| {
        let mut s = KvSource::new(seed, 100, 40_000).with_value_range(1_000);
        let mut f = Vec::new();
        s.fill(10 * 1_000, &mut f);
        f.chunks(3).map(|c| [c[0], c[1], c[2]]).collect::<Vec<_>>()
    };
    let (drows, crows) = (mk(401), mk(402));
    let mut csum: HashMap<u64, (u128, u64)> = HashMap::new();
    for [_, v, t] in &crows {
        let e = csum.entry(t / WINDOW).or_insert((0, 0));
        e.0 += *v as u128;
        e.1 += 1;
    }
    let mut expect = 0u64;
    for [_, v, t] in &drows {
        let w = t / WINDOW;
        let avg = csum.get(&w).map_or(0, |(s, c)| (s / *c as u128) as u64);
        if *v > avg {
            expect += 1;
        }
    }
    assert_eq!(report.output_records, expect);
}

#[test]
fn sliding_windows_count_each_record_in_every_window() {
    // 1-second windows sliding by 0.5 s: each record lands in 2 windows.
    let spec = WindowSpec::sliding(WINDOW, WINDOW / 2);
    let pipeline = PipelineBuilder::new(spec)
        .windowed()
        .keyed_aggregate(Col(0), Col(1), AggKind::Count)
        .build();
    let cfg = RunConfig {
        cores: 8,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 4,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(KvSource::new(55, 1, 20_000), pipeline, 12)
        .expect("run");
    let total: u64 = report
        .outputs
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |r| b.value(r, Col(1))))
        .sum();
    // A record at ts lies in min(overlap, ts/slide + 1) windows (early
    // records are covered by fewer windows).
    let mut src = KvSource::new(55, 1, 20_000);
    let mut flat = Vec::new();
    src.fill(report.records_in as usize, &mut flat);
    let expect: u64 = flat
        .chunks(3)
        .map(|r| (r[2] / (WINDOW / 2) + 1).min(2))
        .sum();
    assert_eq!(total, expect, "window multiplicity must match the spec");
}

/// Metamorphic relation: committed rows do not depend on how a stream is
/// cut into bundles. Every benchmark of the suite, 28 000 records per
/// stream cut into bundles of 1, 7, 1 000 and 2 000 records — an even
/// bundle count each, so two-stream rows put the same records on each
/// port — commits the same multiset of rows. At 100 records per
/// event-second over at most 100 keys the run spans 280 windows; small
/// windows keep the one-record-bundle runs fast, because a window's state
/// links one bundle per arrival and every arrival at the temporal join
/// re-merges its side's state. A watermark follows about every 4 000
/// records.
#[test]
fn committed_rows_are_invariant_under_bundle_size() {
    const RECORDS: usize = 28_000;
    for b in &benchmarks::SUITE {
        let rows_at = |bundle_rows: usize| {
            let cfg = RunConfig {
                cores: 8,
                // One lane, for time only: one-record bundles make tens of
                // thousands of tiny merges, and a multi-lane merge spawns
                // its lanes on every call.
                threads: 1,
                collect_outputs: true,
                sender: SenderConfig {
                    bundle_rows,
                    bundles_per_watermark: (4_000 / bundle_rows).max(1),
                    nic: NicModel::rdma_40g(),
                },
                ..RunConfig::default()
            };
            let report = Engine::new(cfg)
                .run(
                    b.sources(7, b.keys.min(100), 100, None),
                    (b.pipeline)(GroupingSpec::SortMerge),
                    b.streams * RECORDS / bundle_rows,
                )
                .expect("engine run");
            let mut rows: Vec<Vec<u64>> = report
                .outputs
                .iter()
                .flat_map(|o| (0..o.rows()).map(move |r| o.row(r).to_vec()))
                .collect();
            rows.sort_unstable();
            rows
        };
        let want = rows_at(2_000);
        assert!(!want.is_empty(), "{}", b.name);
        for bundle_rows in [1, 7, 1_000] {
            assert!(
                rows_at(bundle_rows) == want,
                "{}: rows differ at {bundle_rows}-record bundles",
                b.name
            );
        }
    }
}
