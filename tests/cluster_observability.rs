//! Cluster-wide observability tests (DESIGN.md §13): cross-shard span
//! stitching, critical-path attribution of the stitched trace that
//! partitions the simulated makespan exactly, byte-identical same-seed exports, and
//! fabric detectors that stay silent on a balanced cluster.

use std::sync::Arc;

use streambox_hbm::prelude::*;

const BUNDLES: usize = 30;
const INTERVAL: u64 = 5;
const CUT: u64 = 2;
const YSB_CAMPAIGNS: u64 = 1_000;

/// A traced YSB cluster config.
fn ysb_cfg(shards: u32, metrics: MetricsRegistry) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        shards,
        key_col: 2, // ad_id
        key_map: Some(Arc::new(|ad| ad % YSB_CAMPAIGNS)),
        metrics,
        trace: true,
        ..ClusterConfig::default()
    };
    cfg.engine.cores = 16;
    cfg.engine.sender = SenderConfig {
        bundle_rows: 2_000,
        bundles_per_watermark: 10,
        nic: NicModel::rdma_40g(),
    };
    cfg
}

fn ysb_rescale_run(metrics: MetricsRegistry) -> ClusterRunReport {
    ShardedCluster::new(ysb_cfg(4, metrics))
        .run_elastic(
            || YsbSource::new(1, 50_000, YSB_CAMPAIGNS, 20_000_000),
            || benchmarks::ysb(YSB_CAMPAIGNS),
            BUNDLES,
            INTERVAL,
            ElasticPlan {
                at_epoch: CUT,
                retarget: Retarget::Shards(6),
            },
        )
        .expect("ysb rescale run")
}

/// Acceptance: the 4-shard YSB rescale produces a stitched trace whose
/// distributed critical-path attribution — {compute, shuffle,
/// barrier-wait, straggler-slack} plus the fabric remainder — sums
/// *exactly* to the end-to-end simulated makespan in integer nanoseconds.
#[test]
fn ysb_rescale_attribution_partitions_the_makespan_exactly() {
    let report = ysb_rescale_run(MetricsRegistry::noop());
    let trace = report.trace.as_ref().expect("trace enabled");
    assert!(!trace.spans.is_empty());
    let path = CriticalPath::compute(&trace.spans);
    assert!(path.makespan_ns > 0);
    assert_eq!(
        path.compute_ns
            + path.shuffle_ns
            + path.barrier_wait_ns
            + path.straggler_ns
            + path.fabric_ns,
        path.makespan_ns,
        "the five buckets must partition the makespan exactly"
    );
    assert_eq!(path.attributed_ns(), path.makespan_ns);
    // The chain crosses the rescale: era-1 work cannot start before the
    // fabric, so compute appears on both sides and the shuffle/straggler
    // buckets exist (the run moved real state over real links).
    assert!(path.compute_ns > 0, "chain must contain operator compute");
    let eras: Vec<u32> = path.steps.iter().map(|s| s.slot_epoch).collect();
    assert!(
        eras.contains(&1),
        "the critical chain must reach post-rescale work"
    );
    // Per-shard critical + slack must reproduce each stream's total.
    for row in &path.per_track {
        assert_eq!(row.critical_ns + row.slack_ns(), row.total_ns);
    }
    // Per-epoch chains cover the cut epoch.
    assert!(path.per_epoch.iter().any(|e| e.epoch == CUT));
}

/// The per-primitive split sums each operator's byte counters over every
/// shard prefix (`cluster.[phase1.]shard<i>.engine.op.…`), so the rescale's
/// critical time lands on the KPA primitives, not all on `engine`.
#[test]
fn ysb_rescale_critical_time_splits_across_primitives() {
    let reg = MetricsRegistry::active();
    let report = ysb_rescale_run(reg.clone());
    let path = CriticalPath::compute(&report.trace.expect("trace enabled").spans);
    let split = path.attribute_primitives(&reg.snapshot());
    let critical = |label: &str| {
        split
            .iter()
            .find(|p| p.label == label)
            .map_or(0, |p| p.critical_ns)
    };
    assert!(critical("sort") > 0, "{split:?}");
    assert!(critical("merge") > 0, "{split:?}");
}

/// Acceptance: two same-seed runs export byte-identical stitched traces
/// (JSONL and Perfetto), metrics, and incident files.
#[test]
fn same_seed_runs_export_byte_identical_cluster_artifacts() {
    let run = || {
        let reg = MetricsRegistry::active();
        let report = ysb_rescale_run(reg.clone());
        let incidents = IncidentReport::new(report.incidents.clone());
        let trace = report.trace.expect("trace enabled");
        (
            trace.export_jsonl(),
            trace.export_chrome(),
            reg.export_jsonl(),
            incidents.to_jsonl(),
        )
    };
    let (jsonl_a, chrome_a, metrics_a, incidents_a) = run();
    let (jsonl_b, chrome_b, metrics_b, incidents_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "stitched JSONL must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "Perfetto export must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metrics must be byte-identical");
    assert_eq!(incidents_a, incidents_b, "incidents must be byte-identical");
}

/// Stitcher properties on real harvested streams: ids are unique across
/// shards, every edge is causal (`parent.end <= child.start`) with the
/// parent id strictly below the child id, and at least one edge crosses
/// the shard boundary through the fabric.
#[test]
fn stitched_trace_edges_are_causal_and_ids_unique() {
    let report = ysb_rescale_run(MetricsRegistry::noop());
    let trace = report.trace.as_ref().expect("trace enabled");
    let mut ids = std::collections::BTreeSet::new();
    for cs in &trace.spans {
        assert!(ids.insert(cs.span.id), "duplicate id {}", cs.span.id);
    }
    let by_id: std::collections::BTreeMap<u64, &ClusterSpan> =
        trace.spans.iter().map(|cs| (cs.span.id, cs)).collect();
    let mut cross_shard_edges = 0u64;
    let mut fabric_spans = 0u64;
    for cs in &trace.spans {
        if cs.shard == FABRIC_SHARD {
            fabric_spans += 1;
        }
        let Some(pid) = cs.span.parent else { continue };
        let parent = by_id.get(&pid).expect("parent id must exist");
        assert!(pid < cs.span.id, "parent ids precede child ids");
        assert!(
            parent.span.start_ns + parent.span.dur_ns <= cs.span.start_ns,
            "child availability must not precede parent end ({} -> {})",
            pid,
            cs.span.id
        );
        if parent.shard != cs.shard {
            cross_shard_edges += 1;
        }
    }
    assert!(fabric_spans > 0, "rescale must synthesize fabric spans");
    assert!(
        cross_shard_edges > 0,
        "era-1 roots must cross the shard boundary through the fabric"
    );
    // Round-trip: the JSONL export parses back to the same spans.
    let parsed = parse_cluster_spans_jsonl(&trace.export_jsonl()).expect("parse");
    assert_eq!(&parsed, &trace.spans);
}

/// A balanced uniform-key cluster files no incidents: no straggler, no
/// watermark lag, no slot skew, no link saturation, and no shard-engine
/// verdict either.
#[test]
fn balanced_cluster_files_no_incidents() {
    let cfg = ClusterConfig {
        shards: 4,
        metrics: MetricsRegistry::active(),
        ..ClusterConfig::default()
    };
    let report = ShardedCluster::new(cfg)
        .run(
            || KvSource::new(1, 50_000, 20_000_000),
            benchmarks::sum_per_key,
            BUNDLES,
            INTERVAL,
        )
        .expect("balanced run");
    let kinds: Vec<&str> = report
        .incidents
        .iter()
        .map(|i| i.verdict.kind.as_str())
        .collect();
    assert!(kinds.is_empty(), "balanced cluster tripped: {kinds:?}");
}

/// A static (no-rescale) traced run still stitches: one era-0 stream per
/// shard, no fabric spans, all chains intra-shard, and the critical path
/// still partitions the makespan.
#[test]
fn static_run_stitches_without_fabric_spans() {
    let report = ShardedCluster::new(ysb_cfg(4, MetricsRegistry::noop()))
        .run(
            || YsbSource::new(1, 50_000, YSB_CAMPAIGNS, 20_000_000),
            || benchmarks::ysb(YSB_CAMPAIGNS),
            BUNDLES,
            INTERVAL,
        )
        .expect("static run");
    let trace = report.trace.as_ref().expect("trace enabled");
    assert!(trace.spans.iter().all(|cs| cs.shard != FABRIC_SHARD));
    assert!(trace.spans.iter().all(|cs| cs.slot_epoch == 0));
    let shards: std::collections::BTreeSet<u32> = trace.spans.iter().map(|cs| cs.shard).collect();
    assert_eq!(shards.len(), 4, "one stream per shard");
    let path = CriticalPath::compute(&trace.spans);
    assert_eq!(path.attributed_ns(), path.makespan_ns);
    assert_eq!(path.shuffle_ns, 0);
    assert_eq!(path.straggler_ns, 0);
}
