//! Arbitrary bytes into every decoder (ROADMAP item 4c): one valid export of
//! each format — metrics, spans, stitched cluster spans, engine and fabric
//! incidents, trajectory — plus one encoded snapshot goes through a fixed-seed schedule
//! of byte flips, insertions and truncations. Every decoder must answer
//! `Ok` or `Err`, never panic, and never allocate beyond its input (each
//! builds its result from pieces of the input it was handed, so returning at
//! all bounds it). The unmutated export must parse and re-export to the same
//! bytes. Span files that parse also go through the critical-path walker.

use sbx_bench::trajectory::Trajectory;
use sbx_prng::SbxRng;
use streambox_hbm::checkpoint::{decode_snapshot, encode_snapshot};
use streambox_hbm::engine::{EngineError, PipelineSnapshot};
use streambox_hbm::obs::Tracked;
use streambox_hbm::prelude::*;

const MUTATIONS: usize = 300;

/// Parses a text export and writes it back out.
type Reexport = fn(&str) -> Result<String, String>;

fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        s.write_line(None, &mut out);
    }
    out
}

/// Walks and renders parsed spans; on any input the five buckets partition
/// the makespan, since the scan's cursor ends at the tip's end.
fn walk<T: Tracked>(spans: &[T]) {
    let cp = CriticalPath::compute(spans);
    assert!(!cp.render(5, None).is_empty());
    assert_eq!(cp.attributed_ns(), cp.makespan_ns);
}

/// One valid export per text format, with its parse-and-re-export function.
fn text_exports() -> Vec<(&'static str, String, Reexport)> {
    // A spilling, traced, checkpoint-free engine run: metrics, spans and
    // (HBM shrunk to 256 KiB) spill-storm incidents.
    let obs = Obs::enabled();
    let mut machine = MachineConfig::knl().scaled(1.0 / 256.0);
    machine.hbm.capacity_bytes = 256 * 1024;
    let cfg = RunConfig {
        machine,
        cores: 16,
        threads: 1,
        sender: SenderConfig {
            bundle_rows: 2_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        obs: obs.clone(),
        ..RunConfig::default()
    };
    Engine::new(cfg)
        .run(
            KvSource::new(3, 1_000, 100_000).with_value_range(100),
            benchmarks::sum_per_key(),
            40,
        )
        .expect("spill run");
    let incidents = IncidentReport::new(obs.recorder.incidents());
    assert!(!incidents.is_empty(), "the spill run files incidents");

    // A traced 2 -> 3 shard rescale: stitched spans and the run's own
    // incident file, whose fabric verdicts are `FABRIC_SHARD` lines.
    let cluster = ShardedCluster::new(ClusterConfig {
        shards: 2,
        engine: RunConfig {
            cores: 8,
            threads: 1,
            sender: SenderConfig {
                bundle_rows: 1_000,
                bundles_per_watermark: 5,
                nic: NicModel::rdma_40g(),
            },
            ..RunConfig::default()
        },
        metrics: MetricsRegistry::active(),
        trace: true,
        ..ClusterConfig::default()
    });
    let report = cluster
        .run_elastic(
            || KvSource::new(7, 500, 100_000).with_zipf(1.0),
            benchmarks::sum_per_key,
            20,
            5,
            ElasticPlan {
                at_epoch: 2,
                retarget: Retarget::Shards(3),
            },
        )
        .expect("cluster run");
    let fabric = IncidentReport::new(report.incidents).to_jsonl();
    assert!(
        fabric.lines().count() >= 2,
        "the rescale files fabric incidents"
    );
    let stitched = report.trace.expect("traced run").export_jsonl();

    vec![
        ("metrics", obs.metrics.export_jsonl(), |t| {
            Ok(MetricsDump::parse_jsonl(t)?.to_jsonl())
        }),
        ("spans", obs.trace.export_jsonl(), |t| {
            let spans = parse_spans_jsonl(t)?;
            walk(&spans);
            Ok(spans_jsonl(&spans))
        }),
        ("cluster spans", stitched, |t| {
            let spans = parse_cluster_spans_jsonl(t)?;
            walk(&spans);
            Ok(ClusterTrace { spans }.export_jsonl())
        }),
        ("fabric incidents", fabric, |t| {
            Ok(IncidentReport::parse_jsonl(t)?.to_jsonl())
        }),
        ("incidents", incidents.to_jsonl(), |t| {
            Ok(IncidentReport::parse_jsonl(t)?.to_jsonl())
        }),
        (
            "trajectory",
            include_str!("../BENCH_3.json").to_owned(),
            |t| Ok(Trajectory::parse_json(t)?.to_json()),
        ),
    ]
}

/// One mutation of `data`: flip a bit, insert an element, or truncate.
fn mutate<T: Copy>(rng: &mut SbxRng, data: &mut Vec<T>, flip: impl Fn(T, u64) -> T, any: T) {
    let at = rng.random_range(0..data.len().max(1) as u64) as usize;
    match rng.random_range(0..3u64) {
        0 if !data.is_empty() => data[at] = flip(data[at], rng.random()),
        1 => data.insert(at.min(data.len()), flip(any, rng.random())),
        _ => data.truncate(at),
    }
}

#[test]
fn text_decoders_survive_mutated_exports() {
    let mut rng = SbxRng::seed_from_u64(0x4c);
    for (format, text, reexport) in text_exports() {
        assert!(
            text.lines().count() >= 2,
            "{format}: more than a summary line"
        );
        assert_eq!(reexport(&text).as_ref(), Ok(&text), "{format} re-export");
        for _ in 0..MUTATIONS {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..rng.random_range(1..4u64) {
                mutate(&mut rng, &mut bytes, |b, r| b ^ (1 << (r % 8)), 0u8);
            }
            let _ = reexport(&String::from_utf8_lossy(&bytes));
        }
    }
}

fn snapshot_cfg() -> RunConfig {
    RunConfig {
        cores: 8,
        sender: SenderConfig {
            bundle_rows: 1_000,
            bundles_per_watermark: 5,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    }
}

fn snapshot_source() -> KvSource {
    KvSource::new(7, 50, 100_000).with_value_range(1_000)
}

/// The latest snapshot of a checkpointed run of `pipeline`.
fn snapshot_of(pipeline: fn() -> Pipeline) -> PipelineSnapshot {
    let mut coord = CheckpointCoordinator::new();
    run_with_recovery(
        &snapshot_cfg(),
        snapshot_source,
        pipeline,
        20,
        3,
        &mut coord,
    )
    .expect("run");
    coord.store().latest().expect("decodes").expect("committed")
}

fn sum_snapshot() -> PipelineSnapshot {
    snapshot_of(benchmarks::sum_per_key)
}

/// A sliding sum over single-copy panes, four to a window.
fn pane_sum() -> Pipeline {
    use streambox_hbm::engine::ops::{AggKind, KeyedAggregate};
    let spec = WindowSpec::sliding(100_000_000, 25_000_000);
    let sum = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum).with_pane_combining();
    PipelineBuilder::new(spec)
        .windowed_panes()
        .op(Box::new(sum))
        .build()
}

/// A snapshot that decodes may still hold window ids and counters no run
/// produces; the engine computes window bounds from the ids at the next
/// watermark, walks from the pane cursor to the newest pane, and adds to
/// the counters. Resuming from one answers `Ok` or `Err` — `Err` where the
/// table says so — in a debug build too, and promptly.
#[test]
fn resume_survives_hostile_window_ids() {
    let sum: fn() -> Pipeline = benchmarks::sum_per_key;
    let (snap, panes) = (sum_snapshot(), snapshot_of(pane_sum));
    let mut far_entry = snap.clone();
    far_entry.ops[0].entries[0].window = u64::MAX / 2;
    let mut far_seen = snap.clone();
    far_seen.max_window_seen = u64::MAX;
    let mut counted_out = snap.clone();
    counted_out.records_in = u64::MAX - 1;
    counted_out.windows_closed = u64::MAX;
    // The last id `check_window_id` lets through: 7e11 windows from the cursor.
    let mut far_pane = panes.clone();
    let newest = far_pane.ops[0].entries.last_mut().expect("an open pane");
    newest.window = pane_sum().spec().last_window().0;
    let mut cursor_past_panes = panes.clone();
    cursor_past_panes.ops[0].scalars[0] = u64::MAX;
    for (hostile, pipeline, refused) in [
        (far_entry, sum, false),
        (far_seen, sum, false),
        (counted_out, sum, true),
        (far_pane, pane_sum, false),
        (cursor_past_panes, pane_sum, true),
    ] {
        let decoded = decode_snapshot(&encode_snapshot(&hostile));
        assert_eq!(decoded.as_ref(), Ok(&hostile));
        let resumed = Engine::new(snapshot_cfg()).resume_with_hooks(
            snapshot_source(),
            pipeline(),
            20,
            Some(3),
            &mut CheckpointCoordinator::new(),
            &hostile,
        );
        assert!(
            matches!(resumed, Err(EngineError::Config(_))) || (!refused && resumed.is_ok()),
            "{resumed:?}"
        );
    }
}

#[test]
fn snapshot_decoder_survives_mutated_words() {
    let snap = sum_snapshot();
    let words = encode_snapshot(&snap);
    assert!(words.len() > 100, "a snapshot with window state");
    assert_eq!(decode_snapshot(&words).as_ref(), Ok(&snap));

    let mut rng = SbxRng::seed_from_u64(0x4c);
    for _ in 0..MUTATIONS {
        let mut mutated = words.clone();
        for _ in 0..rng.random_range(1..4u64) {
            // Half the flips land a whole random word: a length field then
            // claims far more than the input holds.
            let flip = |w: u64, r: u64| {
                if r.is_multiple_of(2) {
                    r
                } else {
                    w ^ (1 << (r % 64))
                }
            };
            mutate(&mut rng, &mut mutated, flip, 0u64);
        }
        let _ = decode_snapshot(&mutated);
    }
}
