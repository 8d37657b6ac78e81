//! Late-data semantics: when a source violates its watermark promise,
//! stateful operators must drop the late records rather than re-open closed
//! windows — each window is externalized exactly once.

use std::collections::HashSet;
use std::sync::Arc;

use streambox_hbm::prelude::*;
use streambox_hbm::records::EventTime as Et;

/// A source that *breaks* the watermark contract: it claims a watermark far
/// ahead of timestamps it will still emit.
#[derive(Debug)]
struct LyingSource {
    inner: KvSource,
    count: u64,
}

impl LyingSource {
    fn new(seed: u64) -> Self {
        LyingSource {
            inner: KvSource::new(seed, 10, 1_000).with_value_range(100),
            count: 0,
        }
    }
}

impl Source for LyingSource {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        let start = out.len();
        self.inner.fill(rows, out);
        // Every 7th record is rewound a full two windows into the past —
        // behind any watermark the sender has already promised.
        for (i, row) in out[start..].chunks_mut(3).enumerate() {
            self.count += 1;
            if (self.count + i as u64).is_multiple_of(7) {
                row[2] = row[2].saturating_sub(2_000_000_000);
            }
        }
    }

    fn low_watermark(&self) -> Et {
        // The lie: promise the front of the stream, ignoring rewinds.
        self.inner.low_watermark()
    }
}

#[test]
fn violated_watermarks_never_duplicate_windows() {
    let cfg = RunConfig {
        cores: 16,
        collect_outputs: true,
        sender: SenderConfig {
            bundle_rows: 500,
            bundles_per_watermark: 3,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };
    let report = Engine::new(cfg)
        .run(LyingSource::new(3), benchmarks::sum_per_key(), 30)
        .expect("run survives watermark violations");

    // Every (window, key) appears at most once across all outputs.
    let mut seen = HashSet::new();
    for b in &report.outputs {
        for r in 0..b.rows() {
            let key = (b.value(r, Col(2)), b.value(r, Col(0)));
            assert!(seen.insert(key), "window/key {key:?} externalized twice");
        }
    }
    assert!(report.output_records > 0);
    assert!(report.records_in == 15_000);
}

#[test]
fn honest_sources_drop_nothing() {
    use streambox_hbm::engine::ops::WindowInto;
    use streambox_hbm::engine::ops::{AggKind, KeyedAggregate};
    use streambox_hbm::engine::{
        DemandBalancer, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData,
    };
    use streambox_hbm::records::{RecordBundle, Watermark};

    let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
    let mut bal = DemandBalancer::new();
    let spec = WindowSpec::fixed(10);
    let mut window = WindowInto::new(spec);
    let mut agg = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum);
    let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);

    let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 5, 0, 1, 6, 12]).unwrap();
    for m in window
        .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
        .unwrap()
    {
        agg.on_message(&mut ctx, m).unwrap();
    }
    agg.on_message(&mut ctx, Message::Watermark(Watermark::from(100)))
        .unwrap();
    assert_eq!(agg.late_records(), 0);
}

#[test]
fn late_windowed_data_is_counted_and_ignored() {
    use streambox_hbm::engine::ops::{AggKind, KeyedAggregate, WindowInto};
    use streambox_hbm::engine::{
        DemandBalancer, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData,
    };
    use streambox_hbm::records::{RecordBundle, Watermark};

    let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
    let mut bal = DemandBalancer::new();
    let spec = WindowSpec::fixed(10);
    let mut window = WindowInto::new(spec);
    let mut agg = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum);
    let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);

    // Close window 0.
    let out = agg
        .on_message(&mut ctx, Message::Watermark(Watermark::from(10)))
        .unwrap();
    assert_eq!(out.len(), 1); // just the watermark: nothing buffered

    // Now data for window 0 arrives late.
    let b = RecordBundle::from_rows(&env, Schema::kvt(), &[7, 42, 3]).unwrap();
    for m in window
        .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
        .unwrap()
    {
        let outs = agg.on_message(&mut ctx, m).unwrap();
        assert!(outs.is_empty());
    }
    assert_eq!(agg.late_records(), 1);
    assert_eq!(
        agg.open_windows(),
        0,
        "late data must not re-open the window"
    );
}
