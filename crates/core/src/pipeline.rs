// sbx-lint: out-of-scope(raw-alloc, pipeline construction; boxed operators built once per pipeline)
use sbx_records::{Col, WindowSpec};

use crate::ops::{
    AggKind, AvgAll, Cogroup, ExternalJoin, Filter, GroupingSpec, KeyedAggregate, MapRecords,
    PowerGrid, Sample, SideAgg, TemporalJoin, Union, WindowInto, WindowedFilter,
};
use crate::{EngineMode, Operator, StatelessOperator};

/// One pipeline stage.
pub(crate) enum OpNode {
    /// A per-message operator.
    Stateless(Box<dyn StatelessOperator>),
    /// An operator with cross-message (window) state.
    Stateful(Box<dyn Operator>),
}

impl OpNode {
    /// The operator's name under `mode` (see [`Operator::name_in`]).
    pub(crate) fn name(&self, mode: EngineMode) -> &'static str {
        match self {
            OpNode::Stateless(op) => op.name(),
            OpNode::Stateful(op) => op.name_in(mode),
        }
    }
}

/// A declarative operator pipeline (paper Listing 1): a chain of compound
/// operators sharing one window specification.
pub struct Pipeline {
    spec: WindowSpec,
    ops: Vec<OpNode>,
}

impl Pipeline {
    /// The pipeline's window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pipeline has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operator names, source to sink, under the default mode.
    pub fn op_names(&self) -> Vec<&'static str> {
        self.op_names_in(EngineMode::default())
    }

    /// Operator names as metrics and spans carry them under `mode`.
    pub(crate) fn op_names_in(&self, mode: EngineMode) -> Vec<&'static str> {
        self.ops.iter().map(|op| op.name(mode)).collect()
    }

    /// The first operator that aggregates across keys
    /// ([`Operator::keyed`]), which a key-sharded run cannot split.
    pub fn unkeyed_op(&self) -> Option<&'static str> {
        self.ops.iter().find_map(|op| match op {
            OpNode::Stateful(op) if !op.keyed() => Some(op.name()),
            _ => None,
        })
    }

    pub(crate) fn ops_mut(&mut self) -> &mut [OpNode] {
        &mut self.ops
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .field("ops", &self.op_names())
            .finish()
    }
}

/// Builder connecting declarative operators into a [`Pipeline`]
/// (the `connect_ops` calls of the paper's Listing 1).
pub struct PipelineBuilder {
    spec: WindowSpec,
    ops: Vec<OpNode>,
}

impl PipelineBuilder {
    /// Starts a pipeline whose windows follow `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        PipelineBuilder {
            spec,
            ops: Vec::new(),
        }
    }

    /// Appends a `Filter` ParDo on `col`.
    pub fn filter(mut self, col: Col, pred: impl Fn(u64) -> bool + Send + Sync + 'static) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(Filter::new(col, pred))));
        self
    }

    /// Appends an external key-value join rewriting resident keys.
    pub fn external_join(mut self, table: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(ExternalJoin::new(table))));
        self
    }

    /// Appends the windowing operator for this pipeline's spec.
    pub fn windowed(mut self) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(WindowInto::new(self.spec))));
        self
    }

    /// Appends the pane-mode windowing operator: each slide-length pane is
    /// emitted once, for downstream pane-combining aggregation.
    pub fn windowed_panes(mut self) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(WindowInto::panes(self.spec))));
        self
    }

    /// Appends a keyed aggregation on the default (sort-merge) backend.
    /// Anything else [`KeyedAggregate`] can be configured with — a key map,
    /// a grouping backend, pane combining — goes through [`Self::op`] and
    /// the operator's own `with_*` methods.
    pub fn keyed_aggregate(mut self, key: Col, value: Col, kind: AggKind) -> Self {
        self.ops.push(OpNode::Stateful(Box::new(KeyedAggregate::new(
            self.spec, key, value, kind,
        ))));
        self
    }

    /// Appends a sampling ParDo keeping roughly `fraction` of records.
    pub fn sample(mut self, col: Col, fraction: f64) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(Sample::new(col, fraction))));
        self
    }

    /// Appends a producing ParDo (`FlatMap`/`Map`) emitting rows of
    /// `out_schema`.
    pub fn map_records(
        mut self,
        out_schema: std::sync::Arc<sbx_records::Schema>,
        f: impl Fn(&[u64], &mut Vec<u64>) + Send + Sync + 'static,
    ) -> Self {
        self.ops
            .push(OpNode::Stateless(Box::new(MapRecords::new(out_schema, f))));
        self
    }

    /// Appends a two-stream union.
    pub fn union(mut self) -> Self {
        self.ops.push(OpNode::Stateless(Box::new(Union::new())));
        self
    }

    /// Appends a two-stream cogroup on `key`, aggregating `value` per side.
    pub fn cogroup(mut self, key: Col, value: Col, agg: [SideAgg; 2]) -> Self {
        self.ops.push(OpNode::Stateful(Box::new(Cogroup::new(
            self.spec, key, value, agg,
        ))));
        self
    }

    /// Appends an unkeyed windowed average.
    pub fn avg_all(mut self, value: Col) -> Self {
        self.ops
            .push(OpNode::Stateful(Box::new(AvgAll::new(self.spec, value))));
        self
    }

    /// Appends a two-stream temporal join on `key`.
    pub fn temporal_join(mut self, key: Col, value: Col) -> Self {
        self.ops.push(OpNode::Stateful(Box::new(TemporalJoin::new(
            self.spec, key, value,
        ))));
        self
    }

    /// Appends a two-stream windowed filter on `value`.
    pub fn windowed_filter(mut self, value: Col) -> Self {
        self.ops.push(OpNode::Stateful(Box::new(WindowedFilter::new(
            self.spec, value,
        ))));
        self
    }

    /// Appends the Power Grid composite operator.
    pub fn power_grid(mut self, house: Col, plug: Col, load: Col) -> Self {
        self.ops.push(OpNode::Stateful(Box::new(PowerGrid::new(
            self.spec, house, plug, load,
        ))));
        self
    }

    /// Appends a custom (stateful) operator.
    pub fn op(mut self, op: Box<dyn Operator>) -> Self {
        self.ops.push(OpNode::Stateful(op));
        self
    }

    /// Finishes the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if no operators were added.
    pub fn build(self) -> Pipeline {
        assert!(!self.ops.is_empty(), "pipeline needs at least one operator");
        Pipeline {
            spec: self.spec,
            ops: self.ops,
        }
    }
}

/// The paper's ten benchmarks (§6): canned pipelines, and
/// [`SUITE`](benchmarks::SUITE) — the one table of what the CLI, the cluster
/// driver and Figure 8 need to know about each of them.
///
/// # Example
///
/// ```
/// use sbx_engine::{benchmarks, Engine, RunConfig};
/// use sbx_ingress::KvSource;
///
/// let report = Engine::new(RunConfig::default())
///     .run(KvSource::new(1, 100, 1_000_000), benchmarks::topk_per_key(3), 8)
///     .unwrap();
/// assert!(report.windows_closed >= 1);
/// ```
pub mod benchmarks {
    use sbx_ingress::{KvSource, PowerGridSource, Source, YsbSource};

    use super::*;

    /// Event-time ticks per second; windows in the paper span one second.
    pub const WINDOW_TICKS: u64 = 1_000_000_000;

    /// Campaigns the suite's YSB joins its ads onto.
    pub const YSB_CAMPAIGNS: u64 = 1_000;

    /// One benchmark of the suite.
    #[derive(Debug, Clone, Copy)]
    pub struct Benchmark {
        /// Name on the command line (`sbx list`).
        pub name: &'static str,
        /// Figure-8 panel title and the generator seed of the panel's first
        /// stream; `None` for YSB, which is Figure 7's.
        pub fig8: Option<(&'static str, u64)>,
        /// Input streams: stream `i` of a run draws from seed `seed + i`.
        pub streams: usize,
        /// Distinct keys (ads, houses) of a stream unless the run says
        /// otherwise.
        pub keys: u64,
        /// Whether the pipeline is wired for the non-default grouping
        /// backends.
        pub grouped: bool,
        /// Whether the source has a Zipf key draw to skew.
        pub zipf: bool,
        /// The pipeline on a grouping backend (ignored unless `grouped`).
        pub pipeline: fn(GroupingSpec) -> Pipeline,
        /// A stream from `(seed, keys, event rate, Zipf theta)` (theta
        /// ignored unless `zipf`).
        pub source: fn(u64, u64, u64, Option<f64>) -> Box<dyn Source>,
        /// Column a cluster routes records by.
        pub key_col: usize,
        /// Projection of that column onto the key the pipeline aggregates
        /// on, where the two differ.
        pub key_map: Option<fn(u64) -> u64>,
    }

    fn kv(seed: u64, keys: u64, rate: u64, skew: Option<f64>) -> Box<dyn Source> {
        let src = KvSource::new(seed, keys, rate).with_value_range(1_000_000);
        Box::new(match skew {
            Some(theta) => src.with_zipf(theta),
            None => src,
        })
    }

    /// A Table-1 benchmark over `key,value,ts` streams.
    const fn table1(
        name: &'static str,
        fig8: Option<(&'static str, u64)>,
        streams: usize,
        pipeline: fn(GroupingSpec) -> Pipeline,
    ) -> Benchmark {
        Benchmark {
            name,
            fig8,
            streams,
            keys: 10_000,
            grouped: false,
            zipf: true,
            pipeline,
            source: kv,
            key_col: 0,
            key_map: None,
        }
    }

    /// The suite: Figure 8's nine panels in the paper's order, then YSB.
    pub const SUITE: [Benchmark; 10] = [
        table1("topk", Some(("TopK Per Key", 34)), 1, |_| topk_per_key(3)),
        Benchmark {
            grouped: true,
            ..table1(
                "sum",
                Some(("Windowed Sum Per Key", 34)),
                1,
                sum_per_key_grouped,
            )
        },
        table1("median", Some(("Windowed Med Per Key", 34)), 1, |_| {
            median_per_key()
        }),
        table1("avg", Some(("Windowed Avg Per Key", 34)), 1, |_| {
            avg_per_key()
        }),
        table1("avg-all", Some(("Windowed Average", 34)), 1, |_| avg_all()),
        table1("unique", Some(("Unique Count Per Key", 34)), 1, |_| {
            unique_count_per_key()
        }),
        table1("join", Some(("Temporal Join", 31)), 2, |_| temporal_join()),
        table1("filter", Some(("Windowed Filter", 31)), 2, |_| {
            windowed_filter()
        }),
        Benchmark {
            keys: 100,
            zipf: false,
            source: |seed, houses, rate, _| Box::new(PowerGridSource::new(seed, houses, 20, rate)),
            ..table1("power-grid", Some(("Power Grid", 33)), 1, |_| power_grid())
        },
        Benchmark {
            grouped: true,
            zipf: false,
            source: |seed, ads, rate, _| Box::new(YsbSource::new(seed, ads, YSB_CAMPAIGNS, rate)),
            // YSB aggregates per campaign, so a cluster must route records
            // (and shuffle state) by the ad→campaign projection, not the
            // raw ad id.
            key_col: 2,
            key_map: Some(|ad| ad % YSB_CAMPAIGNS),
            ..table1("ysb", None, 1, |g| ysb_grouped(YSB_CAMPAIGNS, g))
        },
    ];

    /// The suite's benchmark called `name`.
    pub fn find(name: &str) -> Option<&'static Benchmark> {
        SUITE.iter().find(|b| b.name == name)
    }

    impl Benchmark {
        /// This benchmark's input streams, one per port: stream `i` draws
        /// from `seed + i`. What [`Engine::run`](crate::Engine::run) takes.
        pub fn sources(
            &self,
            seed: u64,
            keys: u64,
            rate: u64,
            skew: Option<f64>,
        ) -> Vec<Box<dyn Source>> {
            (0..self.streams as u64)
                .map(|i| (self.source)(seed + i, keys, rate, skew))
                .collect()
        }
    }

    fn spec() -> WindowSpec {
        WindowSpec::fixed(WINDOW_TICKS)
    }

    /// Benchmark 1: TopK Per Key.
    pub fn topk_per_key(k: usize) -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::TopK(k))
            .build()
    }

    /// Benchmark 2: Windowed Sum Per Key.
    pub fn sum_per_key() -> Pipeline {
        sum_per_key_grouped(GroupingSpec::SortMerge)
    }

    /// Benchmark 3: Windowed Median Per Key.
    pub fn median_per_key() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::Median)
            .build()
    }

    /// Benchmark 4: Windowed Average Per Key.
    pub fn avg_per_key() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::Avg)
            .build()
    }

    /// Benchmark 5: Windowed Average All.
    pub fn avg_all() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .avg_all(Col(1))
            .build()
    }

    /// Benchmark 6: Unique Count Per Key.
    pub fn unique_count_per_key() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::UniqueCount)
            .build()
    }

    /// Benchmark 7: Temporal Join of two streams.
    pub fn temporal_join() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .temporal_join(Col(0), Col(1))
            .build()
    }

    /// Benchmark 8: Windowed Filter of one stream by the other's average.
    pub fn windowed_filter() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .windowed_filter(Col(1))
            .build()
    }

    /// Benchmark 9: Power Grid (house, plug, load, ts records).
    pub fn power_grid() -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .power_grid(Col(0), Col(1), Col(2))
            .build()
    }

    /// The Yahoo Streaming Benchmark (paper Fig. 1a / Fig. 5): filter on
    /// `ad_type`, external-join `ad_id` to campaigns, window by event time,
    /// count per campaign per window.
    pub fn ysb(num_campaigns: u64) -> Pipeline {
        ysb_grouped(num_campaigns, GroupingSpec::SortMerge)
    }

    /// [`ysb`] on an explicit grouping backend (`--grouping`): YSB's
    /// per-campaign count is the paper benchmark whose low cardinality
    /// favors the hash backend.
    pub fn ysb_grouped(num_campaigns: u64, grouping: GroupingSpec) -> Pipeline {
        // YSB columns: user_id(0) page_id(1) ad_id(2) ad_type(3)
        // event_type(4) event_time(5) ip(6). Keep "view" ad types (<2 of 5).
        PipelineBuilder::new(spec())
            .filter(Col(3), |ad_type| ad_type < 2)
            .windowed()
            .op(Box::new(
                KeyedAggregate::new(spec(), Col(2), Col(0), AggKind::Count)
                    .with_grouping(grouping)
                    .with_key_map(move |ad| ad % num_campaigns),
            ))
            .build()
    }

    /// [`sum_per_key`] on an explicit grouping backend (`--grouping`).
    pub fn sum_per_key_grouped(grouping: GroupingSpec) -> Pipeline {
        PipelineBuilder::new(spec())
            .windowed()
            .op(Box::new(
                KeyedAggregate::new(spec(), Col(0), Col(1), AggKind::Sum).with_grouping(grouping),
            ))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_operators_in_order() {
        let p = PipelineBuilder::new(WindowSpec::fixed(10))
            .filter(Col(0), |_| true)
            .windowed()
            .keyed_aggregate(Col(0), Col(1), AggKind::Sum)
            .build();
        assert_eq!(p.op_names(), vec!["Filter", "Window", "KeyedAggregate"]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.spec(), WindowSpec::fixed(10));
    }

    #[test]
    #[should_panic(expected = "at least one operator")]
    fn empty_pipeline_rejected() {
        let _ = PipelineBuilder::new(WindowSpec::fixed(10)).build();
    }

    #[test]
    fn all_ten_benchmarks_construct() {
        let pipelines = [
            benchmarks::topk_per_key(3),
            benchmarks::sum_per_key(),
            benchmarks::median_per_key(),
            benchmarks::avg_per_key(),
            benchmarks::avg_all(),
            benchmarks::unique_count_per_key(),
            benchmarks::temporal_join(),
            benchmarks::windowed_filter(),
            benchmarks::power_grid(),
            benchmarks::ysb(100),
        ];
        assert_eq!(pipelines.len(), 10);
        for p in &pipelines {
            assert!(!p.is_empty());
        }
    }
}
