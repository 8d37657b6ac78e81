use std::collections::BTreeMap;
use std::sync::Arc;

use sbx_kpa::mergepath::KeyFold;
use sbx_kpa::{profile, Kpa};
use sbx_records::{Col, RecordBundle, Schema, Watermark, WindowId, WindowSpec};

use super::grouping::{
    decide_backend, AdaptState, AggParams, BackendChoice, GroupingBackend, SortMergeBackend,
    PORT_HASH_SCALAR, PORT_HASH_VALUES, PORT_PANE_BUNDLE,
};
use super::windowed::{WindowLogic, WindowStore, Windowed};
use crate::checkpoint::{OpState, StateEntry};
use crate::ops::GroupingSpec;
use crate::{EngineError, EngineMode, ImpactTag, Message, OpCtx, StreamData};

/// Which per-key aggregate a [`KeyedAggregate`] computes — the benchmark
/// suite's statefull operator family (paper §6, benchmarks 1–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Windowed Sum Per Key (wrapping `u64` addition).
    Sum,
    /// Windowed Average Per Key.
    Avg,
    /// Windowed Median Per Key.
    Median,
    /// Count of records per key (YSB's per-campaign count).
    Count,
    /// TopK Per Key: the K largest values; emits one row per kept value.
    TopK(usize),
    /// Unique Count Per Key: number of distinct values.
    UniqueCount,
}

/// Keyed Aggregation (paper Fig. 4a): as windowed KPAs arrive they are
/// swapped to the grouping key, sorted, and saved as window state; when the
/// watermark closes the window, the saved KPAs are merged by key and a
/// per-key reduction emits one output record per key (or per kept value for
/// `TopK`).
///
/// For `Sum` and `Count` the operator applies the paper's *early
/// aggregation* optimization: each arriving KPA is pre-reduced to per-key
/// partials, shrinking window state and the final merge.
///
/// Since the pluggable-grouping work (DESIGN.md §14) the sort-merge path
/// above is one of several [`GroupingSpec`] backends: [`with_grouping`]
/// selects one hash table per window or the per-window adaptive
/// sort-vs-hash decision, all emitting byte-identical results. Under
/// [`EngineMode::Row`] every window groups in the row engine's DRAM table
/// instead.
///
/// [`with_grouping`]: KeyedAggregate::with_grouping
pub type KeyedAggregate = Windowed<KeyedAggLogic, AggWindow>;

/// A [`KeyedAggregate`]'s key map, applied to a KPA's whole key column in
/// one call.
type KeyMap = Box<dyn Fn(&mut [u64]) + Send>;

/// [`KeyedAggregate`]'s primitives and the state that outlives a window:
/// the backend choice, its adaptive history, the pane cursor.
pub struct KeyedAggLogic {
    key_col: Col,
    value_col: Col,
    kind: AggKind,
    key_map: Option<KeyMap>,
    early_aggregation: bool,
    grouping: GroupingSpec,
    adapt: AdaptState,
    pane_combining: bool,
    /// Next window to externalize in pane mode.
    pane_next_window: u64,
    out_schema: Arc<Schema>,
    /// Early aggregation's scratch and the key swap's values, kept from
    /// bundle to bundle.
    fold: KeyFold,
    values: Vec<u64>,
}

/// One map entry of a [`KeyedAggregate`]: a window's grouping backend or,
/// in pane-combining mode, a *pane's* partial bundles `(key, partial, 0)` —
/// each pane computed once and shared by every window containing it.
#[derive(Debug, Default)]
pub struct AggWindow {
    backend: Option<Box<dyn GroupingBackend>>,
    panes: Vec<Arc<RecordBundle>>,
}

impl KeyedAggregate {
    /// Aggregates `value_col` grouped by `key_col` over `spec` windows.
    pub fn new(spec: WindowSpec, key_col: Col, value_col: Col, kind: AggKind) -> Self {
        Windowed::over(
            spec,
            KeyedAggLogic {
                key_col,
                value_col,
                kind,
                key_map: None,
                early_aggregation: matches!(kind, AggKind::Sum | AggKind::Count),
                grouping: GroupingSpec::SortMerge,
                adapt: AdaptState::default(),
                pane_combining: false,
                pane_next_window: 0,
                out_schema: Schema::kvt(),
                fold: KeyFold::default(),
                values: Vec::new(),
            },
        )
    }

    /// Enables CQL-style pane combining for sliding windows: feed this
    /// operator from
    /// [`PipelineBuilder::windowed_panes`](crate::PipelineBuilder::windowed_panes)
    /// and each pane's per-key partial is computed once and combined into
    /// every window that contains it, instead of duplicating the pane's
    /// records per window.
    ///
    /// # Panics
    ///
    /// Panics unless the aggregate is `Sum` or `Count` (the combinable
    /// kinds).
    pub fn with_pane_combining(mut self) -> Self {
        assert!(
            matches!(self.logic.kind, AggKind::Sum | AggKind::Count),
            "pane combining requires a combinable aggregate (Sum or Count)"
        );
        assert!(
            self.logic.grouping == GroupingSpec::SortMerge,
            "pane combining shares partial bundles across windows and is only \
             implemented for the sort-merge grouping backend"
        );
        self.logic.pane_combining = true;
        self
    }

    /// Selects the grouping backend (DESIGN.md §14): the paper's KPA
    /// sort-merge path (default), one hash table per window, or the
    /// per-window adaptive sort-vs-hash decision. All backends emit
    /// byte-identical window results; only the modelled cost differs.
    /// [`EngineMode::Row`] overrides the choice with its own table.
    ///
    /// # Panics
    ///
    /// Panics if pane combining is enabled and `grouping` is not
    /// [`GroupingSpec::SortMerge`].
    pub fn with_grouping(mut self, grouping: GroupingSpec) -> Self {
        assert!(
            !self.logic.pane_combining || grouping == GroupingSpec::SortMerge,
            "pane combining is only implemented for the sort-merge backend"
        );
        self.logic.grouping = grouping;
        self
    }

    /// Applies `map` to every grouping key before aggregation (YSB's
    /// ad→campaign mapping applied at the aggregation key swap). The
    /// per-key loop is compiled here, around `map`, so a KPA costs one
    /// boxed call.
    pub fn with_key_map(mut self, map: impl Fn(u64) -> u64 + Send + 'static) -> Self {
        // sbx-lint: allow(raw-alloc, one-time operator construction, not per-bundle work)
        self.logic.key_map = Some(Box::new(move |keys: &mut [u64]| {
            keys.iter_mut().for_each(|k| *k = map(*k));
        }));
        self
    }

    /// Disables the early-aggregation optimization (used by the ablation
    /// tests; the paper enables it by default).
    pub fn without_early_aggregation(mut self) -> Self {
        self.logic.early_aggregation = false;
        self
    }
}

impl KeyedAggLogic {
    fn params(&self) -> AggParams {
        AggParams {
            kind: self.kind,
            value_col: self.value_col,
            early: self.early_aggregation,
        }
    }

    /// Creates the grouping backend for a new window, running the adaptive
    /// decision when configured. `kpa` is the window's first arriving KPA
    /// (already key-swapped and key-mapped); the sketch reads its keys in
    /// place. The row mode fixes the table.
    fn new_backend(
        &self,
        ctx: &mut OpCtx<'_>,
        kpa: &Kpa,
    ) -> Result<Box<dyn GroupingBackend>, EngineError> {
        let choice = match self.grouping {
            _ if ctx.mode() == EngineMode::Row => BackendChoice::Row,
            GroupingSpec::SortMerge => BackendChoice::Sort,
            GroupingSpec::Hash => BackendChoice::Hash,
            GroupingSpec::Adaptive => {
                if self.adapt.windows_seen > 0 {
                    // Window 0 skips the sketch: the decision is
                    // the sort default regardless (`decide_backend`).
                    let prof = profile::sketch(kpa.len(), kpa.kind());
                    ctx.charged(16, |e| e.charge(&prof));
                }
                let env = ctx.env();
                decide_backend(&env, kpa, &self.params(), kpa.kind(), &self.adapt)
            }
        };
        let backend = choice.open(ctx, self.kind)?;
        ctx.note_event(backend.event());
        Ok(backend)
    }
}

impl WindowLogic for KeyedAggLogic {
    type State = AggWindow;

    fn name(&self) -> &'static str {
        // Backend-qualified names keep per-operator spans and metrics
        // distinguishable in traces (op.KeyedAggregate(hash).* etc.).
        match self.grouping {
            GroupingSpec::SortMerge => "KeyedAggregate",
            GroupingSpec::Hash => "KeyedAggregate(hash)",
            GroupingSpec::Adaptive => "KeyedAggregate(adaptive)",
        }
    }

    /// The row mode groups every window in its own table, whatever the
    /// spec says.
    fn name_in(&self, mode: EngineMode) -> &'static str {
        if mode == EngineMode::Row {
            "KeyedAggregate(row)"
        } else {
            self.name()
        }
    }

    /// Swaps the KPA to the (mapped) grouping key and hands it to the
    /// window's backend — or, in pane mode, pre-reduces it to the pane's
    /// per-key partials and keeps the partial *bundle* (shareable across
    /// windows). A KPA in place stays in place unless a key map rewrites
    /// its keys: the backend reads key and value from its rows.
    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut AggWindow,
        _port: u8,
        _start: u64,
        mut kpa: Kpa,
    ) -> Result<(), EngineError> {
        let p = self.params();
        // A backend that reads every record's value has the swap read it
        // too: one pass over the records, not two.
        let mut read = false;
        if kpa.resident() != self.key_col {
            if state.backend.as_ref().is_some_and(|b| b.reads_values(&p)) {
                read = ctx.charged(16, |e| {
                    kpa.key_swap_reading(e, self.key_col, p.value_col, &mut self.values)
                });
            } else {
                ctx.charged(16, |e| kpa.key_swap(e, self.key_col));
            }
        }
        if let Some(map) = &self.key_map {
            ctx.charged(16, |e| kpa.update_keys_with(e, map));
        }
        if self.pane_combining {
            let partials = SortMergeBackend::partials(ctx, &kpa, &p, None, &mut self.fold)?;
            state.panes.push(partials);
            return Ok(());
        }
        let backend = match &mut state.backend {
            Some(backend) => backend,
            empty => empty.insert(self.new_backend(ctx, &kpa)?),
        };
        let values = read.then_some(&self.values[..]);
        backend.ingest(ctx, kpa, &p, values, &mut self.fold)
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: AggWindow,
        start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let Some(mut backend) = state.backend else {
            return Ok(());
        };
        let records = backend.records();
        let (bundle, groups) = backend.close(ctx, &self.params(), start, &self.out_schema)?;
        // Feed the closed window into the adaptive history (cheap and
        // deterministic, so it runs for every backend spec).
        self.adapt.observe_window(records, groups);
        out.push(Message::data(StreamData::Bundle(bundle)));
        Ok(())
    }

    /// The pane-combining close rule: map entries are panes, so the
    /// windows `wm` elapses are assembled here — window `w` is a sort-merge
    /// backend over the partials of panes `[w, w + overlap)` — and the
    /// panes no open window can still include are dropped, which leaves the
    /// lifecycle's own sweep nothing below the watermark.
    fn on_watermark(
        &mut self,
        ctx: &mut OpCtx<'_>,
        spec: &WindowSpec,
        windows: &mut BTreeMap<WindowId, AggWindow>,
        wm: Watermark,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        if !self.pane_combining {
            return Ok(());
        }
        // Windows strictly below `boundary` are closed by this watermark.
        let boundary = if wm.time().raw() >= spec.size() {
            (wm.time().raw() - spec.size()) / spec.stride() + 1
        } else {
            0
        };
        if let Some((&WindowId(max_pane), _)) = windows.last_key_value() {
            let overlap = spec.size() / spec.stride();
            // Panes are always pre-reduced, whatever the early-aggregation flag.
            let p = AggParams {
                early: true,
                ..self.params()
            };
            // Windows past the last pane hold no data, nor do those that end
            // before the next pane begins: step from pane to pane, not
            // through every id between them.
            let end = boundary.min(max_pane + 1);
            let mut w = self.pane_next_window;
            while let Some((&WindowId(pane), _)) = windows.range(WindowId(w)..).next() {
                w = w.max(pane.saturating_sub(overlap - 1));
                if w >= end {
                    break;
                }
                ctx.tag = ImpactTag::Urgent;
                let mut window = SortMergeBackend::new();
                for (_, pane) in windows.range(WindowId(w)..WindowId(w + overlap)) {
                    for partials in &pane.panes {
                        window.push_partials(ctx, partials)?;
                    }
                }
                if !window.is_empty() {
                    let start = spec.start(WindowId(w)).raw();
                    let (bundle, _) = window.close(ctx, &p, start, &self.out_schema)?;
                    out.push(Message::data(StreamData::Bundle(bundle)));
                }
                w += 1;
            }
        }
        self.pane_next_window = self.pane_next_window.max(boundary);
        *windows = windows.split_off(&WindowId(self.pane_next_window));
        Ok(())
    }
}

impl WindowStore<KeyedAggLogic> for AggWindow {
    fn save_all(
        logic: &KeyedAggLogic,
        ctx: &mut OpCtx<'_>,
        windows: &BTreeMap<WindowId, Self>,
        st: &mut OpState,
    ) -> Result<(), EngineError> {
        // The adaptive window history rides along so recovered runs keep
        // making the same backend decisions.
        st.cadence.extend_from_slice(&[
            logic.pane_next_window,
            logic.adapt.records_ema,
            logic.adapt.groups_ema,
            logic.adapt.windows_seen,
        ]);
        for (w, state) in windows {
            if let Some(backend) = &state.backend {
                backend.snapshot(ctx, w.0, &mut st.entries)?;
            }
            for b in &state.panes {
                st.entries
                    .push(StateEntry::from_bundle(w.0, PORT_PANE_BUNDLE, b));
            }
        }
        Ok(())
    }

    fn load_all(
        logic: &mut KeyedAggLogic,
        ctx: &mut OpCtx<'_>,
        st: &OpState,
        windows: &mut BTreeMap<WindowId, Self>,
    ) -> Result<(), EngineError> {
        let scalar = |i: usize| st.cadence.get(i).copied().unwrap_or(0);
        logic.pane_next_window = scalar(0);
        logic.adapt = AdaptState {
            records_ema: scalar(1),
            groups_ema: scalar(2),
            windows_seen: scalar(3),
        };
        if st.entries.iter().any(|e| e.window < logic.pane_next_window) {
            return Err(EngineError::Config(format!(
                "snapshot holds a pane below its pane cursor {}",
                logic.pane_next_window
            )));
        }
        for e in &st.entries {
            let state = windows.entry(WindowId(e.window)).or_default();
            if e.port == PORT_PANE_BUNDLE {
                state.panes.push(e.to_bundle(ctx)?);
                continue;
            }
            // The entry's port decides between sorted KPAs and a table:
            // under adaptive grouping different windows may have
            // snapshotted different backends. The mode decides which
            // table: only the row mode ever selects the row engine's.
            let backend = match &mut state.backend {
                Some(backend) => backend,
                empty => {
                    let choice = match e.port {
                        PORT_HASH_SCALAR | PORT_HASH_VALUES if ctx.mode() == EngineMode::Row => {
                            BackendChoice::Row
                        }
                        PORT_HASH_SCALAR | PORT_HASH_VALUES => BackendChoice::Hash,
                        _ => BackendChoice::Sort,
                    };
                    empty.insert(choice.open(ctx, logic.kind)?)
                }
            };
            backend.restore_entry(ctx, e)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WindowInto;
    use crate::{DemandBalancer, Operator};
    use sbx_records::Watermark;
    use sbx_simmem::{MachineConfig, MemEnv};

    fn run_agg(kind: AggKind, rows: &[(u64, u64, u64)], early: bool) -> Vec<(u64, u64, u64)> {
        run_agg_with(
            kind,
            rows,
            early,
            (GroupingSpec::SortMerge, EngineMode::Hybrid),
        )
    }

    fn run_agg_with(
        kind: AggKind,
        rows: &[(u64, u64, u64)],
        early: bool,
        (grouping, mode): (GroupingSpec, EngineMode),
    ) -> Vec<(u64, u64, u64)> {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(10);
        let mut window = WindowInto::new(spec);
        let mut agg_op = KeyedAggregate::new(spec, Col(0), Col(1), kind).with_grouping(grouping);
        if !early {
            agg_op = agg_op.without_early_aggregation();
        }
        let flat: Vec<u64> = rows.iter().flat_map(|&(k, v, t)| [k, v, t]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();

        let mut ctx = OpCtx::new(&env, &mut bal, mode, ImpactTag::High);
        let windowed = window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        let mut outs = Vec::new();
        for m in windowed {
            outs.extend(agg_op.on_message(&mut ctx, m).unwrap());
        }
        assert!(outs.is_empty(), "no output before watermark");
        let closed = agg_op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(1_000)))
            .unwrap();
        let mut result = Vec::new();
        for m in closed {
            if let Message::Data {
                data: StreamData::Bundle(b),
                ..
            } = m
            {
                for r in 0..b.rows() {
                    result.push((b.value(r, Col(0)), b.value(r, Col(1)), b.value(r, Col(2))));
                }
            }
        }
        result
    }

    #[test]
    fn sum_per_key_per_window() {
        let rows = [(1, 10, 0), (2, 5, 3), (1, 7, 5), (1, 1, 15)];
        let got = run_agg(AggKind::Sum, &rows, true);
        assert_eq!(got, vec![(1, 17, 0), (2, 5, 0), (1, 1, 10)]);
    }

    #[test]
    fn early_aggregation_is_transparent() {
        let rows: Vec<(u64, u64, u64)> = (0..200).map(|i| (i % 5, i, (i % 20))).collect();
        let with = run_agg(AggKind::Sum, &rows, true);
        let without = run_agg(AggKind::Sum, &rows, false);
        assert_eq!(with, without);
    }

    /// Window 1 holds one record, so its KPA is a single pair — which early
    /// aggregation must still turn into a partial.
    #[test]
    fn count_avg_median_unique_topk() {
        let rows = [
            (1, 10, 0),
            (1, 20, 1),
            (1, 30, 2),
            (2, 5, 3),
            (2, 5, 4),
            (3, 7, 15),
        ];
        assert_eq!(
            run_agg(AggKind::Count, &rows, true),
            vec![(1, 3, 0), (2, 2, 0), (3, 1, 10)]
        );
        assert_eq!(
            run_agg(AggKind::Avg, &rows, false),
            vec![(1, 20, 0), (2, 5, 0), (3, 7, 10)]
        );
        assert_eq!(
            run_agg(AggKind::Median, &rows, false),
            vec![(1, 20, 0), (2, 5, 0), (3, 7, 10)]
        );
        assert_eq!(
            run_agg(AggKind::UniqueCount, &rows, false),
            vec![(1, 3, 0), (2, 1, 0), (3, 1, 10)]
        );
        assert_eq!(
            run_agg(AggKind::TopK(2), &rows, false),
            vec![(1, 30, 0), (1, 20, 0), (2, 5, 0), (2, 5, 0), (3, 7, 10)]
        );
    }

    /// Every grouping backend must emit byte-identical window results for
    /// every aggregate kind (the DESIGN.md §14 bit-stability contract, at
    /// the operator level), a one-record window included. The row mode's
    /// table stands in for the sort-merge spec it overrides.
    #[test]
    fn grouping_backends_are_output_transparent() {
        let mut rows: Vec<(u64, u64, u64)> =
            (0..300).map(|i| (i % 13, (i * 7) % 101, i % 20)).collect();
        rows.push((5, 42, 25));
        for kind in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Median,
            AggKind::TopK(2),
            AggKind::UniqueCount,
        ] {
            let early = matches!(kind, AggKind::Sum | AggKind::Count);
            let reference = run_agg(kind, &rows, early);
            for backend in [
                (GroupingSpec::Hash, EngineMode::Hybrid),
                (GroupingSpec::SortMerge, EngineMode::Row),
                (GroupingSpec::Adaptive, EngineMode::Hybrid),
            ] {
                let got = run_agg_with(kind, &rows, early, backend);
                assert_eq!(got, reference, "{backend:?} diverged for {kind:?}");
            }
        }
    }

    /// A snapshot's table entry restores into the row engine's table under
    /// `EngineMode::Row`, whatever the spec says, and into the hash
    /// backend's otherwise.
    #[test]
    fn restored_tables_follow_the_engine_mode() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let st = OpState {
            entries: vec![StateEntry::from_rows(
                0,
                PORT_HASH_SCALAR,
                3,
                2,
                vec![7, 70, 1],
            )],
            ..OpState::default()
        };
        for (mode, event) in [
            (EngineMode::Row, "groupby.backend.row"),
            (EngineMode::Hybrid, "groupby.backend.hash"),
        ] {
            let mut bal = DemandBalancer::new();
            let mut ctx = OpCtx::new(&env, &mut bal, mode, ImpactTag::High);
            let spec = WindowSpec::fixed(10);
            let mut logic = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum).logic;
            let mut windows = BTreeMap::new();
            AggWindow::load_all(&mut logic, &mut ctx, &st, &mut windows).unwrap();
            let backend = windows[&WindowId(0)].backend.as_ref().unwrap();
            assert_eq!(backend.event(), event, "{mode}");
        }
    }

    #[test]
    fn operator_name_reflects_grouping_backend() {
        let spec = WindowSpec::fixed(10);
        let mk = |g| KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum).with_grouping(g);
        assert_eq!(mk(GroupingSpec::SortMerge).name(), "KeyedAggregate");
        assert_eq!(mk(GroupingSpec::Hash).name(), "KeyedAggregate(hash)");
        assert_eq!(
            mk(GroupingSpec::Adaptive).name(),
            "KeyedAggregate(adaptive)"
        );
        for g in [GroupingSpec::SortMerge, GroupingSpec::Hash] {
            assert_eq!(mk(g).name_in(EngineMode::Row), "KeyedAggregate(row)");
            assert_eq!(mk(g).name_in(EngineMode::Hybrid), mk(g).name());
        }
    }

    #[test]
    #[should_panic(expected = "pane combining")]
    fn pane_combining_rejects_hash_grouping() {
        let spec = WindowSpec::sliding(20, 10);
        let _ = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum)
            .with_pane_combining()
            .with_grouping(GroupingSpec::Hash);
    }

    #[test]
    fn key_map_rewrites_grouping_keys() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(10);
        let mut window = WindowInto::new(spec);
        let mut op =
            KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Count).with_key_map(|k| k % 2);
        let flat: Vec<u64> = [(1u64, 0u64), (2, 0), (3, 0), (4, 0)]
            .iter()
            .flat_map(|&(k, t)| [k, 0, t])
            .collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let mut outs = Vec::new();
        for m in window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap()
        {
            outs.extend(op.on_message(&mut ctx, m).unwrap());
        }
        let closed = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(100)))
            .unwrap();
        let Message::Data {
            data: StreamData::Bundle(out),
            ..
        } = &closed[0]
        else {
            panic!("expected bundle");
        };
        assert_eq!(out.rows(), 2); // keys collapsed to {0, 1}
        assert_eq!(out.value(0, Col(1)), 2);
        assert_eq!(out.value(1, Col(1)), 2);
    }

    #[test]
    fn watermark_only_closes_elapsed_windows() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(10);
        let mut window = WindowInto::new(spec);
        let mut op = KeyedAggregate::new(spec, Col(0), Col(1), AggKind::Sum);
        let flat: Vec<u64> = [(1u64, 5u64), (1, 25)]
            .iter()
            .flat_map(|&(k, t)| [k, 1, t])
            .collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        for m in window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap()
        {
            op.on_message(&mut ctx, m).unwrap();
        }
        assert_eq!(op.open_windows(), 2);
        // Watermark at 12: only window 0 (ends at 10) closes.
        let out = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(12)))
            .unwrap();
        assert_eq!(out.len(), 2); // one bundle + the watermark
        assert_eq!(op.open_windows(), 1);
    }
}
