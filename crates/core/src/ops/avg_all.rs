use std::collections::BTreeMap;
use std::sync::Arc;

use sbx_kpa::{reduce_unkeyed_bundle, reduce_unkeyed_kpa, Kpa};
use sbx_records::{Col, RecordBundle, Schema, WindowId, WindowSpec};

use super::windowed::{WindowLogic, WindowState, Windowed};
use crate::{EngineError, Message, OpCtx, StreamData};

/// Windowed Average All (benchmark 5): the average of a value column over
/// *all* records in each window — a pure unkeyed reduction, the cheapest
/// pipeline in the suite (it is ingestion-bound in Fig. 8 at 110 M rec/s).
pub type AvgAll = Windowed<AvgAllLogic, WindowState>;

/// [`AvgAll`]'s primitives: an unkeyed reduction into the window's running
/// average on arrival, nothing but the division at close.
#[derive(Debug)]
pub struct AvgAllLogic {
    value_col: Col,
    out_schema: Arc<Schema>,
}

impl AvgAll {
    /// Averages `value_col` per `spec` window.
    pub fn new(spec: WindowSpec, value_col: Col) -> Self {
        Windowed::over(
            spec,
            AvgAllLogic {
                value_col,
                out_schema: Schema::kvt(),
            },
        )
    }
}

impl WindowLogic for AvgAllLogic {
    type State = WindowState;

    fn name(&self) -> &'static str {
        "AvgAll"
    }

    /// One average over every key of the window.
    fn keyed(&self) -> bool {
        false
    }

    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut WindowState,
        _port: u8,
        _start: u64,
        kpa: Kpa,
    ) -> Result<(), EngineError> {
        let avg = &mut state.avg;
        ctx.charged(16, |e| {
            reduce_unkeyed_kpa(e, &kpa, self.value_col, (), |(), v| avg.push(v));
        });
        Ok(())
    }

    /// An unwindowed bundle: assign rows by timestamp directly (unkeyed
    /// reduction touches every record once either way).
    fn unwindowed(
        &mut self,
        ctx: &mut OpCtx<'_>,
        spec: &WindowSpec,
        windows: &mut BTreeMap<WindowId, WindowState>,
        data: StreamData,
    ) -> Result<(), EngineError> {
        let StreamData::Bundle(b) = data else {
            return Err(EngineError::Config(format!(
                "AvgAll needs windowed or bundle input, got bare KPA of {}",
                data.len()
            )));
        };
        ctx.charged(16, |e| {
            reduce_unkeyed_bundle(e, &b, self.value_col, (), |(), _| ());
        });
        for r in 0..b.rows() {
            let state = windows.entry(spec.window_of(b.ts(r))).or_default();
            state.avg.push(b.value(r, self.value_col));
        }
        Ok(())
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: WindowState,
        start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let row = [0, state.avg.mean(), start];
        let b = RecordBundle::from_rows(&ctx.env(), Arc::clone(&self.out_schema), &row)?;
        out.push(Message::data(StreamData::Bundle(b)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WindowInto;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator};
    use sbx_records::Watermark;
    use sbx_simmem::{MachineConfig, MemEnv};

    fn close_all(op: &mut AvgAll, ctx: &mut OpCtx<'_>) -> Vec<(u64, u64)> {
        let out = op
            .on_message(ctx, Message::Watermark(Watermark::from(u64::MAX)))
            .unwrap();
        out.iter()
            .filter_map(|m| match m {
                Message::Data {
                    data: StreamData::Bundle(b),
                    ..
                } => Some((b.value(0, Col(1)), b.value(0, Col(2)))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn averages_each_window_via_windowed_kpas() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let spec = WindowSpec::fixed(10);
        let mut window = WindowInto::new(spec);
        let mut op = AvgAll::new(spec, Col(1));
        let flat: Vec<u64> = [(10u64, 0u64), (20, 5), (40, 15)]
            .iter()
            .flat_map(|&(v, t)| [1, v, t])
            .collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        for m in window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap()
        {
            op.on_message(&mut ctx, m).unwrap();
        }
        assert_eq!(close_all(&mut op, &mut ctx), vec![(15, 0), (40, 10)]);
    }

    #[test]
    fn accepts_raw_bundles_without_windowing_op() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let spec = WindowSpec::fixed(10);
        let mut op = AvgAll::new(spec, Col(1));
        let flat: Vec<u64> = [(6u64, 1u64), (8, 2)]
            .iter()
            .flat_map(|&(v, t)| [0, v, t])
            .collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        op.on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        assert_eq!(close_all(&mut op, &mut ctx), vec![(7, 0)]);
    }

    #[test]
    fn empty_window_is_not_emitted() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let mut op = AvgAll::new(WindowSpec::fixed(10), Col(1));
        let out = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(100)))
            .unwrap();
        assert_eq!(out.len(), 1); // just the forwarded watermark
    }
}
