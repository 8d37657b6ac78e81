use sbx_records::Col;

use crate::operator::single;
use crate::{EngineError, Message, OpCtx, StatelessOperator, StreamData};

/// A stateless `ParDo` that keeps records whose `col` value satisfies a
/// predicate (paper §4.2: non-producing ParDos execute as `Select` over
/// KPAs; on raw bundles the Select is fused with `Extract`). Generic over
/// the predicate, so the per-row test inlines into the kernel.
pub struct Filter<P> {
    col: Col,
    pred: P,
}

impl<P: Fn(u64) -> bool + Send + Sync> Filter<P> {
    /// Keeps records where `pred(record[col])` holds.
    pub fn new(col: Col, pred: P) -> Self {
        Filter { col, pred }
    }
}

impl<P> std::fmt::Debug for Filter<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Filter").field("col", &self.col).finish()
    }
}

impl<P: Fn(u64) -> bool + Send + Sync> StatelessOperator for Filter<P> {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { port, data } => {
                let out = match data {
                    StreamData::Bundle(b) => {
                        StreamData::Kpa(ctx.extract_select(&b, self.col, &self.pred)?)
                    }
                    StreamData::Kpa(kpa) => StreamData::Kpa(ctx.select(kpa, self.col, &self.pred)?),
                    StreamData::Windowed(w, kpa) => {
                        StreamData::Windowed(w, ctx.select(kpa, self.col, &self.pred)?)
                    }
                };
                Ok(single(Message::Data { port, data: out }))
            }
            other => Ok(single(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator};
    use sbx_records::{RecordBundle, Schema, Watermark};
    use sbx_simmem::{MachineConfig, MemEnv};

    fn setup() -> (MemEnv, DemandBalancer) {
        (
            MemEnv::new(MachineConfig::knl().scaled(0.01)),
            DemandBalancer::new(),
        )
    }

    #[test]
    fn filter_on_bundle_extracts_survivors() {
        let (env, mut bal) = setup();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = (0..10u64).flat_map(|i| [i, i, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut op = Filter::new(Col(0), |k| k < 3);
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            Message::Data {
                data: StreamData::Kpa(kpa),
                port: 0,
            } => {
                assert_eq!(kpa.keys(), &[0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_on_kpa_swaps_to_filter_column() {
        let (env, mut bal) = setup();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = (0..6u64).flat_map(|i| [i, 100 + i, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let kpa = ctx.extract(&b, Col(0)).unwrap();
        // Filter on the *value* column: requires a KeySwap first.
        let mut op = Filter::new(Col(1), |v| v >= 104);
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Kpa(kpa)))
            .unwrap();
        match &out[0] {
            Message::Data {
                data: StreamData::Kpa(kpa),
                ..
            } => {
                assert_eq!(kpa.keys(), &[104, 105]);
                assert_eq!(kpa.resident(), Col(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn watermarks_pass_through() {
        let (env, mut bal) = setup();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::Urgent);
        let mut op = Filter::new(Col(0), |_| true);
        let out = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(7)))
            .unwrap();
        assert!(matches!(out[0], Message::Watermark(w) if w == Watermark::from(7)));
    }

    #[test]
    fn port_is_preserved() {
        let (env, mut bal) = setup();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 2, 3]).unwrap();
        let mut op = Filter::new(Col(0), |_| true);
        let out = op
            .on_message(
                &mut ctx,
                Message::Data {
                    port: 1,
                    data: StreamData::Bundle(b),
                },
            )
            .unwrap();
        assert!(matches!(out[0], Message::Data { port: 1, .. }));
    }
}
