use sbx_kpa::{reduce_unkeyed_kpa, Kpa};
use sbx_records::{Col, WindowSpec};

use super::windowed::{WindowLogic, WindowState, Windowed};
use crate::{EngineError, Message, OpCtx, StreamData};

/// Windowed Filter (benchmark 8): takes two input streams, computes the
/// per-window average of the *control* stream's values (port 1), and at
/// window close keeps the records of the *data* stream (port 0) whose value
/// exceeds that average. Survivors are materialized as full records.
pub type WindowedFilter = Windowed<WindowedFilterLogic, WindowState>;

/// [`WindowedFilter`]'s primitives: data KPAs are saved resident on the
/// value column, the control stream only feeds the running average.
#[derive(Debug)]
pub struct WindowedFilterLogic {
    value_col: Col,
}

impl WindowedFilter {
    /// Filters port-0 records by comparing `value_col` against port 1's
    /// window average.
    pub fn new(spec: WindowSpec, value_col: Col) -> Self {
        Windowed::over(spec, WindowedFilterLogic { value_col })
    }
}

impl WindowLogic for WindowedFilterLogic {
    type State = WindowState;

    fn name(&self) -> &'static str {
        "WindowedFilter"
    }

    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut WindowState,
        port: u8,
        _start: u64,
        mut kpa: Kpa,
    ) -> Result<(), EngineError> {
        let value_col = self.value_col;
        if port == 0 {
            if kpa.resident() != value_col {
                ctx.charged(16, |e| kpa.key_swap(e, value_col));
            }
            state.sides[0].push(kpa);
        } else {
            let avg = &mut state.avg;
            ctx.charged(16, |e| {
                reduce_unkeyed_kpa(e, &kpa, value_col, (), |(), v| avg.push(v));
            });
        }
        Ok(())
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: WindowState,
        _start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let avg = state.avg.mean();
        let [data, _] = state.sides;
        for kpa in data {
            let (_, prio) = ctx.place();
            let kept = ctx.charged(16, |e| kpa.select(e, prio, |v| v > avg))?;
            if kept.is_empty() {
                continue;
            }
            let bundle = ctx.charged(16, |e| kept.materialize(e))?;
            out.push(Message::data(StreamData::Bundle(bundle)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WindowInto;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator};
    use sbx_records::{RecordBundle, Schema, Watermark};
    use sbx_simmem::{MachineConfig, MemEnv};

    #[test]
    fn keeps_data_records_above_control_average() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let mut window = WindowInto::new(spec);
        let mut op = WindowedFilter::new(spec, Col(1));
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);

        // Control stream (port 1): values 10 and 30 => average 20.
        let control: Vec<u64> = [(0u64, 10u64), (0, 30)]
            .iter()
            .flat_map(|&(k, v)| [k, v, 0])
            .collect();
        let cb = RecordBundle::from_rows(&env, Schema::kvt(), &control).unwrap();
        for m in window
            .on_message(
                &mut ctx,
                Message::Data {
                    port: 1,
                    data: StreamData::Bundle(cb),
                },
            )
            .unwrap()
        {
            op.on_message(&mut ctx, m).unwrap();
        }

        // Data stream (port 0): keep values > 20.
        let data: Vec<u64> = [(1u64, 15u64), (2, 25), (3, 99)]
            .iter()
            .flat_map(|&(k, v)| [k, v, 1])
            .collect();
        let db = RecordBundle::from_rows(&env, Schema::kvt(), &data).unwrap();
        for m in window
            .on_message(
                &mut ctx,
                Message::Data {
                    port: 0,
                    data: StreamData::Bundle(db),
                },
            )
            .unwrap()
        {
            op.on_message(&mut ctx, m).unwrap();
        }

        let out = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(1000)))
            .unwrap();
        let Message::Data {
            data: StreamData::Bundle(b),
            ..
        } = &out[0]
        else {
            panic!("expected survivors bundle");
        };
        let keys: Vec<u64> = (0..b.rows()).map(|r| b.value(r, Col(0))).collect();
        assert_eq!(keys, vec![2, 3]);
        assert!(matches!(out.last(), Some(Message::Watermark(_))));
    }

    #[test]
    fn missing_control_stream_filters_against_zero() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let mut window = WindowInto::new(spec);
        let mut op = WindowedFilter::new(spec, Col(1));
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let data: Vec<u64> = [(1u64, 0u64), (2, 5)]
            .iter()
            .flat_map(|&(k, v)| [k, v, 0])
            .collect();
        let db = RecordBundle::from_rows(&env, Schema::kvt(), &data).unwrap();
        for m in window
            .on_message(
                &mut ctx,
                Message::Data {
                    port: 0,
                    data: StreamData::Bundle(db),
                },
            )
            .unwrap()
        {
            op.on_message(&mut ctx, m).unwrap();
        }
        let out = op
            .on_message(&mut ctx, Message::Watermark(Watermark::from(1000)))
            .unwrap();
        // avg = 0, keep values > 0: only key 2 survives.
        let Message::Data {
            data: StreamData::Bundle(b),
            ..
        } = &out[0]
        else {
            panic!("expected bundle");
        };
        assert_eq!(b.rows(), 1);
        assert_eq!(b.value(0, Col(0)), 2);
    }
}
