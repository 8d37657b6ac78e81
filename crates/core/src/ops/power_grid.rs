use std::collections::BTreeMap;
use std::sync::Arc;

use sbx_kpa::Kpa;
use sbx_records::{Col, RecordBundle, Schema, WindowSpec};

use super::windowed::{WindowLogic, WindowState, Windowed};
use crate::{EngineError, Message, OpCtx, StreamData};

/// Multiplier composing `(house, plug)` into a single grouping key.
const HOUSE_FACTOR: u64 = 1 << 20;

/// The Power Grid pipeline (benchmark 9, derived from the DEBS 2014 grand
/// challenge): ingests per-plug power samples `(house, plug, load, ts)` and,
/// per window,
///
/// 1. computes the average load of every plug,
/// 2. computes the average load over all plugs,
/// 3. counts, per house, the plugs whose average exceeds the global
///    average, and
/// 4. emits the house(s) with the most high-power plugs.
///
/// Output records are `(house, high_plug_count, window_start)`.
pub type PowerGrid = Windowed<PowerGridLogic, WindowState>;

/// [`PowerGrid`]'s primitives.
#[derive(Debug)]
pub struct PowerGridLogic {
    house_col: Col,
    plug_col: Col,
    load_col: Col,
    out_schema: Arc<Schema>,
}

impl PowerGrid {
    /// A Power Grid operator over `(house, plug, load)` columns.
    pub fn new(spec: WindowSpec, house_col: Col, plug_col: Col, load_col: Col) -> Self {
        Windowed::over(
            spec,
            PowerGridLogic {
                house_col,
                plug_col,
                load_col,
                out_schema: Schema::kvt(),
            },
        )
    }
}

impl WindowLogic for PowerGridLogic {
    type State = WindowState;

    fn name(&self) -> &'static str {
        "PowerGrid"
    }

    /// The winning houses are picked against a global average load.
    fn keyed(&self) -> bool {
        false
    }

    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut WindowState,
        _port: u8,
        _start: u64,
        mut kpa: Kpa,
    ) -> Result<(), EngineError> {
        // Compose the per-plug grouping key from (house, plug).
        let (hc, pc) = (self.house_col, self.plug_col);
        ctx.charged(16, |e| {
            kpa.key_compose(e, &[hc, pc], |v| v[0] * HOUSE_FACTOR + v[1]);
        });
        ctx.sort(&mut kpa)?;
        // Accumulate the window's global load average as we go.
        let records = kpa.resolver();
        for i in 0..kpa.len() {
            state.avg.push(records.value(i, self.load_col));
        }
        state.sides[0].push(kpa);
        Ok(())
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: WindowState,
        start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let global_avg = state.avg.mean();
        let [kpas, _] = state.sides;
        // Per-plug average, then per-house count of plugs above the global
        // average.
        let mut high_per_house: BTreeMap<u64, u64> = BTreeMap::new();
        if !kpas.is_empty() {
            ctx.gather(kpas, self.load_col, |plug, loads| {
                if sbx_kpa::agg::average(loads) > global_avg {
                    *high_per_house.entry(plug / HOUSE_FACTOR).or_insert(0) += 1;
                }
            })?;
        }
        let best = high_per_house.values().copied().max().unwrap_or(0);
        let mut rows = Vec::new();
        for (&house, &n) in &high_per_house {
            if n == best && best > 0 {
                rows.extend_from_slice(&[house, n, start]);
            }
        }
        let b = RecordBundle::from_rows(&ctx.env(), Arc::clone(&self.out_schema), &rows)?;
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

    #[test]
    fn finds_house_with_most_high_power_plugs() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let schema = Schema::new(vec!["house", "plug", "load", "ts"], Col(3));
        let mut window = WindowInto::new(spec);
        let mut op = PowerGrid::new(spec, Col(0), Col(1), Col(2));
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::High);

        // Global average will be ~55. House 1 has two hot plugs, house 2 one.
        let rows: Vec<u64> = [
            (1u64, 0u64, 100u64),
            (1, 1, 90),
            (1, 2, 10),
            (2, 0, 80),
            (2, 1, 20),
            (3, 0, 30),
        ]
        .iter()
        .flat_map(|&(h, p, l)| [h, p, l, 0])
        .collect();
        let b = RecordBundle::from_rows(&env, schema, &rows).unwrap();
        for m in window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
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
            panic!("expected bundle");
        };
        assert_eq!(b.rows(), 1);
        assert_eq!(b.value(0, Col(0)), 1); // house 1 wins
        assert_eq!(b.value(0, Col(1)), 2); // with two high-power plugs
    }

    #[test]
    fn ties_emit_all_winning_houses() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let schema = Schema::new(vec!["house", "plug", "load", "ts"], Col(3));
        let mut window = WindowInto::new(spec);
        let mut op = PowerGrid::new(spec, Col(0), Col(1), Col(2));
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::High);
        let rows: Vec<u64> = [(1u64, 0u64, 100u64), (2, 0, 100), (3, 0, 0), (3, 1, 0)]
            .iter()
            .flat_map(|&(h, p, l)| [h, p, l, 0])
            .collect();
        let b = RecordBundle::from_rows(&env, schema, &rows).unwrap();
        for m in window
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
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
            panic!("expected bundle");
        };
        let houses: Vec<u64> = (0..b.rows()).map(|r| b.value(r, Col(0))).collect();
        assert_eq!(houses, vec![1, 2]);
    }
}
