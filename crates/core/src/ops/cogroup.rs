//! Cogroup (Table 1): groups two streams by key within each window and
//! emits one record per key combining a per-side aggregate.

use std::sync::Arc;

use sbx_kpa::Kpa;
use sbx_records::{Col, RecordBundle, Schema, WindowSpec};

use super::windowed::{WindowLogic, WindowState, Windowed};
use crate::{EngineError, Message, OpCtx, StreamData};

/// Per-side aggregate applied by [`Cogroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideAgg {
    /// Number of records on this side.
    Count,
    /// Wrapping sum of the value column on this side.
    Sum,
}

impl SideAgg {
    fn apply(self, values: &[u64]) -> u64 {
        match self {
            SideAgg::Count => values.len() as u64,
            SideAgg::Sum => values.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
        }
    }
}

/// Cogroup: for every key present on *either* input stream within a window,
/// emits `(key, left_agg, right_agg, window_start)` at window close — keys
/// absent from one side contribute that side's identity (0).
///
/// Implemented on the sort/merge primitives like Keyed Aggregation: each
/// arriving KPA is key-swapped and sorted; the window state is the sorted
/// KPAs of each side; closure merges, reduces per side, and zips the two
/// sorted key sets in one co-scan.
pub type Cogroup = Windowed<CogroupLogic, WindowState>;

/// [`Cogroup`]'s primitives.
#[derive(Debug)]
pub struct CogroupLogic {
    key_col: Col,
    value_col: Col,
    agg: [SideAgg; 2],
    out_schema: Arc<Schema>,
}

impl Cogroup {
    /// A cogroup on `key_col`, aggregating `value_col` with `agg[side]`.
    pub fn new(spec: WindowSpec, key_col: Col, value_col: Col, agg: [SideAgg; 2]) -> Self {
        Windowed::over(
            spec,
            CogroupLogic {
                key_col,
                value_col,
                agg,
                // sbx-lint: allow(raw-alloc, one-time schema construction)
                out_schema: Schema::new(vec!["key", "l_agg", "r_agg", "ts"], Col(3)),
            },
        )
    }
}

impl WindowLogic for CogroupLogic {
    type State = WindowState;

    fn name(&self) -> &'static str {
        "Cogroup"
    }

    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut WindowState,
        port: u8,
        _start: u64,
        mut kpa: Kpa,
    ) -> Result<(), EngineError> {
        if kpa.resident() != self.key_col {
            ctx.charged(16, |e| kpa.key_swap(e, self.key_col));
        }
        ctx.sort(&mut kpa)?;
        state.sides[(port as usize).min(1)].push(kpa);
        Ok(())
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: WindowState,
        start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let mut sides: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
        for (side, kpas) in state.sides.into_iter().enumerate() {
            if kpas.is_empty() {
                continue;
            }
            let (agg, acc) = (self.agg[side], &mut sides[side]);
            ctx.gather(kpas, self.value_col, |key, values| {
                acc.push((key, agg.apply(values)));
            })?;
        }
        // Co-scan the two sorted per-key aggregate lists.
        let (mut ls, mut rs) = (sides[0].iter().peekable(), sides[1].iter().peekable());
        let mut rows = Vec::new();
        loop {
            let row = match (ls.peek(), rs.peek()) {
                (Some(&&(a, l)), Some(&&(b, r))) if a == b => {
                    ls.next();
                    rs.next();
                    [a, l, r, start]
                }
                (Some(&&(a, l)), right) if right.is_none_or(|&&(b, _)| a < b) => {
                    ls.next();
                    [a, l, 0, start]
                }
                (_, Some(&&(b, r))) => {
                    rs.next();
                    [b, 0, r, start]
                }
                (_, None) => break,
            };
            rows.extend_from_slice(&row);
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

    fn feed(
        op: &mut Cogroup,
        window: &mut WindowInto,
        ctx: &mut OpCtx<'_>,
        env: &MemEnv,
        port: u8,
        rows: &[(u64, u64)],
    ) {
        let flat: Vec<u64> = rows.iter().flat_map(|&(k, v)| [k, v, 0]).collect();
        let b = RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap();
        for m in window
            .on_message(
                ctx,
                Message::Data {
                    port,
                    data: StreamData::Bundle(b),
                },
            )
            .unwrap()
        {
            op.on_message(ctx, m).unwrap();
        }
    }

    #[test]
    fn cogroup_zips_both_sides_per_key() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let mut window = WindowInto::new(spec);
        let mut op = Cogroup::new(spec, Col(0), Col(1), [SideAgg::Sum, SideAgg::Count]);
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::High);

        feed(
            &mut op,
            &mut window,
            &mut ctx,
            &env,
            0,
            &[(1, 10), (1, 5), (3, 7)],
        );
        feed(
            &mut op,
            &mut window,
            &mut ctx,
            &env,
            1,
            &[(1, 99), (2, 42), (2, 43)],
        );

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
        let got: Vec<(u64, u64, u64)> = (0..b.rows())
            .map(|r| (b.value(r, Col(0)), b.value(r, Col(1)), b.value(r, Col(2))))
            .collect();
        // key 1: left sum 15, right count 1; key 2: right only, count 2;
        // key 3: left only, sum 7.
        assert_eq!(got, vec![(1, 15, 1), (2, 0, 2), (3, 7, 0)]);
    }

    #[test]
    fn one_sided_windows_still_emit() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(100);
        let mut window = WindowInto::new(spec);
        let mut op = Cogroup::new(spec, Col(0), Col(1), [SideAgg::Count, SideAgg::Count]);
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::High);
        feed(&mut op, &mut window, &mut ctx, &env, 0, &[(9, 1), (9, 2)]);
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
        assert_eq!(b.value(0, Col(1)), 2);
        assert_eq!(b.value(0, Col(2)), 0);
    }
}
