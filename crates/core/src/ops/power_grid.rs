use std::collections::BTreeMap;
use std::sync::Arc;

use sbx_kpa::{reduce_keyed, Kpa};
use sbx_records::{Col, RecordBundle, Schema, WindowId, WindowSpec};

use crate::checkpoint::{join_u128, split_u128, OpState, StateEntry};
use crate::ops::{closable, single, window_start, LateGuard};
use crate::{EngineError, ImpactTag, Message, OpCtx, Operator, StreamData};

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
pub struct PowerGrid {
    spec: WindowSpec,
    house_col: Col,
    plug_col: Col,
    load_col: Col,
    state: BTreeMap<WindowId, Vec<Kpa>>,
    totals: BTreeMap<WindowId, (u128, u64)>,
    out_schema: Arc<Schema>,
    late: LateGuard,
}

impl PowerGrid {
    /// A Power Grid operator over `(house, plug, load)` columns.
    pub fn new(spec: WindowSpec, house_col: Col, plug_col: Col, load_col: Col) -> Self {
        PowerGrid {
            spec,
            house_col,
            plug_col,
            load_col,
            state: BTreeMap::new(),
            totals: BTreeMap::new(),
            out_schema: Schema::kvt(),
            late: LateGuard::default(),
        }
    }

    /// Records dropped because their window had already closed.
    pub fn late_records(&self) -> u64 {
        self.late.dropped()
    }
}

impl std::fmt::Debug for PowerGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerGrid")
            .field("open_windows", &self.state.len())
            .finish()
    }
}

impl Operator for PowerGrid {
    fn name(&self) -> &'static str {
        "PowerGrid"
    }

    fn on_message(
        &mut self,
        ctx: &mut OpCtx<'_>,
        msg: Message,
    ) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data {
                data: StreamData::Windowed(w, mut kpa),
                ..
            } => {
                if self.late.is_late(&self.spec, w, kpa.len()) {
                    return Ok(Vec::new());
                }
                // Compose the per-plug grouping key from (house, plug).
                let (hc, pc) = (self.house_col, self.plug_col);
                ctx.charged(16, |e| {
                    kpa.key_compose(e, &[hc, pc], |v| v[0] * HOUSE_FACTOR + v[1]);
                });
                ctx.sort(&mut kpa)?;
                // Accumulate the window's global load total as we go.
                let load_col = self.load_col;
                let (mut sum, mut count) = (0u128, 0u64);
                let records = kpa.resolver();
                for i in 0..kpa.len() {
                    sum += records.value(i, load_col) as u128;
                    count += 1;
                }
                let t = self.totals.entry(w).or_insert((0, 0));
                t.0 += sum;
                t.1 += count;
                self.state.entry(w).or_default().push(kpa);
                Ok(Vec::new())
            }
            Message::Data { data, .. } => Err(EngineError::Config(format!(
                "PowerGrid requires windowed KPAs, got {} unwindowed records",
                data.len()
            ))),
            Message::Watermark(wm) => {
                self.late.observe(wm);
                ctx.tag = ImpactTag::Urgent;
                let mut out = Vec::new();
                for w in closable(&self.state, &self.spec, wm) {
                    // `closable` returned keys of this map, so the entry
                    // is present; skip defensively rather than panic.
                    let Some(kpas) = self.state.remove(&w) else {
                        continue;
                    };
                    let (sum, count) = self.totals.remove(&w).unwrap_or((0, 0));
                    let global_avg = if count == 0 {
                        0
                    } else {
                        (sum / count as u128) as u64
                    };
                    let merged = ctx.merge_many(kpas)?;
                    // Per-plug average, then per-house count of plugs above
                    // the global average.
                    let mut high_per_house: BTreeMap<u64, u64> = BTreeMap::new();
                    let load_col = self.load_col;
                    ctx.charged(16, |e| {
                        reduce_keyed(e, &merged, load_col, |g| {
                            let avg = sbx_kpa::agg::average(g.values);
                            if avg > global_avg {
                                let house = g.key / HOUSE_FACTOR;
                                *high_per_house.entry(house).or_insert(0) += 1;
                            }
                        })
                    });
                    let start = window_start(&self.spec, w).raw();
                    let best = high_per_house.values().copied().max().unwrap_or(0);
                    let mut rows = Vec::new();
                    for (&house, &n) in &high_per_house {
                        if n == best && best > 0 {
                            rows.extend_from_slice(&[house, n, start]);
                        }
                    }
                    let env = ctx.env();
                    let b = RecordBundle::from_rows(&env, Arc::clone(&self.out_schema), &rows)?;
                    out.push(Message::data(StreamData::Bundle(b)));
                }
                out.push(Message::Watermark(wm));
                Ok(out)
            }
            Message::Barrier(mut b) => {
                b.states.push(self.snapshot(ctx)?);
                Ok(single(Message::Barrier(b)))
            }
        }
    }

    fn snapshot(&self, ctx: &mut OpCtx<'_>) -> Result<OpState, EngineError> {
        let mut st = OpState {
            horizon: self.late.horizon().map(|h| h.time().raw()),
            scalars: Vec::new(),
            entries: Vec::new(),
        };
        for (w, kpas) in &self.state {
            for kpa in kpas {
                st.entries.push(StateEntry::from_kpa(ctx, w.0, 0, kpa)?);
            }
        }
        // Window load totals: [window, sum_hi, sum_lo, count].
        for (w, &(sum, count)) in &self.totals {
            let (hi, lo) = split_u128(sum);
            st.scalars.extend_from_slice(&[w.0, hi, lo, count]);
        }
        Ok(st)
    }

    fn restore(&mut self, ctx: &mut OpCtx<'_>, state: &OpState) -> Result<(), EngineError> {
        if let Some(raw) = state.horizon {
            self.late.observe(sbx_records::Watermark::from(raw));
        }
        for e in &state.entries {
            self.state
                .entry(WindowId(e.window))
                .or_default()
                .push(e.to_kpa(ctx)?);
        }
        for c in state.scalars.chunks_exact(4) {
            let e = self.totals.entry(WindowId(c[0])).or_insert((0, 0));
            e.0 += join_u128(c[1], c[2]);
            e.1 += c[3];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WindowInto;
    use crate::{DemandBalancer, EngineMode};
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
