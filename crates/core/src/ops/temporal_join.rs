use std::sync::Arc;

use sbx_kpa::{join_sorted, Kpa};
use sbx_records::{Col, RecordBundle, Schema, WindowSpec};

use super::windowed::{WindowLogic, WindowState, Windowed};
use crate::{EngineError, Message, OpCtx, StreamData};

/// Temporal Join (paper Fig. 4b): joins two record streams by key within
/// each temporal window.
///
/// Implemented symmetrically and incrementally, exactly as the paper
/// describes: when a sorted KPA arrives on one side it is (1) joined
/// against the opposite side's accumulated window state and (2) merged into
/// its own side's state. Every matching `(left, right)` pair is therefore
/// emitted exactly once. Output records are
/// `(key, left_value, right_value, window_start)`.
pub type TemporalJoin = Windowed<TemporalJoinLogic, WindowState>;

/// [`TemporalJoin`]'s primitives: all of them run on arrival, leaving one
/// sorted KPA per side and the joined rows pending; close only emits.
#[derive(Debug)]
pub struct TemporalJoinLogic {
    key_col: Col,
    value_col: Col,
    out_schema: Arc<Schema>,
}

impl TemporalJoin {
    /// Joins on `key_col`, emitting `value_col` from both sides.
    pub fn new(spec: WindowSpec, key_col: Col, value_col: Col) -> Self {
        Windowed::over(
            spec,
            TemporalJoinLogic {
                key_col,
                value_col,
                // sbx-lint: allow(raw-alloc, one-time schema construction)
                out_schema: Schema::new(vec!["key", "l_value", "r_value", "ts"], Col(3)),
            },
        )
    }
}

impl WindowLogic for TemporalJoinLogic {
    type State = WindowState;

    fn name(&self) -> &'static str {
        "TemporalJoin"
    }

    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut WindowState,
        port: u8,
        start: u64,
        mut kpa: Kpa,
    ) -> Result<(), EngineError> {
        let side = (port as usize).min(1);
        if kpa.resident() != self.key_col {
            ctx.charged(16, |e| kpa.key_swap(e, self.key_col));
        }
        // The join reads the newcomer's keys and pointers.
        kpa.write_pairs();
        ctx.sort(&mut kpa)?;

        // (1) Join the newcomer against the opposite side's state.
        let value_col = self.value_col;
        let WindowState { sides, pending, .. } = state;
        if let Some(other) = sides[1 - side].first() {
            ctx.charged(16, |e| {
                join_sorted(e, &kpa, other, 32, |newcomer, ni, opposite, oi| {
                    let key = newcomer.keys()[ni];
                    let new_v = newcomer.value_at(ni, value_col);
                    let opp_v = opposite.value_at(oi, value_col);
                    // Keep (left, right) orientation stable regardless of
                    // which side the newcomer arrived on.
                    let (lv, rv) = if side == 0 {
                        (new_v, opp_v)
                    } else {
                        (opp_v, new_v)
                    };
                    pending.push([key, lv, rv, start]);
                })
            });
        }

        // (2) Merge the newcomer into its own side's state.
        let merged = match sides[side].pop() {
            None => kpa,
            Some(existing) => {
                let (kind, prio) = ctx.place();
                ctx.charged(16, |e| Kpa::merge(e, &existing, &kpa, kind, prio))?
            }
        };
        sides[side].push(merged);
        Ok(())
    }

    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: WindowState,
        _start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let rows = state.pending.as_flattened();
        let b = RecordBundle::from_rows(&ctx.env(), Arc::clone(&self.out_schema), rows)?;
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
    use std::collections::HashSet;

    /// Feed (key, value, ts) rows on both ports, possibly split across
    /// several bundles, and return the joined rows after closing.
    fn run_join(
        left: Vec<Vec<(u64, u64, u64)>>,
        right: Vec<Vec<(u64, u64, u64)>>,
    ) -> HashSet<(u64, u64, u64, u64)> {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let spec = WindowSpec::fixed(10);
        let mut window = WindowInto::new(spec);
        let mut join = TemporalJoin::new(spec, Col(0), Col(1));
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);

        for (port, batches) in [(0u8, &left), (1u8, &right)] {
            for batch in batches {
                let flat: Vec<u64> = batch.iter().flat_map(|&(k, v, t)| [k, v, t]).collect();
                let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
                for m in window
                    .on_message(
                        &mut ctx,
                        Message::Data {
                            port,
                            data: StreamData::Bundle(b),
                        },
                    )
                    .unwrap()
                {
                    join.on_message(&mut ctx, m).unwrap();
                }
            }
        }
        let closed = join
            .on_message(&mut ctx, Message::Watermark(Watermark::from(u64::MAX)))
            .unwrap();
        let mut rows = HashSet::new();
        for m in closed {
            if let Message::Data {
                data: StreamData::Bundle(b),
                ..
            } = m
            {
                for r in 0..b.rows() {
                    rows.insert((
                        b.value(r, Col(0)),
                        b.value(r, Col(1)),
                        b.value(r, Col(2)),
                        b.value(r, Col(3)),
                    ));
                }
            }
        }
        rows
    }

    #[test]
    fn joins_matching_keys_within_window() {
        let rows = run_join(
            vec![vec![(1, 100, 0), (2, 200, 1)]],
            vec![vec![(1, 111, 2), (3, 333, 3)]],
        );
        assert_eq!(rows, HashSet::from([(1, 100, 111, 0)]));
    }

    #[test]
    fn keys_in_different_windows_do_not_join() {
        let rows = run_join(vec![vec![(1, 100, 0)]], vec![vec![(1, 111, 15)]]);
        assert!(rows.is_empty());
    }

    #[test]
    fn incremental_arrival_emits_each_pair_once() {
        // Same key on both sides, split over multiple bundles per side.
        let rows = run_join(
            vec![vec![(7, 1, 0)], vec![(7, 2, 1)]],
            vec![vec![(7, 10, 2)], vec![(7, 20, 3)]],
        );
        // 2 left x 2 right = 4 distinct pairs.
        assert_eq!(
            rows,
            HashSet::from([(7, 1, 10, 0), (7, 1, 20, 0), (7, 2, 10, 0), (7, 2, 20, 0)])
        );
    }

    #[test]
    fn orientation_is_stable_across_arrival_order() {
        // Right arrives first; left value must still be in column 1.
        let rows = run_join(vec![vec![(5, 50, 1)]], vec![vec![(5, 55, 0)]]);
        assert_eq!(rows, HashSet::from([(5, 50, 55, 0)]));
    }

    #[test]
    fn matches_nested_loop_oracle_on_random_input() {
        use sbx_prng::SbxRng;
        let mut rng = SbxRng::seed_from_u64(99);
        let mk = |rng: &mut SbxRng| -> Vec<(u64, u64, u64)> {
            (0..60)
                .map(|_| {
                    (
                        rng.random_range(0..8),
                        rng.random_range(0..1000),
                        rng.random_range(0..30),
                    )
                })
                .collect()
        };
        let l = mk(&mut rng);
        let r = mk(&mut rng);
        let got = run_join(vec![l.clone()], vec![r.clone()]);
        let spec = WindowSpec::fixed(10);
        let mut expect = HashSet::new();
        for &(lk, lv, lt) in &l {
            for &(rk, rv, rt) in &r {
                if lk == rk && spec.window_of(lt.into()) == spec.window_of(rt.into()) {
                    expect.insert((lk, lv, rv, spec.start(spec.window_of(lt.into())).raw()));
                }
            }
        }
        assert_eq!(got, expect);
    }
}
