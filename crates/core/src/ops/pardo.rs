//! The remaining ParDo family members of Table 1: `Sample` (non-producing,
//! executes as `Select` over KPAs) and `MapRecords` (producing, executes as
//! a reduction that emits new records to DRAM — the paper's FlatMap path).

use std::sync::Arc;

use sbx_kpa::Kpa;
use sbx_records::{Col, RecordBundle, Schema};
use sbx_simmem::AccessProfile;

use crate::operator::single;
use crate::{EngineError, Message, OpCtx, StatelessOperator, StreamData};

/// Deterministic sampling ParDo: keeps a fixed fraction of records, chosen
/// by a hash of a key column (so sampling is stable across runs and
/// bundles).
pub struct Sample {
    col: Col,
    keep_per_1024: u64,
}

impl Sample {
    /// Keeps approximately `fraction` of records (clamped to `[0, 1]`),
    /// hashing column `col`.
    pub fn new(col: Col, fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        Sample {
            col,
            keep_per_1024: (f * 1024.0).round() as u64,
        }
    }

    fn keeps(&self, value: u64) -> bool {
        (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) < self.keep_per_1024
    }
}

impl std::fmt::Debug for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sample")
            .field("col", &self.col)
            .field("keep_per_1024", &self.keep_per_1024)
            .finish()
    }
}

impl StatelessOperator for Sample {
    fn name(&self) -> &'static str {
        "Sample"
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { port, data } => {
                let out = match data {
                    StreamData::Bundle(b) => {
                        StreamData::Kpa(ctx.extract_select(&b, self.col, |v| self.keeps(v))?)
                    }
                    StreamData::Kpa(kpa) => {
                        StreamData::Kpa(ctx.select(kpa, self.col, |v| self.keeps(v))?)
                    }
                    StreamData::Windowed(w, kpa) => {
                        StreamData::Windowed(w, ctx.select(kpa, self.col, |v| self.keeps(v))?)
                    }
                };
                Ok(single(Message::Data { port, data: out }))
            }
            other => Ok(single(other)),
        }
    }
}

/// The boxed row-mapping function a [`MapRecords`] operator applies: input
/// row in, zero or more output rows appended to the `Vec`.
type RowMapFn = Box<dyn Fn(&[u64], &mut Vec<u64>) + Send + Sync>;

/// A producing ParDo (`FlatMap`/`Map`): applies a function to every record
/// and emits 0..n new records per input to a fresh DRAM bundle
/// (paper §4.2: producing ParDos "perform Reduction and emit new records to
/// DRAM").
///
/// The emitted bundle is immediately re-extracted on the timestamp column
/// via the fused Extract (paper §4.3 optimization 1), so downstream
/// grouping operators receive a ready KPA.
pub struct MapRecords {
    out_schema: Arc<Schema>,
    f: RowMapFn,
}

impl MapRecords {
    /// A mapping ParDo. `f` receives each input row and appends zero or
    /// more output rows (row-major, `out_schema` arity) to its second
    /// argument.
    pub fn new(
        out_schema: Arc<Schema>,
        f: impl Fn(&[u64], &mut Vec<u64>) + Send + Sync + 'static,
    ) -> Self {
        MapRecords {
            out_schema,
            // sbx-lint: allow(raw-alloc, one-time operator construction, not per-bundle work)
            f: Box::new(f),
        }
    }
}

impl std::fmt::Debug for MapRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapRecords")
            .field("out_cols", &self.out_schema.ncols())
            .finish()
    }
}

impl StatelessOperator for MapRecords {
    fn name(&self) -> &'static str {
        "MapRecords"
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { port, data } => {
                let mut rows: Vec<u64> = Vec::new();
                let in_rows: usize;
                let in_bytes: usize;
                match &data {
                    StreamData::Bundle(b) => {
                        in_rows = b.rows();
                        in_bytes = b.schema().record_bytes();
                        for r in 0..b.rows() {
                            (self.f)(b.row(r), &mut rows);
                        }
                    }
                    StreamData::Kpa(kpa) | StreamData::Windowed(_, kpa) => {
                        in_rows = kpa.len();
                        in_bytes = if kpa.is_empty() {
                            16
                        } else {
                            kpa.schema().record_bytes()
                        };
                        // A pointer the sanitizer rejected maps nothing.
                        for row in kpa.records().flatten() {
                            (self.f)(row, &mut rows);
                        }
                    }
                }
                assert!(
                    rows.len().is_multiple_of(self.out_schema.ncols()),
                    "map fn emitted a ragged row"
                );
                // Charge: stream the input, write the output bundle.
                let out_bytes = rows.len() * 8;
                ctx.exec().charge(
                    &AccessProfile::new()
                        .seq(
                            sbx_simmem::MemKind::Dram,
                            (in_rows * in_bytes + out_bytes) as f64,
                        )
                        .cpu(in_rows as f64 * 8.0),
                );
                let env = ctx.env();
                let bundle = RecordBundle::from_rows(&env, Arc::clone(&self.out_schema), &rows)?;
                // Fused extract on the timestamp column (§4.3 opt. 1).
                let (kind, prio) = ctx.place();
                let ts_col = self.out_schema.ts_col();
                let kpa = ctx.charged(self.out_schema.record_bytes(), |e| {
                    Kpa::extract_fused(e, &bundle, ts_col, kind, prio)
                })?;
                Ok(single(Message::Data {
                    port,
                    data: StreamData::Kpa(kpa),
                }))
            }
            other => Ok(single(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator};
    use sbx_simmem::{MachineConfig, MemEnv};

    fn ctx_env() -> (MemEnv, DemandBalancer) {
        (
            MemEnv::new(MachineConfig::knl().scaled(0.01)),
            DemandBalancer::new(),
        )
    }

    #[test]
    fn sample_keeps_a_stable_fraction() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let rows: Vec<u64> = (0..10_000u64).flat_map(|i| [i, 0, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).unwrap();
        let mut op = Sample::new(Col(0), 0.25);
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(Arc::clone(&b))))
            .unwrap();
        let Message::Data {
            data: StreamData::Kpa(kpa),
            ..
        } = &out[0]
        else {
            panic!("expected kpa");
        };
        let frac = kpa.len() as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.05, "kept {frac}");
        // Deterministic: the same input samples identically.
        let out2 = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        let Message::Data {
            data: StreamData::Kpa(kpa2),
            ..
        } = &out2[0]
        else {
            panic!("expected kpa");
        };
        assert_eq!(kpa.keys(), kpa2.keys());
    }

    #[test]
    fn sample_extremes() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let rows: Vec<u64> = (0..100u64).flat_map(|i| [i, 0, 0]).collect();
        for (frac, expect) in [(0.0, 0usize), (1.0, 100)] {
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &rows).unwrap();
            let mut op = Sample::new(Col(0), frac);
            let out = op
                .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
                .unwrap();
            let Message::Data { data, .. } = &out[0] else {
                panic!()
            };
            assert_eq!(data.len(), expect, "fraction {frac}");
        }
    }

    #[test]
    fn map_records_emits_transformed_rows() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 10, 5, 2, 20, 6]).unwrap();
        // FlatMap: emit one row per input, doubling the value; drop key 2.
        let mut op = MapRecords::new(Schema::kvt(), |row, out| {
            if row[0] != 2 {
                out.extend_from_slice(&[row[0], row[1] * 2, row[2]]);
            }
        });
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        let Message::Data {
            data: StreamData::Kpa(kpa),
            ..
        } = &out[0]
        else {
            panic!("expected kpa");
        };
        assert_eq!(kpa.len(), 1);
        assert_eq!(kpa.resident(), Col(2)); // extracted on ts
        assert_eq!(kpa.value_at(0, Col(1)), 20);
    }

    #[test]
    fn map_records_can_fan_out() {
        let (env, mut bal) = ctx_env();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[7, 1, 0]).unwrap();
        let mut op = MapRecords::new(Schema::kvt(), |row, out| {
            for i in 0..3 {
                out.extend_from_slice(&[row[0], row[1] + i, row[2]]);
            }
        });
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        assert_eq!(out[0].data_len(), 3);
    }
}
