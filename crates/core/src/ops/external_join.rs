use sbx_simmem::{AccessProfile, MemKind};

use crate::operator::single;
use crate::{EngineError, Message, OpCtx, StatelessOperator, StreamData};

/// Joins the stream against a small external key-value table kept in HBM,
/// replacing each resident key `k` with `table(k)` in place — the YSB
/// pipeline's ad→campaign lookup (paper Fig. 5 step 3).
///
/// Unlike [`TemporalJoin`](crate::ops::TemporalJoin), this joins against
/// *static* state, so it needs no windowing; each lookup is one random
/// access into the HBM-resident table, and dirty keys are written back to
/// the source records per the paper's §4.3 optimization (2). Generic over
/// the lookup, so the per-key call inlines into the key update.
pub struct ExternalJoin<T> {
    table: T,
}

impl<T: Fn(u64) -> u64 + Send + Sync> ExternalJoin<T> {
    /// An external join with lookup function `table`.
    pub fn new(table: T) -> Self {
        ExternalJoin { table }
    }
}

impl<T> std::fmt::Debug for ExternalJoin<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalJoin").finish()
    }
}

impl<T: Fn(u64) -> u64 + Send + Sync> StatelessOperator for ExternalJoin<T> {
    fn name(&self) -> &'static str {
        "ExternalJoin"
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { port, data } => {
                let data = match data {
                    StreamData::Kpa(mut kpa) => {
                        // One random HBM access per key into the lookup table.
                        ctx.exec()
                            .charge(&AccessProfile::new().rand(MemKind::Hbm, kpa.len() as f64));
                        ctx.charged(16, |e| kpa.update_keys(e, &self.table));
                        StreamData::Kpa(kpa)
                    }
                    StreamData::Windowed(w, mut kpa) => {
                        ctx.exec()
                            .charge(&AccessProfile::new().rand(MemKind::Hbm, kpa.len() as f64));
                        ctx.charged(16, |e| kpa.update_keys(e, &self.table));
                        StreamData::Windowed(w, kpa)
                    }
                    bundle @ StreamData::Bundle(_) => {
                        return Err(EngineError::Config(format!(
                            "ExternalJoin requires an extracted KPA, got a bundle of {} records",
                            bundle.len()
                        )));
                    }
                };
                Ok(single(Message::Data { port, data }))
            }
            other => Ok(single(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator};
    use sbx_records::{Col, RecordBundle, Schema};
    use sbx_simmem::{MachineConfig, MemEnv};

    #[test]
    fn external_join_rewrites_keys_in_place() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = [10u64, 21, 32].iter().flat_map(|&k| [k, 0, 0]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let kpa = ctx.extract(&b, Col(0)).unwrap();
        let mut op = ExternalJoin::new(|ad| ad % 10);
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Kpa(kpa)))
            .unwrap();
        match &out[0] {
            Message::Data {
                data: StreamData::Kpa(kpa),
                ..
            } => {
                assert_eq!(kpa.keys(), &[0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Lookup traffic was charged as random HBM accesses.
        let p = ctx.take_profile();
        assert!(p.rand_accesses[MemKind::Hbm.index()] >= 3.0);
    }

    #[test]
    fn bundles_are_rejected() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 2, 3]).unwrap();
        let mut op = ExternalJoin::new(|k| k);
        let err = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
    }
}
