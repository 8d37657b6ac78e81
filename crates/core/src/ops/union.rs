use crate::operator::single;
use crate::{EngineError, Message, OpCtx, StatelessOperator};

/// Union (Table 1): merges the two input streams into one, re-tagging all
/// data onto port 0. A pure grouping operator — no records are touched, so
/// it charges nothing.
#[derive(Debug, Default)]
pub struct Union;

impl Union {
    /// A union of both input ports.
    pub fn new() -> Self {
        Union
    }
}

impl StatelessOperator for Union {
    fn name(&self) -> &'static str {
        "Union"
    }

    fn apply(&self, _ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { data, .. } => Ok(single(Message::Data { port: 0, data })),
            other => Ok(single(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemandBalancer, EngineMode, ImpactTag, Operator, StreamData};
    use sbx_records::{RecordBundle, Schema};
    use sbx_simmem::{MachineConfig, MemEnv};

    #[test]
    fn union_retargets_both_ports_to_zero() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let mut op = Union::new();
        for port in [0u8, 1] {
            let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 2, 3]).unwrap();
            let out = op
                .on_message(
                    &mut ctx,
                    Message::Data {
                        port,
                        data: StreamData::Bundle(b),
                    },
                )
                .unwrap();
            assert!(matches!(out[0], Message::Data { port: 0, .. }));
        }
        // No work is charged.
        assert_eq!(ctx.take_profile(), sbx_simmem::AccessProfile::new());
    }
}
