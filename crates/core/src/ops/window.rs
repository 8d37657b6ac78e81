use sbx_kpa::{ExtractCharge, Kpa};
use sbx_records::{WindowId, WindowSpec};

use crate::operator::single;
use crate::{EngineError, Message, OpCtx, StatelessOperator, StreamData};

/// Assigns records to temporal windows by partitioning KPAs on the
/// timestamp column (paper §4.2: Windowing operators use `Partition` with
/// the window/slide length as the key range of each output partition).
#[derive(Debug)]
pub struct WindowInto {
    spec: WindowSpec,
    panes: bool,
}

impl WindowInto {
    /// A windowing operator for `spec`. Sliding windows duplicate each
    /// pane into every window containing it.
    pub fn new(spec: WindowSpec) -> Self {
        WindowInto { spec, panes: false }
    }

    /// Pane mode (CQL-style): partitions by the slide stride and emits each
    /// pane exactly once, tagged with its pane id. Downstream operators
    /// that combine panes (e.g.
    /// [`KeyedAggregate::with_pane_combining`](crate::ops::KeyedAggregate::with_pane_combining))
    /// reconstruct sliding windows without duplicating data.
    pub fn panes(spec: WindowSpec) -> Self {
        WindowInto { spec, panes: true }
    }
}

impl StatelessOperator for WindowInto {
    fn name(&self) -> &'static str {
        "Window"
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        match msg {
            Message::Data { port, data } => {
                let mut kpa = match data {
                    // Taken in place: a bundle in one pane reaches the next
                    // operator as its rows, no pair written.
                    StreamData::Bundle(b) => {
                        let (ts_col, rb) = (b.schema().ts_col(), b.schema().record_bytes());
                        let (kind, prio) = ctx.place();
                        let read = ExtractCharge::Read;
                        ctx.charged(rb, |e| {
                            Kpa::extract_in_place(e, &b, ts_col, kind, prio, read)
                        })?
                    }
                    StreamData::Kpa(kpa) => kpa,
                    StreamData::Windowed(_, kpa) => kpa, // re-window
                };
                let ts_col = kpa.schema().ts_col();
                if kpa.resident() != ts_col {
                    ctx.charged(16, |e| kpa.key_swap(e, ts_col));
                }
                let stride = self.spec.stride();
                let (_, prio) = ctx.place();
                let overlap = if self.panes {
                    1
                } else {
                    self.spec.size() / stride
                };
                // A sliding window copies its panes below while the input
                // is held; a pane that is its window takes the input over.
                let panes = if overlap == 1 {
                    ctx.charged(16, |e| kpa.into_partitions(e, prio, stride))?
                } else {
                    ctx.charged(16, |e| kpa.partition_by(e, prio, stride))?
                };
                let mut out = Vec::new();
                for (pane, pkpa) in panes {
                    if overlap == 1 {
                        out.push(Message::Data {
                            port,
                            data: StreamData::Windowed(WindowId(pane), pkpa),
                        });
                    } else {
                        // Sliding window: pane p lies inside windows
                        // [p - overlap + 1, p] (cf. WindowSpec::windows_of);
                        // duplicate the KPA into each — a Select that keeps
                        // everything, which the shared compaction loop runs
                        // as a plain copy.
                        for w in pane.saturating_sub(overlap - 1)..=pane {
                            let copy = ctx.charged(16, |e| pkpa.select(e, prio, |_| true))?;
                            out.push(Message::Data {
                                port,
                                data: StreamData::Windowed(WindowId(w), copy),
                            });
                        }
                    }
                }
                Ok(out)
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

    fn windows_of(out: &[Message]) -> Vec<(u64, Vec<u64>)> {
        out.iter()
            .map(|m| match m {
                Message::Data {
                    data: StreamData::Windowed(w, kpa),
                    ..
                } => (w.0, kpa.keys().to_vec()),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fixed_windows_partition_by_timestamp() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = [5u64, 15, 7, 25].iter().flat_map(|&t| [1, 2, t]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut op = WindowInto::new(WindowSpec::fixed(10));
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        assert_eq!(
            windows_of(&out),
            vec![(0, vec![5, 7]), (1, vec![15]), (2, vec![25])]
        );
    }

    #[test]
    fn sliding_windows_duplicate_panes() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = [12u64].iter().flat_map(|&t| [1, 2, t]).collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let mut op = WindowInto::new(WindowSpec::sliding(10, 5));
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Bundle(b)))
            .unwrap();
        // ts 12 lies in windows [5,15) and [10,20): ids 1 and 2.
        assert_eq!(windows_of(&out), vec![(1, vec![12]), (2, vec![12])]);
    }

    #[test]
    fn kpa_input_swaps_to_timestamp_column() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, ImpactTag::High);
        let flat: Vec<u64> = [(1u64, 3u64), (2, 13)]
            .iter()
            .flat_map(|&(k, t)| [k, 0, t])
            .collect();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &flat).unwrap();
        let kpa = ctx.extract(&b, Col(0)).unwrap();
        let mut op = WindowInto::new(WindowSpec::fixed(10));
        let out = op
            .on_message(&mut ctx, Message::data(StreamData::Kpa(kpa)))
            .unwrap();
        assert_eq!(windows_of(&out), vec![(0, vec![3]), (1, vec![13])]);
    }
}
