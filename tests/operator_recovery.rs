//! Operator-level recovery differential, one harness for every windowed
//! operator (DESIGN.md §9): a fixed multi-window, two-port stream goes
//! through `WindowInto`; at *every* message boundary the operator is
//! snapshotted, the snapshot round-trips through the wire codec, a fresh
//! operator restores it and finishes the stream. The rows it emits — before
//! and after the cut together — must equal the uninterrupted run's.
//!
//! Written against `dyn Operator`, so it holds whatever the operators are
//! built from.

use std::sync::Arc;

use streambox_hbm::checkpoint::{decode_snapshot, encode_snapshot};
use streambox_hbm::engine::ops::{
    AvgAll, Cogroup, KeyedAggregate, PowerGrid, SideAgg, TemporalJoin, WindowInto, WindowedFilter,
};
use streambox_hbm::engine::{
    DemandBalancer, EngineError, EntryRepr, ImpactTag, Message, OpCtx, OpState, Operator,
    PipelineSnapshot, StateEntry, StatelessOperator, StreamData,
};
use streambox_hbm::prelude::*;

/// One step of the input: a bundle of `(a, b, ts)` rows on a port, or a
/// watermark.
#[derive(Clone, Copy)]
enum Step {
    Rows(u8, &'static [(u64, u64, u64)]),
    Wm(u64),
}

/// Windows of 10 ticks. Keys are chosen so that `k % 3` is not monotone in
/// `k` (a restored KPA that forgot its mapped keys is no longer sorted),
/// every bundle straddles two windows, and window 2 receives a bundle's
/// single record (the one-pair KPA early aggregation stores un-reduced).
const STREAM: &[Step] = &[
    Step::Rows(0, &[(5, 40, 1), (1, 10, 2), (4, 70, 8), (2, 20, 11)]),
    Step::Rows(1, &[(9, 30, 3), (1, 50, 4), (7, 60, 12), (5, 5, 13)]),
    Step::Rows(0, &[(7, 90, 9), (5, 15, 9), (8, 80, 14), (1, 25, 15)]),
    Step::Wm(12),
    Step::Rows(1, &[(4, 35, 16), (2, 45, 17), (5, 55, 18), (3, 65, 21)]),
    Step::Rows(0, &[(3, 75, 19), (9, 85, 19), (6, 95, 22), (4, 12, 23)]),
    Step::Wm(20),
    Step::Rows(0, &[(8, 33, 24), (5, 44, 26), (2, 66, 31), (7, 77, 33)]),
    Step::Rows(1, &[(6, 11, 27), (8, 22, 28), (1, 99, 32), (2, 88, 34)]),
    Step::Wm(30),
    Step::Rows(0, &[(1, 7, 35), (4, 9, 36)]),
];

struct Case {
    name: String,
    /// The engine mode the operator runs and restores under.
    mode: EngineMode,
    /// Columns of the input schema: 3 is `(key, value, ts)`; 4 splits the
    /// key into `(house, plug)` for Power Grid.
    ncols: usize,
    window: fn() -> WindowInto,
    make: Box<dyn Fn() -> Box<dyn Operator>>,
}

fn spec() -> WindowSpec {
    WindowSpec::fixed(10)
}

fn sliding() -> WindowSpec {
    WindowSpec::sliding(20, 10)
}

fn cases() -> Vec<Case> {
    let fixed = || WindowInto::new(spec());
    let mut cases = vec![
        Case {
            name: "AvgAll".into(),
            mode: EngineMode::Hybrid,
            ncols: 3,
            window: fixed,
            make: Box::new(|| Box::new(AvgAll::new(spec(), Col(1)))),
        },
        Case {
            name: "Cogroup".into(),
            mode: EngineMode::Hybrid,
            ncols: 3,
            window: fixed,
            make: Box::new(|| {
                Box::new(Cogroup::new(
                    spec(),
                    Col(0),
                    Col(1),
                    [SideAgg::Sum, SideAgg::Count],
                ))
            }),
        },
        Case {
            name: "TemporalJoin".into(),
            mode: EngineMode::Hybrid,
            ncols: 3,
            window: fixed,
            make: Box::new(|| Box::new(TemporalJoin::new(spec(), Col(0), Col(1)))),
        },
        Case {
            name: "WindowedFilter".into(),
            mode: EngineMode::Hybrid,
            ncols: 3,
            window: fixed,
            make: Box::new(|| Box::new(WindowedFilter::new(spec(), Col(1)))),
        },
        Case {
            name: "PowerGrid".into(),
            mode: EngineMode::Hybrid,
            ncols: 4,
            window: fixed,
            make: Box::new(|| Box::new(PowerGrid::new(spec(), Col(0), Col(1), Col(2)))),
        },
    ];
    let kinds = [
        AggKind::Sum,
        AggKind::Count,
        AggKind::Avg,
        AggKind::Median,
        AggKind::TopK(2),
        AggKind::UniqueCount,
    ];
    // The row mode groups in its own table whatever the spec says, on new
    // windows and on restore alike.
    let groupings = [
        (GroupingSpec::SortMerge, EngineMode::Hybrid),
        (GroupingSpec::Hash, EngineMode::Hybrid),
        (GroupingSpec::SortMerge, EngineMode::Row),
        (GroupingSpec::Adaptive, EngineMode::Hybrid),
    ];
    for kind in kinds {
        let combinable = matches!(kind, AggKind::Sum | AggKind::Count);
        for (grouping, mode) in groupings {
            for mapped in [false, true] {
                for early in [true, false] {
                    if early && !combinable {
                        continue; // early aggregation only exists for Sum/Count
                    }
                    cases.push(Case {
                        name: format!(
                            "KeyedAggregate {kind:?} {} {mode:?} mapped={mapped} early={early}",
                            grouping.label()
                        ),
                        mode,
                        ncols: 3,
                        window: fixed,
                        make: Box::new(move || {
                            let mut op = KeyedAggregate::new(spec(), Col(0), Col(1), kind)
                                .with_grouping(grouping);
                            if mapped {
                                op = op.with_key_map(|k| k % 3);
                            }
                            if !early {
                                op = op.without_early_aggregation();
                            }
                            Box::new(op)
                        }),
                    });
                }
            }
        }
    }
    for mapped in [false, true] {
        cases.push(Case {
            name: format!("KeyedAggregate Sum panes mapped={mapped}"),
            mode: EngineMode::Hybrid,
            ncols: 3,
            window: || WindowInto::panes(sliding()),
            make: Box::new(move || {
                let mut op = KeyedAggregate::new(sliding(), Col(0), Col(1), AggKind::Sum)
                    .with_pane_combining();
                if mapped {
                    op = op.with_key_map(|k| k % 3);
                }
                Box::new(op)
            }),
        });
    }
    cases
}

/// The operator's input: [`STREAM`] through the case's windowing operator.
fn messages(case: &Case, env: &MemEnv, ctx: &mut OpCtx<'_>) -> Vec<Message> {
    let schema = match case.ncols {
        3 => Schema::kvt(),
        _ => Schema::new(vec!["house", "plug", "load", "ts"], Col(3)),
    };
    let window = (case.window)();
    let mut out = Vec::new();
    for step in STREAM {
        let msg = match *step {
            Step::Wm(t) => Message::Watermark(Watermark::from(t)),
            Step::Rows(port, rows) => {
                let flat: Vec<u64> = rows
                    .iter()
                    .flat_map(|&(k, v, t)| match case.ncols {
                        3 => vec![k, v, t],
                        _ => vec![k / 3, k % 3, v, t],
                    })
                    .collect();
                let b = RecordBundle::from_rows(env, Arc::clone(&schema), &flat).expect("bundle");
                Message::Data {
                    port,
                    data: StreamData::Bundle(b),
                }
            }
        };
        out.extend(window.apply(ctx, msg).expect("window"));
    }
    out.push(Message::Watermark(Watermark::from(u64::MAX)));
    out
}

/// Feeds `msgs` to `op`, appending every emitted record as a row.
fn feed(
    op: &mut dyn Operator,
    ctx: &mut OpCtx<'_>,
    msgs: impl IntoIterator<Item = Message>,
    rows: &mut Vec<Vec<u64>>,
) {
    for m in msgs {
        for out in op.on_message(ctx, m).expect("on_message") {
            match out {
                Message::Data {
                    data: StreamData::Bundle(b),
                    ..
                } => rows.extend((0..b.rows()).map(|r| b.row(r).to_vec())),
                Message::Data { data, .. } => panic!("unexpected non-bundle output {data:?}"),
                Message::Watermark(_) | Message::Barrier(_) => {}
            }
        }
    }
}

/// The snapshot as a restarted process sees it: through the wire codec.
fn through_codec(state: OpState) -> OpState {
    let snap = PipelineSnapshot {
        ops: vec![state],
        ..PipelineSnapshot::default()
    };
    let mut decoded = decode_snapshot(&encode_snapshot(&snap)).expect("snapshot decodes");
    decoded.ops.pop().expect("one operator state")
}

/// Runs `case` cut at message boundary `cut` (`None`: uninterrupted);
/// returns the number of messages the operator was fed and the rows it
/// emitted.
fn run(case: &Case, cut: Option<usize>) -> (usize, Vec<Vec<u64>>) {
    let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
    let mut bal = DemandBalancer::new();
    let mut ctx = OpCtx::new(&env, &mut bal, case.mode, ImpactTag::High);
    let mut msgs = messages(case, &env, &mut ctx);
    let fed = msgs.len();
    let mut rows = Vec::new();
    let mut op = (case.make)();
    if let Some(cut) = cut {
        let tail = msgs.split_off(cut);
        feed(op.as_mut(), &mut ctx, msgs, &mut rows);
        let state = through_codec(op.snapshot(&mut ctx).expect("snapshot"));
        drop(op);
        op = (case.make)();
        op.restore(&mut ctx, &state).expect("restore");
        msgs = tail;
    }
    feed(op.as_mut(), &mut ctx, msgs, &mut rows);
    (fed, rows)
}

#[test]
fn every_windowed_operator_recovers_at_every_message_boundary() {
    let mut failed = Vec::new();
    for case in cases() {
        let (boundaries, expect) = run(&case, None);
        assert!(
            !expect.is_empty(),
            "{}: stream produced no output",
            case.name
        );
        // A panic (debug builds: `mark_sorted on unsorted keys`) is a
        // failed case like any other, so one run lists them all.
        let bad: Vec<usize> = (0..=boundaries)
            .filter(|&cut| {
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&case, Some(cut))
                }));
                got.ok().map(|(_, rows)| rows).as_ref() != Some(&expect)
            })
            .collect();
        if !bad.is_empty() {
            failed.push(format!("{} (cuts {bad:?})", case.name));
        }
    }
    assert!(
        failed.is_empty(),
        "{} case(s) diverged from the uninterrupted run:\n  {}",
        failed.len(),
        failed.join("\n  ")
    );
}

/// Ways a snapshot entry can lie about itself.
const MUTATIONS: [fn(&mut StateEntry); 5] = [
    |e| e.ncols = 0,
    |e| e.ts_col = e.ncols,
    |e| e.rows.push(1),
    |e| {
        if let EntryRepr::Kpa { resident, .. } = &mut e.repr {
            *resident = usize::MAX;
        }
    },
    // Claims sorted, rows reversed.
    |e| {
        let reversed = e.rows.chunks(e.ncols.max(1)).rev().flatten();
        e.rows = reversed.copied().collect();
    },
];

/// A snapshot is outside input: whatever an entry claims, `restore` answers
/// `Ok` or `EngineError::Config` — it never panics and never trusts a
/// `sorted` flag the rows do not bear out.
#[test]
fn hostile_entries_are_config_errors_not_panics() {
    for case in cases() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.01));
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, case.mode, ImpactTag::High);
        let mut msgs = messages(&case, &env, &mut ctx);
        msgs.truncate(5); // mid-window: every operator holds state
        let mut op = (case.make)();
        feed(op.as_mut(), &mut ctx, msgs, &mut Vec::new());
        let good = op.snapshot(&mut ctx).expect("snapshot");
        for victim in 0..good.entries.len() {
            for (i, mutate) in MUTATIONS.iter().enumerate() {
                let mut bad = good.clone();
                mutate(&mut bad.entries[victim]);
                let mut fresh = (case.make)();
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fresh.restore(&mut ctx, &bad)
                }));
                assert!(
                    matches!(got, Ok(Ok(())) | Ok(Err(EngineError::Config(_)))),
                    "{}: entry {victim} mutation {i} => {got:?}",
                    case.name
                );
            }
        }
    }
}
