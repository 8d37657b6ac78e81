//! The one window lifecycle and the one window-state store behind every
//! windowed operator of Table 1 (paper Fig. 4): primitives run on each
//! arriving KPA, the result is saved as window state, a watermark closes
//! every window it has elapsed.
//!
//! [`Windowed`] owns what the operators share — the late-data guard, the
//! map of open windows, the close sweep, the barrier arm, snapshot and
//! restore — and asks a [`WindowLogic`] for the two things Table 1 says an
//! operator *is*: what it does with an arriving KPA and what it does at
//! close. [`WindowState`] is the per-window store those primitives work on;
//! its [`WindowStore`] impl is where it becomes snapshot rows and comes back.

use std::collections::BTreeMap;

use sbx_kpa::Kpa;
use sbx_records::{Watermark, WindowId, WindowSpec};

use crate::checkpoint::{check_window_id, OpState, StateEntry};
use crate::operator::single;
use crate::{EngineError, EngineMode, ImpactTag, Message, OpCtx, Operator, StreamData};

/// Late-data guard: once a watermark has closed a window, records for it
/// are *late* (the source broke its watermark promise, or an upstream
/// reordered across watermarks). Late data is dropped and counted —
/// re-opening closed state would emit the same window twice.
#[derive(Debug, Default)]
pub(crate) struct LateGuard {
    horizon: Option<Watermark>,
    dropped: u64,
}

impl LateGuard {
    /// Records a watermark: windows ending at or before it are closed.
    pub(crate) fn observe(&mut self, wm: Watermark) {
        if self.horizon.is_none_or(|h| wm > h) {
            self.horizon = Some(wm);
        }
    }

    /// Whether window `w` is already closed; counts `records` as dropped
    /// when it is.
    pub(crate) fn is_late(&mut self, spec: &WindowSpec, w: WindowId, records: usize) -> bool {
        let late = self.horizon.is_some_and(|h| h.closes(spec.end(w)));
        if late {
            self.dropped += records as u64;
        }
        late
    }
}

/// Splits a `u128` accumulator into `(hi, lo)` words for a snapshot row.
fn split_u128(v: u128) -> (u64, u64) {
    ((v >> 64) as u64, v as u64)
}

/// Rejoins a `u128` split by [`split_u128`].
fn join_u128(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// A running `(sum, count)` whose mean a window needs at close.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunningAvg {
    sum: u128,
    count: u64,
}

impl RunningAvg {
    /// Folds in one value.
    pub(crate) fn push(&mut self, v: u64) {
        self.sum += v as u128;
        self.count += 1;
    }

    /// The mean, rounded down; 0 before any value.
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }
}

/// One joined pair waiting for its window to close:
/// `(key, left value, right value, window start)`.
pub(crate) type PendingRow = [u64; 4];

/// Snapshot port of a window's pending rows (ports 0 and 1 are its sides).
const PORT_PENDING: u8 = 2;
/// Snapshot port of a window's running average, one `[sum_hi, sum_lo,
/// count]` row.
const PORT_AVG: u8 = 3;

/// One open window's state: what the primitives run on arrival leave
/// behind for the primitives run at close.
#[derive(Debug, Default)]
pub struct WindowState {
    /// KPAs saved per input side (port 0, port 1), in arrival order.
    pub(crate) sides: [Vec<Kpa>; 2],
    /// Running average over whatever the operator folds in.
    pub(crate) avg: RunningAvg,
    /// Output rows already computed, emitted when the window closes.
    pub(crate) pending: Vec<PendingRow>,
}

/// How an operator's open windows become an [`OpState`] and come back.
/// `L` is the operator's logic, for stores whose snapshot includes
/// operator-level state.
pub(crate) trait WindowStore<L>: Default + Send {
    /// Appends every window of `windows` to `st`.
    fn save_all(
        logic: &L,
        ctx: &mut OpCtx<'_>,
        windows: &BTreeMap<WindowId, Self>,
        st: &mut OpState,
    ) -> Result<(), EngineError>;

    /// Rebuilds `windows` (empty: the operator is fresh) from `st`.
    fn load_all(
        logic: &mut L,
        ctx: &mut OpCtx<'_>,
        st: &OpState,
        windows: &mut BTreeMap<WindowId, Self>,
    ) -> Result<(), EngineError>;
}

impl<L> WindowStore<L> for WindowState {
    /// Per window: its running average as one entry (which also records
    /// that the window is open, whatever else it holds), one materialized
    /// entry per saved KPA on its side's port, and the pending rows.
    fn save_all(
        _logic: &L,
        ctx: &mut OpCtx<'_>,
        windows: &BTreeMap<WindowId, Self>,
        st: &mut OpState,
    ) -> Result<(), EngineError> {
        for (w, state) in windows {
            let (hi, lo) = split_u128(state.avg.sum);
            let avg = [hi, lo, state.avg.count].to_vec();
            st.entries
                .push(StateEntry::from_rows(w.0, PORT_AVG, 3, 2, avg));
            for (side, kpas) in state.sides.iter().enumerate() {
                for kpa in kpas {
                    st.entries
                        .push(StateEntry::from_kpa(ctx, w.0, side as u8, kpa)?);
                }
            }
            if !state.pending.is_empty() {
                let rows = state.pending.as_flattened().to_vec();
                st.entries
                    .push(StateEntry::from_rows(w.0, PORT_PENDING, 4, 3, rows));
            }
        }
        Ok(())
    }

    fn load_all(
        _logic: &mut L,
        ctx: &mut OpCtx<'_>,
        st: &OpState,
        windows: &mut BTreeMap<WindowId, Self>,
    ) -> Result<(), EngineError> {
        for e in &st.entries {
            let state = windows.entry(WindowId(e.window)).or_default();
            match e.port {
                PORT_AVG => {
                    for &[hi, lo, count] in e.rows.as_chunks().0 {
                        let avg = &mut state.avg;
                        avg.sum = avg.sum.wrapping_add(join_u128(hi, lo));
                        avg.count = avg.count.wrapping_add(count);
                    }
                }
                PORT_PENDING => state.pending.extend_from_slice(e.rows.as_chunks().0),
                side => state.sides[(side as usize).min(1)].push(e.to_kpa(ctx, false)?),
            }
        }
        Ok(())
    }
}

/// What Table 1 says a windowed operator is: the primitives it runs on an
/// arriving KPA and the primitives it runs when a window closes.
pub(crate) trait WindowLogic: Send + Sized {
    /// Per-window state ([`WindowState`] unless the operator brings its
    /// own store).
    type State: WindowStore<Self>;

    /// Operator name for diagnostics.
    fn name(&self) -> &'static str;

    /// See [`Operator::name_in`].
    fn name_in(&self, mode: EngineMode) -> &'static str {
        let _ = mode;
        self.name()
    }

    /// See [`Operator::keyed`].
    fn keyed(&self) -> bool {
        true
    }

    /// Runs the arrival primitives on `kpa`, which came in on `port` for
    /// the window starting at `start`, leaving their result in `state`.
    fn arrive(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &mut Self::State,
        port: u8,
        start: u64,
        kpa: Kpa,
    ) -> Result<(), EngineError>;

    /// Runs the close primitives on the elapsed window starting at
    /// `start`, appending its output to `out`.
    fn close(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: Self::State,
        start: u64,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError>;

    /// Handles data that went through no windowing operator. Windowed
    /// operators consume windowed KPAs; the default refuses anything else.
    fn unwindowed(
        &mut self,
        ctx: &mut OpCtx<'_>,
        spec: &WindowSpec,
        windows: &mut BTreeMap<WindowId, Self::State>,
        data: StreamData,
    ) -> Result<(), EngineError> {
        let _ = (ctx, spec, windows);
        Err(EngineError::Config(format!(
            "{} requires windowed KPAs, got {} unwindowed records",
            self.name(),
            data.len()
        )))
    }

    /// Runs on a watermark before the elapsed windows close, for an
    /// operator whose map entries are not the windows it emits (pane
    /// combining): whatever it leaves keyed below the watermark is closed
    /// like any other window.
    fn on_watermark(
        &mut self,
        ctx: &mut OpCtx<'_>,
        spec: &WindowSpec,
        windows: &mut BTreeMap<WindowId, Self::State>,
        wm: Watermark,
        out: &mut Vec<Message>,
    ) -> Result<(), EngineError> {
        let _ = (ctx, spec, windows, wm, out);
        Ok(())
    }
}

/// A windowed operator — what [`KeyedAggregate`](super::KeyedAggregate),
/// [`AvgAll`](super::AvgAll), [`Cogroup`](super::Cogroup),
/// [`TemporalJoin`](super::TemporalJoin),
/// [`WindowedFilter`](super::WindowedFilter) and
/// [`PowerGrid`](super::PowerGrid) are aliases of: the shared lifecycle
/// around an operator's logic `L` and its per-window state `S` (always
/// `L::State`; a parameter of its own so the crate-private logic trait stays
/// out of this public type's bounds). Build one through an alias's `new`.
pub struct Windowed<L, S> {
    pub(super) logic: L,
    spec: WindowSpec,
    windows: BTreeMap<WindowId, S>,
    late: LateGuard,
}

impl<L, S> Windowed<L, S> {
    /// A fresh operator running `logic` over `spec` windows.
    pub(crate) fn over(spec: WindowSpec, logic: L) -> Self {
        Windowed {
            logic,
            spec,
            windows: BTreeMap::new(),
            late: LateGuard::default(),
        }
    }

    /// Number of windows currently buffered.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Records dropped because their window had already been closed by a
    /// watermark.
    pub fn late_records(&self) -> u64 {
        self.late.dropped
    }
}

impl<L: WindowLogic<State = S>, S> std::fmt::Debug for Windowed<L, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(self.logic.name())
            .field("spec", &self.spec)
            .field("open_windows", &self.windows.len())
            .field("late_records", &self.late.dropped)
            .finish()
    }
}

impl<L: WindowLogic<State = S>, S: WindowStore<L>> Operator for Windowed<L, S> {
    fn name(&self) -> &'static str {
        self.logic.name()
    }

    fn name_in(&self, mode: EngineMode) -> &'static str {
        self.logic.name_in(mode)
    }

    fn keyed(&self) -> bool {
        self.logic.keyed()
    }

    fn on_message(
        &mut self,
        ctx: &mut OpCtx<'_>,
        msg: Message,
    ) -> Result<Vec<Message>, EngineError> {
        let Windowed {
            logic,
            spec,
            windows,
            late,
        } = self;
        match msg {
            Message::Data {
                port,
                data: StreamData::Windowed(w, kpa),
            } => {
                if !late.is_late(spec, w, kpa.len()) {
                    let state = windows.entry(w).or_default();
                    logic.arrive(ctx, state, port, spec.start(w).raw(), kpa)?;
                }
                Ok(Vec::new())
            }
            Message::Data { data, .. } => {
                logic.unwindowed(ctx, spec, windows, data)?;
                Ok(Vec::new())
            }
            Message::Watermark(wm) => {
                late.observe(wm);
                let mut out = Vec::new();
                logic.on_watermark(ctx, spec, windows, wm, &mut out)?;
                // Ascending: the first open window is the next to elapse.
                while let Some(first) = windows.first_entry() {
                    if !wm.closes(spec.end(*first.key())) {
                        break;
                    }
                    let (w, state) = first.remove_entry();
                    ctx.tag = ImpactTag::Urgent;
                    logic.close(ctx, state, spec.start(w).raw(), &mut out)?;
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
            horizon: self.late.horizon.map(|h| h.time().raw()),
            ..OpState::default()
        };
        S::save_all(&self.logic, ctx, &self.windows, &mut st)?;
        Ok(st)
    }

    fn restore(&mut self, ctx: &mut OpCtx<'_>, state: &OpState) -> Result<(), EngineError> {
        if let Some(raw) = state.horizon {
            self.late.observe(Watermark::from(raw));
        }
        S::load_all(&mut self.logic, ctx, state, &mut self.windows)?;
        let newest = self.windows.last_key_value().map_or(0, |(w, _)| w.0);
        check_window_id(&self.spec, newest)
    }
}

#[cfg(test)]
mod late_tests {
    use super::*;

    #[test]
    fn late_guard_tracks_horizon_and_counts() {
        let spec = WindowSpec::fixed(10);
        let mut g = LateGuard::default();
        // No watermark yet: nothing is late.
        assert!(!g.is_late(&spec, WindowId(0), 5));
        g.observe(Watermark::from(20)); // closes windows 0 and 1
        assert!(g.is_late(&spec, WindowId(0), 3));
        assert!(g.is_late(&spec, WindowId(1), 2));
        assert!(!g.is_late(&spec, WindowId(2), 4));
        assert_eq!(g.dropped, 5);
        // Watermarks never regress.
        g.observe(Watermark::from(5));
        assert!(!g.is_late(&spec, WindowId(2), 1));
    }

    #[test]
    fn u128_split_round_trips() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let (hi, lo) = split_u128(v);
        assert_eq!(join_u128(hi, lo), v);
    }
}
