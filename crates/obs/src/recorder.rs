//! Always-on flight recorder: fixed-capacity ring buffers of recent
//! per-round samples and spans, plus the online detector bank that watches
//! them (DESIGN.md §15).
//!
//! Unlike the full [`TraceCollector`](crate::TraceCollector) — which is
//! opt-in because exhaustive span capture forces a serial execution prefix
//! — the recorder runs on every engine, all the time. It only observes the
//! quiescent round boundary (already serial) and one synthetic round span,
//! so it neither perturbs the parallel schedule nor the simulated results;
//! its host cost shows as the benchmark's `obs.metrics.overhead_pct` layer.
//! Ring memory is pool-accounted: capacity is fixed up front and
//! [`FlightRecorder::accounted_bytes`] reports the bound, exported as the
//! `recorder.accounted_bytes` gauge.
//!
//! When a detector fires, [`FlightRecorder::freeze`] hands back the ring
//! contents around the firing round so the engine can assemble an
//! [`Incident`] capture window.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::{Arc, Mutex};

use crate::detect::{DetectorBank, Signal};
use crate::incident::Incident;
use crate::round::{RoundPoint, INCIDENT_ROUND_VIEW};
use crate::sync::lock;
use crate::trace::Span;

/// Round samples the ring retains.
pub const ROUND_CAPACITY: usize = 128;
/// Spans the ring retains.
pub const SPAN_CAPACITY: usize = 256;
/// Rounds of history frozen into each incident's capture window.
pub const CAPTURE_ROUNDS: usize = 8;

/// What the round ring keeps of a record: `round`, `epoch` and its
/// [`INCIDENT_ROUND_VIEW`] row — the fields an incident's `incident.round`
/// lines persist. The series-only fields of a [`RoundPoint`] are not ringed
/// (an incident reads its tier slice from the registry), so the recorder's
/// accounted bytes are what it holds.
type RoundEntry = (u64, u64, [f64; INCIDENT_ROUND_VIEW.len()]);

/// Accounted bytes of one ringed span: a [`Span`] whose `name` and `cat`
/// borrow, which is all the engine rings (its synthetic `round` span). The
/// word a `Cow` keeps for the capacity of an owned string is not counted,
/// so the exported bound does not depend on that representation.
const SPAN_ENTRY_BYTES: usize =
    size_of::<Span>() - 2 * (size_of::<Cow<'static, str>>() - size_of::<&'static str>());

/// Pushes onto a ring of at most `cap` entries: once full, the oldest entry
/// makes room, so a ring never holds more than the capacity the recorder
/// accounts for.
fn push_ring<T>(ring: &mut VecDeque<T>, cap: usize, v: T) {
    if ring.len() >= cap {
        ring.pop_front();
    }
    ring.push_back(v);
}

#[derive(Debug)]
struct RecorderInner {
    rounds: Mutex<VecDeque<RoundEntry>>,
    spans: Mutex<VecDeque<Span>>,
    bank: Mutex<DetectorBank>,
    incidents: Mutex<Vec<Incident>>,
    committed_epoch: Mutex<Option<u64>>,
}

/// The always-on flight recorder. Cloning shares the underlying rings
/// (like [`TraceCollector`](crate::TraceCollector)); `Default` is an
/// *active* recorder — there is no no-op variant, because its cost is one
/// ring push and one detector pass per round.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder with empty rings and a fresh detector bank.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                rounds: Mutex::new(VecDeque::new()),
                spans: Mutex::new(VecDeque::new()),
                bank: Mutex::new(DetectorBank::new()),
                incidents: Mutex::new(Vec::new()),
                committed_epoch: Mutex::new(None),
            }),
        }
    }

    /// Fixed bound on ring memory, in accounted bytes (capacity times entry
    /// size; exported as the `recorder.accounted_bytes` gauge).
    pub fn accounted_bytes(&self) -> u64 {
        (ROUND_CAPACITY * size_of::<RoundEntry>() + SPAN_CAPACITY * SPAN_ENTRY_BYTES) as u64
    }

    /// Records one span into the span ring (the engine pushes one
    /// synthetic `round` span per boundary; full traces, when enabled,
    /// supersede this for incident capture).
    pub fn record_span(&self, span: Span) {
        push_ring(&mut lock(&self.inner.spans), SPAN_CAPACITY, span);
    }

    /// Notes a committed checkpoint epoch; subsequent incidents carry it
    /// as their recovery-point annotation.
    pub fn note_commit(&self, epoch: u64) {
        *lock(&self.inner.committed_epoch) = Some(epoch);
    }

    /// The most recently committed checkpoint epoch, if any.
    pub fn committed_epoch(&self) -> Option<u64> {
        *lock(&self.inner.committed_epoch)
    }

    /// Feeds one round boundary to the ring and the detector bank,
    /// returning any signals that fired.
    pub fn on_round(&self, point: RoundPoint) -> Vec<Signal> {
        let fired = lock(&self.inner.bank).observe(&point);
        let row = point.row(&INCIDENT_ROUND_VIEW);
        let entry = (point.round, point.epoch, row);
        push_ring(&mut lock(&self.inner.rounds), ROUND_CAPACITY, entry);
        fired
    }

    /// Freezes the capture window: the last `capture_rounds` round samples
    /// and every ringed span from those rounds, oldest-first.
    pub fn freeze(&self) -> (Vec<RoundPoint>, Vec<Span>) {
        let mut window = self.rounds();
        let keep = CAPTURE_ROUNDS.min(window.len());
        window.drain(..window.len() - keep);
        let from_round = window.first().map_or(0, |p| p.round);
        let mut spans = Vec::new();
        for s in lock(&self.inner.spans).iter() {
            if s.round >= from_round {
                spans.push(s.clone());
            }
        }
        (window, spans)
    }

    /// Files a captured incident.
    pub fn push_incident(&self, incident: Incident) {
        lock(&self.inner.incidents).push(incident);
    }

    /// All incidents filed so far, in capture order.
    pub fn incidents(&self) -> Vec<Incident> {
        lock(&self.inner.incidents).clone()
    }

    /// Number of incidents filed so far.
    pub fn incident_count(&self) -> usize {
        lock(&self.inner.incidents).len()
    }

    /// Round samples currently in the ring, oldest-first; only the fields
    /// of the [`INCIDENT_ROUND_VIEW`] (and `round`, `epoch`) are set.
    pub fn rounds(&self) -> Vec<RoundPoint> {
        let mut out = Vec::new();
        for &(round, epoch, row) in lock(&self.inner.rounds).iter() {
            let mut cells = row.into_iter();
            let mut p = RoundPoint {
                round,
                epoch,
                ..RoundPoint::default()
            };
            p.fill(&INCIDENT_ROUND_VIEW, |_| cells.next());
            out.push(p);
        }
        out
    }

    /// Spans currently in the ring, oldest-first.
    pub fn spans(&self) -> Vec<Span> {
        Vec::from(lock(&self.inner.spans).clone())
    }

    /// Number of round samples currently held.
    pub fn len(&self) -> usize {
        lock(&self.inner.rounds).len()
    }

    /// True if no round has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets everything: rings, detector state, incidents, and the
    /// committed-epoch note. Called when a crashed attempt rewinds to a
    /// checkpoint so the retry re-records deterministically.
    pub fn clear(&self) {
        lock(&self.inner.rounds).clear();
        lock(&self.inner.spans).clear();
        lock(&self.inner.bank).reset();
        lock(&self.inner.incidents).clear();
        *lock(&self.inner.committed_epoch) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(round: u64) -> RoundPoint {
        RoundPoint {
            round,
            at_secs: round as f64,
            records: 100.0,
            ..RoundPoint::default()
        }
    }

    fn span(id: u64, round: u64) -> Span {
        Span {
            id,
            parent: None,
            name: "round".into(),
            cat: "round".into(),
            lane: 0,
            round,
            epoch: 0,
            start_ns: round * 1000,
            dur_ns: 100,
            records_in: 10,
            records_out: 1,
        }
    }

    #[test]
    fn recorder_caps_memory_and_rounds() {
        let rec = FlightRecorder::new();
        let pushed = (ROUND_CAPACITY + SPAN_CAPACITY) as u64;
        for r in 0..pushed {
            rec.on_round(point(r));
            rec.record_span(span(r, r));
        }
        assert_eq!(rec.len(), ROUND_CAPACITY);
        assert_eq!(
            rec.rounds().first().map(|p| p.round),
            Some(pushed - ROUND_CAPACITY as u64)
        );
        assert_eq!(rec.spans().len(), SPAN_CAPACITY);
        assert_eq!(
            rec.accounted_bytes(),
            (ROUND_CAPACITY * 16 * 8 + SPAN_CAPACITY * SPAN_ENTRY_BYTES) as u64
        );
        // The bound is a function of capacity only, not fill level.
        assert_eq!(
            FlightRecorder::new().accounted_bytes(),
            rec.accounted_bytes()
        );
    }

    #[test]
    fn freeze_windows_rounds_and_spans() {
        let rec = FlightRecorder::new();
        let last = 2 * CAPTURE_ROUNDS as u64;
        for r in 0..=last {
            rec.on_round(point(r));
            rec.record_span(span(r, r));
        }
        let (rounds, spans) = rec.freeze();
        let first = last + 1 - CAPTURE_ROUNDS as u64;
        assert_eq!(
            rounds.iter().map(|p| p.round).collect::<Vec<_>>(),
            (first..=last).collect::<Vec<_>>()
        );
        assert!(spans.iter().all(|s| s.round >= first));
        assert_eq!(spans.len(), CAPTURE_ROUNDS);
    }

    #[test]
    fn clones_share_state_and_clear_resets() {
        let rec = FlightRecorder::default();
        let other = rec.clone();
        other.on_round(point(0));
        other.note_commit(2);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.committed_epoch(), Some(2));
        rec.clear();
        assert!(other.is_empty());
        assert_eq!(other.committed_epoch(), None);
        assert_eq!(other.incident_count(), 0);
    }
}
