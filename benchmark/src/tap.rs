//! The benchmark's view of one engine run: a source wrapper and a hooks
//! wrapper that time the calls crossing the engine's public boundary, feed
//! the reference computation and check every emitted window.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use sbx_checkpoint::CheckpointCoordinator;
use sbx_engine::{
    benchmarks, CheckpointHooks, Engine, EngineError, PipelineSnapshot, RunReport, StreamData,
};
use sbx_ingress::Source;
use sbx_records::{EventTime, Schema};
use sbx_simmem::{AccessProfile, MemEnv};

use crate::spans::SpanLog;
use crate::workloads::{AnySource, Workload, BUNDLES_PER_WINDOW, BUNDLE_ROWS};

/// What one window's output must look like: its row count and an
/// order-independent checksum of its `(key, aggregate)` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowExpect {
    rows: u64,
    checksum: u64,
}

impl WindowExpect {
    fn add(&mut self, key: u64, agg: u64) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ agg).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
    }
}

/// The reference computation: per-window hash maps fed from the rows the
/// wrapped source actually produced, so a change to a generator cannot
/// desynchronise it from the engine's input.
struct Oracle {
    workload: &'static Workload,
    open: BTreeMap<u64, HashMap<u64, u64>>,
    /// Self-test: flip one row of the first window that is checked.
    corrupt: bool,
}

impl Oracle {
    fn tee(&mut self, rows: &[u64], ncols: usize) {
        for row in rows.chunks_exact(ncols) {
            if let Some((window, key, addend)) = self.workload.contribution(row) {
                let agg = self.open.entry(window).or_default().entry(key).or_insert(0);
                *agg = agg.wrapping_add(addend);
            }
        }
    }

    /// Closes `window`: its reference rows sorted by key, or `None` if the
    /// input held no record of it.
    fn take(&mut self, window: u64) -> Option<Vec<(u64, u64)>> {
        let mut rows: Vec<(u64, u64)> = self.open.remove(&window)?.into_iter().collect();
        rows.sort_unstable();
        if std::mem::take(&mut self.corrupt) {
            if let Some(first) = rows.first_mut() {
                first.1 ^= 1;
            }
        }
        Some(rows)
    }
}

fn expect_of(rows: impl IntoIterator<Item = (u64, u64)>) -> WindowExpect {
    let mut e = WindowExpect::default();
    for (key, agg) in rows {
        e.add(key, agg);
    }
    e
}

/// State shared by the source and hooks wrappers of a session.
struct Tap {
    rep: u32,
    last_fill_end: Instant,
    /// Close latency of every window emitted in the current rep, ms.
    close_ms: Vec<f64>,
    /// Last fill before a barrier → `on_checkpoint` entry, ms.
    align_ms: Vec<f64>,
    /// Duration of every `on_checkpoint` call, ms.
    commit_ms: Vec<f64>,
    oracle: Option<Oracle>,
    expect: BTreeMap<u64, WindowExpect>,
    seen: BTreeSet<u64>,
    failed: u64,
    rows_out: u64,
    /// The span log and the current rep's root span; spans are recorded
    /// only while `tracing` is on.
    spans: (SpanLog, usize),
    tracing: bool,
}

impl Tap {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.tracing {
            let (log, root) = &mut self.spans;
            log.push(name, start, end, Some(*root), self.rep);
        }
    }

    /// Checks one emitted window against the reference.
    fn check_output(&mut self, data: &StreamData) {
        let StreamData::Bundle(bundle) = data else {
            self.failed += 1; // every pipeline here emits record bundles
            return;
        };
        if bundle.is_empty() {
            return;
        }
        let window = bundle.row(0)[2] / benchmarks::WINDOW_TICKS;
        self.rows_out += bundle.rows() as u64;
        let ok = match &mut self.oracle {
            // Verify rep: exact row-by-row comparison; the reference rows
            // become the expectation the timed reps are held to.
            Some(oracle) => match oracle.take(window) {
                Some(want) => {
                    self.expect.insert(window, expect_of(want.iter().copied()));
                    want.len() == bundle.rows()
                        && want.iter().zip(bundle.iter()).all(|(&(k, a), row)| {
                            row[0] == k
                                && row[1] == a
                                && row[2] / benchmarks::WINDOW_TICKS == window
                        })
                }
                None => false,
            },
            None => {
                let mut got = WindowExpect::default();
                for row in bundle.iter() {
                    got.add(row[0], row[1]);
                }
                self.expect.get(&window) == Some(&got)
            }
        };
        // A window emitted twice is wrong even if both copies are right.
        if !(self.seen.insert(window) && ok) {
            self.failed += 1;
        }
    }
}

struct TimedSource {
    inner: AnySource,
    tap: Rc<RefCell<Tap>>,
}

impl Source for TimedSource {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.fill(rows, out);
        let end = Instant::now();
        let mut tap = self.tap.borrow_mut();
        tap.last_fill_end = end;
        tap.span("ingress.gen", start, end);
        if let Some(oracle) = &mut tap.oracle {
            oracle.tee(&out[before..], self.inner.schema().ncols());
        }
    }

    fn low_watermark(&self) -> EventTime {
        self.inner.low_watermark()
    }
}

struct TimedHooks {
    tap: Rc<RefCell<Tap>>,
    coordinator: Option<CheckpointCoordinator>,
}

impl CheckpointHooks for TimedHooks {
    fn on_checkpoint(
        &mut self,
        env: &MemEnv,
        snap: PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError> {
        let start = Instant::now();
        let result = match &mut self.coordinator {
            Some(c) => c.on_checkpoint(env, snap),
            None => Ok(AccessProfile::new()),
        };
        let end = Instant::now();
        let mut tap = self.tap.borrow_mut();
        let aligned = (start - tap.last_fill_end).as_secs_f64() * 1e3;
        tap.align_ms.push(aligned);
        tap.commit_ms.push((end - start).as_secs_f64() * 1e3);
        tap.span("checkpoint.commit", start, end);
        result
    }

    fn on_output(&mut self, data: &StreamData) {
        let start = Instant::now();
        if let Some(c) = &mut self.coordinator {
            c.on_output(data);
        }
        let mut tap = self.tap.borrow_mut();
        if !data.is_empty() {
            let waited = (start - tap.last_fill_end).as_secs_f64() * 1e3;
            tap.close_ms.push(waited);
        }
        tap.check_output(data);
        tap.span("sink.emit", start, Instant::now());
    }
}

/// What one engine rep produced, as far as the metrics need it.
#[derive(Debug)]
pub struct Rep {
    /// Wall time of `Engine::run_with_hooks`, seconds.
    pub wall_s: f64,
    /// The engine's report, or its error.
    pub report: Result<RunReport, EngineError>,
    /// Windows this rep should have emitted.
    pub attempted: u64,
    /// Windows that were wrong, missing, duplicated — or all of them when
    /// the run failed or its counters disagree with the input.
    pub failed: u64,
    /// Close latencies, ms.
    pub close_ms: Vec<f64>,
    /// Barrier alignment waits, ms.
    pub align_ms: Vec<f64>,
    /// `on_checkpoint` durations, ms.
    pub commit_ms: Vec<f64>,
    /// HBM → DRAM spills the environment counted.
    pub spills: u64,
    /// The coordinator the rep committed into (checkpointed workload).
    pub coordinator: Option<CheckpointCoordinator>,
}

/// All reps of one workload on one seed. Every rep starts a fresh source,
/// engine, pipeline and coordinator, so every rep sees the same records.
pub struct Session {
    workload: &'static Workload,
    seed: u64,
    corrupt_oracle: bool,
    tap: Rc<RefCell<Tap>>,
    reps: u32,
}

impl Session {
    /// A session for `workload` on `seed`. `corrupt_oracle` is the
    /// self-test: the reference is made wrong in one row.
    pub fn new(workload: &'static Workload, seed: u64, corrupt_oracle: bool) -> Self {
        let tap = Tap {
            rep: 0,
            last_fill_end: Instant::now(),
            close_ms: Vec::new(),
            align_ms: Vec::new(),
            commit_ms: Vec::new(),
            oracle: None,
            expect: BTreeMap::new(),
            seen: BTreeSet::new(),
            failed: 0,
            rows_out: 0,
            spans: (SpanLog::new(), 0),
            tracing: false,
        };
        Session {
            workload,
            seed,
            corrupt_oracle,
            tap: Rc::new(RefCell::new(tap)),
            reps: 0,
        }
    }

    /// One rep with the reference computed alongside and every emitted row
    /// compared exactly; its per-window results become the expectation of
    /// the reps that follow. Doubles as warm-up.
    pub fn verify_rep(&mut self) -> Rep {
        {
            let mut tap = self.tap.borrow_mut();
            tap.expect.clear();
            tap.oracle = Some(Oracle {
                workload: self.workload,
                open: BTreeMap::new(),
                corrupt: self.corrupt_oracle,
            });
        }
        let mut rep = self.timed_rep();
        let mut tap = self.tap.borrow_mut();
        let oracle = tap.oracle.take().expect("set above");
        // Windows the input held but the engine never emitted.
        for (window, groups) in oracle.open {
            tap.expect.insert(window, expect_of(groups));
            rep.failed += 1;
        }
        rep.failed = rep.failed.min(rep.attempted);
        rep
    }

    /// One rep checked against the expectation of the last verify rep.
    pub fn timed_rep(&mut self) -> Rep {
        let w = self.workload;
        let attempted = (w.rep_bundles / BUNDLES_PER_WINDOW) as u64;
        let cfg = w.run_config();
        let mut hooks = TimedHooks {
            tap: Rc::clone(&self.tap),
            coordinator: w
                .checkpointed()
                .then(|| CheckpointCoordinator::new().with_metrics(&cfg.obs.metrics)),
        };
        let source = TimedSource {
            inner: w.source(self.seed),
            tap: Rc::clone(&self.tap),
        };
        let engine = Engine::new(cfg);
        let env = engine.env().clone();
        let pipeline = w.pipeline();

        let start = Instant::now();
        {
            let mut tap = self.tap.borrow_mut();
            tap.rep = self.reps;
            tap.last_fill_end = start;
            tap.seen.clear();
            tap.failed = 0;
            tap.rows_out = 0;
            if tap.tracing {
                tap.spans.1 = tap.spans.0.open("engine.run", start, self.reps);
            }
        }
        let report = engine.run_with_hooks(
            source,
            pipeline,
            w.rep_bundles,
            w.barrier_interval(),
            &mut hooks,
        );
        let end = Instant::now();
        self.reps += 1;

        let mut tap = self.tap.borrow_mut();
        if tap.tracing {
            let (log, root) = &mut tap.spans;
            log.close(*root, end);
        }
        let verifying = tap.oracle.is_some();
        // Expected windows that never came out (in a verify rep the
        // caller counts them from what is left in the oracle).
        let missing = if verifying {
            0
        } else {
            tap.expect.keys().filter(|w| !tap.seen.contains(w)).count() as u64
        };
        let mut failed = tap.failed + missing;

        if let Some(c) = &mut hooks.coordinator {
            // Exactly-once: what the coordinator committed over the run is
            // each window's rows once, no more and no less.
            c.commit_pending();
            let mut committed: BTreeMap<u64, WindowExpect> = BTreeMap::new();
            for row in c.committed() {
                committed
                    .entry(row[2] / benchmarks::WINDOW_TICKS)
                    .or_default()
                    .add(row[0], row[1]);
            }
            let expect = &tap.expect;
            let wrong = committed
                .iter()
                .filter(|(w, got)| expect.get(w) != Some(got))
                .count()
                + expect.keys().filter(|w| !committed.contains_key(w)).count();
            failed = failed.max(wrong as u64);
        }

        let counters_ok = report.as_ref().is_ok_and(|r| {
            r.records_in == (w.rep_bundles * BUNDLE_ROWS) as u64
                && r.bundles_in == w.rep_bundles as u64
                && r.windows_closed == attempted
                && r.output_records == tap.rows_out
                && r.output_records == tap.expect.values().map(|e| e.rows).sum::<u64>()
        });
        if !counters_ok {
            failed = attempted;
        }

        Rep {
            wall_s: (end - start).as_secs_f64(),
            report,
            attempted,
            failed: failed.min(attempted),
            close_ms: std::mem::take(&mut tap.close_ms),
            align_ms: std::mem::take(&mut tap.align_ms),
            commit_ms: std::mem::take(&mut tap.commit_ms),
            spills: env.spill_count(),
            coordinator: hooks.coordinator.take(),
        }
    }

    /// Whether the reps that follow record a span around every call into
    /// a layer (off at first).
    pub fn set_tracing(&mut self, on: bool) {
        self.tap.borrow_mut().tracing = on;
    }

    /// Hands the recorded spans to `f`.
    pub fn with_spans<R>(&self, f: impl FnOnce(&SpanLog) -> R) -> R {
        f(&self.tap.borrow().spans.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_records::RecordBundle;
    use sbx_simmem::MachineConfig;

    const TICKS: u64 = benchmarks::WINDOW_TICKS;

    fn kv_workload() -> &'static Workload {
        Workload::by_name("sum_highcard_sort").expect("listed")
    }

    fn tap(oracle: Option<Oracle>) -> Tap {
        Tap {
            rep: 0,
            last_fill_end: Instant::now(),
            close_ms: Vec::new(),
            align_ms: Vec::new(),
            commit_ms: Vec::new(),
            oracle,
            expect: BTreeMap::new(),
            seen: BTreeSet::new(),
            failed: 0,
            rows_out: 0,
            spans: (SpanLog::new(), 0),
            tracing: false,
        }
    }

    fn oracle(corrupt: bool) -> Oracle {
        let mut o = Oracle {
            workload: kv_workload(),
            open: BTreeMap::new(),
            corrupt,
        };
        // (key, value, ts): window 0 holds keys 5 and 9, window 1 key 5.
        let rows = [
            9,
            1,
            10,
            5,
            2,
            20,
            9,
            3,
            30,
            5,
            u64::MAX,
            TICKS + 1,
            5,
            3,
            TICKS + 2,
        ];
        o.tee(&rows, 3);
        o
    }

    fn output(rows: &[u64]) -> StreamData {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
        StreamData::Bundle(RecordBundle::from_rows(&env, Schema::kvt(), rows).expect("tiny bundle"))
    }

    #[test]
    fn oracle_sums_per_window_and_key_with_wrapping() {
        let mut o = oracle(false);
        assert_eq!(o.take(0), Some(vec![(5, 2), (9, 4)]));
        assert_eq!(o.take(1), Some(vec![(5, 2)]), "u64::MAX + 3 wraps to 2");
        assert_eq!(o.take(1), None, "a window closes once");
    }

    #[test]
    fn ysb_rows_count_views_per_campaign() {
        let ysb = Workload::by_name("ysb").expect("listed");
        // user, page, ad, ad_type, event_type, event_time, ip
        assert_eq!(
            ysb.contribution(&[1, 2, 4321, 1, 0, TICKS * 3 + 7, 9]),
            Some((3, 321, 1))
        );
        assert_eq!(
            ysb.contribution(&[1, 2, 4321, 2, 0, 7, 9]),
            None,
            "filtered ad type"
        );
    }

    #[test]
    fn verify_rep_compares_rows_exactly_and_sets_the_expectation() {
        let mut t = tap(Some(oracle(false)));
        t.check_output(&output(&[5, 2, 0, 9, 4, 0]));
        assert_eq!((t.failed, t.rows_out), (0, 2));
        // Window 1 with a wrong aggregate.
        t.check_output(&output(&[5, 3, TICKS]));
        assert_eq!(t.failed, 1);
        // Window 0 again: a duplicate, and the oracle has nothing left for it.
        t.check_output(&output(&[5, 2, 0, 9, 4, 0]));
        assert_eq!(t.failed, 2);
        // A window the input never held.
        t.check_output(&output(&[1, 1, 7 * TICKS]));
        assert_eq!(t.failed, 3);
        assert_eq!(
            t.expect.len(),
            2,
            "the expectation comes from the reference, not the output"
        );
        assert_eq!(t.expect[&1], expect_of([(5, 2)]));
    }

    #[test]
    fn timed_rep_checks_checksums_against_the_expectation() {
        let mut t = tap(None);
        t.expect.insert(0, expect_of([(5, 2), (9, 4)]));
        t.check_output(&output(&[9, 4, 0, 5, 2, 0]));
        assert_eq!(t.failed, 0, "row order does not matter to the checksum");
        t.seen.clear();
        t.check_output(&output(&[5, 2, 0, 9, 5, 0]));
        assert_eq!(t.failed, 1, "one flipped bit is seen");
        t.seen.clear();
        t.check_output(&output(&[5, 2, 0]));
        assert_eq!(t.failed, 2, "a missing row is seen");
        t.check_output(&output(&[]));
        assert_eq!(t.failed, 2, "an empty bundle is no window");
    }

    #[test]
    fn corrupted_oracle_fails_a_correct_output() {
        let mut t = tap(Some(oracle(true)));
        t.check_output(&output(&[5, 2, 0, 9, 4, 0]));
        assert_eq!(t.failed, 1);
        t.check_output(&output(&[5, 2, TICKS]));
        assert_eq!(t.failed, 1, "only one row of one window is flipped");
    }
}
