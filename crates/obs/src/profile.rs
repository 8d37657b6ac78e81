//! Critical-path analysis over the exported span DAG (DESIGN.md §10).
//!
//! The engine records one [`Span`](crate::Span) per operator invocation;
//! availability edges are exact in simulated time (a child's `start_ns` is
//! its parent's `start_ns + dur_ns`), so the longest chain through the DAG
//! is the run's simulated critical path. This module finds that chain for
//! the whole run and per watermark round, and attributes *critical* time
//! (spent on the chain) versus *slack* (operator work off the chain) per
//! operator — and, given the run's metrics dump, per KPA primitive
//! (extract/sort/merge/materialize), by splitting each operator's critical
//! time proportionally to its `op.NN.Name.*_bytes` counters.
//!
//! Everything here is a pure function of the exported artifacts, so the
//! rendered report is byte-identical across same-seed runs.

// sbx-lint: out-of-scope(raw-alloc, profile aggregation at export time)
use std::collections::BTreeMap;

use crate::json::{self, Line};
use crate::metrics::MetricsDump;
use crate::trace::Span;

/// Reads a JSONL export made of `"type":"span"` lines, handing each line
/// and its span to `make`, in file order.
pub(crate) fn parse_span_lines<T>(
    text: &str,
    make: impl Fn(&Line, Span) -> T,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for line in json::lines(text) {
        let line = line?;
        if line.kind() != "span" {
            return Err(line.err(format_args!("not a span line ({:?})", line.kind())));
        }
        out.push(make(&line, Span::from_line(&line)));
    }
    Ok(out)
}

/// Parses a span JSONL export (the `TraceCollector::export_jsonl` format)
/// back into owned records, in file order.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_spans_jsonl(text: &str) -> Result<Vec<Span>, String> {
    parse_span_lines(text, |_, span| span)
}

/// One step of the critical chain, root first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Span id of the invocation.
    pub id: u64,
    /// Operator name.
    pub name: String,
    /// Operator index in the pipeline.
    pub lane: u64,
    /// Watermark round.
    pub round: u64,
    /// Simulated start, nanoseconds.
    pub start_ns: u64,
    /// Simulated duration, nanoseconds.
    pub dur_ns: u64,
}

/// Critical-versus-slack attribution for one operator (keyed by lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorAttribution {
    /// Operator index in the pipeline.
    pub lane: u64,
    /// Operator name.
    pub name: String,
    /// Nanoseconds of this operator's work on the critical chain.
    pub critical_ns: u64,
    /// Nanoseconds of this operator's work across all invocations.
    pub total_ns: u64,
    /// Invocations on the critical chain.
    pub critical_invocations: u64,
    /// Total invocations.
    pub invocations: u64,
}

impl OperatorAttribution {
    /// Operator time off the critical chain (parallelizable slack).
    pub fn slack_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.critical_ns)
    }
}

/// The longest chain within one watermark round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPath {
    /// Round index (0-based).
    pub round: u64,
    /// Total simulated nanoseconds on the round's longest chain.
    pub critical_ns: u64,
    /// Steps on that chain.
    pub steps: u64,
    /// Simulated end of the chain, nanoseconds.
    pub end_ns: u64,
}

/// Per-primitive split of the critical time (see
/// [`CriticalPath::attribute_primitives`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveAttribution {
    /// Primitive label (`extract`, `sort`, `merge`, `materialize`) or
    /// `engine` for time not covered by primitive byte counters.
    pub label: String,
    /// Critical nanoseconds attributed to this primitive.
    pub critical_ns: u64,
    /// KPA bytes the primitive moved on critical-path operators.
    pub bytes: u64,
}

/// Labels of the KPA primitive byte counters (`op.NN.Name.<label>_bytes`),
/// mirroring `sbx_kpa::PrimGroup` without depending on it. Two-way merge
/// and sorted-merge join both account under `merge`.
pub const PRIMITIVE_LABELS: [&str; 4] = ["extract", "sort", "merge", "materialize"];

/// Result of a critical-path analysis over one run's span DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total simulated nanoseconds on the whole-run critical chain.
    pub critical_ns: u64,
    /// Simulated end of the run's last span, nanoseconds.
    pub makespan_ns: u64,
    /// Total simulated nanoseconds across all spans (the serial work).
    pub total_work_ns: u64,
    /// The whole-run critical chain, root first.
    pub steps: Vec<PathStep>,
    /// Per-operator attribution, descending by critical time (ties by
    /// lane), covering every operator that recorded a span.
    pub per_operator: Vec<OperatorAttribution>,
    /// Longest chain per watermark round, ascending by round.
    pub per_round: Vec<RoundPath>,
}

/// Indexes spans by id; the first span of an id wins.
pub(crate) fn index_by_id<'a, T: AsRef<Span>>(
    spans: impl Iterator<Item = &'a T>,
) -> BTreeMap<u64, &'a T> {
    let mut by_id = BTreeMap::new();
    for s in spans {
        by_id.entry(s.as_ref().id).or_insert(s);
    }
    by_id
}

/// The longest chain ending among `spans`: starts at the span with the
/// latest end time (ties broken toward the smallest id), follows parent
/// links through `by_id` to a root, and returns the chain root first.
pub(crate) fn longest_chain<'a, T: AsRef<Span>>(
    by_id: &BTreeMap<u64, &'a T>,
    spans: impl Iterator<Item = &'a T>,
) -> Vec<&'a T> {
    let mut tip: Option<&T> = None;
    for s in spans {
        let (new, old) = (s.as_ref(), tip.map(AsRef::as_ref));
        let better = old.is_none_or(|t| {
            new.end_ns() > t.end_ns() || (new.end_ns() == t.end_ns() && new.id < t.id)
        });
        if better {
            tip = Some(s);
        }
    }
    let mut chain = Vec::new();
    let mut cur = tip;
    while let Some(s) = cur {
        chain.push(s);
        // Ids are allocated in dependency order (parent id < child id), so
        // the walk terminates even on corrupted inputs.
        let span = s.as_ref();
        cur = span
            .parent
            .and_then(|p| by_id.get(&p).copied())
            .filter(|p| p.as_ref().id < span.id);
    }
    chain.reverse();
    chain
}

impl CriticalPath {
    /// Runs the analysis over `spans` (any order; typically a parsed span
    /// JSONL export). Empty input yields an all-zero result.
    pub fn compute(spans: &[Span]) -> CriticalPath {
        let by_id = index_by_id(spans.iter());
        let chain = longest_chain(&by_id, spans.iter());
        let critical_ns = chain.iter().map(|s| s.dur_ns).sum();
        let makespan_ns = spans.iter().map(Span::end_ns).max().unwrap_or(0);
        let total_work_ns = spans.iter().map(|s| s.dur_ns).sum();

        // Per-operator totals keyed by lane; the chain marks critical time.
        let mut ops: BTreeMap<u64, OperatorAttribution> = BTreeMap::new();
        for s in spans {
            let e = ops.entry(s.lane).or_insert_with(|| OperatorAttribution {
                lane: s.lane,
                name: s.name.to_string(),
                critical_ns: 0,
                total_ns: 0,
                critical_invocations: 0,
                invocations: 0,
            });
            e.total_ns += s.dur_ns;
            e.invocations += 1;
        }
        for s in &chain {
            if let Some(e) = ops.get_mut(&s.lane) {
                e.critical_ns += s.dur_ns;
                e.critical_invocations += 1;
            }
        }
        let mut per_operator: Vec<OperatorAttribution> = ops.into_values().collect();
        per_operator.sort_by(|a, b| b.critical_ns.cmp(&a.critical_ns).then(a.lane.cmp(&b.lane)));

        // Longest chain per round: availability edges never cross rounds
        // (chains are per driven message), so a per-round restriction of
        // the same walk is exact.
        let mut rounds: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans {
            rounds.entry(s.round).or_default().push(s);
        }
        let per_round = rounds
            .iter()
            .map(|(&round, members)| {
                let chain = longest_chain(&by_id, members.iter().copied());
                RoundPath {
                    round,
                    critical_ns: chain.iter().map(|s| s.dur_ns).sum(),
                    steps: chain.len() as u64,
                    end_ns: chain.last().map_or(0, |s| s.end_ns()),
                }
            })
            .collect();

        CriticalPath {
            critical_ns,
            makespan_ns,
            total_work_ns,
            steps: chain
                .iter()
                .map(|s| PathStep {
                    id: s.id,
                    name: s.name.to_string(),
                    lane: s.lane,
                    round: s.round,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect(),
            per_operator,
            per_round,
        }
    }

    /// Splits the critical time of each critical-path operator across KPA
    /// primitives, proportionally to the operator's
    /// `op.<lane:02>.<name>.<primitive>_bytes` counters in `dump`. Time in
    /// operators with no primitive bytes (or the unsplit remainder of a
    /// rounding step) is attributed to `engine`.
    pub fn attribute_primitives(&self, dump: &MetricsDump) -> Vec<PrimitiveAttribution> {
        let mut split: Vec<PrimitiveAttribution> = PRIMITIVE_LABELS
            .iter()
            .map(|&label| PrimitiveAttribution {
                label: label.to_owned(),
                critical_ns: 0,
                bytes: 0,
            })
            .collect();
        let mut engine_ns = 0u64;
        for op in &self.per_operator {
            if op.critical_ns == 0 {
                continue;
            }
            let prefix = format!("op.{:02}.{}", op.lane, op.name);
            let bytes: Vec<u64> = PRIMITIVE_LABELS
                .iter()
                .map(|l| dump.counter(&format!("{prefix}.{l}_bytes")).unwrap_or(0))
                .collect();
            let total_bytes: u64 = bytes.iter().sum();
            if total_bytes == 0 {
                engine_ns += op.critical_ns;
                continue;
            }
            let mut assigned = 0u64;
            for (slot, &b) in split.iter_mut().zip(bytes.iter()) {
                // Integer proportional split; the truncation remainder is
                // engine time, keeping the totals exact.
                let ns = ((op.critical_ns as u128 * b as u128) / total_bytes as u128) as u64;
                slot.critical_ns += ns;
                slot.bytes += b;
                assigned += ns;
            }
            engine_ns += op.critical_ns.saturating_sub(assigned);
        }
        split.push(PrimitiveAttribution {
            label: "engine".to_owned(),
            critical_ns: engine_ns,
            bytes: 0,
        });
        split
    }

    /// Renders a deterministic text report: the chain summary, the top-`k`
    /// operators by critical time, the top-`k` rounds by critical time, and
    /// (when `dump` is given) the per-primitive split.
    pub fn render(&self, k: usize, dump: Option<&MetricsDump>) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} steps, {:.3} ms of {:.3} ms makespan ({:.3} ms total work)\n",
            self.steps.len(),
            ms(self.critical_ns),
            ms(self.makespan_ns),
            ms(self.total_work_ns),
        ));
        if self.critical_ns == 0 {
            out.push_str("  (no spans)\n");
            return out;
        }
        out.push_str(&format!(
            "  per-operator (top {} of {} by critical time):\n",
            k.min(self.per_operator.len()),
            self.per_operator.len()
        ));
        for op in self.per_operator.iter().take(k) {
            out.push_str(&format!(
                "    lane {:02} {:<18} crit {:>9.3} ms ({:>5.1}%)  slack {:>9.3} ms  inv {}/{}\n",
                op.lane,
                op.name,
                ms(op.critical_ns),
                100.0 * op.critical_ns as f64 / self.critical_ns as f64,
                ms(op.slack_ns()),
                op.critical_invocations,
                op.invocations,
            ));
        }
        let mut rounds: Vec<&RoundPath> = self.per_round.iter().collect();
        rounds.sort_by(|a, b| {
            b.critical_ns
                .cmp(&a.critical_ns)
                .then(a.round.cmp(&b.round))
        });
        out.push_str(&format!(
            "  per-round (top {} of {} by critical time):\n",
            k.min(rounds.len()),
            rounds.len()
        ));
        for r in rounds.iter().take(k) {
            out.push_str(&format!(
                "    round {:>4}  crit {:>9.3} ms in {:>3} steps, ends at {:.3} ms\n",
                r.round,
                ms(r.critical_ns),
                r.steps,
                ms(r.end_ns),
            ));
        }
        if let Some(dump) = dump {
            out.push_str("  per-primitive (critical time split by KPA bytes):\n");
            for p in self.attribute_primitives(dump) {
                if p.critical_ns == 0 && p.bytes == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<12} crit {:>9.3} ms ({:>5.1}%)  {:>12} KPA bytes\n",
                    p.label,
                    ms(p.critical_ns),
                    100.0 * p.critical_ns as f64 / self.critical_ns as f64,
                    p.bytes,
                ));
            }
        }
        out.push_str(&format!(
            "  chain (lane:name @start +dur ms): {}\n",
            self.steps
                .iter()
                .map(|s| format!(
                    "{:02}:{} @{:.3} +{:.3}",
                    s.lane,
                    s.name,
                    ms(s.start_ns),
                    ms(s.dur_ns)
                ))
                .collect::<Vec<_>>()
                .join(" -> "),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, lane: u64, round: u64, start: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("op{lane}").into(),
            cat: "task".into(),
            lane,
            round,
            epoch: 0,
            start_ns: start,
            dur_ns: dur,
            records_in: 10,
            records_out: 10,
        }
    }

    /// Two chains; the slower one (via span 3) is critical.
    fn diamond() -> Vec<Span> {
        vec![
            rec(0, None, 0, 0, 0, 100),
            rec(1, Some(0), 1, 0, 100, 50),
            rec(2, None, 0, 0, 0, 80),
            rec(3, Some(2), 1, 0, 80, 200),
        ]
    }

    #[test]
    fn picks_the_longest_chain() {
        let cp = CriticalPath::compute(&diamond());
        assert_eq!(cp.makespan_ns, 280);
        assert_eq!(cp.critical_ns, 280);
        assert_eq!(cp.total_work_ns, 430);
        let ids: Vec<u64> = cp.steps.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn attributes_slack_per_operator() {
        let cp = CriticalPath::compute(&diamond());
        let lane0 = cp.per_operator.iter().find(|o| o.lane == 0).unwrap();
        let lane1 = cp.per_operator.iter().find(|o| o.lane == 1).unwrap();
        assert_eq!(lane0.critical_ns, 80);
        assert_eq!(lane0.slack_ns(), 100);
        assert_eq!(lane1.critical_ns, 200);
        assert_eq!(lane1.slack_ns(), 50);
        // Sorted descending by critical time.
        assert_eq!(cp.per_operator[0].lane, 1);
    }

    #[test]
    fn per_round_chains_are_independent() {
        let mut spans = diamond();
        spans.push(rec(4, None, 0, 1, 1000, 300));
        spans.push(rec(5, Some(4), 1, 1, 1300, 10));
        let cp = CriticalPath::compute(&spans);
        assert_eq!(cp.per_round.len(), 2);
        assert_eq!(cp.per_round[0].critical_ns, 280);
        assert_eq!(cp.per_round[1].critical_ns, 310);
        assert_eq!(cp.per_round[1].steps, 2);
        // Whole-run chain is round 1's (latest end).
        assert_eq!(cp.steps.last().map(|s| s.id), Some(5));
    }

    #[test]
    fn ties_break_toward_the_smallest_id() {
        let spans = vec![rec(0, None, 0, 0, 0, 100), rec(1, None, 0, 0, 0, 100)];
        let cp = CriticalPath::compute(&spans);
        assert_eq!(cp.steps.first().map(|s| s.id), Some(0));
    }

    #[test]
    fn empty_input_is_all_zero() {
        let cp = CriticalPath::compute(&[]);
        assert_eq!(cp.critical_ns, 0);
        assert!(cp.steps.is_empty() && cp.per_round.is_empty());
        assert!(cp.render(5, None).contains("no spans"));
    }

    #[test]
    fn primitive_split_follows_byte_counters() {
        let reg = crate::MetricsRegistry::active();
        reg.counter("op.01.op1.sort_bytes").add(300);
        reg.counter("op.01.op1.merge_bytes").add(100);
        let cp = CriticalPath::compute(&diamond());
        let prims = cp.attribute_primitives(&reg.snapshot());
        let get = |l: &str| prims.iter().find(|p| p.label == l).unwrap().critical_ns;
        // lane 1 critical = 200 ns, split 3:1 sort:merge; lane 0 (80 ns,
        // no counters) goes to engine.
        assert_eq!(get("sort"), 150);
        assert_eq!(get("merge"), 50);
        assert_eq!(get("engine"), 80);
        let total: u64 = prims.iter().map(|p| p.critical_ns).sum();
        assert_eq!(total, cp.critical_ns);
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let t = crate::TraceCollector::active();
        t.record(Span {
            id: 3,
            parent: Some(1),
            name: "KeyedAggregate".into(),
            cat: "close".into(),
            lane: 1,
            round: 2,
            epoch: 1,
            start_ns: 500,
            dur_ns: 40,
            records_in: 9,
            records_out: 1,
        });
        // Above 2^53 a clock or id is no longer an exact `f64`.
        t.record(Span {
            id: u64::MAX,
            parent: None,
            name: "Sink".into(),
            cat: "task".into(),
            lane: 2,
            round: 3,
            epoch: 1,
            start_ns: (1 << 53) + 1,
            dur_ns: 1,
            records_in: 0,
            records_out: 0,
        });
        let parsed = parse_spans_jsonl(&t.export_jsonl()).unwrap();
        assert_eq!(parsed, t.spans());
        assert_eq!(parsed[0].round, 2);
        assert_eq!(parsed[1].start_ns, (1 << 53) + 1);
        assert!(parse_spans_jsonl("{\"type\":\"counter\",\"name\":\"x\"}").is_err());
        assert!(parse_spans_jsonl("nope").is_err());
    }
}
