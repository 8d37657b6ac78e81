//! Critical-path analysis over a span DAG (DESIGN.md §10): one engine's
//! spans or a stitched cluster trace (DESIGN.md §13), through one walker.
//!
//! Every span runs on a *track* ([`Tracked`]): a cluster shard's
//! `(shard, slot_epoch)` stream or the fabric; one engine's run is the
//! single track `(0, 0)`. Availability edges are exact in simulated time (a
//! child starts no earlier than its parent ends), so the longest chain
//! through the DAG is the run's simulated critical path. From that one
//! chain this module derives a cursor scan that partitions the makespan
//! exactly into {compute, shuffle, barrier-wait, straggler, fabric};
//! *critical* time (on the chain) versus *slack* (work off it) per operator
//! and per track; the longest chain per watermark round and per checkpoint
//! epoch; and, given the run's metrics dump, a per-KPA-primitive split
//! (extract/sort/merge/materialize) of each operator's critical time,
//! proportional to its `op.NN.Name.*_bytes` counters on every shard.
//!
//! Everything here is a pure function of the exported artifacts, so the
//! rendered report is byte-identical across same-seed runs. Span files are
//! input, so every sum saturates.

// sbx-lint: out-of-scope(raw-alloc, profile aggregation at export time)
use std::collections::BTreeMap;

use crate::cluster::FABRIC_SHARD;
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

/// A span and the track it ran on.
pub trait Tracked: AsRef<Span> {
    /// The span's `(shard, slot_epoch)`; the shard is [`FABRIC_SHARD`] for
    /// a fabric span.
    fn track(&self) -> (u32, u32);
}

/// One engine's spans are the single track `(0, 0)`.
impl Tracked for Span {
    fn track(&self) -> (u32, u32) {
        (0, 0)
    }
}

/// One step of the critical chain, root first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathStep {
    /// Span id of the invocation.
    pub id: u64,
    /// Operator name.
    pub name: String,
    /// Operator index in the pipeline.
    pub lane: u64,
    /// Watermark round.
    pub round: u64,
    /// Owning shard ([`FABRIC_SHARD`] for a fabric step).
    pub shard: u32,
    /// Route-table era the step ran under.
    pub slot_epoch: u32,
    /// Simulated start, nanoseconds.
    pub start_ns: u64,
    /// Simulated duration, nanoseconds.
    pub dur_ns: u64,
}

/// Critical-versus-slack attribution for one operator (keyed by lane).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Critical-versus-slack totals for one track.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackAttribution {
    /// Shard id, or [`FABRIC_SHARD`] for the fabric row.
    pub shard: u32,
    /// Route-table era (0 for the fabric row).
    pub slot_epoch: u32,
    /// Total span nanoseconds recorded on the track.
    pub total_ns: u64,
    /// Nanoseconds of the makespan scan the track's chain spans cover.
    pub critical_ns: u64,
}

impl TrackAttribution {
    /// Track time off the critical chain.
    pub fn slack_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.critical_ns)
    }
}

/// The longest chain within one group of spans: a watermark round, or a
/// checkpoint epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPath {
    /// Watermark round of the chain's last span.
    pub round: u64,
    /// Checkpoint epoch of the chain's last span.
    pub epoch: u64,
    /// Total simulated nanoseconds on the group's longest chain.
    pub critical_ns: u64,
    /// Steps on that chain.
    pub steps: u64,
    /// Simulated end of the chain, nanoseconds.
    pub end_ns: u64,
}

/// Per-primitive split of the critical time (see
/// [`CriticalPath::attribute_primitives`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Result of a critical-path analysis over one span DAG.
///
/// The five buckets partition the makespan exactly: `compute_ns +
/// shuffle_ns + barrier_wait_ns + straggler_ns + fabric_ns ==
/// makespan_ns`, every gap before a chain span landing in `fabric_ns`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total simulated nanoseconds on the whole-run critical chain.
    pub critical_ns: u64,
    /// Simulated end of the run's last span, nanoseconds.
    pub makespan_ns: u64,
    /// Total simulated nanoseconds across all spans (the serial work).
    pub total_work_ns: u64,
    /// Makespan in operator invocations (task/watermark/close spans).
    pub compute_ns: u64,
    /// Makespan in fabric shuffle-link transfers.
    pub shuffle_ns: u64,
    /// Makespan in engine barrier drives (alignment and commit work).
    pub barrier_wait_ns: u64,
    /// Makespan in fabric barrier waits: a shard's own cut waiting for the
    /// cluster-wide cut clock (the slowest shard).
    pub straggler_ns: u64,
    /// Makespan no chain span covers: scheduling gaps.
    pub fabric_ns: u64,
    /// The whole-run critical chain, root first.
    pub steps: Vec<PathStep>,
    /// Per-operator attribution over non-fabric spans, descending by
    /// critical time (ties by lane), covering every operator that recorded
    /// a span.
    pub per_operator: Vec<OperatorAttribution>,
    /// Per-track rows, `(slot_epoch, shard)` ascending, the fabric last.
    pub per_track: Vec<TrackAttribution>,
    /// Longest chain per watermark round, ascending by round.
    pub per_round: Vec<GroupPath>,
    /// Longest chain per checkpoint epoch, ascending by epoch.
    pub per_epoch: Vec<GroupPath>,
}

/// Sums nanoseconds or bytes, saturating.
fn sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::saturating_add)
}

/// Indexes spans by id; the first span of an id wins.
fn index_by_id<'a, T: AsRef<Span>>(spans: impl Iterator<Item = &'a T>) -> BTreeMap<u64, &'a T> {
    let mut by_id = BTreeMap::new();
    for s in spans {
        by_id.entry(s.as_ref().id).or_insert(s);
    }
    by_id
}

/// The longest chain ending among `spans`: starts at the span with the
/// latest end time (ties broken toward the smallest id), follows parent
/// links through `by_id` to a root, and returns the chain root first.
fn longest_chain<'a, T: AsRef<Span>>(
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

/// The longest chain within each group of spans sharing `key`, ascending
/// by key. The walk is restricted to the group's spans; one engine's
/// availability edges never leave a round or an epoch (chains are per
/// driven message), so there the restriction is exact.
fn chains_by<T: AsRef<Span>>(spans: &[T], key: fn(&Span) -> u64) -> Vec<GroupPath> {
    let mut groups: BTreeMap<u64, Vec<&T>> = BTreeMap::new();
    for s in spans {
        groups.entry(key(s.as_ref())).or_default().push(s);
    }
    let mut out = Vec::new();
    for members in groups.values() {
        let members = members.iter().copied();
        let chain = longest_chain(&index_by_id(members.clone()), members);
        if let Some(tip) = chain.last().map(AsRef::as_ref) {
            out.push(GroupPath {
                round: tip.round,
                epoch: tip.epoch,
                critical_ns: sum(chain.iter().map(|s| s.as_ref().dur_ns)),
                steps: chain.len() as u64,
                end_ns: tip.end_ns(),
            });
        }
    }
    out
}

impl CriticalPath {
    /// Runs the analysis over `spans` (any order): one engine's spans, or a
    /// stitched cluster trace's. Empty input yields an all-zero result.
    pub fn compute<T: Tracked>(spans: &[T]) -> CriticalPath {
        let chain = longest_chain(&index_by_id(spans.iter()), spans.iter());
        let mut cp = CriticalPath {
            critical_ns: sum(chain.iter().map(|s| s.as_ref().dur_ns)),
            makespan_ns: chain.last().map_or(0, |s| s.as_ref().end_ns()),
            total_work_ns: sum(spans.iter().map(|s| s.as_ref().dur_ns)),
            per_round: chains_by(spans, |s| s.round),
            per_epoch: chains_by(spans, |s| s.epoch),
            ..CriticalPath::default()
        };

        // Totals per operator (keyed by lane, fabric excluded) and per
        // track (keyed so the fabric sorts last).
        let mut ops: BTreeMap<u64, OperatorAttribution> = BTreeMap::new();
        let mut tracks: BTreeMap<(bool, u32, u32), TrackAttribution> = BTreeMap::new();
        for t in spans {
            let (s, (shard, slot_epoch)) = (t.as_ref(), t.track());
            let fabric = shard == FABRIC_SHARD;
            let row = tracks
                .entry((fabric, slot_epoch, shard))
                .or_insert(TrackAttribution {
                    shard,
                    slot_epoch,
                    ..TrackAttribution::default()
                });
            row.total_ns = row.total_ns.saturating_add(s.dur_ns);
            if fabric {
                continue;
            }
            let op = ops.entry(s.lane).or_insert_with(|| OperatorAttribution {
                lane: s.lane,
                name: s.name.to_string(),
                ..OperatorAttribution::default()
            });
            op.total_ns = op.total_ns.saturating_add(s.dur_ns);
            op.invocations += 1;
        }

        // Cursor scan over the chain: every nanosecond from 0 to the
        // makespan lands in exactly one bucket, so the five buckets
        // partition the makespan exactly in integer arithmetic.
        let mut cursor = 0u64;
        for t in &chain {
            let (s, (shard, slot_epoch)) = (t.as_ref(), t.track());
            let fabric = shard == FABRIC_SHARD;
            cp.steps.push(PathStep {
                id: s.id,
                name: s.name.to_string(),
                lane: s.lane,
                round: s.round,
                shard,
                slot_epoch,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
            });
            if let Some(op) = ops.get_mut(&s.lane).filter(|_| !fabric) {
                op.critical_ns = op.critical_ns.saturating_add(s.dur_ns);
                op.critical_invocations += 1;
            }
            cp.fabric_ns += s.start_ns.saturating_sub(cursor);
            cursor = cursor.max(s.start_ns);
            let contrib = s.end_ns().saturating_sub(cursor);
            cursor = cursor.max(s.end_ns());
            if let Some(row) = tracks.get_mut(&(fabric, slot_epoch, shard)) {
                row.critical_ns = row.critical_ns.saturating_add(contrib);
            }
            *match (fabric, s.cat == "barrier") {
                (false, false) => &mut cp.compute_ns,
                (false, true) => &mut cp.barrier_wait_ns,
                (true, false) => &mut cp.shuffle_ns,
                (true, true) => &mut cp.straggler_ns,
            } += contrib;
        }
        cp.per_operator = ops.into_values().collect();
        cp.per_operator
            .sort_by(|a, b| b.critical_ns.cmp(&a.critical_ns).then(a.lane.cmp(&b.lane)));
        cp.per_track = tracks.into_values().collect();
        cp
    }

    /// Sum of the five attribution buckets; equals `makespan_ns` exactly.
    pub fn attributed_ns(&self) -> u64 {
        self.compute_ns
            + self.shuffle_ns
            + self.barrier_wait_ns
            + self.straggler_ns
            + self.fabric_ns
    }

    /// Splits the critical time of each critical-path operator across KPA
    /// primitives, proportionally to the operator's
    /// `op.<lane:02>.<name>.<primitive>_bytes` counters in `dump`, summed
    /// over every shard prefix (`cluster.shard<i>.engine.op.…`). Time in
    /// operators with no primitive bytes (or the unsplit remainder of a
    /// rounding step) is attributed to `engine`.
    pub fn attribute_primitives(&self, dump: &MetricsDump) -> Vec<PrimitiveAttribution> {
        let mut split: Vec<PrimitiveAttribution> = PRIMITIVE_LABELS
            .iter()
            .map(|&label| PrimitiveAttribution {
                label: label.to_owned(),
                ..PrimitiveAttribution::default()
            })
            .collect();
        let mut engine_ns = 0u64;
        for op in &self.per_operator {
            if op.critical_ns == 0 {
                continue;
            }
            let bytes: Vec<u64> = PRIMITIVE_LABELS
                .iter()
                .map(|l| {
                    let name = format!("op.{:02}.{}.{l}_bytes", op.lane, op.name);
                    let prefixed = format!(".{name}");
                    sum(dump
                        .counters
                        .iter()
                        .filter(|(n, _)| *n == name || n.ends_with(&prefixed))
                        .map(|&(_, v)| v))
                })
                .collect();
            let total_bytes = sum(bytes.iter().copied());
            if total_bytes == 0 {
                engine_ns = engine_ns.saturating_add(op.critical_ns);
                continue;
            }
            let mut assigned = 0u64;
            for (slot, &b) in split.iter_mut().zip(bytes.iter()) {
                // Integer proportional split; the truncation remainder is
                // engine time, keeping the totals exact.
                let ns = ((op.critical_ns as u128 * b as u128) / total_bytes as u128) as u64;
                slot.critical_ns = slot.critical_ns.saturating_add(ns);
                slot.bytes = slot.bytes.saturating_add(b);
                assigned = assigned.saturating_add(ns);
            }
            engine_ns = engine_ns.saturating_add(op.critical_ns.saturating_sub(assigned));
        }
        split.push(PrimitiveAttribution {
            label: "engine".to_owned(),
            critical_ns: engine_ns,
            ..PrimitiveAttribution::default()
        });
        split
    }

    /// Renders a deterministic text report: the chain summary; on a trace
    /// of more than one track, the makespan buckets and the per-track
    /// table; the top-`k` operators, rounds and (with more than one epoch)
    /// epochs by critical time; the per-primitive split when `dump` is
    /// given; and the chain.
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
        if self.per_track.len() > 1 {
            out.push_str("  attribution (partitions the makespan exactly):\n");
            for (label, ns) in [
                ("compute", self.compute_ns),
                ("shuffle", self.shuffle_ns),
                ("barrier-wait", self.barrier_wait_ns),
                ("straggler-slack", self.straggler_ns),
                ("fabric", self.fabric_ns),
            ] {
                out.push_str(&format!(
                    "    {:<16} {:>10.3} ms ({:>5.1}%)\n",
                    label,
                    ms(ns),
                    100.0 * ns as f64 / self.makespan_ns as f64
                ));
            }
            out.push_str("  per-track critical vs slack:\n");
            for row in &self.per_track {
                let label = if row.shard == FABRIC_SHARD {
                    String::from("fabric")
                } else {
                    format!("shard {} era {}", row.shard, row.slot_epoch)
                };
                out.push_str(&format!(
                    "    {:<16} total {:>10.3} ms  crit {:>10.3} ms  slack {:>10.3} ms\n",
                    label,
                    ms(row.total_ns),
                    ms(row.critical_ns),
                    ms(row.slack_ns()),
                ));
            }
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
        render_groups(&mut out, "round", &self.per_round, |g| g.round, k);
        if self.per_epoch.len() > 1 {
            render_groups(&mut out, "epoch", &self.per_epoch, |g| g.epoch, k);
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

/// Appends the top-`k` groups by critical time (ties by `key`), one line
/// each, under a `per-<label>` heading.
fn render_groups(
    out: &mut String,
    label: &str,
    groups: &[GroupPath],
    key: fn(&GroupPath) -> u64,
    k: usize,
) {
    let mut sorted: Vec<&GroupPath> = groups.iter().collect();
    sorted.sort_by(|a, b| b.critical_ns.cmp(&a.critical_ns).then(key(a).cmp(&key(b))));
    out.push_str(&format!(
        "  per-{label} (top {} of {} by critical time):\n",
        k.min(sorted.len()),
        sorted.len()
    ));
    for g in sorted.iter().take(k) {
        out.push_str(&format!(
            "    {label} {:>4}  crit {:>9.3} ms in {:>3} steps, ends at {:.3} ms\n",
            key(g),
            g.critical_ns as f64 / 1e6,
            g.steps,
            g.end_ns as f64 / 1e6,
        ));
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
        let cp = CriticalPath::compute::<Span>(&[]);
        assert_eq!(cp.critical_ns, 0);
        assert!(cp.steps.is_empty() && cp.per_round.is_empty());
        assert!(cp.render(5, None).contains("no spans"));
    }

    /// Span files and metrics dumps are input: a `u64::MAX` duration beside
    /// a second span, and byte counters that overflow together, saturate
    /// every sum instead of panicking (debug) or wrapping (release).
    #[test]
    fn hostile_sums_saturate() {
        let text =
            "{\"type\":\"span\",\"id\":0,\"name\":\"op0\",\"dur_ns\":18446744073709551615}\n\
                    {\"type\":\"span\",\"id\":1,\"name\":\"op0\",\"dur_ns\":1}\n";
        let spans = parse_spans_jsonl(text).unwrap();
        let reg = crate::MetricsRegistry::active();
        reg.counter("op.00.op0.sort_bytes").add(u64::MAX);
        reg.counter("op.00.op0.merge_bytes").add(u64::MAX);
        let cp = CriticalPath::compute(&spans);
        assert_eq!(cp.total_work_ns, u64::MAX);
        assert_eq!(cp.critical_ns, u64::MAX);
        assert_eq!(cp.per_operator[0].total_ns, u64::MAX);
        assert!(cp
            .render(5, Some(&reg.snapshot()))
            .contains("per-primitive"));
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
