//! Cluster-wide observability: cross-shard span stitching and the
//! fabric detectors (DESIGN.md §13).
//!
//! Each shard engine records its own span stream on the simulated clock
//! (DESIGN.md §10); the cluster driver prices fabric work (shuffle links,
//! barrier alignment) from the `TrafficMatrix`/`LinkModel` and hands both to
//! the deterministic stitcher here. The stitcher merges the per-shard
//! streams into one cluster trace with a shared id space — ids are
//! reassigned in (era, shard) order with the fabric block between eras, so
//! parent ids always precede child ids — and adds availability edges:
//! *spine* edges linking each round's root to the latest same-stream span
//! that had finished by the root's start, and *cross-shard* edges routing
//! era-1 roots through the inbound shuffle link that produced their state.
//! Every synthesized edge satisfies `child.start_ns >= parent.end_ns`.
//!
//! The stitched trace's critical path is the one walker's,
//! [`CriticalPath::compute`](crate::CriticalPath::compute), over its
//! [`ClusterSpan`]s. [`fabric_signals`] is a pure function of the cluster
//! metrics dump — no new clocks — so the trace and the fabric incidents
//! the driver files from those signals are byte-identical across
//! same-seed runs.

use std::collections::BTreeMap;

use crate::detect::{sort_signals, Signal, ThresholdRule};
use crate::json::write_str;
use crate::metrics::MetricsDump;
use crate::profile::{parse_span_lines, Tracked};
use crate::trace::{chrome_document, Span};

/// Sentinel shard id of the fabric track (shuffle links and barrier
/// alignment). Real shard ids are small; the sentinel sorts last.
pub const FABRIC_SHARD: u32 = u32::MAX;

/// One shard engine's span stream, tagged with its `(shard, slot-epoch)`
/// identity. `slot_epoch` counts route-table eras: 0 before a rescale cut
/// (and for static runs), 1 after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStream {
    /// Shard id within its era.
    pub shard: u32,
    /// Route-table era the stream ran under.
    pub slot_epoch: u32,
    /// The stream's spans, ids local to the stream.
    pub spans: Vec<Span>,
}

/// A fabric event priced by the cluster driver: a barrier-alignment wait
/// (`cat == "barrier"`, the straggler gap between a shard's cut and the
/// cluster-wide cut clock) or a shuffle link transfer (`cat == "shuffle"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricEvent {
    /// Display name (e.g. `barrier.wait` or `link.0->2`).
    pub name: String,
    /// `barrier` (straggler wait) or `shuffle` (link transfer).
    pub cat: String,
    /// Shard whose era-0 stream this event extends.
    pub src_shard: u32,
    /// Destination shard (links); equals `src_shard` for barrier waits.
    pub dst_shard: u32,
    /// Checkpoint epoch of the cut this event belongs to.
    pub epoch: u64,
    /// Simulated start, nanoseconds.
    pub start_ns: u64,
    /// Simulated duration, nanoseconds.
    pub dur_ns: u64,
    /// Bytes moved (0 for barrier waits).
    pub bytes: u64,
}

/// One span of a stitched cluster trace: a [`Span`] in the shared id
/// space plus its track identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpan {
    /// Owning shard, or [`FABRIC_SHARD`] for fabric spans.
    pub shard: u32,
    /// Route-table era (0 for fabric spans).
    pub slot_epoch: u32,
    /// The span, with stitched id/parent.
    pub span: Span,
}

impl AsRef<Span> for ClusterSpan {
    fn as_ref(&self) -> &Span {
        &self.span
    }
}

impl Tracked for ClusterSpan {
    fn track(&self) -> (u32, u32) {
        (self.shard, self.slot_epoch)
    }
}

/// A stitched cluster trace: every shard stream plus the fabric, in one id
/// space, with spine and cross-shard availability edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterTrace {
    /// Stitched spans in id order per stream block.
    pub spans: Vec<ClusterSpan>,
}

/// Re-ids one stream into the shared id space, rewrites parents, and adds
/// spine edges from each round's root to the latest earlier span of the
/// same stream that had finished by the root's start. Roots with no spine
/// predecessor attach to `inbound` (the shard's inbound shuffle edge) when
/// its end precedes the root. Returns the stream tip `(end_ns, id)`.
fn stitch_stream(
    stream: &SpanStream,
    next_id: &mut u64,
    inbound: Option<(u64, u64)>,
    out: &mut Vec<ClusterSpan>,
) -> Option<(u64, u64)> {
    // Old-id order preserves parent-before-child (engines allocate span ids
    // in dependency order).
    let mut idx = Vec::new();
    for i in 0..stream.spans.len() {
        idx.push(i);
    }
    idx.sort_by_key(|&i| (stream.spans[i].id, i));
    let mut assigned = Vec::new();
    let mut id_map: BTreeMap<u64, u64> = BTreeMap::new();
    for &i in &idx {
        let new_id = *next_id;
        *next_id += 1;
        id_map.entry(stream.spans[i].id).or_insert(new_id);
        assigned.push((i, new_id));
    }
    // end_ns -> smallest stitched id finishing at that time, over spans
    // processed so far: the spine-edge candidates.
    let mut finished: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tip: Option<(u64, u64)> = None;
    for &(i, new_id) in &assigned {
        let s = &stream.spans[i];
        let parent = match s.parent {
            Some(p) if p < s.id => id_map.get(&p).copied(),
            _ => {
                let spine = finished
                    .range(..=s.start_ns)
                    .next_back()
                    .map(|(_, &pid)| pid);
                match spine {
                    Some(pid) => Some(pid),
                    None => inbound
                        .filter(|&(iend, _)| iend <= s.start_ns)
                        .map(|(_, pid)| pid),
                }
            }
        };
        let end = s.end_ns();
        finished.entry(end).or_insert(new_id);
        let better = match tip {
            None => true,
            Some((tend, tid)) => end > tend || (end == tend && new_id < tid),
        };
        if better {
            tip = Some((end, new_id));
        }
        let mut span = s.clone();
        span.id = new_id;
        span.parent = parent;
        out.push(ClusterSpan {
            shard: stream.shard,
            slot_epoch: stream.slot_epoch,
            span,
        });
    }
    tip
}

impl ClusterTrace {
    /// Deterministically stitches per-shard streams and fabric events into
    /// one cluster trace. Streams are processed in `(slot_epoch, shard)`
    /// order; the fabric block takes the ids between era 0 and era 1, so
    /// parent ids precede child ids across every synthesized edge.
    pub fn stitch(streams: &[SpanStream], fabric: &[FabricEvent]) -> ClusterTrace {
        let mut order = Vec::new();
        for i in 0..streams.len() {
            order.push(i);
        }
        order.sort_by_key(|&i| (streams[i].slot_epoch, streams[i].shard, i));

        let mut out = Vec::new();
        let mut next_id = 0u64;
        // Tip per era-0 shard stream: the attachment point for fabric spans.
        let mut era0_tips: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for &i in &order {
            let s = &streams[i];
            if s.slot_epoch != 0 {
                continue;
            }
            if let Some(t) = stitch_stream(s, &mut next_id, None, &mut out) {
                era0_tips.insert(s.shard, t);
            }
        }

        // Fabric block: barrier waits chain onto their shard's tip, link
        // transfers onto their source's barrier wait (or tip). Edges are
        // only created when the parent has finished by the child's start.
        let mut barrier_of: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut inbound_of: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut fabric_tip: Option<(u64, u64)> = None;
        for e in fabric {
            let id = next_id;
            next_id += 1;
            let start = e.start_ns;
            let end = start.saturating_add(e.dur_ns);
            let tip_parent = era0_tips
                .get(&e.src_shard)
                .filter(|&&(tend, _)| tend <= start)
                .map(|&(_, pid)| pid);
            let parent = if e.cat == "barrier" {
                tip_parent
            } else {
                match barrier_of.get(&e.src_shard) {
                    Some(&(bend, bid)) if bend <= start => Some(bid),
                    _ => tip_parent,
                }
            };
            if e.cat == "barrier" {
                barrier_of.insert(e.src_shard, (end, id));
            } else {
                let better = match inbound_of.get(&e.dst_shard) {
                    None => true,
                    Some(&(iend, _)) => end > iend,
                };
                if better {
                    inbound_of.insert(e.dst_shard, (end, id));
                }
            }
            let better_tip = match fabric_tip {
                None => true,
                Some((tend, _)) => end > tend,
            };
            if better_tip {
                fabric_tip = Some((end, id));
            }
            out.push(ClusterSpan {
                shard: FABRIC_SHARD,
                slot_epoch: 0,
                span: Span {
                    id,
                    parent,
                    name: e.name.clone().into(),
                    cat: e.cat.clone().into(),
                    lane: if e.cat == "barrier" { 0 } else { 1 },
                    round: 0,
                    epoch: e.epoch,
                    start_ns: start,
                    dur_ns: e.dur_ns,
                    records_in: e.bytes,
                    records_out: e.bytes,
                },
            });
        }

        // Era-1 streams: first roots attach to their shard's inbound link
        // (falling back to the latest fabric span), crossing the shard
        // boundary through the shuffle edge.
        for &i in &order {
            let s = &streams[i];
            if s.slot_epoch == 0 {
                continue;
            }
            let inbound = match inbound_of.get(&s.shard) {
                Some(&t) => Some(t),
                None => fabric_tip,
            };
            stitch_stream(s, &mut next_id, inbound, &mut out);
        }

        ClusterTrace { spans: out }
    }

    /// Exports the stitched trace as JSONL: the §10 span line format plus
    /// `shard`/`slot_epoch` keys, so `parse_spans_jsonl` still reads it.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for cs in &self.spans {
            cs.span
                .write_line(Some((cs.shard, cs.slot_epoch)), &mut out);
        }
        out
    }

    /// Exports the stitched trace in Chrome trace format (Perfetto): one
    /// process (track group) per shard plus a `fabric` process, named via
    /// `process_name` metadata events; `tid` is the operator lane.
    pub fn export_chrome(&self) -> String {
        let pid_of = |shard: u32| -> u64 {
            if shard == FABRIC_SHARD {
                0
            } else {
                shard as u64 + 1
            }
        };
        let mut shards = Vec::new();
        for cs in &self.spans {
            if !shards.contains(&cs.shard) {
                shards.push(cs.shard);
            }
        }
        shards.sort_unstable();
        let mut events = Vec::new();
        for &sh in &shards {
            let label = if sh == FABRIC_SHARD {
                String::from("fabric")
            } else {
                format!("shard {sh}")
            };
            let mut ev = format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":",
                pid_of(sh)
            );
            write_str(&label, &mut ev);
            ev.push_str("}}");
            events.push(ev);
        }
        for cs in &self.spans {
            let mut ev = String::new();
            cs.span
                .write_chrome_event(pid_of(cs.shard), Some(cs.slot_epoch), &mut ev);
            events.push(ev);
        }
        chrome_document(events.into_iter())
    }
}

/// Parses a stitched cluster trace JSONL export back into [`ClusterSpan`]s,
/// in file order. Lines without a `shard` key default to shard 0, era 0, so
/// single-engine span exports load as a one-shard cluster.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_cluster_spans_jsonl(text: &str) -> Result<Vec<ClusterSpan>, String> {
    parse_span_lines(text, |line, span| ClusterSpan {
        shard: line.u32("shard"),
        slot_epoch: line.u32("slot_epoch"),
        span,
    })
}

// Thresholds of the fabric detectors. Every detector is a pure
// function of the cluster metrics dump — no new clocks — and no caller has
// ever needed another value (DESIGN.md §13).

/// A shard trips `straggler` when its last round timestamp exceeds this
/// multiple of the mean across shards.
const STRAGGLER_RATIO: f64 = 1.5;
/// A round trips `watermark-lag` when the spread of per-shard round
/// timestamps exceeds this many simulated seconds.
const WATERMARK_LAG_SECS: f64 = 0.5;
/// The hottest slot trips `slot-skew` when its record count exceeds this
/// multiple of the mean slot load.
const SKEW_RATIO: f64 = 2.0;
/// A link trips `link-saturation` when its transfer time is at least this
/// fraction of the whole shuffle's drain time.
const SATURATION_RATIO: f64 = 0.5;

/// Evaluates the four fabric detectors — `slot-skew`, `link-saturation`,
/// `straggler` and `watermark-lag`, on subjects like `slot12`, `link0->2`,
/// `shard1` or `round3` — against a cluster metrics dump. Returns the
/// tripped signals sorted by (kind, round, subject). The cluster driver
/// files each one as a [`FABRIC_SHARD`] incident.
pub fn fabric_signals(dump: &MetricsDump) -> Vec<Signal> {
    let mut signals = Vec::new();

    // Slot-occupancy skew from `cluster.slot<j>.records`, tied to the
    // rebalance through the `cluster.rescale.moved.slot<j>` markers.
    let mut slots = Vec::new();
    for (name, value) in &dump.counters {
        if let Some(rest) = name.strip_prefix("cluster.slot") {
            if let Some(idx) = rest.strip_suffix(".records") {
                if let Ok(j) = idx.parse::<u32>() {
                    slots.push((j, *value));
                }
            }
        }
    }
    slots.sort_unstable();
    if let Some(&first) = slots.first() {
        let mut total = 0u64;
        let mut hot = first;
        for &(j, v) in &slots {
            total += v;
            if v > hot.1 {
                hot = (j, v);
            }
        }
        let mean = total as f64 / slots.len() as f64;
        if mean > 0.0 {
            let ratio = hot.1 as f64 / mean;
            let moved = if dump
                .counter(&format!("cluster.rescale.moved.slot{}", hot.0))
                .is_some()
            {
                "; moved by rebalance"
            } else {
                ""
            };
            let rule = ThresholdRule::above("slot-skew", SKEW_RATIO);
            if let Some(sig) = rule.check(
                ratio,
                format!("slot{}", hot.0),
                0,
                format!(
                    "hot slot {} carries {} records, {ratio:.2}x the mean slot load{moved}",
                    hot.0, hot.1
                ),
            ) {
                signals.push(sig);
            }
        }
    }

    // Link saturation from `cluster.link.<s>.<d>.ns` vs the shuffle's
    // overall drain time.
    let total_shuffle_ns = dump.counter("cluster.shuffle.ns").unwrap_or(0);
    if total_shuffle_ns > 0 {
        for (name, value) in &dump.counters {
            let Some(rest) = name.strip_prefix("cluster.link.") else {
                continue;
            };
            let Some(pair) = rest.strip_suffix(".ns") else {
                continue;
            };
            let Some((s, d)) = pair.split_once('.') else {
                continue;
            };
            let (Ok(src), Ok(dst)) = (s.parse::<u32>(), d.parse::<u32>()) else {
                continue;
            };
            let ratio = *value as f64 / total_shuffle_ns as f64;
            let rule = ThresholdRule::at_least("link-saturation", SATURATION_RATIO);
            if let Some(sig) = rule.check(
                ratio,
                format!("link{src}->{dst}"),
                0,
                format!(
                    "link {src}->{dst} holds {} ns of the {} ns shuffle drain",
                    value, total_shuffle_ns
                ),
            ) {
                signals.push(sig);
            }
        }
    }

    // Straggler score and watermark lag from the adopted per-shard
    // round series (`cluster.shard<i>.engine.engine.round`).
    let mut shard_rows: Vec<(u32, Vec<f64>)> = Vec::new();
    for s in &dump.series {
        let Some(rest) = s.name.strip_prefix("cluster.shard") else {
            continue;
        };
        let Some((idx, tail)) = rest.split_once('.') else {
            continue;
        };
        if tail != "engine.engine.round" {
            continue;
        }
        let Ok(shard) = idx.parse::<u32>() else {
            continue;
        };
        let Some(col) = s.field_index("at_secs") else {
            continue;
        };
        let mut ats = Vec::new();
        for row in &s.rows {
            ats.push(row.get(col).copied().unwrap_or(0.0));
        }
        shard_rows.push((shard, ats));
    }
    shard_rows.sort_by_key(|&(shard, _)| shard);
    if shard_rows.len() >= 2 {
        let mut sum = 0.0f64;
        let mut lasts = Vec::new();
        for (shard, ats) in &shard_rows {
            let last = ats.last().copied().unwrap_or(0.0);
            sum += last;
            lasts.push((*shard, last, ats.len()));
        }
        let mean = sum / lasts.len() as f64;
        if mean > 0.0 {
            let rule = ThresholdRule::above("straggler", STRAGGLER_RATIO);
            for &(shard, last, rounds) in &lasts {
                let score = last / mean;
                if let Some(sig) = rule.check(
                    score,
                    format!("shard{shard}"),
                    rounds.saturating_sub(1) as u64,
                    format!(
                        "shard {shard} finished round {} at {last:.3}s, {score:.2}x the {mean:.3}s mean",
                        rounds.saturating_sub(1)
                    ),
                ) {
                    signals.push(sig);
                }
            }
        }
        let mut max_rounds = 0usize;
        for (_, ats) in &shard_rows {
            max_rounds = max_rounds.max(ats.len());
        }
        for r in 0..max_rounds {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut n = 0u32;
            for (_, ats) in &shard_rows {
                if let Some(&v) = ats.get(r) {
                    lo = lo.min(v);
                    hi = hi.max(v);
                    n += 1;
                }
            }
            if n >= 2 {
                let lag = hi - lo;
                let rule = ThresholdRule::above("watermark-lag", WATERMARK_LAG_SECS);
                if let Some(sig) = rule.check(
                    lag,
                    format!("round{r}"),
                    r as u64,
                    format!("round {r} watermark spread is {lag:.3}s across {n} shards"),
                ) {
                    signals.push(sig);
                }
            }
        }
    }

    sort_signals(&mut signals);
    signals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CriticalPath, MetricsRegistry};

    fn rec(id: u64, parent: Option<u64>, start: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("op{id}").into(),
            cat: "task".into(),
            lane: 0,
            round: 0,
            epoch: 0,
            start_ns: start,
            dur_ns: dur,
            records_in: 1,
            records_out: 1,
        }
    }

    fn two_shard_trace() -> ClusterTrace {
        let streams = vec![
            SpanStream {
                shard: 0,
                slot_epoch: 0,
                spans: vec![rec(0, None, 0, 100), rec(1, Some(0), 100, 50)],
            },
            SpanStream {
                shard: 1,
                slot_epoch: 0,
                spans: vec![rec(0, None, 0, 300)],
            },
            SpanStream {
                shard: 0,
                slot_epoch: 1,
                spans: vec![rec(0, None, 500, 80), rec(1, Some(0), 580, 10)],
            },
        ];
        let fabric = vec![
            FabricEvent {
                name: "barrier.wait".to_owned(),
                cat: "barrier".to_owned(),
                src_shard: 0,
                dst_shard: 0,
                epoch: 1,
                start_ns: 150,
                dur_ns: 150,
                bytes: 0,
            },
            FabricEvent {
                name: "link.1->0".to_owned(),
                cat: "shuffle".to_owned(),
                src_shard: 1,
                dst_shard: 0,
                epoch: 1,
                start_ns: 300,
                dur_ns: 200,
                bytes: 4096,
            },
        ];
        ClusterTrace::stitch(&streams, &fabric)
    }

    #[test]
    fn stitch_assigns_unique_ids_and_valid_edges() {
        let trace = two_shard_trace();
        let mut seen = std::collections::BTreeSet::new();
        for cs in &trace.spans {
            assert!(seen.insert(cs.span.id), "duplicate id {}", cs.span.id);
        }
        let by_id: BTreeMap<u64, &ClusterSpan> =
            trace.spans.iter().map(|cs| (cs.span.id, cs)).collect();
        for cs in &trace.spans {
            if let Some(p) = cs.span.parent {
                let parent = by_id[&p];
                assert!(parent.span.id < cs.span.id, "parent id precedes child");
                // Availability: the child starts no earlier than its parent
                // finished (spine, fabric, and cross-shard edges alike).
                assert!(
                    cs.span.start_ns >= parent.span.end_ns(),
                    "span {} starts at {} before parent {} ends at {}",
                    cs.span.id,
                    cs.span.start_ns,
                    parent.span.id,
                    parent.span.end_ns()
                );
            }
        }
        // Era-1 roots cross the shard boundary through the inbound link.
        let era1_root = trace
            .spans
            .iter()
            .find(|cs| cs.slot_epoch == 1 && cs.span.start_ns == 500)
            .unwrap();
        let link = trace
            .spans
            .iter()
            .find(|cs| cs.span.cat == "shuffle")
            .unwrap();
        assert_eq!(era1_root.span.parent, Some(link.span.id));
        assert_eq!(link.shard, FABRIC_SHARD);
    }

    #[test]
    fn critical_path_attribution_partitions_makespan() {
        let trace = two_shard_trace();
        let cp = CriticalPath::compute(&trace.spans);
        assert_eq!(cp.makespan_ns, 590);
        assert_eq!(cp.attributed_ns(), cp.makespan_ns);
        assert!(cp.shuffle_ns > 0, "chain crosses the shuffle link");
        assert!(cp.compute_ns > 0);
        // The chain ends in era 1 on shard 0.
        let last = cp.steps.last().unwrap();
        assert_eq!((last.shard, last.slot_epoch), (0, 1));
        // Per-track rows cover both eras plus the fabric, which sorts last.
        assert_eq!(cp.per_track.last().map(|r| r.shard), Some(FABRIC_SHARD));
        assert!(cp.per_track.iter().all(|r| r.critical_ns <= r.total_ns));
        // Fabric spans are no operator's work.
        assert_eq!(cp.per_operator.len(), 1);
        assert_eq!(cp.per_operator[0].total_ns, 100 + 50 + 300 + 80 + 10);
        let text = cp.render(5, None);
        assert!(text.contains("straggler-slack"));
        assert!(text.contains("per-track critical vs slack:\n"));
        assert!(text.contains("    fabric "));
        assert!(text.contains("per-epoch (top 2 of 2 by critical time)"));
    }

    #[test]
    fn cluster_jsonl_round_trips() {
        let trace = two_shard_trace();
        let text = trace.export_jsonl();
        let parsed = parse_cluster_spans_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), trace.spans.len());
        for (a, b) in parsed.iter().zip(trace.spans.iter()) {
            assert_eq!(a, b);
        }
        // The plain §10 parser reads the same lines (extra keys ignored).
        let plain = crate::parse_spans_jsonl(&text).unwrap();
        assert_eq!(plain.len(), trace.spans.len());
        assert!(parse_cluster_spans_jsonl("{\"type\":\"gauge\",\"name\":\"x\"}").is_err());
    }

    #[test]
    fn chrome_export_names_one_track_per_shard_plus_fabric() {
        let trace = two_shard_trace();
        let text = trace.export_chrome();
        assert!(text.contains("\"name\":\"process_name\""));
        assert!(text.contains("\"name\":\"fabric\""));
        assert!(text.contains("\"name\":\"shard 0\""));
        assert!(text.contains("\"name\":\"shard 1\""));
        assert!(text.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    fn skewed_dump() -> MetricsDump {
        let reg = MetricsRegistry::active();
        // Slot 3 is 16x the mean of the others.
        for (slot, records) in [(0u32, 10u64), (1, 10), (2, 10), (3, 400)] {
            reg.counter(&format!("cluster.slot{slot}.records"))
                .add(records);
        }
        reg.counter("cluster.rescale.moved.slot3").add(1);
        // One link holds 90% of the shuffle drain.
        reg.counter("cluster.shuffle.ns").add(1_000);
        reg.counter("cluster.link.0.1.ns").add(900);
        reg.counter("cluster.link.1.0.ns").add(100);
        // Shard 1 lags far behind shard 0.
        let s0 = reg.series("cluster.shard0.engine.engine.round", &["at_secs"]);
        s0.push(&[0.1]);
        s0.push(&[0.2]);
        let s1 = reg.series("cluster.shard1.engine.engine.round", &["at_secs"]);
        s1.push(&[0.1]);
        s1.push(&[1.4]);
        reg.snapshot()
    }

    fn balanced_dump() -> MetricsDump {
        let reg = MetricsRegistry::active();
        for slot in 0..4u32 {
            reg.counter(&format!("cluster.slot{slot}.records")).add(100);
        }
        reg.counter("cluster.shuffle.ns").add(1_000);
        reg.counter("cluster.link.0.1.ns").add(250);
        reg.counter("cluster.link.1.0.ns").add(250);
        for shard in 0..2u32 {
            let s = reg.series(
                &format!("cluster.shard{shard}.engine.engine.round"),
                &["at_secs"],
            );
            s.push(&[0.1]);
            s.push(&[0.2]);
        }
        reg.snapshot()
    }

    #[test]
    fn detectors_trip_on_skewed_fixture() {
        let signals = fabric_signals(&skewed_dump());
        let kinds: Vec<&str> = signals.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["link-saturation", "slot-skew", "straggler", "watermark-lag"]
        );
        assert_eq!(signals[1].subject, "slot3");
        assert!(signals[1].detail.ends_with("; moved by rebalance"));
        // Recomputation is identical.
        assert_eq!(fabric_signals(&skewed_dump()), signals);
    }

    #[test]
    fn detectors_stay_silent_on_balanced_fixture() {
        let signals = fabric_signals(&balanced_dump());
        assert!(signals.is_empty(), "signals: {signals:?}");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let cp = CriticalPath::compute(&ClusterTrace::default().spans);
        assert_eq!(cp.makespan_ns, 0);
        assert_eq!(cp.attributed_ns(), 0);
        assert!(cp.render(3, None).contains("no spans"));
        assert!(fabric_signals(&MetricsDump::default()).is_empty());
    }
}
