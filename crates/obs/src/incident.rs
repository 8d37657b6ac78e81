//! Anomaly-triggered capture windows and the deterministic
//! `incidents.jsonl` export (DESIGN.md §15).
//!
//! When a detector fires, the engine freezes the flight recorder's rings
//! around the firing round into an [`Incident`]: the verdict [`Signal`],
//! the frozen round samples, the span window, the tier-timeline slice, and
//! a critical-path excerpt through those spans. Cluster runs tag each
//! incident with its shard ([`FABRIC_SHARD`] for fabric-level health
//! verdicts) and annotate the checkpoint epoch that was committed when the
//! anomaly hit, so an operator knows exactly which recovery point precedes
//! the damage.
//!
//! Exports are flat JSONL (`incident`, `incident.round`, `incident.span`,
//! `incident.tier`, `incident.path` lines grouped by `seq`, plus a
//! trailing `incidents` summary line) and round-trip through
//! [`IncidentReport::parse_jsonl`]. Every value is simulated-time derived,
//! so same-seed artifacts are byte-identical.

use crate::cluster::{HealthReport, FABRIC_SHARD};
use crate::detect::Signal;
use crate::json::{self, Line, ObjWriter};
use crate::profile::{CriticalPath, PathStep};
use crate::round::{RoundPoint, INCIDENT_ROUND_VIEW, TIER_VIEW};
use crate::trace::Span;

/// One captured anomaly: a detector verdict plus the frozen evidence
/// window around the firing round.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Shard the incident belongs to (0 for single-engine runs,
    /// [`FABRIC_SHARD`] for cluster-fabric verdicts).
    pub shard: u32,
    /// The detector verdict that triggered the capture.
    pub verdict: Signal,
    /// Checkpoint epoch in flight when the detector fired.
    pub epoch: u64,
    /// Last checkpoint epoch known committed at capture time, if any —
    /// the recovery point preceding the anomaly.
    pub committed_epoch: Option<u64>,
    /// Simulated time of the firing round boundary, seconds.
    pub at_secs: f64,
    /// Frozen per-round samples, oldest-first (`round`, `epoch` and the
    /// fields of the [`INCIDENT_ROUND_VIEW`]).
    pub rounds: Vec<RoundPoint>,
    /// Frozen span window, oldest-first.
    pub spans: Vec<Span>,
    /// Tier-timeline slice covering the capture window (the fields of the
    /// [`TIER_VIEW`]).
    pub tier: Vec<RoundPoint>,
    /// Critical-path excerpt through the frozen spans, root-first.
    pub path: Vec<PathStep>,
}

impl Incident {
    /// Assembles a capture window: stores the evidence and computes the
    /// critical-path excerpt through the frozen spans.
    pub fn capture(
        verdict: Signal,
        epoch: u64,
        committed_epoch: Option<u64>,
        at_secs: f64,
        rounds: Vec<RoundPoint>,
        spans: Vec<Span>,
        tier: Vec<RoundPoint>,
    ) -> Incident {
        let path = CriticalPath::compute(&spans).steps;
        Incident {
            shard: 0,
            verdict,
            epoch,
            committed_epoch,
            at_secs,
            rounds,
            spans,
            tier,
            path,
        }
    }

    /// A minimal incident from a bare signal (no frozen window) — used for
    /// cluster-fabric verdicts, which are computed post-hoc over the
    /// merged metrics rather than inside one shard's round loop.
    pub fn from_signal(shard: u32, verdict: Signal) -> Incident {
        Incident {
            shard,
            verdict,
            epoch: 0,
            committed_epoch: None,
            at_secs: 0.0,
            rounds: Vec::new(),
            spans: Vec::new(),
            tier: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Returns the incident re-tagged with a shard id.
    pub fn with_shard(mut self, shard: u32) -> Incident {
        self.shard = shard;
        self
    }
}

/// An ordered collection of incidents with a deterministic JSONL export,
/// parser, and text rendering (`sbx report --incidents`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentReport {
    /// Incidents in capture order.
    pub incidents: Vec<Incident>,
}

/// The incident an evidence line (`incident.round`, `.span`, `.tier`,
/// `.path`) belongs to: the one whose `incident` line precedes it.
fn evidence<'a>(incidents: &'a mut [Incident], line: &Line) -> Result<&'a mut Incident, String> {
    let what = line.kind().trim_start_matches("incident.");
    incidents
        .last_mut()
        .ok_or_else(|| line.err(format_args!("{what} before incident")))
}

impl IncidentReport {
    /// Wraps a list of captured incidents.
    pub fn new(incidents: Vec<Incident>) -> IncidentReport {
        IncidentReport { incidents }
    }

    /// Number of incidents.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// True when no incident was captured.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Appends fabric-level incidents converted from a cluster health
    /// report (one [`FABRIC_SHARD`]-tagged incident per health signal).
    pub fn extend_from_health(&mut self, health: &HealthReport) {
        for sig in &health.signals {
            self.incidents
                .push(Incident::from_signal(FABRIC_SHARD, sig.clone()));
        }
    }

    /// Exports the report as flat JSONL. Incidents are numbered by `seq`
    /// in capture order; the trailing `{"type":"incidents","count":N}`
    /// summary makes even an empty report a non-empty, diffable artifact.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, inc) in self.incidents.iter().enumerate() {
            let seq = seq as u64;
            let w = ObjWriter::open(&mut out, "incident")
                .u64("seq", seq)
                .u64("shard", u64::from(inc.shard));
            inc.verdict
                .write_fields(w, |w| {
                    w.u64("epoch", inc.epoch)
                        .opt_u64("committed_epoch", inc.committed_epoch)
                        .f64("at_secs", inc.at_secs)
                })
                .end();
            for p in &inc.rounds {
                let w = ObjWriter::open(&mut out, "incident.round")
                    .u64("seq", seq)
                    .u64("round", p.round)
                    .u64("epoch", p.epoch);
                p.write_view(&INCIDENT_ROUND_VIEW, w).end();
            }
            for s in &inc.spans {
                let w = ObjWriter::open(&mut out, "incident.span").u64("seq", seq);
                s.write_fields(w, None).end();
            }
            for p in &inc.tier {
                let w = ObjWriter::open(&mut out, "incident.tier").u64("seq", seq);
                p.write_view(&TIER_VIEW, w).end();
            }
            for step in &inc.path {
                ObjWriter::open(&mut out, "incident.path")
                    .u64("seq", seq)
                    .u64("id", step.id)
                    .text("name", &step.name)
                    .u64("lane", step.lane)
                    .u64("round", step.round)
                    .u64("start_ns", step.start_ns)
                    .u64("dur_ns", step.dur_ns)
                    .end();
            }
        }
        ObjWriter::open(&mut out, "incidents")
            .u64("count", self.incidents.len() as u64)
            .end();
        out
    }

    /// Parses a JSONL export back into a report.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_jsonl(text: &str) -> Result<IncidentReport, String> {
        let mut incidents: Vec<Incident> = Vec::new();
        for line in json::lines(text) {
            let line = line?;
            let count = incidents.len() as u64;
            match line.kind() {
                "incident" => {
                    if line.u64("seq") != count {
                        return Err(line.err("incident seq out of order"));
                    }
                    incidents.push(Incident {
                        shard: line.u32("shard"),
                        verdict: Signal::from_line(&line),
                        epoch: line.u64("epoch"),
                        committed_epoch: line.opt_u64("committed_epoch"),
                        at_secs: line.f64("at_secs"),
                        rounds: Vec::new(),
                        spans: Vec::new(),
                        tier: Vec::new(),
                        path: Vec::new(),
                    });
                }
                "incident.round" => {
                    let mut p = RoundPoint {
                        round: line.u64("round"),
                        epoch: line.u64("epoch"),
                        ..RoundPoint::default()
                    };
                    p.fill(&INCIDENT_ROUND_VIEW, |c| line.opt_f64(c));
                    evidence(&mut incidents, &line)?.rounds.push(p);
                }
                "incident.span" => evidence(&mut incidents, &line)?
                    .spans
                    .push(Span::from_line(&line)),
                "incident.tier" => {
                    let mut p = RoundPoint::default();
                    p.fill(&TIER_VIEW, |c| line.opt_f64(c));
                    evidence(&mut incidents, &line)?.tier.push(p);
                }
                "incident.path" => evidence(&mut incidents, &line)?.path.push(PathStep {
                    id: line.u64("id"),
                    name: line.text("name").to_owned(),
                    lane: line.u64("lane"),
                    round: line.u64("round"),
                    start_ns: line.u64("start_ns"),
                    dur_ns: line.u64("dur_ns"),
                    ..PathStep::default()
                }),
                "incidents" => {
                    if line.u64("count") != count {
                        return Err(line.err("summary count mismatch"));
                    }
                }
                other => return Err(line.err(format_args!("unknown type {other:?}"))),
            }
        }
        Ok(IncidentReport { incidents })
    }

    /// Renders the correlated per-incident story: verdict, frozen round
    /// window, tier highlights, and the critical-path excerpt.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("incidents: none captured (all detectors silent)\n");
            return out;
        }
        out.push_str(&format!("incidents: {} captured\n", self.len()));
        for (seq, inc) in self.incidents.iter().enumerate() {
            let v = &inc.verdict;
            let shard = if inc.shard == FABRIC_SHARD {
                "fabric".to_owned()
            } else {
                format!("shard {}", inc.shard)
            };
            let committed = match inc.committed_epoch {
                Some(e) => format!("epoch {e} committed"),
                None => "no epoch committed".to_owned(),
            };
            out.push_str(&format!(
                "  incident {seq}: {} on {} ({shard}, t={:.3}s, epoch {}, {committed})\n",
                v.kind, v.subject, inc.at_secs, inc.epoch
            ));
            out.push_str(&format!(
                "    verdict : value {:.3} vs threshold {:.3} — {}\n",
                v.value, v.threshold, v.detail
            ));
            if !inc.rounds.is_empty() {
                out.push_str(&format!(
                    "    window  : {} rounds ({}..={})\n",
                    inc.rounds.len(),
                    inc.rounds.first().map_or(0, |p| p.round),
                    inc.rounds.last().map_or(0, |p| p.round),
                ));
                out.push_str(
                    "      round     t(s)  close(s)  closed  records    wm(s)  hbm%  spills  queue\n",
                );
                for p in &inc.rounds {
                    out.push_str(&format!(
                        "      {:>5} {:>8.3} {:>9.6} {:>7} {:>8} {:>8.3} {:>5.1} {:>7} {:>6}\n",
                        p.round,
                        p.at_secs,
                        p.close_secs,
                        p.closed_windows as u64,
                        p.records as u64,
                        p.watermark_secs,
                        100.0 * p.hbm_occupancy,
                        p.spills as u64,
                        p.open_windows as u64,
                    ));
                }
            }
            if !inc.spans.is_empty() {
                out.push_str(&format!("    spans   : {} in window\n", inc.spans.len()));
            }
            if !inc.path.is_empty() {
                let total: u64 = inc.path.iter().map(|s| s.dur_ns).sum();
                out.push_str(&format!(
                    "    path    : {} steps, {:.3} ms critical\n",
                    inc.path.len(),
                    total as f64 / 1e6
                ));
                for step in &inc.path {
                    out.push_str(&format!(
                        "      round {:>4} lane {:>2} {:<12} {:>9.3} ms\n",
                        step.round,
                        step.lane,
                        step.name,
                        step.dur_ns as f64 / 1e6
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict() -> Signal {
        Signal {
            kind: "spill-storm".to_owned(),
            subject: "round7".to_owned(),
            round: 7,
            value: 12.0,
            threshold: 8.0,
            detail: "spill CUSUM hit 12.0".to_owned(),
        }
    }

    /// A round with every column of the incident view set, so a dropped
    /// column fails the round trip.
    fn sample_round(round: u64) -> RoundPoint {
        let mut p = RoundPoint {
            round,
            epoch: 1,
            ..RoundPoint::default()
        };
        let mut v = round as f64;
        p.fill(&INCIDENT_ROUND_VIEW, |_| {
            v += 0.25;
            Some(v)
        });
        p
    }

    fn sample_span(id: u64, round: u64) -> Span {
        Span {
            id,
            parent: if id > 0 { Some(id - 1) } else { None },
            name: "round".into(),
            cat: "round".into(),
            lane: 0,
            round,
            epoch: 1,
            start_ns: id * 1000,
            dur_ns: 500,
            records_in: 100,
            records_out: 2,
        }
    }

    fn sample_tier() -> RoundPoint {
        let (mut p, mut v) = (RoundPoint::default(), 3.5);
        p.fill(&TIER_VIEW, |_| {
            v += 0.125;
            Some(v)
        });
        p
    }

    fn sample_report() -> IncidentReport {
        let inc = Incident::capture(
            verdict(),
            1,
            Some(0),
            3.5,
            vec![sample_round(6), sample_round(7)],
            vec![sample_span(0, 6), sample_span(1, 7)],
            vec![sample_tier()],
        );
        IncidentReport::new(vec![inc, Incident::from_signal(FABRIC_SHARD, verdict())])
    }

    #[test]
    fn capture_computes_path_excerpt() {
        let rep = sample_report();
        let inc = &rep.incidents[0];
        // The two spans chain parent->child, so both land on the path.
        assert_eq!(inc.path.len(), 2);
        assert_eq!(inc.path[0].id, 0);
        assert_eq!(inc.path[1].id, 1);
        assert_eq!(inc.shard, 0);
    }

    #[test]
    fn jsonl_round_trips() {
        let rep = sample_report();
        let text = rep.to_jsonl();
        let back = IncidentReport::parse_jsonl(&text).unwrap();
        assert_eq!(rep, back);
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn empty_report_exports_summary_line() {
        let rep = IncidentReport::default();
        let text = rep.to_jsonl();
        assert_eq!(text, "{\"type\":\"incidents\",\"count\":0}\n");
        let back = IncidentReport::parse_jsonl(&text).unwrap();
        assert!(back.is_empty());
        assert!(rep.render().contains("none captured"));
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        assert!(IncidentReport::parse_jsonl("{\"type\":\"incident.round\",\"seq\":0}").is_err());
        assert!(IncidentReport::parse_jsonl("{\"type\":\"incidents\",\"count\":3}").is_err());
        assert!(IncidentReport::parse_jsonl("{\"type\":\"mystery\"}").is_err());
    }

    #[test]
    fn render_tells_the_story() {
        let rep = sample_report();
        let text = rep.render();
        assert!(text.contains("2 captured"));
        assert!(text.contains("spill-storm on round7"));
        assert!(text.contains("epoch 0 committed"));
        assert!(text.contains("fabric"));
        assert!(text.contains("path"));
        let again = rep.render();
        assert_eq!(text, again);
    }

    #[test]
    fn extend_from_health_tags_fabric() {
        let mut rep = IncidentReport::default();
        let health = HealthReport {
            signals: vec![verdict()],
            hot_slot: None,
            moved_slots: Vec::new(),
        };
        rep.extend_from_health(&health);
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.incidents[0].shard, FABRIC_SHARD);
        assert!(rep.incidents[0].rounds.is_empty());
    }
}
