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

use std::fmt::Write as _;

use crate::cluster::{HealthReport, FABRIC_SHARD};
use crate::detect::Signal;
use crate::json::{fmt_f64, parse_flat_object, write_str, JsonValue};
use crate::profile::{CriticalPath, PathStep, SpanRec};
use crate::round::{RoundPoint, INCIDENT_ROUND_VIEW, TIER_VIEW};

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
    pub spans: Vec<SpanRec>,
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
        spans: Vec<SpanRec>,
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
            let v = &inc.verdict;
            out.push_str(&format!(
                "{{\"type\":\"incident\",\"seq\":{seq},\"shard\":{},\"kind\":",
                inc.shard
            ));
            write_str(&v.kind, &mut out);
            out.push_str(",\"subject\":");
            write_str(&v.subject, &mut out);
            let _ = write!(out, ",\"round\":{},\"epoch\":{}", v.round, inc.epoch);
            if let Some(ce) = inc.committed_epoch {
                let _ = write!(out, ",\"committed_epoch\":{ce}");
            }
            let _ = write!(
                out,
                ",\"at_secs\":{},\"value\":{},\"threshold\":{},\"detail\":",
                fmt_f64(inc.at_secs),
                fmt_f64(v.value),
                fmt_f64(v.threshold)
            );
            write_str(&v.detail, &mut out);
            out.push_str("}\n");

            for p in &inc.rounds {
                let _ = write!(
                    out,
                    "{{\"type\":\"incident.round\",\"seq\":{seq},\"round\":{},\"epoch\":{}",
                    p.round, p.epoch
                );
                p.finish_json_line(&INCIDENT_ROUND_VIEW, &mut out);
            }
            for s in &inc.spans {
                out.push_str(&format!(
                    "{{\"type\":\"incident.span\",\"seq\":{seq},\"id\":{}",
                    s.id
                ));
                if let Some(parent) = s.parent {
                    let _ = write!(out, ",\"parent\":{parent}");
                }
                out.push_str(",\"name\":");
                write_str(&s.name, &mut out);
                out.push_str(",\"cat\":");
                write_str(&s.cat, &mut out);
                let _ = writeln!(
                    out,
                    ",\"lane\":{},\"round\":{},\"epoch\":{},\"start_ns\":{},\"dur_ns\":{},\"records_in\":{},\"records_out\":{}}}",
                    s.lane, s.round, s.epoch, s.start_ns, s.dur_ns, s.records_in, s.records_out
                );
            }
            for p in &inc.tier {
                let _ = write!(out, "{{\"type\":\"incident.tier\",\"seq\":{seq}");
                p.finish_json_line(&TIER_VIEW, &mut out);
            }
            for step in &inc.path {
                out.push_str(&format!(
                    "{{\"type\":\"incident.path\",\"seq\":{seq},\"id\":{},\"name\":",
                    step.id
                ));
                write_str(&step.name, &mut out);
                let _ = writeln!(
                    out,
                    ",\"lane\":{},\"round\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                    step.lane, step.round, step.start_ns, step.dur_ns
                );
            }
        }
        out.push_str(&format!(
            "{{\"type\":\"incidents\",\"count\":{}}}\n",
            self.incidents.len()
        ));
        out
    }

    /// Parses a JSONL export back into a report.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_jsonl(text: &str) -> Result<IncidentReport, String> {
        let mut incidents: Vec<Incident> = Vec::new();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}", line_no + 1);
            let pairs = parse_flat_object(line).map_err(|e| err(&e))?;
            let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let num = |key: &str| get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let text_of = |key: &str| {
                get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            let kind = text_of("type");
            match kind.as_str() {
                "incident" => {
                    if num("seq") as usize != incidents.len() {
                        return Err(err("incident seq out of order"));
                    }
                    incidents.push(Incident {
                        shard: num("shard") as u32,
                        verdict: Signal {
                            kind: text_of("kind"),
                            subject: text_of("subject"),
                            round: num("round") as u64,
                            value: num("value"),
                            threshold: num("threshold"),
                            detail: text_of("detail"),
                        },
                        epoch: num("epoch") as u64,
                        committed_epoch: get("committed_epoch")
                            .and_then(JsonValue::as_f64)
                            .map(|e| e as u64),
                        at_secs: num("at_secs"),
                        rounds: Vec::new(),
                        spans: Vec::new(),
                        tier: Vec::new(),
                        path: Vec::new(),
                    });
                }
                "incident.round" => {
                    let inc = incidents
                        .last_mut()
                        .ok_or_else(|| err("round before incident"))?;
                    let mut p = RoundPoint {
                        round: num("round") as u64,
                        epoch: num("epoch") as u64,
                        ..RoundPoint::default()
                    };
                    p.fill(&INCIDENT_ROUND_VIEW, |c| get(c).and_then(JsonValue::as_f64));
                    inc.rounds.push(p);
                }
                "incident.span" => {
                    let inc = incidents
                        .last_mut()
                        .ok_or_else(|| err("span before incident"))?;
                    inc.spans.push(SpanRec {
                        id: num("id") as u64,
                        parent: get("parent").and_then(JsonValue::as_f64).map(|p| p as u64),
                        name: text_of("name"),
                        cat: text_of("cat"),
                        lane: num("lane") as u64,
                        round: num("round") as u64,
                        epoch: num("epoch") as u64,
                        start_ns: num("start_ns") as u64,
                        dur_ns: num("dur_ns") as u64,
                        records_in: num("records_in") as u64,
                        records_out: num("records_out") as u64,
                    });
                }
                "incident.tier" => {
                    let inc = incidents
                        .last_mut()
                        .ok_or_else(|| err("tier before incident"))?;
                    let mut p = RoundPoint::default();
                    p.fill(&TIER_VIEW, |c| get(c).and_then(JsonValue::as_f64));
                    inc.tier.push(p);
                }
                "incident.path" => {
                    let inc = incidents
                        .last_mut()
                        .ok_or_else(|| err("path before incident"))?;
                    inc.path.push(PathStep {
                        id: num("id") as u64,
                        name: text_of("name"),
                        lane: num("lane") as u64,
                        round: num("round") as u64,
                        start_ns: num("start_ns") as u64,
                        dur_ns: num("dur_ns") as u64,
                    });
                }
                "incidents" => {
                    if num("count") as usize != incidents.len() {
                        return Err(err("summary count mismatch"));
                    }
                }
                other => return Err(format!("line {}: unknown type {other:?}", line_no + 1)),
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

    fn sample_span(id: u64, round: u64) -> SpanRec {
        SpanRec {
            id,
            parent: if id > 0 { Some(id - 1) } else { None },
            name: "round".to_owned(),
            cat: "round".to_owned(),
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
