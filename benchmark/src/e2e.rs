//! The untraced run: set-up (reference + verification), then timed reps
//! for the requested time, then the end-to-end metrics. Host times are
//! reported at the reference box's nominal speed: every set-up and every
//! rep is preceded by a reading of the speed reference, and its times are
//! divided by the slowness read (see `speedref.rs`). The raw times go to
//! the result file.

use std::time::Instant;

use crate::json::Json;
use crate::procfs;
use crate::speedref::SpeedRef;
use crate::stats::{median, percentile, quartiles};
use crate::tap::{Rep, Session};
use crate::workloads::Workload;
use crate::{Options, Outcome};

fn quartile_json(values: &[f64]) -> Json {
    let [q1, med, q3] = quartiles(values);
    Json::Obj(vec![
        ("n".into(), Json::Num(values.len() as f64)),
        ("q1".into(), Json::Num(q1)),
        ("median".into(), Json::Num(med)),
        ("q3".into(), Json::Num(q3)),
    ])
}

/// Runs `w` untraced and computes every end-to-end metric.
pub fn run(w: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut session = Session::new(w, opts.seed, opts.corrupt_oracle);
    let mut speed = SpeedRef::new();
    let mut slowness = Vec::new();

    // Set-up, several times over so its median is steady: compute the
    // reference, run one rep with every row compared, warm the process.
    let mut setup_s = Vec::new();
    let mut sim_ref = None;
    for _ in 0..opts.setups() {
        let slow = speed.slowness();
        let start = Instant::now();
        let rep = session.verify_rep();
        setup_s.push(start.elapsed().as_secs_f64() / slow);
        slowness.push(slow);
        sim_ref = sim_ref.or(sim_bits(&rep));
        out.count(&rep);
    }

    let mut walls = Vec::new();
    let mut mrec_per_s = Vec::new();
    let mut close_ms = Vec::new();
    let mut raw_close_ms = Vec::new();
    let mut records = 0u64;
    let mut cpu_s = 0.0;
    let mut sim = (0.0, 0.0);
    let timed = Instant::now();
    while walls.len() < opts.min_reps() || timed.elapsed().as_secs_f64() < opts.seconds {
        let slow = speed.slowness();
        let cpu_before = procfs::cpu_times()?.total_s();
        let rep = session.timed_rep();
        cpu_s += (procfs::cpu_times()?.total_s() - cpu_before) / slow;
        slowness.push(slow);
        out.count(&rep);
        close_ms.extend(rep.close_ms.iter().map(|ms| ms / slow));
        raw_close_ms.extend_from_slice(&rep.close_ms);
        match &rep.report {
            Ok(report) => {
                // Same input every rep, so simulated time may not move.
                if sim_bits(&rep) != sim_ref {
                    out.fail(format!("rep {}: simulated metrics drifted", walls.len()));
                }
                records += report.records_in;
                mrec_per_s.push(report.records_in as f64 / (rep.wall_s / slow) / 1e6);
                sim = (report.throughput_mrps(), report.p99_output_delay_secs * 1e6);
            }
            Err(e) => out.fail(format!("rep {}: engine error: {e}", walls.len())),
        }
        walls.push(rep.wall_s);
    }
    if mrec_per_s.is_empty() || close_ms.is_empty() {
        return Err("no timed rep completed".into());
    }

    out.metric("setup_s", median(&setup_s));
    out.metric("host_mrec_per_s", median(&mrec_per_s));
    out.metric("host_close_ms_p50", percentile(&close_ms, 50));
    out.metric("host_cpu_s_per_mrec", cpu_s / (records as f64 / 1e6));
    out.metric("host_peak_rss_mib", procfs::peak_rss_mib()?);
    out.metric("sim_mrec_per_s", sim.0);
    out.metric("sim_close_us_p99", sim.1);

    out.detail = vec![
        ("reps".into(), Json::Num(walls.len() as f64)),
        ("slowness".into(), quartile_json(&slowness)),
        ("raw_rep_wall_s".into(), quartile_json(&walls)),
        ("raw_host_close_ms".into(), quartile_json(&raw_close_ms)),
        ("host_mrec_per_s".into(), quartile_json(&mrec_per_s)),
        ("host_close_ms".into(), quartile_json(&close_ms)),
        ("setup_s".into(), quartile_json(&setup_s)),
    ];
    Ok(out)
}

/// The two simulated metrics of a rep, bit for bit.
fn sim_bits(rep: &Rep) -> Option<(u64, u64)> {
    rep.report.as_ref().ok().map(|r| {
        (
            r.throughput_rps.to_bits(),
            r.p99_output_delay_secs.to_bits(),
        )
    })
}
