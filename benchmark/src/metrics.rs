//! The metric dictionary: every name the binary prints, with its unit and
//! direction. `BENCHMARK.json` at the repository root must list exactly
//! these (a unit test compares the two).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before `repeat` (and the driver) call it a regression.
    pub bound: f64,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name as printed; the prefix up to the first `.` is the layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, reported for every workload by an untraced run.
/// Bounds are calibrated from repeat sets on the reference box (README).
pub const E2E: &[E2eMetric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_mrec_per_s", "Mrec/s", Better::Higher, 0.15),
    e2e("host_close_ms_p50", "ms", Better::Lower, 0.15),
    e2e("host_cpu_s_per_mrec", "cpu-s/Mrec", Better::Lower, 0.15),
    e2e("host_peak_rss_mib", "MiB", Better::Lower, 0.15),
    e2e("sim_mrec_per_s", "Mrec/s", Better::Higher, 0.01),
    e2e("sim_close_us_p99", "us", Better::Lower, 0.01),
];

/// Primitives of the staged replay that carry the four-column
/// host-vs-simulated comparison.
pub const STAGED: [&str; 6] = [
    "records.bundle_build",
    "kpa.extract",
    "kpa.sort",
    "kpa.merge",
    "kpa.reduce",
    "kpa.materialize",
];

/// The three wire-format parsers.
pub const PARSERS: [&str; 3] = [
    "ingress.parse_json",
    "ingress.parse_proto",
    "ingress.parse_text",
];

/// Per-layer metrics, reported for every workload by a traced run. A
/// metric that does not apply to a workload reads 0 there (README).
pub const PER_LAYER: &[LayerMetric] = &[
    // ingress
    lo("ingress.gen.host_ns_per_rec", "ns/rec"),
    lo("ingress.gen.share", "fraction"),
    lo("ingress.parse_json.host_ns_per_rec", "ns/rec"),
    lo("ingress.parse_json.host_over_sim", "ratio"),
    lo("ingress.parse_proto.host_ns_per_rec", "ns/rec"),
    lo("ingress.parse_proto.host_over_sim", "ratio"),
    lo("ingress.parse_text.host_ns_per_rec", "ns/rec"),
    lo("ingress.parse_text.host_over_sim", "ratio"),
    // records
    lo("records.bundle_build.host_ns_per_rec", "ns/rec"),
    lo("records.bundle_build.sim_ns_per_rec", "ns/rec"),
    lo("records.bundle_build.bytes_per_rec", "B/rec"),
    lo("records.bundle_build.host_over_sim", "ratio"),
    // kpa
    lo("kpa.extract.host_ns_per_rec", "ns/rec"),
    lo("kpa.extract.sim_ns_per_rec", "ns/rec"),
    lo("kpa.extract.bytes_per_rec", "B/rec"),
    lo("kpa.extract.host_over_sim", "ratio"),
    lo("kpa.sort.host_ns_per_rec", "ns/rec"),
    lo("kpa.sort.sim_ns_per_rec", "ns/rec"),
    lo("kpa.sort.bytes_per_rec", "B/rec"),
    lo("kpa.sort.host_over_sim", "ratio"),
    lo("kpa.merge.host_ns_per_rec", "ns/rec"),
    lo("kpa.merge.sim_ns_per_rec", "ns/rec"),
    lo("kpa.merge.bytes_per_rec", "B/rec"),
    lo("kpa.merge.host_over_sim", "ratio"),
    lo("kpa.reduce.host_ns_per_rec", "ns/rec"),
    lo("kpa.reduce.sim_ns_per_rec", "ns/rec"),
    lo("kpa.reduce.bytes_per_rec", "B/rec"),
    lo("kpa.reduce.host_over_sim", "ratio"),
    lo("kpa.materialize.host_ns_per_rec", "ns/rec"),
    lo("kpa.materialize.sim_ns_per_rec", "ns/rec"),
    lo("kpa.materialize.bytes_per_rec", "B/rec"),
    lo("kpa.materialize.host_over_sim", "ratio"),
    lo("kpa.sketch.host_ns_per_rec", "ns/rec"),
    // pool
    lo("kpa.sort_t2.host_ns_per_rec", "ns/rec"),
    hi("pool.sort_speedup_t2", "ratio"),
    // engine
    lo("engine.self.host_ns_per_rec", "ns/rec"),
    lo("engine.self.share", "fraction"),
    lo("engine.residual.host_ns_per_rec", "ns/rec"),
    lo("engine.close_ms_p90", "ms"),
    lo("engine.round_gap_ms_p50", "ms"),
    lo("engine.round_gap_ms_p90", "ms"),
    lo("engine.grouping_sort.host_ns_per_rec", "ns/rec"),
    lo("engine.grouping_hash.host_ns_per_rec", "ns/rec"),
    lo("engine.grouping_adaptive.host_ns_per_rec", "ns/rec"),
    lo("engine.grouping.adaptive_over_best", "ratio"),
    hi("engine.run_t1.host_mrec_per_s", "Mrec/s"),
    hi("engine.run_t2.host_mrec_per_s", "Mrec/s"),
    hi("engine.records_in", "count"),
    hi("engine.windows_closed", "count"),
    hi("engine.output_records", "count"),
    // sink (the benchmark's own hooks: checksum, two-phase output copy)
    lo("sink.emit.share", "fraction"),
    // simmem
    lo("simmem.hbm_peak_mib", "MiB"),
    hi("simmem.hbm_bw_peak_gbps", "GB/s"),
    hi("simmem.dram_bw_peak_gbps", "GB/s"),
    lo("simmem.spills", "count"),
    lo("simmem.knob_moves", "count"),
    lo("simmem.alloc_free.host_ns_per_op", "ns/op"),
    // checkpoint
    lo("checkpoint.commit_ms_p50", "ms"),
    lo("checkpoint.commit.share", "fraction"),
    lo("checkpoint.align_ms_p50", "ms"),
    lo("checkpoint.snapshot_kib_per_epoch", "KiB"),
    lo("checkpoint.encode.host_ns_per_kib", "ns/KiB"),
    lo("checkpoint.decode.host_ns_per_kib", "ns/KiB"),
    // cluster
    lo("cluster.run.host_ns_per_rec", "ns/rec"),
    hi("cluster.sim_mrec_per_s", "Mrec/s"),
    lo("cluster.shuffle_wire_kib", "KiB"),
    lo("cluster.load_max_over_mean", "ratio"),
    // obs
    lo("obs.metrics.overhead_pct", "%"),
    lo("obs.trace.overhead_pct", "%"),
    // bench
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.cpu_sys_share", "fraction"),
    lo("bench.failed_share", "fraction"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn table_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let all = E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for prim in STAGED {
            for col in [
                "host_ns_per_rec",
                "sim_ns_per_rec",
                "bytes_per_rec",
                "host_over_sim",
            ] {
                let name = format!("{prim}.{col}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
        for p in PARSERS {
            for col in ["host_ns_per_rec", "host_over_sim"] {
                let name = format!("{p}.{col}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }
}
