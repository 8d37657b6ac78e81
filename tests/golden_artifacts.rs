//! Cross-commit artifact identity: every exported artifact of three small
//! fixed-seed, uniform-key runs must hash to the value
//! recorded at the commit *before* the PR-14 consolidation. The other
//! determinism tests compare two runs of the same build; this one pins the
//! bytes across builds, so a refactor that moves a metric, a span or a
//! digit of a report is caught even when it moves it consistently.
//!
//! The runs go through the `sbx` binary because the CLI is what writes the
//! artifacts, at its default two host threads. A constant changes only in a PR
//! whose issue says the artifact's bytes change; paste the value the failure
//! message prints.

use std::path::Path;
use std::process::Command;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `sbx <run>` then `sbx <report>` in a fresh directory and compares
/// the checksum of every artifact named in `golden` — a file the run wrote,
/// or the `run` / `report` command's stdout — reporting all of them at once
/// in paste-ready form.
fn check(dir: &str, run: &str, report: &str, golden: &[(&str, u64)]) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let sbx = |args: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_sbx"))
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("spawn sbx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "sbx {args}: {stderr}");
        out.stdout
    };
    let (run_out, report_out) = (sbx(run), sbx(report));
    let got: Vec<(&str, u64)> = golden
        .iter()
        .map(|&(name, _)| match name {
            "run" => (name, fnv1a(&run_out)),
            "report" => (name, fnv1a(&report_out)),
            file => (name, fnv1a(&std::fs::read(dir.join(file)).expect(file))),
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, sum)| format!("    (\"{name}\", {sum:#018x}),\n"))
        .collect();
    assert!(got == golden, "artifact bytes moved; computed:\n{table}");
}

#[test]
fn ysb_metrics_spans_and_report_are_golden() {
    check(
        "golden_ysb",
        "bench ysb --cores 32 --metrics-out metrics.jsonl --trace-out spans.jsonl \
         --incidents-out incidents.jsonl",
        "report metrics.jsonl --timeline --critical-path spans.jsonl",
        &[
            ("run", 0x5e72_6550_93bc_475e),
            ("metrics.jsonl", 0xb392_fa72_e24e_493a),
            ("spans.jsonl", 0xcc95_75fa_5961_0c33),
            ("incidents.jsonl", 0x8674_93db_3136_c045),
            ("report", 0x4e97_42eb_1364_3768),
        ],
    );
}

/// The `--hbm-mib 1` run fires the spill-storm detector, so its incident
/// file carries a full evidence window.
#[test]
fn degraded_ysb_incidents_are_golden() {
    check(
        "golden_degraded",
        "bench ysb --hbm-mib 1 --bundles 80 --metrics-out metrics.jsonl \
         --incidents-out incidents.jsonl",
        "report metrics.jsonl --incidents incidents.jsonl",
        &[
            ("metrics.jsonl", 0x7f31_f566_022b_38c3),
            ("incidents.jsonl", 0xceea_9fcf_e1ea_e67a),
            ("report", 0x5194_87a7_92e5_6526),
        ],
    );
}

#[test]
fn rescaled_cluster_artifacts_are_golden() {
    check(
        "golden_cluster",
        "cluster sum --shards 4 --rescale-at 2 --rescale-to 8 --metrics-out metrics.jsonl \
         --trace-out trace.jsonl --incidents-out incidents.jsonl",
        "report metrics.jsonl --critical-path trace.jsonl --incidents incidents.jsonl",
        &[
            ("run", 0x075e_e7e2_d961_ccbb),
            ("metrics.jsonl", 0xbda2_b0f8_a238_54bf),
            ("trace.jsonl", 0x281e_1e60_986e_5501),
            ("incidents.jsonl", 0xfc99_4e85_7a6c_098d),
            ("report", 0x8073_bf8d_2fa3_0bf3),
        ],
    );
}
