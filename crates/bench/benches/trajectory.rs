//! `cargo bench --bench trajectory` — runs the bench-trajectory scenarios,
//! writes the next `BENCH_<n>.json`, and exits non-zero on regression
//! (the CI perf gate; see `sbx_bench::trajectory`).
//!
//! Flags (after `--`): `--dir <path>` trajectory directory (default `.`),
//! `--cost-scale <f>` kernel-cost handicap (testing aid).

// The gate's verdict is this binary's output surface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use sbx_bench::trajectory::{run, TrajectoryConfig};

fn main() {
    let mut cfg = TrajectoryConfig::default();
    // Under `cargo bench` the process CWD is the package dir; default the
    // trajectory to the workspace root, where BENCH_1.json is committed.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let root = std::path::Path::new(&manifest).join("../..");
        cfg.dir = root.canonicalize().unwrap_or(root);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => {
                if let Some(d) = args.next() {
                    cfg.dir = d.into();
                }
            }
            "--cost-scale" => {
                if let Some(s) = args.next().and_then(|s| s.parse().ok()) {
                    cfg.cost_scale = s;
                }
            }
            // Tolerate cargo's own bench arguments (`--bench`, filters).
            _ => {}
        }
    }
    match run(&cfg) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if !outcome.is_ok() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("trajectory failed: {e}");
            std::process::exit(2);
        }
    }
}
