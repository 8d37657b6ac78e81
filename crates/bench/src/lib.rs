//! Experiment harness for StreamBox-HBM: one module per figure of the
//! paper's evaluation (§7), each regenerating the corresponding series.
//!
//! Every experiment module exposes a `run()` that executes the experiment
//! and returns the formatted rows it printed; the `benches/` targets are
//! thin mains around these so that `cargo bench` regenerates the whole
//! evaluation. `EXPERIMENTS.md` records paper-vs-measured numbers per
//! figure. [`kernel_scaling`] times nothing: it keeps the reference loops
//! the property tests check the KPA kernels against and the modelled
//! pass-bytes comparison the trajectory records.
//!
//! The core-count sweeps evaluate the calibrated cost model over *real*
//! executions (the algorithms run, instrumented; the model turns their
//! access profiles into KNL-scale time — see DESIGN.md §6).

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint_overhead;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod grouping_matrix;
pub mod kernel_scaling;
pub mod table;
pub mod trajectory;

/// Core counts used on the x-axis of the paper's sweeps.
pub const CORE_SWEEP: [u32; 5] = [2, 16, 32, 48, 64];

/// Writes an experiment's rendered output under `target/experiments/` so
/// figure series survive the bench run as files.
pub fn save_experiment(name: &str, content: &str) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if std::fs::write(&path, content).is_ok() {
            // sbx-lint: allow(no-adhoc-io, bench harness echoes the artifact path)
            println!("(saved to {})", path.display());
        }
    }
}
