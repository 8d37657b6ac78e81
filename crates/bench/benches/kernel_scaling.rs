//! `cargo bench --bench kernel_scaling` — host-time scaling of the
//! merge-path grouping kernels across worker-pool widths, and the serial
//! chunk sort, k-way merge, per-bundle front half (Select/Extract,
//! Partition, KeySwap) and window close (keyed reduction, merge count)
//! against the kernels they replaced.
//!
//! Pass `--quick` (after `--`) to run only the host-kernel grid, the
//! front-half and the close-half tables, one repetition per cell (the CI
//! smoke configuration: every cell still asserts byte-identity with the
//! reference kernels).

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        sbx_bench::kernel_scaling::run_kernel_grid(1);
        sbx_bench::kernel_scaling::run_front_half(1);
        sbx_bench::kernel_scaling::run_close_half(1);
        return;
    }
    let out = sbx_bench::kernel_scaling::run();
    sbx_bench::save_experiment("kernel_scaling", &out);
}
