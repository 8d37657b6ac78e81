//! `cargo bench --bench kernel_scaling` — host-time scaling of the
//! merge-path grouping kernels across worker-pool widths, and the serial
//! chunk sort, k-way merge and per-bundle front half (Select/Extract,
//! Partition, KeySwap) against the kernels they replaced.
//!
//! Pass `--quick` (after `--`) to run only the host-kernel grid and the
//! front-half table, one repetition per cell (the CI smoke configuration:
//! every cell still asserts byte-identity with the reference kernels).

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        sbx_bench::kernel_scaling::run_kernel_grid(1);
        sbx_bench::kernel_scaling::run_front_half(1);
        return;
    }
    let out = sbx_bench::kernel_scaling::run();
    sbx_bench::save_experiment("kernel_scaling", &out);
}
