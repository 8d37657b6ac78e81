//! `cargo bench --bench kernel_scaling` — host time of the chunk sort,
//! k-way merge, per-bundle front half (Select/Extract, Partition, KeySwap,
//! hash ingest, early aggregation's partial) and window close (fused
//! merge-fold, fused merge-gather per aggregate kind) against the kernels
//! they replaced, and of the generators' `fill` and Zipf draw.
//!
//! Pass `--quick` (after `--`) to run only the host-kernel grid, the
//! front-half, close-half and generator tables, one repetition per cell
//! (the CI smoke configuration: every cell still asserts byte-identity with
//! the reference kernels).

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        sbx_bench::kernel_scaling::run_kernel_grid(1);
        sbx_bench::kernel_scaling::run_front_half(1);
        sbx_bench::kernel_scaling::run_close_half(1);
        sbx_bench::kernel_scaling::run_generators(1);
        return;
    }
    let out = sbx_bench::kernel_scaling::run();
    sbx_bench::save_experiment("kernel_scaling", &out);
}
