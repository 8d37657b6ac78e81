//! Calibrated access-profile builders for every primitive.
//!
//! Each function returns the [`AccessProfile`] one primitive execution
//! charges, as a function of its input sizes. The CPU-cycle constants were
//! calibrated once against the end-points of the paper's Figure 2 (see
//! DESIGN.md §6): with them, merge-sort of 100 M pairs on HBM lands at
//! ~240 M pairs/s at 64 cores, sort on DRAM plateaus at ~110 M pairs/s past
//! 32 cores, and hash grouping crosses over sort on DRAM near 40 cores —
//! the paper's published shape. All other figures *emerge* from these
//! per-primitive profiles; nothing downstream is curve-fit.

use sbx_simmem::{AccessProfile, MemKind};

/// Bytes of one key/pointer pair (two `u64`s).
pub const PAIR_BYTES: f64 = 16.0;

/// Pairs per block of the *modelled* in-cache kernel: the AVX-512 bitonic
/// sort of the paper sorts 64x 64-bit integers per block. The host's chunk
/// sort ([`crate::sort_pairs`]) has no block structure; this constant only
/// prices the paper's kernel.
pub const SORT_BLOCK: f64 = 64.0;

/// `log2(SORT_BLOCK)`: the block kernel's in-register levels.
const SORT_BLOCK_LEVELS: f64 = 6.0;

/// CPU cycles per pair per merge level of the *multipass* structure: each
/// level is a full streaming round with its own load/compare/store loop
/// per element. Calibrated against the paper's Figure 2 microbenchmark.
pub const SORT_CYCLES_PER_LEVEL: f64 = 12.0;

/// CPU cycles per pair per level of the single-pass merge-path kernel:
/// one streaming loop total, with the remaining levels collapsing into
/// in-register tournament comparisons (the hand-tuned AVX-512 merge
/// networks of paper §4.2). Much cheaper per level than
/// [`SORT_CYCLES_PER_LEVEL`] because the per-level loop overhead is paid
/// once, which is what makes grouping bandwidth-bound at high core
/// counts — the premise of Figures 7-9.
pub const SORT_KERNEL_CYCLES_PER_LEVEL: f64 = 1.0;

/// CPU cycles per pair for a two-way streaming merge step.
pub const MERGE_CYCLES_PER_PAIR: f64 = 12.0;

/// CPU cycles per record for extraction (copy key, form pointer).
pub const EXTRACT_CYCLES: f64 = 4.0;

/// CPU cycles per record for a filter predicate evaluation.
pub const SELECT_CYCLES: f64 = 3.0;

/// CPU cycles per record for partition classification + scatter.
pub const PARTITION_CYCLES: f64 = 4.0;

/// CPU cycles per pair for the join co-scan.
pub const JOIN_CYCLES: f64 = 6.0;

/// CPU cycles per record for keyed reduction bookkeeping.
pub const REDUCE_CYCLES: f64 = 8.0;

/// CPU cycles per record for hash grouping (hashing, probing, collision
/// handling, and partition management). Hash grouping is compute-bound on
/// KNL, which is why it barely benefits from HBM (paper §2.2).
pub const HASH_CYCLES: f64 = 500.0;

/// Per-record engine overhead in KNL cycles of the Flink-class row engine
/// (`sbx-baselines`): deserialization, per-record operator dispatch,
/// managed-runtime bookkeeping. Calibrated so that the row engine's
/// per-core YSB throughput is ~18x below StreamBox-HBM's on KNL (paper
/// Fig. 7). The engine's `--grouping row` backend charges it on top of
/// [`hash_group`], less the [`HASH_CYCLES`] that profile already holds.
pub const ROW_ENGINE_CYCLES_PER_RECORD_KNL: f64 = 5_900.0;

/// Amortized random table probes per inserted pair (collisions included).
pub const HASH_PROBES_PER_PAIR: f64 = 1.5;

/// Sequential partitioning passes performed by the hash implementation.
pub const HASH_PARTITION_PASSES: f64 = 1.0;

/// Profile of `Extract`: stream the bundle from DRAM, stream key/pointer
/// pairs out to the KPA's tier.
pub fn extract(rows: usize, record_bytes: usize, kpa_kind: MemKind) -> AccessProfile {
    let n = rows as f64;
    AccessProfile::new()
        .seq(MemKind::Dram, n * record_bytes as f64)
        .seq(kpa_kind, n * PAIR_BYTES)
        .cpu(n * EXTRACT_CYCLES)
}

/// Profile of `KeySwap`: one random record access per pair (plus an
/// optional write-back of dirty keys), stream the key column in place.
pub fn key_swap(rows: usize, kpa_kind: MemKind, write_back: bool) -> AccessProfile {
    let n = rows as f64;
    let mut p = AccessProfile::new()
        .rand(MemKind::Dram, n * if write_back { 2.0 } else { 1.0 })
        .seq(kpa_kind, n * 8.0 * 2.0)
        .cpu(n * 2.0);
    if write_back {
        p = p.cpu(n * 2.0);
    }
    p
}

/// Profile of `Materialize`: one random record access per pair, stream the
/// output bundle into DRAM.
pub fn materialize(rows: usize, record_bytes: usize, kpa_kind: MemKind) -> AccessProfile {
    let n = rows as f64;
    AccessProfile::new()
        .seq(kpa_kind, n * PAIR_BYTES)
        .rand(MemKind::Dram, n)
        .seq(MemKind::Dram, n * record_bytes as f64)
        .cpu(n * EXTRACT_CYCLES)
}

/// `ceil(log2(n))`, exactly, in integer arithmetic; 0 for `n <= 1`.
fn ceil_log2(n: usize) -> f64 {
    f64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// Number of merge levels a sort of `n` pairs performs above the in-cache
/// block kernel: `ceil(log2(n / SORT_BLOCK))`.
pub fn sort_merge_levels(n: usize) -> f64 {
    if n <= SORT_BLOCK as usize {
        return 0.0;
    }
    ceil_log2(n) - SORT_BLOCK_LEVELS
}

/// Number of full read+write streaming passes `Kpa::sort` performs: one
/// in-place chunk/block pass plus exactly one merge-path k-way merge pass,
/// regardless of input size or thread count.
pub const SORT_PASSES: f64 = 2.0;

/// Profile of `Sort` as implemented by `Kpa::sort`: the in-cache block
/// kernel pass plus *one* merge-path k-way merge pass ([`SORT_PASSES`]
/// total), independent of thread count. Comparisons are still `n log n`,
/// but they happen inside a single streaming loop at
/// [`SORT_KERNEL_CYCLES_PER_LEVEL`] rather than one full pass per level.
pub fn sort(n: usize, kind: MemKind) -> AccessProfile {
    if n == 0 {
        return AccessProfile::new();
    }
    let levels = sort_merge_levels(n);
    let nf = n as f64;
    // Block kernel: log2(block) in-register levels; merge comparisons
    // still walk the remaining levels even though the data moves once.
    AccessProfile::new()
        .seq(kind, nf * 2.0 * PAIR_BYTES * SORT_PASSES)
        .cpu(nf * SORT_KERNEL_CYCLES_PER_LEVEL * (levels + SORT_BLOCK_LEVELS))
}

/// Profile of the *multipass* merge-sort structure (one full read+write
/// streaming pass per merge level, plus the block pass): the kernel the
/// paper's Figure 2 microbenchmark measures, whose DRAM plateau motivates
/// KPAs in the first place. `Kpa::sort` no longer moves data this way (see
/// [`sort`]); this profile is kept as the Figure 2 baseline and as the
/// "old" arm of the `kernel_scaling` pass-bytes comparison.
pub fn sort_multipass(n: usize, kind: MemKind) -> AccessProfile {
    if n == 0 {
        return AccessProfile::new();
    }
    let levels = sort_merge_levels(n);
    let nf = n as f64;
    AccessProfile::new()
        .seq(kind, nf * 2.0 * PAIR_BYTES * (levels + 1.0))
        .cpu(nf * SORT_CYCLES_PER_LEVEL * (levels + SORT_BLOCK_LEVELS))
}

/// Profile of a two-way `Merge` producing `total` pairs onto `out_kind`
/// from inputs on `in_kind` (tiers may differ when a KPA spilled).
pub fn merge(total: usize, in_kind: MemKind, out_kind: MemKind) -> AccessProfile {
    let n = total as f64;
    AccessProfile::new()
        .seq(in_kind, n * PAIR_BYTES)
        .seq(out_kind, n * PAIR_BYTES)
        .cpu(n * MERGE_CYCLES_PER_PAIR)
}

/// Profile of a single-pass k-way `Merge` producing `total` pairs onto
/// `out_kind` from `k` sorted inputs on `in_kind`: one read pass and one
/// write pass — the data moves once no matter how many inputs — at
/// `ceil(log2 k)` comparisons per pair (tournament depth).
pub fn merge_kway(total: usize, k: usize, in_kind: MemKind, out_kind: MemKind) -> AccessProfile {
    let n = total as f64;
    let cmp_factor = ceil_log2(k).max(1.0);
    AccessProfile::new()
        .seq(in_kind, n * PAIR_BYTES)
        .seq(out_kind, n * PAIR_BYTES)
        .cpu(n * MERGE_CYCLES_PER_PAIR * cmp_factor)
}

/// Profile of `Select` scanning `rows` pairs and keeping `kept`.
pub fn select(rows: usize, kept: usize, in_kind: MemKind, out_kind: MemKind) -> AccessProfile {
    AccessProfile::new()
        .seq(in_kind, rows as f64 * PAIR_BYTES)
        .seq(out_kind, kept as f64 * PAIR_BYTES)
        .cpu(rows as f64 * SELECT_CYCLES)
}

/// Profile of `Partition` scattering `rows` pairs into partitions.
pub fn partition(rows: usize, in_kind: MemKind, out_kind: MemKind) -> AccessProfile {
    let n = rows as f64;
    AccessProfile::new()
        .seq(in_kind, n * PAIR_BYTES)
        .seq(out_kind, n * PAIR_BYTES)
        .cpu(n * PARTITION_CYCLES)
}

/// Profile of the `Join` co-scan over two sorted KPAs, emitting `emitted`
/// combined records of `out_record_bytes` to DRAM.
pub fn join(
    left: usize,
    right: usize,
    emitted: usize,
    kind: MemKind,
    out_record_bytes: usize,
) -> AccessProfile {
    let scanned = (left + right) as f64;
    AccessProfile::new()
        .seq(kind, scanned * PAIR_BYTES)
        .rand(MemKind::Dram, 2.0 * emitted as f64)
        .seq(MemKind::Dram, emitted as f64 * out_record_bytes as f64)
        .cpu(scanned * JOIN_CYCLES + emitted as f64 * EXTRACT_CYCLES)
}

/// Profile of keyed reduction over a sorted KPA: stream the keys, one
/// random dereference per pair for the value column.
pub fn reduce_keyed(rows: usize, kind: MemKind) -> AccessProfile {
    let n = rows as f64;
    AccessProfile::new()
        .seq(kind, n * PAIR_BYTES)
        .rand(MemKind::Dram, n)
        .cpu(n * REDUCE_CYCLES)
}

/// Profile of unkeyed reduction streaming a full bundle.
pub fn reduce_unkeyed(rows: usize, record_bytes: usize) -> AccessProfile {
    let n = rows as f64;
    AccessProfile::new()
        .seq(MemKind::Dram, n * record_bytes as f64)
        .cpu(n * 4.0)
}

/// Profile of hash grouping `n` pairs with the table on `table_kind`.
pub fn hash_group(n: usize, table_kind: MemKind) -> AccessProfile {
    let nf = n as f64;
    AccessProfile::new()
        // Partitioning pass(es): read + write the pairs sequentially.
        .seq(table_kind, nf * 2.0 * PAIR_BYTES * HASH_PARTITION_PASSES)
        .rand(table_kind, nf * HASH_PROBES_PER_PAIR)
        .cpu(nf * HASH_CYCLES)
}

/// CPU cycles per pair for a *cache-resident* probe + update: hash, one L2
/// hit, add. When the whole table fits on package, hashing degenerates to
/// a cheap streaming aggregation — the low-cardinality regime the paper's
/// own Figure 2 concedes to hash, and the reason HBM-analytics work (Kara
/// et al.) finds hash probes insensitive to bandwidth: they are bound by
/// latency only once the table spills out of cache.
pub const HASH_CYCLES_RESIDENT: f64 = 12.0;

/// Bytes of one grouping-table slot: key, sum and count lanes (three
/// `u64`s), matching `hash::HashGrouper`'s layout.
pub const HASH_SLOT_BYTES: f64 = 24.0;

/// Inverse of the grouping table's maximum load factor (it grows above
/// 7/10 occupancy), i.e. allocated slots per distinct key.
pub const HASH_LOAD_INV: f64 = 10.0 / 7.0;

/// On-package cache budget a resident grouping table may occupy: half of
/// KNL's 32 MiB aggregate L2, leaving the other half for streaming data.
pub const HASH_RESIDENT_BYTES: f64 = 16.0 * 1024.0 * 1024.0;

/// CPU cycles per record for the cardinality/skew sketch pass
/// (`sketch::GroupSketch`): one multiply-hash, one bitmap bit set, a short
/// fixed-size counter scan.
pub const SKETCH_CYCLES: f64 = 2.0;

/// Fraction of a `groups`-key grouping table that stays cache-resident.
pub fn hash_resident_fraction(groups: usize) -> f64 {
    let table_bytes = groups.max(1) as f64 * HASH_SLOT_BYTES * HASH_LOAD_INV;
    (HASH_RESIDENT_BYTES / table_bytes).min(1.0)
}

/// Cardinality-aware profile of hash grouping `n` pairs into a table of
/// `groups` distinct keys on `table_kind`.
///
/// [`hash_group`] is calibrated at Figure 2's 100 M-key end-point, where
/// essentially every probe misses cache and the partitioning pre-pass is
/// mandatory. This refinement interpolates between that end-point and the
/// cache-resident regime by the fraction of the table that spills past the
/// on-package budget ([`HASH_RESIDENT_BYTES`]):
///
/// - resident probes cost [`HASH_CYCLES_RESIDENT`] cycles and touch no
///   memory beyond streaming the input pairs once;
/// - spilled probes cost the full calibrated [`HASH_CYCLES`] with
///   [`HASH_PROBES_PER_PAIR`] random accesses and the extra partitioning
///   pass(es) of the out-of-cache implementation.
///
/// At high cardinality this degenerates to [`hash_group`] (pinned by a
/// test below), so the Figure 2 calibration is untouched.
pub fn hash_group_carded(n: usize, groups: usize, table_kind: MemKind) -> AccessProfile {
    let nf = n as f64;
    let miss = 1.0 - hash_resident_fraction(groups);
    AccessProfile::new()
        .seq(
            table_kind,
            nf * PAIR_BYTES * (1.0 + (2.0 * HASH_PARTITION_PASSES - 1.0) * miss),
        )
        .rand(table_kind, nf * HASH_PROBES_PER_PAIR * miss)
        .cpu(nf * (HASH_CYCLES_RESIDENT + (HASH_CYCLES - HASH_CYCLES_RESIDENT) * miss))
}

/// Profile of sorting `n` pairs as `ceil(n / chunk)` independent
/// `chunk`-sized sorts — the shape the sort-merge grouping backend
/// actually charges when a window arrives bundle by bundle. The streamed
/// bytes match one big [`sort`] (every pair still moves
/// [`SORT_PASSES`] times), but the comparison depth is that of a
/// `chunk`-sized run; the deferred inter-chunk comparisons surface later
/// in the close-time [`merge_kway`].
pub fn sort_chunked(n: usize, chunk: usize, kind: MemKind) -> AccessProfile {
    if n == 0 {
        return AccessProfile::new();
    }
    let levels = sort_merge_levels(chunk.max(1));
    let nf = n as f64;
    AccessProfile::new()
        .seq(kind, nf * 2.0 * PAIR_BYTES * SORT_PASSES)
        .cpu(nf * SORT_KERNEL_CYCLES_PER_LEVEL * (levels + SORT_BLOCK_LEVELS))
}

/// Growth-averaged variant of [`hash_group_carded`]: the grouping table
/// starts empty and only reaches `groups` keys at the end of the window,
/// so inserts early in the window probe a (partially) cache-resident
/// table even when the final table spills. With the table growing
/// linearly across the window, the miss fraction at stream position
/// `x ∈ (0, 1]` is `max(0, 1 - F/x)` for a *final* resident fraction
/// `F = ` [`hash_resident_fraction`]`(groups)`, and its average over the
/// window is `(1 - F) + F·ln F` (zero when the final table is resident).
///
/// This is the per-window cost the adaptive GroupBy decision compares
/// against the sort-merge path (DESIGN.md §14); the per-bundle charges
/// the hash backend actually accrues follow the same curve because each
/// bundle is charged at the table size it observes.
pub fn hash_group_grown(n: usize, groups: usize, table_kind: MemKind) -> AccessProfile {
    let f = hash_resident_fraction(groups);
    let miss = (1.0 - f) + f * sbx_prng::math::ln(f);
    let nf = n as f64;
    AccessProfile::new()
        .seq(
            table_kind,
            nf * PAIR_BYTES * (1.0 + (2.0 * HASH_PARTITION_PASSES - 1.0) * miss),
        )
        .rand(table_kind, nf * HASH_PROBES_PER_PAIR * miss)
        .cpu(nf * (HASH_CYCLES_RESIDENT + (HASH_CYCLES - HASH_CYCLES_RESIDENT) * miss))
}

/// Profile of the cardinality/skew sketch pass over `n` keys on `kind`:
/// stream the key column once, constant work per key.
pub fn sketch(n: usize, kind: MemKind) -> AccessProfile {
    let nf = n as f64;
    AccessProfile::new()
        .seq(kind, nf * 8.0)
        .cpu(nf * SKETCH_CYCLES)
}

/// Profile of draining a grouping table of `slots` allocated slots and
/// `groups` live keys on `table_kind` into key-sorted output: scan the
/// table sequentially, sort the live entries, stream them out to DRAM.
pub fn hash_drain(slots: usize, groups: usize, table_kind: MemKind) -> AccessProfile {
    let m = groups as f64;
    let sort_cycles = m * ceil_log2(groups);
    AccessProfile::new()
        .seq(table_kind, slots as f64 * HASH_SLOT_BYTES)
        .seq(MemKind::Dram, m * HASH_SLOT_BYTES)
        .cpu(sort_cycles + m * REDUCE_CYCLES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::{CostModel, MachineConfig};

    /// The calibration targets from Figure 2 of the paper, within loose
    /// tolerances: these pin the model to the published end-points.
    #[test]
    fn fig2_endpoints_hold() {
        let m = CostModel::new(MachineConfig::knl());
        let n = 100_000_000usize;

        // Figure 2 measures the classic multipass merge-sort kernel — the
        // microbenchmark that motivates KPAs — not the single-pass
        // merge-path engine sort.
        let sort_hbm = m.throughput(&sort_multipass(n, MemKind::Hbm), 64, n as u64) / 1e6;
        let sort_dram = m.throughput(&sort_multipass(n, MemKind::Dram), 64, n as u64) / 1e6;
        let hash_hbm = m.throughput(&hash_group(n, MemKind::Hbm), 64, n as u64) / 1e6;
        let hash_dram = m.throughput(&hash_group(n, MemKind::Dram), 64, n as u64) / 1e6;

        // Paper: sort-HBM ~240 M pairs/s at 64 cores, far ahead of hash.
        assert!(sort_hbm > 180.0 && sort_hbm < 320.0, "sort HBM {sort_hbm}");
        // Sort on DRAM is bandwidth-capped near ~110 M pairs/s.
        assert!(
            sort_dram > 80.0 && sort_dram < 140.0,
            "sort DRAM {sort_dram}"
        );
        // Hash lands in the 130-180 M band and beats sort on DRAM at 64 cores.
        assert!(hash_dram > sort_dram, "hash must win on DRAM at 64 cores");
        assert!(hash_hbm < sort_hbm, "sort must win on HBM");
        // Hash barely benefits from HBM (paper: ~10%).
        assert!((hash_hbm - hash_dram).abs() / hash_dram < 0.2);
    }

    #[test]
    fn fig2_crossover_lies_between_32_and_64_cores() {
        let m = CostModel::new(MachineConfig::knl());
        let n = 100_000_000usize;
        let sort_wins_at = |c: u32| {
            m.throughput(&sort_multipass(n, MemKind::Dram), c, n as u64)
                > m.throughput(&hash_group(n, MemKind::Dram), c, n as u64)
        };
        assert!(
            sort_wins_at(32),
            "sort should still win on DRAM at 32 cores"
        );
        assert!(!sort_wins_at(64), "hash should win on DRAM at 64 cores");
    }

    #[test]
    fn low_parallelism_hides_hbm_benefit() {
        // Paper Fig. 2 observation 2: under 16 cores, sort on HBM ~= DRAM.
        let m = CostModel::new(MachineConfig::knl());
        let n = 10_000_000usize;
        let hbm = m.throughput(&sort_multipass(n, MemKind::Hbm), 8, n as u64);
        let dram = m.throughput(&sort_multipass(n, MemKind::Dram), 8, n as u64);
        assert!((hbm - dram).abs() / dram < 0.05);
    }

    /// `sort_chunked` keeps the streamed bytes of one big sort but only
    /// the comparison depth of a chunk-sized run.
    #[test]
    fn chunked_sort_moves_same_bytes_with_shallower_comparisons() {
        let n = 1 << 20;
        let whole = sort(n, MemKind::Hbm);
        let chunked = sort_chunked(n, n / 16, MemKind::Hbm);
        assert!((chunked.bytes_on(MemKind::Hbm) - whole.bytes_on(MemKind::Hbm)).abs() < 1.0);
        assert!(chunked.cpu_cycles < whole.cpu_cycles);
        // A single chunk degenerates to the whole-window sort.
        let one = sort_chunked(n, n, MemKind::Hbm);
        assert!((one.cpu_cycles - whole.cpu_cycles).abs() < 1.0);
    }

    /// Growth averaging: resident tables charge identically to
    /// `hash_group_carded`; spilled tables charge strictly less (early
    /// inserts ran resident) but never less than the resident floor.
    #[test]
    fn grown_hash_sits_between_resident_and_final_miss() {
        let n = 1 << 20;
        let resident_groups = 10_000; // ~0.3 MiB table, fully resident
        let grown = hash_group_grown(n, resident_groups, MemKind::Hbm);
        let carded = hash_group_carded(n, resident_groups, MemKind::Hbm);
        assert!((grown.cpu_cycles - carded.cpu_cycles).abs() < 1.0);

        let spilled_groups = 4_000_000; // ~130 MiB final table
        let grown = hash_group_grown(n, spilled_groups, MemKind::Hbm);
        let carded = hash_group_carded(n, spilled_groups, MemKind::Hbm);
        let floor = hash_group_carded(n, resident_groups, MemKind::Hbm);
        assert!(grown.cpu_cycles < carded.cpu_cycles);
        assert!(grown.cpu_cycles > floor.cpu_cycles);
    }

    /// The integer `ceil(log2)` sites equal the `f64` forms they replaced
    /// for every `n < 2^40`: all of `0..2^16`, then each power of two, its
    /// neighbours and a spread of values inside every binade.
    #[test]
    fn integer_log2_matches_the_float_form() {
        let old_levels = |n: usize| {
            if n <= SORT_BLOCK as usize {
                0.0
            } else {
                ((n as f64) / SORT_BLOCK).log2().ceil()
            }
        };
        let old_ceil = |n: usize| (n as f64).log2().ceil();
        assert_eq!(SORT_BLOCK_LEVELS, SORT_BLOCK.log2());
        let small = 0..1usize << 16;
        let binades = (16..40).flat_map(|k: u32| {
            let p = 1usize << k;
            let step = (p / 997).max(1);
            [p - 1, p, p + 1, 2 * p - 1]
                .into_iter()
                .chain((p..2 * p).step_by(step))
        });
        for n in small.chain(binades) {
            assert_eq!(sort_merge_levels(n), old_levels(n), "levels {n}");
            assert_eq!(ceil_log2(n).max(1.0), old_ceil(n).max(1.0), "kway {n}");
            if n > 1 {
                assert_eq!(ceil_log2(n), old_ceil(n), "drain {n}");
            }
        }
    }

    #[test]
    fn engine_sort_charges_exactly_two_passes() {
        let n = 1_000_000usize;
        let p = sort(n, MemKind::Hbm);
        assert_eq!(
            p.seq_bytes[MemKind::Hbm.index()],
            n as f64 * 2.0 * PAIR_BYTES * SORT_PASSES,
            "block pass + one merge-path pass"
        );
        // Bytes no longer grow with input size beyond linear; the
        // multipass structure pays one extra pass per doubling.
        let multi = sort_multipass(n, MemKind::Hbm);
        assert!(multi.seq_bytes[MemKind::Hbm.index()] > 6.0 * p.seq_bytes[MemKind::Hbm.index()]);
        // Comparisons stay n log n, but the single streaming loop pays
        // far fewer cycles per level than one full pass per level.
        assert!(p.cpu_cycles < multi.cpu_cycles);
        assert_eq!(
            p.cpu_cycles,
            n as f64 * SORT_KERNEL_CYCLES_PER_LEVEL * (sort_merge_levels(n) + SORT_BLOCK_LEVELS)
        );
    }

    #[test]
    fn kway_merge_profile_moves_data_once() {
        let p = merge_kway(10_000, 8, MemKind::Hbm, MemKind::Hbm);
        assert_eq!(
            p.seq_bytes[MemKind::Hbm.index()],
            10_000.0 * PAIR_BYTES * 2.0,
            "one read + one write pass"
        );
        assert_eq!(p.cpu_cycles, 10_000.0 * MERGE_CYCLES_PER_PAIR * 3.0);
        // Wider merges cost comparisons, not passes.
        let wide = merge_kway(10_000, 64, MemKind::Hbm, MemKind::Hbm);
        assert_eq!(
            wide.seq_bytes[MemKind::Hbm.index()],
            p.seq_bytes[MemKind::Hbm.index()]
        );
        assert!(wide.cpu_cycles > p.cpu_cycles);
    }

    #[test]
    fn sort_levels_grow_logarithmically() {
        assert_eq!(sort_merge_levels(0), 0.0);
        assert_eq!(sort_merge_levels(64), 0.0);
        assert_eq!(sort_merge_levels(128), 1.0);
        assert_eq!(sort_merge_levels(64 * 1024), 10.0);
    }

    #[test]
    fn profiles_scale_linearly_in_rows() {
        let p1 = extract(1000, 24, MemKind::Hbm);
        let p2 = extract(2000, 24, MemKind::Hbm);
        assert!((p2.cpu_cycles - 2.0 * p1.cpu_cycles).abs() < 1e-9);
        assert!(
            (p2.seq_bytes[MemKind::Hbm.index()] - 2.0 * p1.seq_bytes[MemKind::Hbm.index()]).abs()
                < 1e-9
        );
    }

    #[test]
    fn empty_sort_profile_is_zero() {
        assert_eq!(sort(0, MemKind::Hbm), AccessProfile::new());
    }

    /// At Figure 2's 100 M-key end-point the cardinality-aware hash model
    /// must reproduce the calibrated [`hash_group`] within 1% — the
    /// recalibration refines the low-cardinality regime without moving the
    /// published end-point.
    #[test]
    fn carded_hash_degenerates_to_fig2_at_high_cardinality() {
        let n = 100_000_000usize;
        let a = hash_group(n, MemKind::Dram);
        let b = hash_group_carded(n, n, MemKind::Dram);
        let i = MemKind::Dram.index();
        assert!((a.seq_bytes[i] - b.seq_bytes[i]).abs() / a.seq_bytes[i] < 0.01);
        assert!((a.rand_accesses[i] - b.rand_accesses[i]).abs() / a.rand_accesses[i] < 0.01);
        assert!((a.cpu_cycles - b.cpu_cycles).abs() / a.cpu_cycles < 0.01);
    }

    /// A table of 1 000 keys (~34 KiB) is fully cache-resident: probes cost
    /// exactly the resident cycle count, no random accesses, one streaming
    /// pass over the input.
    #[test]
    fn resident_hash_probe_is_compute_trivial() {
        let n = 1_000_000usize;
        let p = hash_group_carded(n, 1_000, MemKind::Hbm);
        assert_eq!(p.cpu_cycles, n as f64 * HASH_CYCLES_RESIDENT);
        assert_eq!(p.rand_accesses[MemKind::Hbm.index()], 0.0);
        assert_eq!(p.seq_bytes[MemKind::Hbm.index()], n as f64 * PAIR_BYTES);
    }

    /// The sort-vs-hash crossover the adaptive GroupBy exploits, for
    /// count-like aggregation (the YSB shape): the sort path must still
    /// dereference every pair's value pointer in the keyed reduction, while
    /// the hash path touches keys only. On HBM at 64 cores resident-table
    /// hashing wins at low cardinality, loses once the table spills out of
    /// cache, and the crossover sits between 256 Ki and 1 Mi distinct keys.
    #[test]
    fn grouping_crossover_sits_near_half_a_million_keys() {
        let m = CostModel::new(MachineConfig::knl());
        let n = 8_000_000usize;
        let sort_secs = {
            let p = sort(n, MemKind::Hbm).merge(&reduce_keyed(n, MemKind::Hbm));
            m.time_secs(&p, 64)
        };
        let hash_secs =
            |groups: usize| m.time_secs(&hash_group_carded(n, groups, MemKind::Hbm), 64);
        assert!(hash_secs(1_000) < sort_secs, "hash must win at 1k keys");
        assert!(hash_secs(65_536) < sort_secs, "hash must win at 64k keys");
        assert!(hash_secs(4_000_000) > sort_secs, "sort must win at 4M keys");
        assert!(hash_secs(256 * 1024) < sort_secs, "crossover above 256k");
        assert!(hash_secs(1 << 20) > sort_secs, "crossover below 1M");
        // For sum-like kinds both paths pay the same value gather, which
        // dominates under perfect overlap: hashing cannot lose, but the
        // count-style advantage is what the adaptive operator exploits.
    }

    #[test]
    fn resident_fraction_is_monotone_and_clamped() {
        assert_eq!(hash_resident_fraction(1), 1.0);
        assert_eq!(hash_resident_fraction(100_000), 1.0);
        let half = hash_resident_fraction(1 << 20);
        assert!(half < 1.0 && half > 0.0);
        assert!(hash_resident_fraction(1 << 24) < half);
    }

    #[test]
    fn sketch_and_drain_profiles_scale_linearly() {
        let s1 = sketch(1000, MemKind::Hbm);
        let s2 = sketch(2000, MemKind::Hbm);
        assert!((s2.cpu_cycles - 2.0 * s1.cpu_cycles).abs() < 1e-9);
        let d = hash_drain(4096, 1000, MemKind::Dram);
        assert!(d.seq_bytes[MemKind::Dram.index()] > 0.0);
        assert!(d.cpu_cycles > 0.0);
        assert_eq!(hash_drain(0, 0, MemKind::Dram).cpu_cycles, 0.0);
    }
}
