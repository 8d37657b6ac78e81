use crate::{MachineConfig, MemKind};

/// Cache-line granularity charged per random access.
pub(crate) const LINE_BYTES: f64 = 64.0;

/// An instrumented description of the memory and compute work one primitive
/// execution performs.
///
/// Primitives in `sbx-kpa` build these from their input sizes; the
/// [`CostModel`] converts them into simulated time for a given core count.
/// Profiles are additive: summing profiles of sub-steps yields the profile
/// of the whole.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessProfile {
    /// Sequentially streamed bytes (reads + writes) per tier,
    /// indexed by [`MemKind::index`].
    pub seq_bytes: [f64; 2],
    /// Dependent random accesses (pointer dereferences, hash probes) per
    /// tier. Each access is charged one cache line and hides behind the
    /// machine's memory-level parallelism.
    pub rand_accesses: [f64; 2],
    /// CPU work in cycles (comparisons, hashing, arithmetic).
    pub cpu_cycles: f64,
}

impl AccessProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` of sequential traffic on `kind`; returns `self` for
    /// chaining.
    pub fn seq(mut self, kind: MemKind, bytes: f64) -> Self {
        self.seq_bytes[kind.index()] += bytes;
        self
    }

    /// Adds `accesses` random accesses on `kind`; returns `self`.
    pub fn rand(mut self, kind: MemKind, accesses: f64) -> Self {
        self.rand_accesses[kind.index()] += accesses;
        self
    }

    /// Adds CPU cycles; returns `self`.
    pub fn cpu(mut self, cycles: f64) -> Self {
        self.cpu_cycles += cycles;
        self
    }

    /// Component-wise sum of two profiles.
    pub fn merge(mut self, other: &AccessProfile) -> Self {
        for i in 0..2 {
            self.seq_bytes[i] += other.seq_bytes[i];
            self.rand_accesses[i] += other.rand_accesses[i];
        }
        self.cpu_cycles += other.cpu_cycles;
        self
    }

    /// Total bytes this profile moves on `kind` (sequential plus one line
    /// per random access) — what [`crate::MemEnv::charge_traffic`] adds to
    /// the tier's `bw.<kind>.total_bytes` counter.
    pub fn bytes_on(&self, kind: MemKind) -> f64 {
        self.seq_bytes[kind.index()] + self.rand_accesses[kind.index()] * LINE_BYTES
    }
}

/// Analytic timing model for the hybrid-memory machine.
///
/// This encodes the empirical behaviour of §2.2 of the paper:
///
/// * **Sequential** traffic on a tier runs at
///   `min(cores × per-core stream rate, tier bandwidth)` — HBM only pays off
///   with high parallelism, and DRAM saturates at ~16 cores on KNL.
/// * **Random** accesses are latency-bound: each core sustains `mlp`
///   outstanding misses, so the aggregate random rate is
///   `cores × mlp / latency`, additionally capped by tier bandwidth at one
///   cache line per access. HBM's *higher* latency means random-access
///   workloads see almost no benefit from it — the paper's key observation.
/// * **Compute** runs at `cores × frequency` cycles per second.
///
/// A task's time is the maximum of the three components (perfect overlap),
/// which reproduces the bandwidth-bound / compute-bound crossovers in
/// Figure 2.
#[derive(Debug, Clone)]
pub struct CostModel {
    machine: MachineConfig,
}

impl CostModel {
    /// A cost model for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        CostModel { machine }
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Aggregate sequential streaming rate on `kind` with `cores` cores,
    /// bytes per second.
    pub fn seq_rate(&self, kind: MemKind, cores: u32) -> f64 {
        let spec = self.machine.spec(kind);
        (cores as f64 * self.machine.per_core_stream_bytes_per_sec)
            .min(spec.bandwidth_bytes_per_sec)
    }

    /// Aggregate random-access rate on `kind` with `cores` cores, accesses
    /// per second.
    pub fn rand_rate(&self, kind: MemKind, cores: u32) -> f64 {
        let spec = self.machine.spec(kind);
        let latency_bound = cores as f64 * self.machine.mlp / (spec.latency_ns * 1e-9);
        let bw_bound = spec.bandwidth_bytes_per_sec / LINE_BYTES;
        latency_bound.min(bw_bound)
    }

    /// Aggregate compute rate with `cores` cores, cycles per second.
    pub fn cpu_rate(&self, cores: u32) -> f64 {
        cores as f64 * self.machine.core_ghz * 1e9
    }

    /// Simulated execution time of `profile` on `cores` cores, in seconds.
    ///
    /// Compute overlaps with memory, but within one tier sequential and
    /// random traffic serialize (they contend for the same channels), so a
    /// tier's delivered bandwidth never exceeds its hardware peak.
    pub fn time_secs(&self, profile: &AccessProfile, cores: u32) -> f64 {
        let cores = cores.max(1);
        let mut t: f64 = profile.cpu_cycles / self.cpu_rate(cores);
        for kind in MemKind::ALL {
            let i = kind.index();
            let mut kind_t = 0.0;
            if profile.seq_bytes[i] > 0.0 {
                kind_t += profile.seq_bytes[i] / self.seq_rate(kind, cores);
            }
            if profile.rand_accesses[i] > 0.0 {
                kind_t += profile.rand_accesses[i] / self.rand_rate(kind, cores);
            }
            t = t.max(kind_t);
        }
        t
    }

    /// Records per second for a job over `records` records, given its
    /// aggregate profile.
    pub fn throughput(&self, profile: &AccessProfile, cores: u32, records: u64) -> f64 {
        let t = self.time_secs(profile, cores);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            records as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn knl_model() -> CostModel {
        CostModel::new(MachineConfig::knl())
    }

    #[test]
    fn seq_rate_scales_then_saturates() {
        let m = knl_model();
        // 2 cores cannot tell HBM from DRAM apart (both core-limited).
        assert_eq!(m.seq_rate(MemKind::Hbm, 2), m.seq_rate(MemKind::Dram, 2));
        // DRAM saturates at its 80 GB/s well before 64 cores.
        assert_eq!(m.seq_rate(MemKind::Dram, 64), 80e9);
        // HBM keeps scaling much further.
        assert!(m.seq_rate(MemKind::Hbm, 64) > 3.0 * m.seq_rate(MemKind::Dram, 64));
    }

    #[test]
    fn random_access_prefers_lower_latency_dram() {
        let m = knl_model();
        // At low core counts random access is latency-bound, and DRAM's
        // lower latency wins: HBM shows no benefit (paper §2.2).
        assert!(m.rand_rate(MemKind::Dram, 8) > m.rand_rate(MemKind::Hbm, 8));
    }

    #[test]
    fn time_is_max_of_components() {
        let m = knl_model();
        let p = AccessProfile::new()
            .seq(MemKind::Dram, 80e9) // exactly 1 s of DRAM at saturation
            .cpu(1e9); // far less than 1 s of CPU at 64 cores
        let t = m.time_secs(&p, 64);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_cores_never_slower() {
        let m = knl_model();
        let p = AccessProfile::new()
            .seq(MemKind::Hbm, 1e9)
            .rand(MemKind::Dram, 1e6)
            .cpu(1e9);
        let mut last = f64::INFINITY;
        for cores in [2u32, 4, 8, 16, 32, 64] {
            let t = m.time_secs(&p, cores);
            assert!(t <= last + 1e-12, "time increased at {cores} cores");
            last = t;
        }
    }

    #[test]
    fn profile_builder_accumulates_and_merges() {
        let a = AccessProfile::new().seq(MemKind::Hbm, 100.0).cpu(5.0);
        let b = AccessProfile::new()
            .seq(MemKind::Hbm, 50.0)
            .rand(MemKind::Dram, 2.0);
        let c = a.merge(&b);
        assert_eq!(c.seq_bytes[MemKind::Hbm.index()], 150.0);
        assert_eq!(c.rand_accesses[MemKind::Dram.index()], 2.0);
        assert_eq!(c.cpu_cycles, 5.0);
        assert_eq!(c.bytes_on(MemKind::Dram), 2.0 * LINE_BYTES);
    }

    #[test]
    fn throughput_divides_records_by_time() {
        let m = knl_model();
        let p = AccessProfile::new().seq(MemKind::Dram, 80e9);
        let tput = m.throughput(&p, 64, 1_000_000);
        assert!((tput - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn zero_profile_is_infinitely_fast() {
        let m = knl_model();
        assert_eq!(m.time_secs(&AccessProfile::new(), 64), 0.0);
        assert!(m.throughput(&AccessProfile::new(), 64, 10).is_infinite());
    }
}
