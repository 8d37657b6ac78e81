use crate::MemKind;

/// Characteristics of one memory tier (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSpec {
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak sequential bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Idle load-to-use latency in nanoseconds.
    pub latency_ns: f64,
}

impl MemSpec {
    /// Convenience constructor from GiB / (GB/s) / ns.
    pub fn new(capacity_gib: f64, bandwidth_gb_per_sec: f64, latency_ns: f64) -> Self {
        MemSpec {
            capacity_bytes: (capacity_gib * (1u64 << 30) as f64) as u64,
            bandwidth_bytes_per_sec: bandwidth_gb_per_sec * 1e9,
            latency_ns,
        }
    }
}

/// A machine model: core count/frequency plus the two memory tiers.
///
/// The presets encode the two evaluation machines from Table 3 of the paper:
/// [`MachineConfig::knl`] (Intel Xeon Phi 7210, the hybrid-memory target) and
/// [`MachineConfig::x56`] (a 4-socket Broadwell Xeon with DRAM only).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable machine name.
    pub name: String,
    /// Number of physical cores the engine may use.
    pub cores: u32,
    /// Core clock in GHz.
    pub core_ghz: f64,
    /// Average outstanding memory requests a single core sustains on
    /// dependent random-access chains (memory-level parallelism).
    pub mlp: f64,
    /// Peak sequential streaming rate a single core can generate, in bytes
    /// per second. Aggregate sequential bandwidth is
    /// `min(cores * per_core_stream, tier bandwidth)`; this is what makes
    /// HBM useless at low parallelism (paper §2.2, Fig. 2 observation 2).
    pub per_core_stream_bytes_per_sec: f64,
    /// HBM tier. On machines without HBM this equals [`Self::dram`] and
    /// [`Self::has_hbm`] is `false`.
    pub hbm: MemSpec,
    /// DRAM tier.
    pub dram: MemSpec,
    /// Whether the machine really has a distinct HBM tier.
    pub has_hbm: bool,
    /// Per-record overhead, in this machine's cycles, of a Flink-class
    /// row-at-a-time engine (deserialization, per-record operator
    /// dispatch, managed-runtime bookkeeping), hash probe included; what
    /// the engine's row mode charges per ingested record. Calibrated to
    /// the paper's §7.1: an ~18x per-core YSB gap to StreamBox-HBM on KNL,
    /// and 10 GbE saturated with 32 of 56 X56 cores.
    pub row_cycles_per_record: f64,
}

impl MachineConfig {
    /// The paper's Knights Landing host: 64 cores @ 1.3 GHz, 16 GB HBM
    /// (375 GB/s, 172 ns), 96 GB DDR4 (80 GB/s, 143 ns).
    pub fn knl() -> Self {
        MachineConfig {
            name: "KNL Xeon Phi 7210".to_string(),
            cores: 64,
            core_ghz: 1.3,
            mlp: 10.0,
            per_core_stream_bytes_per_sec: 5.0e9,
            hbm: MemSpec::new(16.0, 375.0, 172.0),
            dram: MemSpec::new(96.0, 80.0, 143.0),
            has_hbm: true,
            row_cycles_per_record: 5_900.0,
        }
    }

    /// The paper's comparison Xeon: 56 Broadwell cores @ 2.0 GHz, 256 GB
    /// DDR4 (87 GB/s, 131 ns), no HBM.
    pub fn x56() -> Self {
        let dram = MemSpec::new(256.0, 87.0, 131.0);
        MachineConfig {
            name: "X56 Xeon E7-4830v4".to_string(),
            cores: 56,
            core_ghz: 2.0,
            mlp: 10.0,
            per_core_stream_bytes_per_sec: 8.0e9,
            hbm: dram,
            dram,
            has_hbm: false,
            // Wide out-of-order cores retire the row-at-a-time instruction
            // stream about twice as fast per cycle as KNL's simple cores.
            row_cycles_per_record: 3_000.0,
        }
    }

    /// Returns a copy with both capacities multiplied by `factor`.
    ///
    /// Tests and examples run at a fraction of the paper's 16 GB / 96 GB so
    /// that capacity-pressure behaviour (HBM exhaustion, spilling) can be
    /// exercised with small inputs.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut c = self.clone();
        c.hbm.capacity_bytes = (c.hbm.capacity_bytes as f64 * factor).max(1.0) as u64;
        c.dram.capacity_bytes = (c.dram.capacity_bytes as f64 * factor).max(1.0) as u64;
        c
    }

    /// Returns a copy with a different core count (for core-count sweeps).
    pub fn with_cores(&self, cores: u32) -> Self {
        let mut c = self.clone();
        c.cores = cores;
        c
    }

    /// The [`MemSpec`] for a tier.
    pub fn spec(&self, kind: MemKind) -> MemSpec {
        match kind {
            MemKind::Hbm => self.hbm,
            MemKind::Dram => self.dram,
        }
    }
}

impl Default for MachineConfig {
    /// Defaults to the paper's KNL evaluation machine.
    fn default() -> Self {
        MachineConfig::knl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_matches_table3() {
        let knl = MachineConfig::knl();
        assert_eq!(knl.cores, 64);
        assert_eq!(knl.hbm.capacity_bytes, 16 << 30);
        assert_eq!(knl.dram.capacity_bytes, 96 << 30);
        assert!(knl.hbm.bandwidth_bytes_per_sec > 4.0 * knl.dram.bandwidth_bytes_per_sec);
        // HBM has *higher* latency than DRAM -- the defining asymmetry.
        assert!(knl.hbm.latency_ns > knl.dram.latency_ns);
        assert!(knl.has_hbm);
    }

    #[test]
    fn x56_is_uniform_memory() {
        let x = MachineConfig::x56();
        assert!(!x.has_hbm);
        assert_eq!(x.spec(MemKind::Hbm), x.spec(MemKind::Dram));
    }

    #[test]
    fn x56_cores_are_faster_per_record() {
        let (knl, x56) = (MachineConfig::knl(), MachineConfig::x56());
        assert!(x56.row_cycles_per_record < knl.row_cycles_per_record);
        let per_core = |m: &MachineConfig| m.core_ghz / m.row_cycles_per_record;
        assert!(per_core(&x56) > per_core(&knl));
    }

    #[test]
    fn scaled_shrinks_capacity_only() {
        let knl = MachineConfig::knl();
        let s = knl.scaled(1.0 / 16.0);
        assert_eq!(s.hbm.capacity_bytes, 1 << 30);
        assert_eq!(
            s.hbm.bandwidth_bytes_per_sec,
            knl.hbm.bandwidth_bytes_per_sec
        );
        assert_eq!(s.cores, knl.cores);
    }

    #[test]
    fn with_cores_overrides() {
        assert_eq!(MachineConfig::knl().with_cores(16).cores, 16);
    }
}
