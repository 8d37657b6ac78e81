use std::fmt;

/// The two tiers of the hybrid memory system.
///
/// StreamBox-HBM places Key Pointer Arrays in [`MemKind::Hbm`] and full
/// record bundles in [`MemKind::Dram`]; the demand-balance knob (paper §5)
/// decides per allocation which tier a new KPA lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemKind {
    /// 3D-stacked high-bandwidth memory: high sequential bandwidth, small
    /// capacity, slightly higher latency than DRAM.
    Hbm,
    /// Commodity DDR4 DRAM: large capacity, limited bandwidth.
    Dram,
}

impl MemKind {
    /// Both memory kinds, in a fixed order convenient for per-kind tables.
    pub const ALL: [MemKind; 2] = [MemKind::Hbm, MemKind::Dram];

    /// Dense index (0 for HBM, 1 for DRAM) for per-kind arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MemKind::Hbm => 0,
            MemKind::Dram => 1,
        }
    }

    /// Lowercase label used in metric names (`pool.hbm.allocs`, ...).
    #[inline]
    pub fn label(self) -> &'static str {
        match self {
            MemKind::Hbm => "hbm",
            MemKind::Dram => "dram",
        }
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Hbm => f.write_str("HBM"),
            MemKind::Dram => f.write_str("DRAM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_dense_and_distinct() {
        assert_eq!(MemKind::Hbm.index(), 0);
        assert_eq!(MemKind::Dram.index(), 1);
        assert_eq!(MemKind::ALL[MemKind::Hbm.index()], MemKind::Hbm);
        assert_eq!(MemKind::ALL[MemKind::Dram.index()], MemKind::Dram);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemKind::Hbm.to_string(), "HBM");
        assert_eq!(MemKind::Dram.to_string(), "DRAM");
    }
}
