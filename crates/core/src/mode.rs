use std::fmt;

use sbx_kpa::profile;
use sbx_simmem::{AccessProfile, MachineConfig};

/// Which memory-management configuration the engine runs under: the four
/// axes of the paper's Figure 9 ablation, and the Flink-class engine of its
/// Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Full StreamBox-HBM: KPAs explicitly placed by the demand-balance
    /// knob, grouping on HBM.
    #[default]
    Hybrid,
    /// `StreamBox-HBM Caching`: KPA mechanisms retained, but placement is
    /// left to a hardware-managed cache — every KPA is first instantiated
    /// in DRAM and migrated, costing extra copies (paper: up to 23% lower
    /// throughput).
    CachingKpa,
    /// `StreamBox-HBM DRAM`: hybrid memory disabled; every KPA lives in
    /// DRAM, which saturates DRAM bandwidth (paper: −47% throughput).
    DramOnly,
    /// `StreamBox-HBM Caching NoKPA`: no extraction — grouping moves *full
    /// records* under a hardware-managed cache; this is StreamBox with
    /// sequential algorithms on cache-mode memory (paper: up to 7x slower).
    CachingNoKpa,
    /// The Flink-class comparison engine of the paper's §7.1: row at a
    /// time, hash grouping, no placement. Every allocation goes to DRAM, as
    /// in [`EngineMode::DramOnly`]; every ingested record pays
    /// [`EngineMode::ingest_profile`]; and every keyed aggregate groups in
    /// one DRAM hash table whatever its
    /// [`GroupingSpec`](crate::ops::GroupingSpec) says (a pane-combining
    /// aggregate keeps its sorted partials). Random-access hash work gains
    /// little from HBM, so one DRAM-placed mode models the whole class.
    Row,
}

impl EngineMode {
    /// What this mode charges per ingested bundle of `rows` records on
    /// `machine`: under [`EngineMode::Row`], the row engine's per-record
    /// overhead beyond the hash probe its grouping charges itself; nothing
    /// otherwise.
    pub fn ingest_profile(self, rows: usize, machine: &MachineConfig) -> AccessProfile {
        match self {
            EngineMode::Row => AccessProfile::new()
                .cpu(rows as f64 * (machine.row_cycles_per_record - profile::HASH_CYCLES)),
            _ => AccessProfile::new(),
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineMode::Hybrid => "StreamBox-HBM",
            EngineMode::CachingKpa => "StreamBox-HBM Caching",
            EngineMode::DramOnly => "StreamBox-HBM DRAM",
            EngineMode::CachingNoKpa => "StreamBox-HBM Caching NoKPA",
            EngineMode::Row => "Flink-class row engine",
        };
        f.write_str(s)
    }
}

/// Performance-impact tag of a task (paper §5): how soon the window the
/// task contributes to will be externalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ImpactTag {
    /// On the critical path of pipeline output (e.g. window-close
    /// aggregation). Always allocates from the reserved HBM pool.
    Urgent,
    /// Externalized in the near future (within the next two windows).
    High,
    /// Externalized in the far future.
    Low,
}

impl ImpactTag {
    /// Tags a task by how many windows ahead of the next-to-close window
    /// its data lies. `0` = the window currently being closed.
    pub fn from_window_distance(distance: u64) -> ImpactTag {
        match distance {
            0 => ImpactTag::Urgent,
            1 | 2 => ImpactTag::High,
            _ => ImpactTag::Low,
        }
    }
}

impl fmt::Display for ImpactTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ImpactTag::Urgent => "urgent",
            ImpactTag::High => "high",
            ImpactTag::Low => "low",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_distance_bands_match_paper() {
        assert_eq!(ImpactTag::from_window_distance(0), ImpactTag::Urgent);
        assert_eq!(ImpactTag::from_window_distance(1), ImpactTag::High);
        assert_eq!(ImpactTag::from_window_distance(2), ImpactTag::High);
        assert_eq!(ImpactTag::from_window_distance(3), ImpactTag::Low);
        assert_eq!(ImpactTag::from_window_distance(100), ImpactTag::Low);
    }

    #[test]
    fn urgent_orders_before_low() {
        assert!(ImpactTag::Urgent < ImpactTag::High);
        assert!(ImpactTag::High < ImpactTag::Low);
    }

    #[test]
    fn mode_display_matches_figure9_legend() {
        assert_eq!(EngineMode::Hybrid.to_string(), "StreamBox-HBM");
        assert_eq!(
            EngineMode::CachingNoKpa.to_string(),
            "StreamBox-HBM Caching NoKPA"
        );
        assert_eq!(EngineMode::Row.to_string(), "Flink-class row engine");
    }

    #[test]
    fn only_the_row_mode_charges_at_ingest() {
        for machine in [MachineConfig::knl(), MachineConfig::x56()] {
            let row = EngineMode::Row.ingest_profile(1_000, &machine);
            let beyond_probe = machine.row_cycles_per_record - profile::HASH_CYCLES;
            assert_eq!(row, AccessProfile::new().cpu(1_000.0 * beyond_probe));
            for mode in [
                EngineMode::Hybrid,
                EngineMode::CachingKpa,
                EngineMode::DramOnly,
                EngineMode::CachingNoKpa,
            ] {
                assert_eq!(mode.ingest_profile(1_000, &machine), AccessProfile::new());
            }
        }
    }
}
