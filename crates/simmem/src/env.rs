use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sbx_obs::{Counter, MetricsRegistry};

use crate::{
    AccessProfile, BandwidthMonitor, CostModel, MachineConfig, MemKind, MemPool, SimClock,
};

/// Fraction of HBM held back for critical-path (`Urgent`) allocations.
const HBM_RESERVE_FRACTION: f64 = 0.05;

#[derive(Debug)]
struct EnvInner {
    machine: MachineConfig,
    pools: [MemPool; 2],
    monitor: BandwidthMonitor,
    clock: SimClock,
    cost: CostModel,
    /// Cumulative modelled traffic per tier (`bw.<kind>.total_bytes`).
    traffic: [Counter; 2],
    /// KPA allocations that fell back from HBM to DRAM (`pool.hbm.spills`).
    spills: Counter,
    /// The same spill count, kept in an always-on atomic so consumers that
    /// must work under a no-op registry (the flight recorder's detectors)
    /// see the real number.
    spill_count: AtomicU64,
    /// Record bundles allocated against this environment and not yet
    /// dropped (see [`MemEnv::live_bundles`]).
    live_bundles: AtomicU64,
    /// Shadow-state table for the pointer-provenance sanitizer.
    #[cfg(feature = "sanitize")]
    sanitizer: sbx_sanitize::Sanitizer,
}

/// The shared hybrid-memory environment: one pool per tier, a bandwidth
/// monitor, a simulated clock and the machine cost model.
///
/// `MemEnv` is cheaply cloneable (internally `Arc`) and is threaded through
/// every primitive and runtime component; it is the single place where the
/// simulation substitutes for the paper's KNL hardware.
///
/// # Example
///
/// ```
/// use sbx_simmem::{AccessProfile, MachineConfig, MemEnv, MemKind};
///
/// let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
/// let profile = AccessProfile::new().seq(MemKind::Hbm, 1e6).cpu(1e5);
/// let secs = env.charge(&profile, 16);
/// assert!(secs > 0.0);
/// assert!(env.monitor().total_bytes(MemKind::Hbm) >= 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct MemEnv {
    inner: Arc<EnvInner>,
}

/// Keeps one record bundle counted in [`MemEnv::live_bundles`]; dropping
/// the token uncounts it.
#[derive(Debug)]
pub struct BundleToken {
    env: Arc<EnvInner>,
}

impl Drop for BundleToken {
    fn drop(&mut self) {
        self.env.live_bundles.fetch_sub(1, Ordering::AcqRel);
    }
}

impl MemEnv {
    /// Builds pools, monitor and cost model for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        MemEnv::new_observed(machine, &MetricsRegistry::noop())
    }

    /// Like [`MemEnv::new`], but registers pool instruments plus per-kind
    /// traffic counters (`bw.<kind>.total_bytes`) and the HBM→DRAM spill
    /// counter (`pool.hbm.spills`) in `registry`. With a no-op registry this
    /// is identical to `new`.
    pub fn new_observed(machine: MachineConfig, registry: &MetricsRegistry) -> Self {
        let pools = [
            MemPool::new_observed(
                MemKind::Hbm,
                machine.spec(MemKind::Hbm),
                HBM_RESERVE_FRACTION,
                registry,
            ),
            MemPool::new_observed(MemKind::Dram, machine.spec(MemKind::Dram), 0.0, registry),
        ];
        let traffic = [
            registry.counter("bw.hbm.total_bytes"),
            registry.counter("bw.dram.total_bytes"),
        ];
        MemEnv {
            inner: Arc::new(EnvInner {
                cost: CostModel::new(machine.clone()),
                pools,
                monitor: BandwidthMonitor::new(),
                clock: SimClock::new(),
                machine,
                traffic,
                spills: registry.counter("pool.hbm.spills"),
                spill_count: AtomicU64::new(0),
                live_bundles: AtomicU64::new(0),
                #[cfg(feature = "sanitize")]
                sanitizer: sbx_sanitize::Sanitizer::new(),
            }),
        }
    }

    /// The pointer-provenance shadow table beside this environment's pools.
    /// Every allocation created against this environment registers here, and
    /// every KPA pointer resolution validates against it.
    #[cfg(feature = "sanitize")]
    pub fn sanitizer(&self) -> &sbx_sanitize::Sanitizer {
        &self.inner.sanitizer
    }

    /// Records one HBM→DRAM allocation fallback (a KPA that could not fit in
    /// HBM and was spilled to DRAM). Called by the KPA allocator.
    pub fn note_spill(&self) {
        self.inner.spills.incr();
        self.inner.spill_count.fetch_add(1, Ordering::AcqRel);
    }

    /// Cumulative HBM→DRAM spill fallbacks, counted regardless of whether a
    /// metrics registry is attached. Equal to the `pool.hbm.spills` counter
    /// whenever one is active.
    pub fn spill_count(&self) -> u64 {
        self.inner.spill_count.load(Ordering::Acquire)
    }

    /// Counts one record bundle as alive in this environment until the
    /// returned token drops. The bundle constructor holds the token, so the
    /// count follows the reference-counted reclamation protocol (paper
    /// §5.1) per environment — concurrent engines never see each other's
    /// bundles.
    pub fn bundle_token(&self) -> BundleToken {
        self.inner.live_bundles.fetch_add(1, Ordering::AcqRel);
        BundleToken {
            env: Arc::clone(&self.inner),
        }
    }

    /// Number of record bundles of this environment currently alive.
    ///
    /// Useful for asserting that reclamation frees every bundle once no KPA
    /// points into it.
    pub fn live_bundles(&self) -> u64 {
        self.inner.live_bundles.load(Ordering::Acquire)
    }

    /// The machine configuration this environment simulates.
    pub fn machine(&self) -> &MachineConfig {
        &self.inner.machine
    }

    /// The allocator for `kind`.
    pub fn pool(&self, kind: MemKind) -> &MemPool {
        &self.inner.pools[kind.index()]
    }

    /// The memory-traffic monitor.
    pub fn monitor(&self) -> &BandwidthMonitor {
        &self.inner.monitor
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The timing model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Accounts one primitive execution: records its traffic in the
    /// bandwidth monitor (spread over the execution interval) and advances
    /// the simulated clock by its modelled duration at `cores` cores.
    ///
    /// Returns the simulated duration in seconds.
    pub fn charge(&self, profile: &AccessProfile, cores: u32) -> f64 {
        let secs = self.inner.cost.time_secs(profile, cores);
        let dur_ns = (secs * 1e9) as u64;
        let start = self.inner.clock.now_ns();
        for kind in MemKind::ALL {
            let bytes = profile.bytes_on(kind) as u64;
            self.inner.monitor.record_spread(kind, bytes, start, dur_ns);
            self.inner.traffic[kind.index()].add(bytes);
        }
        self.inner.clock.advance(dur_ns);
        secs
    }

    /// Like [`MemEnv::charge`] but only records traffic without advancing
    /// the clock — used when several tasks execute concurrently and the
    /// caller advances the clock once for the whole batch.
    pub fn charge_traffic(&self, profile: &AccessProfile, start_ns: u64, dur_ns: u64) {
        for kind in MemKind::ALL {
            let bytes = profile.bytes_on(kind) as u64;
            self.inner
                .monitor
                .record_spread(kind, bytes, start_ns, dur_ns);
            self.inner.traffic[kind.index()].add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_match_machine_capacities() {
        let m = MachineConfig::knl().scaled(1.0 / 1024.0);
        let env = MemEnv::new(m.clone());
        assert_eq!(
            env.pool(MemKind::Hbm).capacity_bytes(),
            m.hbm.capacity_bytes
        );
        assert_eq!(
            env.pool(MemKind::Dram).capacity_bytes(),
            m.dram.capacity_bytes
        );
    }

    #[test]
    fn charge_advances_clock_and_records_traffic() {
        let env = MemEnv::new(MachineConfig::knl());
        let p = AccessProfile::new().seq(MemKind::Dram, 80e9); // 1 s at saturation
        let secs = env.charge(&p, 64);
        assert!((secs - 1.0).abs() < 1e-9);
        assert_eq!(env.clock().now_ns(), 1_000_000_000);
        assert_eq!(env.monitor().total_bytes(MemKind::Dram), 80_000_000_000);
    }

    #[test]
    fn observed_env_counts_traffic_and_spills() {
        let reg = MetricsRegistry::active();
        let env = MemEnv::new_observed(MachineConfig::knl(), &reg);
        let p = AccessProfile::new()
            .seq(MemKind::Hbm, 1000.0)
            .seq(MemKind::Dram, 500.0);
        env.charge(&p, 64);
        env.charge_traffic(&p, 0, 1_000);
        env.note_spill();
        let dump = reg.snapshot();
        assert_eq!(dump.counter("bw.hbm.total_bytes"), Some(2000));
        assert_eq!(dump.counter("bw.dram.total_bytes"), Some(1000));
        assert_eq!(dump.counter("pool.hbm.spills"), Some(1));
        assert!(dump.counter("pool.hbm.allocs").is_some());
    }

    #[test]
    fn live_bundles_follow_tokens_per_env() {
        let env = MemEnv::new(MachineConfig::knl());
        let other = MemEnv::new(MachineConfig::knl());
        let a = env.bundle_token();
        let b = env.clone().bundle_token();
        assert_eq!(env.live_bundles(), 2);
        assert_eq!(other.live_bundles(), 0, "counts are per environment");
        drop(a);
        assert_eq!(env.live_bundles(), 1);
        drop(b);
        assert_eq!(env.live_bundles(), 0);
    }

    #[test]
    fn clones_share_state() {
        let env = MemEnv::new(MachineConfig::knl());
        let env2 = env.clone();
        env.clock().advance(42);
        assert_eq!(env2.clock().now_ns(), 42);
    }
}
