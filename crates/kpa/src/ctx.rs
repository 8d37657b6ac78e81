use sbx_pool::WorkerPool;
use sbx_simmem::{AccessProfile, MemEnv, MemKind};

/// Primitive groups the observability layer breaks KPA byte traffic down by
/// (paper Table 2 / DESIGN.md §10). Primitives outside these groups (select,
/// key-swap, partition, reduce, hash, join) are charged but not grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimGroup {
    /// Extract / extract-fused: building KPAs out of record bundles.
    Extract,
    /// In-place KPA sort.
    Sort,
    /// Two-way and multi-way KPA merge.
    Merge,
    /// Materializing a KPA back into a record bundle.
    Materialize,
}

impl PrimGroup {
    /// Number of groups (size of a tally array).
    pub const COUNT: usize = 4;

    /// Dense index for per-group tables.
    pub fn index(self) -> usize {
        match self {
            PrimGroup::Extract => 0,
            PrimGroup::Sort => 1,
            PrimGroup::Merge => 2,
            PrimGroup::Materialize => 3,
        }
    }

    /// Metric-name label (`op.<idx>.<name>.<label>_bytes`).
    pub fn label(self) -> &'static str {
        match self {
            PrimGroup::Extract => "extract",
            PrimGroup::Sort => "sort",
            PrimGroup::Merge => "merge",
            PrimGroup::Materialize => "materialize",
        }
    }
}

/// Execution context threaded through every primitive: access to the
/// hybrid-memory environment plus an accumulator for the task's
/// [`AccessProfile`].
///
/// The engine creates one `ExecCtx` per scheduled task, runs the task's
/// primitives, then takes the accumulated profile to charge the round's
/// cost model and the bandwidth monitor over the task's simulated
/// execution interval.
///
/// # Example
///
/// ```
/// use sbx_kpa::ExecCtx;
/// use sbx_simmem::{AccessProfile, MachineConfig, MemEnv, MemKind};
///
/// let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
/// let mut ctx = ExecCtx::new(&env);
/// ctx.charge(&AccessProfile::new().seq(MemKind::Hbm, 128.0));
/// let p = ctx.take_profile();
/// assert_eq!(p.seq_bytes[MemKind::Hbm.index()], 128.0);
/// assert_eq!(ctx.take_profile(), AccessProfile::new());
/// ```
#[derive(Debug)]
pub struct ExecCtx {
    env: MemEnv,
    profile: AccessProfile,
    /// Bytes moved per [`PrimGroup`], drained by the engine into per-operator
    /// counters after each invocation. Fixed-size: no allocation on the hot
    /// path.
    tally: [f64; PrimGroup::COUNT],
    /// Worker pool the grouping kernels fan out on; serial by default.
    pool: WorkerPool,
}

impl ExecCtx {
    /// A fresh context over `env` with an empty profile and a serial
    /// worker pool (primitives without an explicit thread count run on
    /// the calling thread).
    pub fn new(env: &MemEnv) -> Self {
        Self::with_pool(env, WorkerPool::serial())
    }

    /// A fresh context over `env` drawing kernel parallelism from `pool`
    /// (the engine shares one pool across every task's context).
    pub fn with_pool(env: &MemEnv, pool: WorkerPool) -> Self {
        ExecCtx {
            env: env.clone(),
            profile: AccessProfile::new(),
            tally: [0.0; PrimGroup::COUNT],
            pool,
        }
    }

    /// The hybrid-memory environment.
    pub fn env(&self) -> &MemEnv {
        &self.env
    }

    /// The worker pool grouping kernels (sort/merge/join) fan out on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Accumulates `p` into the task profile.
    pub fn charge(&mut self, p: &AccessProfile) {
        self.profile = self.profile.merge(p);
    }

    /// Accumulates `p` and attributes its byte traffic (across both tiers)
    /// to the primitive group `group` for per-operator metrics.
    pub fn charge_as(&mut self, group: PrimGroup, p: &AccessProfile) {
        self.tally[group.index()] += p.bytes_on(MemKind::Hbm) + p.bytes_on(MemKind::Dram);
        self.charge(p);
    }

    /// Returns bytes tallied per [`PrimGroup`] since the last take,
    /// resetting the tally.
    pub fn take_tally(&mut self) -> [f64; PrimGroup::COUNT] {
        std::mem::take(&mut self.tally)
    }

    /// Returns the accumulated profile, resetting the accumulator.
    pub fn take_profile(&mut self) -> AccessProfile {
        std::mem::take(&mut self.profile)
    }

    /// The profile accumulated so far, without resetting.
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::{MachineConfig, MemKind};

    #[test]
    fn charges_accumulate_until_taken() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
        let mut ctx = ExecCtx::new(&env);
        ctx.charge(&AccessProfile::new().cpu(10.0));
        ctx.charge(&AccessProfile::new().cpu(5.0).rand(MemKind::Dram, 2.0));
        assert_eq!(ctx.profile().cpu_cycles, 15.0);
        let p = ctx.take_profile();
        assert_eq!(p.rand_accesses[MemKind::Dram.index()], 2.0);
        assert_eq!(ctx.profile().cpu_cycles, 0.0);
    }

    #[test]
    fn charge_as_tallies_bytes_by_group() {
        let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
        let mut ctx = ExecCtx::new(&env);
        ctx.charge_as(
            PrimGroup::Sort,
            &AccessProfile::new().seq(MemKind::Hbm, 100.0),
        );
        ctx.charge_as(
            PrimGroup::Sort,
            &AccessProfile::new().rand(MemKind::Dram, 2.0), // 2 cache lines
        );
        ctx.charge_as(
            PrimGroup::Merge,
            &AccessProfile::new().seq(MemKind::Dram, 7.0),
        );
        let tally = ctx.take_tally();
        assert_eq!(tally[PrimGroup::Sort.index()], 100.0 + 2.0 * 64.0);
        assert_eq!(tally[PrimGroup::Merge.index()], 7.0);
        assert_eq!(tally[PrimGroup::Extract.index()], 0.0);
        // Taking resets; profile accumulation is unaffected.
        assert_eq!(ctx.take_tally(), [0.0; PrimGroup::COUNT]);
        assert!(ctx.profile().seq_bytes[MemKind::Hbm.index()] > 0.0);
    }
}
