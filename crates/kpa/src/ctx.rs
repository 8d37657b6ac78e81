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

/// The worker pool the close merge and the join scan once fanned out on,
/// now a unit: StreamBox parallelises across bundles and windows (paper
/// §3, §4.2), not inside one primitive, so every primitive runs on the
/// calling thread. It stays, with [`ExecCtx::with_pool`], for callers
/// written against it.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool;

impl WorkerPool {
    /// The pool; the lane count `_width` is ignored.
    pub fn new(_width: usize) -> Self {
        WorkerPool
    }
}

/// Execution context threaded through every primitive: access to the
/// hybrid-memory environment plus an accumulator for the task's
/// [`AccessProfile`].
///
/// The engine creates one `ExecCtx` per scheduled task, runs the task's
/// primitives, then takes the accumulated profile to charge the round's
/// cost model over the task's simulated execution interval.
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
}

impl ExecCtx {
    /// A fresh context over `env` with an empty profile.
    pub fn new(env: &MemEnv) -> Self {
        ExecCtx {
            env: env.clone(),
            profile: AccessProfile::new(),
            tally: [0.0; PrimGroup::COUNT],
        }
    }

    /// [`ExecCtx::new`]; `_pool` is ignored, as every primitive runs on the
    /// calling thread. It stays for callers written against the worker
    /// pool the close merge and the join scan once fanned out on.
    pub fn with_pool(env: &MemEnv, _pool: WorkerPool) -> Self {
        Self::new(env)
    }

    /// The hybrid-memory environment.
    pub fn env(&self) -> &MemEnv {
        &self.env
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
