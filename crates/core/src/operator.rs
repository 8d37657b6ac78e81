use std::sync::Arc;

use sbx_kpa::{profile, ExecCtx, FoldedWindow, Kpa};
use sbx_records::{Col, RecordBundle};
use sbx_simmem::{AccessProfile, AllocError, MemEnv, MemKind, Priority};

use crate::{DemandBalancer, EngineError, EngineMode, ImpactTag, Message};

/// Fraction of every byte of HBM traffic echoed onto DRAM under
/// hardware-managed caching (`CachingKpa`): KPAs are first instantiated in
/// DRAM and migrated by the cache. Calibrated to the paper's "up to 23%"
/// throughput loss (Fig. 9).
const CACHING_DRAM_ECHO: f64 = 0.75;

/// Cache-thrash amplification for `CachingNoKpa`: grouping full records
/// with a working set far beyond the HBM cache fetches from and writes back
/// to DRAM on every pass. Together with the record-width factor this yields
/// the paper's "up to 7x" gap (Fig. 9).
const NOKPA_THRASH: f64 = 2.5;

/// Per-task execution context handed to operators.
///
/// Wraps the primitive-level [`ExecCtx`] with the engine-level concerns:
/// the demand-balance placement decision for new KPAs, the task's
/// [`ImpactTag`], and the [`EngineMode`] cost adjustments for the
/// Figure-9 ablation configurations.
pub struct OpCtx<'a> {
    exec: ExecCtx,
    balancer: &'a mut DemandBalancer,
    mode: EngineMode,
    /// Impact tag of the task being executed.
    pub tag: ImpactTag,
    /// Engine events noted by operators during this task (e.g. adaptive
    /// grouping backend decisions); the engine drains them into
    /// `engine.<event>` counters after each task.
    events: Vec<&'static str>,
}

impl<'a> OpCtx<'a> {
    /// A context for one task. `_threads` is ignored, as every primitive
    /// runs on the calling thread; it stays for the tests and harnesses
    /// written against the worker pool it once sized.
    pub fn new(
        env: &MemEnv,
        balancer: &'a mut DemandBalancer,
        mode: EngineMode,
        _threads: usize,
        tag: ImpactTag,
    ) -> Self {
        OpCtx {
            exec: ExecCtx::new(env),
            balancer,
            mode,
            tag,
            events: Vec::new(),
        }
    }

    /// Notes a named engine event (surfaced as an `engine.<event>` counter
    /// by the engine's task loop; a plain buffer in standalone harnesses).
    pub fn note_event(&mut self, event: &'static str) {
        self.events.push(event);
    }

    /// Drains the events noted since the last call.
    pub fn take_events(&mut self) -> Vec<&'static str> {
        std::mem::take(&mut self.events)
    }

    /// The hybrid-memory environment.
    pub fn env(&self) -> MemEnv {
        self.exec.env().clone()
    }

    /// Direct access to the primitive execution context.
    pub fn exec(&mut self) -> &mut ExecCtx {
        &mut self.exec
    }

    /// Takes the profile accumulated by this task.
    pub fn take_profile(&mut self) -> AccessProfile {
        self.exec.take_profile()
    }

    /// Decides where a new KPA for this task should live.
    pub fn place(&mut self) -> (MemKind, Priority) {
        match self.mode {
            EngineMode::DramOnly => (MemKind::Dram, Priority::Normal),
            // Caching modes let the "hardware" fill HBM greedily.
            EngineMode::CachingKpa | EngineMode::CachingNoKpa => (MemKind::Hbm, Priority::Normal),
            EngineMode::Hybrid => self.balancer.place(self.tag),
        }
    }

    /// Runs a primitive closure and applies the engine-mode cost
    /// adjustments to the profile it charged.
    pub fn charged<R>(&mut self, record_bytes: usize, f: impl FnOnce(&mut ExecCtx) -> R) -> R {
        let held = self.exec.take_profile();
        let r = f(&mut self.exec);
        let delta = self.exec.take_profile();
        let adjusted = self.adjust(delta, record_bytes);
        self.exec.charge(&held.merge(&adjusted));
        r
    }

    fn adjust(&self, mut p: AccessProfile, record_bytes: usize) -> AccessProfile {
        match self.mode {
            EngineMode::Hybrid | EngineMode::DramOnly => p,
            EngineMode::CachingKpa => {
                // Hardware caching: every HBM byte was first written to and
                // read from DRAM by the migration machinery.
                let hbm = p.seq_bytes[MemKind::Hbm.index()];
                p.seq_bytes[MemKind::Dram.index()] += hbm * CACHING_DRAM_ECHO;
                p
            }
            EngineMode::CachingNoKpa => {
                // No extraction: grouping moves full records, and the
                // working set thrashes the HBM cache, so the widened
                // traffic lands on DRAM.
                let width = (record_bytes as f64 / profile::PAIR_BYTES).max(1.0);
                let total_seq: f64 = p.seq_bytes.iter().sum();
                p.seq_bytes[MemKind::Dram.index()] = total_seq * width * NOKPA_THRASH;
                p
            }
        }
    }

    /// Extracts a KPA from `bundle` at the placement chosen for this task.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn extract(&mut self, bundle: &Arc<RecordBundle>, col: Col) -> Result<Kpa, EngineError> {
        let (kind, prio) = self.place();
        let rb = bundle.schema().record_bytes();
        self.charged(rb, |e| Kpa::extract(e, bundle, col, kind, prio))
            .map_err(EngineError::from)
    }

    /// Extract fused with a filter predicate (`Filter`-style ParDo).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn extract_select(
        &mut self,
        bundle: &Arc<RecordBundle>,
        col: Col,
        pred: impl FnMut(u64) -> bool,
    ) -> Result<Kpa, EngineError> {
        let (kind, prio) = self.place();
        let rb = bundle.schema().record_bytes();
        self.charged(rb, |e| {
            Kpa::extract_select(e, bundle, col, kind, prio, pred)
        })
        .map_err(EngineError::from)
    }

    /// `Select` over a KPA (a non-producing ParDo, paper §4.2): swaps `col`
    /// in as the resident key when it is not, then keeps the pairs whose
    /// key satisfies `pred`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn select(
        &mut self,
        mut kpa: Kpa,
        col: Col,
        pred: impl FnMut(u64) -> bool,
    ) -> Result<Kpa, EngineError> {
        if kpa.resident() != col {
            self.charged(16, |e| kpa.key_swap(e, col));
        }
        let (_, prio) = self.place();
        self.charged(16, |e| kpa.select(e, prio, pred))
            .map_err(EngineError::from)
    }

    /// Sorts `kpa` in place on one lane, with this task's mode costs.
    ///
    /// # Errors
    ///
    /// None: [`Kpa::sort`] allocates nothing. The `Result` keeps the
    /// primitive's signature.
    pub fn sort(&mut self, kpa: &mut Kpa) -> Result<(), EngineError> {
        let rb = self.record_bytes_of(kpa);
        self.charged(rb, |e| kpa.sort(e, 1))
            .map_err(EngineError::from)
    }

    /// A merge of the sorted `kpas` — [`Kpa::merge_fold`] or
    /// [`Kpa::merge_gather`] — its output placed per this task and charged
    /// at the inputs' record width.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn merge<R>(
        &mut self,
        kpas: Vec<Kpa>,
        merge: impl FnOnce(&mut ExecCtx, Vec<Kpa>, MemKind, Priority) -> Result<R, AllocError>,
    ) -> Result<R, EngineError> {
        let (kind, prio) = self.place();
        let rb = kpas.first().map_or(16, |k| self.record_bytes_of(k));
        self.charged(rb, |e| merge(e, kpas, kind, prio))
            .map_err(EngineError::from)
    }

    /// A window of sorted `kpas` closed by [`Kpa::merge_gather`] of their
    /// records' column `col` into `sink`, merged as by [`OpCtx::merge`] and
    /// the keyed reduction charged after it, at 16 bytes a record; returns
    /// the merged KPA's stand-in, to hold until the output is placed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] when both tiers are exhausted.
    pub fn gather(
        &mut self,
        kpas: Vec<Kpa>,
        col: Col,
        sink: impl FnMut(u64, &mut [u64]),
    ) -> Result<FoldedWindow, EngineError> {
        let gather =
            |e: &mut _, kpas, kind, prio| Kpa::merge_gather(e, kpas, col, kind, prio, sink);
        let merged = self.merge(kpas, gather)?;
        self.charged(16, |e| merged.charge_reduce(e));
        Ok(merged)
    }

    fn record_bytes_of(&self, kpa: &Kpa) -> usize {
        if kpa.is_empty() || kpa.source_count() == 0 {
            16
        } else {
            kpa.schema().record_bytes()
        }
    }
}

/// A compound (declarative) stream operator.
///
/// Operators receive [`Message`]s — data on an input port or a watermark —
/// and emit messages for the next operator. Stateful operators buffer
/// per-window state and release it when a watermark closes the window.
pub trait Operator: Send {
    /// Operator name for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether every output row depends on one key's records alone, so
    /// that a cluster routing records by key may run the operator on every
    /// shard. An aggregate across keys returns `false`.
    fn keyed(&self) -> bool {
        true
    }

    /// Processes one message, returning downstream messages in order.
    ///
    /// Watermarks must be forwarded (typically after any results they
    /// triggered) so downstream operators can close their own windows.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on unrecoverable allocation or
    /// configuration failure.
    fn on_message(
        &mut self,
        ctx: &mut OpCtx<'_>,
        msg: Message,
    ) -> Result<Vec<Message>, EngineError>;

    /// Captures this operator's state for a checkpoint barrier. KPA-backed
    /// state must be materialized (Table-2 `Materialize`) so the snapshot
    /// holds self-contained records rather than pointers into RC-pinned
    /// bundles.
    ///
    /// # Errors
    ///
    /// The default refuses with [`EngineError::Config`]: operators that
    /// keep state must opt in explicitly, so a checkpointed run can never
    /// silently drop state.
    fn snapshot(&self, ctx: &mut OpCtx<'_>) -> Result<crate::checkpoint::OpState, EngineError> {
        let _ = ctx;
        Err(EngineError::Config(format!(
            "operator {} does not support checkpoint snapshots",
            self.name()
        )))
    }

    /// Restores this operator's state from a snapshot taken by
    /// [`Operator::snapshot`]. Must only be called on a freshly built
    /// operator, before it has seen any message.
    ///
    /// # Errors
    ///
    /// The default refuses with [`EngineError::Config`], mirroring
    /// [`Operator::snapshot`].
    fn restore(
        &mut self,
        ctx: &mut OpCtx<'_>,
        state: &crate::checkpoint::OpState,
    ) -> Result<(), EngineError> {
        let _ = (ctx, state);
        Err(EngineError::Config(format!(
            "operator {} does not support checkpoint restore",
            self.name()
        )))
    }
}

/// A stateless stream operator: processes each message independently with
/// no cross-message state.
///
/// Every `StatelessOperator` is also an [`Operator`] (the blanket impl
/// below), so pipelines mix the two freely.
pub trait StatelessOperator: Send {
    /// Operator name for diagnostics.
    fn name(&self) -> &'static str;

    /// Processes one message by shared reference.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on unrecoverable allocation or
    /// configuration failure.
    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError>;
}

/// A single-message output batch — the common result shape of the
/// stateless operators' `apply` and of a forwarded barrier.
pub(crate) fn single(msg: Message) -> Vec<Message> {
    // sbx-lint: allow(raw-alloc, one-element routing vector; record data stays in pools)
    vec![msg]
}

impl<T: StatelessOperator> Operator for T {
    fn name(&self) -> &'static str {
        StatelessOperator::name(self)
    }

    fn on_message(
        &mut self,
        ctx: &mut OpCtx<'_>,
        msg: Message,
    ) -> Result<Vec<Message>, EngineError> {
        self.apply(ctx, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_records::Schema;
    use sbx_simmem::MachineConfig;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    fn bundle(env: &MemEnv, n: u64) -> Arc<RecordBundle> {
        let flat: Vec<u64> = (0..n).flat_map(|i| [i % 7, i, i * 10]).collect();
        RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap()
    }

    #[test]
    fn dram_only_mode_never_places_on_hbm() {
        let env = env();
        let mut bal = DemandBalancer::new();
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::DramOnly, 2, ImpactTag::Urgent);
        assert_eq!(ctx.place(), (MemKind::Dram, Priority::Normal));
        let b = bundle(&env, 100);
        let kpa = ctx.extract(&b, Col(0)).unwrap();
        assert_eq!(kpa.kind(), MemKind::Dram);
        assert_eq!(env.pool(MemKind::Hbm).used_bytes(), 0);
    }

    #[test]
    fn caching_mode_echoes_hbm_traffic_to_dram() {
        let env = env();
        let mut bal = DemandBalancer::new();
        let b = bundle(&env, 1000);

        let mut hybrid = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::High);
        let _ = hybrid.extract(&b, Col(0)).unwrap();
        let p_hybrid = hybrid.take_profile();

        let mut bal2 = DemandBalancer::new();
        let mut caching = OpCtx::new(&env, &mut bal2, EngineMode::CachingKpa, 2, ImpactTag::High);
        let _ = caching.extract(&b, Col(0)).unwrap();
        let p_caching = caching.take_profile();

        assert!(
            p_caching.seq_bytes[MemKind::Dram.index()] > p_hybrid.seq_bytes[MemKind::Dram.index()]
        );
        assert_eq!(
            p_caching.seq_bytes[MemKind::Hbm.index()],
            p_hybrid.seq_bytes[MemKind::Hbm.index()]
        );
    }

    #[test]
    fn nokpa_mode_widens_traffic_by_record_size() {
        let env = env();
        let mut bal = DemandBalancer::new();
        let b = bundle(&env, 1000);
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::CachingNoKpa, 2, ImpactTag::High);
        let mut kpa = ctx.extract(&b, Col(0)).unwrap();
        ctx.take_profile();
        ctx.sort(&mut kpa).unwrap();
        let p = ctx.take_profile();

        let mut bal2 = DemandBalancer::new();
        let mut ctx2 = OpCtx::new(&env, &mut bal2, EngineMode::Hybrid, 2, ImpactTag::High);
        let mut kpa2 = ctx2.extract(&b, Col(0)).unwrap();
        ctx2.take_profile();
        ctx2.sort(&mut kpa2).unwrap();
        let p2 = ctx2.take_profile();

        // kvt records are 24 bytes vs 16-byte pairs => x1.5, times thrash x2.5.
        let expect = (p2.seq_bytes[0] + p2.seq_bytes[1]) * 1.5 * NOKPA_THRASH;
        assert!((p.seq_bytes[MemKind::Dram.index()] - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn hybrid_mode_defers_to_balancer() {
        let env = env();
        let mut bal = DemandBalancer::new();
        // Push k_low to 0: Low-tagged tasks go to DRAM.
        for _ in 0..25 {
            let _ = bal.update(1.0, 0.0, true);
        }
        let mut ctx = OpCtx::new(&env, &mut bal, EngineMode::Hybrid, 2, ImpactTag::Low);
        assert_eq!(ctx.place().0, MemKind::Dram);
        ctx.tag = ImpactTag::Urgent;
        assert_eq!(ctx.place(), (MemKind::Hbm, Priority::Reserved));
    }
}
