use std::sync::Arc;

use sbx_records::{RecordBundle, Watermark};
use sbx_simmem::{AllocError, MemEnv, MemPool};

use crate::{NicModel, Source};

/// Configuration of a [`Sender`].
#[derive(Debug, Clone, Copy)]
pub struct SenderConfig {
    /// Records per bundle.
    pub bundle_rows: usize,
    /// A watermark is injected after this many bundles (paper Fig. 10b
    /// varies this to stress HBM capacity).
    pub bundles_per_watermark: usize,
    /// The modelled ingestion link.
    pub nic: NicModel,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            bundle_rows: 4096,
            bundles_per_watermark: 16,
            nic: NicModel::rdma_40g(),
        }
    }
}

/// One ingress arrival: a record bundle (with its simulated wire-transfer
/// time), a watermark, or a checkpoint barrier.
#[derive(Debug, Clone)]
pub enum IngressEvent {
    /// A bundle of records plus the nanoseconds its transfer occupied the
    /// NIC.
    Bundle(Arc<RecordBundle>, u64),
    /// A watermark promising no earlier timestamps will follow.
    Watermark(Watermark),
    /// A checkpoint barrier carrying its epoch number. Injected at the
    /// sender — the source of truth for replay offsets — so that a
    /// recovered run regenerates the identical event sequence.
    Barrier(u64),
}

/// The modelled Sender machine: pulls records from a [`Source`], batches
/// them into DRAM bundles at the NIC's payload rate, and injects watermarks.
///
/// The engine *pulls* events, which is how StreamBox-HBM applies back
/// pressure: when both HBM capacity and DRAM bandwidth are exhausted it
/// simply stops pulling (paper §5).
#[derive(Debug)]
pub struct Sender<S> {
    source: S,
    cfg: SenderConfig,
    env: MemEnv,
    bundles_sent: usize,
    since_watermark: usize,
    barrier_interval: Option<u64>,
    since_barrier: u64,
    next_epoch: u64,
    /// Receive buffer the source fills; handed to the bundle built from it.
    staging: Vec<u64>,
}

impl<S: Source> Sender<S> {
    /// A sender feeding `env` from `source`.
    pub fn new(env: &MemEnv, source: S, cfg: SenderConfig) -> Self {
        assert!(cfg.bundle_rows > 0, "bundle_rows must be positive");
        assert!(
            cfg.bundles_per_watermark > 0,
            "bundles_per_watermark must be positive"
        );
        Sender {
            source,
            cfg,
            env: env.clone(),
            bundles_sent: 0,
            since_watermark: 0,
            barrier_interval: None,
            since_barrier: 0,
            next_epoch: 1,
            staging: Vec::new(),
        }
    }

    /// Enables checkpoint barrier injection: a [`IngressEvent::Barrier`]
    /// is emitted after every `interval` bundles, with epochs counting up
    /// from 1. Barriers flow in-band, so the engine snapshots a consistent
    /// stream prefix; replaying the same source regenerates the identical
    /// barrier cadence.
    pub fn with_barriers(mut self, interval: u64) -> Self {
        assert!(interval > 0, "barrier interval must be positive");
        self.barrier_interval = Some(interval);
        self
    }

    /// The underlying source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Total bundles delivered so far.
    pub fn bundles_sent(&self) -> usize {
        self.bundles_sent
    }

    /// Produces the next ingress event.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when DRAM cannot hold a new bundle — the
    /// signal that the engine must drain before pulling again.
    pub fn next_event(&mut self) -> Result<IngressEvent, AllocError> {
        if self.since_watermark >= self.cfg.bundles_per_watermark {
            self.since_watermark = 0;
            return Ok(IngressEvent::Watermark(Watermark(
                self.source.low_watermark(),
            )));
        }
        if let Some(interval) = self.barrier_interval {
            if self.since_barrier >= interval {
                self.since_barrier = 0;
                let epoch = self.next_epoch;
                self.next_epoch += 1;
                return Ok(IngressEvent::Barrier(epoch));
            }
        }
        if self.staging.capacity() == 0 {
            // One allocation, as large as the pool buffer the first bundle
            // will trade it for; every later fill lands in a pool buffer.
            let slots = self.cfg.bundle_rows * self.source.schema().ncols();
            self.staging.reserve_exact(MemPool::buffer_slots(slots));
        }
        self.staging.clear();
        self.source.fill(self.cfg.bundle_rows, &mut self.staging);
        // The rows are written once: the bundle takes the staging buffer
        // and leaves an empty pool buffer to receive the next one.
        let bundle = RecordBundle::adopt_rows(&self.env, self.source.schema(), &mut self.staging)?;
        let wire_ns = self.cfg.nic.transfer_ns(bundle.bytes() as u64);
        self.bundles_sent += 1;
        self.since_watermark += 1;
        self.since_barrier += 1;
        Ok(IngressEvent::Bundle(bundle, wire_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvSource;
    use sbx_simmem::MachineConfig;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    #[test]
    fn sender_interleaves_bundles_and_watermarks() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 10,
            bundles_per_watermark: 3,
            nic: NicModel::unlimited(),
        };
        let mut s = Sender::new(&env, KvSource::new(1, 100, 1000), cfg);
        let mut kinds = Vec::new();
        for _ in 0..8 {
            match s.next_event().unwrap() {
                IngressEvent::Bundle(b, _) => {
                    assert_eq!(b.rows(), 10);
                    kinds.push('B');
                }
                IngressEvent::Watermark(_) => kinds.push('W'),
                IngressEvent::Barrier(_) => kinds.push('C'),
            }
        }
        assert_eq!(kinds, vec!['B', 'B', 'B', 'W', 'B', 'B', 'B', 'W']);
        assert_eq!(s.bundles_sent(), 6);
    }

    #[test]
    fn barriers_follow_their_cadence_and_replay_identically() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 10,
            bundles_per_watermark: 5,
            nic: NicModel::unlimited(),
        };
        let run = |seed: u64| {
            let mut s = Sender::new(&env, KvSource::new(seed, 100, 1000), cfg).with_barriers(2);
            let mut kinds = Vec::new();
            let mut epochs = Vec::new();
            for _ in 0..12 {
                match s.next_event().unwrap() {
                    IngressEvent::Bundle(..) => kinds.push('B'),
                    IngressEvent::Watermark(_) => kinds.push('W'),
                    IngressEvent::Barrier(e) => {
                        kinds.push('C');
                        epochs.push(e);
                    }
                }
            }
            (kinds, epochs)
        };
        let (kinds, epochs) = run(3);
        // Barrier after every 2 bundles; watermark after every 5.
        assert_eq!(
            kinds,
            vec!['B', 'B', 'C', 'B', 'B', 'C', 'B', 'W', 'B', 'C', 'B', 'B']
        );
        assert_eq!(epochs, vec![1, 2, 3]);
        // Same seed => byte-identical replay of the event sequence.
        assert_eq!(run(3), (kinds, epochs));
    }

    #[test]
    fn watermarks_never_exceed_generated_timestamps() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 50,
            bundles_per_watermark: 2,
            nic: NicModel::unlimited(),
        };
        let mut s = Sender::new(&env, KvSource::new(9, 50, 500).with_jitter(10_000), cfg);
        let mut last_wm = 0u64;
        for _ in 0..20 {
            match s.next_event().unwrap() {
                IngressEvent::Watermark(wm) => last_wm = wm.time().raw(),
                IngressEvent::Bundle(b, _) => {
                    for r in 0..b.rows() {
                        assert!(
                            b.ts(r).raw() >= last_wm,
                            "record violated watermark promise"
                        );
                    }
                }
                IngressEvent::Barrier(_) => {}
            }
        }
    }

    #[test]
    fn wire_time_reflects_nic_rate() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 1000,
            bundles_per_watermark: 100,
            nic: NicModel::ethernet_10g(),
        };
        let mut s = Sender::new(&env, KvSource::new(1, 100, 1000), cfg);
        let IngressEvent::Bundle(b, wire) = s.next_event().unwrap() else {
            panic!("expected bundle");
        };
        let expect = NicModel::ethernet_10g().transfer_ns(b.bytes() as u64);
        assert_eq!(wire, expect);
    }

    #[test]
    fn staging_buffer_settles_after_the_first_bundle() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 1000,
            bundles_per_watermark: 100,
            nic: NicModel::unlimited(),
        };
        let mut s = Sender::new(&env, KvSource::new(1, 100, 1000), cfg);
        let mut live = std::collections::VecDeque::new();
        let mut capacities = Vec::new();
        for _ in 0..12 {
            let IngressEvent::Bundle(b, _) = s.next_event().unwrap() else {
                panic!("expected bundle");
            };
            // Some buffers come fresh from the pool, some from its freelist.
            live.push_back(b);
            if live.len() > 3 {
                live.pop_front();
            }
            assert!(s.staging.is_empty(), "left ready for the next fill");
            capacities.push(s.staging.capacity());
        }
        // 3000 values fall into the 4096-slot class: every hand-off leaves
        // a buffer of that class, so no fill after the first has to grow it.
        assert!(capacities.iter().all(|&c| c >= 4096), "{capacities:?}");
    }

    #[test]
    fn dram_exhaustion_surfaces_as_error() {
        let mut machine = MachineConfig::knl();
        machine.dram.capacity_bytes = 8 * 1024; // one small bundle at most
        let env = MemEnv::new(machine);
        let cfg = SenderConfig {
            bundle_rows: 4096,
            bundles_per_watermark: 100,
            nic: NicModel::unlimited(),
        };
        let mut s = Sender::new(&env, KvSource::new(1, 100, 1000), cfg);
        assert!(s.next_event().is_err());
    }
}
