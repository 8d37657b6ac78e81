use std::sync::Arc;

use sbx_records::{RecordBundle, Watermark};
use sbx_simmem::{AllocError, MemEnv, MemPool};

use crate::{NicModel, Source};

/// Configuration of a [`Sender`].
#[derive(Debug, Clone, Copy)]
pub struct SenderConfig {
    /// Records per bundle.
    pub bundle_rows: usize,
    /// A watermark is injected after this many bundles per input port
    /// (paper Fig. 10b varies this to stress HBM capacity).
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

/// What a [`Sender`] reads: a lone source, or one source per input port of
/// a multi-input pipeline (Temporal Join, Windowed Filter).
pub trait Sources {
    /// The type of every port's source.
    type One: Source;

    /// The sources in port order; never empty.
    fn ports(&mut self) -> &mut [Self::One];
}

impl<S: Source> Sources for S {
    type One = S;

    fn ports(&mut self) -> &mut [S] {
        std::slice::from_mut(self)
    }
}

impl<S: Source> Sources for Vec<S> {
    type One = S;

    fn ports(&mut self) -> &mut [S] {
        self
    }
}

/// One ingress arrival: a record bundle, a watermark, or a checkpoint
/// barrier.
#[derive(Debug, Clone)]
pub enum IngressEvent {
    /// A bundle of records, the nanoseconds its transfer occupied the NIC,
    /// and the input port (the index of its source) it arrived on.
    Bundle(Arc<RecordBundle>, u64, u8),
    /// A watermark promising no earlier timestamps will follow on any port.
    Watermark(Watermark),
    /// A checkpoint barrier carrying its epoch number. Injected at the
    /// sender — the source of truth for replay offsets — so that a
    /// recovered run regenerates the identical event sequence.
    Barrier(u64),
}

/// The modelled Sender machine: pulls records from its [`Sources`]
/// round-robin — port `i` from the `i`-th source — batches them into DRAM
/// bundles at the NIC's payload rate, and injects watermarks.
///
/// Both cadences (watermarks, barriers) count bundles *per port*, so they
/// fall between rounds of the round-robin, and the whole event sequence is a
/// function of the number of bundles sent: pulling a fresh sender over the
/// same sources until [`Sender::bundles_sent`] reaches a saved count restores
/// every source's position, the next port and both cadences.
///
/// The engine *pulls* events, which is how StreamBox-HBM applies back
/// pressure: when both HBM capacity and DRAM bandwidth are exhausted it
/// simply stops pulling (paper §5).
#[derive(Debug)]
pub struct Sender<S> {
    sources: S,
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

impl<S: Sources> Sender<S> {
    /// A sender feeding `env` from `sources`.
    pub fn new(env: &MemEnv, mut sources: S, cfg: SenderConfig) -> Self {
        assert!(cfg.bundle_rows > 0, "bundle_rows must be positive");
        assert!(
            cfg.bundles_per_watermark > 0,
            "bundles_per_watermark must be positive"
        );
        assert!(!sources.ports().is_empty(), "a sender needs a source");
        Sender {
            sources,
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
    /// is emitted after every `interval` bundles per port, with epochs
    /// counting up from 1. Barriers flow in-band, so the engine snapshots a
    /// consistent stream prefix; replaying the same sources regenerates the
    /// identical barrier cadence.
    pub fn with_barriers(mut self, interval: u64) -> Self {
        assert!(interval > 0, "barrier interval must be positive");
        self.barrier_interval = Some(interval);
        self
    }

    /// Total bundles delivered so far, over all ports.
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
        let ports = self.sources.ports();
        if self.since_watermark >= self.cfg.bundles_per_watermark {
            self.since_watermark = 0;
            // Only what every source promises holds for the merged stream.
            let promise = ports.iter().map(Source::low_watermark).min();
            let wm = Watermark(promise.unwrap_or_default());
            return Ok(IngressEvent::Watermark(wm));
        }
        if let Some(interval) = self.barrier_interval {
            if self.since_barrier >= interval {
                self.since_barrier = 0;
                let epoch = self.next_epoch;
                self.next_epoch += 1;
                return Ok(IngressEvent::Barrier(epoch));
            }
        }
        let port = self.bundles_sent % ports.len();
        let source = &mut ports[port];
        if self.staging.capacity() == 0 {
            // One allocation, as large as the pool buffer the first bundle
            // will trade it for; every later fill lands in a pool buffer.
            let slots = self.cfg.bundle_rows * source.schema().ncols();
            self.staging.reserve_exact(MemPool::buffer_slots(slots));
        }
        self.staging.clear();
        source.fill(self.cfg.bundle_rows, &mut self.staging);
        // The rows are written once: the bundle takes the staging buffer
        // and leaves an empty pool buffer to receive the next one.
        let bundle = RecordBundle::adopt_rows(&self.env, source.schema(), &mut self.staging)?;
        let wire_ns = self.cfg.nic.transfer_ns(bundle.bytes() as u64);
        self.bundles_sent += 1;
        if port + 1 == ports.len() {
            // Every port has delivered once more.
            self.since_watermark += 1;
            self.since_barrier += 1;
        }
        Ok(IngressEvent::Bundle(bundle, wire_ns, port as u8))
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
                IngressEvent::Bundle(b, ..) => {
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

    /// Events as the two-source test compares them: a bundle is its port's
    /// digit and its first timestamp, a watermark `W` and its promise, a
    /// barrier `C` and its epoch.
    fn trace(s: &mut Sender<Vec<KvSource>>, events: usize) -> Vec<(char, u64)> {
        (0..events)
            .map(|_| match s.next_event().unwrap() {
                IngressEvent::Bundle(b, _, port) => (char::from(b'0' + port), b.ts(0).raw()),
                IngressEvent::Watermark(wm) => ('W', wm.time().raw()),
                IngressEvent::Barrier(epoch) => ('C', epoch),
            })
            .collect()
    }

    #[test]
    fn two_sources_alternate_ports_and_count_cadences_per_port() {
        let env = env();
        let cfg = SenderConfig {
            bundle_rows: 10,
            bundles_per_watermark: 3,
            nic: NicModel::unlimited(),
        };
        // Port 1's denser stream runs behind in event time.
        let mk = || vec![KvSource::new(1, 100, 1_000), KvSource::new(2, 100, 2_000)];
        let mut full = Sender::new(&env, mk(), cfg).with_barriers(2);
        let events = trace(&mut full, 26);
        let kinds: String = events.iter().map(|e| e.0).collect();
        // Barrier after 2 bundles per port, watermark after 3; a watermark
        // due with a barrier goes first, as with one source.
        assert_eq!(kinds, "0101C01W01C0101WC0101C01W0");
        // The first watermark: the smaller promise after 3 bundles each.
        let mut behind = mk();
        for src in &mut behind {
            src.fill(30, &mut Vec::new());
        }
        assert!(behind[1].low_watermark() < behind[0].low_watermark());
        assert_eq!(events[7], ('W', behind[1].low_watermark().raw()));

        // Replayed to any count of bundles sent, a fresh sender continues
        // with the uninterrupted one's events.
        let mut sent = 0;
        for (i, e) in events.iter().enumerate() {
            if !e.0.is_ascii_digit() {
                continue;
            }
            sent += 1;
            let mut replayed = Sender::new(&env, mk(), cfg).with_barriers(2);
            while replayed.bundles_sent() < sent {
                replayed.next_event().unwrap();
            }
            let rest = &events[i + 1..];
            assert_eq!(trace(&mut replayed, rest.len()), rest, "after {sent}");
        }
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
                IngressEvent::Bundle(b, ..) => {
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
        let IngressEvent::Bundle(b, wire, 0) = s.next_event().unwrap() else {
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
            let IngressEvent::Bundle(b, ..) = s.next_event().unwrap() else {
                panic!("expected bundle");
            };
            // Some buffers come fresh from the allocator, some are reused.
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
