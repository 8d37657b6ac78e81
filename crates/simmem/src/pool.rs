// sbx-lint: allow-file(atomic-ordering, allocation statistics counters; the byte accounting itself uses acquire/release)
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sbx_obs::{Counter, Gauge, MetricsRegistry};

use crate::sync::Mutex;
use crate::{AllocError, MemKind, MemSpec};

/// Allocation priority class (paper §5, "performance impact tags").
///
/// `Urgent` tasks on the critical path of pipeline output always allocate
/// their KPAs from a small reserved slice of HBM; everyone else competes for
/// the unreserved remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Normal allocation; may not dip into the reserved slice.
    #[default]
    Normal,
    /// Critical-path allocation; may use the reserved slice.
    Reserved,
}

/// Number of u64 slots in the smallest slab class (4 KiB).
const MIN_CLASS_SLOTS: usize = 512;
/// Number of size classes (powers of two from 4 KiB to 128 MiB).
const NUM_CLASSES: usize = 16;

fn class_for(len: usize) -> Option<usize> {
    let mut slots = MIN_CLASS_SLOTS;
    for c in 0..NUM_CLASSES {
        if len <= slots {
            return Some(c);
        }
        slots *= 2;
    }
    None
}

fn class_slots(class: usize) -> usize {
    MIN_CLASS_SLOTS << class
}

/// Most host memory the [`HostReserve`] keeps, in bytes (1 GiB); buffers
/// handed back beyond it go to the system allocator.
const RESERVE_MAX_BYTES: u64 = 1 << 30;

/// Freed host buffers of every pool of this process, by size class: the one
/// place a buffer waits between a [`PoolVec`] dropping and the next
/// [`MemPool::alloc_u64`] of its class.
///
/// The paper's runtime reserves its HBM and DRAM arenas once and carves
/// every KPA and bundle out of them (the slab allocator of §5.1); it never
/// hands memory back to the operating system between windows. Here a
/// dropped [`PoolVec`] parks its buffer in this reserve and an allocation
/// takes one of its class from here before it asks the system allocator, in
/// any pool: a process that runs one engine after another (every repetition
/// of a benchmark, every test of a suite) stops asking the operating system
/// for memory once the first engine has warmed up. Without that, each
/// teardown frees nearly the whole heap at once; whether the allocator then
/// returns it to the system, and the next engine page-faults tens of
/// megabytes back in, turns on where a few small long-lived allocations
/// happen to sit, and what a page fault costs is up to the hypervisor.
///
/// Only host memory is shared. Capacity accounting and allocation counters
/// are per pool and count live buffers alone, so nothing simulated depends
/// on what the reserve holds.
#[derive(Debug)]
struct HostReserve {
    by_class: [Vec<Vec<u64>>; NUM_CLASSES],
    /// Capacity of the buffers held, in bytes.
    bytes: u64,
    max_bytes: u64,
}

impl HostReserve {
    const fn new(max_bytes: u64) -> Self {
        HostReserve {
            by_class: [const { Vec::new() }; NUM_CLASSES],
            bytes: 0,
            max_bytes,
        }
    }

    /// A buffer of `class`, empty, if one is held.
    fn take(&mut self, class: usize) -> Option<Vec<u64>> {
        let buf = self.by_class[class].pop()?;
        self.bytes -= (class_slots(class) * 8) as u64;
        Some(buf)
    }

    /// Keeps `buf` (of `class`) unless that would exceed the byte limit, in
    /// which case it is dropped.
    fn put(&mut self, class: usize, mut buf: Vec<u64>) {
        let bytes = (class_slots(class) * 8) as u64;
        if self.bytes + bytes <= self.max_bytes {
            buf.clear();
            self.by_class[class].push(buf);
            self.bytes += bytes;
        }
    }
}

/// The process-wide reserve (see [`HostReserve`]).
static HOST_RESERVE: Mutex<HostReserve> = Mutex::new(HostReserve::new(RESERVE_MAX_BYTES));

/// Per-pool observability handles (`pool.<kind>.*`). All handles are inert
/// no-ops unless the pool was built with [`MemPool::new_observed`] against an
/// active registry.
#[derive(Debug, Clone, Default)]
struct PoolMetrics {
    allocs: Counter,
    failed_allocs: Counter,
    frees: Counter,
    alloc_bytes: Counter,
    freed_bytes: Counter,
    /// Accounted bytes; its high-water mark is the capacity peak.
    used: Gauge,
}

impl PoolMetrics {
    fn new(registry: &MetricsRegistry, kind: MemKind) -> Self {
        let name = |metric: &str| format!("pool.{}.{metric}", kind.label());
        PoolMetrics {
            allocs: registry.counter(&name("allocs")),
            failed_allocs: registry.counter(&name("failed_allocs")),
            frees: registry.counter(&name("frees")),
            alloc_bytes: registry.counter(&name("alloc_bytes")),
            freed_bytes: registry.counter(&name("freed_bytes")),
            used: registry.gauge(&name("used_bytes")),
        }
    }
}

#[derive(Debug)]
struct PoolInner {
    kind: MemKind,
    capacity_bytes: u64,
    reserved_bytes: u64,
    used_bytes: AtomicU64,
    high_water_bytes: AtomicU64,
    allocs: AtomicU64,
    failed_allocs: AtomicU64,
    metrics: PoolMetrics,
}

/// An accounted slab allocator for one memory tier.
///
/// The pool hands out real heap buffers ([`PoolVec`]) while enforcing the
/// simulated tier capacity: allocations fail with [`AllocError`] once the
/// tier is full, exactly the signal StreamBox-HBM's runtime uses to spill
/// KPAs to DRAM. The bytes it accounts are those of the [`PoolVec`]s alive
/// right now. A freed buffer's host memory waits in a process-wide reserve
/// by size class and serves the next request of that class, mirroring the
/// paper's custom slab allocator "tuned to typical KPA sizes, full record
/// bundle sizes, and window sizes" (§5.1); accounting does not see the
/// reserve.
///
/// A configurable slice of capacity is *reserved* for
/// [`Priority::Reserved`] (critical-path) allocations.
///
/// # Example
///
/// ```
/// use sbx_simmem::{MemKind, MemPool, MemSpec, Priority};
///
/// let pool = MemPool::new(MemKind::Hbm, MemSpec::new(0.001, 375.0, 172.0), 0.1);
/// let buf = pool.alloc_u64(1000, Priority::Normal)?;
/// assert!(buf.capacity() >= 1000);
/// # Ok::<(), sbx_simmem::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemPool {
    inner: Arc<PoolInner>,
}

impl MemPool {
    /// Creates a pool for `kind` with the capacity from `spec`, reserving
    /// `reserve_fraction` of it for [`Priority::Reserved`] allocations.
    ///
    /// # Panics
    ///
    /// Panics if `reserve_fraction` is not within `[0, 1]`.
    pub fn new(kind: MemKind, spec: MemSpec, reserve_fraction: f64) -> Self {
        MemPool::new_observed(kind, spec, reserve_fraction, &MetricsRegistry::noop())
    }

    /// Like [`MemPool::new`], but registers `pool.<kind>.*` instruments
    /// (alloc/free counts and bytes, used-bytes gauge with high-water mark)
    /// in `registry`. With a no-op registry this is identical to `new`.
    ///
    /// # Panics
    ///
    /// Panics if `reserve_fraction` is not within `[0, 1]`.
    pub fn new_observed(
        kind: MemKind,
        spec: MemSpec,
        reserve_fraction: f64,
        registry: &MetricsRegistry,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&reserve_fraction),
            "reserve_fraction must be in [0,1], got {reserve_fraction}"
        );
        MemPool {
            inner: Arc::new(PoolInner {
                kind,
                capacity_bytes: spec.capacity_bytes,
                reserved_bytes: (spec.capacity_bytes as f64 * reserve_fraction) as u64,
                used_bytes: AtomicU64::new(0),
                high_water_bytes: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
                failed_allocs: AtomicU64::new(0),
                metrics: PoolMetrics::new(registry, kind),
            }),
        }
    }

    /// The tier this pool accounts for.
    pub fn kind(&self) -> MemKind {
        self.inner.kind
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes
    }

    /// Bytes currently in use: the accounted bytes of every [`PoolVec`] of
    /// this pool that is alive.
    pub fn used_bytes(&self) -> u64 {
        self.inner.used_bytes.load(Ordering::Acquire)
    }

    /// Bytes available to a request of priority `prio`.
    pub fn available_bytes(&self, prio: Priority) -> u64 {
        self.ceiling(prio).saturating_sub(self.used_bytes())
    }

    /// Most bytes the pool may hold after serving a request of `prio`.
    fn ceiling(&self, prio: Priority) -> u64 {
        match prio {
            Priority::Normal => self.inner.capacity_bytes - self.inner.reserved_bytes,
            Priority::Reserved => self.inner.capacity_bytes,
        }
    }

    /// Slots of the buffer [`MemPool::alloc_u64`] hands out for a request of
    /// `len`: its size class, or `len` itself beyond the largest class. A
    /// caller that will trade a buffer of its own for the pool's (as
    /// `RecordBundle::adopt_rows` does) can allocate it this large up front.
    pub fn buffer_slots(len: usize) -> usize {
        class_for(len.max(1)).map_or(len, class_slots)
    }

    /// An empty, unaccounted host buffer of [`MemPool::buffer_slots`]`(len)`
    /// slots, from the process-wide reserve if one waits there: for
    /// [`MemPool::alloc_u64`], or to fill for `RecordBundle::from_host_rows`.
    pub fn host_buffer(len: usize) -> Vec<u64> {
        let reserved = class_for(len.max(1)).and_then(|c| HOST_RESERVE.lock().take(c));
        // sbx-lint: allow(raw-alloc, the pools' own backing store; this is where accounted memory comes from)
        reserved.unwrap_or_else(|| Vec::with_capacity(Self::buffer_slots(len)))
    }

    /// Parks an empty buffer of exactly one size class's capacity in the
    /// process-wide reserve; any other goes to the system allocator.
    pub fn return_host_buffer(buf: Vec<u64>) {
        let cap = buf.capacity();
        if let Some(c) = class_for(cap).filter(|&c| class_slots(c) == cap) {
            HOST_RESERVE.lock().put(c, buf);
        }
    }

    /// Allocates a buffer of at least `len` u64 slots.
    ///
    /// The returned [`PoolVec`] has `capacity() >= len` (rounded up to the
    /// pool's size class) and length 0. Dropping it releases its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier does not have room for the request
    /// at the given priority. This is the expected "HBM is full" signal.
    pub fn alloc_u64(&self, len: usize, prio: Priority) -> Result<PoolVec, AllocError> {
        let (class, slots) = match class_for(len.max(1)) {
            Some(c) => (Some(c), class_slots(c)),
            // Oversized request: exact-sized, never kept in the reserve.
            None => (None, len),
        };
        let bytes = (slots * 8) as u64;

        // Every request passes the capacity ceiling of its priority.
        let ceiling = self.ceiling(prio);
        let mut used = self.used_bytes();
        loop {
            if used + bytes > ceiling {
                self.inner.failed_allocs.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.failed_allocs.incr();
                return Err(AllocError {
                    kind: self.inner.kind,
                    requested_bytes: bytes,
                    available_bytes: ceiling.saturating_sub(used),
                });
            }
            match self.inner.used_bytes.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => used = actual,
            }
        }
        self.inner
            .high_water_bytes
            .fetch_max(used + bytes, Ordering::AcqRel);
        self.inner.allocs.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.allocs.incr();
        self.inner.metrics.alloc_bytes.add(bytes);
        self.inner.metrics.used.set((used + bytes) as f64);
        Ok(PoolVec {
            buf: MemPool::host_buffer(len),
            pool: self.inner.clone(),
            class,
            accounted_bytes: bytes,
        })
    }

    /// Snapshot of allocator statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            kind: self.inner.kind,
            capacity_bytes: self.inner.capacity_bytes,
            used_bytes: self.used_bytes(),
            high_water_bytes: self.inner.high_water_bytes.load(Ordering::Acquire),
            total_allocs: self.inner.allocs.load(Ordering::Relaxed),
            failed_allocs: self.inner.failed_allocs.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time allocator statistics (see [`MemPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Tier the stats describe.
    pub kind: MemKind,
    /// Pool capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes of live buffers.
    pub used_bytes: u64,
    /// Highest `used_bytes` ever observed.
    pub high_water_bytes: u64,
    /// Number of successful allocations served.
    pub total_allocs: u64,
    /// Number of allocations rejected for lack of capacity.
    pub failed_allocs: u64,
}

/// A real heap buffer whose capacity is accounted against a [`MemPool`].
///
/// Dereferences to `Vec<u64>`; on drop it releases its accounted bytes and
/// the host buffer waits in the process-wide reserve for the next request of
/// its size class.
pub struct PoolVec {
    buf: Vec<u64>,
    pool: Arc<PoolInner>,
    class: Option<usize>,
    accounted_bytes: u64,
}

impl PoolVec {
    /// The tier this buffer is accounted against.
    pub fn kind(&self) -> MemKind {
        self.pool.kind
    }

    /// Bytes of pool capacity this buffer holds.
    pub fn accounted_bytes(&self) -> u64 {
        self.accounted_bytes
    }

    /// Trades host buffers with `other` if both are of one size class, each
    /// keeping its own accounting, and says whether it did: a consumer hands
    /// its filled buffer to its output's request instead of copying it.
    pub fn trade_host_buffer(&mut self, other: &mut PoolVec) -> bool {
        let traded = self.class.is_some() && self.class == other.class;
        if traded {
            std::mem::swap(&mut self.buf, &mut other.buf);
        }
        traded
    }
}

impl Deref for PoolVec {
    type Target = Vec<u64>;
    fn deref(&self) -> &Vec<u64> {
        &self.buf
    }
}

impl DerefMut for PoolVec {
    fn deref_mut(&mut self) -> &mut Vec<u64> {
        &mut self.buf
    }
}

impl fmt::Debug for PoolVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolVec")
            .field("kind", &self.pool.kind)
            .field("len", &self.buf.len())
            .field("capacity", &self.buf.capacity())
            .field("accounted_bytes", &self.accounted_bytes)
            .finish()
    }
}

impl Drop for PoolVec {
    fn drop(&mut self) {
        let used = self
            .pool
            .used_bytes
            .fetch_sub(self.accounted_bytes, Ordering::AcqRel)
            - self.accounted_bytes;
        self.pool.metrics.frees.incr();
        self.pool.metrics.freed_bytes.add(self.accounted_bytes);
        self.pool.metrics.used.set(used as f64);
        // Oversized buffers, and ones a caller traded for a smaller one, go
        // back to the system allocator.
        if let Some(c) = self
            .class
            .filter(|&c| self.buf.capacity() >= class_slots(c))
        {
            HOST_RESERVE.lock().put(c, std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool(capacity_bytes: u64, reserve: f64) -> MemPool {
        let spec = MemSpec {
            capacity_bytes,
            bandwidth_bytes_per_sec: 375e9,
            latency_ns: 172.0,
        };
        MemPool::new(MemKind::Hbm, spec, reserve)
    }

    #[test]
    fn alloc_rounds_to_size_class() {
        let pool = small_pool(1 << 20, 0.0);
        let v = pool.alloc_u64(100, Priority::Normal).unwrap();
        assert_eq!(v.capacity(), MIN_CLASS_SLOTS);
        assert_eq!(v.accounted_bytes(), (MIN_CLASS_SLOTS * 8) as u64);
        assert_eq!(pool.used_bytes(), v.accounted_bytes());
    }

    #[test]
    fn buffer_slots_is_the_capacity_alloc_hands_out() {
        let pool = small_pool(u64::MAX / 2, 0.0);
        let huge = class_slots(NUM_CLASSES - 1) + 1;
        for len in [0, 1, MIN_CLASS_SLOTS, MIN_CLASS_SLOTS + 1, 140_000, huge] {
            let v = pool.alloc_u64(len, Priority::Normal).unwrap();
            let slots = MemPool::buffer_slots(len);
            assert!(slots >= len && v.capacity() >= slots, "{len}");
            assert_eq!(v.accounted_bytes(), (slots * 8) as u64, "{len}");
        }
    }

    #[test]
    fn exhaustion_returns_error_with_context() {
        let pool = small_pool(8 * MIN_CLASS_SLOTS as u64, 0.0); // one class-0 buffer
        let _a = pool.alloc_u64(1, Priority::Normal).unwrap();
        let err = pool.alloc_u64(1, Priority::Normal).unwrap_err();
        assert_eq!(err.kind, MemKind::Hbm);
        assert_eq!(err.available_bytes, 0);
        assert_eq!(pool.stats().failed_allocs, 1);
    }

    #[test]
    fn freed_bytes_are_released_and_the_host_buffer_is_reused() {
        // A class no other test of this crate allocates, so the buffer this
        // test parks in the process-wide reserve is the one it gets back.
        let len = class_slots(9);
        let pool = small_pool(1 << 30, 0.0);
        let v = pool.alloc_u64(len, Priority::Normal).unwrap();
        assert_eq!(pool.used_bytes(), v.accounted_bytes());
        let addr = v.as_ptr();
        drop(v);
        assert_eq!(pool.used_bytes(), 0, "nothing stays accounted");
        let v2 = pool.alloc_u64(len, Priority::Normal).unwrap();
        assert_eq!(v2.as_ptr(), addr, "same host buffer");
        assert!(v2.is_empty() && v2.capacity() == len);
        assert_eq!(pool.used_bytes(), v2.accounted_bytes());
        assert_eq!(pool.stats().total_allocs, 2);
    }

    #[test]
    fn reserved_slice_rejects_normal_but_serves_urgent() {
        // Capacity of exactly two class-0 buffers, half reserved.
        let pool = small_pool(2 * 8 * MIN_CLASS_SLOTS as u64, 0.5);
        let _a = pool.alloc_u64(1, Priority::Normal).unwrap();
        assert!(pool.alloc_u64(1, Priority::Normal).is_err());
        let _b = pool.alloc_u64(1, Priority::Reserved).unwrap();
        assert!(pool.alloc_u64(1, Priority::Reserved).is_err());
    }

    #[test]
    fn oversized_allocations_release_on_drop() {
        let huge = class_slots(NUM_CLASSES - 1) + 1;
        let pool = small_pool(u64::MAX / 2, 0.0);
        let v = pool.alloc_u64(huge, Priority::Normal).unwrap();
        assert_eq!(v.capacity(), huge);
        drop(v);
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn high_water_tracks_peak() {
        let pool = small_pool(1 << 20, 0.0);
        let a = pool.alloc_u64(1, Priority::Normal).unwrap();
        let b = pool.alloc_u64(1, Priority::Normal).unwrap();
        let peak = pool.used_bytes();
        drop(a);
        drop(b);
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(pool.stats().high_water_bytes, peak);
    }

    #[test]
    fn observed_pool_registers_metrics() {
        let reg = MetricsRegistry::active();
        let spec = MemSpec {
            capacity_bytes: 8 * MIN_CLASS_SLOTS as u64, // one class-0 buffer
            bandwidth_bytes_per_sec: 375e9,
            latency_ns: 172.0,
        };
        let pool = MemPool::new_observed(MemKind::Hbm, spec, 0.0, &reg);
        let v = pool.alloc_u64(1, Priority::Normal).unwrap();
        assert!(pool.alloc_u64(1, Priority::Normal).is_err());
        let peak = pool.used_bytes();
        drop(v);
        let dump = reg.snapshot();
        assert_eq!(dump.counter("pool.hbm.allocs"), Some(1));
        assert_eq!(dump.counter("pool.hbm.failed_allocs"), Some(1));
        assert_eq!(dump.counter("pool.hbm.frees"), Some(1));
        assert_eq!(dump.counter("pool.hbm.alloc_bytes"), Some(peak));
        assert_eq!(dump.counter("pool.hbm.freed_bytes"), Some(peak));
        let used = dump.gauge("pool.hbm.used_bytes").unwrap();
        assert_eq!(used.value, 0.0);
        assert_eq!(used.max, peak as f64);
        assert_eq!(used.max, pool.stats().high_water_bytes as f64);
    }

    #[test]
    fn reserve_keeps_buffers_by_class_up_to_its_limit() {
        let bytes = |class| (class_slots(class) * 8) as u64;
        let mut r = HostReserve::new(bytes(0) + bytes(2));
        assert!(r.take(0).is_none());
        r.put(0, vec![7; 3]);
        r.put(2, Vec::with_capacity(class_slots(2)));
        assert_eq!(r.bytes, bytes(0) + bytes(2));
        // Full: one more buffer is dropped, not kept.
        r.put(0, Vec::new());
        assert_eq!(r.by_class[0].len(), 1);
        assert!(r.take(1).is_none(), "classes do not mix");
        assert_eq!(r.take(0), Some(Vec::new()), "handed out empty");
        assert_eq!(r.bytes, bytes(2));
        assert!(r.take(2).is_some() && r.take(2).is_none());
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn host_memory_of_a_dropped_pool_serves_the_next_pool() {
        // A class no other test of this crate allocates, so the buffer this
        // test parks in the process-wide reserve is the one it gets back.
        let class = 10;
        let len = class_slots(class);
        let first = small_pool(1 << 30, 0.0);
        let buf = first.alloc_u64(len, Priority::Normal).unwrap();
        let addr = buf.as_ptr();
        drop(buf);
        drop(first);

        let second = small_pool(1 << 30, 0.0);
        let buf = second.alloc_u64(len, Priority::Normal).unwrap();
        assert_eq!(buf.as_ptr(), addr, "same host buffer");
        assert!(buf.is_empty() && buf.capacity() == len);
        // Accounting is the new pool's own: one fresh allocation.
        assert_eq!(second.used_bytes(), buf.accounted_bytes());
        assert_eq!(second.stats().total_allocs, 1);

        // A pool without room for the parked buffer still refuses: the
        // reserve is behind the capacity check.
        drop(buf);
        assert_eq!(second.used_bytes(), 0);
        let tight = small_pool((len * 8) as u64 - 1, 0.0);
        assert!(tight.alloc_u64(len, Priority::Normal).is_err());
        let roomy = small_pool(1 << 30, 0.0);
        assert_eq!(
            roomy.alloc_u64(len, Priority::Normal).unwrap().as_ptr(),
            addr
        );
    }

    #[test]
    fn class_for_boundaries() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(MIN_CLASS_SLOTS), Some(0));
        assert_eq!(class_for(MIN_CLASS_SLOTS + 1), Some(1));
        assert_eq!(
            class_for(class_slots(NUM_CLASSES - 1)),
            Some(NUM_CLASSES - 1)
        );
        assert_eq!(class_for(class_slots(NUM_CLASSES - 1) + 1), None);
    }
}
