use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sbx_simmem::{AllocError, BundleToken, MemEnv, MemKind, MemPool, PoolVec, Priority};

use crate::{Col, EventTime, Schema};

static NEXT_BUNDLE_ID: AtomicU32 = AtomicU32::new(1);

/// Process-unique identifier of a [`RecordBundle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BundleId(pub u32);

impl fmt::Display for BundleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

/// A pointer to one record: which bundle it lives in and its row index.
///
/// `RecordRef`s pack into a single `u64`, preserving the paper's invariant
/// that all grouping primitives "operate on 64-bit value key/pointer pairs"
/// (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordRef {
    /// The bundle holding the record.
    pub bundle: BundleId,
    /// Row index within the bundle.
    pub row: u32,
}

impl RecordRef {
    /// Packs the reference into a `u64` (bundle id in the high 32 bits).
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.bundle.0 as u64) << 32) | self.row as u64
    }

    /// Unpacks a reference produced by [`RecordRef::pack`].
    #[inline]
    pub fn unpack(raw: u64) -> RecordRef {
        RecordRef {
            bundle: BundleId((raw >> 32) as u32),
            row: raw as u32,
        }
    }
}

/// An immutable, row-format batch of records living in DRAM.
///
/// Bundles are the unit of data parallelism (paper Fig. 1c): the runtime
/// divides windows into bundles and schedules tasks per bundle. A bundle is
/// never modified after construction; grouping results are expressed as Key
/// Pointer Arrays that reference bundle rows. Memory is accounted against
/// the environment's DRAM pool and returns to it when the last
/// `Arc<RecordBundle>` drops.
pub struct RecordBundle {
    id: BundleId,
    schema: Arc<Schema>,
    data: PoolVec,
    rows: usize,
    /// Counts this bundle in its environment's `live_bundles()` until the
    /// last `Arc<RecordBundle>` drops.
    _live: BundleToken,
    /// Sanitizer handle so the shadow entry is retired exactly when the
    /// last `Arc<RecordBundle>` drops.
    #[cfg(feature = "sanitize")]
    shadow: sbx_sanitize::Sanitizer,
}

impl RecordBundle {
    /// Builds a bundle from row-major record data
    /// (`rows.len()` must be a multiple of the schema's column count).
    ///
    /// The bundle is allocated from the environment's **DRAM** pool — full
    /// records never live in HBM (paper §3).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `schema.ncols()`.
    pub fn from_rows(
        env: &MemEnv,
        schema: Arc<Schema>,
        rows: &[u64],
    ) -> Result<Arc<Self>, AllocError> {
        Self::from_fill(env, schema, rows.len(), |data| data.extend_from_slice(rows))
    }

    /// Builds a bundle out of the buffer `rows` was received into, without
    /// copying it: after the same DRAM pool request [`Self::from_rows`]
    /// makes, the pool's buffer and `rows` trade places, so the bundle keeps
    /// the filled buffer and the caller gets an empty one of the request's
    /// size class for the next batch — the role of the pre-allocated RDMA
    /// receive buffers the paper's bundles arrive in (§1).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM is exhausted; `rows` is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `schema.ncols()`.
    pub fn adopt_rows(
        env: &MemEnv,
        schema: Arc<Schema>,
        rows: &mut Vec<u64>,
    ) -> Result<Arc<Self>, AllocError> {
        Self::from_fill(env, schema, rows.len(), |data| {
            // A freed buffer is kept for the next request of its size class
            // only with at least the capacity the pool handed out.
            rows.reserve_exact(data.capacity().saturating_sub(rows.len()));
            std::mem::swap(data, rows);
        })
    }

    /// [`Self::adopt_rows`] for `rows` filled in a [`MemPool::host_buffer`]
    /// of their size class or a larger one (a producer that learns its row
    /// count as it writes, like a fused window close): moved down to their
    /// own class first if need be, and every buffer given up goes back to
    /// the host reserve, so none outlives the call. Errors and panics as
    /// `adopt_rows`.
    pub fn from_host_rows(
        env: &MemEnv,
        schema: Arc<Schema>,
        mut rows: Vec<u64>,
    ) -> Result<Arc<Self>, AllocError> {
        if MemPool::buffer_slots(rows.len()) < rows.capacity() {
            let mut fit = MemPool::host_buffer(rows.len());
            fit.extend_from_slice(&rows);
            MemPool::return_host_buffer(std::mem::replace(&mut rows, fit));
        }
        let bundle = Self::adopt_rows(env, schema, &mut rows);
        MemPool::return_host_buffer(rows);
        bundle
    }

    /// Builds a bundle of exactly `slots` values by letting `fill` append
    /// the row-major record data straight into the DRAM pool buffer, so a
    /// producer that computes its rows (Materialize, early aggregation)
    /// writes them once instead of staging them for [`Self::from_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM is exhausted (`fill` is not called).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a multiple of `schema.ncols()`, or if `fill`
    /// appends any other number of values than `slots`.
    pub fn from_fill(
        env: &MemEnv,
        schema: Arc<Schema>,
        slots: usize,
        fill: impl FnOnce(&mut Vec<u64>),
    ) -> Result<Arc<Self>, AllocError> {
        let ncols = schema.ncols();
        assert!(
            slots.is_multiple_of(ncols),
            "row data length {slots} not a multiple of column count {ncols}"
        );
        let mut data = env
            .pool(MemKind::Dram)
            .alloc_u64(slots.max(1), Priority::Normal)?;
        fill(&mut data);
        // Growing past the declared size would reallocate outside the pool.
        assert_eq!(data.len(), slots, "fill wrote a different row count");
        let nrows = slots / ncols;
        // sbx-lint: allow(atomic-ordering, monotonic id counter; uniqueness is all that matters)
        let id = BundleId(NEXT_BUNDLE_ID.fetch_add(1, Ordering::Relaxed));
        #[cfg(feature = "sanitize")]
        env.sanitizer()
            .register(id.0 as u64, nrows as u32, MemKind::Dram.index() as u8);
        Ok(Arc::new(RecordBundle {
            id,
            schema,
            data,
            rows: nrows,
            _live: env.bundle_token(),
            #[cfg(feature = "sanitize")]
            shadow: env.sanitizer().clone(),
        }))
    }

    /// This bundle's process-unique id.
    pub fn id(&self) -> BundleId {
        self.id
    }

    /// The record schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the bundle holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes of record data.
    pub fn bytes(&self) -> usize {
        self.rows * self.schema.record_bytes()
    }

    /// The value at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn value(&self, row: usize, col: Col) -> u64 {
        assert!(col.0 < self.schema.ncols(), "{col} out of range");
        self.data[row * self.schema.ncols() + col.0]
    }

    /// The event timestamp of `row`.
    #[inline]
    pub fn ts(&self, row: usize) -> EventTime {
        EventTime(self.value(row, self.schema.ts_col()))
    }

    /// The full row as a slice of column values.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        let n = self.schema.ncols();
        &self.data[row * n..(row + 1) * n]
    }

    /// Every row back to back, row-major (`rows() * ncols` values).
    #[inline]
    pub fn as_rows(&self) -> &[u64] {
        &self.data
    }

    /// A [`RecordRef`] to `row`.
    #[inline]
    pub fn record_ref(&self, row: usize) -> RecordRef {
        debug_assert!(row < self.rows);
        RecordRef {
            bundle: self.id,
            row: row as u32,
        }
    }

    /// Iterates over the rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }
}

impl fmt::Debug for RecordBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordBundle")
            .field("id", &self.id)
            .field("rows", &self.rows)
            .field("ncols", &self.schema.ncols())
            .finish()
    }
}

#[cfg(feature = "sanitize")]
impl Drop for RecordBundle {
    fn drop(&mut self) {
        self.shadow.free(self.id.0 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::MachineConfig;

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    #[test]
    fn from_rows_round_trips_values() {
        let env = env();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 10, 100, 2, 20, 200]).unwrap();
        assert_eq!(b.rows(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.value(0, Col(0)), 1);
        assert_eq!(b.value(1, Col(1)), 20);
        assert_eq!(b.ts(1), EventTime(200));
        assert_eq!(b.row(0), &[1, 10, 100]);
        assert_eq!(b.bytes(), 48);
        let rows: Vec<_> = b.iter().collect();
        assert_eq!(rows, vec![&[1u64, 10, 100][..], &[2, 20, 200][..]]);
    }

    #[test]
    fn bundle_ids_are_unique() {
        let env = env();
        let a = RecordBundle::from_rows(&env, Schema::kvt(), &[0, 0, 0]).unwrap();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[0, 0, 0]).unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn record_ref_packs_and_unpacks() {
        let r = RecordRef {
            bundle: BundleId(0xDEAD_BEEF),
            row: 0x1234_5678,
        };
        assert_eq!(RecordRef::unpack(r.pack()), r);
    }

    #[test]
    fn memory_is_accounted_against_dram_and_released() {
        let env = env();
        let before = env.pool(MemKind::Dram).used_bytes();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &vec![0u64; 3000]).unwrap();
        assert!(env.pool(MemKind::Dram).used_bytes() > before);
        assert_eq!(env.pool(MemKind::Hbm).used_bytes(), 0);
        assert_eq!(env.live_bundles(), 1);
        drop(b);
        assert_eq!(env.live_bundles(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_rows_rejected() {
        let env = env();
        let _ = RecordBundle::from_rows(&env, Schema::kvt(), &[1, 2]);
    }

    #[test]
    fn from_fill_writes_rows_in_place() {
        let env = env();
        let b = RecordBundle::from_fill(&env, Schema::kvt(), 6, |d| {
            d.extend_from_slice(&[1, 10, 100]);
            d.extend_from_slice(&[2, 20, 200]);
        })
        .unwrap();
        assert_eq!(b.rows(), 2);
        assert_eq!(b.as_rows(), &[1, 10, 100, 2, 20, 200]);
    }

    #[test]
    #[should_panic(expected = "different row count")]
    fn from_fill_rejects_a_short_fill() {
        let env = env();
        let _ =
            RecordBundle::from_fill(&env, Schema::kvt(), 6, |d| d.extend_from_slice(&[1, 2, 3]));
    }

    #[test]
    fn adopt_rows_trades_the_filled_buffer_for_an_empty_one() {
        let env = env();
        let mut rows: Vec<u64> = (0..3000).collect();
        let filled = rows.as_ptr();
        let b = RecordBundle::adopt_rows(&env, Schema::kvt(), &mut rows).unwrap();
        assert_eq!(b.rows(), 1000);
        assert_eq!(b.row(999), &[2997, 2998, 2999]);
        // The caller's buffer is the pool's: empty, and as large as the
        // size class the request fell into.
        assert!(rows.is_empty() && rows.capacity() >= 3000);
        assert_ne!(rows.as_ptr(), filled);
        let used = env.pool(MemKind::Dram).used_bytes();
        assert_eq!(used, 4096 * 8);
        // Dropped, the adopted buffer gives its bytes back like any other.
        drop(b);
        assert_eq!(env.pool(MemKind::Dram).used_bytes(), 0);
    }

    #[test]
    fn from_host_rows_keeps_a_fitting_buffer_and_moves_rows_out_of_a_larger_one() {
        let env = env();
        for (class_of, moved) in [(3000, false), (30_000, true)] {
            let mut rows = MemPool::host_buffer(class_of);
            rows.extend(0..3000);
            let at = rows.as_ptr();
            let b = RecordBundle::from_host_rows(&env, Schema::kvt(), rows).unwrap();
            assert_eq!(b.row(999), &[2997, 2998, 2999]);
            assert_eq!(b.as_rows().as_ptr() != at, moved, "a buffer for {class_of}");
            // Accounted at the rows' own size class, as `from_rows` would be.
            assert_eq!(env.pool(MemKind::Dram).used_bytes(), 4096 * 8);
        }
    }

    #[test]
    fn adopt_rows_leaves_the_rows_alone_when_dram_is_full() {
        let mut machine = MachineConfig::knl();
        machine.dram.capacity_bytes = 1024;
        let env = MemEnv::new(machine);
        let mut rows: Vec<u64> = (0..3000).collect();
        let (at, capacity) = (rows.as_ptr(), rows.capacity());
        assert!(RecordBundle::adopt_rows(&env, Schema::kvt(), &mut rows).is_err());
        assert_eq!((rows.as_ptr(), rows.capacity()), (at, capacity));
        assert!(rows.iter().copied().eq(0..3000));
        assert_eq!(env.live_bundles(), 0);
    }

    #[test]
    fn empty_bundle_is_valid() {
        let env = env();
        let b = RecordBundle::from_rows(&env, Schema::kvt(), &[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }
}
