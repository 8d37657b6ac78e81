use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use sbx_simmem::{AllocError, MemEnv, MemKind, MemPool, PoolVec, Priority};

use sbx_records::{BundleId, Col, RecordBundle, RecordRef, Schema};

use crate::{mergepath, profile, ExecCtx, PrimGroup};

/// Takes a set of buffers from one tier, all or nothing: `alloc` runs against
/// the pool of `want`, and when that is HBM and cannot hold everything
/// `alloc` asks for, what it got is dropped and the whole set comes from
/// DRAM instead, counted as one spill. Returns the set and the tier it is on.
pub(crate) fn alloc_or_spill<T>(
    env: &MemEnv,
    want: MemKind,
    alloc: impl Fn(&MemPool) -> Result<T, AllocError>,
) -> Result<(T, MemKind), AllocError> {
    match alloc(env.pool(want)) {
        Ok(set) => Ok((set, want)),
        Err(_) if want == MemKind::Hbm => {
            let set = alloc(env.pool(MemKind::Dram))?;
            env.note_spill();
            Ok((set, MemKind::Dram))
        }
        Err(e) => Err(e),
    }
}

/// Allocates a pair of `n`-slot buffers on `want`, spilling to DRAM when the
/// preferred tier is full. Returns the buffers and the tier actually used.
pub(crate) fn alloc_pair_bufs(
    env: &MemEnv,
    n: usize,
    want: MemKind,
    prio: Priority,
) -> Result<(PoolVec, PoolVec, MemKind), AllocError> {
    let pair = |pool: &MemPool| Ok((pool.alloc_u64(n, prio)?, pool.alloc_u64(n, prio)?));
    let ((keys, ptrs), got) = alloc_or_spill(env, want, pair)?;
    Ok((keys, ptrs, got))
}

/// Select's compaction loop, shared by Extract (pairs formed from bundle
/// rows) and [`Kpa::select`] (pairs of another KPA): appends to the empty
/// `keys`/`ptrs` the pairs of `pairs` — at most `n` of them — whose key
/// `keep` accepts, in order.
///
/// Branch-free: both buffers are sized for all `n` pairs up front, every
/// pair is written at the cursor, and the cursor advances by `keep(key)`,
/// so an unpredictable predicate costs no mispredictions. With an
/// always-true `keep` the loop is a plain copy.
fn compact_pairs(
    keys: &mut Vec<u64>,
    ptrs: &mut Vec<u64>,
    n: usize,
    pairs: impl Iterator<Item = (u64, u64)>,
    mut keep: impl FnMut(u64) -> bool,
) {
    keys.resize(n, 0);
    ptrs.resize(n, 0);
    let mut kept = 0;
    for (key, ptr) in pairs {
        keys[kept] = key;
        ptrs[kept] = ptr;
        kept += usize::from(keep(key));
    }
    keys.truncate(kept);
    ptrs.truncate(kept);
}

/// The packed pointer to row 0 of `bundle`; row `r`'s is it plus `r`.
fn first_ptr(bundle: &RecordBundle) -> u64 {
    RecordRef {
        bundle: bundle.id(),
        row: 0,
    }
    .pack()
}

/// The pairs `bundle`'s rows make with column `col` as the key, in row
/// order: what an Extract writes and a KPA in place reads.
fn row_pairs(bundle: &RecordBundle, col: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
    let rows = bundle.as_rows().chunks_exact(bundle.schema().ncols());
    rows.zip(first_ptr(bundle)..)
        .map(move |(row, ptr)| (row[col], ptr))
}

/// Maximal runs of consecutive keys inside one `width`-wide key range:
/// `(key / width, index range)` per run, in order, of the `n` keys
/// `keys(range)` yields.
///
/// Membership is a subtract-and-compare against the current range
/// `[lo, lo + span]` (`span` shrinks where the range would pass
/// `u64::MAX`, so a key below `lo` wraps to more than any `span`); the
/// division happens once per run.
fn key_range_runs<I: Iterator<Item = u64>>(
    n: usize,
    keys: impl Fn(Range<usize>) -> I,
    width: u64,
) -> impl Iterator<Item = (u64, Range<usize>)> {
    assert!(width > 0, "partition width must be positive");
    let mut start = 0;
    std::iter::from_fn(move || {
        let mut rest = keys(start..n);
        let group = rest.next()? / width;
        let lo = group * width;
        let span = (width - 1).min(u64::MAX - lo);
        let len = rest
            .position(|k| k.wrapping_sub(lo) > span)
            .map_or(n - start, |at| at + 1);
        let run = start..start + len;
        start = run.end;
        Some((group, run))
    })
}

/// Provenance link between a KPA's pointers and the shadow table of the
/// environment that issued them: the sanitizer handle plus, per source
/// bundle, the shadow generation the pointers were captured against.
/// A later relocation (spill, knob move, checkpoint restore) bumps the
/// shadow generation, so resolving through this link flags the pointers
/// as stale-tier.
#[cfg(feature = "sanitize")]
#[derive(Clone)]
struct ShadowLink {
    san: sbx_sanitize::Sanitizer,
    expected: BTreeMap<u32, u32>,
}

#[cfg(feature = "sanitize")]
impl ShadowLink {
    /// Captures the current shadow generation of `bundle` at extraction.
    fn capture(env: &MemEnv, bundle: &Arc<RecordBundle>) -> ShadowLink {
        let san = env.sanitizer().clone();
        let mut expected = BTreeMap::new();
        if let Some(g) = san.generation(bundle.id().0 as u64) {
            expected.insert(bundle.id().0, g);
        }
        ShadowLink { san, expected }
    }

    /// Unions the captured generations of two links (merge inherits the
    /// provenance of all source bundles of both inputs).
    fn union(mut self, other: &ShadowLink) -> ShadowLink {
        for (&id, &g) in &other.expected {
            self.expected.entry(id).or_insert(g);
        }
        self
    }

    /// Validates one packed pointer; false means the dereference would be
    /// invalid (a report has been recorded).
    fn check(&self, raw: u64) -> bool {
        let r = RecordRef::unpack(raw);
        self.san.resolve(
            r.bundle.0 as u64,
            r.row,
            self.expected.get(&r.bundle.0).copied(),
        )
    }
}

/// Resolves a KPA's packed pointers to record data for one whole-KPA pass
/// (keyed/unkeyed reduction, Materialize, KeySwap, …); see
/// [`Kpa::resolver`].
///
/// Built once per pass from the KPA's source links. A KPA in place
/// ([`Kpa::extract_in_place`]: no pointer, one source) reads pair `i` as
/// row `i`. One that links one bundle — every KPA between Extract and its
/// first merge — resolves by direct index into that bundle's rows.
/// Otherwise the per-pair work is one
/// probe of a small open-addressed `bundle id → row data` table and one
/// slice of the bundle's rows — instead of an ordered-map walk and an `Arc`
/// hop per pair. Bundle ids are process-global, so the sources of one KPA
/// may be arbitrarily sparse; the table hashes ids and assumes nothing
/// about their range.
pub struct Resolver<'a> {
    ptrs: &'a [u64],
    /// The source, when there is exactly one (`slots` is then empty).
    only: Option<Source<'a>>,
    /// Linear-probed table, a power of two long and at most half full.
    slots: Vec<Option<Source<'a>>>,
    /// Keeps the top `log2(slots.len())` bits of a 64-bit hash.
    shift: u32,
    #[cfg(feature = "sanitize")]
    shadow: &'a ShadowLink,
}

#[derive(Clone, Copy)]
struct Source<'a> {
    id: BundleId,
    ncols: usize,
    rows: &'a [u64],
}

impl<'a> Resolver<'a> {
    fn new(
        ptrs: &'a [u64],
        sources: &'a BTreeMap<BundleId, Arc<RecordBundle>>,
        #[cfg(feature = "sanitize")] shadow: &'a ShadowLink,
    ) -> Self {
        let source = |(&id, b): (&BundleId, &'a Arc<RecordBundle>)| Source {
            id,
            ncols: b.schema().ncols(),
            rows: b.as_rows(),
        };
        let mut res = Resolver {
            ptrs,
            only: None,
            slots: Vec::new(),
            shift: 0,
            #[cfg(feature = "sanitize")]
            shadow,
        };
        if sources.len() == 1 {
            res.only = sources.iter().next().map(source);
            return res;
        }
        let len = (2 * sources.len()).next_power_of_two().max(2);
        res.shift = u64::BITS - len.trailing_zeros();
        res.slots.resize(len, None);
        for src in sources.iter().map(source) {
            let mut at = res.home(src.id);
            while res.slots[at].is_some() {
                at = (at + 1) % res.slots.len();
            }
            res.slots[at] = Some(src);
        }
        res
    }

    /// First slot probed for `id`: Fibonacci hashing, which spreads the
    /// consecutive or evenly strided ids a window's bundles usually have.
    #[inline]
    fn home(&self, id: BundleId) -> usize {
        (u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The linked source holding bundle `id`.
    #[inline]
    fn source(&self, id: BundleId) -> &Source<'a> {
        if let Some(src) = &self.only {
            assert!(src.id == id, "pointer into unlinked bundle {id}");
            return src;
        }
        let mut at = self.home(id);
        loop {
            let slot = &self.slots[at];
            // The table is at most half full, so probing for a bundle that
            // is not linked ends at an empty slot.
            assert!(slot.is_some(), "pointer into unlinked bundle {id}");
            match slot {
                Some(src) if src.id == id => return src,
                _ => at = (at + 1) % self.slots.len(),
            }
        }
    }

    /// The full record pair `i` points to (a random DRAM access).
    ///
    /// Under `--features sanitize` the resolution is validated first; an
    /// invalid pointer records a finding and yields `None`, for which
    /// callers substitute a benign value so the fault-free-oracle run
    /// completes. Without the feature the result is always `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or the pointer leads outside the
    /// KPA's source bundles.
    // Always inlined: a call per pair costs a key swap about half its time.
    #[inline(always)]
    pub fn row(&self, i: usize) -> Option<&'a [u64]> {
        let Some(&raw) = self.ptrs.get(i) else {
            return self.row_in_place(i);
        };
        #[cfg(feature = "sanitize")]
        if !self.shadow.check(raw) {
            return None;
        }
        let r = RecordRef::unpack(raw);
        let src = self.source(r.bundle);
        let at = r.row as usize * src.ncols;
        Some(&src.rows[at..at + src.ncols])
    }

    /// Row `i` of the one source of a KPA in place, which has no pointers:
    /// a one-off lookup, since a pass over a KPA in place reads its rows
    /// ([`Kpa::records`]). Out of line, so the pointer path stays small.
    #[cold]
    #[inline(never)]
    fn row_in_place(&self, i: usize) -> Option<&'a [u64]> {
        let src = self.only.as_ref().filter(|_| self.ptrs.is_empty());
        assert!(src.is_some(), "pair {i} out of range");
        src.map(|src| &src.rows[i * src.ncols..(i + 1) * src.ncols])
    }

    /// Column `col` of the record pair `i` points to; `0` for a pointer the
    /// sanitizer rejected (see [`Resolver::row`]).
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`Resolver::row`], or if `col` is out of
    /// range for the record.
    #[inline]
    pub fn value(&self, i: usize, col: Col) -> u64 {
        self.row(i).map_or(0, |r| r[col.0])
    }

    /// What pair `i` adds to a keyed sum: [`Resolver::value`] of `col`, or
    /// 1 without one (a count), which reads no record yet shows
    /// `--features sanitize` every pointer.
    #[inline]
    pub(crate) fn summand(&self, i: usize, col: Option<Col>) -> u64 {
        match col {
            Some(col) => self.value(i, col),
            None => {
                if cfg!(feature = "sanitize") {
                    _ = self.row(i);
                }
                1
            }
        }
    }
}

/// A Key Pointer Array: the only data structure StreamBox-HBM places in HBM.
///
/// A `Kpa` pairs one *resident* key column (a copy of one column of the full
/// records) with packed [`RecordRef`] pointers into DRAM bundles. It also
/// carries one strong link per source bundle, implementing the paper's
/// reference-counted bundle reclamation (§5.1): a bundle's memory returns to
/// the DRAM pool when the last KPA pointing into it is destroyed.
///
/// After multiple rounds of grouping a KPA's pointers may reference records
/// in any number of bundles in any order (paper Fig. 3).
///
/// The pairs have one of two layouts; the pool request and every charge
/// are the same in both. [`Kpa::extract_in_place`] leaves them *in place*
/// ([`Kpa::rows_in_place`]): pair `i` is row `i` of the one source bundle,
/// for every row, and its key is the row's resident column, so nothing is
/// written. They are *written* into the request by the primitive that first
/// reorders, drops or recomputes them — Sort, Merge, Select (an
/// [`Kpa::extract_select`] that drops a row among them), Partition (but a
/// consumed KPA in one group, [`Kpa::into_partitions`]),
/// [`Kpa::update_keys`] and [`Kpa::key_compose`] — and by the eager
/// [`Kpa::extract`]. A key swap and every reader take either layout.
///
/// # Example
///
/// ```
/// use sbx_kpa::{ExecCtx, Kpa, reduce_keyed};
/// use sbx_records::{Col, RecordBundle, Schema};
/// use sbx_simmem::{MachineConfig, MemEnv, MemKind, Priority};
///
/// let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
/// let mut ctx = ExecCtx::new(&env);
/// // Two records: (key, value, ts).
/// let bundle = RecordBundle::from_rows(&env, Schema::kvt(), &[2, 20, 0, 1, 10, 1])?;
/// let mut kpa = Kpa::extract(&mut ctx, &bundle, Col(0), MemKind::Hbm, Priority::Normal)?;
/// kpa.sort(&mut ctx, 1)?;
/// assert_eq!(kpa.keys(), &[1, 2]);
/// let mut sums = Vec::new();
/// reduce_keyed(&mut ctx, &kpa, Col(1), |g| sums.push((g.key, g.values[0])));
/// assert_eq!(sums, vec![(1, 10), (2, 20)]);
/// # Ok::<(), sbx_simmem::AllocError>(())
/// ```
pub struct Kpa {
    keys: PoolVec,
    ptrs: PoolVec,
    resident: Col,
    schema: Arc<Schema>,
    // Ordered so source iteration (and hence Debug output and merge
    // unions) is deterministic.
    sources: BTreeMap<BundleId, Arc<RecordBundle>>,
    sorted: bool,
    layout: Layout,
    #[cfg(feature = "sanitize")]
    shadow: ShadowLink,
}

/// Where a KPA's pairs are.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Pair `i` is row `i` of the one source and its key the resident
    /// column; `keys` and `ptrs` are only the request the pairs would fill.
    Rows,
    /// The pairs are in `keys` and `ptrs`.
    Written,
}

/// What an in-place Extract ([`Kpa::extract_in_place`]) charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractCharge {
    /// A sequential read of the bundle and the pair write
    /// ([`profile::extract`]).
    Read,
    /// The pair write alone (paper §4.3 optimization 1: "coalesces
    /// adjacent Materialize and Extract primitives to exploit data
    /// locality"): an operator has just produced the bundle, so its records
    /// are still hot and are not read a second time.
    Fused,
}

impl Kpa {
    /// A KPA over the same records as `self` (resident column, schema,
    /// source links, provenance) holding other, written pairs.
    fn like(&self, keys: PoolVec, ptrs: PoolVec, sorted: bool) -> Kpa {
        Kpa {
            keys,
            ptrs,
            resident: self.resident,
            schema: Arc::clone(&self.schema),
            sources: self.sources.clone(),
            sorted,
            layout: Layout::Written,
            #[cfg(feature = "sanitize")]
            shadow: self.shadow.clone(),
        }
    }

    /// Writes the pairs of a KPA in place into its request, as Extract
    /// would have, charging nothing (its Extract charged the write); a KPA
    /// whose pairs are written is left alone. [`Kpa::extract`] and the
    /// tests' oracles call it; every primitive that needs the pairs
    /// written writes them itself.
    pub fn write_pairs(&mut self) {
        self.write_pairs_where(|_| true);
    }

    /// The one path that writes the pairs of a KPA in place: those of the
    /// rows whose key `keep` accepts.
    fn write_pairs_where(&mut self, keep: impl FnMut(u64) -> bool) {
        let bundle = match self.sources.values().next() {
            Some(bundle) if self.layout == Layout::Rows => bundle,
            _ => return,
        };
        let n = bundle.rows();
        let pairs = row_pairs(bundle, self.resident.0);
        compact_pairs(&mut self.keys, &mut self.ptrs, n, pairs, keep);
        self.layout = Layout::Written;
        self.sorted |= self.keys.len() <= 1;
    }

    /// **Extract** (Table 2), eager: [`Kpa::extract_in_place`] charged
    /// with a full read of the bundle, its pairs then written
    /// ([`Kpa::write_pairs`]). It stays for the callers that read
    /// [`Kpa::keys`] right after it, the benchmark's traced layers among
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the KPA.
    pub fn extract(
        ctx: &mut ExecCtx,
        bundle: &Arc<RecordBundle>,
        col: Col,
        kind: MemKind,
        prio: Priority,
    ) -> Result<Kpa, AllocError> {
        let mut kpa = Self::extract_in_place(ctx, bundle, col, kind, prio, ExtractCharge::Read)?;
        kpa.write_pairs();
        Ok(kpa)
    }

    /// **Extract** (Table 2): creates a KPA over every record of `bundle`
    /// with column `col` as the resident key, its pairs left in the rows
    /// ([`Kpa::rows_in_place`]) until a primitive reorders, drops or
    /// recomputes them. Charged as `charge` says.
    ///
    /// Allocation prefers `kind` (the placement decided by the runtime's
    /// demand-balance knob) and spills to DRAM when HBM is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the KPA.
    pub fn extract_in_place(
        ctx: &mut ExecCtx,
        bundle: &Arc<RecordBundle>,
        col: Col,
        kind: MemKind,
        prio: Priority,
        charge: ExtractCharge,
    ) -> Result<Kpa, AllocError> {
        assert!(col.0 < bundle.schema().ncols(), "{col} out of range");
        let n = bundle.rows();
        let (keys, ptrs, _) = alloc_pair_bufs(ctx.env(), n, kind, prio)?;
        let kpa = Kpa {
            keys,
            ptrs,
            resident: col,
            schema: Arc::clone(bundle.schema()),
            sources: BTreeMap::from([(bundle.id(), Arc::clone(bundle))]),
            sorted: n <= 1,
            layout: Layout::Rows,
            #[cfg(feature = "sanitize")]
            shadow: ShadowLink::capture(ctx.env(), bundle),
        };
        let profile = match charge {
            ExtractCharge::Read => profile::extract(n, bundle.schema().record_bytes(), kpa.kind()),
            ExtractCharge::Fused => sbx_simmem::AccessProfile::new()
                .seq(kpa.kind(), n as f64 * profile::PAIR_BYTES)
                .cpu(n as f64 * profile::EXTRACT_CYCLES),
        };
        ctx.charge_as(PrimGroup::Extract, &profile);
        Ok(kpa)
    }

    /// **Select** fused with Extract: creates a KPA holding only the records
    /// of `bundle` whose `col` value satisfies `pred` (how `Filter`-style
    /// `ParDo`s are executed, paper §4.2). One that keeps every record is
    /// left in place, as [`Kpa::extract_in_place`] leaves it.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the KPA.
    pub fn extract_select(
        ctx: &mut ExecCtx,
        bundle: &Arc<RecordBundle>,
        col: Col,
        kind: MemKind,
        prio: Priority,
        pred: impl FnMut(u64) -> bool,
    ) -> Result<Kpa, AllocError> {
        let mut kpa = Self::extract_in_place(ctx, bundle, col, kind, prio, ExtractCharge::Read)?;
        kpa.write_pairs_where(pred);
        let n = bundle.rows();
        if kpa.keys.len() == n {
            (kpa.layout, kpa.sorted) = (Layout::Rows, n <= 1);
            kpa.keys.clear();
            kpa.ptrs.clear();
        }
        ctx.charge(&sbx_simmem::AccessProfile::new().cpu(n as f64 * profile::SELECT_CYCLES));
        Ok(kpa)
    }

    /// **Select** (Table 2): subsets this KPA, keeping pairs whose resident
    /// key satisfies `pred`. The output stays on the same tier.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on output allocation failure.
    pub fn select(
        &self,
        ctx: &mut ExecCtx,
        prio: Priority,
        pred: impl FnMut(u64) -> bool,
    ) -> Result<Kpa, AllocError> {
        let (n, run) = (self.len(), self.run());
        let (mut keys, mut ptrs, got) = alloc_pair_bufs(ctx.env(), n, self.kind(), prio)?;
        let pairs = run.keys(0..n).zip((0..n).map(|i| run.ptr(i)));
        compact_pairs(&mut keys, &mut ptrs, n, pairs, pred);
        ctx.charge(&profile::select(n, keys.len(), self.kind(), got));
        Ok(self.like(keys, ptrs, self.sorted))
    }

    /// **KeySwap** (Table 2): replaces the resident keys with nonresident
    /// column `col`, dereferencing each pointer (random DRAM access).
    ///
    /// Clears the sorted flag unless the KPA is trivially sorted. A KPA in
    /// place ([`Kpa::rows_in_place`]) has only its resident column moved:
    /// its keys are read from the rows, so nothing is written.
    pub fn key_swap(&mut self, ctx: &mut ExecCtx, col: Col) {
        if col == self.resident {
            return;
        }
        if self.layout == Layout::Written {
            let records = Resolver::new(
                &self.ptrs,
                &self.sources,
                #[cfg(feature = "sanitize")]
                &self.shadow,
            );
            for (i, key) in self.keys.iter_mut().enumerate() {
                *key = records.value(i, col);
            }
        }
        self.swapped_to(ctx, col);
    }

    /// [`Kpa::key_swap`] to a column other than the resident one that also
    /// reads each record's column `also` into `values` (cleared first) in
    /// the same pass, for an aggregation over the swapped keys: one
    /// dereference per pair instead of two. Says whether it read them: a
    /// KPA in place is swapped as by `key_swap`, its values left in its
    /// rows for the aggregation to read there.
    pub fn key_swap_reading(
        &mut self,
        ctx: &mut ExecCtx,
        col: Col,
        also: Col,
        values: &mut Vec<u64>,
    ) -> bool {
        debug_assert_ne!(col, self.resident, "a swap to the resident column");
        values.clear();
        if self.layout == Layout::Rows {
            self.swapped_to(ctx, col);
            return false;
        }
        let records = Resolver::new(
            &self.ptrs,
            &self.sources,
            #[cfg(feature = "sanitize")]
            &self.shadow,
        );
        for (i, key) in self.keys.iter_mut().enumerate() {
            // A pointer the sanitizer rejected reads 0, as `Resolver::value`.
            let row = records.row(i);
            *key = row.map_or(0, |r| r[col.0]);
            values.push(row.map_or(0, |r| r[also.0]));
        }
        self.swapped_to(ctx, col);
        true
    }

    /// A key swap's charge and flags.
    fn swapped_to(&mut self, ctx: &mut ExecCtx, col: Col) {
        ctx.charge(&profile::key_swap(self.len(), self.kind(), false));
        self.resident = col;
        self.sorted = self.len() <= 1;
    }

    /// Updates the resident keys in place (e.g. the External Join of YSB
    /// replacing `ad_id` with `campaign_id`, paper Fig. 5 step 3).
    ///
    /// The cost of writing dirty keys back to the nonresident column is
    /// charged per the paper's optimization (2) in §4.3.
    pub fn update_keys(&mut self, ctx: &mut ExecCtx, mut f: impl FnMut(u64) -> u64) {
        self.update_keys_with(ctx, |keys| keys.iter_mut().for_each(|k| *k = f(*k)));
    }

    /// [`Kpa::update_keys`] with `map` applied to the whole key column in
    /// one call (a boxed map: one dynamic call per KPA, not per key).
    pub fn update_keys_with(&mut self, ctx: &mut ExecCtx, map: impl FnOnce(&mut [u64])) {
        self.write_pairs();
        map(&mut self.keys);
        ctx.charge(&profile::key_swap(self.len(), self.kind(), true));
        self.sorted = self.len() <= 1;
    }

    /// Replaces the resident keys with a key *computed* from several
    /// nonresident columns (e.g. the Power Grid pipeline's composite
    /// `house x plug` key). Costs one random record access per pair, like
    /// [`Kpa::key_swap`].
    pub fn key_compose(
        &mut self,
        ctx: &mut ExecCtx,
        cols: &[Col],
        mut f: impl FnMut(&[u64]) -> u64,
    ) {
        // sbx-lint: allow(raw-alloc, per-call scratch bounded by column count)
        let mut vals = vec![0u64; cols.len()];
        self.write_pairs();
        let records = Resolver::new(
            &self.ptrs,
            &self.sources,
            #[cfg(feature = "sanitize")]
            &self.shadow,
        );
        for (i, key) in self.keys.iter_mut().enumerate() {
            // A pointer the sanitizer rejected composes to key 0.
            *key = records.row(i).map_or(0, |row| {
                for (v, &c) in vals.iter_mut().zip(cols) {
                    *v = row[c.0];
                }
                f(&vals)
            });
        }
        ctx.charge(&profile::key_swap(self.len(), self.kind(), false));
        self.sorted = self.len() <= 1;
    }

    /// **Materialize** (Table 2): emits a bundle of full records in DRAM,
    /// in KPA order, dereferencing each pointer.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM cannot hold the output bundle.
    ///
    /// # Panics
    ///
    /// Panics if the source bundles disagree on schema shape.
    pub fn materialize(&self, ctx: &mut ExecCtx) -> Result<Arc<RecordBundle>, AllocError> {
        let schema = self.schema();
        let ncols = schema.ncols();
        assert!(
            self.sources.values().all(|b| b.schema().ncols() == ncols),
            "source schemas disagree"
        );
        self.charge_materialize(ctx);
        // Rows go straight into the output bundle's DRAM pool buffer.
        RecordBundle::from_fill(ctx.env(), schema, self.len() * ncols, |out| {
            for record in self.records() {
                match record {
                    Some(row) => out.extend_from_slice(row),
                    // Copy-out of an invalid pointer: the finding is
                    // recorded; emit a zero row so the fault-free oracle
                    // run completes.
                    None => out.resize(out.len() + ncols, 0),
                }
            }
        })
    }

    /// The record of each pair, in pair order, for one pass over all of
    /// them ([`Kpa::resolver`]; `None` where the sanitizer rejects a
    /// pointer).
    pub fn records(&self) -> impl Iterator<Item = Option<&[u64]>> + '_ {
        // Rows in place are read as chunks: per pair through
        // `Resolver::row`, an unkeyed fold over them (`AvgAll`) ran 3-7x
        // slower in a micro-benchmark (EXPERIMENTS.md).
        let rows = self
            .rows_in_place()
            .map(|b| b.as_rows().chunks_exact(b.schema().ncols()));
        let written = if rows.is_some() { 0 } else { self.len() };
        let records = self.resolver();
        let rows = rows.into_iter().flatten().map(Some);
        rows.chain((0..written).map(move |i| records.row(i)))
    }

    /// The source bundle of a KPA in place — pair `i` is its row `i`, for
    /// every row, the key its resident column, and no pair is written, so
    /// [`Kpa::materialize`] would copy out exactly that bundle's rows — or
    /// `None` once the pairs are written.
    pub fn rows_in_place(&self) -> Option<&Arc<RecordBundle>> {
        self.sources
            .values()
            .next()
            .filter(|_| self.layout == Layout::Rows)
    }

    /// [`Kpa::materialize`]'s charge and DRAM request with no row written:
    /// the stand-in for the output bundle of a KPA whose records are
    /// already their source's rows in order ([`Kpa::rows_in_place`]),
    /// held until dropped, so every pool gauge reads as if it were made.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if DRAM cannot hold the output bundle.
    pub fn materialize_request(&self, ctx: &mut ExecCtx) -> Result<PoolVec, AllocError> {
        self.charge_materialize(ctx);
        let slots = self.len() * self.schema.ncols();
        ctx.env()
            .pool(MemKind::Dram)
            .alloc_u64(slots.max(1), Priority::Normal)
    }

    fn charge_materialize(&self, ctx: &mut ExecCtx) {
        let record_bytes = self.schema.record_bytes();
        ctx.charge_as(
            PrimGroup::Materialize,
            &profile::materialize(self.len(), record_bytes, self.kind()),
        );
    }

    /// **Partition** (Table 2): scatters pairs into groups by key range —
    /// group `g` takes the resident keys in `[g * width, (g + 1) * width)` —
    /// preserving order within each group. Returns `(group, partition)`
    /// pairs in ascending group order.
    ///
    /// Windowing operators partition timestamps with "the window/slide
    /// length as the key range of each output partition" (paper §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on output allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn partition_by(
        &self,
        ctx: &mut ExecCtx,
        prio: Priority,
        width: u64,
    ) -> Result<Vec<(u64, Kpa)>, AllocError> {
        let mut outs = self.partition_requests(ctx, prio, width)?;
        self.copy_runs(width, &mut outs);
        Ok(self.partitions(outs))
    }

    /// [`Kpa::partition_by`] of a KPA the caller gives up: when every pair
    /// falls in one group, the output's request takes this KPA's host
    /// buffers where the size classes match ([`PoolVec::trade_host_buffer`]).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on output allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn into_partitions(
        mut self,
        ctx: &mut ExecCtx,
        prio: Priority,
        width: u64,
    ) -> Result<Vec<(u64, Kpa)>, AllocError> {
        let mut outs = self.partition_requests(ctx, prio, width)?;
        if outs.len() != 1 {
            self.copy_runs(width, &mut outs);
            return Ok(self.partitions(outs));
        }
        if let Some((keys, ptrs)) = outs.values_mut().next() {
            for (out, input) in [(keys, &mut self.keys), (ptrs, &mut self.ptrs)] {
                if !out.trade_host_buffer(input) {
                    out.extend_from_slice(input);
                }
            }
        }
        let mut parts = self.partitions(outs);
        if self.layout == Layout::Rows {
            // A bundle in one group stays in place: the group is its rows.
            for (_, part) in &mut parts {
                (part.layout, part.sorted) = (Layout::Rows, self.sorted);
            }
        }
        Ok(parts)
    }

    /// Partition's charge and its exactly-sized buffer pair per group, in
    /// ascending group order. A stream mostly in timestamp order is a few
    /// long runs, so the count map is touched once per run, not per pair.
    fn partition_requests(
        &self,
        ctx: &mut ExecCtx,
        prio: Priority,
        width: u64,
    ) -> Result<BTreeMap<u64, (PoolVec, PoolVec)>, AllocError> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        self.key_ranges(width, |ranges| {
            for (g, run) in ranges {
                *counts.entry(g).or_insert(0) += run.len();
            }
        });
        let mut outs = BTreeMap::new();
        for (&g, &c) in &counts {
            let (k, p, _) = alloc_pair_bufs(ctx.env(), c, self.kind(), prio)?;
            outs.insert(g, (k, p));
        }
        ctx.charge(&profile::partition(self.len(), self.kind(), self.kind()));
        Ok(outs)
    }

    /// The runs of [`key_range_runs`] over this KPA's keys, handed to `f`.
    fn key_ranges<R>(
        &self,
        width: u64,
        f: impl FnOnce(&mut dyn Iterator<Item = (u64, Range<usize>)>) -> R,
    ) -> R {
        let run = self.run();
        f(&mut key_range_runs(
            run.len(),
            move |at| run.keys(at),
            width,
        ))
    }

    /// Copies each key-range run of pairs into its group's buffers.
    fn copy_runs(&self, width: u64, outs: &mut BTreeMap<u64, (PoolVec, PoolVec)>) {
        let run = self.run();
        self.key_ranges(width, |ranges| {
            for (g, at) in ranges {
                let Some((k, p)) = outs.get_mut(&g) else {
                    continue;
                };
                k.extend(run.keys(at.clone()));
                p.extend(at.map(|i| run.ptr(i)));
            }
        });
    }

    /// The filled group buffers as partitions of this KPA's records.
    fn partitions(&self, outs: BTreeMap<u64, (PoolVec, PoolVec)>) -> Vec<(u64, Kpa)> {
        outs.into_iter()
            .map(|(g, (keys, ptrs))| {
                let sorted = self.sorted || keys.len() <= 1;
                (g, self.like(keys, ptrs, sorted))
            })
            // sbx-lint: allow(raw-alloc, group handle list; pair data lives in pool buffers)
            .collect()
    }

    /// **Merge** (Table 2): merges two KPAs sorted on the same resident
    /// column into one sorted KPA on `out_kind` (falling back to DRAM) —
    /// [`Kpa::merge_many`] of two borrowed inputs, the same bucket walk as
    /// any other number of runs.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on output allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if either input is unsorted or resident columns differ.
    pub fn merge(
        ctx: &mut ExecCtx,
        a: &Kpa,
        b: &Kpa,
        out_kind: MemKind,
        prio: Priority,
    ) -> Result<Kpa, AllocError> {
        Self::merge_runs(ctx, &[a, b], out_kind, prio)
    }

    /// Merges any number of sorted KPAs into one in a *single pass* (the
    /// window-closure step of Keyed Aggregation, paper Fig. 4a): one walk
    /// over the runs' buckets on the calling thread (see
    /// [`crate::mergepath`]), each pair moving exactly once however many
    /// KPAs close the window. Charges one read + one write pass with
    /// `log2(k)` comparisons per pair (see [`profile::merge_kway`]). No
    /// window close writes a merged KPA ([`Kpa::merge_fold`],
    /// [`Kpa::merge_gather`]); this stays for the benchmark's staged
    /// replay, the merge-strategy ablation and the closes' oracles.
    ///
    /// Equal keys come out in input-list order (left wins ties). The output
    /// inherits the links to all source bundles of every input (paper
    /// §5.1).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on output allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if `kpas` is empty, any input is unsorted, or resident
    /// columns differ.
    pub fn merge_many(
        ctx: &mut ExecCtx,
        mut kpas: Vec<Kpa>,
        out_kind: MemKind,
        prio: Priority,
    ) -> Result<Kpa, AllocError> {
        assert!(!kpas.is_empty(), "merge_many needs at least one input");
        if kpas.len() == 1 {
            if let Some(k) = kpas.pop() {
                return Ok(k);
            }
        }
        Self::merge_runs(ctx, &kpas, out_kind, prio)
    }

    /// The merge body: two or more owned or borrowed inputs.
    fn merge_runs<K: std::borrow::Borrow<Kpa>>(
        ctx: &mut ExecCtx,
        kpas: &[K],
        out_kind: MemKind,
        prio: Priority,
    ) -> Result<Kpa, AllocError> {
        let (mut merged, runs) = Self::merge_request(ctx, kpas, out_kind, prio)?;
        let total = runs.iter().map(mergepath::Run::len).sum();
        merged.keys.resize(total, 0);
        merged.ptrs.resize(total, 0);
        let (keys, ptrs) = (&mut merged.keys, &mut merged.ptrs);
        mergepath::merge_runs(&runs, keys, ptrs);
        Ok(merged)
    }

    /// A `Sum` of column `col` (no `col`: a `Count`) closing a window of
    /// sorted KPAs in one pass ([`mergepath::fold_runs`]): the `[key,
    /// aggregate, start]` rows that [`Kpa::merge_many`] and then a scalar
    /// fold of each key's records would give, in a
    /// [`MemPool::host_buffer`] for [`RecordBundle::from_host_rows`], and the
    /// [`FoldedWindow`] standing in for the merged KPA — requested and its
    /// merge charged as by `merge_many`, never written.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the merged KPA's request fails.
    ///
    /// # Panics
    ///
    /// As [`Kpa::merge_many`].
    pub fn merge_fold(
        ctx: &mut ExecCtx,
        kpas: Vec<Kpa>,
        col: Option<Col>,
        start: u64,
        out_kind: MemKind,
        prio: Priority,
    ) -> Result<(Vec<u64>, FoldedWindow), AllocError> {
        Self::merge_walk(ctx, kpas, out_kind, prio, |runs, records| {
            let value = |r: usize, i: usize| records[r].summand(i, col);
            let pairs = runs.iter().map(mergepath::Run::len).sum::<usize>();
            // Distinct keys are at most the pairs and the sorted runs' key
            // span, so the rows' buffer is the output's size class.
            let ends = runs.iter().filter(|r| !r.is_empty());
            let ends = ends.map(|r| (r.key(0), r.key(r.len() - 1)));
            let (lo, hi) = ends.fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
            let span = usize::try_from(hi.saturating_sub(lo)).unwrap_or(usize::MAX);
            let mut rows = MemPool::host_buffer(3 * pairs.min(span.saturating_add(1)));
            mergepath::fold_runs(runs, col.map(|c| c.0), value, start, &mut rows);
            rows
        })
    }

    /// A window of sorted KPAs closed by a keyed reduction that needs each
    /// key's values ([`mergepath::gather_runs`]): `sink(key, values)` once
    /// per key, ascending, `values` its records' column `col` in the order
    /// [`Kpa::merge_many`] and then [`crate::reduce_keyed`] would hand them
    /// out (and free to reorder). Returns the [`FoldedWindow`] standing in
    /// for the merged KPA, requested and charged as by
    /// [`Kpa::merge_fold`].
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the merged KPA's request fails.
    ///
    /// # Panics
    ///
    /// As [`Kpa::merge_many`].
    pub fn merge_gather(
        ctx: &mut ExecCtx,
        kpas: Vec<Kpa>,
        col: Col,
        out_kind: MemKind,
        prio: Priority,
        sink: impl FnMut(u64, &mut [u64]),
    ) -> Result<FoldedWindow, AllocError> {
        let gathered = Self::merge_walk(ctx, kpas, out_kind, prio, |runs, records| {
            mergepath::gather_runs(runs, |r, i| records[r].value(i, col), sink);
        });
        Ok(gathered?.1)
    }

    /// The close shared by [`Kpa::merge_fold`] and [`Kpa::merge_gather`]:
    /// the merged KPA's pool request and merge charge (none for a lone
    /// input, which stands for itself as `merge_many` returns it), then
    /// `walk` over the runs with one resolver per run, so a partial
    /// bundle's takes no hashed probe, and one in place no pointer.
    fn merge_walk<R>(
        ctx: &mut ExecCtx,
        mut kpas: Vec<Kpa>,
        out_kind: MemKind,
        prio: Priority,
        walk: impl FnOnce(&[mergepath::Run<'_>], &[Resolver<'_>]) -> R,
    ) -> Result<(R, FoldedWindow), AllocError> {
        assert!(!kpas.is_empty(), "a window close needs at least one input");
        let (merged, runs) = match kpas.len() {
            1 => (None, Self::runs_of(&kpas)),
            _ => {
                let (merged, runs) = Self::merge_request(ctx, &kpas, out_kind, prio)?;
                (Some(merged), runs)
            }
        };
        let pairs = runs.iter().map(mergepath::Run::len).sum();
        // sbx-lint: allow(raw-alloc, one resolver per input KPA; rows go to the output bundle)
        let records: Vec<Resolver<'_>> = kpas.iter().map(Kpa::resolver).collect();
        let out = walk(&runs, &records);
        let merged = merged.unwrap_or_else(|| kpas.swap_remove(0));
        Ok((out, FoldedWindow { merged, pairs }))
    }

    /// The runs of the sorted `kpas`, checked to be mergeable.
    fn runs_of<K: std::borrow::Borrow<Kpa>>(kpas: &[K]) -> Vec<mergepath::Run<'_>> {
        let first: &Kpa = kpas[0].borrow();
        kpas.iter()
            .map(K::borrow)
            .map(|k| {
                assert!(k.sorted, "merge requires sorted inputs");
                assert_eq!(k.resident, first.resident, "resident columns must match");
                k.run()
            })
            // sbx-lint: allow(raw-alloc, k run descriptors; pair data lives in pool buffers)
            .collect()
    }

    /// The merged KPA of `kpas`, its pairs not yet written — its pool
    /// request on `out_kind` (DRAM when that is full), linked to every
    /// input's sources, the merge charged — and the runs to merge into it.
    fn merge_request<'a, K: std::borrow::Borrow<Kpa>>(
        ctx: &mut ExecCtx,
        kpas: &'a [K],
        out_kind: MemKind,
        prio: Priority,
    ) -> Result<(Kpa, Vec<mergepath::Run<'a>>), AllocError> {
        let runs = Self::runs_of(kpas);
        let total = runs.iter().map(mergepath::Run::len).sum();
        let (keys, ptrs, got) = alloc_pair_bufs(ctx.env(), total, out_kind, prio)?;
        let first: &Kpa = kpas[0].borrow();
        // Charge the scan of the inputs on their (possibly distinct) tiers.
        let in_kind = if kpas.iter().all(|k| k.borrow().kind() == first.kind()) {
            first.kind()
        } else {
            MemKind::Dram
        };
        ctx.charge_as(
            PrimGroup::Merge,
            &profile::merge_kway(total, kpas.len(), in_kind, got),
        );

        let mut sources = BTreeMap::new();
        for k in kpas.iter().map(K::borrow) {
            for (id, b) in &k.sources {
                sources.entry(*id).or_insert_with(|| Arc::clone(b));
            }
        }
        let merged = Kpa {
            keys,
            ptrs,
            resident: first.resident,
            schema: Arc::clone(&first.schema),
            sources,
            sorted: true,
            layout: Layout::Written,
            #[cfg(feature = "sanitize")]
            shadow: kpas
                .iter()
                .skip(1)
                .fold(first.shadow.clone(), |acc, k| acc.union(&k.borrow().shadow)),
        };
        Ok((merged, runs))
    }

    /// Number of key/pointer pairs.
    pub fn len(&self) -> usize {
        match self.layout {
            Layout::Rows => self.sources.values().next().map_or(0, |b| b.rows()),
            Layout::Written => self.keys.len(),
        }
    }

    /// Whether the KPA holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tier holding the key/pointer arrays.
    pub fn kind(&self) -> MemKind {
        self.keys.kind()
    }

    /// The resident key column.
    pub fn resident(&self) -> Col {
        self.resident
    }

    /// Whether the pairs are sorted by resident key.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The resident keys.
    ///
    /// # Panics
    ///
    /// Panics on a KPA in place ([`Kpa::rows_in_place`]), whose keys are
    /// its rows' ([`Kpa::key_iter`], [`Kpa::key`]).
    pub fn keys(&self) -> &[u64] {
        assert!(
            self.layout == Layout::Written,
            "the keys of a KPA in place are its rows'"
        );
        &self.keys
    }

    /// The resident keys in pair order, for one pass: a KPA in place reads
    /// them from its rows, where [`Kpa::keys`] would panic.
    pub fn key_iter(&self) -> impl Iterator<Item = u64> + '_ {
        let run = self.run();
        run.keys(0..run.len())
    }

    /// The resident key of pair `i`, in either layout: a one-off lookup
    /// (a pass over all keys takes [`Kpa::key_iter`]).
    pub fn key(&self, i: usize) -> u64 {
        match self.layout {
            Layout::Rows => self.run().key(i),
            Layout::Written => self.keys[i],
        }
    }

    /// The KPA as a merge run: a KPA in place is its rows.
    pub(crate) fn run(&self) -> mergepath::Run<'_> {
        match self.rows_in_place() {
            Some(b) => {
                let (ncols, base) = (b.schema().ncols(), first_ptr(b));
                mergepath::Run::rows(b.as_rows(), ncols, self.resident.0, base)
            }
            None => mergepath::Run::pairs(&self.keys, &self.ptrs),
        }
    }

    /// The pointer at index `i`.
    pub fn record_ref(&self, i: usize) -> RecordRef {
        assert!(i < self.len(), "pair {i} out of range");
        RecordRef::unpack(self.run().ptr(i))
    }

    /// A pointer resolver for one pass over this KPA's records — what every
    /// loop that dereferences all (or most) pairs should use; [`Kpa::deref`]
    /// and [`Kpa::value_at`] are the one-off lookups.
    pub fn resolver(&self) -> Resolver<'_> {
        Resolver::new(
            &self.ptrs,
            &self.sources,
            #[cfg(feature = "sanitize")]
            &self.shadow,
        )
    }

    /// Dereferences pair `i` to its source bundle and row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn deref(&self, i: usize) -> (&Arc<RecordBundle>, usize) {
        let r = self.record_ref(i);
        (&self.sources[&r.bundle], r.row as usize)
    }

    /// The full-record column `col` of pair `i` (a random DRAM access).
    ///
    /// Under `--features sanitize` the resolution is validated first; an
    /// invalid pointer records a finding and yields `0`.
    pub fn value_at(&self, i: usize, col: Col) -> u64 {
        #[cfg(feature = "sanitize")]
        if !self.shadow.check(self.record_ref(i).pack()) {
            return 0;
        }
        let (b, row) = self.deref(i);
        b.value(row, col)
    }

    /// The schema of the records this KPA points to (captured from the
    /// source bundle at extraction, so it is available even when every
    /// pair was filtered out).
    pub fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of source bundles this KPA links to (pins in memory).
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// HBM/DRAM bytes this KPA's key/pointer arrays occupy.
    pub fn footprint_bytes(&self) -> u64 {
        self.keys.accounted_bytes() + self.ptrs.accounted_bytes()
    }

    pub(crate) fn keys_mut_parts(&mut self) -> (&mut Vec<u64>, &mut Vec<u64>) {
        // PoolVec derefs to Vec<u64>; split borrows for the sorter.
        self.write_pairs();
        (&mut self.keys, &mut self.ptrs)
    }

    pub(crate) fn set_sorted(&mut self, sorted: bool) {
        self.sorted = sorted;
    }

    /// Marks the KPA as sorted when the caller constructed it in key order
    /// (e.g. extracting from a bundle whose rows a keyed reduction emitted
    /// in ascending key order), skipping a redundant sort.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the keys are not actually nondecreasing.
    pub fn mark_sorted(&mut self) {
        debug_assert!(
            self.run().keys(0..self.len()).is_sorted(),
            "mark_sorted on unsorted keys"
        );
        self.sorted = true;
    }
}

/// Fault-injection hooks for the sanitizer's seeded-bug corpus. These model
/// pointer-plane bugs *in shadow state only*: the real objects stay healthy
/// and the guarded dereference paths substitute benign values, so the
/// [`sbx_sanitize::Report`] is the sole observable.
#[cfg(feature = "sanitize")]
impl Kpa {
    /// Overwrites pointer `i` with a forged packed [`RecordRef`] (wild- and
    /// stale-pointer fixtures).
    pub fn corrupt_ptr(&mut self, i: usize, raw: u64) {
        self.write_pairs();
        self.ptrs[i] = raw;
    }

    /// Rebinds shadow validation to another environment's sanitizer,
    /// modelling a KPA resolved against the wrong memory pool.
    pub fn rebind_sanitizer(&mut self, env: &MemEnv) {
        self.shadow.san = env.sanitizer().clone();
    }

    /// The shadow generation this KPA's pointers were captured against for
    /// `bundle`, if it is one of the KPA's sources.
    pub fn expected_generation(&self, bundle: BundleId) -> Option<u32> {
        self.shadow.expected.get(&bundle.0).copied()
    }
}

/// The merged KPA a [`Kpa::merge_fold`] or [`Kpa::merge_gather`] did not
/// write: its pool request and source links (a one-KPA window's KPA
/// itself), held until dropped.
#[derive(Debug)]
pub struct FoldedWindow {
    merged: Kpa,
    pairs: usize,
}

impl FoldedWindow {
    /// Charges the keyed reduction over the merged KPA, as
    /// [`crate::reduce_keyed`] charges it.
    pub fn charge_reduce(&self, ctx: &mut ExecCtx) {
        ctx.charge(&profile::reduce_keyed(self.pairs, self.merged.kind()));
    }
}

impl fmt::Debug for Kpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kpa")
            .field("len", &self.len())
            .field("kind", &self.kind())
            .field("resident", &self.resident)
            .field("sorted", &self.sorted)
            .field("sources", &self.sources.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::{AccessProfile, MachineConfig};

    fn env() -> MemEnv {
        MemEnv::new(MachineConfig::knl().scaled(0.01))
    }

    fn kv_bundle(env: &MemEnv, rows: &[(u64, u64, u64)]) -> Arc<RecordBundle> {
        let flat: Vec<u64> = rows.iter().flat_map(|&(k, v, t)| [k, v, t]).collect();
        RecordBundle::from_rows(env, Schema::kvt(), &flat).unwrap()
    }

    #[test]
    fn extract_copies_keys_and_points_back() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(5, 50, 0), (3, 30, 1), (9, 90, 2)]);
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(kpa.len(), 3);
        assert_eq!(kpa.kind(), MemKind::Hbm);
        assert_eq!(kpa.keys(), &[5, 3, 9]);
        assert_eq!(kpa.value_at(1, Col(1)), 30);
        assert_eq!(kpa.source_count(), 1);
        assert!(ctx.profile().seq_bytes[MemKind::Hbm.index()] > 0.0);
    }

    #[test]
    fn extract_fused_matches_extract_but_charges_less() {
        let env = env();
        let b = kv_bundle(&env, &[(5, 50, 0), (3, 30, 1), (9, 90, 2)]);

        let mut ctx_full = ExecCtx::new(&env);
        let full = Kpa::extract(&mut ctx_full, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let p_full = ctx_full.take_profile();

        let mut ctx_fused = ExecCtx::new(&env);
        let (hbm, fused) = (MemKind::Hbm, ExtractCharge::Fused);
        let mut kpa =
            Kpa::extract_in_place(&mut ctx_fused, &b, Col(0), hbm, Priority::Normal, fused)
                .unwrap();
        let p_fused = ctx_fused.take_profile();

        assert_eq!(kpa.value_at(2, Col(1)), 90);
        kpa.write_pairs();
        assert_eq!(full.keys(), kpa.keys());
        // The fused variant skips the DRAM re-read of the bundle.
        assert!(p_fused.seq_bytes[MemKind::Dram.index()] < p_full.seq_bytes[MemKind::Dram.index()]);
        assert_eq!(
            p_fused.seq_bytes[MemKind::Hbm.index()],
            p_full.seq_bytes[MemKind::Hbm.index()]
        );
    }

    #[test]
    fn extract_spills_to_dram_when_hbm_full() {
        // Tiny HBM (a 20k-row pair-buffer cannot fit) but roomy DRAM.
        let mut machine = MachineConfig::knl().scaled(0.01);
        machine.hbm.capacity_bytes = 32 * 1024;
        let env = MemEnv::new(machine);
        let mut ctx = ExecCtx::new(&env);
        let rows: Vec<(u64, u64, u64)> = (0..20_000).map(|i| (i, i, i)).collect();
        let b = kv_bundle(&env, &rows);
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(kpa.kind(), MemKind::Dram);
    }

    #[test]
    fn key_swap_switches_resident_column() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 10, 100), (2, 20, 200)]);
        let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.key_swap(&mut ctx, Col(2));
        assert_eq!(kpa.resident(), Col(2));
        assert_eq!(kpa.keys(), &[100, 200]);
        // Swapping to the same column is a no-op.
        let before = *ctx.profile();
        kpa.key_swap(&mut ctx, Col(2));
        assert_eq!(*ctx.profile(), before);
    }

    /// The same bundle as a KPA in place and with its pairs written.
    fn in_place_and_written(env: &MemEnv, ctx: &mut ExecCtx, col: Col) -> (Kpa, Kpa) {
        let rows = [(4, 40, 15), (2, 20, 5), (9, 90, 25), (2, 21, 7), (7, 70, 5)];
        let b = kv_bundle(env, &rows);
        let hbm = (MemKind::Hbm, Priority::Normal);
        let in_place = Kpa::extract_in_place(ctx, &b, col, hbm.0, hbm.1, ExtractCharge::Read);
        let in_place = in_place.unwrap();
        let written = Kpa::extract(ctx, &b, col, hbm.0, hbm.1).unwrap();
        assert!(in_place.rows_in_place().is_some() && written.rows_in_place().is_none());
        (in_place, written)
    }

    /// A KPA's pairs, pointers and flags, and what reading it charged.
    fn seen(ctx: &mut ExecCtx, kpa: &Kpa) -> (Vec<u64>, Vec<u64>, Col, bool, AccessProfile) {
        let run = kpa.run();
        let ptrs = (0..kpa.len()).map(|i| run.ptr(i)).collect();
        let keys = run.keys(0..kpa.len()).collect();
        (
            keys,
            ptrs,
            kpa.resident(),
            kpa.is_sorted(),
            ctx.take_profile(),
        )
    }

    #[test]
    fn every_reader_of_a_kpa_in_place_equals_it_written() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let (mut in_place, written) = in_place_and_written(&env, &mut ctx, Col(2));
        ctx.take_profile();
        assert_eq!(seen(&mut ctx, &in_place), seen(&mut ctx, &written), "run");
        let read = |ctx: &mut ExecCtx, kpa: &Kpa| {
            let kept = kpa.select(ctx, Priority::Normal, |t| t % 10 == 5).unwrap();
            let mut out = vec![seen(ctx, &kept)];
            for width in [10, 100] {
                for (_, part) in kpa.partition_by(ctx, Priority::Normal, width).unwrap() {
                    out.push(seen(ctx, &part));
                }
            }
            let records = kpa.resolver();
            let resolved: Vec<_> = (0..kpa.len()).map(|i| records.row(i)).collect();
            let listed: Vec<_> = kpa.records().collect();
            assert_eq!(resolved, listed);
            let bundle = kpa.materialize(ctx).unwrap();
            let refs: Vec<_> = (0..kpa.len()).map(|i| kpa.record_ref(i)).collect();
            (out, bundle.as_rows().to_vec(), refs, ctx.take_profile())
        };
        let want = read(&mut ctx, &written);
        assert_eq!(read(&mut ctx, &in_place), want, "the readers");
        // A swap to the resident column moves nothing: still in place.
        in_place.key_swap(&mut ctx, Col(2));
        assert!(in_place.rows_in_place().is_some());
        let swapped = read(&mut ctx, &in_place);
        assert_eq!(swapped, want, "after a swap to the resident column");
    }

    #[test]
    fn a_swap_in_place_charges_as_written_and_writes_nothing() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        for reading in [false, true] {
            let (mut in_place, mut written) = in_place_and_written(&env, &mut ctx, Col(2));
            let mut values = vec![1];
            ctx.take_profile();
            let swap = |kpa: &mut Kpa, ctx: &mut ExecCtx, values: &mut Vec<u64>| match reading {
                true => kpa.key_swap_reading(ctx, Col(0), Col(1), values),
                false => {
                    kpa.key_swap(ctx, Col(0));
                    false
                }
            };
            assert!(!swap(&mut in_place, &mut ctx, &mut values));
            assert!(in_place.rows_in_place().is_some(), "nothing written");
            assert_eq!(
                values.is_empty(),
                reading,
                "only a reading swap clears them"
            );
            let in_place_seen = seen(&mut ctx, &in_place);
            assert_eq!(swap(&mut written, &mut ctx, &mut values), reading);
            assert_eq!(in_place_seen, seen(&mut ctx, &written));
            in_place.write_pairs();
            assert_eq!(in_place.keys(), written.keys());
        }
    }

    #[test]
    #[should_panic(expected = "in place")]
    fn the_keys_of_a_kpa_in_place_are_not_readable() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let (mut in_place, _) = in_place_and_written(&env, &mut ctx, Col(2));
        in_place.key_swap(&mut ctx, Col(2));
        let _ = in_place.keys();
    }

    #[test]
    fn update_keys_applies_mapping() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 0, 0), (2, 0, 0)]);
        let mut kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.update_keys(&mut ctx, |k| k * 100);
        assert_eq!(kpa.keys(), &[100, 200]);
    }

    #[test]
    fn materialize_round_trips_records() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(5, 50, 0), (3, 30, 1)]);
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let out = kpa.materialize(&mut ctx).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.row(0), b.row(0));
        assert_eq!(out.row(1), b.row(1));
        assert_ne!(out.id(), b.id());
    }

    #[test]
    fn select_keeps_matching_pairs_only() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]);
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let even = kpa
            .select(&mut ctx, Priority::Normal, |k| k % 2 == 0)
            .unwrap();
        assert_eq!(even.keys(), &[2, 4]);
        assert_eq!(even.value_at(0, Col(0)), 2);
    }

    #[test]
    fn extract_select_fuses_filter() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 0, 0), (2, 0, 0), (3, 0, 0)]);
        let kpa = Kpa::extract_select(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal, |k| {
            k > 1
        })
        .unwrap();
        assert_eq!(kpa.keys(), &[2, 3]);
    }

    #[test]
    fn partition_by_groups_and_preserves_order() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let rows: Vec<(u64, u64, u64)> = vec![(0, 0, 15), (0, 0, 5), (0, 0, 25), (0, 0, 7)];
        let b = kv_bundle(&env, &rows);
        let mut kpa = Kpa::extract(&mut ctx, &b, Col(2), MemKind::Hbm, Priority::Normal).unwrap();
        kpa.set_sorted(false);
        let parts = kpa.partition_by(&mut ctx, Priority::Normal, 10).unwrap();
        let groups: Vec<u64> = parts.iter().map(|(g, _)| *g).collect();
        assert_eq!(groups, vec![0, 1, 2]);
        assert_eq!(parts[0].1.keys(), &[5, 7]); // order preserved
        assert_eq!(parts[1].1.keys(), &[15]);
        assert_eq!(parts[2].1.keys(), &[25]);
    }

    /// A partition's group, keys, rows, tier and sorted flag.
    type Partition = (u64, Vec<u64>, Vec<u32>, MemKind, bool);

    /// Partitions, by `width`, a KPA over the timestamps `ts` that `keep`
    /// accepts, on an HBM of `hbm_kib`: consumed (`into_partitions`) or
    /// borrowed (`partition_by`, the input dropped after). Returns the
    /// partitions, both pools' statistics and whether a partition holds the
    /// input's key buffer.
    fn partitioned(
        hbm_kib: u64,
        ts: &[u64],
        keep: fn(u64) -> bool,
        width: u64,
        consume: bool,
    ) -> (Vec<Partition>, [sbx_simmem::PoolStats; 2], bool) {
        let mut machine = MachineConfig::knl();
        machine.hbm.capacity_bytes = hbm_kib * 1024;
        let env = MemEnv::new(machine);
        let mut ctx = ExecCtx::new(&env);
        let rows: Vec<(u64, u64, u64)> = ts.iter().map(|&t| (t, 0, t)).collect();
        let b = kv_bundle(&env, &rows);
        let mut kpa =
            Kpa::extract_select(&mut ctx, &b, Col(2), MemKind::Hbm, Priority::Normal, keep)
                .unwrap();
        // What is handed over is the written pairs' buffer.
        kpa.write_pairs();
        assert_eq!(kpa.kind(), MemKind::Hbm);
        let input = kpa.keys().as_ptr();
        let parts = if consume {
            kpa.into_partitions(&mut ctx, Priority::Normal, width)
        } else {
            let parts = kpa.partition_by(&mut ctx, Priority::Normal, width);
            drop(kpa);
            parts
        }
        .unwrap();
        let pairs = parts
            .iter()
            .map(|(g, p)| {
                let rows = (0..p.len()).map(|i| p.record_ref(i).row).collect();
                (*g, p.keys().to_vec(), rows, p.kind(), p.is_sorted())
            })
            .collect();
        let handed_over = parts.iter().any(|(_, p)| p.keys().as_ptr() == input);
        let pools = [MemKind::Hbm, MemKind::Dram].map(|k| env.pool(k).stats());
        (pairs, pools, handed_over)
    }

    #[test]
    fn a_one_pane_partition_hands_its_buffers_over_and_accounts_as_a_copy() {
        let ts: Vec<u64> = (0..2000).collect();
        let all: fn(u64) -> bool = |_| true;
        // 48 KiB of HBM holds the 32 KiB input but not its output as well;
        // keeping 2 of 5 rows leaves 800 pairs in a 2 000-pair request.
        for (case, hbm_kib, keep, width, hands_over, out_tier) in [
            ("one pane", 1024, all, 10_000, true, MemKind::Hbm),
            ("two panes", 1024, all, 1_000, false, MemKind::Hbm),
            ("output spilled", 48, all, 10_000, true, MemKind::Dram),
            (
                "smaller class",
                1024,
                |t| t % 5 < 2,
                10_000,
                false,
                MemKind::Hbm,
            ),
        ] {
            let copied = partitioned(hbm_kib, &ts, keep, width, false);
            let consumed = partitioned(hbm_kib, &ts, keep, width, true);
            assert_eq!(consumed.0, copied.0, "{case}: partitions");
            assert_eq!(consumed.1, copied.1, "{case}: pool statistics");
            assert_eq!((consumed.2, copied.2), (hands_over, false), "{case}");
            assert!(consumed.0.iter().all(|p| p.3 == out_tier), "{case}");
        }
    }

    #[test]
    fn merge_interleaves_sorted_inputs_and_unions_sources() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b1 = kv_bundle(&env, &[(1, 0, 0), (5, 0, 0)]);
        let b2 = kv_bundle(&env, &[(2, 0, 0), (9, 0, 0)]);
        let k1 = Kpa::extract(&mut ctx, &b1, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let k2 = Kpa::extract(&mut ctx, &b2, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let mut k1 = k1;
        let mut k2 = k2;
        k1.set_sorted(true);
        k2.set_sorted(true);
        let m = Kpa::merge(&mut ctx, &k1, &k2, MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(m.keys(), &[1, 2, 5, 9]);
        assert!(m.is_sorted());
        assert_eq!(m.source_count(), 2);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn merge_rejects_unsorted_inputs() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(5, 0, 0), (1, 0, 0)]);
        let k1 = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let k2 = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let _ = Kpa::merge(&mut ctx, &k1, &k2, MemKind::Hbm, Priority::Normal);
    }

    #[test]
    fn extract_of_an_empty_bundle_is_an_empty_kpa() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[]);
        let kpa = Kpa::extract_select(&mut ctx, &b, Col(2), MemKind::Hbm, Priority::Normal, |_| {
            true
        })
        .unwrap();
        assert!(kpa.is_empty() && kpa.is_sorted());
        assert_eq!(kpa.source_count(), 1);
    }

    #[test]
    #[should_panic(expected = "col3 out of range")]
    fn extract_rejects_a_column_outside_the_schema() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 10, 100)]);
        let _ = Kpa::extract(&mut ctx, &b, Col(3), MemKind::Hbm, Priority::Normal);
    }

    /// A KPA over `linked` bundles whose first pointer leads into a bundle
    /// it does not link (returned too: it stays alive, so the sanitizer has
    /// no objection of its own).
    fn kpa_with_a_stray_pointer(
        env: &MemEnv,
        ctx: &mut ExecCtx,
        linked: usize,
    ) -> (Kpa, Arc<RecordBundle>) {
        let parts = (0..linked)
            .map(|i| {
                let b = kv_bundle(env, &[(i as u64, 0, 0)]);
                let mut kpa =
                    Kpa::extract(ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
                kpa.set_sorted(true);
                kpa
            })
            .collect();
        let mut kpa = Kpa::merge_many(ctx, parts, MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(kpa.source_count(), linked);
        let elsewhere = kv_bundle(env, &[(7, 70, 700)]);
        kpa.ptrs[0] = elsewhere.record_ref(0).pack();
        (kpa, elsewhere)
    }

    #[test]
    #[should_panic(expected = "pointer into unlinked bundle")]
    fn resolver_over_one_source_rejects_a_pointer_into_another_bundle() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let (kpa, _elsewhere) = kpa_with_a_stray_pointer(&env, &mut ctx, 1);
        kpa.resolver().value(0, Col(1));
    }

    #[test]
    #[should_panic(expected = "pointer into unlinked bundle")]
    fn resolver_over_several_sources_rejects_a_pointer_into_another_bundle() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let (kpa, _elsewhere) = kpa_with_a_stray_pointer(&env, &mut ctx, 3);
        kpa.resolver().value(0, Col(1));
    }

    #[test]
    fn dropping_last_kpa_releases_bundle() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 0, 0)]);
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        drop(b); // KPA still pins the bundle
        assert_eq!(env.live_bundles(), 1);
        drop(kpa);
        assert_eq!(env.live_bundles(), 0);
    }

    #[test]
    fn footprint_matches_pool_accounting() {
        let env = env();
        let mut ctx = ExecCtx::new(&env);
        let b = kv_bundle(&env, &[(1, 0, 0), (2, 0, 0)]);
        let before = env.pool(MemKind::Hbm).used_bytes();
        let kpa = Kpa::extract(&mut ctx, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        assert_eq!(
            env.pool(MemKind::Hbm).used_bytes() - before,
            kpa.footprint_bytes()
        );
    }
}
