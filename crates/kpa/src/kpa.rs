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

/// Maximal runs of consecutive `keys` inside one `width`-wide key range:
/// `(key / width, index range)` per run, in order.
///
/// Membership is a subtract-and-compare against the current range
/// `[lo, lo + span]` (`span` shrinks where the range would pass
/// `u64::MAX`, so a key below `lo` wraps to more than any `span`); the
/// division happens once per run.
fn key_range_runs(keys: &[u64], width: u64) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    assert!(width > 0, "partition width must be positive");
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = &keys[start..];
        let group = rest.first()? / width;
        let lo = group * width;
        let span = (width - 1).min(u64::MAX - lo);
        let len = rest
            .iter()
            .position(|k| k.wrapping_sub(lo) > span)
            .unwrap_or(rest.len());
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
/// Built once per pass from the KPA's source links. A KPA that links one
/// bundle — every KPA between Extract and its first merge — resolves by
/// direct index into that bundle's rows. Otherwise the per-pair work is one
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
    #[inline]
    pub fn row(&self, i: usize) -> Option<&'a [u64]> {
        let raw = self.ptrs[i];
        #[cfg(feature = "sanitize")]
        if !self.shadow.check(raw) {
            return None;
        }
        let r = RecordRef::unpack(raw);
        let src = self.source(r.bundle);
        let at = r.row as usize * src.ncols;
        Some(&src.rows[at..at + src.ncols])
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
    #[cfg(feature = "sanitize")]
    shadow: ShadowLink,
}

impl Kpa {
    /// A KPA over the same records as `self` (resident column, schema,
    /// source links, provenance) holding other pairs.
    fn like(&self, keys: PoolVec, ptrs: PoolVec, sorted: bool) -> Kpa {
        Kpa {
            keys,
            ptrs,
            resident: self.resident,
            schema: Arc::clone(&self.schema),
            sources: self.sources.clone(),
            sorted,
            #[cfg(feature = "sanitize")]
            shadow: self.shadow.clone(),
        }
    }

    /// The Extract loop behind [`Kpa::extract`], [`Kpa::extract_fused`] and
    /// [`Kpa::extract_select`], which differ only in what they charge:
    /// copies column `col` of every record `keep` accepts and forms a
    /// pointer to it, in one pass over the bundle's rows.
    fn extract_where(
        ctx: &ExecCtx,
        bundle: &Arc<RecordBundle>,
        col: Col,
        kind: MemKind,
        prio: Priority,
        keep: impl FnMut(u64) -> bool,
    ) -> Result<Kpa, AllocError> {
        let ncols = bundle.schema().ncols();
        assert!(col.0 < ncols, "{col} out of range");
        let n = bundle.rows();
        let (mut keys, mut ptrs, _) = alloc_pair_bufs(ctx.env(), n, kind, prio)?;
        // Row `r`'s pointer is the bundle's row-0 pointer plus `r`.
        let first = RecordRef {
            bundle: bundle.id(),
            row: 0,
        };
        let rows = bundle.as_rows().chunks_exact(ncols);
        let pairs = rows.zip(first.pack()..).map(|(row, ptr)| (row[col.0], ptr));
        compact_pairs(&mut keys, &mut ptrs, n, pairs, keep);
        Ok(Kpa {
            sorted: keys.len() <= 1,
            keys,
            ptrs,
            resident: col,
            schema: Arc::clone(bundle.schema()),
            sources: BTreeMap::from([(bundle.id(), Arc::clone(bundle))]),
            #[cfg(feature = "sanitize")]
            shadow: ShadowLink::capture(ctx.env(), bundle),
        })
    }

    /// **Extract** (Table 2): creates a KPA from a record bundle, copying
    /// column `col` as the resident keys and forming a pointer per record.
    ///
    /// Allocation prefers `kind` (the placement decided by the runtime's
    /// demand-balance knob) and spills to DRAM when HBM is exhausted.
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
        let kpa = Self::extract_where(ctx, bundle, col, kind, prio, |_| true)?;
        ctx.charge_as(
            PrimGroup::Extract,
            &profile::extract(bundle.rows(), bundle.schema().record_bytes(), kpa.kind()),
        );
        Ok(kpa)
    }

    /// Extract fused with bundle emission (paper §4.3 optimization 1:
    /// "coalesces adjacent Materialize and Extract primitives to exploit
    /// data locality"). When an operator has just produced `bundle`, the
    /// records are still hot, so the extraction charges only the KPA write
    /// — not a second sequential read of the bundle.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if neither tier can hold the KPA.
    pub fn extract_fused(
        ctx: &mut ExecCtx,
        bundle: &Arc<RecordBundle>,
        col: Col,
        kind: MemKind,
        prio: Priority,
    ) -> Result<Kpa, AllocError> {
        let kpa = Self::extract_where(ctx, bundle, col, kind, prio, |_| true)?;
        let n = bundle.rows() as f64;
        ctx.charge_as(
            PrimGroup::Extract,
            &sbx_simmem::AccessProfile::new()
                .seq(kpa.kind(), n * profile::PAIR_BYTES)
                .cpu(n * profile::EXTRACT_CYCLES),
        );
        Ok(kpa)
    }

    /// **Select** fused with Extract: creates a KPA holding only the records
    /// of `bundle` whose `col` value satisfies `pred` (how `Filter`-style
    /// `ParDo`s are executed, paper §4.2).
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
        let kpa = Self::extract_where(ctx, bundle, col, kind, prio, pred)?;
        let n = bundle.rows();
        ctx.charge_as(
            PrimGroup::Extract,
            &profile::extract(n, bundle.schema().record_bytes(), kpa.kind()),
        );
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
        let n = self.len();
        let (mut keys, mut ptrs, got) = alloc_pair_bufs(ctx.env(), n, self.kind(), prio)?;
        let pairs = self.keys.iter().copied().zip(self.ptrs.iter().copied());
        compact_pairs(&mut keys, &mut ptrs, n, pairs, pred);
        ctx.charge(&profile::select(n, keys.len(), self.kind(), got));
        Ok(self.like(keys, ptrs, self.sorted))
    }

    /// **KeySwap** (Table 2): replaces the resident keys with nonresident
    /// column `col`, dereferencing each pointer (random DRAM access).
    ///
    /// Clears the sorted flag unless the KPA is trivially sorted.
    pub fn key_swap(&mut self, ctx: &mut ExecCtx, col: Col) {
        if col == self.resident {
            return;
        }
        let records = Resolver::new(
            &self.ptrs,
            &self.sources,
            #[cfg(feature = "sanitize")]
            &self.shadow,
        );
        for (i, key) in self.keys.iter_mut().enumerate() {
            *key = records.value(i, col);
        }
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
        for i in 0..self.keys.len() {
            self.keys[i] = f(self.keys[i]);
        }
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
        ctx.charge_as(
            PrimGroup::Materialize,
            &profile::materialize(self.len(), schema.record_bytes(), self.kind()),
        );
        let records = self.resolver();
        // Rows go straight into the output bundle's DRAM pool buffer.
        RecordBundle::from_fill(ctx.env(), schema, self.len() * ncols, |out| {
            for i in 0..self.len() {
                match records.row(i) {
                    Some(row) => out.extend_from_slice(row),
                    // Copy-out of an invalid pointer: the finding is
                    // recorded; emit a zero row so the fault-free oracle
                    // run completes.
                    None => out.resize(out.len() + ncols, 0),
                }
            }
        })
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
        // Pass 1: count per group (ordered map: groups come out ascending).
        // A stream mostly in timestamp order is a few long runs, so the map
        // is touched once per run, not once per pair.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for (g, run) in key_range_runs(&self.keys, width) {
            *counts.entry(g).or_insert(0) += run.len();
        }

        // Pass 2: copy each run into exactly-sized pool buffers.
        let mut outs: BTreeMap<u64, (PoolVec, PoolVec)> = BTreeMap::new();
        for (&g, &c) in &counts {
            let (k, p, _) = alloc_pair_bufs(ctx.env(), c, self.kind(), prio)?;
            outs.insert(g, (k, p));
        }
        for (g, run) in key_range_runs(&self.keys, width) {
            if let Some((k, p)) = outs.get_mut(&g) {
                k.extend_from_slice(&self.keys[run.clone()]);
                p.extend_from_slice(&self.ptrs[run]);
            }
        }
        ctx.charge(&profile::partition(self.len(), self.kind(), self.kind()));

        // sbx-lint: allow(raw-alloc, group handle list; pair data lives in pool buffers above)
        let mut result = Vec::with_capacity(outs.len());
        for (g, (keys, ptrs)) in outs {
            let sorted = self.sorted || keys.len() <= 1;
            result.push((g, self.like(keys, ptrs, sorted)));
        }
        Ok(result)
    }

    /// **Merge** (Table 2): merges two KPAs sorted on the same resident
    /// column into one sorted KPA on `out_kind` (falling back to DRAM) —
    /// [`Kpa::merge_many`] of two borrowed inputs.
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
        mergepath::merge_runs(&runs, mergepath::RankBy::Key, keys, ptrs);
        Ok(merged)
    }

    /// A `Sum` of column `col` (no `col`: a `Count`) closing a window of
    /// sorted KPAs in one pass ([`mergepath::fold_runs`]): the `[key,
    /// aggregate, start]` rows that [`Kpa::merge_many`] and then
    /// [`crate::reduce_keyed_scalar`] would give, in a
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
            // A count reads no record, yet shows the sanitizer every pointer.
            let value = |r: usize, i: usize| match col {
                Some(col) => records[r].value(i, col),
                None => {
                    if cfg!(feature = "sanitize") {
                        _ = records[r].row(i);
                    }
                    1
                }
            };
            let pairs = runs.iter().map(mergepath::Run::len).sum::<usize>();
            let mut rows = MemPool::host_buffer(3 * pairs);
            mergepath::fold_runs(runs, value, start, &mut rows);
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
    /// bundle's takes no hashed probe.
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
                mergepath::Run {
                    keys: &k.keys,
                    ptrs: &k.ptrs,
                }
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
        self.keys.len()
    }

    /// Whether the KPA holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
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
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The pointer at index `i`.
    pub fn record_ref(&self, i: usize) -> RecordRef {
        RecordRef::unpack(self.ptrs[i])
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
        let r = RecordRef::unpack(self.ptrs[i]);
        (&self.sources[&r.bundle], r.row as usize)
    }

    /// The full-record column `col` of pair `i` (a random DRAM access).
    ///
    /// Under `--features sanitize` the resolution is validated first; an
    /// invalid pointer records a finding and yields `0`.
    pub fn value_at(&self, i: usize, col: Col) -> u64 {
        #[cfg(feature = "sanitize")]
        if !self.shadow.check(self.ptrs[i]) {
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
            self.keys.windows(2).all(|w| w[0] <= w[1]),
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
    /// [`crate::reduce_keyed`] and [`crate::reduce_keyed_scalar`] charge it.
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
    use sbx_simmem::MachineConfig;

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
        let fused =
            Kpa::extract_fused(&mut ctx_fused, &b, Col(0), MemKind::Hbm, Priority::Normal).unwrap();
        let p_fused = ctx_fused.take_profile();

        assert_eq!(full.keys(), fused.keys());
        assert_eq!(fused.value_at(2, Col(1)), 90);
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
