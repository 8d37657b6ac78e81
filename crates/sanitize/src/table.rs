//! The pure shadow-state table: one entry per tracked allocation, a
//! checker per bug class, and span-attributed reports.
//!
//! [`ShadowTable`] is a plain value — `Clone` forks the whole shadow
//! state. The process-wide [`crate::Sanitizer`] wraps one in a mutex.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Owner name used when no operator scope is active.
pub const UNATTRIBUTED: &str = "unattributed";

/// The span/operator attribution attached to shadow operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Trace span id (shared with sbx-obs span ids when tracing is on).
    pub span: u64,
    /// Operator (or fixture) name.
    pub owner: &'static str,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            span: 0,
            owner: UNATTRIBUTED,
        }
    }
}

/// The provenance bug classes the sanitizer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BugClass {
    /// A pointer resolved against an allocation that was already freed.
    UseAfterFree,
    /// A pointer resolved against an allocation whose records were
    /// relocated (generation bumped) after the pointer was captured —
    /// use-after-spill.
    StaleTier,
    /// An allocation freed twice.
    DoubleFree,
    /// A pointer resolved against a pool that never issued the
    /// allocation, while another pool did — cross-pool confusion.
    CrossPool,
    /// A pointer no pool ever issued, or a row index past the end of the
    /// allocation it names.
    WildPointer,
    /// An allocation still live when its engine dropped.
    Leak,
}

impl BugClass {
    fn index(self) -> u8 {
        match self {
            BugClass::UseAfterFree => 0,
            BugClass::StaleTier => 1,
            BugClass::DoubleFree => 2,
            BugClass::CrossPool => 3,
            BugClass::WildPointer => 4,
            BugClass::Leak => 5,
        }
    }
}

impl fmt::Display for BugClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugClass::UseAfterFree => "use-after-free",
            BugClass::StaleTier => "stale-tier",
            BugClass::DoubleFree => "double-free",
            BugClass::CrossPool => "cross-pool",
            BugClass::WildPointer => "wild-pointer",
            BugClass::Leak => "leak",
        };
        f.write_str(s)
    }
}

/// Shadow state of one tracked allocation (a record bundle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAlloc {
    /// Relocation generation; bumped by [`ShadowTable::relocate`].
    pub generation: u32,
    /// Memory tier currently holding the records (`MemKind::index()`).
    pub tier: u8,
    /// Operator that performed the allocation.
    pub owner: &'static str,
    /// Span id active at allocation time.
    pub alloc_span: u64,
    /// Number of addressable rows.
    pub rows: u32,
    /// Whether the allocation is still live.
    pub live: bool,
    /// Whether the free was injected by a fixture (modelled premature
    /// reclamation). The real drop-path free of an injected-freed entry
    /// is absorbed silently so a use-after-free fixture trips exactly one
    /// check.
    pub injected: bool,
}

/// One sanitizer finding, attributed to the allocating and faulting
/// spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The bug class tripped.
    pub class: BugClass,
    /// The allocation id involved (bundle id).
    pub alloc: u64,
    /// Row index of the faulting pointer (0 when not row-specific).
    pub row: u32,
    /// Operator that allocated (or [`UNATTRIBUTED`] for wild pointers).
    pub owner: &'static str,
    /// Span id active at allocation time.
    pub alloc_span: u64,
    /// Operator active at the fault.
    pub fault_owner: &'static str,
    /// Span id active at the fault.
    pub fault_span: u64,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] alloc {:#x} row {}: {} (alloc: {} span {}; fault: {} span {})",
            self.class,
            self.alloc,
            self.row,
            self.detail,
            self.owner,
            self.alloc_span,
            self.fault_owner,
            self.fault_span
        )
    }
}

/// The shadow-state table beside one memory pool.
///
/// Every data-plane allocation registers an entry; every pointer
/// resolution validates against it. Checks record a [`Report`] and
/// return validity, so callers can substitute a benign value and keep
/// the run fault-free (oracle style). Identical faults (same class,
/// allocation and row) are reported once, like a production sanitizer.
#[derive(Debug, Clone, Default)]
pub struct ShadowTable {
    entries: BTreeMap<u64, ShadowAlloc>,
    reports: Vec<Report>,
    seen: BTreeSet<(u8, u64, u32)>,
}

impl ShadowTable {
    /// An empty table.
    pub fn new() -> Self {
        ShadowTable::default()
    }

    /// Registers a fresh allocation of `rows` rows on `tier`, attributed
    /// to `scope`. Returns its initial generation.
    pub fn register(&mut self, alloc: u64, rows: u32, tier: u8, scope: Scope) -> u32 {
        let e = ShadowAlloc {
            generation: 1,
            tier,
            owner: scope.owner,
            alloc_span: scope.span,
            rows,
            live: true,
            injected: false,
        };
        self.entries.insert(alloc, e);
        e.generation
    }

    /// Drop-path free: the real owner released the allocation.
    ///
    /// A live entry is removed; an entry already freed by
    /// [`ShadowTable::inject_free`] is absorbed silently (the fixture
    /// modelled this free happening early); an entry freed twice through
    /// this path is a [`BugClass::DoubleFree`].
    pub fn free(&mut self, alloc: u64, scope: Scope) {
        match self.entries.get(&alloc) {
            Some(e) if e.live || e.injected => {
                self.entries.remove(&alloc);
            }
            Some(e) => {
                let (owner, span) = (e.owner, e.alloc_span);
                self.report(
                    BugClass::DoubleFree,
                    alloc,
                    0,
                    owner,
                    span,
                    scope,
                    "allocation freed twice".to_string(),
                );
            }
            // Allocated before the sanitizer attached; nothing to check.
            None => {}
        }
    }

    /// Models a premature reclamation: marks the allocation freed while
    /// the real object stays alive. A second injection is a
    /// [`BugClass::DoubleFree`].
    pub fn inject_free(&mut self, alloc: u64, scope: Scope) {
        match self.entries.get_mut(&alloc) {
            Some(e) if e.live => {
                e.live = false;
                e.injected = true;
            }
            Some(e) => {
                let (owner, span) = (e.owner, e.alloc_span);
                self.report(
                    BugClass::DoubleFree,
                    alloc,
                    0,
                    owner,
                    span,
                    scope,
                    "allocation freed twice".to_string(),
                );
            }
            None => {
                self.report(
                    BugClass::WildPointer,
                    alloc,
                    0,
                    UNATTRIBUTED,
                    0,
                    scope,
                    "free of an allocation this pool never issued".to_string(),
                );
            }
        }
    }

    /// Models a tier move (spill / promotion): bumps the generation and
    /// records the new tier, invalidating every pointer captured against
    /// the old generation. Returns the new generation, or `None` if the
    /// allocation is unknown or dead (reported as
    /// [`BugClass::UseAfterFree`]).
    pub fn relocate(&mut self, alloc: u64, new_tier: u8, scope: Scope) -> Option<u32> {
        match self.entries.get_mut(&alloc) {
            Some(e) if e.live => {
                e.generation += 1;
                e.tier = new_tier;
                Some(e.generation)
            }
            Some(e) => {
                let (owner, span) = (e.owner, e.alloc_span);
                self.report(
                    BugClass::UseAfterFree,
                    alloc,
                    0,
                    owner,
                    span,
                    scope,
                    "relocation of a freed allocation".to_string(),
                );
                None
            }
            None => None,
        }
    }

    /// Validates one pointer resolution: the allocation must be known,
    /// live, hold more than `row` rows and (when the resolving KPA
    /// captured one) still be at `expected_gen`. Records a report and
    /// returns `false` on any violation.
    pub fn resolve(
        &mut self,
        alloc: u64,
        row: u32,
        expected_gen: Option<u32>,
        scope: Scope,
    ) -> bool {
        let Some(e) = self.entries.get(&alloc).copied() else {
            self.report(
                BugClass::WildPointer,
                alloc,
                row,
                UNATTRIBUTED,
                0,
                scope,
                "pointer to an allocation this pool never issued".to_string(),
            );
            return false;
        };
        if !e.live {
            self.report(
                BugClass::UseAfterFree,
                alloc,
                row,
                e.owner,
                e.alloc_span,
                scope,
                "pointer resolved after the allocation was freed".to_string(),
            );
            return false;
        }
        if row >= e.rows {
            self.report(
                BugClass::WildPointer,
                alloc,
                row,
                e.owner,
                e.alloc_span,
                scope,
                format!("row {} out of range (allocation holds {})", row, e.rows),
            );
            return false;
        }
        if let Some(g) = expected_gen {
            if g != e.generation {
                self.report(
                    BugClass::StaleTier,
                    alloc,
                    row,
                    e.owner,
                    e.alloc_span,
                    scope,
                    format!(
                        "pointer captured at generation {g} but records moved to \
                         tier {} at generation {}",
                        e.tier, e.generation
                    ),
                );
                return false;
            }
        }
        true
    }

    /// Records a [`BugClass::CrossPool`] finding: `alloc` is live in the
    /// shadow table of another pool but was resolved against this one.
    pub fn report_foreign(&mut self, alloc: u64, row: u32, other_pool: u64, scope: Scope) {
        self.report(
            BugClass::CrossPool,
            alloc,
            row,
            UNATTRIBUTED,
            0,
            scope,
            format!("pointer belongs to pool {other_pool}, resolved against the wrong pool"),
        );
    }

    /// Engine-drop leak sweep: reports every live allocation not in
    /// `exclude` (legitimate run outputs) as a [`BugClass::Leak`].
    /// Returns the number of leaks found.
    pub fn sweep_leaks(&mut self, exclude: &[u64], scope: Scope) -> usize {
        let mut leaked = Vec::new();
        for (&alloc, e) in &self.entries {
            if e.live && !exclude.contains(&alloc) {
                leaked.push((alloc, e.owner, e.alloc_span, e.rows));
            }
        }
        let n = leaked.len();
        for (alloc, owner, span, rows) in leaked {
            self.report(
                BugClass::Leak,
                alloc,
                0,
                owner,
                span,
                scope,
                format!("allocation of {rows} rows still live at engine drop"),
            );
        }
        n
    }

    /// The current generation of `alloc`, if tracked.
    pub fn generation(&self, alloc: u64) -> Option<u32> {
        self.entries.get(&alloc).map(|e| e.generation)
    }

    /// Whether this table has an entry (live or tombstoned) for `alloc`.
    pub fn contains(&self, alloc: u64) -> bool {
        self.entries.contains_key(&alloc)
    }

    /// Number of live allocations tracked.
    pub fn live_count(&self) -> usize {
        self.entries.values().filter(|e| e.live).count()
    }

    /// The findings recorded so far, in detection order.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Discards recorded findings (entries stay).
    pub fn clear_reports(&mut self) {
        self.reports.clear();
        self.seen.clear();
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        class: BugClass,
        alloc: u64,
        row: u32,
        owner: &'static str,
        alloc_span: u64,
        scope: Scope,
        detail: String,
    ) {
        if !self.seen.insert((class.index(), alloc, row)) {
            return;
        }
        self.reports.push(Report {
            class,
            alloc,
            row,
            owner,
            alloc_span,
            fault_owner: scope.owner,
            fault_span: scope.span,
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(span: u64, owner: &'static str) -> Scope {
        Scope { span, owner }
    }

    #[test]
    fn healthy_lifecycle_is_clean() {
        let mut t = ShadowTable::new();
        t.register(1, 10, 1, at(1, "src"));
        assert!(t.resolve(1, 9, Some(1), at(2, "agg")));
        t.free(1, at(3, "drop"));
        assert!(t.reports().is_empty());
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn use_after_free_is_reported_once_with_both_spans() {
        let mut t = ShadowTable::new();
        t.register(1, 10, 1, at(7, "src"));
        t.inject_free(1, at(8, "bug"));
        assert!(!t.resolve(1, 3, None, at(9, "agg")));
        assert!(!t.resolve(1, 3, None, at(9, "agg"))); // deduped
        assert_eq!(t.reports().len(), 1);
        let r = &t.reports()[0];
        assert_eq!(r.class, BugClass::UseAfterFree);
        assert_eq!((r.alloc_span, r.fault_span), (7, 9));
        assert_eq!((r.owner, r.fault_owner), ("src", "agg"));
        // The real drop-path free absorbs the injected free silently.
        t.free(1, at(10, "drop"));
        assert_eq!(t.reports().len(), 1);
    }

    #[test]
    fn double_free_is_reported() {
        let mut t = ShadowTable::new();
        t.register(1, 4, 0, at(1, "src"));
        t.inject_free(1, at(2, "bug"));
        t.inject_free(1, at(3, "bug"));
        assert_eq!(t.reports().len(), 1);
        assert_eq!(t.reports()[0].class, BugClass::DoubleFree);
    }

    #[test]
    fn stale_generation_after_relocate_is_reported() {
        let mut t = ShadowTable::new();
        let g = t.register(1, 4, 0, at(1, "src"));
        assert_eq!(t.relocate(1, 1, at(2, "spill")), Some(g + 1));
        assert!(t.resolve(1, 0, Some(g + 1), at(3, "agg"))); // rebound: fine
        assert!(!t.resolve(1, 0, Some(g), at(3, "agg"))); // stale capture
        assert_eq!(t.reports().len(), 1);
        assert_eq!(t.reports()[0].class, BugClass::StaleTier);
    }

    #[test]
    fn wild_pointer_unknown_alloc_and_row_overflow() {
        let mut t = ShadowTable::new();
        t.register(1, 4, 0, at(1, "src"));
        assert!(!t.resolve(99, 0, None, at(2, "agg")));
        assert!(!t.resolve(1, 4, None, at(2, "agg")));
        let classes: Vec<BugClass> = t.reports().iter().map(|r| r.class).collect();
        assert_eq!(classes, vec![BugClass::WildPointer, BugClass::WildPointer]);
    }

    #[test]
    fn leak_sweep_respects_exclusions() {
        let mut t = ShadowTable::new();
        t.register(1, 4, 0, at(1, "src"));
        t.register(2, 4, 0, at(1, "src"));
        assert_eq!(t.sweep_leaks(&[2], at(9, "engine-drop")), 1);
        assert_eq!(t.reports().len(), 1);
        let r = &t.reports()[0];
        assert_eq!(r.class, BugClass::Leak);
        assert_eq!(r.alloc, 1);
        assert_eq!(r.fault_span, 9);
    }

    #[test]
    fn clone_forks_state() {
        let mut a = ShadowTable::new();
        a.register(1, 4, 0, at(1, "src"));
        let mut b = a.clone();
        b.inject_free(1, at(2, "bug"));
        assert!(a.resolve(1, 0, None, at(3, "agg"))); // a unaffected
        assert!(!b.resolve(1, 0, None, at(3, "agg")));
    }
}
