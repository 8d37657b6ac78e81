//! Pointer-provenance sanitizer for the StreamBox-HBM KPA data plane.
//!
//! The whole KPA design (paper §4, Table 2) rests on pointer indirection:
//! Key Pointer Arrays hold packed `(key, pointer)` pairs that reference
//! rows of record bundles, while spill, eviction, knob moves and
//! checkpoint restore relocate or reclaim those records across memory
//! tiers. `#![forbid(unsafe_code)]` keeps the *process* memory-safe, but
//! it cannot see *modelled* lifetime bugs — a KPA whose pointers outlive
//! the bundle generation they were captured against is silently wrong,
//! not a crash.
//!
//! This crate provides the machinery to catch that class of bug:
//!
//! * [`ShadowTable`] — a pure (clonable, lock-free) shadow-state table
//!   recording every allocation's generation, tier, owning operator and
//!   liveness, with a checker for each bug class;
//! * [`Sanitizer`] — the shared process wrapper the memory environment
//!   owns (one per `MemEnv`), adding a global cross-pool allocation index
//!   so a pointer resolved against the wrong pool is distinguished from a
//!   forged pointer;
//! * [`op_scope`] / [`current_scope`] — a thread-local span/owner scope
//!   the engine sets around every operator invocation, so each finding
//!   carries the allocating *and* faulting span ids and lands on the
//!   sbx-obs trace timeline.
//!
//! The sanitizer is *fault-free-oracle* style: bug fixtures model the
//! fault in shadow state (inject a free, bump a generation, forge a
//! pointer) over perfectly healthy real objects, the data plane validates
//! every resolution against the shadow table, and the [`Report`] is the
//! observable — the process itself never dereferences anything invalid.
//!
//! # Example
//!
//! ```
//! use sbx_sanitize::{op_scope, BugClass, Sanitizer};
//!
//! let san = Sanitizer::new();
//! let alloc = 7u64;
//! {
//!     let _g = op_scope(1, "source");
//!     san.register(alloc, 100, 1);
//! }
//! let _g = op_scope(2, "aggregate");
//! assert!(san.resolve(alloc, 99, None)); // healthy resolution
//! san.inject_free(alloc); // model a premature reclamation
//! assert!(!san.resolve(alloc, 99, None)); // caught
//! let r = &san.reports()[0];
//! assert_eq!(r.class, BugClass::UseAfterFree);
//! assert_eq!((r.alloc_span, r.fault_span), (1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sanitizer;
mod table;

pub use sanitizer::{current_scope, op_scope, Sanitizer, ScopeGuard};
pub use table::{BugClass, Report, Scope, ShadowAlloc, ShadowTable, UNATTRIBUTED};
