//! Records, bundles, event time and windows for StreamBox-HBM.
//!
//! Streams are unbounded sequences of fixed-width numeric records. At
//! ingress, records are batched into [`RecordBundle`]s — immutable,
//! row-format arrays allocated in DRAM (paper §3: "in arrival order and in
//! row format"). The engine never mutates a bundle; grouping operations work
//! on Key Pointer Arrays that *point into* bundles, and a bundle is
//! reclaimed when the last KPA referencing it is destroyed (§5.1). Here that
//! reference counting is carried by `Arc<RecordBundle>`: each KPA holds one
//! strong link per source bundle, and dropping the last link returns the
//! bundle's memory to the DRAM pool.
//!
//! Event time is explicit: every record carries a timestamp column, sources
//! inject [`Watermark`]s, and [`WindowSpec`] maps timestamps to temporal
//! windows.
//!
//! # Example
//!
//! ```
//! use sbx_records::{RecordBundle, Schema, Col};
//! use sbx_simmem::{MachineConfig, MemEnv};
//!
//! let env = MemEnv::new(MachineConfig::knl().scaled(0.001));
//! let schema = Schema::kvt(); // key, value, timestamp
//! let bundle = RecordBundle::from_rows(&env, schema, &[1, 10, 0, 2, 20, 5])?;
//! assert_eq!(bundle.rows(), 2);
//! assert_eq!(bundle.value(1, Col(1)), 20);
//! assert_eq!(bundle.ts(1).raw(), 5);
//! # Ok::<(), sbx_simmem::AllocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod schema;
mod time;
mod window;

pub use bundle::{BundleId, RecordBundle, RecordRef};
pub use schema::{Col, Schema};
pub use time::{EventTime, Watermark};
pub use window::{WindowId, WindowSpec};
