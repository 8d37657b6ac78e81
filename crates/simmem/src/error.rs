use std::error::Error;
use std::fmt;

use crate::MemKind;

/// Error returned when a pool cannot satisfy an allocation.
///
/// HBM exhaustion is an *expected* condition in StreamBox-HBM: the runtime
/// reacts to it by spilling new Key Pointer Arrays to DRAM (paper §5), so
/// this error carries enough context for the caller to decide where to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    /// Tier on which the allocation failed.
    pub kind: MemKind,
    /// Bytes requested.
    pub requested_bytes: u64,
    /// Bytes still available to this request's priority class.
    pub available_bytes: u64,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pool exhausted: requested {} bytes, {} available",
            self.kind, self.requested_bytes, self.available_bytes
        )
    }
}

impl Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_kind_and_sizes() {
        let e = AllocError {
            kind: MemKind::Hbm,
            requested_bytes: 4096,
            available_bytes: 100,
        };
        let s = e.to_string();
        assert!(s.contains("HBM"));
        assert!(s.contains("4096"));
        assert!(s.contains("100"));
    }
}
