use std::fmt;

use crate::EventTime;

/// Identifier of a temporal window; windows are externalized in `WindowId`
/// order (record-time order, paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// How record timestamps map to temporal windows.
///
/// Fixed windows tile event time into `size`-tick buckets; sliding windows
/// of length `size` advance by `slide` ticks, so one record belongs to up
/// to `size / slide` windows (paper §4.2, Windowing operators use the
/// slide length as the partitioning key range).
///
/// # Example
///
/// ```
/// use sbx_records::{EventTime, WindowId, WindowSpec};
///
/// let sliding = WindowSpec::sliding(10, 5);
/// assert_eq!(sliding.windows_of(EventTime(12)), vec![WindowId(1), WindowId(2)]);
/// assert_eq!(sliding.start(WindowId(2)), EventTime(10));
/// assert_eq!(sliding.end(WindowId(2)), EventTime(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowSpec {
    /// Non-overlapping windows of `size` ticks.
    Fixed {
        /// Window length in event-time ticks.
        size: u64,
    },
    /// Overlapping windows of `size` ticks, starting every `slide` ticks.
    Sliding {
        /// Window length in event-time ticks.
        size: u64,
        /// Distance between consecutive window starts; must divide `size`.
        slide: u64,
    },
}

impl WindowSpec {
    /// A fixed window specification.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn fixed(size: u64) -> Self {
        assert!(size > 0, "window size must be positive");
        WindowSpec::Fixed { size }
    }

    /// A sliding window specification.
    ///
    /// # Panics
    ///
    /// Panics if `slide` is zero, `slide > size`, or `slide` does not
    /// divide `size`.
    pub fn sliding(size: u64, slide: u64) -> Self {
        assert!(slide > 0 && slide <= size, "need 0 < slide <= size");
        assert!(size.is_multiple_of(slide), "slide must divide size");
        WindowSpec::Sliding { size, slide }
    }

    /// The stride between window starts.
    pub fn stride(&self) -> u64 {
        match *self {
            WindowSpec::Fixed { size } => size,
            WindowSpec::Sliding { slide, .. } => slide,
        }
    }

    /// Window length in ticks.
    pub fn size(&self) -> u64 {
        match *self {
            WindowSpec::Fixed { size } | WindowSpec::Sliding { size, .. } => size,
        }
    }

    /// The *primary* window of a timestamp: the latest window containing it.
    /// For fixed windows this is the only window.
    pub fn window_of(&self, ts: EventTime) -> WindowId {
        WindowId(ts.raw() / self.stride())
    }

    /// All windows containing `ts`, earliest first.
    pub fn windows_of(&self, ts: EventTime) -> Vec<WindowId> {
        match *self {
            // sbx-lint: allow(raw-alloc, single-entry window-id list for fixed windows)
            WindowSpec::Fixed { .. } => vec![self.window_of(ts)],
            WindowSpec::Sliding { size, slide } => {
                let latest = ts.raw() / slide;
                let overlap = size / slide;
                let earliest = latest.saturating_sub(overlap - 1);
                // sbx-lint: allow(raw-alloc, at most size/slide window ids per record)
                (earliest..=latest).map(WindowId).collect()
            }
        }
    }

    /// Start time (inclusive) of a window.
    pub fn start(&self, id: WindowId) -> EventTime {
        EventTime(id.0 * self.stride())
    }

    /// End time (exclusive) of a window.
    pub fn end(&self, id: WindowId) -> EventTime {
        EventTime(id.0 * self.stride() + self.size())
    }

    /// The last window that ends within event time. An id past it cannot
    /// be a timestamp's window, and [`Self::end`] of it overflows.
    pub fn last_window(&self) -> WindowId {
        WindowId((u64::MAX - self.size()) / self.stride())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_windows_tile_time() {
        let w = WindowSpec::fixed(10);
        assert_eq!(w.window_of(EventTime(0)), WindowId(0));
        assert_eq!(w.window_of(EventTime(9)), WindowId(0));
        assert_eq!(w.window_of(EventTime(10)), WindowId(1));
        assert_eq!(w.start(WindowId(3)), EventTime(30));
        assert_eq!(w.end(WindowId(3)), EventTime(40));
        assert_eq!(w.windows_of(EventTime(25)), vec![WindowId(2)]);
        assert_eq!(w.end(w.last_window()), EventTime(u64::MAX - 5));
        assert_eq!(WindowSpec::fixed(1).last_window(), WindowId(u64::MAX - 1));
    }

    #[test]
    fn sliding_windows_overlap() {
        let w = WindowSpec::sliding(10, 5);
        // ts=12 belongs to windows starting at 5 and 10.
        assert_eq!(w.windows_of(EventTime(12)), vec![WindowId(1), WindowId(2)]);
        assert_eq!(w.start(WindowId(2)), EventTime(10));
        assert_eq!(w.end(WindowId(2)), EventTime(20));
        // Early timestamps have fewer containing windows.
        assert_eq!(w.windows_of(EventTime(3)), vec![WindowId(0)]);
    }

    #[test]
    fn every_window_contains_its_timestamps() {
        let w = WindowSpec::sliding(12, 4);
        for t in 0..50u64 {
            for id in w.windows_of(EventTime(t)) {
                assert!(w.start(id).raw() <= t && t < w.end(id).raw());
            }
        }
    }

    #[test]
    #[should_panic(expected = "slide must divide size")]
    fn slide_must_divide_size() {
        WindowSpec::sliding(10, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fixed_size_rejected() {
        WindowSpec::fixed(0);
    }
}
