//! The flat row log behind two-phase output (DESIGN.md §9).

use sbx_engine::StreamData;

/// Words a log reserves at its first row: 32 MiB of address space, the
/// ceiling of glibc's sliding mmap threshold, so the buffer is mapped on its
/// own and only the pages written count as resident. Grown by doubling from
/// the heap instead, the committed log of a checkpointed run was placed
/// wherever the heap had a hole, and peak RSS moved by 8 MiB from one run
/// to the next (EXPERIMENTS.md, PR 39).
const FIRST_RESERVE_WORDS: usize = 4 << 20;

/// Output rows in emission order, stored as one flat word vector.
///
/// A checkpointed run externalizes hundreds of thousands of rows between
/// barriers; keeping each as its own `Vec` costs a heap allocation per row.
/// The log appends rows straight from the emitting bundle's row-major data
/// and remembers only *runs* of equally wide rows, so a run of one schema
/// costs its words and nothing else. Adjacent runs of one width merge, so
/// two logs holding the same rows compare equal however the pushes were
/// batched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowLog {
    words: Vec<u64>,
    /// `(width, rows)` per run; adjacent runs differ in width.
    runs: Vec<(usize, usize)>,
    rows: usize,
}

impl RowLog {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the log holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends `rows` rows of `width` words each, laid out back to back.
    fn push_block(&mut self, width: usize, rows: usize, words: &[u64]) {
        assert_eq!(words.len(), width * rows, "row block has a ragged tail");
        if rows == 0 {
            return;
        }
        if self.words.capacity() == 0 {
            self.words.reserve(FIRST_RESERVE_WORDS);
        }
        self.words.extend_from_slice(words);
        self.rows += rows;
        match self.runs.last_mut() {
            Some((w, n)) if *w == width => *n += rows,
            _ => self.runs.push((width, rows)),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[u64]) {
        self.push_block(row.len(), 1, row);
    }

    /// Appends every record a sink emitted, in emission order: a bundle's
    /// rows as one block, a KPA's records through its pointers.
    pub fn push_output(&mut self, data: &StreamData) {
        match data {
            StreamData::Bundle(b) => {
                self.push_block(b.schema().ncols(), b.rows(), b.as_rows());
            }
            StreamData::Kpa(k) | StreamData::Windowed(_, k) => {
                for i in 0..k.len() {
                    let (b, row) = k.deref(i);
                    self.push_row(b.row(row));
                }
            }
        }
    }

    /// Appends a copy of every row of `other`.
    pub fn extend(&mut self, other: &RowLog) {
        let mut words = other.words.as_slice();
        for &(width, rows) in &other.runs {
            let (block, rest) = words.split_at(width * rows);
            self.push_block(width, rows, block);
            words = rest;
        }
    }

    /// Drops every row.
    pub fn clear(&mut self) {
        self.words.clear();
        self.runs.clear();
        self.rows = 0;
    }

    /// The rows in emission order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            words: &self.words,
            runs: self.runs.iter(),
            width: 0,
            left: 0,
        }
    }
}

/// Iterator over a [`RowLog`]'s rows.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    words: &'a [u64],
    runs: std::slice::Iter<'a, (usize, usize)>,
    width: usize,
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    fn next(&mut self) -> Option<&'a [u64]> {
        while self.left == 0 {
            (self.width, self.left) = *self.runs.next()?;
        }
        self.left -= 1;
        let (row, rest) = self.words.split_at(self.width);
        self.words = rest;
        Some(row)
    }
}

impl<'a> IntoIterator for &'a RowLog {
    type Item = &'a [u64];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}
