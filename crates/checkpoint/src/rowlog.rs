//! The flat row log behind two-phase output (DESIGN.md §9).

use sbx_engine::StreamData;

/// Words a block reserves at its first row: 32 MiB of address space, the
/// ceiling of glibc's sliding mmap threshold, so the buffer is mapped on its
/// own and only the pages written count as resident. Grown by doubling from
/// the heap instead, the committed log of a checkpointed run was placed
/// wherever the heap had a hole, and peak RSS moved by 8 MiB from one run
/// to the next (EXPERIMENTS.md, PR 39).
const FIRST_RESERVE_WORDS: usize = 4 << 20;

/// Words from which [`RowLog::append`] moves a log's blocks instead of
/// copying its rows: 512 KiB. Each moved block stays a mapping of its own,
/// so moving only logs this large bounds a log's blocks by its bytes, not by
/// how many logs were appended to it.
const MOVE_MIN_WORDS: usize = 64 << 10;

/// Output rows in emission order, stored as flat word blocks.
///
/// A checkpointed run externalizes hundreds of thousands of rows between
/// barriers; keeping each as its own `Vec` costs a heap allocation per row.
/// The log appends rows straight from the emitting bundle's row-major data
/// and remembers only *runs* of equally wide rows, so a run of one schema
/// costs its words and nothing else. [`RowLog::append`] moves a large log's
/// blocks over whole, which is how a checkpoint commits its pending rows
/// without copying them. Two logs holding the same rows compare equal
/// however the pushes were batched and the blocks cut.
#[derive(Debug, Clone, Default)]
pub struct RowLog {
    blocks: Vec<Block>,
    rows: usize,
}

/// One block of a [`RowLog`]: whole rows, back to back.
#[derive(Debug, Clone, Default)]
struct Block {
    words: Vec<u64>,
    /// `(width, rows)` per run; adjacent runs differ in width.
    runs: Vec<(usize, usize)>,
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

    /// Appends `rows` rows of `width` words each, laid out back to back, to
    /// the last block (a fresh reservation when there is none).
    fn push_block(&mut self, width: usize, rows: usize, words: &[u64]) {
        assert_eq!(words.len(), width * rows, "row block has a ragged tail");
        if rows == 0 {
            return;
        }
        if self.blocks.is_empty() {
            self.blocks.push(Block::default());
        }
        let last = self.blocks.len() - 1;
        let block = &mut self.blocks[last];
        if block.words.capacity() == 0 {
            block.words.reserve(FIRST_RESERVE_WORDS);
        }
        block.words.extend_from_slice(words);
        self.rows += rows;
        match block.runs.last_mut() {
            Some((w, n)) if *w == width => *n += rows,
            _ => block.runs.push((width, rows)),
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

    /// Moves every row of `other` to the end of this log and leaves `other`
    /// empty. A log of 512 KiB (`MOVE_MIN_WORDS`) or more hands its blocks
    /// over whole, no row copied, each trimmed to its rows (a shrinking
    /// `realloc` of a mapped block remaps it and copies nothing); a smaller
    /// one is copied into this log's last block and keeps its reservation.
    pub fn append(&mut self, other: &mut RowLog) {
        if other.blocks.iter().map(|b| b.words.len()).sum::<usize>() >= MOVE_MIN_WORDS {
            for block in &mut other.blocks {
                block.words.shrink_to_fit();
            }
            self.blocks.append(&mut other.blocks);
            self.rows += std::mem::take(&mut other.rows);
            return;
        }
        for block in &other.blocks {
            let mut words = block.words.as_slice();
            for &(width, rows) in &block.runs {
                let (run, rest) = words.split_at(width * rows);
                self.push_block(width, rows, run);
                words = rest;
            }
        }
        other.clear();
    }

    /// Drops every row, keeping the first block's reservation.
    pub fn clear(&mut self) {
        self.blocks.truncate(1);
        if let Some(block) = self.blocks.first_mut() {
            block.words.clear();
            block.runs.clear();
        }
        self.rows = 0;
    }

    /// The rows in emission order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            blocks: self.blocks.iter(),
            words: &[],
            runs: [].iter(),
            width: 0,
            left: 0,
        }
    }
}

impl PartialEq for RowLog {
    fn eq(&self, other: &RowLog) -> bool {
        self.rows == other.rows && self.iter().eq(other.iter())
    }
}

impl Eq for RowLog {}

/// Iterator over a [`RowLog`]'s rows.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    blocks: std::slice::Iter<'a, Block>,
    words: &'a [u64],
    runs: std::slice::Iter<'a, (usize, usize)>,
    width: usize,
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    fn next(&mut self) -> Option<&'a [u64]> {
        while self.left == 0 {
            match self.runs.next() {
                Some(&(width, rows)) => (self.width, self.left) = (width, rows),
                None => {
                    let block = self.blocks.next()?;
                    (self.words, self.runs) = (&block.words, block.runs.iter());
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Commits of small epochs share one block; large ones are moved,
    /// trimmed to their rows: the log's blocks and address space follow its
    /// rows, not the number of commits.
    #[test]
    fn appended_logs_keep_no_spare_reservation() {
        let row = [1u64, 2, 3];
        let epoch = |rows: usize| {
            let mut log = RowLog::default();
            (0..rows).for_each(|_| log.push_row(&row));
            log
        };
        let mut committed = RowLog::default();
        for _ in 0..1000 {
            let mut pending = epoch(10);
            committed.append(&mut pending);
            assert!(pending.is_empty() && pending.blocks[0].words.capacity() > 0);
        }
        assert_eq!((committed.len(), committed.blocks.len()), (10_000, 1));
        let large = MOVE_MIN_WORDS / row.len() + 1;
        for _ in 0..3 {
            let mut pending = epoch(large);
            committed.append(&mut pending);
            assert!(pending.is_empty() && pending.blocks.is_empty());
        }
        assert_eq!(committed.len(), 10_000 + 3 * large);
        let moved = &committed.blocks[1..];
        assert_eq!(moved.len(), 3);
        assert!(moved.iter().all(|b| b.words.capacity() == b.words.len()));
        assert!(committed.iter().all(|r| r == row));
    }
}
