//! The stable digit-skipping radix sort both sequential-access host kernels
//! are built on: the chunk sort ([`crate::sort_pairs`]) runs it over a whole
//! chunk, the k-way merge ([`crate::mergepath::merge_runs`]) over each
//! cache-resident bucket it cuts the runs into, for two runs as for many,
//! and the close's gather and sparse fold over the same buckets, on keys
//! alone.
//!
//! A *digit* is a field of up to [`DIGIT_BITS`] bits of the key (taken
//! relative to a base, so a bucket of keys close together has few of them) or
//! of the pointer. Only digits on which the pairs can disagree are visited:
//! the caller passes one bit mask per word, and a digit whose mask bits are
//! all clear is skipped. Each visited digit is one stable counting-sort pass
//! (histogram, prefix sum, scatter) between the data and a scratch buffer of
//! the same size.
//!
//! With more than [`LSD_DIGITS`] digits to visit, sorting least significant
//! digit first would stream the data once per digit although the two most
//! significant digits alone already separate nearly all pairs. Those two are
//! then sorted first and every group still agreeing on them is finished
//! recursively on the remaining digits — a group of up to [`SMALL`] pairs by
//! insertion — so no pair is moved more often than plain LSD would move it.

/// Widest digit, in bits: 1024 counters stay in L1 next to the data being
/// scattered, and 10, 20 or 30 varying key bits take one, two or three
/// passes.
const DIGIT_BITS: u32 = 10;
/// Most digits sorted in one least-significant-first round.
const LSD_DIGITS: usize = 4;
/// Largest input finished by insertion sort instead of counting passes.
pub(crate) const SMALL: usize = 32;

/// Parallel key/pointer slices of equal length.
pub(crate) type Pairs<'a> = (&'a mut [u64], &'a mut [u64]);

/// The order a sort finishes its small groups in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankBy {
    /// Total order on `(key, ptr)`: the chunk sort's.
    Compound,
    /// Order on the key only, equal keys kept in input order: the k-way
    /// merge's buckets, concatenated in run order.
    Key,
}

/// One field of the sort order.
#[derive(Debug, Clone, Copy, Default)]
struct Digit {
    /// Taken from the pointer, else from the key's offset above the base.
    from_ptr: bool,
    shift: u32,
    /// Field mask after the shift; the pass uses `mask + 1` buckets.
    mask: usize,
}

impl Digit {
    fn of(self, base: u64, key: u64, ptr: u64) -> usize {
        let word = if self.from_ptr {
            ptr
        } else {
            key.wrapping_sub(base)
        };
        (word >> self.shift) as usize & self.mask
    }
}

/// The digits of one sort, least significant first: the pointer's, then the
/// key's.
#[derive(Debug)]
pub(crate) struct Digits {
    list: [Digit; 16],
    len: usize,
    /// Subtracted from every key before its digits are taken.
    base: u64,
}

impl Digits {
    /// Digits covering the set bits of `key_mask` (over `key - base`) and of
    /// `ptr_mask`: every bit on which two pairs may differ must be set, and
    /// digits without a set bit are left out. Each word's significant bits
    /// are divided evenly over as few digits as [`DIGIT_BITS`] allows.
    pub(crate) fn covering(base: u64, key_mask: u64, ptr_mask: u64) -> Digits {
        let mut digits = Digits {
            list: [Digit::default(); 16],
            len: 0,
            base,
        };
        for (from_ptr, word_mask) in [(true, ptr_mask), (false, key_mask)] {
            let bits = u64::BITS - word_mask.leading_zeros();
            let passes = bits.div_ceil(DIGIT_BITS);
            let mut shift = 0;
            for pass in 0..passes {
                let width = (bits - shift).div_ceil(passes - pass);
                let mask = (1usize << width) - 1;
                if (word_mask >> shift) as usize & mask != 0 {
                    digits.list[digits.len] = Digit {
                        from_ptr,
                        shift,
                        mask,
                    };
                    digits.len += 1;
                }
                shift += width;
            }
        }
        digits
    }

    /// Whether no digit varies: the input is already in order.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether [`Digits::sort`] expects the input in its scratch argument.
    pub(crate) fn starts_in_scratch(&self) -> bool {
        first_round(&self.list[..self.len]).1.len() % 2 == 1
    }

    /// Sorts `data` by these digits, stably, using `scratch` of the same
    /// length. The input must be in `scratch` when
    /// [`Digits::starts_in_scratch`] says so (the caller then fills only
    /// one of the two), else in `data`; the result is always in `data`.
    /// Groups finished by insertion are ordered as `by` says, which must
    /// agree with the digits: [`RankBy::Compound`] when the pointer digits
    /// are covered or the pointers of equal keys already ascend.
    pub(crate) fn sort(&self, data: Pairs<'_>, scratch: Pairs<'_>, by: RankBy) {
        sort_round(data, scratch, self.base, &self.list[..self.len], by);
    }
}

/// Splits digits into those left for later and the ones the next round
/// sorts least significant first.
fn first_round(digits: &[Digit]) -> (&[Digit], &[Digit]) {
    if digits.len() > LSD_DIGITS {
        digits.split_at(digits.len() - 2)
    } else {
        (&[], digits)
    }
}

/// One round of [`Digits::sort`] plus the recursion into its groups.
fn sort_round(data: Pairs<'_>, scratch: Pairs<'_>, base: u64, digits: &[Digit], by: RankBy) {
    let (rest, round) = first_round(digits);
    let (keys, ptrs) = data;
    let (scratch_keys, scratch_ptrs) = scratch;
    {
        // An odd number of passes starts in the scratch to end in the data.
        let mut src: Pairs<'_> = (&mut *keys, &mut *ptrs);
        let mut dst: Pairs<'_> = (&mut *scratch_keys, &mut *scratch_ptrs);
        if round.len() % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
        for &digit in round {
            counting_pass(&src, &mut dst, base, digit);
            std::mem::swap(&mut src, &mut dst);
        }
    }
    if rest.is_empty() {
        return;
    }
    let same_group = |keys: &[u64], ptrs: &[u64], i: usize, j: usize| {
        round
            .iter()
            .all(|d| d.of(base, keys[i], ptrs[i]) == d.of(base, keys[j], ptrs[j]))
    };
    let mut start = 0;
    for end in 1..=keys.len() {
        if end < keys.len() && same_group(keys, ptrs, start, end) {
            continue;
        }
        let group: Pairs<'_> = (&mut keys[start..end], &mut ptrs[start..end]);
        if group.0.len() <= SMALL {
            insertion_sort(group.0, group.1, by);
        } else {
            let scratch: Pairs<'_> = (&mut scratch_keys[start..end], &mut scratch_ptrs[start..end]);
            if first_round(rest).1.len() % 2 == 1 {
                scratch.0.copy_from_slice(group.0);
                scratch.1.copy_from_slice(group.1);
            }
            sort_round(group, scratch, base, rest, by);
        }
        start = end;
    }
}

/// One stable counting-sort pass on `digit` from `src` into `dst`.
fn counting_pass(src: &Pairs<'_>, dst: &mut Pairs<'_>, base: u64, digit: Digit) {
    let mut next = [0usize; 1 << DIGIT_BITS];
    let next = &mut next[..=digit.mask];
    for (&key, &ptr) in src.0.iter().zip(src.1.iter()) {
        next[digit.of(base, key, ptr)] += 1;
    }
    let mut sum = 0usize;
    for slot in next.iter_mut() {
        sum += std::mem::replace(slot, sum);
    }
    for (&key, &ptr) in src.0.iter().zip(src.1.iter()) {
        let slot = &mut next[digit.of(base, key, ptr)];
        dst.0[*slot] = key;
        dst.1[*slot] = ptr;
        *slot += 1;
    }
}

/// Stable insertion sort in `by` order, for inputs of up to [`SMALL`] pairs.
pub(crate) fn insertion_sort(keys: &mut [u64], ptrs: &mut [u64], by: RankBy) {
    for i in 1..keys.len() {
        let (key, ptr) = (keys[i], ptrs[i]);
        let mut j = i;
        while j > 0
            && match by {
                RankBy::Compound => (keys[j - 1], ptrs[j - 1]) > (key, ptr),
                RankBy::Key => keys[j - 1] > key,
            }
        {
            keys[j] = keys[j - 1];
            ptrs[j] = ptrs[j - 1];
            j -= 1;
        }
        keys[j] = key;
        ptrs[j] = ptr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(d: &Digits) -> Vec<(bool, u32, usize)> {
        d.list[..d.len]
            .iter()
            .map(|d| (d.from_ptr, d.shift, d.mask))
            .collect()
    }

    #[test]
    fn digits_divide_the_significant_bits_evenly() {
        // 22 key bits: three digits of 8, 7 and 7 bits, no pointer digit.
        let d = Digits::covering(0, (1 << 22) - 1, 0);
        assert_eq!(
            layout(&d),
            vec![(false, 0, 0xff), (false, 8, 0x7f), (false, 15, 0x7f)]
        );
        // Ten bits are one pass, eleven are two.
        assert_eq!(layout(&Digits::covering(0, 0x3ff, 0)).len(), 1);
        assert_eq!(layout(&Digits::covering(0, 0x7ff, 0)).len(), 2);
        assert!(Digits::covering(9, 0, 0).is_empty());
    }

    #[test]
    fn digits_without_a_differing_bit_are_skipped() {
        // Keys differ in bits 0..8 and 32..40 only; pointers in bit 3.
        let d = Digits::covering(0, 0xff_0000_00ff, 1 << 3);
        let l = layout(&d);
        assert_eq!(l[0], (true, 0, 0xf));
        assert!(l[1..].iter().all(|&(from_ptr, _, _)| !from_ptr));
        assert_eq!(l.len(), 3, "{l:?}");
    }

    /// Sorts through [`Digits::sort`] the way the kernels do and compares
    /// with the standard library, over few digits (one LSD round) and many
    /// (top digits first, groups finished recursively and by insertion).
    #[test]
    fn sort_matches_std_over_one_round_and_recursion() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (key_bits, ptr_bits) in [(12, 0), (64, 0), (40, 30), (3, 64), (64, 64)] {
            let mask = |bits: u32| {
                if bits == 64 {
                    u64::MAX
                } else {
                    (1 << bits) - 1
                }
            };
            let base = 1000;
            let n = 5_000;
            let keys: Vec<u64> = (0..n).map(|_| base + (next() & mask(key_bits))).collect();
            // A few heavily repeated keys make groups too long for insertion.
            let keys: Vec<u64> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| if i % 3 == 0 { keys[i % 7] } else { k })
                .collect();
            let ptrs: Vec<u64> = (0..n).map(|_| next() & mask(ptr_bits)).collect();
            let mut want: Vec<(u64, u64)> =
                keys.iter().copied().zip(ptrs.iter().copied()).collect();
            if ptr_bits == 0 {
                want.sort_by_key(|&(k, _)| k);
            } else {
                want.sort_unstable();
            }

            let digits = Digits::covering(base, mask(key_bits), mask(ptr_bits));
            let (mut k, mut p) = (keys.clone(), ptrs.clone());
            let (mut sk, mut sp) = (keys.clone(), ptrs.clone());
            let by = if ptr_bits == 0 {
                RankBy::Key
            } else {
                RankBy::Compound
            };
            digits.sort((&mut k, &mut p), (&mut sk, &mut sp), by);
            let got: Vec<(u64, u64)> = k.into_iter().zip(p).collect();
            assert_eq!(got, want, "{key_bits} key bits, {ptr_bits} pointer bits");
        }
    }
}
