//! A flat `u64`-word arena for propagation engines, plus the word-level
//! kernels that operate on slices carved out of it.
//!
//! The compiled propagation route (`cqcs-pebble`'s `ProgramPropagator`)
//! keeps **all** of its per-instance mutable state — domains, the undo
//! trail, the worklist ring and its membership bitset, the revision
//! scratch sets — in one contiguous [`PropArena`] allocation, addressed
//! by precomputed word offsets instead of nested `Vec<BitSet>`
//! structures. That buys two things:
//!
//! 1. **O(words) reset.** Rebinding a worker to the next instance of a
//!    batch, or a delta watch to its post-edit instance, is a single
//!    `clear + resize` of one `Vec<u64>` ([`PropArena::reset_zeroed`],
//!    the arena's only re-dimensioning) followed by block writes for
//!    the regions that start non-zero (full domains, domain sizes) — no
//!    per-object traversal, no allocator traffic once the high-water
//!    mark is reached, and nothing of the previous instance kept but the
//!    allocation.
//! 2. **Cache residency.** The MAC hot loop touches domains, supports,
//!    and scratch accumulators in tight alternation; packing them into
//!    one block keeps the working set dense and the index arithmetic
//!    branch-free.
//!
//! The free-standing kernels ([`or_into`], [`and_into`],
//! [`and_not_into`], [`fill_ones`], [`for_each_set_bit`], [`all_zero`])
//! are the whole-word forms of the [`BitSet`](crate::BitSet)
//! operations, written over plain `&[u64]` slices so the compiler can
//! autovectorize them and so they apply to any region of the arena
//! without constructing a set object.

/// A bump-style arena of `u64` words. Regions are carved out by the
/// owner at fixed offsets; the arena itself only manages the backing
/// allocation and its O(words) reset.
#[derive(Debug, Clone, Default)]
pub struct PropArena {
    words: Vec<u64>,
}

impl PropArena {
    /// An empty arena (no backing allocation yet).
    pub fn new() -> PropArena {
        PropArena::default()
    }

    /// Re-dimensions the arena to exactly `len` words, all zero, in
    /// O(`len`) with no reallocation once the high-water mark is
    /// reached: `clear` on a `Vec<u64>` is O(1) (no drops), and
    /// `resize` reuses the existing capacity.
    pub fn reset_zeroed(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len, 0);
    }

    /// Number of words currently carved out.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the arena currently holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The backing words, read-only.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutable — the owner indexes regions out of
    /// this one slice (typically via `split_at_mut` chains at its
    /// precomputed offsets).
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// `dst |= src`, word by word.
///
/// # Panics
/// Debug-panics if the slices differ in length.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// `dst &= src`, word by word.
///
/// # Panics
/// Debug-panics if the slices differ in length.
#[inline]
pub fn and_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= *s;
    }
}

/// `dst &= !src`, word by word (set difference).
///
/// # Panics
/// Debug-panics if the slices differ in length.
#[inline]
pub fn and_not_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !*s;
    }
}

/// Sets the first `bits` bits of `dst` and clears the rest — the slice
/// analogue of [`BitSet::insert_all`](crate::BitSet::insert_all) for a
/// region whose logical capacity is `bits`.
///
/// # Panics
/// Debug-panics if `dst` is shorter than `bits` requires.
#[inline]
pub fn fill_ones(dst: &mut [u64], bits: usize) {
    debug_assert!(dst.len() >= bits.div_ceil(64));
    let full = bits / 64;
    for d in dst.iter_mut().take(full) {
        *d = u64::MAX;
    }
    for (i, d) in dst.iter_mut().enumerate().skip(full) {
        *d = if i == full && !bits.is_multiple_of(64) {
            u64::MAX >> (64 - bits % 64)
        } else {
            0
        };
    }
}

/// Whether every word is zero.
#[inline]
pub fn all_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// Total set bits across the slice.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f(i)` for every set bit `i`, ascending — the word-windowed
/// iteration pattern (`trailing_zeros` + clear-lowest) shared by the
/// propagation hot loops.
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;

    #[test]
    fn reset_zeroed_is_exact() {
        let mut a = PropArena::new();
        assert!(a.is_empty());
        a.reset_zeroed(10);
        assert_eq!(a.len(), 10);
        a.words_mut().fill(u64::MAX);
        // Shrink, grow, and same-size resets all land on all-zero.
        for len in [3usize, 10, 25, 0, 7] {
            a.reset_zeroed(len);
            assert_eq!(a.len(), len);
            assert!(all_zero(a.words()), "len {len}");
        }
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut a = PropArena::new();
        a.reset_zeroed(1000);
        let ptr = a.words().as_ptr();
        a.reset_zeroed(10);
        a.reset_zeroed(1000);
        assert_eq!(
            ptr,
            a.words().as_ptr(),
            "no realloc under the high-water mark"
        );
    }

    #[test]
    fn kernels_match_bitset_ops() {
        let a: BitSet = [1usize, 3, 64, 100, 127].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        for v in [3usize, 64, 65, 99] {
            b.insert(v);
        }
        let (aw, bw) = (a.words().to_vec(), b.words().to_vec());

        let mut d = aw.clone();
        or_into(&mut d, &bw);
        let mut m = a.clone();
        m.union_with(&b);
        assert_eq!(d, m.words());

        let mut d = aw.clone();
        and_into(&mut d, &bw);
        let mut m = a.clone();
        m.intersect_with(&b);
        assert_eq!(d, m.words());

        let mut d = aw.clone();
        and_not_into(&mut d, &bw);
        let mut m = a.clone();
        m.difference_with(&b);
        assert_eq!(d, m.words());

        assert_eq!(count_ones(&aw), a.len());
        assert!(!all_zero(&aw));
        assert!(all_zero(BitSet::new(128).words()));
    }

    #[test]
    fn fill_ones_matches_full_bitset() {
        for bits in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut d = vec![0xdead_beefu64; bits.div_ceil(64).max(2)];
            fill_ones(&mut d, bits);
            let full = BitSet::full(bits);
            assert_eq!(&d[..full.words().len()], full.words(), "bits {bits}");
            assert!(
                all_zero(&d[full.words().len()..]),
                "tail cleared, bits {bits}"
            );
            assert_eq!(count_ones(&d), bits);
        }
    }

    #[test]
    fn for_each_set_bit_is_ascending_and_complete() {
        let s: BitSet = [0usize, 2, 63, 64, 120, 190].into_iter().collect();
        let mut seen = Vec::new();
        for_each_set_bit(s.words(), |v| seen.push(v));
        assert_eq!(seen, s.iter().collect::<Vec<_>>());
        for_each_set_bit(&[], |_| panic!("no bits in an empty slice"));
    }
}
