//! Per-`(relation, position, value)` support indexes over a structure's
//! tuples.
//!
//! A [`SupportIndex`] over a target structure `B` answers, in O(1), the
//! question "which tuples of `R^B` have value `v` at position `p`?" —
//! as a word slice over tuple ids, so that propagation engines can
//! compute the *live witnesses* of a constraint by bitwise union and
//! intersection instead of rescanning `R^B`, and the treewidth DP can
//! test a bag row's tuples by one AND per argument. Structures keep no
//! positional index of their own, so [`SupportIndex::build`] makes this
//! one with a single scan over each relation's flat tuple array, once
//! per template, next to the per-element `occurrences` lists the
//! paper's Theorem 3.4 preprocessing stage constructs.
//!
//! The index is flat: every support bitset of every relation lives in
//! one `u64` slab, the set of `(r, p, v)` at
//! `base(r) + (p·|B| + v)·⌈|R|/64⌉`, and every position projection in a
//! second slab, `⌈|B|/64⌉` words each, with one offset pair per
//! relation.

use crate::structure::Structure;
use crate::vocabulary::RelId;

/// Per-relation geometry and slab offsets.
#[derive(Debug, Clone, Copy)]
struct RelSlab {
    tuple_count: usize,
    /// `tuple_count.div_ceil(64)` — the stride of one support bitset.
    tuple_words: usize,
    /// Offset of this relation's support bitsets in `support_words`.
    support_base: usize,
    /// Offset of this relation's projections in `proj_words` (one
    /// universe-sized bitset per position).
    proj_base: usize,
}

/// Flat inverted index: `(relation, position, value) → tuple ids`,
/// plus each position's projection. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SupportIndex {
    /// Universe size of the indexed structure.
    universe: usize,
    /// `universe.div_ceil(64)` — the stride of one projection.
    word_blocks: usize,
    rels: Vec<RelSlab>,
    /// Every support bitset, relation-major then position-major then
    /// value-major, `tuple_words` words each.
    support_words: Vec<u64>,
    /// Every position projection — the values occurring at position `p`
    /// of `R`, the supported set a revision computes while every domain
    /// is still full — `word_blocks` words each.
    proj_words: Vec<u64>,
}

std::thread_local! {
    /// Per-thread count of [`SupportIndex::build`] calls, so tests can
    /// pin "built exactly once per template" without interference from
    /// other tests running on sibling threads.
    static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`SupportIndex::build`] calls performed **by the calling
/// thread** since it started. A diagnostic for caching layers: the
/// compiled-template tests assert the delta across a batch of solves is
/// exactly one, i.e. the lazy program cache never rebuilds the index
/// for the same template.
pub fn support_builds_on_this_thread() -> usize {
    BUILDS.with(|c| c.get())
}

impl SupportIndex {
    /// Builds the index over every relation of `s`.
    pub fn build(s: &Structure) -> SupportIndex {
        BUILDS.with(|c| c.set(c.get() + 1));
        let universe = s.universe();
        let word_blocks = universe.div_ceil(64);
        let (mut support_len, mut proj_len) = (0, 0);
        let rels: Vec<RelSlab> = s
            .vocabulary()
            .iter()
            .map(|r| {
                let rel = s.relation(r);
                let slab = RelSlab {
                    tuple_count: rel.len(),
                    tuple_words: rel.len().div_ceil(64),
                    support_base: support_len,
                    proj_base: proj_len,
                };
                support_len += rel.arity() * universe * slab.tuple_words;
                proj_len += rel.arity() * word_blocks;
                slab
            })
            .collect();
        // Zeroed in one allocation each, so a sparse slab only touches
        // the pages its tuples set.
        let mut support_words = vec![0u64; support_len];
        let mut proj_words = vec![0u64; proj_len];
        for (r, slab) in s.vocabulary().iter().zip(&rels) {
            // One scan over the tuples fills every position's bitsets.
            for (t, tuple) in s.relation(r).iter().enumerate() {
                for (p, v) in tuple.iter().enumerate() {
                    let v = v.index();
                    let at = slab.support_base + (p * universe + v) * slab.tuple_words;
                    support_words[at + t / 64] |= 1 << (t % 64);
                    proj_words[slab.proj_base + p * word_blocks + v / 64] |= 1 << (v % 64);
                }
            }
        }
        SupportIndex {
            universe,
            word_blocks,
            rels,
            support_words,
            proj_words,
        }
    }

    /// Universe size of the structure this index was built over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of tuples in relation `r`.
    #[inline]
    pub fn tuple_count(&self, r: RelId) -> usize {
        self.rels[r.index()].tuple_count
    }

    /// `⌈tuple_count(r) / 64⌉` — the word length of each of `r`'s
    /// support bitsets.
    #[inline]
    pub fn tuple_words(&self, r: RelId) -> usize {
        self.rels[r.index()].tuple_words
    }

    /// Ids of tuples of relation `r` whose `pos`-th component is
    /// `value`, as [`tuple_words(r)`](SupportIndex::tuple_words) words
    /// (tuple `t` is bit `t % 64` of word `t / 64`).
    #[inline]
    pub fn supports(&self, r: RelId, pos: usize, value: usize) -> &[u64] {
        let s = &self.rels[r.index()];
        let at = s.support_base + (pos * self.universe + value) * s.tuple_words;
        &self.support_words[at..at + s.tuple_words]
    }

    /// [`supports`](SupportIndex::supports) as one word, for a relation
    /// of at most 64 tuples (`tuple_words(r) == 1`).
    #[inline]
    pub fn support_word(&self, r: RelId, pos: usize, value: usize) -> u64 {
        let s = &self.rels[r.index()];
        debug_assert_eq!(s.tuple_words, 1, "support_word over a multi-word relation");
        self.support_words[s.support_base + pos * self.universe + value]
    }

    /// Values occurring at position `pos` of relation `r`, as
    /// `⌈universe / 64⌉` words over the indexed structure's universe:
    /// exactly the supported set of a tuple whose every element still
    /// has a full domain.
    #[inline]
    pub fn projection(&self, r: RelId, pos: usize) -> &[u64] {
        let at = self.rels[r.index()].proj_base + pos * self.word_blocks;
        &self.proj_words[at..at + self.word_blocks]
    }

    /// [`projection`](SupportIndex::projection) as one word, over a
    /// universe of at most 64 elements.
    #[inline]
    pub fn projection_word(&self, r: RelId, pos: usize) -> u64 {
        debug_assert_eq!(
            self.word_blocks, 1,
            "projection_word over a multi-word universe"
        );
        self.proj_words[self.rels[r.index()].proj_base + pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Element;

    /// The ids of the set bits of `words`, ascending.
    fn ids(words: &[u64]) -> Vec<usize> {
        (0..words.len() * 64)
            .filter(|&i| words[i / 64] & (1 << (i % 64)) != 0)
            .collect()
    }

    /// Structures whose universes and tuple counts sit on both sides of
    /// the 64-bit word boundaries, so both `(p·|B| + v)·⌈|R|/64⌉` and
    /// `p·⌈|B|/64⌉` cross words: a random 6-element one, then universes
    /// of 63, 64, 65 and 129 elements, each with one relation of every
    /// arity 1–3 holding exactly 0, 63, 64, 65 or 129 distinct tuples
    /// (all `|B|` unary ones where the universe has fewer).
    fn boundary_structures() -> Vec<Structure> {
        let voc = crate::Vocabulary::from_symbols([("U", 1), ("E", 2), ("T", 3)])
            .unwrap()
            .into_shared();
        let mut out = vec![generators::random_structure(6, &[1, 2, 3], 9, 11)];
        for universe in [63usize, 64, 65, 129] {
            for tuples in [0usize, 63, 64, 65, 129] {
                let mut b = crate::StructureBuilder::new(std::sync::Arc::clone(&voc), universe);
                for r in voc.iter() {
                    let arity = voc.arity(r);
                    let space = universe.pow(arity as u32);
                    // i ↦ 7919·i + 13 (mod |B|^arity) is injective: the
                    // prime 7919 shares no factor with these universes.
                    for i in 0..tuples.min(space) {
                        let mut x = (7919 * i + 13) % space;
                        let tuple: Vec<u32> = (0..arity)
                            .map(|_| {
                                let v = x % universe;
                                x /= universe;
                                v as u32
                            })
                            .collect();
                        b.add_fact(voc.name(r), &tuple).unwrap();
                    }
                }
                let s = b.finish();
                for r in voc.iter() {
                    let space = universe.pow(voc.arity(r) as u32);
                    assert_eq!(s.relation(r).len(), tuples.min(space));
                }
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn index_agrees_with_tuple_scan() {
        for s in boundary_structures() {
            let idx = SupportIndex::build(&s);
            assert_eq!(idx.universe(), s.universe());
            for r in s.vocabulary().iter() {
                let rel = s.relation(r);
                assert_eq!(idx.tuple_count(r), rel.len());
                assert_eq!(idx.tuple_words(r), rel.len().div_ceil(64));
                for p in 0..rel.arity() {
                    for v in 0..s.universe() {
                        let scanned: Vec<usize> = (0..rel.len())
                            .filter(|&t| rel.tuple(t)[p] == Element::new(v))
                            .collect();
                        let words = idx.supports(r, p, v);
                        assert_eq!(words.len(), idx.tuple_words(r));
                        assert_eq!(
                            ids(words),
                            scanned,
                            "|B| {} {r:?} pos {p} value {v}",
                            s.universe()
                        );
                        if idx.tuple_words(r) == 1 {
                            assert_eq!(idx.support_word(r, p, v), words[0]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tuple_indexed_once_per_position() {
        let s = generators::random_structure(5, &[1, 2, 3], 7, 3);
        let idx = SupportIndex::build(&s);
        for r in s.vocabulary().iter() {
            let rel = s.relation(r);
            for p in 0..rel.arity() {
                let total: usize = (0..s.universe())
                    .map(|v| ids(idx.supports(r, p, v)).len())
                    .sum();
                assert_eq!(total, rel.len(), "partition of tuple ids by value");
            }
        }
    }

    #[test]
    fn projections_are_position_value_sets() {
        for s in boundary_structures() {
            let idx = SupportIndex::build(&s);
            for r in s.vocabulary().iter() {
                let rel = s.relation(r);
                for p in 0..rel.arity() {
                    let expected: Vec<usize> = (0..s.universe())
                        .filter(|&v| rel.iter().any(|t| t[p] == Element::new(v)))
                        .collect();
                    let words = idx.projection(r, p);
                    assert_eq!(words.len(), s.universe().div_ceil(64));
                    assert_eq!(ids(words), expected, "|B| {} {r:?} pos {p}", s.universe());
                    if s.universe() <= 64 {
                        assert_eq!(idx.projection_word(r, p), words[0]);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_relation_has_empty_supports() {
        let voc = generators::digraph_vocabulary();
        let s = crate::StructureBuilder::new(voc, 3).finish();
        let idx = SupportIndex::build(&s);
        let e = s.vocabulary().lookup("E").unwrap();
        assert_eq!(idx.tuple_count(e), 0);
        for p in 0..2 {
            for v in 0..3 {
                assert!(idx.supports(e, p, v).is_empty());
            }
            assert_eq!(idx.projection(e, p), &[0]);
        }
    }
}
