//! Per-`(relation, position, value)` support indexes over a structure's
//! tuples.
//!
//! A [`SupportIndex`] over a target structure `B` answers, in O(1), the
//! question "which tuples of `R^B` have value `v` at position `p`?" —
//! as a [`BitSet`] over tuple ids, so that propagation engines can
//! compute the *live witnesses* of a constraint by bitwise union and
//! intersection instead of rescanning `R^B`. Structures keep no
//! positional index of their own, so [`SupportIndex::build`] makes this
//! one with a single scan over each relation's flat tuple array, once
//! per template, next to the per-element `occurrences` lists the
//! paper's Theorem 3.4 preprocessing stage constructs.

use crate::bitset::BitSet;
use crate::structure::Structure;
use crate::vocabulary::RelId;

/// Bitset-valued inverted index: `(relation, position, value) → tuple
/// ids`.
#[derive(Debug, Clone)]
pub struct SupportIndex {
    /// `per_rel[r][p][v]` = ids of tuples `w ∈ R` with `w[p] = v`.
    per_rel: Vec<Vec<Vec<BitSet>>>,
    /// `|R|` per relation, the capacity of each tuple-id bitset.
    tuple_counts: Vec<usize>,
    /// `projections[r][p]` = values occurring at position `p` of `R` —
    /// the supported set a revision computes when every domain is still
    /// full, cached here so that case skips the union/intersection work.
    projections: Vec<Vec<BitSet>>,
    /// Universe size of the indexed structure (the capacity of each
    /// projection bitset).
    universe: usize,
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
/// exactly one, i.e. the lazy support/program caches never rebuild the
/// index for the same template.
pub fn support_builds_on_this_thread() -> usize {
    BUILDS.with(|c| c.get())
}

impl SupportIndex {
    /// Builds the index over every relation of `s`.
    pub fn build(s: &Structure) -> SupportIndex {
        BUILDS.with(|c| c.set(c.get() + 1));
        let universe = s.universe();
        let mut per_rel = Vec::with_capacity(s.vocabulary().len());
        let mut tuple_counts = Vec::with_capacity(s.vocabulary().len());
        let mut projections = Vec::with_capacity(s.vocabulary().len());
        for r in s.vocabulary().iter() {
            let rel = s.relation(r);
            let ntuples = rel.len();
            // One scan over the tuples fills every position's bitsets.
            let mut positions = vec![vec![BitSet::new(ntuples); universe]; rel.arity()];
            let mut projs = vec![BitSet::new(universe); rel.arity()];
            for (t, tuple) in rel.iter().enumerate() {
                for (p, v) in tuple.iter().enumerate() {
                    positions[p][v.index()].insert(t);
                    projs[p].insert(v.index());
                }
            }
            per_rel.push(positions);
            tuple_counts.push(ntuples);
            projections.push(projs);
        }
        SupportIndex {
            per_rel,
            tuple_counts,
            projections,
            universe,
        }
    }

    /// Universe size of the structure this index was built over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Ids of tuples of relation `r` whose `pos`-th component is
    /// `value`, as a bitset over `0..tuple_count(r)`.
    #[inline]
    pub fn supports(&self, r: RelId, pos: usize, value: usize) -> &BitSet {
        &self.per_rel[r.index()][pos][value]
    }

    /// Number of tuples in relation `r` (the capacity of its support
    /// bitsets).
    #[inline]
    pub fn tuple_count(&self, r: RelId) -> usize {
        self.tuple_counts[r.index()]
    }

    /// Values occurring at position `pos` of relation `r`, as a bitset
    /// over the indexed structure's universe: exactly the supported set
    /// of a tuple whose every element still has a full domain.
    #[inline]
    pub fn projection(&self, r: RelId, pos: usize) -> &BitSet {
        &self.projections[r.index()][pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Element;

    #[test]
    fn index_agrees_with_tuple_scan() {
        let s = generators::random_structure(6, &[1, 2, 3], 9, 11);
        let idx = SupportIndex::build(&s);
        for r in s.vocabulary().iter() {
            let rel = s.relation(r);
            assert_eq!(idx.tuple_count(r), rel.len());
            for p in 0..rel.arity() {
                for v in 0..s.universe() {
                    let scanned: Vec<usize> = (0..rel.len())
                        .filter(|&t| rel.tuple(t)[p] == Element::new(v))
                        .collect();
                    let from_bits: Vec<usize> = idx.supports(r, p, v).iter().collect();
                    assert_eq!(from_bits, scanned, "relation {r:?} pos {p} value {v}");
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
                let total: usize = (0..s.universe()).map(|v| idx.supports(r, p, v).len()).sum();
                assert_eq!(total, rel.len(), "partition of tuple ids by value");
            }
        }
    }

    #[test]
    fn projections_are_position_value_sets() {
        let s = generators::random_structure(5, &[1, 2, 3], 7, 9);
        let idx = SupportIndex::build(&s);
        for r in s.vocabulary().iter() {
            let rel = s.relation(r);
            for p in 0..rel.arity() {
                let expected: Vec<usize> = (0..s.universe())
                    .filter(|&v| rel.iter().any(|t| t[p] == Element::new(v)))
                    .collect();
                let got: Vec<usize> = idx.projection(r, p).iter().collect();
                assert_eq!(got, expected, "relation {r:?} pos {p}");
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
        }
    }
}
