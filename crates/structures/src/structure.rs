//! Finite relational structures with immutable, flat relations.
//!
//! A [`Structure`] is built once through a [`StructureBuilder`] and is
//! immutable afterwards. Each relation is one sorted, deduplicated,
//! flattened tuple array and nothing else: there is no per-position
//! inverted index. The one consumer that needs `(position, value) →
//! tuples`, [`SupportIndex`](crate::SupportIndex), builds it with a
//! single scan of the tuples. The per-element occurrence lists
//! (`element → (relation, tuple id)`) are stored in compressed sparse
//! row (CSR) form: one `u32` offsets array over the universe and one
//! flat array of pairs. They are exactly the "linked lists that link
//! all occurrences in A of an element a" that the paper's Theorem 3.4
//! preprocessing stage builds.
//!
//! A structure therefore costs `O(|A| + ‖A‖)` words — nothing scales
//! with `arity × |A|` — and cloning one copies a handful of flat
//! vectors.

use crate::error::{Error, Result};
use crate::vocabulary::{RelId, Vocabulary};
use std::sync::Arc;

/// An element of a structure's universe `{0, …, n-1}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element(pub u32);

impl Element {
    /// The element as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an element from a dense index.
    #[inline]
    pub fn new(i: usize) -> Self {
        Element(i as u32)
    }
}

impl std::fmt::Debug for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One relation of a structure: a sorted, deduplicated set of tuples,
/// stored back to back in one flat array.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    ntuples: usize,
    /// Flattened tuples, `ntuples * arity` elements, sorted lexicographically.
    data: Vec<Element>,
}

impl Relation {
    /// Sorts and deduplicates `count` tuples laid out back to back in
    /// `raw`. Sorting goes through a permutation of tuple ids, so each
    /// tuple is copied once.
    fn from_flat(arity: usize, count: usize, raw: &[Element]) -> Relation {
        if arity == 0 {
            // Every 0-ary tuple is `()`: the relation holds it or not.
            return Relation {
                arity,
                ntuples: count.min(1),
                data: Vec::new(),
            };
        }
        let tuple = |i: usize| &raw[i * arity..(i + 1) * arity];
        let ids = u32::try_from(count).expect("tuple ids fit in u32");
        let mut perm: Vec<u32> = (0..ids).collect();
        perm.sort_unstable_by(|&i, &j| tuple(i as usize).cmp(tuple(j as usize)));
        let mut data: Vec<Element> = Vec::with_capacity(raw.len());
        let mut ntuples = 0;
        for &i in &perm {
            let t = tuple(i as usize);
            if ntuples == 0 || data[(ntuples - 1) * arity..] != *t {
                data.extend_from_slice(t);
                ntuples += 1;
            }
        }
        Relation {
            arity,
            ntuples,
            data,
        }
    }

    /// The arity of the relation symbol.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.ntuples
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.ntuples == 0
    }

    /// The `i`-th tuple in lexicographic order.
    #[inline]
    pub fn tuple(&self, i: usize) -> &[Element] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over all tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &[Element]> + '_ {
        (0..self.ntuples).map(move |i| self.tuple(i))
    }

    /// Membership test by binary search (tuples are sorted).
    pub fn contains(&self, tuple: &[Element]) -> bool {
        self.position(tuple).is_some()
    }

    /// The id of a tuple by binary search (tuples are sorted), or `None`
    /// if the relation does not contain it. For 0-ary relations the only
    /// possible tuple is `[]` with id 0.
    pub fn position(&self, tuple: &[Element]) -> Option<u32> {
        debug_assert_eq!(tuple.len(), self.arity);
        if self.arity == 0 {
            return (self.ntuples > 0).then_some(0);
        }
        let mut lo = 0usize;
        let mut hi = self.ntuples;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.tuple(mid).cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }
}

/// A finite relational structure over a shared [`Vocabulary`].
#[derive(Debug, Clone)]
pub struct Structure {
    voc: Arc<Vocabulary>,
    universe: usize,
    relations: Vec<Relation>,
    /// CSR offsets: element `e`'s occurrences are
    /// `occurrences[occ_start[e]..occ_start[e + 1]]` (`|A| + 1` entries).
    occ_start: Vec<u32>,
    /// Every element's `(relation, tuple id)` pairs, element by element.
    occurrences: Vec<(RelId, u32)>,
}

impl Structure {
    /// The vocabulary the structure interprets.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.voc
    }

    /// Size of the universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Iterates over the elements of the universe.
    pub fn elements(&self) -> impl Iterator<Item = Element> {
        (0..self.universe as u32).map(Element)
    }

    /// The interpretation of a relation symbol.
    #[inline]
    pub fn relation(&self, r: RelId) -> &Relation {
        &self.relations[r.index()]
    }

    /// All `(relation, tuple)` occurrences of an element — the paper's
    /// per-element linked lists.
    #[inline]
    pub fn occurrences(&self, e: Element) -> &[(RelId, u32)] {
        let i = e.index();
        &self.occurrences[self.occ_start[i] as usize..self.occ_start[i + 1] as usize]
    }

    /// Total number of tuples across all relations, `|A|` in the paper's
    /// notation for tuple counts.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Encoding size `‖A‖`: universe size plus the total number of
    /// element occurrences in tuples.
    pub fn size(&self) -> usize {
        self.universe
            + self
                .relations
                .iter()
                .map(|r| r.len() * r.arity())
                .sum::<usize>()
    }

    /// Whether two structures are over the same vocabulary (by content).
    pub fn same_vocabulary(&self, other: &Structure) -> bool {
        Arc::ptr_eq(&self.voc, &other.voc) || *self.voc == *other.voc
    }

    /// The induced substructure on the elements where `keep` is `true`,
    /// together with the (partial) renaming from old elements to new.
    ///
    /// Tuples mentioning a dropped element are dropped.
    pub fn restrict(&self, keep: &[bool]) -> (Structure, Vec<Option<Element>>) {
        assert_eq!(keep.len(), self.universe);
        let mut rename: Vec<Option<Element>> = vec![None; self.universe];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                rename[i] = Some(Element(next));
                next += 1;
            }
        }
        let mut builder = StructureBuilder::new(Arc::clone(&self.voc), next as usize);
        let mut buf: Vec<Element> = Vec::with_capacity(self.voc.max_arity());
        for r in self.voc.iter() {
            'tuples: for t in self.relation(r).iter() {
                buf.clear();
                for &e in t {
                    match rename[e.index()] {
                        Some(ne) => buf.push(ne),
                        None => continue 'tuples,
                    }
                }
                builder
                    .add_tuple(r, &buf)
                    .expect("restricted tuple is valid by construction");
            }
        }
        (builder.finish(), rename)
    }

    /// A copy of the structure without one fact, named-relation form
    /// (the retraction ergonomic mirroring [`StructureBuilder::add_fact`]).
    ///
    /// Errors with [`Error::UnknownRelation`] on an unknown name,
    /// [`Error::ArityMismatch`] on a wrong-length tuple, and
    /// [`Error::Invalid`] if the fact is not present.
    pub fn remove_fact(&self, name: &str, tuple: &[u32]) -> Result<Structure> {
        let r = self.voc.require(name)?;
        let arity = self.voc.arity(r);
        if tuple.len() != arity {
            return Err(Error::ArityMismatch {
                relation: name.to_owned(),
                arity,
                got: tuple.len(),
            });
        }
        let elems: Vec<Element> = tuple.iter().map(|&e| Element(e)).collect();
        if !self.relation(r).contains(&elems) {
            return Err(Error::Invalid(format!(
                "cannot remove absent fact {name}{tuple:?}"
            )));
        }
        let mut builder = StructureBuilder::new(Arc::clone(&self.voc), self.universe);
        for s in self.voc.iter() {
            for t in self.relation(s).iter() {
                if s == r && t == elems.as_slice() {
                    continue;
                }
                builder
                    .add_tuple(s, t)
                    .expect("existing tuple is valid by construction");
            }
        }
        Ok(builder.finish())
    }

    /// A copy of the structure with `by` fresh elements appended to the
    /// universe (no facts mention them yet).
    pub fn extend_universe(&self, by: usize) -> Structure {
        let mut builder = StructureBuilder::new(Arc::clone(&self.voc), self.universe + by);
        for r in self.voc.iter() {
            for t in self.relation(r).iter() {
                builder
                    .add_tuple(r, t)
                    .expect("existing tuple is valid by construction");
            }
        }
        builder.finish()
    }
}

/// Mutable accumulator producing an immutable [`Structure`].
///
/// ```
/// use cqcs_structures::{StructureBuilder, Vocabulary, Element};
/// let voc = Vocabulary::from_symbols([("E", 2)]).unwrap().into_shared();
/// let mut b = StructureBuilder::new(voc.clone(), 3);
/// let e = voc.lookup("E").unwrap();
/// b.add_tuple(e, &[Element(0), Element(1)]).unwrap();
/// b.add_tuple(e, &[Element(1), Element(2)]).unwrap();
/// let s = b.finish();
/// assert_eq!(s.relation(e).len(), 2);
/// assert!(s.relation(e).contains(&[Element(0), Element(1)]));
/// ```
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    voc: Arc<Vocabulary>,
    universe: usize,
    /// Per relation: the added tuples back to back, in insertion order
    /// (duplicates included).
    flat: Vec<Vec<Element>>,
    /// Per relation: how many tuples were added — the only record of a
    /// 0-ary fact, which adds no elements to `flat`.
    counts: Vec<usize>,
}

impl StructureBuilder {
    /// Starts a structure with the given universe size.
    pub fn new(voc: Arc<Vocabulary>, universe: usize) -> Self {
        let flat = vec![Vec::new(); voc.len()];
        let counts = vec![0; voc.len()];
        StructureBuilder {
            voc,
            universe,
            flat,
            counts,
        }
    }

    /// The universe size the builder was created with.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The vocabulary of the structure under construction.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.voc
    }

    /// Adds a tuple to a relation, validating arity and element range.
    pub fn add_tuple(&mut self, r: RelId, tuple: &[Element]) -> Result<()> {
        let arity = self.voc.arity(r);
        if tuple.len() != arity {
            return Err(Error::ArityMismatch {
                relation: self.voc.name(r).to_owned(),
                arity,
                got: tuple.len(),
            });
        }
        for &e in tuple {
            if e.index() >= self.universe {
                return Err(Error::ElementOutOfRange {
                    relation: self.voc.name(r).to_owned(),
                    element: e.0,
                    universe: self.universe,
                });
            }
        }
        self.flat[r.index()].extend_from_slice(tuple);
        self.counts[r.index()] += 1;
        Ok(())
    }

    /// Adds a tuple by relation name and raw element indices.
    pub fn add_fact(&mut self, name: &str, tuple: &[u32]) -> Result<()> {
        let r = self.voc.require(name)?;
        let elems: Vec<Element> = tuple.iter().map(|&e| Element(e)).collect();
        self.add_tuple(r, &elems)
    }

    /// Finalizes: sorts and deduplicates every relation, then lays out
    /// the occurrence lists.
    pub fn finish(self) -> Structure {
        let universe = self.universe;
        let voc = self.voc;
        let relations: Vec<Relation> = voc
            .iter()
            .zip(self.flat.into_iter().zip(self.counts))
            .map(|(r, (raw, count))| Relation::from_flat(voc.arity(r), count, &raw))
            .collect();
        let (occ_start, occurrences) = occurrence_csr(universe, &relations);
        Structure {
            voc,
            universe,
            relations,
            occ_start,
            occurrences,
        }
    }
}

/// The CSR occurrence lists of `relations` over a universe of
/// `universe` elements: offsets and pairs, in relation-then-tuple order
/// per element.
fn occurrence_csr(universe: usize, relations: &[Relation]) -> (Vec<u32>, Vec<(RelId, u32)>) {
    let mut seen = vec![u32::MAX; universe];
    // Counts, shifted one slot right, then prefix sums: `next[e]` is
    // where element `e`'s list starts, and then its write cursor.
    let mut next = vec![0usize; universe + 1];
    for_each_occurrence(relations, &mut seen, |e, _, _| next[e + 1] += 1);
    for e in 0..universe {
        next[e + 1] += next[e];
    }
    let occ_start = next
        .iter()
        .map(|&o| u32::try_from(o).expect("occurrence offsets fit in u32"))
        .collect();
    let mut occurrences = vec![(RelId::from_index(0), 0u32); next[universe]];
    for_each_occurrence(relations, &mut seen, |e, r, t| {
        occurrences[next[e]] = (r, t);
        next[e] += 1;
    });
    (occ_start, occurrences)
}

/// Calls `f(e, r, t)` for every element `e` of every tuple `t` of every
/// relation `r`, in relation, tuple and position order, skipping an
/// element already listed for the same tuple: propagation loops process
/// an element once per `(relation, tuple)` pair. `seen` (one slot per
/// element) remembers the serial of the last tuple that listed each
/// element, so a repeat costs O(1) to skip at any arity.
fn for_each_occurrence(
    relations: &[Relation],
    seen: &mut [u32],
    mut f: impl FnMut(usize, RelId, u32),
) {
    let tuples = relations.iter().map(Relation::len).sum::<usize>();
    // Serials run below `tuples`, so they never collide with the
    // `u32::MAX` sentinel.
    assert!(tuples < u32::MAX as usize, "tuple counts fit in u32");
    seen.fill(u32::MAX);
    let mut serial = 0u32;
    for (r, rel) in relations.iter().enumerate() {
        for (t, tuple) in rel.iter().enumerate() {
            for &e in tuple {
                if seen[e.index()] != serial {
                    seen[e.index()] = serial;
                    f(e.index(), RelId::from_index(r), t as u32);
                }
            }
            serial += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph(edges: &[(u32, u32)], n: usize) -> Structure {
        let voc = Vocabulary::from_symbols([("E", 2)]).unwrap().into_shared();
        let mut b = StructureBuilder::new(Arc::clone(&voc), n);
        for &(x, y) in edges {
            b.add_fact("E", &[x, y]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn build_and_query() {
        let s = digraph(&[(0, 1), (1, 2), (0, 1)], 3);
        let e = s.vocabulary().lookup("E").unwrap();
        assert_eq!(s.relation(e).len(), 2, "duplicates removed");
        assert!(s.relation(e).contains(&[Element(0), Element(1)]));
        assert!(!s.relation(e).contains(&[Element(1), Element(0)]));
        assert_eq!(s.universe(), 3);
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.size(), 3 + 4);
    }

    #[test]
    fn tuples_sorted_lexicographically() {
        let s = digraph(&[(2, 0), (0, 2), (1, 1)], 3);
        let e = s.vocabulary().lookup("E").unwrap();
        let tuples: Vec<Vec<u32>> = s
            .relation(e)
            .iter()
            .map(|t| t.iter().map(|x| x.0).collect())
            .collect();
        assert_eq!(tuples, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
    }

    #[test]
    fn occurrence_lists() {
        let s = digraph(&[(0, 1), (1, 2)], 3);
        let e = s.vocabulary().lookup("E").unwrap();
        assert_eq!(s.occurrences(Element(1)).len(), 2);
        assert_eq!(s.occurrences(Element(0)), &[(e, 0)]);
    }

    #[test]
    fn self_loop_occurrence_deduplicated() {
        let s = digraph(&[(1, 1)], 2);
        assert_eq!(
            s.occurrences(Element(1)).len(),
            1,
            "element occurring twice in one tuple is listed once"
        );
        assert_eq!(s.occurrences(Element(0)).len(), 0);
    }

    #[test]
    fn arity_and_range_validation() {
        let voc = Vocabulary::from_symbols([("E", 2)]).unwrap().into_shared();
        let mut b = StructureBuilder::new(voc, 2);
        assert!(matches!(
            b.add_fact("E", &[0]).unwrap_err(),
            Error::ArityMismatch { .. }
        ));
        assert!(matches!(
            b.add_fact("E", &[0, 5]).unwrap_err(),
            Error::ElementOutOfRange { .. }
        ));
        assert!(matches!(
            b.add_fact("F", &[0, 1]).unwrap_err(),
            Error::UnknownRelation { .. }
        ));
    }

    #[test]
    fn zero_ary_relation() {
        let voc = Vocabulary::from_symbols([("S", 0)]).unwrap().into_shared();
        let mut b = StructureBuilder::new(Arc::clone(&voc), 1);
        let s_empty = StructureBuilder::new(Arc::clone(&voc), 1).finish();
        b.add_fact("S", &[]).unwrap();
        let s = b.finish();
        let sym = voc.lookup("S").unwrap();
        assert!(s.relation(sym).contains(&[]));
        assert!(!s_empty.relation(sym).contains(&[]));
        assert_eq!(s.relation(sym).len(), 1);
    }

    #[test]
    fn restrict_induced_substructure() {
        let s = digraph(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let (sub, rename) = s.restrict(&[true, true, true, false]);
        assert_eq!(sub.universe(), 3);
        let e = sub.vocabulary().lookup("E").unwrap();
        // Edges (2,3) and (3,0) vanish with element 3.
        assert_eq!(sub.relation(e).len(), 2);
        assert_eq!(rename[3], None);
        assert_eq!(rename[0], Some(Element(0)));
        assert!(sub.relation(e).contains(&[Element(0), Element(1)]));
        assert!(sub.relation(e).contains(&[Element(1), Element(2)]));
    }

    #[test]
    fn same_vocabulary_by_content() {
        let a = digraph(&[(0, 1)], 2);
        let b = digraph(&[(1, 0)], 2);
        assert!(
            a.same_vocabulary(&b),
            "equal content counts even without shared Arc"
        );
    }
}
