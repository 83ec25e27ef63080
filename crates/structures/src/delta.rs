//! First-class structure deltas: the unit of incremental serving.
//!
//! A [`StructureDelta`] describes how one instance evolves into the
//! next — facts added, facts retracted, and universe growth — without
//! materializing either endpoint. It is the contract shared by every
//! incremental layer above this crate: the incremental Datalog
//! maintenance and the session-level watch streams consume the same
//! validated delta, so "what changed" is computed and checked exactly
//! once.
//!
//! Deltas are deliberately strict: [`StructureDelta::apply`] rejects
//! vocabulary mismatches, additions of facts already present, and
//! retractions of facts that are absent. Strictness is what lets the
//! watches trust that an "additions-only" delta really is monotone —
//! the property their counting maintenance and the monotone proofs a
//! homomorphism watch keeps rest on.
//!
//! ```
//! use cqcs_structures::{generators, StructureDelta};
//! let a = generators::complete_graph(3);
//! let mut d = StructureDelta::new(&a);
//! d.grow_universe(1);
//! d.add_fact("E", &[0, 3]).unwrap();
//! let a2 = d.apply(&a).unwrap();
//! assert_eq!(a2.universe(), 4);
//! assert_eq!(StructureDelta::between(&a, &a2).unwrap().added().len(), 1);
//! ```

use crate::error::{Error, Result};
use crate::structure::{Element, Structure, StructureBuilder};
use crate::vocabulary::{RelId, Vocabulary};
use std::collections::HashSet;
use std::sync::Arc;

/// A validated difference between two structures over one vocabulary:
/// added facts, retracted facts, and universe growth (universes only
/// grow; shrinking is a rebuild, not a delta).
#[derive(Debug, Clone)]
pub struct StructureDelta {
    voc: Arc<Vocabulary>,
    base_universe: usize,
    new_universe: usize,
    added: Vec<(RelId, Vec<Element>)>,
    retracted: Vec<(RelId, Vec<Element>)>,
}

impl StructureDelta {
    /// An empty delta anchored to `base`'s vocabulary and universe.
    pub fn new(base: &Structure) -> Self {
        StructureDelta {
            voc: Arc::clone(base.vocabulary()),
            base_universe: base.universe(),
            new_universe: base.universe(),
            added: Vec::new(),
            retracted: Vec::new(),
        }
    }

    /// Diffs two structures: the returned delta satisfies
    /// `delta.apply(a)? == a2` (up to tuple order, which structures
    /// normalize anyway).
    ///
    /// Errors with [`Error::VocabularyMismatch`] when the structures
    /// disagree on vocabulary — the same rejection the engines'
    /// `reset_for_instance` enforces by assertion — and with
    /// [`Error::Invalid`] when `a2`'s universe is smaller than `a`'s.
    pub fn between(a: &Structure, a2: &Structure) -> Result<StructureDelta> {
        if !a.same_vocabulary(a2) {
            return Err(Error::VocabularyMismatch);
        }
        if a2.universe() < a.universe() {
            return Err(Error::Invalid(format!(
                "universe shrank from {} to {}: not expressible as a delta",
                a.universe(),
                a2.universe()
            )));
        }
        let mut delta = StructureDelta::new(a);
        delta.new_universe = a2.universe();
        for r in a.vocabulary().iter() {
            // Both tuple lists are sorted and deduplicated: merge-diff.
            let old = a.relation(r);
            let new = a2.relation(r);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() || j < new.len() {
                if i == old.len() {
                    delta.added.push((r, new.tuple(j).to_vec()));
                    j += 1;
                } else if j == new.len() {
                    delta.retracted.push((r, old.tuple(i).to_vec()));
                    i += 1;
                } else {
                    match old.tuple(i).cmp(new.tuple(j)) {
                        std::cmp::Ordering::Equal => {
                            i += 1;
                            j += 1;
                        }
                        std::cmp::Ordering::Less => {
                            delta.retracted.push((r, old.tuple(i).to_vec()));
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            delta.added.push((r, new.tuple(j).to_vec()));
                            j += 1;
                        }
                    }
                }
            }
        }
        Ok(delta)
    }

    /// Appends `by` fresh elements to the post-delta universe.
    pub fn grow_universe(&mut self, by: usize) {
        self.new_universe += by;
    }

    /// Records a fact addition by relation id, validating arity and
    /// element range against the *post-delta* universe (so facts may
    /// mention elements introduced by [`grow_universe`](Self::grow_universe)).
    pub fn add_tuple(&mut self, r: RelId, tuple: &[Element]) -> Result<()> {
        self.check_tuple(r, tuple, self.new_universe)?;
        self.added.push((r, tuple.to_vec()));
        Ok(())
    }

    /// Records a fact addition by relation name and raw elements.
    pub fn add_fact(&mut self, name: &str, tuple: &[u32]) -> Result<()> {
        let r = self.voc.require(name)?;
        let elems: Vec<Element> = tuple.iter().map(|&e| Element(e)).collect();
        self.add_tuple(r, &elems)
    }

    /// Records a fact retraction by relation id; retracted facts must
    /// lie inside the *base* universe (they existed before the delta).
    pub fn retract_tuple(&mut self, r: RelId, tuple: &[Element]) -> Result<()> {
        self.check_tuple(r, tuple, self.base_universe)?;
        self.retracted.push((r, tuple.to_vec()));
        Ok(())
    }

    /// Records a fact retraction by relation name and raw elements.
    pub fn retract_fact(&mut self, name: &str, tuple: &[u32]) -> Result<()> {
        let r = self.voc.require(name)?;
        let elems: Vec<Element> = tuple.iter().map(|&e| Element(e)).collect();
        self.retract_tuple(r, &elems)
    }

    fn check_tuple(&self, r: RelId, tuple: &[Element], universe: usize) -> Result<()> {
        let arity = self.voc.arity(r);
        if tuple.len() != arity {
            return Err(Error::ArityMismatch {
                relation: self.voc.name(r).to_owned(),
                arity,
                got: tuple.len(),
            });
        }
        for &e in tuple {
            if e.index() >= universe {
                return Err(Error::ElementOutOfRange {
                    relation: self.voc.name(r).to_owned(),
                    element: e.0,
                    universe,
                });
            }
        }
        Ok(())
    }

    /// The vocabulary the delta speaks.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.voc
    }

    /// Universe size of the structure the delta applies to.
    pub fn base_universe(&self) -> usize {
        self.base_universe
    }

    /// Universe size after application.
    pub fn new_universe(&self) -> usize {
        self.new_universe
    }

    /// Added facts, in insertion order.
    pub fn added(&self) -> &[(RelId, Vec<Element>)] {
        &self.added
    }

    /// Retracted facts, in insertion order.
    pub fn retracted(&self) -> &[(RelId, Vec<Element>)] {
        &self.retracted
    }

    /// Whether the delta changes nothing at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.retracted.is_empty() && !self.grows_universe()
    }

    /// Whether the delta is monotone: no retractions (universe growth
    /// is allowed — it only weakens constraints' reach, never removes
    /// support). This is the precondition for every incremental fast
    /// path downstream.
    pub fn additions_only(&self) -> bool {
        self.retracted.is_empty()
    }

    /// Whether the delta appends fresh elements.
    pub fn grows_universe(&self) -> bool {
        self.new_universe > self.base_universe
    }

    /// Total number of changed facts (added + retracted).
    pub fn fact_count(&self) -> usize {
        self.added.len() + self.retracted.len()
    }

    /// Applies the delta to `base`, producing the successor structure.
    ///
    /// Strict: errors with [`Error::VocabularyMismatch`] if `base` is
    /// over a different vocabulary, and with [`Error::Invalid`] if the
    /// base universe disagrees, an added fact is already present (or
    /// added twice), or a retracted fact is absent. Retracting a fact
    /// added by the same delta is likewise rejected — a delta is a set
    /// difference, not an edit script.
    pub fn apply(&self, base: &Structure) -> Result<Structure> {
        if !(Arc::ptr_eq(&self.voc, base.vocabulary()) || *self.voc == **base.vocabulary()) {
            return Err(Error::VocabularyMismatch);
        }
        if base.universe() != self.base_universe {
            return Err(Error::Invalid(format!(
                "delta anchored at universe {} applied to universe {}",
                self.base_universe,
                base.universe()
            )));
        }
        // Checked in insertion order, so the first bad fact is the one
        // reported; the sets make each duplicate check O(1).
        let mut seen_added: HashSet<(RelId, &[Element])> = HashSet::with_capacity(self.added.len());
        for (r, t) in &self.added {
            if base.relation(*r).contains(t) {
                return Err(Error::Invalid(format!(
                    "added fact {}{t:?} is already present",
                    self.voc.name(*r)
                )));
            }
            if !seen_added.insert((*r, t)) {
                return Err(Error::Invalid(format!(
                    "fact {}{t:?} added twice",
                    self.voc.name(*r)
                )));
            }
        }
        let mut retracted: HashSet<(RelId, &[Element])> =
            HashSet::with_capacity(self.retracted.len());
        for (r, t) in &self.retracted {
            if !base.relation(*r).contains(t) {
                return Err(Error::Invalid(format!(
                    "retracted fact {}{t:?} is absent",
                    self.voc.name(*r)
                )));
            }
            if !retracted.insert((*r, t)) {
                return Err(Error::Invalid(format!(
                    "fact {}{t:?} retracted twice",
                    self.voc.name(*r)
                )));
            }
        }
        let mut builder = StructureBuilder::new(Arc::clone(base.vocabulary()), self.new_universe);
        for r in base.vocabulary().iter() {
            for t in base.relation(r).iter() {
                // An additions-only delta hashes no base tuple.
                if !retracted.is_empty() && retracted.contains(&(r, t)) {
                    continue;
                }
                builder
                    .add_tuple(r, t)
                    .expect("existing tuple is valid by construction");
            }
        }
        for (r, t) in &self.added {
            builder.add_tuple(*r, t)?;
        }
        Ok(builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn digraph(edges: &[(u32, u32)], n: usize) -> Structure {
        let voc = Vocabulary::from_symbols([("E", 2)]).unwrap().into_shared();
        let mut b = StructureBuilder::new(voc, n);
        for &(x, y) in edges {
            b.add_fact("E", &[x, y]).unwrap();
        }
        b.finish()
    }

    fn facts(s: &Structure) -> Vec<(RelId, Vec<Element>)> {
        let mut out = Vec::new();
        for r in s.vocabulary().iter() {
            for t in s.relation(r).iter() {
                out.push((r, t.to_vec()));
            }
        }
        out
    }

    #[test]
    fn between_then_apply_round_trips() {
        let small = (
            digraph(&[(0, 1), (1, 2), (2, 0)], 3),
            digraph(&[(0, 1), (2, 1), (2, 0), (3, 3)], 4),
        );
        // About 4,000 and 4,800 facts, with a few thousand retracted
        // and added.
        let large = (
            generators::random_digraph(100, 0.4, 1),
            generators::random_digraph(110, 0.4, 2),
        );
        for (a, a2) in [small, large] {
            let d = StructureDelta::between(&a, &a2).unwrap();
            // `facts` lists are sorted: relation-major, tuples sorted.
            let (before, after) = (facts(&a), facts(&a2));
            let added = after.iter().filter(|f| before.binary_search(f).is_err());
            let retracted = before.iter().filter(|f| after.binary_search(f).is_err());
            let (added, retracted) = (added.count(), retracted.count());
            assert_eq!(d.added().len(), added);
            assert_eq!(d.retracted().len(), retracted);
            assert!(d.grows_universe());
            assert!(!d.additions_only());
            let applied = d.apply(&a).unwrap();
            assert_eq!(applied.universe(), a2.universe());
            assert_eq!(facts(&applied), after);
        }
    }

    #[test]
    fn between_of_identical_structures_is_empty() {
        let a = generators::random_graph_nm(8, 14, 7);
        let d = StructureDelta::between(&a, &a.clone()).unwrap();
        assert!(d.is_empty());
        assert!(d.additions_only());
        assert_eq!(d.fact_count(), 0);
        assert_eq!(facts(&d.apply(&a).unwrap()), facts(&a));
    }

    #[test]
    fn between_rejects_vocabulary_mismatch() {
        let a = digraph(&[(0, 1)], 2);
        let voc = Vocabulary::from_symbols([("F", 2)]).unwrap().into_shared();
        let b = StructureBuilder::new(voc, 2).finish();
        assert!(matches!(
            StructureDelta::between(&a, &b).unwrap_err(),
            Error::VocabularyMismatch
        ));
        assert!(matches!(
            StructureDelta::new(&b).apply(&a).unwrap_err(),
            Error::VocabularyMismatch
        ));
    }

    #[test]
    fn between_rejects_universe_shrink() {
        let a = digraph(&[], 3);
        let b = digraph(&[], 2);
        assert!(matches!(
            StructureDelta::between(&a, &b).unwrap_err(),
            Error::Invalid(_)
        ));
    }

    #[test]
    fn apply_is_strict_about_membership() {
        let a = digraph(&[(0, 1)], 2);
        let mut re_add = StructureDelta::new(&a);
        re_add.add_fact("E", &[0, 1]).unwrap();
        assert!(matches!(re_add.apply(&a).unwrap_err(), Error::Invalid(_)));

        let mut phantom = StructureDelta::new(&a);
        phantom.retract_fact("E", &[1, 0]).unwrap();
        assert!(matches!(phantom.apply(&a).unwrap_err(), Error::Invalid(_)));

        let mut twice = StructureDelta::new(&a);
        twice.add_fact("E", &[1, 1]).unwrap();
        twice.add_fact("E", &[1, 1]).unwrap();
        assert!(matches!(twice.apply(&a).unwrap_err(), Error::Invalid(_)));

        let mut anchored = StructureDelta::new(&digraph(&[], 5));
        anchored.add_fact("E", &[0, 4]).unwrap();
        assert!(matches!(anchored.apply(&a).unwrap_err(), Error::Invalid(_)));
    }

    #[test]
    fn delta_validates_arity_and_range() {
        let a = digraph(&[(0, 1)], 2);
        let mut d = StructureDelta::new(&a);
        assert!(matches!(
            d.add_fact("E", &[0]).unwrap_err(),
            Error::ArityMismatch { .. }
        ));
        assert!(matches!(
            d.add_fact("E", &[0, 2]).unwrap_err(),
            Error::ElementOutOfRange { .. }
        ));
        assert!(matches!(
            d.retract_fact("E", &[0, 2]).unwrap_err(),
            Error::ElementOutOfRange { .. }
        ));
        assert!(matches!(
            d.add_fact("F", &[0, 1]).unwrap_err(),
            Error::UnknownRelation { .. }
        ));
        // Growth legalizes additions (but not retractions) on the new range.
        d.grow_universe(1);
        d.add_fact("E", &[0, 2]).unwrap();
        assert!(matches!(
            d.retract_fact("E", &[0, 2]).unwrap_err(),
            Error::ElementOutOfRange { .. }
        ));
    }

    #[test]
    fn remove_fact_and_extend_universe_ergonomics() {
        let a = digraph(&[(0, 1), (1, 0)], 2);
        let smaller = a.remove_fact("E", &[1, 0]).unwrap();
        let e = a.vocabulary().lookup("E").unwrap();
        assert_eq!(smaller.relation(e).len(), 1);
        assert!(matches!(
            a.remove_fact("E", &[1, 1]).unwrap_err(),
            Error::Invalid(_)
        ));
        assert!(matches!(
            a.remove_fact("F", &[1, 1]).unwrap_err(),
            Error::UnknownRelation { .. }
        ));
        assert!(matches!(
            a.remove_fact("E", &[1]).unwrap_err(),
            Error::ArityMismatch { .. }
        ));
        let bigger = a.extend_universe(3);
        assert_eq!(bigger.universe(), 5);
        assert_eq!(bigger.relation(e).len(), 2);
        assert_eq!(bigger.occurrences(Element(4)), &[]);
        // The diff of the two ergonomic edits is what `between` reports.
        let d = StructureDelta::between(&smaller, &bigger).unwrap();
        assert_eq!(d.added().len(), 1);
        assert!(d.retracted().is_empty());
        assert_eq!(d.new_universe(), 5);
    }
}
