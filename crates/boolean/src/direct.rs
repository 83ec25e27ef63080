//! The direct quadratic-time algorithms of Theorem 3.4.
//!
//! For Horn, dual Horn, and bijunctive templates the paper improves on
//! the cubic formula-building route by operating on the structures
//! directly:
//!
//! * **Horn** ([`horn_csp`]) — grow the set `One` of elements of `A`
//!   that must map to 1: whenever a tuple `t` of `A` has current ones
//!   `One(t)` and the corresponding relation `Q'` of `B` *satisfies*
//!   `One(t) → j` (every `Q'`-tuple extending the ones has bit `j`),
//!   add `t_j` to `One`. At the fixpoint a homomorphism exists iff every
//!   tuple has an extension in `Q'`, and the indicator of `One` is one.
//!   Runs in `O(‖A‖·‖B‖)` using the per-element occurrence lists.
//! * **Dual Horn** ([`dual_horn_csp`]) — by 0/1 duality.
//! * **Bijunctive** ([`bijunctive_csp`]) — the paper's emulation of the
//!   phase-based 2-SAT algorithm \[LP97\]: pick an unassigned element,
//!   guess a value, propagate through the `T_{Q',k,i}` tuple sets,
//!   undo and flip on conflict; both guesses failing means no
//!   homomorphism.
//! * **Trivial classes** ([`trivial_csp`]) — 0-valid/1-valid templates
//!   always admit the constant homomorphism.

use crate::error::{Error, Result};
use crate::relation::{BooleanRelation, BooleanStructure};
use crate::schaefer;
use cqcs_structures::{Element, RelId, Structure};

/// Extracts `B`'s relations as bit-packed Boolean relations, indexed by
/// `RelId` order, after checking the instance is well-formed.
fn boolean_template(a: &Structure, b: &Structure) -> Result<Vec<BooleanRelation>> {
    if !a.same_vocabulary(b) {
        return Err(Error::Invalid(
            "left and right structures are over different vocabularies".into(),
        ));
    }
    let bs = BooleanStructure::from_structure(b)?;
    Ok(bs.relations().iter().map(|(_, r)| r.clone()).collect())
}

/// The constant homomorphism for a 0-valid (`value = false`) or 1-valid
/// (`value = true`) template.
pub fn trivial_csp(a: &Structure, value: bool) -> Vec<bool> {
    vec![value; a.universe()]
}

/// Current ones-mask of an `A`-tuple under a partial 0/1 assignment.
#[inline]
fn ones_mask(tuple: &[Element], one: &[bool]) -> u64 {
    tuple
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, e)| m | ((one[e.index()] as u64) << i))
}

/// Theorem 3.4, Horn case. Returns the minimal homomorphism (fewest
/// ones) as a 0/1 map, or `None` if there is none.
///
/// Errors if `B` is not a Boolean structure with every relation Horn.
pub fn horn_csp(a: &Structure, b: &Structure) -> Result<Option<Vec<bool>>> {
    let template = boolean_template(a, b)?;
    if let Some((id, _)) = template
        .iter()
        .enumerate()
        .find(|(_, r)| !schaefer::is_horn(r))
    {
        return Err(Error::Invalid(format!(
            "relation `{}` is not Horn",
            a.vocabulary().name(RelId::from_index(id))
        )));
    }
    Ok(horn_fixpoint(a, &template))
}

/// Shared Horn propagation; `template[r]` must be ∧-closed.
fn horn_fixpoint(a: &Structure, template: &[BooleanRelation]) -> Option<Vec<bool>> {
    let mut one = vec![false; a.universe()];
    let mut queue: Vec<Element> = Vec::new();

    // Processes one tuple: either fails (no extension in Q') or forces
    // new elements into One.
    let process =
        |one: &mut Vec<bool>, queue: &mut Vec<Element>, r: RelId, tuple: &[Element]| -> bool {
            let rel = &template[r.index()];
            let mask = ones_mask(tuple, one);
            let mut meet = rel.ones_mask();
            let mut any = false;
            for t in rel.iter() {
                if t & mask == mask {
                    meet &= t;
                    any = true;
                }
            }
            if !any {
                return false; // One(t) has no extension in Q' — monotone, fatal
            }
            let forced = meet & !mask;
            if forced != 0 {
                for (i, e) in tuple.iter().enumerate() {
                    if forced & (1 << i) != 0 && !one[e.index()] {
                        one[e.index()] = true;
                        queue.push(*e);
                    }
                }
            }
            true
        };

    // Initial pass over every tuple (catches ∅ → j units and empty Q').
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            if !a.relation(r).is_empty() && template[r.index()].is_empty() {
                return None;
            }
            continue;
        }
        for ti in 0..a.relation(r).len() {
            let tuple: Vec<Element> = a.relation(r).tuple(ti).to_vec();
            if !process(&mut one, &mut queue, r, &tuple) {
                return None;
            }
        }
    }
    // Worklist: reprocess the tuples an element occurs in when it joins
    // One (the paper's linked-list traversal).
    while let Some(e) = queue.pop() {
        for &(r, ti) in a.occurrences(e) {
            let tuple: Vec<Element> = a.relation(r).tuple(ti as usize).to_vec();
            if !process(&mut one, &mut queue, r, &tuple) {
                return None;
            }
        }
    }
    Some(one)
}

/// Theorem 3.4, dual Horn case, by 0/1 duality: flip `B`'s bits, run the
/// Horn fixpoint, flip the answer.
pub fn dual_horn_csp(a: &Structure, b: &Structure) -> Result<Option<Vec<bool>>> {
    let template = boolean_template(a, b)?;
    if let Some((id, _)) = template
        .iter()
        .enumerate()
        .find(|(_, r)| !schaefer::is_dual_horn(r))
    {
        return Err(Error::Invalid(format!(
            "relation `{}` is not dual Horn",
            a.vocabulary().name(RelId::from_index(id))
        )));
    }
    let flipped: Vec<BooleanRelation> = template
        .iter()
        .map(|r| {
            let mask = r.ones_mask();
            BooleanRelation::new(r.arity(), r.iter().map(|t| !t & mask).collect())
                .expect("flipped tuples stay in range")
        })
        .collect();
    Ok(horn_fixpoint(a, &flipped).map(|one| one.into_iter().map(|v| !v).collect()))
}

/// Theorem 3.4, bijunctive case: the phase-based propagation algorithm.
pub fn bijunctive_csp(a: &Structure, b: &Structure) -> Result<Option<Vec<bool>>> {
    let template = boolean_template(a, b)?;
    if let Some((id, _)) = template
        .iter()
        .enumerate()
        .find(|(_, r)| !schaefer::is_bijunctive(r))
    {
        return Err(Error::Invalid(format!(
            "relation `{}` is not bijunctive",
            a.vocabulary().name(RelId::from_index(id))
        )));
    }
    // 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0
            && !a.relation(r).is_empty()
            && template[r.index()].is_empty()
        {
            return Ok(None);
        }
    }

    let n = a.universe();
    let mut value: Vec<Option<bool>> = vec![None; n];

    for start in 0..n {
        if value[start].is_some() {
            continue;
        }
        let mut done = false;
        for guess in [false, true] {
            let mut trail: Vec<usize> = Vec::new();
            if propagate_bijunctive(a, &template, &mut value, &mut trail, start, guess) {
                done = true;
                break;
            }
            for v in trail {
                value[v] = None;
            }
        }
        if !done {
            return Ok(None);
        }
    }
    Ok(Some(
        value
            .into_iter()
            .map(|v| v.expect("all phases assign"))
            .collect(),
    ))
}

/// Assigns `value[start] = guess` and propagates; returns `false` on
/// conflict (leaving the trail for the caller to undo).
fn propagate_bijunctive(
    a: &Structure,
    template: &[BooleanRelation],
    value: &mut [Option<bool>],
    trail: &mut Vec<usize>,
    start: usize,
    guess: bool,
) -> bool {
    value[start] = Some(guess);
    trail.push(start);
    let mut queue = vec![Element::new(start)];
    while let Some(e) = queue.pop() {
        let i = value[e.index()].expect("queued elements are assigned");
        for &(r, ti) in a.occurrences(e) {
            let rel = &template[r.index()];
            let tuple = a.relation(r).tuple(ti as usize);
            // e may occur at several positions of the tuple.
            for (k, &ek) in tuple.iter().enumerate() {
                if ek != e {
                    continue;
                }
                // T_{Q',k,i}: tuples of Q' with bit k equal to i.
                let mut all_and = rel.ones_mask();
                let mut all_or = 0u64;
                let mut any = false;
                for t in rel.iter() {
                    if BooleanRelation::bit(t, k) == i {
                        all_and &= t;
                        all_or |= t;
                        any = true;
                    }
                }
                if !any {
                    return false; // the tuple cannot map anywhere
                }
                // Positions forced to 1 (in all_and) or to 0 (not in
                // all_or).
                for (l, &el) in tuple.iter().enumerate() {
                    let forced = if all_and & (1 << l) != 0 {
                        Some(true)
                    } else if all_or & (1 << l) == 0 {
                        Some(false)
                    } else {
                        None
                    };
                    if let Some(j) = forced {
                        match value[el.index()] {
                            Some(existing) if existing != j => return false,
                            Some(_) => {}
                            None => {
                                value[el.index()] = Some(j);
                                trail.push(el.index());
                                queue.push(el);
                            }
                        }
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::{homomorphism_exists, is_homomorphism};
    use cqcs_structures::StructureBuilder;
    use std::sync::Arc;

    /// Builds a left structure over the same symbols as a Boolean
    /// template.
    fn left(bs: &BooleanStructure, n: usize, facts: &[(&str, &[u32])]) -> Structure {
        let b = bs.to_structure();
        let mut builder = StructureBuilder::new(Arc::clone(b.vocabulary()), n);
        for (name, tuple) in facts {
            builder.add_fact(name, tuple).unwrap();
        }
        builder.finish()
    }

    fn implication_template() -> BooleanStructure {
        // I(x, y) = x → y (Horn), with y at position 1 (bit 1).
        BooleanStructure::new(vec![(
            "I".into(),
            BooleanRelation::new(2, vec![0b00, 0b10, 0b11]).unwrap(),
        )])
    }

    #[test]
    fn horn_implication_chain() {
        let bs = BooleanStructure::new(vec![
            (
                "I".into(),
                BooleanRelation::new(2, vec![0b00, 0b10, 0b11]).unwrap(),
            ),
            ("T".into(), BooleanRelation::new(1, vec![0b1]).unwrap()),
            ("F".into(), BooleanRelation::new(1, vec![0b0]).unwrap()),
        ]);
        // T(0), I(0,1), I(1,2): forces 0,1,2 all true. Satisfiable.
        let a = left(&bs, 3, &[("T", &[0]), ("I", &[0, 1]), ("I", &[1, 2])]);
        let b = bs.to_structure();
        let h = horn_csp(&a, &b).unwrap().unwrap();
        assert_eq!(h, vec![true, true, true]);
        // Add F(2): now unsatisfiable.
        let a2 = left(
            &bs,
            3,
            &[("T", &[0]), ("I", &[0, 1]), ("I", &[1, 2]), ("F", &[2])],
        );
        assert_eq!(horn_csp(&a2, &b).unwrap(), None);
    }

    #[test]
    fn horn_returns_minimal_model() {
        let bs = implication_template();
        // I(0,1) alone: all-false works and is minimal.
        let a = left(&bs, 2, &[("I", &[0, 1])]);
        let b = bs.to_structure();
        assert_eq!(horn_csp(&a, &b).unwrap().unwrap(), vec![false, false]);
    }

    #[test]
    fn horn_matches_reference_search_on_random_instances() {
        // Random Horn template with a couple of relations; random left
        // structures; compare against the generic backtracking search.
        let horn_rel = BooleanRelation::new(3, vec![0b000, 0b001, 0b011, 0b111]).unwrap();
        assert!(schaefer::is_horn(&horn_rel));
        let unit = BooleanRelation::new(1, vec![0b1]).unwrap();
        let bs = BooleanStructure::new(vec![("R".into(), horn_rel), ("U".into(), unit)]);
        let b = bs.to_structure();
        for seed in 0..20u64 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 5, seed);
            let expected = homomorphism_exists(&a, &b);
            let got = horn_csp(&a, &b).unwrap();
            assert_eq!(got.is_some(), expected, "seed {seed}");
            if let Some(h) = got {
                let map: Vec<_> = h.iter().map(|&v| Element::new(usize::from(v))).collect();
                assert!(is_homomorphism(&map, &a, &b));
            }
        }
    }

    #[test]
    fn dual_horn_matches_reference() {
        // ∨-closure of a random set.
        let mut tuples = vec![0b110u64, 0b011];
        tuples.push(0b110 | 0b011);
        let rel = BooleanRelation::new(3, tuples).unwrap();
        assert!(schaefer::is_dual_horn(&rel));
        let bs = BooleanStructure::new(vec![("R".into(), rel)]);
        let b = bs.to_structure();
        for seed in 0..20u64 {
            let a = generators::random_structure_over(b.vocabulary(), 5, 4, seed);
            let expected = homomorphism_exists(&a, &b);
            let got = dual_horn_csp(&a, &b).unwrap();
            assert_eq!(got.is_some(), expected, "seed {seed}");
            if let Some(h) = got {
                let map: Vec<_> = h.iter().map(|&v| Element::new(usize::from(v))).collect();
                assert!(is_homomorphism(&map, &a, &b));
            }
        }
    }

    #[test]
    fn bijunctive_two_coloring() {
        // K2 as a Boolean template is the XOR relation (Example 3.7).
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let bs = BooleanStructure::new(vec![("E".into(), xor)]);
        let b = bs.to_structure();
        // Even cycle: 2-colorable.
        let mut facts = Vec::new();
        for i in 0..6u32 {
            facts.push([i, (i + 1) % 6]);
        }
        let fact_refs: Vec<(&str, &[u32])> = facts.iter().map(|f| ("E", f.as_slice())).collect();
        let a = left(&bs, 6, &fact_refs);
        let h = bijunctive_csp(&a, &b).unwrap().unwrap();
        for w in &facts {
            assert_ne!(h[w[0] as usize], h[w[1] as usize]);
        }
        // Odd cycle: not 2-colorable.
        let mut facts = Vec::new();
        for i in 0..5u32 {
            facts.push([i, (i + 1) % 5]);
        }
        let fact_refs: Vec<(&str, &[u32])> = facts.iter().map(|f| ("E", f.as_slice())).collect();
        let a = left(&bs, 5, &fact_refs);
        assert_eq!(bijunctive_csp(&a, &b).unwrap(), None);
    }

    #[test]
    fn bijunctive_matches_reference_on_random_instances() {
        // Majority-closed ternary relation + XOR.
        let mut tuples = vec![0b001u64, 0b010, 0b111];
        loop {
            let mut added = false;
            let snap = tuples.clone();
            for &a in &snap {
                for &b in &snap {
                    for &c in &snap {
                        let m = BooleanRelation::majority(a, b, c);
                        if !tuples.contains(&m) {
                            tuples.push(m);
                            added = true;
                        }
                    }
                }
            }
            if !added {
                break;
            }
        }
        let r3 = BooleanRelation::new(3, tuples).unwrap();
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let bs = BooleanStructure::new(vec![("R".into(), r3), ("X".into(), xor)]);
        let b = bs.to_structure();
        for seed in 0..25u64 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 4, seed);
            let expected = homomorphism_exists(&a, &b);
            let got = bijunctive_csp(&a, &b).unwrap();
            assert_eq!(got.is_some(), expected, "seed {seed}");
            if let Some(h) = got {
                let map: Vec<_> = h.iter().map(|&v| Element::new(usize::from(v))).collect();
                assert!(is_homomorphism(&map, &a, &b), "seed {seed}");
            }
        }
    }

    #[test]
    fn class_mismatch_errors() {
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let bs = BooleanStructure::new(vec![("E".into(), xor)]);
        let b = bs.to_structure();
        let a = left(&bs, 2, &[("E", &[0, 1])]);
        assert!(horn_csp(&a, &b).is_err(), "XOR is not Horn");
        assert!(dual_horn_csp(&a, &b).is_err());
        assert!(bijunctive_csp(&a, &b).is_ok());
    }

    #[test]
    fn non_boolean_right_structure_errors() {
        let a = generators::directed_path(2);
        let b = generators::complete_graph(3);
        assert!(horn_csp(&a, &b).is_err());
    }

    #[test]
    fn trivial_solver() {
        let a = generators::directed_path(3);
        assert_eq!(trivial_csp(&a, false), vec![false; 3]);
        assert_eq!(trivial_csp(&a, true), vec![true; 3]);
    }

    #[test]
    fn isolated_elements_get_values() {
        let bs = implication_template();
        let b = bs.to_structure();
        // Universe 4 but only elements 0,1 constrained.
        let a = left(&bs, 4, &[("I", &[0, 1])]);
        let h = horn_csp(&a, &b).unwrap().unwrap();
        assert_eq!(h.len(), 4);
        let h = bijunctive_csp(&a, &b).unwrap().unwrap();
        assert_eq!(h.len(), 4);
    }
}
