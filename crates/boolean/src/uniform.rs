//! The uniform polynomial-time algorithm for `CSP(SC)` (Theorem 3.3).
//!
//! Given a pair `(A, B)` with `B` a Boolean structure in Schaefer's
//! class, the paper's algorithm (1) recognizes which tractable case
//! applies (Theorem 3.1), (2) constructs the defining formulas δ_{Q'}
//! (Theorem 3.2), (3) instantiates them per tuple of `A` into a formula
//! φ_A over the elements of `A`, and (4) runs the matching linear-time
//! (Horn / dual Horn / 2-SAT) or cubic (affine) satisfiability
//! procedure. Truth assignments of φ_A are exactly the homomorphisms
//! `A → B`.
//!
//! [`solve_schaefer`] is the production entry: it compiles `B` into a
//! [`SchaeferPlan`] (Theorem 3.4's direct algorithms, with the affine
//! case's defining equations lowered once) and solves `A` on it. A
//! caller streaming many instances against one `B` keeps the plan
//! instead, as `cqcs-core`'s sessions do. [`solve_schaefer_via_formulas`]
//! is the literal Theorem 3.3 pipeline, kept separate so the E3
//! experiment can measure both routes and the property suite can pin
//! the plan's witnesses to it.

use crate::cnf::{Clause, CnfFormula, Literal};
use crate::direct::{SchaeferPlan, SchaeferScratch};
use crate::error::{Error, Result};
use crate::formula_build;
use crate::gf2::LinearSystem;
use crate::horn_sat::solve_horn;
use crate::relation::BooleanStructure;
use crate::schaefer::{classify_structure, SchaeferClass, SchaeferSet};
use crate::two_sat::solve_2sat;
use cqcs_structures::Structure;

/// Classifies the right structure of an instance (must be Boolean).
pub fn schaefer_classes(b: &Structure) -> Result<SchaeferSet> {
    Ok(classify_structure(&BooleanStructure::from_structure(b)?))
}

/// Order in which applicable nontrivial classes are attempted by the
/// formula route: cheapest formula construction first.
const CLASS_PRIORITY: [SchaeferClass; 4] = [
    SchaeferClass::Bijunctive,
    SchaeferClass::Affine,
    SchaeferClass::Horn,
    SchaeferClass::DualHorn,
];

/// Solves `hom(A → B)` for a Schaefer template `B` by compiling `B`'s
/// [`SchaeferPlan`] and solving `A` on it (Theorem 3.4's direct
/// algorithms; Gaussian elimination for affine). Returns the
/// homomorphism as a 0/1 map, or `None`.
///
/// Errors if `B` is not Boolean or not in Schaefer's class, or if `A`
/// is over a different vocabulary.
pub fn solve_schaefer(a: &Structure, b: &Structure) -> Result<Option<Vec<bool>>> {
    let plan = SchaeferPlan::compile(b)?;
    if !plan.classes().is_schaefer() {
        return Err(Error::NotSchaefer);
    }
    if !a.same_vocabulary(b) {
        return Err(Error::Invalid(
            "left and right structures are over different vocabularies".into(),
        ));
    }
    Ok(plan
        .solve(a, 1, &mut SchaeferScratch::default())
        .map(<[bool]>::to_vec))
}

/// The literal Theorem 3.3 pipeline: build defining formulas, construct
/// φ_A, run the per-class SAT procedure.
pub fn solve_schaefer_via_formulas(a: &Structure, b: &Structure) -> Result<Option<Vec<bool>>> {
    let classes = schaefer_classes(b)?;
    if classes.contains(SchaeferClass::ZeroValid) {
        return Ok(Some(vec![false; a.universe()]));
    }
    if classes.contains(SchaeferClass::OneValid) {
        return Ok(Some(vec![true; a.universe()]));
    }
    let Some(class) = CLASS_PRIORITY
        .iter()
        .copied()
        .find(|c| classes.contains(*c))
    else {
        return Err(Error::NotSchaefer);
    };
    match class {
        SchaeferClass::Affine => Ok(build_linear_system(a, b)?.solve()),
        cnf_class => {
            let phi = build_phi(a, b, cnf_class)?;
            let model = match cnf_class {
                SchaeferClass::Bijunctive => solve_2sat(&phi)?,
                SchaeferClass::Horn => solve_horn(&phi)?,
                SchaeferClass::DualHorn => {
                    // Dual Horn: flip every literal, solve Horn, flip
                    // the model back.
                    let flipped = CnfFormula::new(
                        phi.num_vars,
                        phi.clauses
                            .iter()
                            .map(|c| Clause::new(c.literals.iter().map(|l| l.negated()).collect()))
                            .collect(),
                    );
                    solve_horn(&flipped)?.map(|m| m.into_iter().map(|v| !v).collect())
                }
                _ => unreachable!("affine handled above"),
            };
            Ok(model)
        }
    }
}

/// Builds φ_A = ⋀_Q ⋀_{t ∈ Q^A} δ_{Q'}(t) for a CNF-definable class.
fn build_phi(a: &Structure, b: &Structure, class: SchaeferClass) -> Result<CnfFormula> {
    let bs = BooleanStructure::from_structure(b)?;
    let n = a.universe();
    let mut clauses: Vec<Clause> = Vec::new();
    for (idx, (_, rel)) in bs.relations().iter().enumerate() {
        let r = cqcs_structures::RelId::from_index(idx);
        let ra = a.relation(r);
        if ra.is_empty() {
            continue;
        }
        if rel.arity() == 0 {
            // 0-ary: A asserts the fact; B must have it.
            if rel.is_empty() {
                clauses.push(Clause::default());
            }
            continue;
        }
        let delta = match class {
            SchaeferClass::Bijunctive => formula_build::defining_bijunctive(rel),
            SchaeferClass::Horn => formula_build::defining_horn(rel)?,
            SchaeferClass::DualHorn => formula_build::defining_dual_horn(rel)?,
            _ => unreachable!("build_phi is for CNF classes"),
        };
        for t in ra.iter() {
            for c in &delta.clauses {
                let lits: Vec<Literal> = c
                    .literals
                    .iter()
                    .map(|l| Literal {
                        var: t[l.var as usize].0,
                        positive: l.positive,
                    })
                    .collect();
                let cl = Clause::new(lits);
                if !cl.is_tautology() {
                    clauses.push(cl);
                }
            }
        }
    }
    Ok(CnfFormula::new(n, clauses))
}

/// Builds φ_A for an affine template: each relation's defining
/// equations instantiated per tuple (with GF(2) cancellation of repeated
/// elements), for Gaussian elimination.
fn build_linear_system(a: &Structure, b: &Structure) -> Result<LinearSystem> {
    let bs = BooleanStructure::from_structure(b)?;
    let n = a.universe();
    let mut sys = LinearSystem::new(n);
    for (idx, (_, rel)) in bs.relations().iter().enumerate() {
        let r = cqcs_structures::RelId::from_index(idx);
        let ra = a.relation(r);
        if ra.is_empty() {
            continue;
        }
        if rel.arity() == 0 {
            if rel.is_empty() {
                sys.add_equation([], true); // 0 = 1
            }
            continue;
        }
        let delta = formula_build::defining_affine(rel);
        for t in ra.iter() {
            for eq in &delta.equations {
                // Substitute x_{t[i]} for p_i; repeated elements cancel
                // pairwise over GF(2).
                let mut parity = vec![false; n];
                for i in eq.vars.iter() {
                    let e = t[i].index();
                    parity[e] = !parity[e];
                }
                sys.add_equation((0..n).filter(|&e| parity[e]), eq.rhs);
            }
        }
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::BooleanRelation;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::{homomorphism_exists, is_homomorphism};
    use cqcs_structures::{Element, StructureBuilder};
    use std::sync::Arc;

    fn check_both_routes(a: &Structure, b: &Structure) {
        let expected = homomorphism_exists(a, b);
        for (name, got) in [
            ("direct", solve_schaefer(a, b).unwrap()),
            ("formulas", solve_schaefer_via_formulas(a, b).unwrap()),
        ] {
            assert_eq!(
                got.is_some(),
                expected,
                "{name} route disagrees with reference"
            );
            if let Some(h) = got {
                let map: Vec<Element> = h.iter().map(|&v| Element::new(usize::from(v))).collect();
                assert!(is_homomorphism(&map, a, b), "{name} returned a non-hom");
            }
        }
    }

    fn template(rels: Vec<(&str, BooleanRelation)>) -> Structure {
        BooleanStructure::new(rels.into_iter().map(|(n, r)| (n.to_owned(), r)).collect())
            .to_structure()
    }

    #[test]
    fn trivial_classes_shortcut() {
        // 0-valid template: R = {000, 101}.
        let b = template(vec![(
            "R",
            BooleanRelation::new(3, vec![0b000, 0b101]).unwrap(),
        )]);
        let a = generators::random_structure_over(b.vocabulary(), 5, 6, 1);
        let h = solve_schaefer(&a, &b).unwrap().unwrap();
        assert!(h.iter().all(|&v| !v), "constant-0 homomorphism");
        check_both_routes(&a, &b);
    }

    #[test]
    fn horn_template_both_routes() {
        let b = template(vec![
            (
                "R",
                BooleanRelation::new(3, vec![0b000, 0b001, 0b011, 0b111]).unwrap(),
            ),
            ("U", BooleanRelation::new(1, vec![0b1]).unwrap()),
        ]);
        for seed in 0..10 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 5, seed);
            check_both_routes(&a, &b);
        }
    }

    #[test]
    fn bijunctive_template_both_routes() {
        let b = template(vec![(
            "E",
            BooleanRelation::new(2, vec![0b01, 0b10]).unwrap(),
        )]);
        for n in [4, 5, 6, 7] {
            let a = generators::undirected_cycle(n);
            // Rename E so the vocabularies match by content.
            let mut builder = StructureBuilder::new(Arc::clone(b.vocabulary()), n);
            let e_src = a.vocabulary().lookup("E").unwrap();
            for t in a.relation(e_src).iter() {
                builder.add_fact("E", &[t[0].0, t[1].0]).unwrap();
            }
            let a = builder.finish();
            check_both_routes(&a, &b);
        }
    }

    #[test]
    fn affine_template_both_routes() {
        // Even parity relation (x⊕y⊕z = 0) plus XOR.
        let b = template(vec![
            (
                "P",
                BooleanRelation::new(3, vec![0b000, 0b011, 0b101, 0b110]).unwrap(),
            ),
            ("X", BooleanRelation::new(2, vec![0b01, 0b10]).unwrap()),
        ]);
        // This template is both affine and bijunctive? P is affine but
        // not bijunctive (maj(011,101,110) = 111 ∉ P), so the affine
        // route is forced.
        let classes = schaefer_classes(&b).unwrap();
        assert!(classes.contains(SchaeferClass::Affine));
        assert!(!classes.contains(SchaeferClass::Bijunctive));
        for seed in 0..10 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 4, seed);
            check_both_routes(&a, &b);
        }
    }

    #[test]
    fn dual_horn_template_both_routes() {
        let b = template(vec![(
            "R",
            BooleanRelation::new(3, vec![0b100, 0b110, 0b101, 0b111]).unwrap(),
        )]);
        let classes = schaefer_classes(&b).unwrap();
        assert!(classes.contains(SchaeferClass::DualHorn));
        for seed in 0..10 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 5, seed);
            check_both_routes(&a, &b);
        }
    }

    #[test]
    fn non_schaefer_template_errors() {
        // Positive one-in-three: not Schaefer.
        let b = template(vec![(
            "R",
            BooleanRelation::new(3, vec![0b001, 0b010, 0b100]).unwrap(),
        )]);
        let a = generators::random_structure_over(b.vocabulary(), 3, 2, 0);
        assert!(matches!(
            solve_schaefer(&a, &b).unwrap_err(),
            Error::NotSchaefer
        ));
        assert!(matches!(
            solve_schaefer_via_formulas(&a, &b).unwrap_err(),
            Error::NotSchaefer
        ));
    }

    #[test]
    fn empty_b_relation_blocks_when_used() {
        // R' empty, A uses R → no hom; A doesn't use R → hom exists.
        let b = template(vec![
            ("R", BooleanRelation::new(2, vec![]).unwrap()),
            ("U", BooleanRelation::new(1, vec![0b0]).unwrap()),
        ]);
        let mut builder = StructureBuilder::new(Arc::clone(b.vocabulary()), 2);
        builder.add_fact("U", &[0]).unwrap();
        let a_without = builder.clone().finish();
        builder.add_fact("R", &[0, 1]).unwrap();
        let a_with = builder.finish();
        check_both_routes(&a_without, &b);
        check_both_routes(&a_with, &b);
        assert!(solve_schaefer(&a_with, &b).unwrap().is_none());
        assert!(solve_schaefer(&a_without, &b).unwrap().is_some());
    }

    #[test]
    fn repeated_elements_in_tuples() {
        // Tuples like R(x, x, y) exercise literal collapsing and GF(2)
        // cancellation.
        let b = template(vec![(
            "P",
            BooleanRelation::new(3, vec![0b000, 0b011, 0b101, 0b110]).unwrap(),
        )]);
        let mut builder = StructureBuilder::new(Arc::clone(b.vocabulary()), 2);
        builder.add_fact("P", &[0, 0, 1]).unwrap();
        let a = builder.finish();
        check_both_routes(&a, &b);
    }
}
