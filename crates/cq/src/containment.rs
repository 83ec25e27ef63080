//! Conjunctive-query containment via Chandra–Merlin (Theorem 2.1).
//!
//! `Q₁ ⊑ Q₂` iff there is a homomorphism `D_{Q₂} → D_{Q₁}` — the
//! distinguished markers `P_i` force the containment mapping to send
//! head variables to head variables positionally. The homomorphism
//! test itself is delegated to the `cqcs-core` uniform solver, so every
//! tractable route of the paper (Schaefer via Booleanization, acyclic,
//! bounded treewidth) applies to containment automatically.

use crate::ast::{ConjunctiveQuery, QueryError};
use crate::canonical::{canonical_databases, par_canonical_databases_many};
use cqcs_core::{par_map, solve, Strategy};

/// Decides `q1 ⊑ q2` with the uniform (auto-dispatching) solver.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool, QueryError> {
    contained_in_with(q1, q2, Strategy::Auto)
}

/// Decides `q1 ⊑ q2` with an explicit solver strategy.
pub fn contained_in_with(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    strategy: Strategy,
) -> Result<bool, QueryError> {
    let (d1, d2) = canonical_databases(q1, q2)?;
    let sol = solve(&d2.database, &d1.database, strategy)
        .map_err(|e| QueryError::Invalid(e.to_string()))?;
    Ok(sol.homomorphism.is_some())
}

/// The containment mapping (q2-variable → q1-variable), when `q1 ⊑ q2`.
pub fn containment_mapping(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<Option<Vec<(String, String)>>, QueryError> {
    let (d1, d2) = canonical_databases(q1, q2)?;
    let sol = solve(&d2.database, &d1.database, Strategy::Auto)
        .map_err(|e| QueryError::Invalid(e.to_string()))?;
    Ok(sol.homomorphism.map(|h| {
        d2.variables
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    v.clone(),
                    d1.variables[h.apply(cqcs_structures::Element::new(i)).index()].clone(),
                )
            })
            .collect()
    }))
}

/// Decides `q1 ⊑ q2` for every `q1` in a batch against one fixed `q2`,
/// freezing `q2` (and building the joint vocabulary) **once** instead
/// of once per pair — the containment face of the template-reuse story
/// in `cqcs-core::session`. Returns the verdicts in input order;
/// answers agree with [`contained_in`] pair by pair (pinned by test).
///
/// The amortization assumes the batch shares a schema: all queries are
/// frozen over the *union* vocabulary (extra predicates appear as empty
/// relations on both sides of each check, which cannot change a
/// verdict, though per-pair cost scales with the union). If two
/// *candidates* clash in arity with each other — a conflict no pairwise
/// check would ever see — the batch falls back to pairwise
/// canonicalization rather than failing outright.
pub fn contained_in_batch(
    q1s: &[ConjunctiveQuery],
    q2: &ConjunctiveQuery,
) -> Result<Vec<bool>, QueryError> {
    par_contained_in_batch(q1s, q2, 1)
}

/// [`contained_in_batch`] on up to `threads` workers (identical
/// verdicts, in input order). Freezing shares one batch
/// canonicalization as before; the per-candidate homomorphism checks —
/// independent, and by far the expensive half — fan out via
/// [`cqcs_core::par_map`]. Note the roles Chandra–Merlin assigns:
/// `q1 ⊑ q2` maps `D_{Q2}` *into* `D_{Q1}`, so the fixed query is the
/// shared *instance* and each candidate supplies the template, which is
/// why this fans out per pair rather than compiling one template.
/// `threads ≤ 1` runs inline.
pub fn par_contained_in_batch(
    q1s: &[ConjunctiveQuery],
    q2: &ConjunctiveQuery,
    threads: usize,
) -> Result<Vec<bool>, QueryError> {
    if q1s.is_empty() {
        return Ok(Vec::new());
    }
    let mut all: Vec<&ConjunctiveQuery> = Vec::with_capacity(q1s.len() + 1);
    all.push(q2);
    all.extend(q1s.iter());
    let Ok(mut frozen) = par_canonical_databases_many(&all, threads) else {
        // The union vocabulary is inconsistent. Each pair may still be
        // fine on its own (candidate-vs-candidate clashes are invisible
        // to pairwise checks), so answer pair by pair; a pair that
        // really does clash with q2 errors here exactly as
        // `contained_in` would.
        return par_map(q1s.len(), threads, |i| contained_in(&q1s[i], q2))
            .into_iter()
            .collect();
    };
    let d2 = frozen.remove(0);
    par_map(frozen.len(), threads, |i| {
        let sol = solve(&d2.database, &frozen[i].database, Strategy::Auto)
            .map_err(|e| QueryError::Invalid(e.to_string()))?;
        Ok(sol.homomorphism.is_some())
    })
    .into_iter()
    .collect()
}

/// Query equivalence: containment both ways. The canonical databases
/// (and their joint vocabulary) are built once and reused for both
/// directions.
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool, QueryError> {
    let (d1, d2) = canonical_databases(q1, q2)?;
    let forward = solve(&d2.database, &d1.database, Strategy::Auto)
        .map_err(|e| QueryError::Invalid(e.to_string()))?;
    if forward.homomorphism.is_none() {
        return Ok(false);
    }
    let backward = solve(&d1.database, &d2.database, Strategy::Auto)
        .map_err(|e| QueryError::Invalid(e.to_string()))?;
    Ok(backward.homomorphism.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn q(src: &str) -> ConjunctiveQuery {
        parse_query(src).unwrap()
    }

    #[test]
    fn classic_containment() {
        // Q1 asks for a 2-path from X to itself... simpler: a query
        // with more constraints is contained in one with fewer.
        let specific = q("Q(X) :- E(X, Y), E(Y, Z), E(Z, X).");
        let general = q("Q(X) :- E(X, Y).");
        assert!(contained_in(&specific, &general).unwrap());
        assert!(!contained_in(&general, &specific).unwrap());
        assert!(!equivalent(&specific, &general).unwrap());
    }

    #[test]
    fn equivalent_queries_with_redundancy() {
        let redundant = q("Q(X) :- E(X, Y), E(X, Z).");
        let minimal = q("Q(X) :- E(X, Y).");
        assert!(equivalent(&redundant, &minimal).unwrap());
    }

    #[test]
    fn head_order_matters() {
        let xy = q("Q(X, Y) :- E(X, Y).");
        let yx = q("Q(Y, X) :- E(X, Y).");
        // Q(X,Y):-E(X,Y) vs Q(Y,X):-E(X,Y): containment would need the
        // markers to cross the edge direction.
        assert!(!contained_in(&xy, &yx).unwrap());
        assert!(!contained_in(&yx, &xy).unwrap());
        assert!(contained_in(&xy, &xy).unwrap(), "reflexive");
    }

    #[test]
    fn even_path_contains_in_two_path() {
        // Walks: a query asking for a walk of length 4 from X to Y is
        // contained in one asking for length 2? No — but folding: a
        // 4-path query maps into... test the fold direction: Q2 is a
        // 2-path; hom D_{Q2} → D_{Q1} sends the 2-path into the 4-path:
        // yes (take the first two edges). So Q1 (4-path) ⊑ Q2 (2-path)
        // as Boolean queries.
        let four = q("Q :- E(A, B), E(B, C), E(C, D), E(D, F).");
        let two = q("Q :- E(A, B), E(B, C).");
        assert!(contained_in(&four, &two).unwrap());
        // The converse needs a length-4 walk inside a bare 2-path: none.
        assert!(!contained_in(&two, &four).unwrap());
    }

    #[test]
    fn cycle_queries() {
        // Boolean query "there is a triangle" vs "there is an edge".
        let triangle = q("Q :- E(X, Y), E(Y, Z), E(Z, X).");
        let edge = q("Q :- E(X, Y).");
        assert!(contained_in(&triangle, &edge).unwrap());
        assert!(!contained_in(&edge, &triangle).unwrap());
        // "There is a closed walk of length 6" contains "triangle":
        // hom from C6's canonical db into C3's: wrap around twice.
        let hex = q("Q :- E(A,B), E(B,C), E(C,D), E(D,F), E(F,G), E(G,A).");
        assert!(contained_in(&triangle, &hex).unwrap());
        assert!(
            !contained_in(&hex, &triangle).unwrap(),
            "C6 is bipartite, C3 is not"
        );
    }

    #[test]
    fn containment_mapping_is_well_formed() {
        let specific = q("Q(X) :- E(X, Y), E(Y, Z).");
        let general = q("Q(X) :- E(X, W).");
        let mapping = containment_mapping(&specific, &general).unwrap().unwrap();
        // X (distinguished) must map to X.
        assert!(mapping.contains(&("X".to_string(), "X".to_string())));
        // W maps to Y (the only out-neighbour of X).
        assert!(mapping.contains(&("W".to_string(), "Y".to_string())));
    }

    #[test]
    fn strategies_agree() {
        use cqcs_core::{SearchOptions, Strategy};
        let q1 = q("Q(X) :- E(X, Y), E(Y, Z), E(Z, X).");
        let q2 = q("Q(X) :- E(X, Y), E(Y, X).");
        for strat in [
            Strategy::Auto,
            Strategy::Treewidth,
            Strategy::Generic(SearchOptions::default()),
        ] {
            assert!(!contained_in_with(&q1, &q2, strat).unwrap());
            assert!(contained_in_with(&q1, &q1, strat).unwrap());
        }
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let q1 = q("Q(X) :- E(X, Y).");
        let q2 = q("Q(X, Y) :- E(X, Y).");
        assert!(contained_in(&q1, &q2).is_err());
        assert!(contained_in_batch(std::slice::from_ref(&q1), &q2).is_err());
    }

    #[test]
    fn batch_containment_agrees_with_pairwise() {
        // One fixed Q2, many candidates — the batch must answer exactly
        // like the pairwise route, including across disjoint predicate
        // sets (the joint vocabulary covers the whole batch).
        let q2 = q("Q(X) :- E(X, Y).");
        let q1s = vec![
            q("Q(X) :- E(X, Y), E(Y, Z), E(Z, X)."),
            q("Q(X) :- E(Y, X)."),
            q("Q(X) :- E(X, X)."),
            q("Q(X) :- R(X, Y), E(X, Z)."),
            q("Q(X) :- R(X, Y)."),
        ];
        let batch = contained_in_batch(&q1s, &q2).unwrap();
        assert_eq!(batch.len(), q1s.len());
        for (q1, got) in q1s.iter().zip(&batch) {
            assert_eq!(*got, contained_in(q1, &q2).unwrap(), "{q1}");
        }
        assert_eq!(batch, vec![true, false, true, true, false]);
        assert!(contained_in_batch(&[], &q2).unwrap().is_empty());
    }

    #[test]
    fn parallel_batch_containment_matches_sequential() {
        let q2 = q("Q(X) :- E(X, Y).");
        let q1s = vec![
            q("Q(X) :- E(X, Y), E(Y, Z), E(Z, X)."),
            q("Q(X) :- E(Y, X)."),
            q("Q(X) :- E(X, X)."),
            q("Q(X) :- R(X, Y), E(X, Z)."),
            q("Q(X) :- R(X, Y)."),
            q("Q(X) :- E(X, A), E(A, B), E(B, C)."),
        ];
        let seq = contained_in_batch(&q1s, &q2).unwrap();
        for threads in [1usize, 2, 4, 16] {
            assert_eq!(
                par_contained_in_batch(&q1s, &q2, threads).unwrap(),
                seq,
                "threads {threads}"
            );
        }
        assert!(par_contained_in_batch(&[], &q2, 4).unwrap().is_empty());
        // The pairwise fallback (candidate-vs-candidate arity clash)
        // parallelizes identically too.
        let clashing = vec![q("Q(X) :- R(X, X)."), q("Q(X) :- R(X).")];
        let seq = contained_in_batch(&clashing, &q2).unwrap();
        assert_eq!(par_contained_in_batch(&clashing, &q2, 2).unwrap(), seq);
        // Errors surface in parallel exactly as sequentially.
        let bad = vec![q("Q(X) :- E(X, Y, Z).")];
        assert!(par_contained_in_batch(&bad, &q2, 2).is_err());
    }

    #[test]
    fn candidate_vs_candidate_arity_clash_does_not_poison_the_batch() {
        // R/2 in one candidate and R/1 in another never meet in a
        // pairwise check; the batch must fall back to pairwise
        // canonicalization instead of failing every verdict.
        let q2 = q("Q(X) :- E(X, Y).");
        let q1s = vec![q("Q(X) :- R(X, X)."), q("Q(X) :- R(X).")];
        let batch = contained_in_batch(&q1s, &q2).unwrap();
        for (q1, got) in q1s.iter().zip(&batch) {
            assert_eq!(*got, contained_in(q1, &q2).unwrap(), "{q1}");
        }
        // A candidate clashing with q2 itself errors, as pairwise does.
        let clash = vec![q("Q(X) :- E(X, Y, Z).")];
        assert!(contained_in_batch(&clash, &q2).is_err());
        assert!(contained_in(&clash[0], &q2).is_err());
    }

    #[test]
    fn equivalent_still_pins_the_classic_answers() {
        // `equivalent` now freezes the pair once and reuses the joint
        // canonical databases for both directions; the verdicts must be
        // exactly the two-call ones.
        let cases = [
            ("Q(X) :- E(X, Y), E(X, Z).", "Q(X) :- E(X, Y).", true),
            ("Q(X) :- E(X, Y), E(Y, X).", "Q(X) :- E(X, Y).", false),
            ("Q :- E(A,B), E(B,C), E(C,A).", "Q :- E(A,B).", false),
            (
                "Q :- E(A,B), E(B,A).",
                "Q :- E(A,B), E(B,C), E(C,D), E(D,A), E(B,A), E(C,B), E(D,C), E(A,D).",
                true,
            ),
        ];
        for (left, right, want) in cases {
            let ql = q(left);
            let qr = q(right);
            assert_eq!(equivalent(&ql, &qr).unwrap(), want, "{left} ≡ {right}");
            assert_eq!(
                equivalent(&ql, &qr).unwrap(),
                contained_in(&ql, &qr).unwrap() && contained_in(&qr, &ql).unwrap(),
                "{left} ≡ {right} two-call agreement"
            );
        }
    }
}
