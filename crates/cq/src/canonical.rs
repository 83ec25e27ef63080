//! Canonical databases (the "freezing" construction of §2).
//!
//! `D_Q` treats each variable of `Q` as a distinct element; every body
//! atom becomes a fact, and each distinguished variable `X_i`
//! additionally receives a fresh unary fact `P_i(X_i)` — the paper's
//! device for making containment mappings respect the head. Conversely
//! every database `D` yields the Boolean canonical query `Q_D` whose
//! body conjoins all facts of `D`.

use crate::ast::{Atom, ConjunctiveQuery, QueryError};
use cqcs_structures::{Element, Structure, StructureBuilder, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// Prefix for the distinguished-variable marker predicates; double
/// underscore keeps them out of the way of user predicate names.
pub const DISTINGUISHED_PREFIX: &str = "__dv";

/// Bookkeeping from query freezing.
#[derive(Debug, Clone)]
pub struct CanonicalDatabase {
    /// The canonical database.
    pub database: Structure,
    /// Variable names in element order (`variables[e]` is the variable
    /// frozen as element `e`).
    pub variables: Vec<String>,
}

/// Builds the joint vocabulary for any number of queries with equally
/// wide heads: the union of their predicates plus one marker per
/// distinguished position.
fn joint_vocabulary_many(queries: &[&ConjunctiveQuery]) -> Result<Arc<Vocabulary>, QueryError> {
    let width = queries
        .first()
        .map(|q| q.head_width())
        .expect("at least one query");
    let mut voc = Vocabulary::new();
    for q in queries {
        if q.head_width() != width {
            return Err(QueryError::HeadWidthMismatch {
                left: width,
                right: q.head_width(),
            });
        }
        for (p, arity) in q.predicates() {
            voc.add(p, arity).map_err(|_| QueryError::ArityConflict {
                predicate: p.to_owned(),
                first: voc.lookup(p).map(|id| voc.arity(id)).unwrap_or(0),
                second: arity,
            })?;
        }
    }
    for i in 0..width {
        voc.add(&format!("{DISTINGUISHED_PREFIX}{i}"), 1)
            .expect("marker names are fresh");
    }
    Ok(voc.into_shared())
}

/// Builds the joint vocabulary for a pair of queries.
fn joint_vocabulary(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<Arc<Vocabulary>, QueryError> {
    joint_vocabulary_many(&[q1, q2])
}

/// Freezes one query over a given vocabulary.
fn freeze(q: &ConjunctiveQuery, voc: &Arc<Vocabulary>) -> CanonicalDatabase {
    let variables: Vec<String> = q.variables().iter().map(|s| s.to_string()).collect();
    let index: HashMap<&str, Element> = variables
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), Element(i as u32)))
        .collect();
    let mut b = StructureBuilder::new(Arc::clone(voc), variables.len());
    let mut buf: Vec<Element> = Vec::new();
    for atom in &q.body {
        let rel = voc
            .lookup(&atom.predicate)
            .expect("joint vocabulary covers the query");
        buf.clear();
        buf.extend(atom.args.iter().map(|v| index[v.as_str()]));
        b.add_tuple(rel, &buf).expect("frozen tuples are in range");
    }
    for (i, h) in q.head.iter().enumerate() {
        let marker = voc
            .lookup(&format!("{DISTINGUISHED_PREFIX}{i}"))
            .expect("markers added");
        b.add_tuple(marker, &[index[h.as_str()]]).expect("in range");
    }
    CanonicalDatabase {
        database: b.finish(),
        variables,
    }
}

/// Builds the canonical databases of two queries over a **shared**
/// vocabulary (so homomorphism tests are well-typed). Errors if the
/// heads have different widths or predicates clash in arity.
pub fn canonical_databases(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<(CanonicalDatabase, CanonicalDatabase), QueryError> {
    let voc = joint_vocabulary(q1, q2)?;
    Ok((freeze(q1, &voc), freeze(q2, &voc)))
}

/// Freezes a single query (its own predicates only, plus markers).
pub fn canonical_database(q: &ConjunctiveQuery) -> CanonicalDatabase {
    let voc = joint_vocabulary(q, q).expect("a query agrees with itself");
    freeze(q, &voc)
}

/// Builds the canonical databases of many queries over one **shared**
/// vocabulary, in input order — the batch form of
/// [`canonical_databases`], so a fixed query checked against many
/// candidates is frozen once instead of once per pair. Errors if the
/// heads have different widths or predicates clash in arity; the slice
/// must be nonempty.
///
/// # Panics
/// Panics on an empty slice.
pub fn canonical_databases_many(
    queries: &[&ConjunctiveQuery],
) -> Result<Vec<CanonicalDatabase>, QueryError> {
    par_canonical_databases_many(queries, 1)
}

/// [`canonical_databases_many`] on up to `threads` workers (identical
/// output, in input order): the joint vocabulary is built
/// once sequentially — it is a fold over all queries — and the
/// per-query freezing, which is independent once the vocabulary is
/// fixed, fans out. `threads ≤ 1` runs inline.
///
/// # Panics
/// Panics on an empty slice.
pub fn par_canonical_databases_many(
    queries: &[&ConjunctiveQuery],
    threads: usize,
) -> Result<Vec<CanonicalDatabase>, QueryError> {
    assert!(!queries.is_empty(), "at least one query to freeze");
    let voc = joint_vocabulary_many(queries)?;
    Ok(cqcs_core::par_map(queries.len(), threads, |i| {
        freeze(queries[i], &voc)
    }))
}

/// The canonical Boolean query `Q_D` of a database: one atom per fact,
/// elements as variables (`V0, V1, …`).
pub fn canonical_query(d: &Structure) -> ConjunctiveQuery {
    let mut body = Vec::with_capacity(d.total_tuples());
    for r in d.vocabulary().iter() {
        if d.vocabulary().arity(r) == 0 {
            continue;
        }
        for t in d.relation(r).iter() {
            body.push(Atom {
                predicate: d.vocabulary().name(r).to_owned(),
                args: t.iter().map(|e| format!("V{}", e.0)).collect(),
            });
        }
    }
    ConjunctiveQuery::new(Vec::new(), body).expect("Boolean queries are always safe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn paper_example_canonical_database() {
        // §2: D_Q = {P(X1,Z1,Z2), R(Z2,Z3), R(Z3,X2), P1(X1), P2(X2)}.
        let q = parse_query("Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2).").unwrap();
        let cd = canonical_database(&q);
        assert_eq!(cd.database.universe(), 5, "five distinct variables");
        let voc = cd.database.vocabulary();
        assert_eq!(cd.database.relation(voc.lookup("P").unwrap()).len(), 1);
        assert_eq!(cd.database.relation(voc.lookup("R").unwrap()).len(), 2);
        assert_eq!(cd.database.relation(voc.lookup("__dv0").unwrap()).len(), 1);
        assert_eq!(cd.database.relation(voc.lookup("__dv1").unwrap()).len(), 1);
        // X1 is element 0 in discovery order.
        assert_eq!(cd.variables[0], "X1");
    }

    #[test]
    fn joint_vocabulary_unions_predicates() {
        let q1 = parse_query("Q(X) :- A(X, Y).").unwrap();
        let q2 = parse_query("Q(X) :- B(X, X).").unwrap();
        let (d1, d2) = canonical_databases(&q1, &q2).unwrap();
        assert!(d1.database.same_vocabulary(&d2.database));
        assert!(d1.database.vocabulary().lookup("B").is_some());
        assert!(d2.database.vocabulary().lookup("A").is_some());
    }

    #[test]
    fn head_width_mismatch_rejected() {
        let q1 = parse_query("Q(X) :- E(X, Y).").unwrap();
        let q2 = parse_query("Q(X, Y) :- E(X, Y).").unwrap();
        assert!(matches!(
            canonical_databases(&q1, &q2),
            Err(QueryError::HeadWidthMismatch { .. })
        ));
    }

    #[test]
    fn arity_clash_rejected() {
        let q1 = parse_query("Q(X) :- E(X, Y).").unwrap();
        let q2 = parse_query("Q(X) :- E(X, Y, Z).").unwrap();
        assert!(matches!(
            canonical_databases(&q1, &q2),
            Err(QueryError::ArityConflict { .. })
        ));
    }

    #[test]
    fn canonical_query_roundtrip() {
        // §2: hom(A → B) iff Q_B ⊑ Q_A; spot-check the construction by
        // freezing Q_D back and comparing hom behaviour.
        let d = generators::directed_cycle(3);
        let q = canonical_query(&d);
        assert_eq!(q.body.len(), 3);
        // A Boolean query has no markers, so D_{Q_D} is over D's own
        // vocabulary and is isomorphic to D: hom-equivalent both ways.
        let cd = canonical_database(&q);
        assert!(homomorphism_exists(&cd.database, &d));
        assert!(homomorphism_exists(&d, &cd.database));
    }

    #[test]
    fn parallel_freezing_matches_sequential() {
        let queries: Vec<ConjunctiveQuery> = (2..8)
            .map(|k| {
                let body: Vec<String> = (0..k)
                    .map(|i| format!("E(V{i}, V{})", (i + 1) % k))
                    .collect();
                parse_query(&format!("Q(V0) :- {}.", body.join(", "))).unwrap()
            })
            .collect();
        let refs: Vec<&ConjunctiveQuery> = queries.iter().collect();
        let seq = canonical_databases_many(&refs).unwrap();
        for threads in [1usize, 2, 4] {
            let par = par_canonical_databases_many(&refs, threads).unwrap();
            assert_eq!(par.len(), seq.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.variables, p.variables, "threads {threads}");
                assert_eq!(s.database.universe(), p.database.universe());
                for r in s.database.vocabulary().iter() {
                    let name = s.database.vocabulary().name(r);
                    let pr = p.database.vocabulary().lookup(name).unwrap();
                    assert_eq!(
                        s.database.relation(r).iter().collect::<Vec<_>>(),
                        p.database.relation(pr).iter().collect::<Vec<_>>(),
                        "relation {name}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn marker_prefix_does_not_collide() {
        let q = parse_query("Q(X) :- __dvish(X, X).").unwrap();
        let cd = canonical_database(&q);
        assert!(cd.database.vocabulary().lookup("__dvish").is_some());
        assert!(cd.database.vocabulary().lookup("__dv0").is_some());
    }
}
