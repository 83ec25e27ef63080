//! # cqcs-cq — conjunctive queries (§1–2 of the paper)
//!
//! The database side of the paper's equation. A conjunctive query is a
//! rule `Q(X₁,…,Xₙ) :- R(X₁,Z), S(Z,X₂), …`; containment `Q₁ ⊑ Q₂` is,
//! by Chandra–Merlin (Theorem 2.1), the same as a homomorphism
//! `D_{Q₂} → D_{Q₁}` between canonical databases — which is where the
//! rest of the workspace takes over.
//!
//! * [`ast`] / [`parser`] — queries and their rule syntax;
//! * [`canonical`] — canonical databases `D_Q` (with the distinguished
//!   unary predicates `P_i` of §2) and canonical Boolean queries `Q_D`;
//! * [`containment`] — Theorem 2.1, all three formulations, routed
//!   through the `cqcs-core` uniform solver;
//! * [`evaluation`] — query answers `Q(D)`;
//! * [`minimize`](mod@minimize) — query minimization via cores (the classic
//!   Chandra–Merlin application);
//! * [`saraiya`] — Prop 3.6: two-atom containment through
//!   Booleanization (the bijunctive route).

pub mod ast;
pub mod canonical;
pub mod containment;
pub mod evaluation;
pub mod minimize;
pub mod parser;
pub mod saraiya;
pub mod width;

pub use ast::{Atom, ConjunctiveQuery, QueryError};
pub use canonical::{
    canonical_database, canonical_databases, canonical_databases_many, canonical_query,
    par_canonical_databases_many,
};
pub use containment::{
    contained_in, contained_in_batch, contained_in_with, equivalent, par_contained_in_batch,
};
pub use evaluation::{boolean_answer, evaluate};
pub use minimize::minimize;
pub use parser::parse_query;
pub use saraiya::{is_two_atom, two_atom_containment};
pub use width::{query_width, QueryWidth};
