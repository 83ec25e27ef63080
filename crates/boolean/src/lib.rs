//! # cqcs-boolean — Boolean constraint satisfaction (§3 of the paper)
//!
//! Everything Kolaitis & Vardi's §3 needs, built from scratch:
//!
//! * [`relation`] — bit-packed Boolean relations and Boolean structures
//!   (structures with universe `{0, 1}`), with conversions to and from
//!   [`cqcs_structures::Structure`];
//! * [`schaefer`] — Schaefer's six tractable classes recognized by their
//!   closure properties (Theorem 3.1): 0-valid, 1-valid, Horn (closed
//!   under `∧`), dual Horn (closed under `∨`), bijunctive (closed under
//!   componentwise majority), affine (closed under `⊕` of triples);
//! * [`cnf`] / [`gf2`] — the propositional and linear-algebra substrate;
//! * [`formula_build`] — defining formulas δ_R (Theorem 3.2);
//! * [`horn_sat`] / [`two_sat`] / [`affine_sat`] / [`dpll`] — the SAT
//!   solvers the uniform algorithm dispatches to;
//! * [`uniform`] — the formula-building uniform algorithm
//!   (Theorem 3.3): `CSP(SC)` in polynomial time;
//! * [`direct`] — the direct quadratic-time algorithms that skip
//!   formula building (Theorem 3.4), compiled once per template into a
//!   [`SchaeferPlan`] that serves both the Schaefer route and the
//!   Booleanization route;
//! * [`booleanize`](mod@booleanize) — Booleanization of arbitrary CSP instances
//!   (Lemma 3.5) powering Saraiya's two-atom containment (Prop 3.6) and
//!   the `C₄` example (Example 3.8).

pub mod affine_sat;
pub mod booleanize;
pub mod cnf;
pub mod direct;
pub mod dpll;
pub mod error;
pub mod formula_build;
pub mod gf2;
pub mod horn_sat;
pub mod relation;
pub mod schaefer;
pub mod two_sat;
pub mod uniform;

pub use booleanize::{
    booleanize, booleanize_instance, booleanize_template, BooleanizeInfo, BooleanizedTemplate,
};
pub use cnf::{Clause, CnfFormula, Literal};
pub use direct::{plan_compiles_on_this_thread, SchaeferPlan, SchaeferScratch};
pub use error::{Error, Result};
pub use gf2::{LinearSystem, RowBasis};
pub use relation::{BooleanRelation, BooleanStructure};
pub use schaefer::{classify_relation, classify_structure, SchaeferClass, SchaeferSet};
pub use uniform::solve_schaefer;
