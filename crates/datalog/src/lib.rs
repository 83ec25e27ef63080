//! # cqcs-datalog — the Datalog substrate (§4 of the paper)
//!
//! Feder–Vardi's unifying explanation for tractable CSPs is
//! expressibility of the co-CSP in Datalog; Kolaitis & Vardi's §4 makes
//! that uniform through k-Datalog and pebble games. This crate supplies
//! the engine those results run on:
//!
//! * [`ast`] — programs, rules, interned predicates and variables;
//! * [`parser`] — the usual rule syntax (`P(X,Y) :- E(X,Z), P(Z,Y).`);
//! * [`validate`] — k-Datalog width (≤ k distinct variables per body
//!   and per head) and safety classification;
//! * [`eval`] — bottom-up naive and semi-naive evaluation with
//!   **active-domain semantics** for range-unrestricted head variables
//!   (exactly what the canonical program needs);
//! * [`canonical`] — the canonical program ρ_B of Theorem 4.7(2): a
//!   k-Datalog program expressing "the Spoiler wins the existential
//!   k-pebble game on (A, B)" for fixed B;
//! * [`programs`] — textbook programs (non-2-colorability from §4.1,
//!   reachability) used across tests and the experiment tables;
//! * [`incremental`] — delta maintenance of the least fixpoint:
//!   counting for non-recursive predicates, DRed delete/re-derive for
//!   recursive strata, and a [`DatalogWatch`] that notifies exactly on
//!   goal-verdict flips under a
//!   [`StructureDelta`](cqcs_structures::StructureDelta) stream.

pub mod ast;
pub mod canonical;
pub mod eval;
pub mod incremental;
pub mod parser;
pub mod programs;
pub mod validate;

pub use ast::{Atom, PredId, Program, ProgramBuilder, Rule, VarId};
pub use canonical::canonical_program;
pub use eval::{eval_naive, eval_semi_naive, EvalResult};
pub use incremental::{DatalogWatch, IncStats, IncrementalEval};
pub use parser::parse_program;
pub use validate::{datalog_width, is_k_datalog};
