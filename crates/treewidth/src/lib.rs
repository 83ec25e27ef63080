//! # cqcs-treewidth — bounded treewidth and constraint satisfaction
//! (§5 of the paper)
//!
//! The third uniformization result: restricting the **left** structure
//! to treewidth ≤ k makes the homomorphism problem uniformly tractable
//! (Theorem 5.4). Built here:
//!
//! * [`decomposition`] — tree decompositions of structures and graphs,
//!   validated against the paper's three conditions; width;
//! * [`heuristics`] — elimination-order decompositions (min-degree,
//!   min-fill with cached fill-in counts, on `u64` word rows), the
//!   standard way to *obtain* decompositions;
//! * [`exact`] — the exact-treewidth oracle: subset dynamic programming
//!   up to 24 vertices, QuickBB-style branch and bound above;
//! * [`bb`] — that branch and bound: elimination-order search seeded by
//!   min-fill, pruned by degeneracy lower bounds, reduced by
//!   (almost-)simplicial vertices, memoized on eliminated-prefix sets;
//!   returns an optimal order, so every answer carries a validated
//!   decomposition;
//! * [`lower_bounds`] — the MMD / MMD+ degeneracy lower bounds the
//!   search prunes against (and the sandwich the property suite pins:
//!   `mmd ≤ exact ≤ min-fill`); [`dp::DpScratch::proves_treewidth_above`]
//!   runs MMD+ on the DP's word rows to prove a width budget
//!   unreachable;
//! * [`dp`] — the bounded-treewidth homomorphism solver: dynamic
//!   programming over bag assignments, polynomial for fixed width,
//!   lowered straight from the min-fill elimination's rows into flat bag
//!   tables, small bags filled as row sets;
//! * [`fo`] — Lemma 5.2 made executable: the canonical query of a
//!   structure of treewidth k rendered as an ∃FO^{k+1} formula (at most
//!   k+1 variable *slots*, reused along the decomposition) with an
//!   evaluator, giving the paper's alternative proof of Theorem 5.4;
//! * [`acyclic`] — the width-1 special case: GYO acyclicity and
//!   Yannakakis-style semijoin evaluation (the Chekuri–Rajaraman /
//!   Yannakakis lineage the paper discusses).

pub mod acyclic;
pub mod bb;
pub mod decomposition;
pub mod dp;
pub mod exact;
pub mod fo;
pub mod heuristics;
pub mod lower_bounds;

pub use acyclic::{is_acyclic, yannakakis, yannakakis_pooled, yannakakis_reference, GyoScratch};
pub use bb::{
    bb_treewidth, bb_treewidth_best_effort, bb_treewidth_best_effort_seeded,
    bb_treewidth_with_budget, bb_treewidth_with_budget_seeded, elimination_width, BbResult,
};
pub use decomposition::TreeDecomposition;
pub use dp::{
    homomorphism_via_treewidth, solve_min_fill_pooled, solve_with_decomposition,
    solve_with_decomposition_pooled, solve_with_order_pooled, DpScratch, MinFillOutcome,
};
pub use exact::{
    exact_decomposition, exact_treewidth, exact_treewidth_budgeted, exact_treewidth_budgeted_seeded,
};
pub use fo::{structure_to_fo, FoFormula};
pub use heuristics::{decomposition_from_elimination, min_degree_order, min_fill_order};
pub use lower_bounds::{mmd_lower_bound, mmd_plus_lower_bound};
