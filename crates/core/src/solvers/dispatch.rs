//! The uniform meta-algorithm: dispatch to the paper's tractable route.
//!
//! [`solve`] with [`Strategy::Auto`] inspects the instance and applies,
//! in order:
//!
//! 1. **Schaefer** (Theorem 3.3/3.4): `B` Boolean and in `SC` — direct
//!    quadratic algorithms, Gaussian elimination for affine, compiled
//!    once per template into a `SchaeferPlan`;
//! 2. **Acyclic `A`** (width 1, Yannakakis lineage): semijoin program —
//!    checked before Booleanization because the A-side test is cheaper;
//! 3. **Booleanization** (Lemma 3.5): encode `B` in binary; if the
//!    encoded template lands in `SC` (as `C₄` does, Example 3.8, and as
//!    Saraiya-style two-tuple templates do, Prop 3.6), run its plan on
//!    `A` read at the encoding's bit width and decode;
//! 4. **Arc-consistency prefilter** (Theorem 4.7's approximation): one
//!    incremental-propagator fixpoint; a wipeout refutes the instance
//!    outright, and otherwise the established engine is reused by step
//!    6 instead of being rebuilt;
//! 5. **Bounded treewidth `A`** (Theorem 5.4): DP over a min-fill
//!    decomposition when its width fits the budget; when the heuristic
//!    overshoots, an MMD⁺ lower bound above the budget closes the step,
//!    and only where that bound is silent does a branch-and-bound probe
//!    look for an order that fits;
//! 6. **Generic search** seeded with the prefilter's propagator — the
//!    NP-side fallback the paper's results exist to avoid.
//!
//! The routing itself lives in [`crate::session`]: [`solve`] is a thin
//! compile-then-solve wrapper over [`Session`](crate::Session), so
//! one-shot calls and template-reusing sessions take bit-identical
//! decisions. The order above is written once, in two crate-private
//! functions there: `auto_before_engine` runs steps 1–3, which need no
//! propagation engine, and `auto_on_engine` runs steps 4–6 on an engine
//! the caller has bound. A solve binds it from its worker scratch, and
//! a [`WatchSession`](crate::WatchSession) from its parked fixpoint,
//! passing the monotone proofs that let it skip steps 2 and 5; nothing
//! else in this crate calls a step's solver for `Strategy::Auto`.

use crate::session::solve_one_shot;
use crate::solvers::backtracking::{SearchOptions, SearchStats};
use cqcs_structures::{Homomorphism, Structure};

/// How to attack the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Inspect and dispatch (the uniform algorithm).
    Auto,
    /// Force the Schaefer route (errors if `B` is not Schaefer).
    Schaefer,
    /// Force Booleanization + Schaefer (errors if not applicable).
    Booleanize,
    /// Force the acyclic route (errors if `A` is not acyclic).
    Acyclic,
    /// Force the bounded-treewidth DP whatever the width.
    Treewidth,
    /// Generic backtracking with the given options.
    Generic(SearchOptions),
}

/// Which route actually solved the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Theorem 3.3/3.4 on a Boolean template.
    Schaefer,
    /// Lemma 3.5 then Theorem 3.3/3.4.
    Booleanization,
    /// GYO + semijoins.
    Acyclic,
    /// Refuted by (hyper)arc consistency alone — the pebble-game
    /// approximation (Theorem 4.7) settled the instance before any
    /// search or DP started.
    ArcRefuted,
    /// Theorem 5.4 DP (with the width used).
    Treewidth(usize),
    /// Backtracking search.
    Generic,
}

/// A solved instance.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The homomorphism, if one exists.
    pub homomorphism: Option<Homomorphism>,
    /// The route taken.
    pub route: Route,
    /// Search statistics (for the generic and arc-refuted routes).
    pub stats: Option<SearchStats>,
}

/// Errors from forced strategies that do not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The requested route's precondition fails.
    RouteNotApplicable(&'static str),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::RouteNotApplicable(what) => {
                write!(f, "requested route not applicable: {what}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Width budget for the automatic treewidth route: beyond this the DP's
/// `|B|^{w+1}` tables are no longer clearly better than search.
pub const AUTO_TREEWIDTH_BUDGET: usize = 3;

/// Solves `hom(A → B)`.
///
/// One-shot convenience over the session layer: runs the exact routing
/// of [`Session::solve_with`](crate::Session::solve_with) against the
/// borrowed template (nothing is cloned; the template-side facts are
/// built lazily on this call's stack and dropped after). Callers with
/// many instances against one `B` should hold a
/// [`Session`](crate::Session) so those facts are computed once.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn solve(a: &Structure, b: &Structure, strategy: Strategy) -> Result<Solution, SolveError> {
    solve_one_shot(a, b, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;
    use cqcs_treewidth::heuristics::min_fill_decomposition;

    fn check(a: &Structure, b: &Structure, expect_route: Option<Route>) {
        let expected = homomorphism_exists(a, b);
        let sol = solve(a, b, Strategy::Auto).unwrap();
        assert_eq!(sol.homomorphism.is_some(), expected);
        if let Some(h) = &sol.homomorphism {
            assert!(cqcs_structures::is_homomorphism(h.as_slice(), a, b));
        }
        if let Some(r) = expect_route {
            assert_eq!(sol.route, r);
        }
    }

    #[test]
    fn auto_picks_schaefer_for_boolean_templates() {
        let k2 = generators::complete_graph(2);
        for n in [4, 5, 6, 7] {
            check(&generators::undirected_cycle(n), &k2, Some(Route::Schaefer));
        }
    }

    #[test]
    fn auto_picks_booleanization_for_c4() {
        // Example 3.8: CSP(C4) through the affine route.
        let c4 = generators::directed_cycle(4);
        for n in [3, 4, 5, 8] {
            check(
                &generators::directed_cycle(n),
                &c4,
                Some(Route::Booleanization),
            );
        }
    }

    #[test]
    fn auto_picks_acyclic_for_paths() {
        let t4 = generators::transitive_tournament(4);
        check(&generators::directed_path(4), &t4, Some(Route::Acyclic));
        check(&generators::directed_path(6), &t4, Some(Route::Acyclic));
    }

    #[test]
    fn auto_picks_treewidth_for_partial_ktrees() {
        let k3 = generators::complete_graph(3);
        let a = generators::partial_ktree(10, 2, 0.9, 5);
        let sol = solve(&a, &k3, Strategy::Auto).unwrap();
        assert!(matches!(sol.route, Route::Treewidth(w) if w <= 3));
        assert_eq!(sol.homomorphism.is_some(), homomorphism_exists(&a, &k3));
    }

    #[test]
    fn exact_probe_rescues_instances_min_fill_overshoots() {
        // partial_ktree(20, 3, 0.7, 16): min-fill builds a width-4
        // decomposition, over the auto budget of 3, but the exact oracle
        // finds a width-3 order — the instance stays on the DP route
        // instead of falling through to generic search.
        let a = generators::partial_ktree(20, 3, 0.7, 16);
        let g = cqcs_structures::gaifman_graph(&a);
        assert!(
            min_fill_decomposition(&g).width() > AUTO_TREEWIDTH_BUDGET,
            "fixture rotted: min-fill no longer overshoots"
        );
        let k3 = generators::complete_graph(3);
        let sol = solve(&a, &k3, Strategy::Auto).unwrap();
        assert_eq!(sol.route, Route::Treewidth(3));
        assert_eq!(sol.homomorphism.is_some(), homomorphism_exists(&a, &k3));
    }

    #[test]
    fn auto_falls_back_to_generic() {
        // Dense A, K3 template: none of the theorems apply.
        let a = generators::random_graph_nm(10, 24, 9);
        let k3 = generators::complete_graph(3);
        let sol = solve(&a, &k3, Strategy::Auto).unwrap();
        assert_eq!(sol.route, Route::Generic);
        assert!(sol.stats.is_some());
        assert_eq!(sol.homomorphism.is_some(), homomorphism_exists(&a, &k3));
    }

    #[test]
    fn forced_routes_and_errors() {
        let c5 = generators::undirected_cycle(5);
        let k3 = generators::complete_graph(3);
        // K3 is not Boolean.
        assert!(solve(&c5, &k3, Strategy::Schaefer).is_err());
        // C5 is not acyclic.
        assert!(solve(&c5, &k3, Strategy::Acyclic).is_err());
        // Booleanized K3 is not Schaefer.
        assert!(solve(&c5, &k3, Strategy::Booleanize).is_err());
        // Treewidth always works.
        let sol = solve(&c5, &k3, Strategy::Treewidth).unwrap();
        assert!(sol.homomorphism.is_some());
        // Generic always works.
        let sol = solve(&c5, &k3, Strategy::Generic(SearchOptions::default())).unwrap();
        assert!(sol.homomorphism.is_some());
    }

    #[test]
    fn all_strategies_agree_on_random_instances() {
        for seed in 0..10u64 {
            let a = generators::random_digraph(6, 0.3, seed);
            let b = generators::random_digraph(4, 0.4, seed + 777);
            let expected = homomorphism_exists(&a, &b);
            for strat in [
                Strategy::Auto,
                Strategy::Treewidth,
                Strategy::Generic(SearchOptions::default()),
            ] {
                let sol = solve(&a, &b, strat).unwrap();
                assert_eq!(
                    sol.homomorphism.is_some(),
                    expected,
                    "seed {seed} {strat:?}"
                );
            }
        }
    }

    #[test]
    fn arc_refuted_route_fires_before_search() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        use std::sync::Arc;
        // Unary pins force a wipeout that AC alone detects; the dense
        // binary part keeps every earlier route (Schaefer / acyclic /
        // Booleanize / treewidth budget) from applying.
        let voc = Vocabulary::from_symbols([("E", 2), ("P", 1), ("Q", 1)])
            .unwrap()
            .into_shared();
        let mut ab = StructureBuilder::new(Arc::clone(&voc), 8);
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    ab.add_fact("E", &[i, j]).unwrap();
                }
            }
        }
        ab.add_fact("P", &[0]).unwrap();
        let a = ab.finish();
        // K3-like template: Booleanized K3 is not Schaefer (see
        // `forced_routes_and_errors`), so that route stays closed too.
        let mut bb = StructureBuilder::new(Arc::clone(&voc), 3);
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i != j {
                    bb.add_fact("E", &[i, j]).unwrap();
                }
            }
        }
        // P is empty in B: element 0 of A has no candidate image.
        bb.add_fact("Q", &[0]).unwrap();
        let b = bb.finish();
        assert!(!homomorphism_exists(&a, &b));
        let sol = solve(&a, &b, Strategy::Auto).unwrap();
        assert_eq!(sol.route, Route::ArcRefuted);
        assert!(sol.homomorphism.is_none());
        let stats = sol.stats.unwrap();
        assert!(stats.deletions > 0, "the refutation's effort is recorded");
        assert_eq!(stats.nodes, 0, "no search node was ever expanded");
    }

    #[test]
    fn two_coloring_against_c4_template_uses_booleanization() {
        // CSP(C4) ≡ 2-colorability in disguise (Example 3.8): verify
        // our dispatcher gets the same answers as hom on digraph inputs.
        let c4 = generators::directed_cycle(4);
        for seed in 0..6u64 {
            let a = generators::random_digraph(6, 0.25, seed);
            let expected = homomorphism_exists(&a, &c4);
            let sol = solve(&a, &c4, Strategy::Auto).unwrap();
            assert_eq!(sol.homomorphism.is_some(), expected, "seed {seed}");
        }
    }
}
