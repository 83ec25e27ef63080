//! Instance analysis: which of the paper's tractable cases applies?

use cqcs_boolean::booleanize::booleanize;
use cqcs_boolean::relation::BooleanStructure;
use cqcs_boolean::schaefer::{classify_structure, SchaeferSet};
use cqcs_structures::{gaifman_graph, Structure};
use cqcs_treewidth::acyclic::is_acyclic;
use cqcs_treewidth::exact::exact_treewidth_budgeted_seeded;
use cqcs_treewidth::heuristics::{decomposition_from_elimination, min_fill_order};

/// Largest left structure the analyzer runs the exact-width oracle on,
/// and the dispatcher its over-budget MMD⁺ certificate and treewidth
/// probe.
pub const EXACT_WIDTH_PROBE_MAX_VERTICES: usize = 48;

/// Branch-and-bound node budget for that probe: analysis must stay
/// cheap relative to solving, so the oracle answers only when the
/// search is essentially free.
pub const EXACT_WIDTH_PROBE_NODE_BUDGET: u64 = 20_000;

/// What the dispatcher learned by inspecting `(A, B)`.
#[derive(Debug, Clone)]
pub struct InstanceAnalysis {
    /// `‖A‖` and `‖B‖`.
    pub a_size: usize,
    /// Encoding size of the right structure.
    pub b_size: usize,
    /// Whether `B` has universe `{0, 1}`.
    pub b_is_boolean: bool,
    /// Schaefer classes of `B` (when Boolean).
    pub schaefer: Option<SchaeferSet>,
    /// Schaefer classes of the Booleanized template, when Booleanization
    /// fits the bit-packed arity budget.
    pub booleanized_schaefer: Option<SchaeferSet>,
    /// Whether `A`'s hypergraph is α-acyclic.
    pub a_acyclic: bool,
    /// Upper bound on `A`'s treewidth (min-fill heuristic).
    pub a_treewidth_upper: usize,
    /// `A`'s exact treewidth, when the budgeted branch-and-bound oracle
    /// answered (small graphs, [`EXACT_WIDTH_PROBE_NODE_BUDGET`] nodes).
    pub a_treewidth_exact: Option<usize>,
}

impl InstanceAnalysis {
    /// The sharpest treewidth measure available: exact when the oracle
    /// answered, the min-fill upper bound otherwise.
    pub fn a_treewidth(&self) -> usize {
        self.a_treewidth_exact.unwrap_or(self.a_treewidth_upper)
    }

    /// Whether *some* polynomial route from the paper applies.
    pub fn tractable_route_exists(&self, treewidth_budget: usize) -> bool {
        self.schaefer.is_some_and(|s| s.is_schaefer())
            || self.booleanized_schaefer.is_some_and(|s| s.is_schaefer())
            || self.a_acyclic
            || self.a_treewidth() <= treewidth_budget
    }
}

impl std::fmt::Display for InstanceAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "‖A‖ = {}, ‖B‖ = {}", self.a_size, self.b_size)?;
        match self.schaefer {
            Some(s) if self.b_is_boolean => writeln!(f, "B Boolean, Schaefer {s}")?,
            _ => writeln!(f, "B not Boolean")?,
        }
        if let Some(s) = self.booleanized_schaefer {
            writeln!(f, "Booleanized template classes: {s}")?;
        }
        writeln!(f, "A acyclic: {}", self.a_acyclic)?;
        match self.a_treewidth_exact {
            Some(w) => write!(f, "A treewidth = {w} (exact)"),
            None => write!(f, "A treewidth ≤ {}", self.a_treewidth_upper),
        }
    }
}

/// Inspects an instance.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn analyze(a: &Structure, b: &Structure) -> InstanceAnalysis {
    assert!(
        a.same_vocabulary(b),
        "analysis across different vocabularies"
    );
    let b_is_boolean = b.universe() == 2;
    let schaefer = if b_is_boolean {
        BooleanStructure::from_structure(b)
            .ok()
            .map(|bs| classify_structure(&bs))
    } else {
        None
    };
    let booleanized_schaefer = if b_is_boolean || b.universe() == 0 {
        None
    } else {
        booleanize(a, b).ok().and_then(|(_, bb, _)| {
            BooleanStructure::from_structure(&bb)
                .ok()
                .map(|bs| classify_structure(&bs))
        })
    };
    let (a_treewidth_upper, a_treewidth_exact) = if a.universe() == 0 {
        (0, Some(0))
    } else {
        // One min-fill run serves both measures: the heuristic upper
        // bound and the seed order of the budgeted exact probe (which
        // would otherwise recompute it for its incumbent).
        let g = gaifman_graph(a);
        let order = min_fill_order(&g);
        let upper = decomposition_from_elimination(&g, &order).width();
        let exact = (g.len() <= EXACT_WIDTH_PROBE_MAX_VERTICES)
            .then(|| exact_treewidth_budgeted_seeded(&g, &order, EXACT_WIDTH_PROBE_NODE_BUDGET))
            .flatten();
        (upper, exact)
    };
    InstanceAnalysis {
        a_size: a.size(),
        b_size: b.size(),
        b_is_boolean,
        schaefer,
        booleanized_schaefer,
        a_acyclic: is_acyclic(a),
        a_treewidth_upper,
        a_treewidth_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_boolean::schaefer::SchaeferClass;
    use cqcs_structures::generators;

    #[test]
    fn coloring_instance_analysis() {
        let c6 = generators::undirected_cycle(6);
        let k3 = generators::complete_graph(3);
        let info = analyze(&c6, &k3);
        assert!(!info.b_is_boolean);
        assert!(info.schaefer.is_none());
        assert_eq!(info.a_treewidth_upper, 2);
        assert_eq!(
            info.a_treewidth_exact,
            Some(2),
            "C6 is small: oracle answers"
        );
        assert_eq!(info.a_treewidth(), 2);
        assert!(!info.a_acyclic);
        assert!(info.tractable_route_exists(2));
        assert!(info.to_string().contains("treewidth"));
    }

    #[test]
    fn boolean_template_detected() {
        let k2 = generators::complete_graph(2);
        let c5 = generators::undirected_cycle(5);
        let info = analyze(&c5, &k2);
        assert!(info.b_is_boolean);
        let classes = info.schaefer.unwrap();
        assert!(classes.contains(SchaeferClass::Bijunctive));
        assert!(classes.contains(SchaeferClass::Affine));
    }

    #[test]
    fn booleanization_detected_for_c4() {
        // Example 3.8: CSP(C4) Booleanizes into an affine template.
        let c4 = generators::directed_cycle(4);
        let a = generators::directed_cycle(8);
        let info = analyze(&a, &c4);
        assert!(!info.b_is_boolean);
        let classes = info.booleanized_schaefer.unwrap();
        assert!(classes.contains(SchaeferClass::Affine));
        assert!(info.tractable_route_exists(0));
    }

    #[test]
    fn intractable_instance_recognized() {
        // Random dense A of larger treewidth vs K3: no route.
        let a = generators::random_graph_nm(12, 30, 3);
        let k3 = generators::complete_graph(3);
        let info = analyze(&a, &k3);
        assert!(info.schaefer.is_none());
        assert!(info.booleanized_schaefer.is_some_and(|s| !s.is_schaefer()));
        assert!(info.a_treewidth_upper > 3);
        assert!(
            info.a_treewidth_exact.is_some_and(|w| w > 3),
            "exact oracle confirms the instance really is wide"
        );
        assert!(!info.tractable_route_exists(3));
    }

    #[test]
    fn exact_probe_never_above_the_heuristic() {
        for seed in 0..8u64 {
            let a = generators::random_graph_nm(10, 20, seed);
            let info = analyze(&a, &generators::complete_graph(3));
            let w = info.a_treewidth_exact.expect("small graph: oracle answers");
            assert!(w <= info.a_treewidth_upper, "seed {seed}");
            assert_eq!(info.a_treewidth(), w, "seed {seed}");
        }
        // Petersen: the exact measure is 4 whatever min-fill says.
        let info = analyze(&generators::petersen(), &generators::complete_graph(3));
        assert_eq!(info.a_treewidth_exact, Some(4));
    }
}
