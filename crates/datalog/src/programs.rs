//! Textbook programs used across tests, examples, and the experiment
//! tables.

use crate::ast::Program;
use crate::parser::parse_program;

/// The paper's §4.1 example: non-2-colorability in 4-Datalog, via the
/// existence of an odd cycle.
///
/// ```text
/// P(X, Y) :- E(X, Y)
/// P(X, Y) :- P(X, Z), E(Z, W), E(W, Y)
/// Q :- P(X, X)
/// ```
pub fn non_two_colorability_4datalog() -> Program {
    parse_program(
        "
        P(X, Y) :- E(X, Y).
        P(X, Y) :- P(X, Z), E(Z, W), E(W, Y).
        Q :- P(X, X).
        ",
        "Q",
    )
    .expect("static program parses")
}

/// Non-2-colorability in 3-Datalog (odd/even path split) — witnessing
/// that the property's Datalog width is at most 3.
pub fn non_two_colorability_3datalog() -> Program {
    parse_program(
        "
        Odd(X, Y) :- E(X, Y).
        Even(X, Y) :- Odd(X, Z), E(Z, Y).
        Odd(X, Y) :- Even(X, Z), E(Z, Y).
        Q :- Odd(X, X).
        ",
        "Q",
    )
    .expect("static program parses")
}

/// Plain transitive closure with a cycle goal (used as an evaluation
/// workload).
pub fn cycle_detection() -> Program {
    parse_program(
        "
        P(X, Y) :- E(X, Y).
        P(X, Y) :- P(X, Z), E(Z, Y).
        Q :- P(X, X).
        ",
        "Q",
    )
    .expect("static program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_naive, eval_semi_naive};
    use crate::validate::datalog_width;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn non_two_colorability_agrees_with_hom() {
        let k2 = generators::complete_graph(2);
        for program in [
            non_two_colorability_4datalog(),
            non_two_colorability_3datalog(),
        ] {
            for n in [3, 4, 5, 6, 7, 8] {
                let g = generators::undirected_cycle(n);
                let expected = !homomorphism_exists(&g, &k2);
                assert_eq!(eval_semi_naive(&program, &g).goal_derived, expected, "C{n}");
            }
            // Random graphs too.
            for seed in 0..8u64 {
                let g = generators::random_graph_nm(7, 8, seed);
                let expected = !homomorphism_exists(&g, &k2);
                assert_eq!(
                    eval_naive(&program, &g).goal_derived,
                    expected,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn widths_as_documented() {
        assert_eq!(datalog_width(&non_two_colorability_4datalog()), 4);
        assert_eq!(datalog_width(&non_two_colorability_3datalog()), 3);
        assert_eq!(datalog_width(&cycle_detection()), 3);
    }

    #[test]
    fn cycle_detection_works() {
        let program = cycle_detection();
        assert!(eval_semi_naive(&program, &generators::directed_cycle(5)).goal_derived);
        assert!(!eval_semi_naive(&program, &generators::directed_path(5)).goal_derived);
    }
}
