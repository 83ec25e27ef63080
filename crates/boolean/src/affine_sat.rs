//! Affine satisfiability: solving conjunctions of GF(2) linear
//! equations.
//!
//! The affine branch of Theorem 3.3 instantiates the defining equations
//! of each affine relation per tuple of the left structure and solves
//! the combined system by Gaussian elimination — "cubic in the length of
//! φ_A" per the paper \[Sch78\]. The elimination itself lives in
//! [`crate::gf2`]; this module is the solver entry point.

use crate::gf2::LinearSystem;

/// Solves an affine formula (a [`LinearSystem`]). Returns one model or
/// `None` if the system is inconsistent.
pub fn solve_affine(sys: &LinearSystem) -> Option<Vec<bool>> {
    sys.solve()
}

/// Whether the affine formula is satisfiable.
pub fn affine_satisfiable(sys: &LinearSystem) -> bool {
    sys.solve().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_chain() {
        // x_i ⊕ x_{i+1} = 1 along a chain: alternating solution.
        let mut sys = LinearSystem::new(6);
        for i in 0..5 {
            sys.add_equation([i, i + 1], true);
        }
        let m = solve_affine(&sys).unwrap();
        for i in 0..5 {
            assert_ne!(m[i], m[i + 1]);
        }
    }

    #[test]
    fn odd_parity_cycle_unsat() {
        // x_i ⊕ x_{i+1} = 1 around an odd cycle is inconsistent.
        let mut sys = LinearSystem::new(5);
        for i in 0..5 {
            sys.add_equation([i, (i + 1) % 5], true);
        }
        assert!(!affine_satisfiable(&sys));
    }

    #[test]
    fn even_parity_cycle_sat() {
        let mut sys = LinearSystem::new(4);
        for i in 0..4 {
            sys.add_equation([i, (i + 1) % 4], true);
        }
        assert!(affine_satisfiable(&sys));
    }
}
