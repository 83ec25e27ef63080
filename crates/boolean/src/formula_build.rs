//! Defining formulas δ_R for nontrivial Schaefer relations
//! (Theorem 3.2).
//!
//! * **Bijunctive** — the paper's construction verbatim: δ_R is the
//!   conjunction of *all* 2-clauses over `p₁,…,p_k` satisfied by `R`;
//!   time `O(|R| · k²)`.
//! * **Affine** — the paper's construction verbatim: extend each tuple
//!   with a constant-1 column, compute a basis of the nullspace of the
//!   resulting matrix over GF(2) by Gaussian elimination; each basis
//!   vector is one linear equation.
//! * **Horn / dual Horn** — the paper cites Dechter–Pearl \[DP92\] for a
//!   polynomial-time construction. We implement an *exact* variant that
//!   enumerates non-models and emits one Horn implicate per refutation,
//!   with subsumption pruning; it is exponential in the **arity** `k`
//!   (not in `|R|`), which is a small constant for CSP templates, and is
//!   guarded by an arity limit. The workspace's production solving route
//!   is Theorem 3.4's direct algorithms ([`crate::direct`]), which skip
//!   formula building entirely — the paper's own recommendation for the
//!   best bounds.
//!
//! Every constructor is verified in tests by the round-trip
//! `models(δ_R) = R`.

use crate::cnf::{Clause, CnfFormula, Literal};
use crate::error::{Error, Result};
use crate::gf2::{nullspace_basis, LinearSystem};
use crate::relation::BooleanRelation;
use crate::schaefer;
use cqcs_structures::BitSet;

/// Arity limit for the exhaustive Horn/dual-Horn constructions.
pub const HORN_BUILD_MAX_ARITY: usize = 20;

/// Builds the conjunction of all satisfied 2-clauses (including unit
/// clauses as degenerate 2-clauses), the paper's bijunctive δ_R.
///
/// The result defines `R` exactly when `R` is bijunctive; for other
/// relations it is the tightest 2-CNF upper approximation.
pub fn defining_bijunctive(r: &BooleanRelation) -> CnfFormula {
    let k = r.arity();
    let mut clauses = Vec::new();
    let mut literals = Vec::with_capacity(2 * k);
    for v in 0..k as u32 {
        literals.push(Literal::pos(v));
        literals.push(Literal::neg(v));
    }
    // Whether every tuple of R satisfies the clause (tuple masks encode
    // the assignment: bit i = value of p_i).
    let satisfied = |c: &Clause| {
        r.iter().all(|t| {
            c.literals
                .iter()
                .any(|l| BooleanRelation::bit(t, l.var as usize) == l.positive)
        })
    };
    // Unit clauses.
    for &l in &literals {
        let c = Clause::new(vec![l]);
        if satisfied(&c) {
            clauses.push(c);
        }
    }
    // Proper 2-clauses over distinct variables (tautologies excluded).
    for (i, &l1) in literals.iter().enumerate() {
        for &l2 in &literals[i + 1..] {
            if l1.var == l2.var {
                continue;
            }
            let c = Clause::new(vec![l1, l2]);
            if satisfied(&c) {
                clauses.push(c);
            }
        }
    }
    CnfFormula::new(k, clauses)
}

/// Builds the linear-equation system defining an affine relation via the
/// nullspace construction of Theorem 3.2.
///
/// The result defines `R` exactly when `R` is affine (this includes the
/// empty relation, which yields the inconsistent equation `0 = 1`).
pub fn defining_affine(r: &BooleanRelation) -> LinearSystem {
    let k = r.arity();
    // Rows of R': each tuple extended with a constant-1 column k.
    let rows: Vec<BitSet> = r
        .iter()
        .map(|t| {
            let mut row = BitSet::new(k + 1);
            for i in 0..k {
                if BooleanRelation::bit(t, i) {
                    row.insert(i);
                }
            }
            row.insert(k);
            row
        })
        .collect();
    let basis = nullspace_basis(&rows, k + 1);
    let mut sys = LinearSystem::new(k);
    for v in basis {
        let rhs = v.contains(k);
        sys.add_equation(v.iter().filter(|&i| i < k), rhs);
    }
    sys
}

/// Builds a Horn CNF defining a Horn (∧-closed) relation.
///
/// Exact by construction: every non-model `σ` is refuted either by a
/// negative clause (no model extends `σ`'s ones) or by the implicate
/// `One(σ) → j` where `j` is forced by the models above `σ`. Subsumed
/// clauses are pruned. Errors if the arity exceeds
/// [`HORN_BUILD_MAX_ARITY`] or the relation is not Horn.
pub fn defining_horn(r: &BooleanRelation) -> Result<CnfFormula> {
    if !schaefer::is_horn(r) {
        return Err(Error::WrongFormulaShape("Horn"));
    }
    build_horn_implicates(r).map(|clauses| CnfFormula::new(r.arity(), clauses))
}

/// Builds a dual-Horn CNF defining a dual-Horn (∨-closed) relation, by
/// bit-flipping into the Horn case and negating every literal.
pub fn defining_dual_horn(r: &BooleanRelation) -> Result<CnfFormula> {
    if !schaefer::is_dual_horn(r) {
        return Err(Error::WrongFormulaShape("dual Horn"));
    }
    let mask = r.ones_mask();
    let flipped = BooleanRelation::new(r.arity(), r.iter().map(|t| !t & mask).collect())
        .expect("flipped tuples stay in range");
    let clauses = build_horn_implicates(&flipped)?
        .into_iter()
        .map(|c| Clause::new(c.literals.into_iter().map(Literal::negated).collect()))
        .collect();
    Ok(CnfFormula::new(r.arity(), clauses))
}

/// Shared Horn implicate enumeration (see [`defining_horn`]).
fn build_horn_implicates(r: &BooleanRelation) -> Result<Vec<Clause>> {
    let k = r.arity();
    if k > HORN_BUILD_MAX_ARITY {
        return Err(Error::Invalid(format!(
            "Horn formula construction supports arity ≤ {HORN_BUILD_MAX_ARITY}, got {k}"
        )));
    }
    // (premise mask, head): head = None is a purely negative clause.
    let mut raw: Vec<(u64, Option<usize>)> = Vec::new();
    for sigma in 0..(1u64 << k) {
        if r.contains(sigma) {
            continue;
        }
        // Meet of all models above σ.
        let mut meet = r.ones_mask();
        let mut any = false;
        for t in r.iter() {
            if t & sigma == sigma {
                meet &= t;
                any = true;
            }
        }
        if !any {
            raw.push((sigma, None));
        } else {
            let forced = meet & !sigma;
            debug_assert_ne!(forced, 0, "σ ∉ R but nothing forced — R not ∧-closed?");
            raw.push((sigma, Some(forced.trailing_zeros() as usize)));
        }
    }
    // Subsumption pruning: (X', h) subsumes (X, h) and (X', None)
    // subsumes (X, anything) when X' ⊆ X. Process by ascending premise
    // size; cap the quadratic scan on pathological inputs.
    raw.sort_by_key(|&(premise, _)| premise.count_ones());
    let mut kept: Vec<(u64, Option<usize>)> = Vec::new();
    let prune = raw.len() <= 20_000;
    for (premise, head) in raw {
        let subsumed = prune
            && kept
                .iter()
                .any(|&(p2, h2)| p2 & premise == p2 && (h2.is_none() || h2 == head));
        if !subsumed {
            kept.push((premise, head));
        }
    }
    Ok(kept
        .into_iter()
        .map(|(premise, head)| {
            let mut lits: Vec<Literal> = (0..k as u32)
                .filter(|&i| premise & (1 << i) != 0)
                .map(Literal::neg)
                .collect();
            if let Some(h) = head {
                lits.push(Literal::pos(h as u32));
            }
            Clause::new(lits)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(arity: usize, tuples: &[u64]) -> BooleanRelation {
        BooleanRelation::new(arity, tuples.to_vec()).unwrap()
    }

    /// Enumerates the linear system's solution set as a relation.
    fn system_models(sys: &LinearSystem, k: usize) -> BooleanRelation {
        let mut masks = Vec::new();
        for bits in 0..(1u64 << k) {
            let a: Vec<bool> = (0..k).map(|i| bits & (1 << i) != 0).collect();
            if sys.eval(&a) {
                masks.push(bits);
            }
        }
        BooleanRelation::new(k, masks).unwrap()
    }

    #[test]
    fn bijunctive_roundtrip_xor() {
        let r = rel(2, &[0b01, 0b10]);
        let f = defining_bijunctive(&r);
        assert!(f.is_2cnf());
        assert_eq!(f.models_as_relation(), r);
    }

    #[test]
    fn bijunctive_roundtrip_random_closed() {
        // Generate bijunctive relations by closing random sets under
        // majority, then verify the round trip.
        for seed in 0..30u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut tuples: Vec<u64> = (0..3)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 0b11111
                })
                .collect();
            // Close under majority.
            loop {
                let mut added = false;
                let snapshot = tuples.clone();
                for &a in &snapshot {
                    for &b in &snapshot {
                        for &c in &snapshot {
                            let m = BooleanRelation::majority(a, b, c);
                            if !tuples.contains(&m) {
                                tuples.push(m);
                                added = true;
                            }
                        }
                    }
                }
                if !added {
                    break;
                }
            }
            let r = rel(5, &tuples);
            assert!(schaefer::is_bijunctive(&r));
            let f = defining_bijunctive(&r);
            assert_eq!(f.models_as_relation(), r, "seed {seed}");
        }
    }

    #[test]
    fn bijunctive_unit_clause_case() {
        // R = {11}: forced p0 and p1.
        let r = rel(2, &[0b11]);
        let f = defining_bijunctive(&r);
        assert_eq!(f.models_as_relation(), r);
    }

    #[test]
    fn affine_roundtrip_examples() {
        // Even parity on 3 vars: x0 ⊕ x1 ⊕ x2 = 0.
        let even = rel(3, &[0b000, 0b011, 0b101, 0b110]);
        assert!(schaefer::is_affine(&even));
        let sys = defining_affine(&even);
        assert_eq!(system_models(&sys, 3), even);
        // C4's first labeling (Example 3.8).
        let c4: Vec<u64> = [[0u64, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0]]
            .iter()
            .map(|t| t.iter().enumerate().fold(0, |m, (i, &b)| m | (b << i)))
            .collect();
        let r = rel(4, &c4);
        assert!(schaefer::is_affine(&r));
        let sys = defining_affine(&r);
        assert_eq!(system_models(&sys, 4), r);
        // Affine basis size ≤ min(k+1, |R|) (fundamental theorem, as the
        // paper notes).
        assert!(sys.equations.len() <= 5);
    }

    #[test]
    fn affine_empty_relation_yields_inconsistency() {
        let r = rel(3, &[]);
        let sys = defining_affine(&r);
        assert!(sys.solve().is_none());
        assert_eq!(system_models(&sys, 3).len(), 0);
    }

    #[test]
    fn affine_full_relation_yields_no_constraints() {
        let all: Vec<u64> = (0..8).collect();
        let r = rel(3, &all);
        let sys = defining_affine(&r);
        assert_eq!(system_models(&sys, 3), r);
    }

    #[test]
    fn affine_roundtrip_random_closed() {
        for seed in 0..30u64 {
            let mut x = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
            let mut tuples: Vec<u64> = (0..2)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 0b1111
                })
                .collect();
            loop {
                let mut added = false;
                let snapshot = tuples.clone();
                for &a in &snapshot {
                    for &b in &snapshot {
                        for &c in &snapshot {
                            if !tuples.contains(&(a ^ b ^ c)) {
                                tuples.push(a ^ b ^ c);
                                added = true;
                            }
                        }
                    }
                }
                if !added {
                    break;
                }
            }
            let r = rel(4, &tuples);
            let sys = defining_affine(&r);
            assert_eq!(system_models(&sys, 4), r, "seed {seed}");
        }
    }

    #[test]
    fn horn_roundtrip_examples() {
        // Implication x→y: {00, 10, 11} with y = bit 1.
        let imp = rel(2, &[0b00, 0b10, 0b11]);
        let f = defining_horn(&imp).unwrap();
        assert!(f.is_horn());
        assert_eq!(f.models_as_relation(), imp);

        // The tricky case from the design discussion: R = {110, 101,
        // 100} as position-sets {1,2},{1,3},{1} → masks with LSB-first.
        let r = rel(3, &[0b011, 0b101, 0b001]);
        assert!(schaefer::is_horn(&r));
        let f = defining_horn(&r).unwrap();
        assert!(f.is_horn());
        assert_eq!(f.models_as_relation(), r);
    }

    #[test]
    fn horn_roundtrip_random_closed() {
        for seed in 0..40u64 {
            let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
            let mut tuples: Vec<u64> = (0..4)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 0b11111
                })
                .collect();
            loop {
                let mut added = false;
                let snapshot = tuples.clone();
                for &a in &snapshot {
                    for &b in &snapshot {
                        if !tuples.contains(&(a & b)) {
                            tuples.push(a & b);
                            added = true;
                        }
                    }
                }
                if !added {
                    break;
                }
            }
            let r = rel(5, &tuples);
            let f = defining_horn(&r).unwrap();
            assert!(f.is_horn());
            assert_eq!(f.models_as_relation(), r, "seed {seed}");
        }
    }

    #[test]
    fn dual_horn_roundtrip() {
        for seed in 0..40u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut tuples: Vec<u64> = (0..4)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 0b1111
                })
                .collect();
            loop {
                let mut added = false;
                let snapshot = tuples.clone();
                for &a in &snapshot {
                    for &b in &snapshot {
                        if !tuples.contains(&(a | b)) {
                            tuples.push(a | b);
                            added = true;
                        }
                    }
                }
                if !added {
                    break;
                }
            }
            let r = rel(4, &tuples);
            let f = defining_dual_horn(&r).unwrap();
            assert!(f.is_dual_horn());
            assert_eq!(f.models_as_relation(), r, "seed {seed}");
        }
    }

    #[test]
    fn horn_rejects_non_horn() {
        let xor = rel(2, &[0b01, 0b10]);
        assert!(matches!(
            defining_horn(&xor).unwrap_err(),
            Error::WrongFormulaShape("Horn")
        ));
        assert!(matches!(
            defining_dual_horn(&xor).unwrap_err(),
            Error::WrongFormulaShape("dual Horn")
        ));
    }

    #[test]
    fn horn_empty_relation() {
        let r = rel(2, &[]);
        let f = defining_horn(&r).unwrap();
        assert_eq!(f.models_as_relation(), r);
    }

    #[test]
    fn horn_full_relation_is_empty_formula() {
        let all: Vec<u64> = (0..4).collect();
        let r = rel(2, &all);
        let f = defining_horn(&r).unwrap();
        assert!(f.clauses.is_empty(), "no non-models → no clauses");
    }

    #[test]
    fn subsumption_keeps_formula_small() {
        // "≤ 1 one" on 4 positions: negative clauses over pairs suffice;
        // pruning must eliminate clauses with larger premises.
        let tuples: Vec<u64> = vec![0b0000, 0b0001, 0b0010, 0b0100, 0b1000];
        let r = rel(4, &tuples);
        let f = defining_horn(&r).unwrap();
        assert_eq!(f.models_as_relation(), r);
        assert!(
            f.clauses.iter().all(|c| c.literals.len() <= 2),
            "pair clauses subsume the rest: {f}"
        );
        assert_eq!(f.clauses.len(), 6, "C(4,2) pair exclusions");
    }
}
