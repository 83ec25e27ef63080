//! Linear algebra over GF(2).
//!
//! Affine relations are solution sets of linear systems over the
//! two-element field (paper §3, footnote 4). Theorem 3.2 constructs the
//! defining equations of an affine relation as a basis of the nullspace
//! of its tuple matrix; Theorem 3.3's affine route solves the
//! instantiated system by Gaussian elimination. [`LinearSystem`] keeps
//! rows as [`BitSet`]s and is the formula route's solver and the parity
//! oracle; [`RowBasis`] is the serving kernel, inserting word-packed
//! rows into a reduced basis on buffers that outlive one system. Both
//! support any number of variables (the elements of the left
//! structure).

use cqcs_structures::BitSet;

/// One linear equation: `Σ_{i ∈ vars} x_i = rhs` over GF(2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equation {
    /// The variables with coefficient 1.
    pub vars: BitSet,
    /// The right-hand side.
    pub rhs: bool,
}

impl Equation {
    /// Evaluates the equation under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let parity = self.vars.iter().fold(false, |acc, v| acc ^ assignment[v]);
        parity == self.rhs
    }

    fn xor_with(&mut self, other: &Equation) {
        // GF(2) addition of rows: symmetric difference of supports.
        let mut sym = other.vars.clone();
        let mut both = self.vars.clone();
        both.intersect_with(&other.vars);
        sym.difference_with(&both);
        self.vars.difference_with(&both);
        self.vars.union_with(&sym);
        self.rhs ^= other.rhs;
    }
}

/// A system of linear equations over GF(2) in `num_vars` variables.
#[derive(Debug, Clone, Default)]
pub struct LinearSystem {
    /// Number of variables.
    pub num_vars: usize,
    /// The equations (conjunction).
    pub equations: Vec<Equation>,
}

impl LinearSystem {
    /// Creates an empty (trivially satisfiable) system.
    pub fn new(num_vars: usize) -> Self {
        LinearSystem {
            num_vars,
            equations: Vec::new(),
        }
    }

    /// Adds the equation `Σ_{i ∈ vars} x_i = rhs`.
    pub fn add_equation(&mut self, vars: impl IntoIterator<Item = usize>, rhs: bool) {
        let mut set = BitSet::new(self.num_vars);
        for v in vars {
            assert!(v < self.num_vars, "variable out of range");
            set.insert(v);
        }
        self.equations.push(Equation { vars: set, rhs });
    }

    /// Evaluates the whole system under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars);
        self.equations.iter().all(|e| e.eval(assignment))
    }

    /// Solves by Gaussian elimination. Returns one solution (free
    /// variables set to `false`) or `None` if inconsistent.
    pub fn solve(&self) -> Option<Vec<bool>> {
        let mut rows: Vec<Equation> = self.equations.clone();
        let mut pivot_of_row: Vec<usize> = Vec::new();
        let mut used = 0usize;
        for col in 0..self.num_vars {
            // Find a row at or below `used` with a leading 1 in `col`.
            let Some(r) = (used..rows.len()).find(|&r| rows[r].vars.contains(col)) else {
                continue;
            };
            rows.swap(used, r);
            let pivot_row = rows[used].clone();
            for (i, row) in rows.iter_mut().enumerate() {
                if i != used && row.vars.contains(col) {
                    row.xor_with(&pivot_row);
                }
            }
            pivot_of_row.push(col);
            used += 1;
        }
        // Inconsistency: 0 = 1 rows.
        if rows[used..]
            .iter()
            .any(|row| row.vars.is_empty() && row.rhs)
        {
            return None;
        }
        let mut solution = vec![false; self.num_vars];
        for (r, &col) in pivot_of_row.iter().enumerate() {
            // After full elimination each pivot row reads
            // x_col + Σ free = rhs; with free vars = 0, x_col = rhs.
            solution[col] = rows[r].rhs;
        }
        Some(solution)
    }

    /// Number of solutions as `2^(num_vars − rank)`, or 0 if
    /// inconsistent. Returns `None` on overflow.
    pub fn count_solutions(&self) -> Option<u128> {
        let mut rows = self.equations.clone();
        let mut used = 0usize;
        for col in 0..self.num_vars {
            let Some(r) = (used..rows.len()).find(|&r| rows[r].vars.contains(col)) else {
                continue;
            };
            rows.swap(used, r);
            let pivot_row = rows[used].clone();
            for (i, row) in rows.iter_mut().enumerate() {
                if i != used && row.vars.contains(col) {
                    row.xor_with(&pivot_row);
                }
            }
            used += 1;
        }
        if rows[used..]
            .iter()
            .any(|row| row.vars.is_empty() && row.rhs)
        {
            return Some(0);
        }
        let free = self.num_vars - used;
        if free >= 128 {
            return None;
        }
        Some(1u128 << free)
    }
}

/// A GF(2) system kept as a fully reduced basis of word-packed rows —
/// the affine route's per-instance kernel, with buffers that outlive one
/// system.
///
/// Rows are built one at a time with [`toggle`](RowBasis::toggle) and
/// committed with [`insert`](RowBasis::insert). Each basis row's pivot
/// is its lowest set bit, and no row has a 1 in another row's pivot
/// column, so after every insertion the basis is the reduced row echelon
/// form of the rows inserted so far. That form is unique, so
/// [`solution`](RowBasis::solution) (free variables 0) equals
/// [`LinearSystem::solve`]'s answer on the same rows in any order.
#[derive(Debug, Clone, Default)]
pub struct RowBasis {
    /// Number of variables.
    vars: usize,
    /// `u64` words per row.
    words: usize,
    /// The basis rows, `words` words each.
    rows: Vec<u64>,
    /// Pivot column per basis row.
    pivots: Vec<usize>,
    /// Right-hand side per basis row.
    rhs: Vec<bool>,
    /// The row being built (all zero between insertions).
    pending: Vec<u64>,
}

impl RowBasis {
    /// Empties the basis and re-dimensions it to `num_vars` variables,
    /// keeping the allocations.
    pub fn reset(&mut self, num_vars: usize) {
        self.vars = num_vars;
        self.words = num_vars.div_ceil(64);
        self.rows.clear();
        self.pivots.clear();
        self.rhs.clear();
        self.pending.clear();
        self.pending.resize(self.words, 0);
    }

    /// Flips variable `v`'s coefficient in the row being built, so a
    /// variable toggled twice cancels.
    #[inline]
    pub fn toggle(&mut self, v: usize) {
        self.pending[v / 64] ^= 1 << (v % 64);
    }

    /// Adds the row being built, with right-hand side `rhs`, to the
    /// system and starts the next row empty. Returns `false` when the
    /// row reduces to `0 = 1`, i.e. the system is now inconsistent.
    pub fn insert(&mut self, mut rhs: bool) -> bool {
        let w = self.words;
        for (j, &p) in self.pivots.iter().enumerate() {
            let from = p / 64;
            if self.pending[from] >> (p % 64) & 1 == 1 {
                let row = &self.rows[j * w + from..(j + 1) * w];
                for (x, y) in self.pending[from..].iter_mut().zip(row) {
                    *x ^= y;
                }
                rhs ^= self.rhs[j];
            }
        }
        let Some(first) = self.pending.iter().position(|&x| x != 0) else {
            return !rhs;
        };
        let p = first * 64 + self.pending[first].trailing_zeros() as usize;
        for (j, row) in self.rows.chunks_exact_mut(w).enumerate() {
            if row[p / 64] >> (p % 64) & 1 == 1 {
                for (x, y) in row[first..].iter_mut().zip(&self.pending[first..]) {
                    *x ^= y;
                }
                self.rhs[j] ^= rhs;
            }
        }
        self.rows.extend_from_slice(&self.pending);
        self.pivots.push(p);
        self.rhs.push(rhs);
        self.pending.fill(0);
        true
    }

    /// Writes the solution with every free variable 0 into `out`, one
    /// value per variable. Meaningful only while every
    /// [`insert`](RowBasis::insert) has returned `true`.
    pub fn solution(&self, out: &mut Vec<bool>) {
        out.clear();
        out.resize(self.vars, false);
        for (&p, &rhs) in self.pivots.iter().zip(&self.rhs) {
            out[p] = rhs;
        }
    }
}

/// Computes a basis of the nullspace `{x : M·x = 0}` of a matrix given
/// by its rows (each row a [`BitSet`] of width `num_cols`).
///
/// This is the core of Theorem 3.2's affine formula construction: the
/// rows are the (extended) tuples of the relation, and each basis vector
/// is one linear equation every tuple satisfies.
pub fn nullspace_basis(rows: &[BitSet], num_cols: usize) -> Vec<BitSet> {
    // Row-reduce a copy of the matrix.
    let mut mat: Vec<BitSet> = rows.to_vec();
    let mut pivots: Vec<usize> = Vec::new();
    let mut used = 0usize;
    for col in 0..num_cols {
        let Some(r) = (used..mat.len()).find(|&r| mat[r].contains(col)) else {
            continue;
        };
        mat.swap(used, r);
        let pivot_row = mat[used].clone();
        for (i, row) in mat.iter_mut().enumerate() {
            if i != used && row.contains(col) {
                // XOR rows.
                let mut sym = pivot_row.clone();
                let mut both = row.clone();
                both.intersect_with(&pivot_row);
                sym.difference_with(&both);
                row.difference_with(&both);
                row.union_with(&sym);
            }
        }
        pivots.push(col);
        used += 1;
    }
    // One basis vector per free column.
    let pivot_set: BitSet = {
        let mut s = BitSet::new(num_cols);
        for &p in &pivots {
            s.insert(p);
        }
        s
    };
    let mut basis = Vec::new();
    for free in 0..num_cols {
        if pivot_set.contains(free) {
            continue;
        }
        let mut v = BitSet::new(num_cols);
        v.insert(free);
        // x_pivot = coefficient of `free` in that pivot's reduced row.
        for (r, &p) in pivots.iter().enumerate() {
            if mat[r].contains(free) {
                v.insert(p);
            }
        }
        basis.push(v);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(vals: &[usize], width: usize) -> BitSet {
        let mut s = BitSet::new(width);
        for &v in vals {
            s.insert(v);
        }
        s
    }

    #[test]
    fn solve_simple_system() {
        // x0 ⊕ x1 = 1, x1 = 1 → x0 = 0, x1 = 1.
        let mut sys = LinearSystem::new(2);
        sys.add_equation([0, 1], true);
        sys.add_equation([1], true);
        let sol = sys.solve().unwrap();
        assert_eq!(sol, vec![false, true]);
        assert!(sys.eval(&sol));
    }

    #[test]
    fn inconsistent_system() {
        // x0 = 0 and x0 = 1.
        let mut sys = LinearSystem::new(1);
        sys.add_equation([0], false);
        sys.add_equation([0], true);
        assert!(sys.solve().is_none());
        assert_eq!(sys.count_solutions(), Some(0));
    }

    #[test]
    fn zero_equals_one_is_inconsistent() {
        let mut sys = LinearSystem::new(3);
        sys.add_equation([], true);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn underdetermined_system() {
        // x0 ⊕ x1 ⊕ x2 = 1 over 3 vars: 4 solutions.
        let mut sys = LinearSystem::new(3);
        sys.add_equation([0, 1, 2], true);
        assert_eq!(sys.count_solutions(), Some(4));
        let sol = sys.solve().unwrap();
        assert!(sys.eval(&sol));
    }

    #[test]
    fn solutions_verified_exhaustively() {
        // Random-ish 4-var system; check solve() result satisfies and
        // count matches exhaustive enumeration.
        let mut sys = LinearSystem::new(4);
        sys.add_equation([0, 2], true);
        sys.add_equation([1, 2, 3], false);
        sys.add_equation([0, 1], true);
        let mut count = 0u128;
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            if sys.eval(&a) {
                count += 1;
            }
        }
        assert_eq!(sys.count_solutions(), Some(count));
        let sol = sys.solve().unwrap();
        assert!(sys.eval(&sol));
    }

    #[test]
    fn nullspace_of_identity_is_empty() {
        let rows = vec![bits(&[0], 2), bits(&[1], 2)];
        assert!(nullspace_basis(&rows, 2).is_empty());
    }

    #[test]
    fn nullspace_of_zero_matrix_is_full() {
        let rows: Vec<BitSet> = vec![];
        let basis = nullspace_basis(&rows, 3);
        assert_eq!(basis.len(), 3);
    }

    #[test]
    fn nullspace_vectors_annihilate_rows() {
        let rows = vec![bits(&[0, 1, 2], 4), bits(&[1, 3], 4), bits(&[0, 2, 3], 4)];
        let basis = nullspace_basis(&rows, 4);
        for v in &basis {
            for row in &rows {
                let mut inter = v.clone();
                inter.intersect_with(row);
                assert_eq!(inter.len() % 2, 0, "v·row must be 0 over GF(2)");
            }
        }
        // r3 = r1 ⊕ r2, so rank 2 and nullity 4 − 2 = 2.
        assert_eq!(basis.len(), 2);
    }

    #[test]
    fn nullspace_dimension_theorem() {
        // Dependent rows: r3 = r1 ⊕ r2 → rank 2, nullity = 4 − 2 = 2.
        let r1 = bits(&[0, 1], 4);
        let r2 = bits(&[1, 2], 4);
        let r3 = bits(&[0, 2], 4);
        let basis = nullspace_basis(&[r1, r2, r3], 4);
        assert_eq!(basis.len(), 2);
    }
}
