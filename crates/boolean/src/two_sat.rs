//! Linear-time 2-SAT via strongly connected components.
//!
//! The paper's Theorem 3.3 dispatches bijunctive instances to a
//! linear-time 2-SAT decision \[LP97\]. We implement the
//! Aspvall–Plass–Tarjan method: build the implication graph (each clause
//! `l₁ ∨ l₂` contributes `¬l₁ → l₂` and `¬l₂ → l₁`), compute SCCs with
//! an iterative Tarjan, and read a model off the reverse topological
//! order. (Theorem 3.4's *direct* bijunctive algorithm in
//! [`crate::direct`] instead emulates the phase-propagation algorithm
//! the paper describes; the two are cross-checked in tests.)

use crate::cnf::CnfFormula;
use crate::error::{Error, Result};

/// Node index of a literal: `2v` for `p_v`, `2v+1` for `¬p_v`.
#[inline]
fn node(var: u32, positive: bool) -> usize {
    (var as usize) * 2 + usize::from(!positive)
}

/// Solves a 2-CNF formula. Returns a model or `None` if unsatisfiable.
/// Errors if some clause has more than two literals.
pub fn solve_2sat(f: &CnfFormula) -> Result<Option<Vec<bool>>> {
    if !f.is_2cnf() {
        return Err(Error::WrongFormulaShape("2-CNF"));
    }
    let n = f.num_vars;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
    for clause in &f.clauses {
        match clause.literals.as_slice() {
            [] => return Ok(None),
            [l] => {
                // (l) ≡ (¬l → l).
                adj[node(l.var, !l.positive)].push(node(l.var, l.positive) as u32);
            }
            [l1, l2] => {
                adj[node(l1.var, !l1.positive)].push(node(l2.var, l2.positive) as u32);
                adj[node(l2.var, !l2.positive)].push(node(l1.var, l1.positive) as u32);
            }
            _ => unreachable!("is_2cnf checked"),
        }
    }
    let comp = tarjan_scc(&adj);
    let mut model = vec![false; n];
    for v in 0..n {
        let cp = comp[node(v as u32, true)];
        let cn = comp[node(v as u32, false)];
        if cp == cn {
            return Ok(None);
        }
        // Tarjan assigns component ids in reverse topological order:
        // a lower id means later in topological order. Set v true iff
        // p_v's component comes after ¬p_v's.
        model[v] = cp < cn;
    }
    debug_assert!(f.eval(&model));
    Ok(Some(model))
}

/// Iterative Tarjan SCC; returns the component id of every node.
/// Component ids are in reverse topological order (sinks get id 0-ish
/// first).
fn tarjan_scc(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut comp = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // Explicit DFS stack: (node, edge cursor).
    let mut dfs: Vec<(u32, usize)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNSET {
            continue;
        }
        dfs.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor < adj[v as usize].len() {
                let w = adj[v as usize][*cursor];
                *cursor += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    dfs.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("root is on the stack");
                        on_stack[w as usize] = false;
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, CnfFormula, Literal};

    fn cl2(l1: (u32, bool), l2: (u32, bool)) -> Clause {
        Clause::new(vec![
            Literal {
                var: l1.0,
                positive: l1.1,
            },
            Literal {
                var: l2.0,
                positive: l2.1,
            },
        ])
    }

    #[test]
    fn satisfiable_chain() {
        // (p0 ∨ p1) ∧ (¬p0 ∨ p1): p1 must be true.
        let f = CnfFormula::new(
            2,
            vec![cl2((0, true), (1, true)), cl2((0, false), (1, true))],
        );
        let m = solve_2sat(&f).unwrap().unwrap();
        assert!(f.eval(&m));
        assert!(m[1]);
    }

    #[test]
    fn unsatisfiable_square() {
        // (p0∨p1)(p0∨¬p1)(¬p0∨p1)(¬p0∨¬p1) is UNSAT.
        let f = CnfFormula::new(
            2,
            vec![
                cl2((0, true), (1, true)),
                cl2((0, true), (1, false)),
                cl2((0, false), (1, true)),
                cl2((0, false), (1, false)),
            ],
        );
        assert_eq!(solve_2sat(&f).unwrap(), None);
    }

    #[test]
    fn unit_clauses() {
        let f = CnfFormula::new(
            2,
            vec![
                Clause::new(vec![Literal::pos(0)]),
                cl2((0, false), (1, false)),
            ],
        );
        let m = solve_2sat(&f).unwrap().unwrap();
        assert_eq!(m, vec![true, false]);
    }

    #[test]
    fn contradictory_units() {
        let f = CnfFormula::new(
            1,
            vec![
                Clause::new(vec![Literal::pos(0)]),
                Clause::new(vec![Literal::neg(0)]),
            ],
        );
        assert_eq!(solve_2sat(&f).unwrap(), None);
    }

    #[test]
    fn empty_clause_unsat() {
        let f = CnfFormula::new(1, vec![Clause::default()]);
        assert_eq!(solve_2sat(&f).unwrap(), None);
    }

    #[test]
    fn rejects_wide_clauses() {
        let f = CnfFormula::new(
            3,
            vec![Clause::new(vec![
                Literal::pos(0),
                Literal::pos(1),
                Literal::pos(2),
            ])],
        );
        assert!(matches!(
            solve_2sat(&f).unwrap_err(),
            Error::WrongFormulaShape("2-CNF")
        ));
    }

    #[test]
    fn agrees_with_exhaustive_search() {
        let mut x = 0xDEADBEEFu64;
        for round in 0..80 {
            let nv = 5usize;
            let mut clauses = Vec::new();
            for _ in 0..7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v1 = ((x >> 3) % 5) as u32;
                let v2 = ((x >> 17) % 5) as u32;
                clauses.push(cl2((v1, x & 1 != 0), (v2, x & 2 != 0)));
            }
            let f = CnfFormula::new(nv, clauses);
            let brute_sat = !f.models().is_empty();
            match solve_2sat(&f).unwrap() {
                Some(m) => {
                    assert!(f.eval(&m), "round {round}: returned non-model");
                    assert!(brute_sat);
                }
                None => assert!(!brute_sat, "round {round}: solver missed a model"),
            }
        }
    }
}
