//! Lemma 5.2 made executable: treewidth-k structures as ∃FO^{k+1}
//! queries.
//!
//! The canonical (Boolean) query `Q^A` of a structure `A` of treewidth
//! `k` can be written with at most `k+1` distinct variables: walking a
//! rooted tree decomposition, each bag's elements occupy *variable
//! slots*; elements shared with the parent keep their slots, elements
//! leaving scope free theirs for reuse — exactly the paper's
//! parse-tree/glueing argument. Evaluating the resulting formula
//! bottom-up with relations over at most `k+1` columns is polynomial in
//! combined complexity \[Var95\], which is the alternative proof of
//! Theorem 5.4 this module demonstrates (and tests cross-check against
//! [`crate::dp`]).

use crate::decomposition::{DecompositionError, TreeDecomposition};
use cqcs_structures::{Element, RelId, Structure};
use std::collections::{HashMap, HashSet};

/// An existential-positive first-order formula over variable slots.
#[derive(Debug, Clone)]
pub enum FoFormula {
    /// `R(x_{s₁}, …, x_{s_r})`.
    Atom {
        /// The relation symbol.
        rel: RelId,
        /// Variable slot per argument position.
        slots: Vec<u8>,
    },
    /// Conjunction.
    And(Vec<FoFormula>),
    /// `∃ x_slot . body`.
    Exists {
        /// The quantified slot.
        slot: u8,
        /// The body.
        body: Box<FoFormula>,
    },
}

impl FoFormula {
    /// All slots occurring in the formula (bound or free).
    pub fn slots_used(&self) -> HashSet<u8> {
        let mut out = HashSet::new();
        self.collect_slots(&mut out);
        out
    }

    fn collect_slots(&self, out: &mut HashSet<u8>) {
        match self {
            FoFormula::Atom { slots, .. } => out.extend(slots.iter().copied()),
            FoFormula::And(parts) => parts.iter().for_each(|p| p.collect_slots(out)),
            FoFormula::Exists { slot, body } => {
                out.insert(*slot);
                body.collect_slots(out);
            }
        }
    }

    /// Free slots (not bound by an enclosing ∃).
    pub fn free_slots(&self) -> HashSet<u8> {
        match self {
            FoFormula::Atom { slots, .. } => slots.iter().copied().collect(),
            FoFormula::And(parts) => parts.iter().flat_map(|p| p.free_slots()).collect(),
            FoFormula::Exists { slot, body } => {
                let mut f = body.free_slots();
                f.remove(slot);
                f
            }
        }
    }
}

/// A Boolean ∃FO^k query: a sentence plus its slot budget.
#[derive(Debug, Clone)]
pub struct FoQuery {
    /// The sentence (no free slots).
    pub formula: FoFormula,
    /// Number of distinct variable slots used (≤ width+1 for
    /// decompositions of width `width`).
    pub num_slots: usize,
}

/// Translates a structure with a rooted tree decomposition into an
/// ∃FO^{width+1} sentence equivalent to its canonical Boolean query.
pub fn structure_to_fo(
    a: &Structure,
    td: &TreeDecomposition,
) -> Result<FoQuery, DecompositionError> {
    td.validate(a)?;
    if a.universe() == 0 || td.is_empty() {
        return Ok(FoQuery {
            formula: FoFormula::And(Vec::new()),
            num_slots: 0,
        });
    }
    let nodes = td.len();
    let adj = td.adjacency();
    let num_slots = td.bags.iter().map(|b| b.len()).max().unwrap_or(0);

    // Assign each tuple to one covering bag.
    let mut tuples_of: Vec<Vec<(RelId, u32)>> = vec![Vec::new(); nodes];
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            continue;
        }
        for (ti, tuple) in a.relation(r).iter().enumerate() {
            let holder = (0..nodes)
                .find(|&i| tuple.iter().all(|e| td.bags[i].contains(e.index())))
                .expect("validated");
            tuples_of[holder].push((r, ti as u32));
        }
    }

    let mut slot_of: HashMap<u32, u8> = HashMap::new();
    let formula = build(
        a,
        td,
        &adj,
        &tuples_of,
        0,
        usize::MAX,
        &mut slot_of,
        num_slots,
    );
    Ok(FoQuery { formula, num_slots })
}

/// Recursive translation: `slot_of` maps in-scope elements to slots.
#[allow(clippy::too_many_arguments)]
fn build(
    a: &Structure,
    td: &TreeDecomposition,
    adj: &[Vec<usize>],
    tuples_of: &[Vec<(RelId, u32)>],
    node: usize,
    parent: usize,
    slot_of: &mut HashMap<u32, u8>,
    num_slots: usize,
) -> FoFormula {
    // Elements entering scope at this bag get free slots.
    let bag: Vec<u32> = td.bags[node].iter().map(|e| e as u32).collect();
    let fresh: Vec<u32> = bag
        .iter()
        .copied()
        .filter(|e| !slot_of.contains_key(e))
        .collect();
    let in_use: HashSet<u8> = slot_of.values().copied().collect();
    let mut pool: Vec<u8> = (0..num_slots as u8)
        .filter(|s| !in_use.contains(s))
        .collect();
    let mut introduced: Vec<(u32, u8)> = Vec::new();
    for &e in &fresh {
        let slot = pool
            .pop()
            .expect("bag size ≤ num_slots guarantees a free slot");
        slot_of.insert(e, slot);
        introduced.push((e, slot));
    }

    let mut parts: Vec<FoFormula> = Vec::new();
    for &(r, ti) in &tuples_of[node] {
        let slots: Vec<u8> = a
            .relation(r)
            .tuple(ti as usize)
            .iter()
            .map(|e| slot_of[&e.0])
            .collect();
        parts.push(FoFormula::Atom { rel: r, slots });
    }
    for &child in &adj[node] {
        if child == parent {
            continue;
        }
        // Elements leaving scope (not in the child bag) free their
        // slots for the subtree; restore after.
        let child_bag = &td.bags[child];
        let leaving: Vec<(u32, u8)> = slot_of
            .iter()
            .filter(|(e, _)| !child_bag.contains(**e as usize))
            .map(|(&e, &s)| (e, s))
            .collect();
        for &(e, _) in &leaving {
            slot_of.remove(&e);
        }
        parts.push(build(
            a, td, adj, tuples_of, child, node, slot_of, num_slots,
        ));
        for &(e, s) in &leaving {
            slot_of.insert(e, s);
        }
    }

    let mut formula = FoFormula::And(parts);
    // Quantify the elements introduced here (innermost-first order is
    // irrelevant for ∃).
    for &(e, slot) in introduced.iter().rev() {
        slot_of.remove(&e);
        formula = FoFormula::Exists {
            slot,
            body: Box::new(formula),
        };
    }
    formula
}

/// A relation over named slots: the bottom-up evaluation state.
#[derive(Debug, Clone)]
struct SlotRelation {
    slots: Vec<u8>,
    rows: HashSet<Vec<Element>>,
}

/// Evaluates a Boolean ∃FO^k sentence over `b` in polynomial time by
/// bottom-up relational algebra (at most `num_slots` columns per
/// intermediate relation).
pub fn evaluate(q: &FoQuery, b: &Structure) -> bool {
    // 0-ary conjuncts never appear (atoms come from tuples of arity
    // ≥ 1); an empty And is true.
    let rel = eval(&q.formula, b);
    !rel.rows.is_empty()
}

fn eval(f: &FoFormula, b: &Structure) -> SlotRelation {
    match f {
        FoFormula::Atom { rel, slots } => {
            let mut out_slots: Vec<u8> = slots.clone();
            out_slots.sort_unstable();
            out_slots.dedup();
            let mut rows = HashSet::new();
            'tuple: for w in b.relation(*rel).iter() {
                // Repeated slots must agree.
                let mut bound: HashMap<u8, Element> = HashMap::new();
                for (pos, &s) in slots.iter().enumerate() {
                    match bound.get(&s) {
                        Some(&v) if v != w[pos] => continue 'tuple,
                        Some(_) => {}
                        None => {
                            bound.insert(s, w[pos]);
                        }
                    }
                }
                rows.insert(out_slots.iter().map(|s| bound[s]).collect());
            }
            SlotRelation {
                slots: out_slots,
                rows,
            }
        }
        FoFormula::And(parts) => {
            let mut acc = SlotRelation {
                slots: Vec::new(),
                rows: std::iter::once(Vec::new()).collect(),
            };
            for p in parts {
                acc = join(acc, eval(p, b));
                if acc.rows.is_empty() {
                    break;
                }
            }
            acc
        }
        FoFormula::Exists { slot, body } => {
            let inner = eval(body, b);
            match inner.slots.iter().position(|s| s == slot) {
                None => inner, // vacuous quantification
                Some(idx) => {
                    let slots: Vec<u8> =
                        inner.slots.iter().copied().filter(|s| s != slot).collect();
                    let rows = inner
                        .rows
                        .into_iter()
                        .map(|mut row| {
                            row.remove(idx);
                            row
                        })
                        .collect();
                    SlotRelation { slots, rows }
                }
            }
        }
    }
}

/// Natural join on shared slots.
fn join(r1: SlotRelation, r2: SlotRelation) -> SlotRelation {
    let shared: Vec<u8> = r1
        .slots
        .iter()
        .copied()
        .filter(|s| r2.slots.contains(s))
        .collect();
    let r2_only: Vec<usize> = (0..r2.slots.len())
        .filter(|&i| !r1.slots.contains(&r2.slots[i]))
        .collect();
    let out_slots: Vec<u8> = r1
        .slots
        .iter()
        .copied()
        .chain(r2_only.iter().map(|&i| r2.slots[i]))
        .collect();
    // Index r2 by its shared-slot projection.
    let shared_pos_r2: Vec<usize> = shared
        .iter()
        .map(|s| r2.slots.iter().position(|x| x == s).expect("shared"))
        .collect();
    let mut index: HashMap<Vec<Element>, Vec<&Vec<Element>>> = HashMap::new();
    for row in &r2.rows {
        let key: Vec<Element> = shared_pos_r2.iter().map(|&i| row[i]).collect();
        index.entry(key).or_default().push(row);
    }
    let shared_pos_r1: Vec<usize> = shared
        .iter()
        .map(|s| r1.slots.iter().position(|x| x == s).expect("shared"))
        .collect();
    let mut rows = HashSet::new();
    for row1 in &r1.rows {
        let key: Vec<Element> = shared_pos_r1.iter().map(|&i| row1[i]).collect();
        if let Some(matches) = index.get(&key) {
            for row2 in matches {
                let mut out = row1.clone();
                out.extend(r2_only.iter().map(|&i| row2[i]));
                rows.insert(out);
            }
        }
    }
    SlotRelation {
        slots: out_slots,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::min_fill_decomposition;
    use cqcs_structures::homomorphism::homomorphism_exists;
    use cqcs_structures::{gaifman_graph, generators};

    fn fo_of(a: &Structure) -> FoQuery {
        let g = gaifman_graph(a);
        let mut td = min_fill_decomposition(&g);
        if td.is_empty() && a.universe() > 0 {
            td = TreeDecomposition::trivial(a.universe());
        }
        structure_to_fo(a, &td).unwrap()
    }

    #[test]
    fn slot_budget_is_width_plus_one() {
        // Lemma 5.2: a treewidth-k structure yields a (k+1)-variable
        // formula.
        let p = generators::directed_path(7); // treewidth 1
        let q = fo_of(&p);
        assert_eq!(q.num_slots, 2);
        assert!(q.formula.slots_used().len() <= 2);

        let c = generators::undirected_cycle(8); // treewidth 2
        let q = fo_of(&c);
        assert_eq!(q.num_slots, 3);
        assert!(q.formula.slots_used().len() <= 3);
    }

    #[test]
    fn sentences_have_no_free_slots() {
        let q = fo_of(&generators::undirected_cycle(5));
        assert!(q.formula.free_slots().is_empty());
    }

    #[test]
    fn evaluation_matches_hom_existence() {
        let k2 = generators::complete_graph(2);
        let k3 = generators::complete_graph(3);
        for n in [4, 5, 6, 7] {
            let c = generators::undirected_cycle(n);
            let q = fo_of(&c);
            assert_eq!(evaluate(&q, &k2), n % 2 == 0, "C{n} vs K2");
            assert!(evaluate(&q, &k3), "C{n} vs K3");
        }
    }

    #[test]
    fn evaluation_matches_reference_on_partial_ktrees() {
        for seed in 0..10u64 {
            let a = generators::partial_ktree(8, 2, 0.75, seed);
            let b = generators::random_digraph(4, 0.45, seed + 777);
            let q = fo_of(&a);
            assert_eq!(evaluate(&q, &b), homomorphism_exists(&a, &b), "seed {seed}");
            assert!(q.num_slots <= 3);
        }
    }

    #[test]
    fn wide_relations_respected() {
        let a = generators::random_structure(5, &[3], 4, 3);
        let b = generators::random_structure_over(a.vocabulary(), 3, 8, 4);
        let q = fo_of(&a);
        assert_eq!(evaluate(&q, &b), homomorphism_exists(&a, &b));
    }

    #[test]
    fn empty_structure_sentence_is_true() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let td = TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
        let q = structure_to_fo(&empty, &td).unwrap();
        assert!(evaluate(&q, &generators::complete_graph(2)));
    }

    #[test]
    fn path_query_counts_paths() {
        // Evaluating P3's formula against a digraph = "is there a
        // directed walk of length 2" — check against tournaments.
        let p3 = generators::directed_path(3);
        let q = fo_of(&p3);
        assert!(evaluate(&q, &generators::transitive_tournament(3)));
        assert!(!evaluate(&q, &generators::transitive_tournament(2)));
    }
}
