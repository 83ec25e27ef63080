//! Deterministic and random structure families.
//!
//! These are the workloads the paper's arguments range over: paths and
//! cliques (the non-uniformity examples of §2), cycles (2-colorability,
//! `CSP(C₄)` of §3.2), k-trees (the bounded-treewidth inputs of §5), and
//! random structures for stress and property tests. All random
//! generators take an explicit seed so every experiment is reproducible.

use crate::structure::{Element, Structure, StructureBuilder};
use crate::vocabulary::{RelId, Vocabulary};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The one-symbol vocabulary `{E/2}` used by all (di)graph structures.
pub fn digraph_vocabulary() -> Arc<Vocabulary> {
    Vocabulary::from_symbols([("E", 2)])
        .expect("static vocabulary is valid")
        .into_shared()
}

fn graph_structure(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Structure {
    let voc = digraph_vocabulary();
    let e = voc.lookup("E").expect("E exists");
    let mut b = StructureBuilder::new(voc, n);
    for (x, y) in edges {
        b.add_tuple(e, &[Element(x), Element(y)])
            .expect("generated edge is in range");
    }
    b.finish()
}

/// The directed path `0 → 1 → ⋯ → n-1` on `n` vertices.
pub fn directed_path(n: usize) -> Structure {
    graph_structure(n, (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)))
}

/// The directed cycle `0 → 1 → ⋯ → n-1 → 0` (the paper's `C₄` for n=4).
pub fn directed_cycle(n: usize) -> Structure {
    assert!(n >= 1);
    graph_structure(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// The undirected path on `n` vertices (edges in both directions).
pub fn undirected_path(n: usize) -> Structure {
    graph_structure(
        n,
        (0..n.saturating_sub(1) as u32).flat_map(|i| [(i, i + 1), (i + 1, i)]),
    )
}

/// The undirected cycle on `n ≥ 3` vertices (edges in both directions).
pub fn undirected_cycle(n: usize) -> Structure {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    graph_structure(
        n,
        (0..n as u32).flat_map(move |i| {
            let j = (i + 1) % n as u32;
            [(i, j), (j, i)]
        }),
    )
}

/// The complete graph `K_k` as a symmetric loop-free binary relation.
/// `CSP(K_k)` is `k`-colorability (§1 of the paper).
pub fn complete_graph(k: usize) -> Structure {
    graph_structure(
        k,
        (0..k as u32)
            .flat_map(move |i| (0..k as u32).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j),
    )
}

/// The `rows × cols` grid graph (symmetric edges). Treewidth is
/// `min(rows, cols)`.
pub fn grid_graph(rows: usize, cols: usize) -> Structure {
    let idx = move |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
                edges.push((idx(r, c + 1), idx(r, c)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
                edges.push((idx(r + 1, c), idx(r, c)));
            }
        }
    }
    graph_structure(rows * cols, edges)
}

/// The Petersen graph (symmetric edges): outer 5-cycle `0..5`, inner
/// pentagram `5..10`, spokes `i — i+5`. A standard treewidth test case
/// (treewidth 4) that no greedy elimination order gets wrong by much.
pub fn petersen() -> Structure {
    let mut edges = Vec::new();
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5)); // outer cycle
        edges.push((i, i + 5)); // spoke
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
    }
    graph_structure(10, edges.into_iter().flat_map(|(u, v)| [(u, v), (v, u)]))
}

/// A random digraph on `n` vertices: each ordered pair `(i, j)`, `i ≠ j`,
/// is an edge independently with probability `p`.
pub fn random_digraph(n: usize, p: f64, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i != j && rng.gen_bool(p) {
                edges.push((i, j));
            }
        }
    }
    graph_structure(n, edges)
}

/// A random undirected graph with exactly `m` distinct edges (symmetric
/// representation).
pub fn random_graph_nm(n: usize, m: usize, seed: u64) -> Structure {
    let max_edges = n * n.saturating_sub(1) / 2;
    assert!(
        m <= max_edges,
        "requested {m} edges but only {max_edges} possible"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
        .collect();
    all.shuffle(&mut rng);
    graph_structure(
        n,
        all.into_iter().take(m).flat_map(|(i, j)| [(i, j), (j, i)]),
    )
}

/// Edge list of a random `k`-tree on `n ≥ k+1` vertices.
///
/// Built the standard way: start from `K_{k+1}`, then each new vertex is
/// attached to a random existing `k`-clique. Every `k`-tree has treewidth
/// exactly `k` (for `n > k`).
pub fn ktree_edges(n: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(n > k, "a k-tree needs at least k+1 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Seed clique K_{k+1} and the initial set of k-cliques.
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    for i in 0..=k {
        for j in (i + 1)..=k {
            edges.push((i, j));
        }
    }
    for omit in 0..=k {
        let clique: Vec<usize> = (0..=k).filter(|&v| v != omit).collect();
        cliques.push(clique);
    }
    for v in (k + 1)..n {
        let base = cliques[rng.gen_range(0..cliques.len())].clone();
        for &u in &base {
            edges.push((u, v));
        }
        // New k-cliques: v together with each (k-1)-subset of base.
        for omit in 0..base.len() {
            let mut clique: Vec<usize> = base
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i != omit)
                .map(|(_, u)| u)
                .collect();
            clique.push(v);
            cliques.push(clique);
        }
        if k == 0 {
            cliques.push(vec![v]);
        }
    }
    edges
}

/// A random *partial* `k`-tree (treewidth ≤ k) as a symmetric structure:
/// a random `k`-tree with each edge kept independently with probability
/// `keep`.
pub fn partial_ktree(n: usize, k: usize, keep: f64, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let edges = ktree_edges(n, k, seed);
    graph_structure(
        n,
        edges
            .into_iter()
            .filter(|_| rng.gen_bool(keep))
            .flat_map(|(u, v)| [(u as u32, v as u32), (v as u32, u as u32)]),
    )
}

/// A random structure over a fresh vocabulary `R0/a₀, …` with the given
/// arities: each relation receives `tuples_per_relation` uniformly random
/// tuples over a universe of size `n`.
pub fn random_structure(
    n: usize,
    arities: &[usize],
    tuples_per_relation: usize,
    seed: u64,
) -> Structure {
    let mut voc = Vocabulary::new();
    for (i, &a) in arities.iter().enumerate() {
        voc.add(&format!("R{i}"), a)
            .expect("fresh names cannot collide");
    }
    let voc = voc.into_shared();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StructureBuilder::new(Arc::clone(&voc), n);
    let mut buf = Vec::new();
    for r in voc.iter() {
        let arity = voc.arity(r);
        for _ in 0..tuples_per_relation {
            buf.clear();
            buf.extend((0..arity).map(|_| Element(rng.gen_range(0..n as u32))));
            b.add_tuple(r, &buf).expect("generated tuple is in range");
        }
    }
    b.finish()
}

/// A random structure over a *given* vocabulary (used when two structures
/// must share symbols).
pub fn random_structure_over(
    voc: &Arc<Vocabulary>,
    n: usize,
    tuples_per_relation: usize,
    seed: u64,
) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StructureBuilder::new(Arc::clone(voc), n);
    let mut buf = Vec::new();
    for r in voc.iter() {
        let arity = voc.arity(r);
        for _ in 0..tuples_per_relation {
            buf.clear();
            buf.extend((0..arity).map(|_| Element(rng.gen_range(0..n as u32))));
            b.add_tuple(r, &buf).expect("generated tuple is in range");
        }
    }
    b.finish()
}

/// The instance `(a, b)` with `b`'s values pinned apart: `B⁺` is `b`
/// plus one fresh unary relation `{v}` per value `v`, so no two values
/// of `B⁺` are interchangeable, and `A⁺` is `a` plus the same relations,
/// left empty. The homomorphisms `A⁺ → B⁺` are exactly those `A → B`,
/// and the fresh relations come last and hold no tuple of `A⁺`, so a
/// propagation engine revises the same tuples in the same order on both
/// instances. A search that exploits `B`'s interchangeable values is
/// checked against this twin, which has none.
///
/// # Panics
/// Panics if `a` and `b` are over different vocabularies.
pub fn pin_values(a: &Structure, b: &Structure) -> (Structure, Structure) {
    assert!(
        a.same_vocabulary(b),
        "pin_values across different vocabularies"
    );
    let base = b.vocabulary();
    // A prefix no symbol starts with, so every pin name is fresh.
    let mut prefix = String::from("pin");
    while base.symbols().any(|(_, name, _)| name.starts_with(&prefix)) {
        prefix.insert(0, '_');
    }
    let mut voc = Vocabulary::new();
    for (_, name, arity) in base.symbols() {
        voc.add(name, arity).expect("copied symbols are distinct");
    }
    let pins: Vec<RelId> = (0..b.universe())
        .map(|v| {
            voc.add(&format!("{prefix}{v}"), 1)
                .expect("pin names are fresh")
        })
        .collect();
    let voc = voc.into_shared();
    let copy = |s: &Structure| {
        let mut builder = StructureBuilder::new(Arc::clone(&voc), s.universe());
        for r in base.iter() {
            for t in s.relation(r).iter() {
                builder.add_tuple(r, t).expect("copied tuple is in range");
            }
        }
        builder
    };
    let mut b_plus = copy(b);
    for (v, &pin) in pins.iter().enumerate() {
        b_plus
            .add_tuple(pin, &[Element(v as u32)])
            .expect("value is in range");
    }
    (copy(a).finish(), b_plus.finish())
}

/// The transitive tournament on `n` vertices: edges `i → j` for `i < j`.
/// Homomorphisms from a directed path `P_m` into it exist iff `m ≤ n`.
pub fn transitive_tournament(n: usize) -> Structure {
    graph_structure(
        n,
        (0..n as u32).flat_map(move |i| ((i + 1)..n as u32).map(move |j| (i, j))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphism::homomorphism_exists;

    #[test]
    fn path_and_cycle_shapes() {
        let p = directed_path(5);
        let e = p.vocabulary().lookup("E").unwrap();
        assert_eq!(p.relation(e).len(), 4);
        let c = directed_cycle(4);
        let e = c.vocabulary().lookup("E").unwrap();
        assert_eq!(c.relation(e).len(), 4);
        let uc = undirected_cycle(4);
        let e = uc.vocabulary().lookup("E").unwrap();
        assert_eq!(uc.relation(e).len(), 8);
    }

    #[test]
    fn complete_graph_edge_count() {
        let k4 = complete_graph(4);
        let e = k4.vocabulary().lookup("E").unwrap();
        assert_eq!(k4.relation(e).len(), 12, "K4 symmetric: 2·C(4,2)");
        // No loops.
        for t in k4.relation(e).iter() {
            assert_ne!(t[0], t[1]);
        }
    }

    #[test]
    fn grid_structure() {
        let g = grid_graph(2, 3);
        assert_eq!(g.universe(), 6);
        let e = g.vocabulary().lookup("E").unwrap();
        assert_eq!(g.relation(e).len(), 2 * 7, "2x3 grid has 7 edges");
    }

    #[test]
    fn petersen_shape() {
        let p = petersen();
        assert_eq!(p.universe(), 10);
        let e = p.vocabulary().lookup("E").unwrap();
        assert_eq!(p.relation(e).len(), 30, "15 undirected edges, symmetric");
        // 3-regular.
        let g = crate::gaifman_graph(&p);
        for v in 0..10 {
            assert_eq!(g.degree(v), 3, "vertex {v}");
        }
    }

    #[test]
    fn random_generators_are_deterministic() {
        let a = random_digraph(10, 0.3, 42);
        let b = random_digraph(10, 0.3, 42);
        let e = a.vocabulary().lookup("E").unwrap();
        assert_eq!(
            a.relation(e).iter().collect::<Vec<_>>(),
            b.relation(e).iter().collect::<Vec<_>>()
        );
        let c = random_digraph(10, 0.3, 43);
        // Overwhelmingly likely to differ.
        assert_ne!(
            a.relation(e).iter().collect::<Vec<_>>(),
            c.relation(e).iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_graph_nm_counts() {
        let g = random_graph_nm(8, 5, 7);
        let e = g.vocabulary().lookup("E").unwrap();
        assert_eq!(g.relation(e).len(), 10, "5 undirected edges, symmetric");
    }

    #[test]
    fn ktree_edge_count() {
        // A k-tree on n vertices has k(k+1)/2 + (n-k-1)k edges.
        for (n, k) in [(6, 1), (8, 2), (10, 3)] {
            let edges = ktree_edges(n, k, 1);
            let expected = k * (k + 1) / 2 + (n - k - 1) * k;
            assert_eq!(edges.len(), expected, "n={n} k={k}");
        }
    }

    #[test]
    fn ktree_is_chordal_connected() {
        let g = crate::graph::UndirectedGraph::from_edges(9, &ktree_edges(9, 2, 3));
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn partial_ktree_subset_of_ktree() {
        let full = partial_ktree(9, 2, 1.0, 3);
        let e = full.vocabulary().lookup("E").unwrap();
        assert_eq!(full.relation(e).len(), 2 * ktree_edges(9, 2, 3).len());
        let sparse = partial_ktree(9, 2, 0.5, 3);
        assert!(sparse.relation(e).len() <= full.relation(e).len());
    }

    #[test]
    fn transitive_tournament_path_property() {
        let t = transitive_tournament(4);
        assert!(homomorphism_exists(&directed_path(4), &t));
        assert!(!homomorphism_exists(&directed_path(5), &t));
    }

    #[test]
    fn pin_values_keeps_the_instance_and_pins_every_value() {
        let a = random_graph_nm(6, 7, 3);
        let b = complete_graph(3);
        let (a_plus, b_plus) = pin_values(&a, &b);
        let voc = b_plus.vocabulary();
        assert_eq!(voc.len(), 1 + 3);
        assert_eq!(voc.name(RelId::from_index(0)), "E");
        assert_eq!(a_plus.universe(), 6);
        assert_eq!(a_plus.total_tuples(), a.total_tuples());
        assert_eq!(b_plus.total_tuples(), b.total_tuples() + 3);
        for v in 0..3 {
            let pin = RelId::from_index(1 + v);
            assert!(a_plus.relation(pin).is_empty());
            assert_eq!(
                b_plus.relation(pin).iter().collect::<Vec<_>>(),
                vec![&[Element(v as u32)][..]]
            );
        }
        assert_eq!(
            homomorphism_exists(&a_plus, &b_plus),
            homomorphism_exists(&a, &b)
        );
        // A symbol that already starts with the prefix pushes it aside.
        let voc = Vocabulary::from_symbols([("pin0", 1), ("E", 2)])
            .unwrap()
            .into_shared();
        let b = random_structure_over(&voc, 2, 2, 1);
        let (_, b_plus) = pin_values(&b, &b);
        assert_eq!(b_plus.vocabulary().len(), 2 + 2);
        assert!(b_plus.vocabulary().lookup("_pin0").is_some());
    }

    #[test]
    fn random_structure_shape() {
        let s = random_structure(6, &[2, 3], 10, 11);
        assert_eq!(s.universe(), 6);
        assert_eq!(s.vocabulary().len(), 2);
        // At most 10 per relation (duplicates collapse).
        for r in s.vocabulary().iter() {
            assert!(s.relation(r).len() <= 10);
            assert!(!s.relation(r).is_empty());
        }
    }
}
