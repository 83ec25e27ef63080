//! Degeneracy-style treewidth lower bounds.
//!
//! The branch-and-bound solver ([`crate::bb`]) prunes against these,
//! and [`DpScratch::proves_treewidth_above`](crate::dp::DpScratch::proves_treewidth_above)
//! runs MMD+ on the DP's word rows to prove a width budget unreachable.
//! Both are classics from the treewidth lower-bound literature:
//!
//! * **MMD** (maximum minimum degree, a.k.a. degeneracy): repeatedly
//!   *delete* a vertex of minimum degree; the largest minimum degree
//!   ever seen is a lower bound, because a graph of treewidth `k` always
//!   has a vertex of degree ≤ `k` and treewidth is monotone under
//!   subgraphs.
//! * **MMD+** (least-c variant): *contract* the minimum-degree vertex
//!   into its least-degree neighbour instead of deleting it. Every
//!   intermediate graph is a minor and treewidth is minor-monotone;
//!   contraction keeps degrees up, so MMD+ never falls below MMD (until
//!   the run first picks a vertex of the MMD-core, contractions only add
//!   edges inside it) and is often well above it (grids: 2 vs
//!   `min(rows, cols)`-ish).

use cqcs_structures::{BitSet, UndirectedGraph};

/// The MMD (degeneracy) lower bound on the treewidth of `g`.
pub fn mmd_lower_bound(g: &UndirectedGraph) -> usize {
    let n = g.len();
    let adj: Vec<BitSet> = (0..n).map(|v| g.adjacency(v).clone()).collect();
    mmd_of(&adj, &BitSet::full(n))
}

/// MMD on the subgraph induced by `alive`, reading adjacency through the
/// mask. This is the form the branch-and-bound solver calls at every
/// node, on its working (filled) adjacency.
pub(crate) fn mmd_of(adj: &[BitSet], alive: &BitSet) -> usize {
    let mut live = alive.clone();
    let n = live.capacity();
    let mut degree: Vec<usize> = (0..n)
        .map(|v| {
            if live.contains(v) {
                adj[v].intersection_len(&live)
            } else {
                0
            }
        })
        .collect();
    let mut remaining = live.len();
    let mut best = 0usize;
    while remaining > 0 {
        let v = live
            .iter()
            .min_by_key(|&v| degree[v])
            .expect("nonempty live set");
        best = best.max(degree[v]);
        live.remove(v);
        remaining -= 1;
        for u in adj[v].iter() {
            if live.contains(u) {
                degree[u] -= 1;
            }
        }
    }
    best
}

/// The MMD+ lower bound: contract the minimum-degree vertex into its
/// least-degree neighbour. At least as strong as [`mmd_lower_bound`].
pub fn mmd_plus_lower_bound(g: &UndirectedGraph) -> usize {
    let n = g.len();
    let mut adj: Vec<BitSet> = (0..n).map(|v| g.adjacency(v).clone()).collect();
    let mut live = BitSet::full(n);
    let mut best = 0usize;
    let mut remaining = n;
    while remaining > 0 {
        let v = live
            .iter()
            .min_by_key(|&v| adj[v].intersection_len(&live))
            .expect("nonempty live set");
        let mut neighbors = adj[v].clone();
        neighbors.intersect_with(&live);
        let deg = neighbors.len();
        best = best.max(deg);
        // Contract v into its least-degree live neighbour (delete when
        // isolated): the merged vertex absorbs v's neighbourhood.
        if let Some(target) = neighbors
            .iter()
            .min_by_key(|&u| adj[u].intersection_len(&live))
        {
            neighbors.remove(target);
            adj[target].union_with(&neighbors);
            adj[target].remove(target);
            adj[target].remove(v);
            for u in neighbors.iter() {
                adj[u].insert(target);
                adj[u].remove(v);
            }
        }
        live.remove(v);
        remaining -= 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_treewidth;
    use cqcs_structures::{gaifman_graph, generators};

    #[test]
    fn known_families() {
        let path = gaifman_graph(&generators::undirected_path(8));
        assert_eq!(mmd_lower_bound(&path), 1);
        assert_eq!(mmd_plus_lower_bound(&path), 1);
        let cycle = gaifman_graph(&generators::undirected_cycle(9));
        assert_eq!(mmd_lower_bound(&cycle), 2);
        assert_eq!(mmd_plus_lower_bound(&cycle), 2);
        let k6 = gaifman_graph(&generators::complete_graph(6));
        assert_eq!(mmd_lower_bound(&k6), 5);
        assert_eq!(mmd_plus_lower_bound(&k6), 5);
        // Grids: degeneracy is only 2, contraction recovers more.
        let grid = gaifman_graph(&generators::grid_graph(4, 4));
        assert_eq!(mmd_lower_bound(&grid), 2);
        assert!(mmd_plus_lower_bound(&grid) >= 3);
        // Petersen: 3-regular, treewidth 4.
        let pet = gaifman_graph(&generators::petersen());
        assert_eq!(mmd_lower_bound(&pet), 3);
        assert!(mmd_plus_lower_bound(&pet) >= 3);
    }

    #[test]
    fn bounds_never_exceed_exact() {
        for seed in 0..20u64 {
            let s = generators::random_graph_nm(11, 16, seed);
            let g = gaifman_graph(&s);
            let exact = exact_treewidth(&g);
            let mmd = mmd_lower_bound(&g);
            let mmd_plus = mmd_plus_lower_bound(&g);
            assert!(mmd <= exact, "MMD above exact, seed {seed}");
            assert!(mmd_plus <= exact, "MMD+ above exact, seed {seed}");
            assert!(mmd_plus >= mmd, "MMD+ weaker than MMD, seed {seed}");
        }
    }

    #[test]
    fn degenerate_graphs() {
        assert_eq!(mmd_lower_bound(&UndirectedGraph::new(0)), 0);
        assert_eq!(mmd_plus_lower_bound(&UndirectedGraph::new(0)), 0);
        assert_eq!(mmd_lower_bound(&UndirectedGraph::new(4)), 0, "no edges");
        assert_eq!(mmd_plus_lower_bound(&UndirectedGraph::new(4)), 0);
    }
}
