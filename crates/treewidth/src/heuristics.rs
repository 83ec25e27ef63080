//! Elimination-order decomposition heuristics.
//!
//! The classic way to obtain a tree decomposition: pick a vertex order,
//! eliminate vertices one by one (connecting each vertex's surviving
//! neighbours into a clique), and take `{v} ∪ N(v)` at elimination time
//! as `v`'s bag, wiring it to the bag of the first later-eliminated
//! member. Min-degree and min-fill are the standard greedy orders; both
//! are exact on chordal graphs (in particular on k-trees) and good in
//! practice elsewhere.
//!
//! Min-fill and the bag construction run on one elimination core,
//! `Elimination`: the graph as `u64` word rows (`⌈n/64⌉` words per
//! vertex), loaded from an [`UndirectedGraph`] or straight from a
//! structure's tuples, eliminated in min-fill order or a given one,
//! emitting every bag and tree edge in the same pass. The Theorem 5.4
//! route lowers those rows into its DP directly (see [`crate::dp`]), so
//! it builds no graph, no bag `BitSet`s and no [`TreeDecomposition`];
//! [`min_fill_order`] and [`decomposition_from_elimination`] are thin
//! wrappers over the same core. The `BitSet` constructions they
//! replaced survive as [`min_fill_order_reference`] and
//! [`decomposition_from_elimination_reference`], the parity oracles.

use crate::decomposition::TreeDecomposition;
use cqcs_structures::{BitSet, Structure, UndirectedGraph};

/// The min-degree elimination order: repeatedly eliminate a vertex of
/// minimum current degree.
pub fn min_degree_order(g: &UndirectedGraph) -> Vec<usize> {
    greedy_order(g, |adj, v, _| adj[v].len())
}

/// The min-fill elimination order: repeatedly eliminate a vertex whose
/// elimination adds the fewest fill edges, the lowest-numbered one on a
/// tie.
///
/// Fill-in counts are cached and re-derived only for vertices whose
/// neighbourhood actually changed (the eliminated vertex's neighbours,
/// plus common neighbours of each fill edge's endpoints) instead of the
/// full rescan of [`min_fill_order_reference`] — this is the heuristic
/// hot path, seeding both dispatch and the branch-and-bound incumbent.
/// Runs on the word-row `Elimination` core; the order produced is
/// identical to the reference's (pinned by test).
pub fn min_fill_order(g: &UndirectedGraph) -> Vec<usize> {
    let mut elim = Elimination::default();
    elim.load_graph(g);
    elim.run(None);
    elim.order
}

/// Fill-in count of `v` in the live subgraph: non-adjacent pairs among
/// its live neighbours. The branch-and-bound solver orders its
/// candidates by it; min-fill counts the same pairs on word rows
/// (`Elimination`), and the min-fill parity test against
/// [`min_fill_order_reference`] is what keeps the two in step.
pub(crate) fn fill_count(adj: &[BitSet], alive: &BitSet, v: usize) -> usize {
    let mut nv = adj[v].clone();
    nv.intersect_with(alive);
    let d = nv.len();
    if d < 2 {
        return 0;
    }
    let mut non_edges = 0usize;
    for a in nv.iter() {
        non_edges += d - 1 - adj[a].intersection_len(&nv);
    }
    non_edges / 2
}

/// The from-scratch min-fill order: rescans every live vertex's fill
/// count at every step. Kept as the executable specification for
/// [`min_fill_order`] (the test suite pins the two to identical orders)
/// and as the bench baseline.
pub fn min_fill_order_reference(g: &UndirectedGraph) -> Vec<usize> {
    greedy_order(g, |adj, v, eliminated| {
        let neighbors: Vec<usize> = adj[v].iter().filter(|&u| !eliminated[u]).collect();
        let mut fill = 0usize;
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if !adj[a].contains(b) {
                    fill += 1;
                }
            }
        }
        fill
    })
}

fn greedy_order(
    g: &UndirectedGraph,
    score: impl Fn(&[BitSet], usize, &[bool]) -> usize,
) -> Vec<usize> {
    let n = g.len();
    let mut adj: Vec<BitSet> = (0..n).map(|v| g.adjacency(v).clone()).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| score(&adj, v, &eliminated))
            .expect("some vertex remains");
        // Connect v's surviving neighbours into a clique.
        let neighbors: Vec<usize> = adj[v].iter().filter(|&u| !eliminated[u]).collect();
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &neighbors {
            adj[u].remove(v);
        }
        eliminated[v] = true;
        order.push(v);
    }
    order
}

/// Builds a tree decomposition from an elimination order. The width of
/// the result is the width of the order (max bag − 1). Runs on the
/// word-row `Elimination` core; bags and edges are identical to
/// [`decomposition_from_elimination_reference`]'s (pinned by test).
///
/// # Panics
/// Panics if `order` is not a permutation of `g`'s vertices.
pub fn decomposition_from_elimination(g: &UndirectedGraph, order: &[usize]) -> TreeDecomposition {
    assert_eq!(order.len(), g.len(), "order must cover every vertex");
    let mut elim = Elimination::default();
    elim.load_graph(g);
    elim.run(Some(order));
    elim.to_decomposition()
}

/// The `BitSet` construction [`decomposition_from_elimination`] was
/// rewritten from, kept as its parity oracle: bag `i` is `order[i]`
/// plus its later neighbours in the fill graph, wired to the bag of the
/// earliest-eliminated of them, or to bag `i + 1` when there is none.
pub fn decomposition_from_elimination_reference(
    g: &UndirectedGraph,
    order: &[usize],
) -> TreeDecomposition {
    let n = g.len();
    assert_eq!(order.len(), n, "order must cover every vertex");
    if n == 0 {
        return TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
    }
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut adj: Vec<BitSet> = (0..n).map(|v| g.adjacency(v).clone()).collect();
    // bags[i] = bag of order[i].
    let mut bags: Vec<BitSet> = Vec::with_capacity(n);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, &v) in order.iter().enumerate() {
        let later: Vec<usize> = adj[v].iter().filter(|&u| position[u] > i).collect();
        let mut bag = BitSet::new(n);
        bag.insert(v);
        for &u in &later {
            bag.insert(u);
        }
        bags.push(bag);
        // Clique-ify later neighbours.
        for (a_i, &a) in later.iter().enumerate() {
            for &b in &later[a_i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        // Wire to the earliest-eliminated later neighbour's bag.
        if let Some(&parent) = later.iter().min_by_key(|&&u| position[u]) {
            edges.push((i, position[parent]));
        } else if i + 1 < n {
            // v's component is exhausted; attach to the next bag to keep
            // a single tree (the bag intersection is empty, which is
            // fine for conditions (1)–(3)).
            edges.push((i, i + 1));
        }
    }
    TreeDecomposition { bags, edges }
}

/// Convenience: decomposition via min-fill (usually the best greedy).
pub fn min_fill_decomposition(g: &UndirectedGraph) -> TreeDecomposition {
    let mut elim = Elimination::default();
    elim.load_graph(g);
    elim.run(None);
    elim.to_decomposition()
}

/// Convenience: decomposition via min-degree.
pub fn min_degree_decomposition(g: &UndirectedGraph) -> TreeDecomposition {
    decomposition_from_elimination(g, &min_degree_order(g))
}

/// The members of a word row, ascending.
pub(crate) fn members(row: &[u64]) -> Members<'_> {
    Members {
        row,
        word: 0,
        bits: row.first().copied().unwrap_or(0),
    }
}

/// Iterator behind [`members`].
pub(crate) struct Members<'r> {
    row: &'r [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
            self.bits = *self.row.get(self.word)?;
        }
    }
}

/// Whether element `e` is a member of a word row.
#[inline]
pub(crate) fn holds(row: &[u64], e: usize) -> bool {
    row[e / 64] >> (e % 64) & 1 != 0
}

/// Number of members of a word row below `e`: `e`'s position in the
/// row's ascending order when `e` is a member.
#[inline]
pub(crate) fn rank(row: &[u64], e: usize) -> u32 {
    let below: u32 = row[..e / 64].iter().map(|w| w.count_ones()).sum();
    below + (row[e / 64] & ((1u64 << (e % 64)) - 1)).count_ones()
}

/// The one elimination core: a graph as `u64` word rows, eliminated in
/// min-fill order or a given one, emitting one bag per vertex and the
/// tree edges between them exactly as
/// [`decomposition_from_elimination_reference`] does. Every buffer is
/// re-dimensioned per load, so one core serves a stream of graphs (the
/// DP keeps one in its [`DpScratch`](crate::dp::DpScratch)).
///
/// The DP also loads a caller's [`TreeDecomposition`] into the same bag
/// rows ([`load_decomposition`](Elimination::load_decomposition)), so
/// one lowering serves both.
#[derive(Debug, Clone, Default)]
pub(crate) struct Elimination {
    /// Vertices.
    n: usize,
    /// Words per row: `⌈n/64⌉`, at least 1.
    words: usize,
    /// `adj[v * words..][..words]`: `v`'s neighbours plus the fill edges
    /// added so far. Eliminated vertices stay in the rows; every read
    /// masks with the live row.
    adj: Vec<u64>,
    /// Four working rows, back to back: the live vertices, the
    /// eliminated vertex's live neighbourhood, the live vertices whose
    /// fill count may have changed this step, and a scratch row.
    rows: Vec<u64>,
    /// Cached fill-in counts (min-fill only); `usize::MAX` once
    /// eliminated, so the first minimum is always a live vertex.
    fill: Vec<usize>,
    /// The elimination order.
    order: Vec<usize>,
    /// Each vertex's index in `order`.
    position: Vec<usize>,
    /// `bags[i * words..][..words]`: bag `i` — for an elimination, the
    /// bag of `order[i]`.
    bags: Vec<u64>,
    /// Tree edges between bag indices.
    edges: Vec<(u32, u32)>,
    /// Largest live degree at elimination: the width of the bags.
    width: usize,
}

impl Elimination {
    /// Clears the core for `n` vertices, all live. The adjacency rows
    /// are left to the loader that needs them.
    fn reset(&mut self, n: usize) {
        let w = n.div_ceil(64).max(1);
        self.n = n;
        self.words = w;
        self.rows.clear();
        self.rows.resize(4 * w, 0);
        for v in 0..n {
            self.rows[v / 64] |= 1 << (v % 64);
        }
    }

    /// Clears the core for an edgeless graph on `n` vertices.
    fn reset_graph(&mut self, n: usize) {
        self.reset(n);
        self.adj.clear();
        self.adj.resize(n * self.words, 0);
    }

    /// Loads a graph's adjacency.
    pub(crate) fn load_graph(&mut self, g: &UndirectedGraph) {
        self.reset_graph(g.len());
        let w = self.words;
        for v in 0..g.len() {
            let words = g.adjacency(v).words();
            self.adj[v * w..v * w + words.len()].copy_from_slice(words);
        }
    }

    /// Loads `a`'s Gaifman graph straight from its tuples: distinct
    /// elements sharing a tuple are adjacent.
    pub(crate) fn load_structure(&mut self, a: &Structure) {
        self.reset_graph(a.universe());
        let w = self.words;
        for r in a.vocabulary().iter() {
            let rel = a.relation(r);
            if rel.arity() < 2 {
                continue;
            }
            for t in rel.iter() {
                for (i, x) in t.iter().enumerate() {
                    for y in &t[i + 1..] {
                        let (x, y) = (x.index(), y.index());
                        if x != y {
                            self.adj[x * w + y / 64] |= 1 << (y % 64);
                            self.adj[y * w + x / 64] |= 1 << (x % 64);
                        }
                    }
                }
            }
        }
    }

    /// Loads a decomposition's bags and edges over `0..universe` into the
    /// bag rows, replacing any elimination. The bags must already be
    /// validated against `universe`.
    pub(crate) fn load_decomposition(&mut self, td: &TreeDecomposition, universe: usize) {
        self.reset(universe);
        let w = self.words;
        self.order.clear();
        self.bags.clear();
        self.bags.resize(td.bags.len() * w, 0);
        for (row, bag) in self.bags.chunks_exact_mut(w).zip(&td.bags) {
            for e in bag.iter() {
                row[e / 64] |= 1 << (e % 64);
            }
        }
        self.edges.clear();
        self.edges
            .extend(td.edges.iter().map(|&(u, v)| (u as u32, v as u32)));
        self.width = td.width();
    }

    /// Eliminates every vertex — in `order` when given, else in min-fill
    /// order — recording the order, one bag per step, the tree edges and
    /// the width.
    pub(crate) fn run(&mut self, order: Option<&[usize]>) {
        let Elimination {
            n,
            words: w,
            adj,
            rows,
            fill,
            order: out,
            position,
            bags,
            edges,
            width,
        } = self;
        let (n, w) = (*n, *w);
        let (alive, rows) = rows.split_at_mut(w);
        let (live, rows) = rows.split_at_mut(w);
        let (dirty, scratch) = rows.split_at_mut(w);
        if let Some(order) = order {
            assert_eq!(order.len(), n, "order must cover every vertex");
            position.clear();
            position.resize(n, usize::MAX);
            for (i, &v) in order.iter().enumerate() {
                assert!(
                    v < n && position[v] == usize::MAX,
                    "order must be a permutation of the vertices"
                );
                position[v] = i;
            }
        } else {
            fill.clear();
            fill.extend((0..n).map(|v| fill_in(adj, alive, scratch, w, v)));
        }
        out.clear();
        out.reserve(n);
        bags.clear();
        bags.reserve(n * w);
        *width = 0;
        for step in 0..n {
            let v = match order {
                Some(order) => order[step],
                // The first minimum, as `Iterator::min_by_key` picks it.
                None => (1..n).fold(0, |best, u| if fill[u] < fill[best] { u } else { best }),
            };
            let row_v = &adj[v * w..(v + 1) * w];
            for k in 0..w {
                live[k] = row_v[k] & alive[k];
            }
            let bag = bags.len();
            bags.extend_from_slice(live);
            bags[bag + v / 64] |= 1 << (v % 64);
            *width = (*width).max(count(live));
            if order.is_none() {
                // Fill counts change only where adjacency changes: v's
                // neighbours lose v, and common neighbours of a new fill
                // edge's endpoints lose a non-edge. Outside v's
                // neighbourhood no row changes this step, so the common
                // neighbours can be read before the clique is added.
                dirty.copy_from_slice(live);
                for a in members(live) {
                    let row_a = &adj[a * w..(a + 1) * w];
                    for k in 0..w {
                        scratch[k] = live[k] & !row_a[k];
                    }
                    // Partners above `a` only, so each pair counts once.
                    scratch[..a / 64].fill(0);
                    scratch[a / 64] &= (u64::MAX << (a % 64)) << 1;
                    for b in members(scratch) {
                        let row_b = &adj[b * w..(b + 1) * w];
                        for k in 0..w {
                            dirty[k] |= row_a[k] & row_b[k] & alive[k];
                        }
                    }
                }
            }
            // Connect v's live neighbours into a clique.
            for a in members(live) {
                let row_a = &mut adj[a * w..(a + 1) * w];
                for k in 0..w {
                    row_a[k] |= live[k];
                }
                row_a[a / 64] &= !(1 << (a % 64));
            }
            alive[v / 64] &= !(1 << (v % 64));
            out.push(v);
            if order.is_none() {
                fill[v] = usize::MAX;
                for u in members(dirty) {
                    if holds(alive, u) {
                        fill[u] = fill_in(adj, alive, scratch, w, u);
                    }
                }
            }
        }
        // Wire each bag to the bag of its earliest-eliminated later
        // member, or to the next bag when its component is exhausted.
        position.clear();
        position.resize(n, 0);
        for (i, &v) in out.iter().enumerate() {
            position[v] = i;
        }
        edges.clear();
        edges.reserve(n);
        for (i, bag) in bags.chunks_exact(w).enumerate() {
            let v = out[i];
            match members(bag).filter(|&u| u != v).map(|u| position[u]).min() {
                Some(parent) => edges.push((i as u32, parent as u32)),
                None if i + 1 < n => edges.push((i as u32, i as u32 + 1)),
                None => {}
            }
        }
    }

    /// The last elimination's order.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The width of the bags: the largest bag's size minus one.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of bags.
    pub(crate) fn bag_count(&self) -> usize {
        self.bags.len() / self.words.max(1)
    }

    /// Bag `i` as a word row.
    #[inline]
    pub(crate) fn bag(&self, i: usize) -> &[u64] {
        &self.bags[i * self.words..(i + 1) * self.words]
    }

    /// The tree edges between bag indices.
    pub(crate) fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The bags and edges as a [`TreeDecomposition`].
    fn to_decomposition(&self) -> TreeDecomposition {
        TreeDecomposition {
            bags: (0..self.bag_count())
                .map(|i| {
                    let mut bag = BitSet::new(self.n);
                    for e in members(self.bag(i)) {
                        bag.insert(e);
                    }
                    bag
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect(),
        }
    }
}

/// Number of members of a word row.
#[inline]
fn count(row: &[u64]) -> usize {
    row.iter().map(|x| x.count_ones() as usize).sum()
}

/// Fill-in count of `v` on rows of `w` words: non-adjacent pairs among
/// its live neighbours, with `nbhd` as scratch.
fn fill_in(adj: &[u64], alive: &[u64], nbhd: &mut [u64], w: usize, v: usize) -> usize {
    let row_v = &adj[v * w..(v + 1) * w];
    for k in 0..w {
        nbhd[k] = row_v[k] & alive[k];
    }
    let d = count(nbhd);
    if d < 2 {
        return 0;
    }
    let mut non_edges = 0usize;
    for a in members(nbhd) {
        let row_a = &adj[a * w..(a + 1) * w];
        let common: usize = (0..w)
            .map(|k| (row_a[k] & nbhd[k]).count_ones() as usize)
            .sum();
        non_edges += d - 1 - common;
    }
    non_edges / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::{gaifman_graph, generators};

    fn graph_of(s: &cqcs_structures::Structure) -> UndirectedGraph {
        gaifman_graph(s)
    }

    #[test]
    fn path_has_width_one() {
        let g = graph_of(&generators::directed_path(8));
        for order in [min_degree_order(&g), min_fill_order(&g)] {
            let td = decomposition_from_elimination(&g, &order);
            td.validate_graph(&g).unwrap();
            assert_eq!(td.width(), 1);
        }
    }

    #[test]
    fn cycle_has_width_two() {
        let g = graph_of(&generators::undirected_cycle(9));
        let td = min_fill_decomposition(&g);
        td.validate_graph(&g).unwrap();
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn clique_has_width_n_minus_one() {
        let g = graph_of(&generators::complete_graph(5));
        let td = min_degree_decomposition(&g);
        td.validate_graph(&g).unwrap();
        assert_eq!(td.width(), 4);
    }

    #[test]
    fn ktree_width_recovered_exactly() {
        // Greedy elimination is exact on chordal graphs: a k-tree has
        // treewidth k.
        for k in 1..=3 {
            let edges = generators::ktree_edges(10, k, 7);
            let g = UndirectedGraph::from_edges(10, &edges);
            let td = min_fill_decomposition(&g);
            td.validate_graph(&g).unwrap();
            assert_eq!(td.width(), k, "k={k}");
        }
    }

    #[test]
    fn grid_width_bounded() {
        let g = graph_of(&generators::grid_graph(3, 5));
        let td = min_fill_decomposition(&g);
        td.validate_graph(&g).unwrap();
        assert!(td.width() >= 3, "3×5 grid treewidth is 3");
        assert!(td.width() <= 4, "min-fill should be near-optimal on grids");
    }

    #[test]
    fn disconnected_graph_still_a_tree() {
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let td = min_degree_decomposition(&g);
        td.validate_graph(&g).unwrap();
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new(0);
        let td = min_fill_decomposition(&g);
        assert!(td.is_empty());
        let single = UndirectedGraph::new(1);
        let td = min_fill_decomposition(&single);
        td.validate_graph(&single).unwrap();
        assert_eq!(td.width(), 0);
    }

    /// Graphs whose word rows span one to three words, with edges at
    /// the word boundaries: random graphs and cycles on 63, 64, 65, 128
    /// and 129 vertices, an edgeless graph, and one whose isolated
    /// vertices sit at and around the boundary.
    fn word_boundary_graphs() -> Vec<(String, UndirectedGraph)> {
        let mut graphs = Vec::new();
        for n in [63usize, 64, 65, 128, 129] {
            for seed in 0..2u64 {
                let s = generators::random_graph_nm(n, n + n / 2, seed);
                graphs.push((
                    format!("G({n}, {}) seed {seed}", n + n / 2),
                    gaifman_graph(&s),
                ));
            }
            let cycle = gaifman_graph(&generators::undirected_cycle(n));
            graphs.push((format!("C{n}"), cycle));
        }
        graphs.push(("edgeless 70".into(), UndirectedGraph::new(70)));
        // Vertices 0, 62, 63, 64 and 129 are isolated.
        let mut edges: Vec<(usize, usize)> = (1..61).map(|v| (v, v + 1)).collect();
        edges.extend((65..128).map(|v| (v, v + 1)));
        edges.extend([(61, 65), (1, 128), (30, 100), (2, 127)]);
        graphs.push((
            "isolated at the boundary".into(),
            UndirectedGraph::from_edges(130, &edges),
        ));
        graphs
    }

    #[test]
    fn cached_min_fill_matches_reference_order_exactly() {
        // The incremental fill-count cache must not change the order —
        // not just the width — relative to the from-scratch spec.
        for seed in 0..25u64 {
            let s = generators::random_graph_nm(14, 2 + (seed as usize * 3) % 40, seed);
            let g = gaifman_graph(&s);
            assert_eq!(
                min_fill_order(&g),
                min_fill_order_reference(&g),
                "seed {seed}"
            );
        }
        for (n, k, seed) in [(12usize, 2usize, 3u64), (16, 3, 9)] {
            let g = UndirectedGraph::from_edges(n, &generators::ktree_edges(n, k, seed));
            assert_eq!(min_fill_order(&g), min_fill_order_reference(&g));
        }
        let grid = gaifman_graph(&generators::grid_graph(4, 5));
        assert_eq!(min_fill_order(&grid), min_fill_order_reference(&grid));
        let pet = gaifman_graph(&generators::petersen());
        assert_eq!(min_fill_order(&pet), min_fill_order_reference(&pet));
        for (name, g) in word_boundary_graphs() {
            assert_eq!(min_fill_order(&g), min_fill_order_reference(&g), "{name}");
        }
    }

    fn assert_same_decomposition(got: &TreeDecomposition, want: &TreeDecomposition, what: &str) {
        let bags = |td: &TreeDecomposition| -> Vec<Vec<usize>> {
            td.bags.iter().map(|b| b.iter().collect()).collect()
        };
        assert_eq!(bags(got), bags(want), "{what}: bags differ");
        assert_eq!(got.edges, want.edges, "{what}: edges differ");
    }

    #[test]
    fn decomposition_matches_reference_exactly() {
        // Same bags, in the same order, and the same tree edges as the
        // BitSet construction, for min-fill, min-degree and reversed
        // orders — on one-word graphs and across word boundaries.
        let mut graphs: Vec<(String, UndirectedGraph)> = (0..15u64)
            .map(|seed| {
                let s = generators::random_graph_nm(12, 4 + seed as usize * 2, seed);
                (format!("G(12) seed {seed}"), gaifman_graph(&s))
            })
            .collect();
        graphs.push((
            "grid 4x5".into(),
            gaifman_graph(&generators::grid_graph(4, 5)),
        ));
        graphs.push(("empty".into(), UndirectedGraph::new(0)));
        graphs.push(("single".into(), UndirectedGraph::new(1)));
        graphs.extend(word_boundary_graphs());
        for (name, g) in &graphs {
            let mut reversed = min_degree_order(g);
            reversed.reverse();
            for order in [min_fill_order(g), min_degree_order(g), reversed] {
                let td = decomposition_from_elimination(g, &order);
                let want = decomposition_from_elimination_reference(g, &order);
                assert_same_decomposition(&td, &want, name);
                td.validate_graph(g).unwrap();
            }
            let want = decomposition_from_elimination_reference(g, &min_fill_order_reference(g));
            assert_same_decomposition(&min_fill_decomposition(g), &want, name);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_order_is_rejected() {
        let g = gaifman_graph(&generators::directed_path(3));
        decomposition_from_elimination(&g, &[0, 0, 1]);
    }

    #[test]
    fn decomposition_valid_on_random_graphs() {
        for seed in 0..10 {
            let s = generators::random_graph_nm(12, 18, seed);
            let g = graph_of(&s);
            for td in [min_fill_decomposition(&g), min_degree_decomposition(&g)] {
                td.validate_graph(&g).unwrap();
                // And against the structure itself (Lemma 5.1 direction).
                td.validate(&s).unwrap();
            }
        }
    }
}
