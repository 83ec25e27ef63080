//! The bounded-treewidth homomorphism solver (Theorem 5.4).
//!
//! Given a tree decomposition of the left structure `A` of width `k`,
//! dynamic programming over bag assignments decides `hom(A → B)` in
//! time `O(nodes · |B|^{k+1} · ‖A‖)` — polynomial for fixed `k`, and
//! uniform in `B`. Each node keeps the bag assignments that satisfy its
//! tuples and extend into every child subtree; children constrain
//! parents through projections onto shared elements; a homomorphism is
//! reconstructed top-down.
//!
//! [`solve_with_decomposition_pooled`] runs that DP compiled: the
//! decomposition is lowered once per call into flat arrays in a
//! reusable [`DpScratch`] (bag elements, each `A`-tuple as a relation
//! plus bag positions checked at the first bag holding it, each
//! child's positions shared with its parent, the tree order), a tuple
//! check is an AND of the template's [`SupportIndex`] bitsets, and each
//! child's table is a mixed-radix array over its projection onto the
//! parent bag, holding the first kept row per projection.
//! [`solve_with_decomposition_reference`] is the hash-map DP it
//! replaced, kept as the parity oracle: both enumerate every bag in
//! odometer order (position 0 fastest) and let the first kept row
//! represent its projection, so verdicts and witnesses are identical.

use crate::decomposition::{DecompositionError, TreeDecomposition};
use crate::heuristics;
use cqcs_structures::{
    gaifman_graph, BitSet, Element, Homomorphism, RelId, Structure, SupportIndex,
};
use std::collections::HashMap;

/// An empty child-table slot, and the root's parent.
const NONE: u32 = u32::MAX;

/// One lowered tree node.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// `bag_elems[bag..bag + len]`: the bag's elements, ascending.
    bag: u32,
    len: u32,
    /// `checks[checks..checks + checks_len]`: the `A`-tuples this bag
    /// checks.
    checks: u32,
    checks_len: u32,
    /// `adj[nbrs..nbrs + nbrs_len]`: tree neighbours, the parent among
    /// them.
    nbrs: u32,
    nbrs_len: u32,
    /// Parent in the tree rooted at node 0 ([`NONE`] for the root).
    parent: u32,
    /// `shared[shared..shared + shared_len]`: the elements this node
    /// shares with its parent, ascending, as (parent position, own
    /// position) pairs.
    shared: u32,
    shared_len: u32,
    /// `slots[table..table + |B|^shared_len]`: the row kept for each
    /// projection onto the parent bag, or [`NONE`].
    table: usize,
    /// Offset in `rows` of the row the witness takes from this bag.
    chosen: u32,
}

/// One `A`-tuple, checked at its holder bag: the image of its
/// arguments (`arg_pos[args..args + arity]`, bag positions) must be a
/// tuple of `R^B`.
#[derive(Debug, Clone, Copy)]
struct Check {
    node: u32,
    rel: RelId,
    args: u32,
    arity: u32,
}

/// Reusable buffers for [`solve_with_decomposition_pooled`]: the
/// lowered decomposition and the flat bag tables. A batch worker keeps
/// one next to its propagation arena so the DP allocates nothing once
/// the buffers reach the batch's high-water mark; a fresh (default)
/// scratch gives the same answers.
#[derive(Debug, Default)]
pub struct DpScratch {
    nodes: Vec<Node>,
    bag_elems: Vec<u32>,
    checks: Vec<Check>,
    arg_pos: Vec<u32>,
    /// Tree edges in both directions, sorted by source node.
    adj: Vec<(u32, u32)>,
    /// Nodes in breadth-first order from the root: parents first.
    order: Vec<u32>,
    shared: Vec<(u32, u32)>,
    slots: Vec<u32>,
    /// Kept rows, `len` values each, back to back.
    rows: Vec<u32>,
    /// The odometer: the bag assignment being enumerated.
    vals: Vec<u32>,
}

/// Solves `hom(A → B)` using the supplied tree decomposition of `A`.
///
/// Returns `Err` if the decomposition is invalid for `A`; `Ok(None)` if
/// no homomorphism exists; otherwise one homomorphism. Builds a support
/// index over `B` and a fresh scratch per call; callers solving many
/// instances against one template use [`solve_with_decomposition_pooled`].
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn solve_with_decomposition(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
) -> Result<Option<Homomorphism>, DecompositionError> {
    solve_with_decomposition_pooled(a, b, td, &SupportIndex::build(b), &mut DpScratch::default())
}

/// [`solve_with_decomposition`] against a prebuilt support index over
/// `b`, on caller-pooled buffers (identical output).
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn solve_with_decomposition_pooled(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
    support: &SupportIndex,
    scratch: &mut DpScratch,
) -> Result<Option<Homomorphism>, DecompositionError> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    debug_assert_eq!(support.universe(), b.universe(), "index over another B");
    td.validate_shape(a.universe())?;
    scratch.lower(a, td)?;

    // Global 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Ok(None);
        }
    }
    if a.universe() == 0 {
        return Ok(Some(Homomorphism::from_map(Vec::new())));
    }
    if b.universe() == 0 {
        return Ok(None);
    }
    scratch.link(td, b.universe());
    if !scratch.fill_tables(support, b.universe()) {
        return Ok(None);
    }
    let h = scratch.witness(a.universe(), b.universe());
    debug_assert!(cqcs_structures::is_homomorphism(&h, a, b));
    Ok(Some(Homomorphism::from_map(h)))
}

/// `pool[start..start + len]`.
#[inline]
fn span<T>(pool: &[T], start: u32, len: u32) -> &[T] {
    &pool[start as usize..(start + len) as usize]
}

/// Position of element `e` in `bag`'s ascending order.
fn rank(bag: &BitSet, e: usize) -> u32 {
    let words = bag.words();
    let below: u32 = words[..e / 64].iter().map(|w| w.count_ones()).sum();
    below + (words[e / 64] & ((1u64 << (e % 64)) - 1)).count_ones()
}

/// Mixed-radix slot of the projection of `vals` onto `positions`.
#[inline]
fn slot_of(vals: &[u32], positions: impl Iterator<Item = u32>, m: usize) -> usize {
    positions.fold(0, |slot, p| slot * m + vals[p as usize] as usize)
}

/// Advances the odometer (position 0 fastest); `false` once it wraps.
#[inline]
fn advance(vals: &mut [u32], m: u32) -> bool {
    for v in vals.iter_mut() {
        *v += 1;
        if *v < m {
            return true;
        }
        *v = 0;
    }
    false
}

/// Whether `vals` maps every checked tuple onto a tuple of `B`: some
/// `B`-tuple supports every argument's value, i.e. the AND of the
/// arguments' support bitsets has a set bit.
#[inline]
fn tuples_hold(vals: &[u32], checks: &[Check], arg_pos: &[u32], support: &SupportIndex) -> bool {
    checks.iter().all(|c| {
        let args = span(arg_pos, c.args, c.arity);
        (0..support.tuple_count(c.rel).div_ceil(64)).any(|w| {
            args.iter().enumerate().fold(u64::MAX, |acc, (j, &p)| {
                acc & support
                    .supports(c.rel, j, vals[p as usize] as usize)
                    .words()[w]
            }) != 0
        })
    })
}

impl DpScratch {
    /// Lowers the bags and assigns every `A`-tuple to the first bag
    /// holding all of its elements. A tuple no bag holds is the
    /// decomposition's coverage error, reported here in vocabulary and
    /// tuple order, so coverage is scanned once.
    fn lower(&mut self, a: &Structure, td: &TreeDecomposition) -> Result<(), DecompositionError> {
        self.nodes.clear();
        self.bag_elems.clear();
        self.checks.clear();
        self.arg_pos.clear();
        for bag in &td.bags {
            let start = self.bag_elems.len() as u32;
            self.bag_elems.extend(bag.iter().map(|e| e as u32));
            self.nodes.push(Node {
                bag: start,
                len: self.bag_elems.len() as u32 - start,
                ..Node::default()
            });
        }
        let voc = a.vocabulary();
        for r in voc.iter() {
            for (ti, tuple) in a.relation(r).iter().enumerate() {
                let holder = td
                    .bags
                    .iter()
                    .position(|bag| tuple.iter().all(|e| bag.contains(e.index())))
                    .ok_or_else(|| DecompositionError::TupleNotCovered {
                        relation: voc.name(r).to_owned(),
                        tuple_index: ti,
                    })?;
                if tuple.is_empty() {
                    continue; // 0-ary: a global precondition, not a bag check
                }
                let args = self.arg_pos.len() as u32;
                let bag = &td.bags[holder];
                self.arg_pos
                    .extend(tuple.iter().map(|e| rank(bag, e.index())));
                self.checks.push(Check {
                    node: holder as u32,
                    rel: r,
                    args,
                    arity: tuple.len() as u32,
                });
            }
        }
        self.checks.sort_unstable_by_key(|c| c.node);
        let mut c = 0;
        for (u, node) in self.nodes.iter_mut().enumerate() {
            node.checks = c as u32;
            while self.checks.get(c).is_some_and(|ch| ch.node as usize == u) {
                c += 1;
            }
            node.checks_len = c as u32 - node.checks;
        }
        Ok(())
    }

    /// Roots the tree at node 0 and sizes each child's table over its
    /// projection onto the parent bag: `|B|^{shared}` slots, never more
    /// than the child's own `|B|^{|bag|}` enumeration.
    fn link(&mut self, td: &TreeDecomposition, m: usize) {
        self.adj.clear();
        self.adj.extend(
            td.edges
                .iter()
                .flat_map(|&(u, v)| [(u as u32, v as u32), (v as u32, u as u32)]),
        );
        self.adj.sort_unstable();
        self.order.clear();
        self.order.push(0);
        self.nodes[0].parent = NONE;
        let mut next = 0;
        while let Some(&u) = self.order.get(next) {
            next += 1;
            let from = self.adj.partition_point(|&(x, _)| x < u);
            let to = from + self.adj[from..].partition_point(|&(x, _)| x == u);
            let node = &mut self.nodes[u as usize];
            (node.nbrs, node.nbrs_len) = (from as u32, (to - from) as u32);
            let parent = node.parent;
            for &(_, v) in &self.adj[from..to] {
                if v != parent {
                    self.nodes[v as usize].parent = u;
                    self.order.push(v);
                }
            }
        }
        self.shared.clear();
        let mut table = 0usize;
        for &c in &self.order[1..] {
            let node = &mut self.nodes[c as usize];
            let parent_bag = &td.bags[node.parent as usize];
            let start = self.shared.len();
            for (i, &e) in span(&self.bag_elems, node.bag, node.len).iter().enumerate() {
                if parent_bag.contains(e as usize) {
                    self.shared.push((rank(parent_bag, e as usize), i as u32));
                }
            }
            node.shared = start as u32;
            node.shared_len = (self.shared.len() - start) as u32;
            node.table = table;
            table = m
                .checked_pow(node.shared_len)
                .and_then(|slots| table.checked_add(slots))
                .expect("bag tables exceed the address space");
        }
        self.slots.clear();
        self.slots.resize(table, NONE);
    }

    /// Fills every bag's table, children first: enumerates the bag's
    /// assignments in odometer order and keeps a row when its tuples
    /// hold in `B` and every child's table has a row for its
    /// projection — the first such row per projection onto the parent,
    /// and at the root the first one overall. `false` when some bag
    /// keeps nothing (no homomorphism).
    fn fill_tables(&mut self, support: &SupportIndex, m: usize) -> bool {
        let DpScratch {
            nodes,
            checks,
            arg_pos,
            adj,
            order,
            shared,
            slots,
            rows,
            vals,
            ..
        } = self;
        rows.clear();
        for &u in order.iter().rev() {
            let node = nodes[u as usize];
            let own_checks = span(checks, node.checks, node.checks_len);
            let nbrs = span(adj, node.nbrs, node.nbrs_len);
            let own_shared = span(shared, node.shared, node.shared_len);
            let capacity = m.pow(node.shared_len);
            let mut kept = 0;
            vals.clear();
            vals.resize(node.len as usize, 0);
            loop {
                let ok = tuples_hold(vals, own_checks, arg_pos, support)
                    && nbrs.iter().all(|&(_, c)| {
                        c == node.parent || {
                            let child = nodes[c as usize];
                            let sh = span(shared, child.shared, child.shared_len);
                            slots[child.table + slot_of(vals, sh.iter().map(|s| s.0), m)] != NONE
                        }
                    });
                if ok {
                    let row = u32::try_from(rows.len()).expect("kept rows fit u32 offsets");
                    if node.parent == NONE {
                        rows.extend_from_slice(vals);
                        nodes[u as usize].chosen = row;
                        kept = 1;
                        break;
                    }
                    let slot =
                        &mut slots[node.table + slot_of(vals, own_shared.iter().map(|s| s.1), m)];
                    if *slot == NONE {
                        *slot = row;
                        rows.extend_from_slice(vals);
                        kept += 1;
                        if kept == capacity {
                            break; // every projection has its row
                        }
                    }
                }
                if !advance(vals, m as u32) {
                    break;
                }
            }
            if kept == 0 {
                return false;
            }
        }
        true
    }

    /// Reads the homomorphism off the tables top-down: the root's kept
    /// row, then for each child the row its table keeps for the
    /// parent's chosen projection.
    fn witness(&mut self, universe: usize, m: usize) -> Vec<Element> {
        let mut h = vec![Element(0); universe];
        for &u in &self.order {
            let node = self.nodes[u as usize];
            let row = if node.parent == NONE {
                node.chosen
            } else {
                let parent = self.nodes[node.parent as usize];
                let parent_row = span(&self.rows, parent.chosen, parent.len);
                let sh = span(&self.shared, node.shared, node.shared_len);
                let row = self.slots[node.table + slot_of(parent_row, sh.iter().map(|s| s.0), m)];
                debug_assert_ne!(row, NONE, "parent kept only supported projections");
                row
            };
            self.nodes[u as usize].chosen = row;
            let bag = span(&self.bag_elems, node.bag, node.len);
            for (&e, &v) in bag.iter().zip(span(&self.rows, row, node.len)) {
                h[e as usize] = Element(v);
            }
        }
        h
    }
}

/// The hash-map DP [`solve_with_decomposition`] was compiled from, kept
/// as its parity oracle: per node, every satisfying bag assignment as a
/// `Vec<Element>`, and per child a `HashMap` from the projection onto
/// the parent bag to the first such assignment. Same contract and, by
/// construction, the same verdicts and witnesses.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn solve_with_decomposition_reference(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
) -> Result<Option<Homomorphism>, DecompositionError> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    td.validate(a)?;

    // Global 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Ok(None);
        }
    }
    if a.universe() == 0 {
        return Ok(Some(Homomorphism::from_map(Vec::new())));
    }
    if b.universe() == 0 {
        return Ok(None);
    }

    let nodes = td.len();
    let adj = td.adjacency();
    let bags: Vec<Vec<Element>> = td
        .bags
        .iter()
        .map(|bag| bag.iter().map(Element::new).collect())
        .collect();

    // Assign every A-tuple to one covering bag.
    let mut tuples_of: Vec<Vec<(cqcs_structures::RelId, u32)>> = vec![Vec::new(); nodes];
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            continue;
        }
        for (ti, tuple) in a.relation(r).iter().enumerate() {
            let holder = (0..nodes)
                .find(|&i| tuple.iter().all(|e| td.bags[i].contains(e.index())))
                .expect("validate() guarantees a covering bag");
            tuples_of[holder].push((r, ti as u32));
        }
    }

    // Root at 0; post-order.
    let mut order = Vec::with_capacity(nodes);
    let mut parent: Vec<Option<usize>> = vec![None; nodes];
    {
        let mut stack = vec![0usize];
        let mut seen = vec![false; nodes];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    stack.push(v);
                }
            }
        }
        order.reverse(); // children before parents
    }

    // For each node: valid assignments; per (child) a map from
    // shared-projection to a representative child assignment.
    let mut valid: Vec<Vec<Vec<Element>>> = vec![Vec::new(); nodes];
    let mut child_reps: Vec<HashMap<Vec<Element>, Vec<Element>>> = vec![HashMap::new(); nodes];

    let m = b.universe();
    for &u in &order {
        let bag = &bags[u];
        let children: Vec<usize> = adj[u]
            .iter()
            .copied()
            .filter(|&v| parent[v] == Some(u))
            .collect();
        // Shared positions with each child (indices into `bag`).
        let shared_pos: Vec<Vec<usize>> = children
            .iter()
            .map(|&c| {
                (0..bag.len())
                    .filter(|&i| td.bags[c].contains(bag[i].index()))
                    .collect()
            })
            .collect();

        let mut assignment: Vec<Element> = vec![Element(0); bag.len()];
        let mut counters = vec![0usize; bag.len()];
        // Scratch projection buffer: `Vec<T>: Borrow<[T]>` lets the
        // representative maps be probed by slice, so the enumeration's
        // inner loop allocates only for assignments it actually keeps.
        let mut proj: Vec<Element> = Vec::with_capacity(bag.len());
        'enumerate: loop {
            for (i, &c) in counters.iter().enumerate() {
                assignment[i] = Element(c as u32);
            }
            if assignment_ok(a, b, bag, &assignment, &tuples_of[u])
                && children.iter().enumerate().all(|(ci, &c)| {
                    proj.clear();
                    proj.extend(shared_pos[ci].iter().map(|&i| assignment[i]));
                    child_reps[c].contains_key(proj.as_slice())
                })
            {
                valid[u].push(assignment.clone());
            }
            // Increment mixed-radix counter.
            for counter in counters.iter_mut() {
                *counter += 1;
                if *counter < m {
                    continue 'enumerate;
                }
                *counter = 0;
            }
            break;
        }
        if valid[u].is_empty() {
            return Ok(None);
        }
        // Representative map for the parent's shared projection.
        if let Some(p) = parent[u] {
            let shared: Vec<usize> = (0..bag.len())
                .filter(|&i| td.bags[p].contains(bag[i].index()))
                .collect();
            let mut reps = HashMap::new();
            for asg in &valid[u] {
                proj.clear();
                proj.extend(shared.iter().map(|&i| asg[i]));
                if !reps.contains_key(proj.as_slice()) {
                    reps.insert(proj.clone(), asg.clone());
                }
            }
            child_reps[u] = reps;
        }
    }

    // Reconstruct: top-down choice.
    let mut map: Vec<Option<Element>> = vec![None; a.universe()];
    let root = *order.last().expect("at least one node");
    debug_assert_eq!(parent[root], None);
    let mut stack: Vec<(usize, Vec<Element>)> = vec![(root, valid[root][0].clone())];
    while let Some((u, asg)) = stack.pop() {
        for (i, &e) in bags[u].iter().enumerate() {
            debug_assert!(map[e.index()].is_none() || map[e.index()] == Some(asg[i]));
            map[e.index()] = Some(asg[i]);
        }
        for &v in &adj[u] {
            if parent[v] == Some(u) {
                let shared: Vec<Element> = bags[v]
                    .iter()
                    .filter(|e| td.bags[u].contains(e.index()))
                    .map(|&e| map[e.index()].expect("parent bag already assigned"))
                    .collect();
                let child_asg = child_reps[v]
                    .get(&shared)
                    .expect("parent kept only supported projections")
                    .clone();
                stack.push((v, child_asg));
            }
        }
    }
    let h: Vec<Element> = map
        .into_iter()
        .map(|o| o.expect("validate() guarantees every element is in a bag"))
        .collect();
    debug_assert!(cqcs_structures::is_homomorphism(&h, a, b));
    Ok(Some(Homomorphism::from_map(h)))
}

/// Checks the tuples assigned to a bag under a candidate assignment.
fn assignment_ok(
    a: &Structure,
    b: &Structure,
    bag: &[Element],
    assignment: &[Element],
    tuples: &[(cqcs_structures::RelId, u32)],
) -> bool {
    let mut image: Vec<Element> = Vec::with_capacity(a.vocabulary().max_arity());
    for &(r, ti) in tuples {
        image.clear();
        for e in a.relation(r).tuple(ti as usize) {
            let pos = bag.binary_search(e).expect("tuple covered by bag");
            image.push(assignment[pos]);
        }
        if !b.relation(r).contains(&image) {
            return false;
        }
    }
    true
}

/// Convenience pipeline: Gaifman graph → min-fill decomposition → DP.
/// Returns the homomorphism (if any) and the decomposition width used.
pub fn homomorphism_via_treewidth(a: &Structure, b: &Structure) -> (Option<Homomorphism>, usize) {
    let g = gaifman_graph(a);
    let mut td = heuristics::min_fill_decomposition(&g);
    if td.is_empty() && a.universe() > 0 {
        td = TreeDecomposition::trivial(a.universe());
    }
    let width = td.width();
    let result = solve_with_decomposition(a, b, &td)
        .expect("decomposition built from A's own Gaifman graph is valid");
    (result, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn cycles_and_colorings() {
        let k2 = generators::complete_graph(2);
        let k3 = generators::complete_graph(3);
        for n in [4, 5, 6, 7] {
            let c = generators::undirected_cycle(n);
            let (h2, w) = homomorphism_via_treewidth(&c, &k2);
            assert_eq!(h2.is_some(), n % 2 == 0, "C{n} vs K2");
            assert_eq!(w, 2, "cycles have treewidth 2");
            let (h3, _) = homomorphism_via_treewidth(&c, &k3);
            assert!(h3.is_some(), "C{n} vs K3");
        }
    }

    #[test]
    fn witnesses_are_homomorphisms() {
        for seed in 0..10u64 {
            let a = generators::partial_ktree(9, 2, 0.8, seed);
            let b = generators::random_digraph(4, 0.5, seed + 321);
            let (h, _) = homomorphism_via_treewidth(&a, &b);
            assert_eq!(h.is_some(), homomorphism_exists(&a, &b), "seed {seed}");
            if let Some(h) = h {
                assert!(cqcs_structures::is_homomorphism(h.as_slice(), &a, &b));
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_random_structures() {
        // Also exercises ternary relations (wide bags).
        for seed in 0..10u64 {
            let a = generators::random_structure(6, &[2, 3], 4, seed);
            let b = generators::random_structure_over(a.vocabulary(), 3, 7, seed + 99);
            let (h, _) = homomorphism_via_treewidth(&a, &b);
            assert_eq!(h.is_some(), homomorphism_exists(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn explicit_decomposition_used() {
        let p = generators::directed_path(5);
        let t3 = generators::transitive_tournament(5);
        let mut bags = Vec::new();
        let mut edges = Vec::new();
        for i in 0..4usize {
            let mut bag = cqcs_structures::BitSet::new(5);
            bag.insert(i);
            bag.insert(i + 1);
            bags.push(bag);
            if i > 0 {
                edges.push((i - 1, i));
            }
        }
        let td = TreeDecomposition { bags, edges };
        let h = solve_with_decomposition(&p, &t3, &td).unwrap();
        assert!(h.is_some());
    }

    #[test]
    fn invalid_decomposition_rejected() {
        let p = generators::directed_path(3);
        // Bags sized for a smaller universe: element 2 is in none.
        let td = TreeDecomposition {
            bags: vec![BitSet::full(2)],
            edges: vec![],
        };
        assert_eq!(
            solve_with_decomposition(&p, &p, &td).err(),
            Some(DecompositionError::ElementMissing { element: 2 })
        );
        let td2 = TreeDecomposition {
            bags: vec![bag(3, &[0, 1])],
            edges: vec![],
        };
        assert!(solve_with_decomposition(&p, &p, &td2).is_err());
    }

    fn bag(capacity: usize, elems: &[usize]) -> BitSet {
        let mut b = BitSet::new(capacity);
        for &e in elems {
            b.insert(e);
        }
        b
    }

    /// Every entry point must give the same answer, `Err` included.
    fn assert_all_agree(
        a: &Structure,
        b: &Structure,
        td: &TreeDecomposition,
    ) -> Result<Option<Homomorphism>, DecompositionError> {
        let compiled = solve_with_decomposition(a, b, td);
        assert_eq!(compiled, solve_with_decomposition_reference(a, b, td));
        compiled
    }

    #[test]
    fn out_of_range_bag_element_rejected() {
        // A bag naming element 5 of a 2-element structure used to pass
        // both validators and then panic in the DP's reconstruction.
        let p = generators::directed_path(2);
        let td = TreeDecomposition {
            bags: vec![bag(6, &[0, 1, 5])],
            edges: vec![],
        };
        let want = DecompositionError::ElementOutOfRange { bag: 0, element: 5 };
        assert_eq!(td.validate(&p), Err(want.clone()));
        assert_eq!(td.validate_graph(&gaifman_graph(&p)), Err(want.clone()));
        assert_eq!(assert_all_agree(&p, &p, &td).err(), Some(want));
    }

    #[test]
    fn errors_keep_their_precedence() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let voc = Vocabulary::from_symbols([("R", 2), ("S", 2)])
            .unwrap()
            .into_shared();
        let mut sb = StructureBuilder::new(voc, 5);
        sb.add_fact("R", &[0, 1]).unwrap();
        sb.add_fact("R", &[1, 4]).unwrap();
        sb.add_fact("S", &[0, 2]).unwrap();
        let a = sb.finish();
        // Element 2 split (bags 0 and 2), elements 3 and 4 missing, R#1
        // uncovered: the first failing element wins, whatever its kind,
        // and element errors come before tuple errors.
        let td = TreeDecomposition {
            bags: vec![bag(5, &[0, 1, 2]), bag(5, &[1]), bag(5, &[2])],
            edges: vec![(0, 1), (1, 2)],
        };
        let want = DecompositionError::ElementNotConnected { element: 2 };
        assert_eq!(td.validate(&a), Err(want.clone()));
        assert_eq!(assert_all_agree(&a, &a, &td).err(), Some(want));
        // Every element fine: the first uncovered tuple in vocabulary
        // then tuple order is R#1, not S#0.
        let td = TreeDecomposition {
            bags: vec![
                bag(5, &[0, 1]),
                bag(5, &[1, 3]),
                bag(5, &[3, 4]),
                bag(5, &[2]),
            ],
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        let want = DecompositionError::TupleNotCovered {
            relation: "R".to_owned(),
            tuple_index: 1,
        };
        assert_eq!(td.validate(&a), Err(want.clone()));
        assert_eq!(assert_all_agree(&a, &a, &td).err(), Some(want));
    }

    #[test]
    fn compiled_matches_reference_on_served_instances() {
        let k3 = generators::complete_graph(3);
        let support = SupportIndex::build(&k3);
        let mut scratch = DpScratch::default();
        for seed in 0..256u64 {
            let a = generators::random_graph_nm(8, 12, seed);
            let g = gaifman_graph(&a);
            let td =
                heuristics::decomposition_from_elimination(&g, &heuristics::min_fill_order(&g));
            let reference = solve_with_decomposition_reference(&a, &k3, &td).unwrap();
            let pooled =
                solve_with_decomposition_pooled(&a, &k3, &td, &support, &mut scratch).unwrap();
            assert_eq!(pooled, reference, "seed {seed}");
        }
    }

    #[test]
    fn compiled_matches_reference_on_mixed_arity() {
        for seed in 0..40u64 {
            let a = generators::random_structure(6, &[1, 2, 3], 5, seed);
            let b = generators::random_structure_over(a.vocabulary(), 3, 9, seed + 7);
            let g = gaifman_graph(&a);
            for td in [
                heuristics::decomposition_from_elimination(&g, &heuristics::min_fill_order(&g)),
                heuristics::decomposition_from_elimination(&g, &heuristics::min_degree_order(&g)),
                TreeDecomposition::trivial(a.universe()),
            ] {
                assert_all_agree(&a, &b, &td).unwrap();
            }
        }
    }

    #[test]
    fn empty_and_degenerate_cases() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let k2 = generators::complete_graph(2);
        let td = TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
        assert!(solve_with_decomposition(&empty, &k2, &td)
            .unwrap()
            .is_some());
        // Nonempty A into empty B.
        let (h, _) = homomorphism_via_treewidth(&k2, &empty);
        assert!(h.is_none());
    }

    #[test]
    fn isolated_elements_are_mapped() {
        let voc = generators::digraph_vocabulary();
        let mut builder = cqcs_structures::StructureBuilder::new(std::sync::Arc::clone(&voc), 4);
        builder.add_fact("E", &[0, 1]).unwrap();
        let a = builder.finish(); // elements 2, 3 isolated
        let b = generators::complete_graph(2);
        let (h, _) = homomorphism_via_treewidth(&a, &b);
        let h = h.unwrap();
        assert_eq!(h.domain_size(), 4);
        assert!(cqcs_structures::is_homomorphism(h.as_slice(), &a, &b));
    }
}
