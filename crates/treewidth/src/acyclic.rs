//! Acyclic (width-1) instances: GYO reduction and Yannakakis
//! evaluation.
//!
//! Queries of width 1 are exactly the acyclic queries (paper §1), the
//! lineage running from Yannakakis \[Yan81\] through Chekuri–Rajaraman
//! \[CR97\]. The hypergraph of a structure has one hyperedge per tuple
//! (its set of elements); GYO reduction (remove isolated "ear" vertices,
//! remove hyperedges contained in others) empties the hypergraph iff it
//! is α-acyclic, and the containment steps yield a join tree. One
//! bottom-up semijoin pass over candidate `B`-tuples then decides
//! `hom(A → B)` in polynomial time, with a top-down pass extracting a
//! witness.
//!
//! **Forest pre-check.** When every relation has arity ≤ 2 the
//! hyperedges are singletons and pairs, and such a hypergraph is
//! α-acyclic exactly when its graph (the distinct two-element
//! hyperedges) is a forest. Singletons never block the reduction, and
//! on a cycle of pairs every vertex keeps two live edges, so no ear is
//! ever removed and no pair is contained in another. So before reducing,
//! [`gyo_join_tree_pooled`] sorts and deduplicates the pairs and
//! answers `None` when there are at least `|A|` of them (a forest on
//! `|A|` vertices has at most `|A| − 1` edges) or when union-find closes
//! a cycle. The test only ever returns the reduction's own `None`, so
//! forests and wider vocabularies run the unchanged reduction and keep
//! every join tree. On the served `G(8,12)` instances this replaces
//! the reduction's quadratic containment scans with one sort.
//!
//! **Evaluation over tuple indices.** [`yannakakis_pooled`] keeps every
//! per-instance buffer in a [`GyoScratch`]. A node's candidates are
//! `u32` indices into `B`'s relation, held in one flat buffer with a
//! range per node; an element repeated inside an `A`-tuple is checked
//! position by position against its first occurrence. A semijoin
//! compares the child's and the parent's projections onto their shared
//! elements: each projection is a mixed-radix key over `|B|`, looked up
//! in a pooled bitset when `|B|^shared` is small, and otherwise by binary
//! search over the child's candidates sorted by projection. The witness
//! rule is the one [`yannakakis_reference`] (the hash-map evaluation,
//! kept as this route's parity oracle) applies: the root takes its first
//! surviving candidate in `B`'s tuple order, and each child its first
//! surviving candidate that agrees with its parent's pick. The surviving
//! sets and the picks do not depend on the order in which the passes
//! visit nodes, only on children being filtered before their parents,
//! so the two evaluations return the same witness; the passes here walk
//! the reduction's removal order (every child before its parent) and
//! its reverse.

use cqcs_structures::{BitSet, Element, Homomorphism, RelId, Structure};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// A join tree over the tuples of a structure.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// The hyperedges: one per `A`-tuple.
    pub nodes: Vec<(RelId, u32)>,
    /// Parent index per node (`None` for roots; the "tree" may be a
    /// forest when `A` is disconnected).
    pub parent: Vec<Option<usize>>,
}

/// Reusable buffers for the GYO reduction and the Yannakakis
/// evaluation, so a batch driver running the acyclic route on every
/// streamed instance keeps one set of hyperedge bitsets, join-tree
/// arrays and candidate buffers per worker instead of reallocating them
/// per instance. A fresh (default) scratch makes [`gyo_join_tree_pooled`]
/// behave exactly like [`gyo_join_tree`].
#[derive(Debug, Default)]
pub struct GyoScratch {
    /// The last reduction's join tree: one node per `A`-tuple of
    /// positive arity, and its parent.
    nodes: Vec<(RelId, u32)>,
    parent: Vec<Option<usize>>,
    /// The nodes in the order the reduction removed them, then the
    /// survivors: every child comes before its parent.
    order: Vec<u32>,
    /// The duplicate fold's hyperedge indices, sorted by vertex set.
    by_set: Vec<u32>,
    /// Per-hyperedge vertex sets (re-dimensioned per instance).
    edge_sets: Vec<BitSet>,
    /// Liveness flags per hyperedge.
    alive: Vec<bool>,
    /// Vertex occurrence counts among live edges.
    occur: Vec<usize>,
    /// Ear vertices found in the current pass.
    ears: Vec<usize>,
    /// The forest pre-check's distinct two-element hyperedges,
    /// `(min, max)`.
    pairs: Vec<(u32, u32)>,
    /// The forest pre-check's union-find parents, one per element.
    roots: Vec<u32>,
    /// Candidate `B`-tuple indices, node after node.
    cands: Vec<u32>,
    /// Each node's `[start, end)` in `cands`.
    ranges: Vec<(u32, u32)>,
    /// A pattern's repeated positions, `(position, first occurrence)`.
    repeats: Vec<(u32, u32)>,
    /// A child's and its parent's positions of each shared element.
    shared: Vec<(u32, u32)>,
    /// The semijoin's projection keys present in the child.
    keys: Vec<u64>,
    /// The semijoin's child candidates sorted by projection, when the
    /// key space is too large for `keys`.
    sorted: Vec<u32>,
    /// The witness pass's chosen `B`-tuple index per node.
    picks: Vec<u32>,
}

/// Largest projection key space a semijoin keeps as a bitset (8 KiB).
const KEY_BITSET_MAX: u64 = 1 << 16;

/// Attempts the GYO reduction. Returns the join tree if the structure's
/// hypergraph is α-acyclic, `None` otherwise.
pub fn gyo_join_tree(a: &Structure) -> Option<JoinTree> {
    gyo_join_tree_pooled(a, &mut GyoScratch::default())
}

/// [`gyo_join_tree`] with caller-pooled buffers (identical output).
pub fn gyo_join_tree_pooled(a: &Structure, scratch: &mut GyoScratch) -> Option<JoinTree> {
    join_tree_in_scratch(a, scratch).then(|| JoinTree {
        nodes: scratch.nodes.clone(),
        parent: scratch.parent.clone(),
    })
}

/// The pre-check, then the reduction: `true` with the join tree in
/// `scratch.nodes` / `scratch.parent` when `a` is α-acyclic.
fn join_tree_in_scratch(a: &Structure, scratch: &mut GyoScratch) -> bool {
    !graph_has_cycle(a, scratch) && gyo_reduce(a, scratch)
}

/// The forest pre-check (see the [module docs](self)): `true` only when
/// every relation has arity ≤ 2 and the distinct two-element hyperedges
/// contain a cycle, which is exactly when [`gyo_reduce`] gets stuck on
/// such a structure. Wider vocabularies always answer `false`.
fn graph_has_cycle(a: &Structure, scratch: &mut GyoScratch) -> bool {
    let voc = a.vocabulary();
    if voc.max_arity() > 2 {
        return false;
    }
    let GyoScratch { pairs, roots, .. } = scratch;
    pairs.clear();
    for r in voc.iter().filter(|&r| voc.arity(r) == 2) {
        for t in a.relation(r).iter() {
            let (x, y) = (t[0].0, t[1].0);
            if x != y {
                pairs.push((x.min(y), x.max(y)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let n = a.universe();
    if !pairs.is_empty() && pairs.len() >= n {
        return true;
    }
    roots.clear();
    roots.extend(0..n as u32);
    pairs.iter().any(|&(x, y)| {
        let (rx, ry) = (find_root(roots, x), find_root(roots, y));
        roots[rx as usize] = ry;
        rx == ry
    })
}

/// Union-find root of `x`, halving the path on the way.
fn find_root(roots: &mut [u32], mut x: u32) -> u32 {
    while roots[x as usize] != x {
        roots[x as usize] = roots[roots[x as usize] as usize];
        x = roots[x as usize];
    }
    x
}

/// The GYO reduction itself, with no pre-check: `true` with the join
/// tree in `scratch.nodes` / `scratch.parent` when it empties the
/// hypergraph.
fn gyo_reduce(a: &Structure, scratch: &mut GyoScratch) -> bool {
    let GyoScratch {
        nodes,
        parent,
        order,
        by_set,
        edge_sets: edge_pool,
        alive,
        occur,
        ears,
        ..
    } = scratch;
    nodes.clear();
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 {
            continue;
        }
        nodes.extend((0..a.relation(r).len() as u32).map(|t| (r, t)));
    }
    let n = nodes.len();
    // Current (shrinking) vertex sets per hyperedge, as bitsets over
    // the universe: occurrence counting is an array walk and the
    // containment test a word-wise subset check, instead of the
    // hash-set churn this reduction used to spend most of its time on
    // (it sits on the dispatcher's per-instance hot path).
    if edge_pool.len() < n {
        edge_pool.resize_with(n, BitSet::default);
    }
    let edge_sets = &mut edge_pool[..n];
    for (set, &(r, t)) in edge_sets.iter_mut().zip(nodes.iter()) {
        set.reset(a.universe());
        for &e in a.relation(r).tuple(t as usize) {
            set.insert(e.index());
        }
    }
    alive.clear();
    alive.resize(n, true);
    parent.clear();
    parent.resize(n, None);
    order.clear();
    let mut remaining = n;
    occur.clear();
    occur.resize(a.universe(), 0);

    // Exact duplicates (e.g. the two directions of a symmetric edge,
    // or repeated-element tuples collapsing to one set) are contained
    // in their twin by definition; folding them up front keeps the
    // quadratic containment scan off the duplicated bulk. Sorting by
    // (set, index) puts each group's first index first, and that edge
    // becomes the others' parent.
    by_set.clear();
    by_set.extend(0..n as u32);
    by_set.sort_unstable_by(|&i, &j| {
        let (si, sj) = (&edge_sets[i as usize], &edge_sets[j as usize]);
        si.words().cmp(sj.words()).then(i.cmp(&j))
    });
    for k in 1..n {
        let (first, i) = (by_set[k - 1] as usize, by_set[k] as usize);
        if edge_sets[first] == edge_sets[i] {
            alive[i] = false;
            parent[i] = Some(parent[first].unwrap_or(first));
            order.push(i as u32);
            remaining -= 1;
        }
    }

    loop {
        let mut progress = false;
        // Count vertex occurrences among live edges.
        occur.fill(0);
        for (i, set) in edge_sets.iter().enumerate() {
            if alive[i] {
                for v in set.iter() {
                    occur[v] += 1;
                }
            }
        }
        // Ear-vertex removal.
        for (i, set) in edge_sets.iter_mut().enumerate() {
            if alive[i] {
                ears.clear();
                ears.extend(set.iter().filter(|&v| occur[v] <= 1));
                for &v in ears.iter() {
                    set.remove(v);
                }
                if !ears.is_empty() {
                    progress = true;
                }
            }
        }
        // Containment removal (the reduced edge's parent is a live
        // container).
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let container =
                (0..n).find(|&j| j != i && alive[j] && edge_sets[i].is_subset(&edge_sets[j]));
            if let Some(j) = container {
                alive[i] = false;
                parent[i] = Some(j);
                order.push(i as u32);
                remaining -= 1;
                progress = true;
            }
        }
        if remaining <= 1 {
            // Fully reduced (≤ 1 edge per component survives — since
            // containment links everything reachable, a single survivor
            // is the root; disconnected components each kept a root
            // earlier... handle below).
            break;
        }
        if !progress {
            // Check whether what is left is several disconnected
            // survivors with empty vertex sets (a forest), which is
            // still acyclic.
            let stuck = (0..n)
                .filter(|&i| alive[i])
                .any(|i| !edge_sets[i].is_empty());
            if stuck {
                return false;
            }
            break;
        }
    }
    order.extend((0..n as u32).filter(|&i| alive[i as usize]));
    true
}

/// Whether the structure's hypergraph is α-acyclic.
pub fn is_acyclic(a: &Structure) -> bool {
    gyo_join_tree(a).is_some()
}

/// Yannakakis-style evaluation: decides `hom(A → B)` for an acyclic `A`
/// and returns a witness. The outer `Option` is `None` when `A` is
/// *not* acyclic; the inner one is the verdict.
pub fn yannakakis(a: &Structure, b: &Structure) -> Option<Option<Homomorphism>> {
    yannakakis_pooled(a, b, &mut GyoScratch::default())
}

/// [`yannakakis`] with caller-pooled buffers (identical output) — the
/// batch drivers hand every instance's acyclic route one per-worker
/// scratch, and the evaluation allocates nothing but the witness at
/// steady state (see the [module docs](self)).
pub fn yannakakis_pooled(
    a: &Structure,
    b: &Structure,
    scratch: &mut GyoScratch,
) -> Option<Option<Homomorphism>> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    if !join_tree_in_scratch(a, scratch) {
        return None;
    }
    // Global 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Some(None);
        }
    }
    if a.universe() > 0 && b.universe() == 0 {
        return Some(None);
    }
    if !candidates(a, b, scratch) {
        return Some(None);
    }
    let GyoScratch {
        nodes,
        parent,
        cands,
        ranges,
        shared,
        order,
        keys,
        sorted,
        picks,
        ..
    } = scratch;
    let pattern = |i: usize| a.relation(nodes[i].0).tuple(nodes[i].1 as usize);
    let tuple = |i: usize, w: u32| b.relation(nodes[i].0).tuple(w as usize);

    // Bottom-up semijoins: filter each parent by each child.
    for &i in order.iter() {
        let i = i as usize;
        let Some(p) = parent[i] else { continue };
        shared_positions(pattern(i), pattern(p), shared);
        // With nothing shared, a child with any candidate keeps every
        // parent candidate.
        if shared.is_empty() {
            continue;
        }
        let (child, (start, end)) = (ranges[i], ranges[p]);
        let radix = b.universe() as u64;
        // A projection onto the shared elements, read at the child's or
        // the parent's positions.
        let key = |t: &[Element], side: Side| {
            shared
                .iter()
                .fold(0u64, |k, pos| k * radix + u64::from(t[side(pos)].0))
        };
        let cmp = |x: &[Element], y: &[Element], y_side: Side| {
            shared
                .iter()
                .map(|pos| x[child_pos(pos)].cmp(&y[y_side(pos)]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut kept = start;
        match radix.checked_pow(shared.len() as u32) {
            Some(space) if space <= KEY_BITSET_MAX => {
                if (keys.len() as u64) * 64 < space {
                    keys.resize(space.div_ceil(64) as usize, 0);
                }
                for &w in &cands[child.0 as usize..child.1 as usize] {
                    let k = key(tuple(i, w), child_pos);
                    keys[(k / 64) as usize] |= 1 << (k % 64);
                }
                for c in start..end {
                    let w = cands[c as usize];
                    let k = key(tuple(p, w), parent_pos);
                    if keys[(k / 64) as usize] >> (k % 64) & 1 == 1 {
                        cands[kept as usize] = w;
                        kept += 1;
                    }
                }
                for &w in &cands[child.0 as usize..child.1 as usize] {
                    keys[(key(tuple(i, w), child_pos) / 64) as usize] = 0;
                }
            }
            _ => {
                sorted.clear();
                sorted.extend_from_slice(&cands[child.0 as usize..child.1 as usize]);
                sorted.sort_unstable_by(|&x, &y| cmp(tuple(i, x), tuple(i, y), child_pos));
                for c in start..end {
                    let w = cands[c as usize];
                    let pt = tuple(p, w);
                    if sorted
                        .binary_search_by(|&x| cmp(tuple(i, x), pt, parent_pos))
                        .is_ok()
                    {
                        cands[kept as usize] = w;
                        kept += 1;
                    }
                }
            }
        }
        ranges[p].1 = kept;
        if kept == start {
            return Some(None);
        }
    }

    // Top-down witness extraction.
    let mut map = vec![Element(0); a.universe()];
    picks.clear();
    picks.resize(nodes.len(), 0);
    for &i in order.iter().rev() {
        let i = i as usize;
        let (start, end) = ranges[i];
        let mine = &cands[start as usize..end as usize];
        let pick = match parent[i] {
            None => mine[0],
            Some(p) => {
                shared_positions(pattern(i), pattern(p), shared);
                let pt = tuple(p, picks[p]);
                *mine
                    .iter()
                    .find(|&&w| {
                        let t = tuple(i, w);
                        shared
                            .iter()
                            .all(|&(qc, qp)| t[qc as usize] == pt[qp as usize])
                    })
                    .expect("semijoin kept only supported parents")
            }
        };
        picks[i] = pick;
        for (&e, &v) in pattern(i).iter().zip(tuple(i, pick)) {
            map[e.index()] = v;
        }
    }
    debug_assert!(cqcs_structures::is_homomorphism(&map, a, b));
    Some(Some(Homomorphism::from_map(map)))
}

/// Fills `scratch.cands` / `scratch.ranges` with each node's candidate
/// `B`-tuple indices, in `B`'s tuple order: the tuples that repeat an
/// element wherever the node's `A`-tuple does. `false` as soon as a
/// node has none.
fn candidates(a: &Structure, b: &Structure, scratch: &mut GyoScratch) -> bool {
    let GyoScratch {
        nodes,
        cands,
        ranges,
        repeats,
        ..
    } = scratch;
    cands.clear();
    ranges.clear();
    for &(r, t) in nodes.iter() {
        let pattern = a.relation(r).tuple(t as usize);
        repeats.clear();
        for q in 1..pattern.len() {
            if let Some(first) = pattern[..q].iter().position(|&e| e == pattern[q]) {
                repeats.push((q as u32, first as u32));
            }
        }
        let rel = b.relation(r);
        let start = cands.len() as u32;
        cands.extend((0..rel.len() as u32).filter(|&w| {
            let bt = rel.tuple(w as usize);
            repeats
                .iter()
                .all(|&(q, first)| bt[q as usize] == bt[first as usize])
        }));
        let end = cands.len() as u32;
        if end == start {
            return false;
        }
        ranges.push((start, end));
    }
    true
}

/// Which side of a shared-position pair to read.
type Side = fn(&(u32, u32)) -> usize;

fn child_pos(pos: &(u32, u32)) -> usize {
    pos.0 as usize
}

fn parent_pos(pos: &(u32, u32)) -> usize {
    pos.1 as usize
}

/// The positions of the elements `child` shares with `parent`, as
/// `(position in child, position in parent)`, first occurrences only.
fn shared_positions(child: &[Element], parent: &[Element], out: &mut Vec<(u32, u32)>) {
    out.clear();
    for (qc, e) in child.iter().enumerate() {
        if child[..qc].contains(e) {
            continue;
        }
        if let Some(qp) = parent.iter().position(|x| x == e) {
            out.push((qc as u32, qp as u32));
        }
    }
}

/// The hash-map Yannakakis evaluation — this route's parity oracle.
/// [`yannakakis_pooled`] must return exactly its answer, witness
/// included; the property suite pins the two together.
pub fn yannakakis_reference(a: &Structure, b: &Structure) -> Option<Option<Homomorphism>> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    let jt = gyo_join_tree(a)?;

    // Global 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Some(None);
        }
    }
    if a.universe() > 0 && b.universe() == 0 {
        return Some(None);
    }

    let n = jt.nodes.len();
    // Candidate B-tuples per A-tuple (respecting repeated elements).
    let mut candidates: Vec<Vec<Vec<Element>>> = Vec::with_capacity(n);
    for &(r, t) in &jt.nodes {
        let pattern = a.relation(r).tuple(t as usize);
        let mut cands = Vec::new();
        'witness: for w in b.relation(r).iter() {
            let mut seen: HashMap<u32, Element> = HashMap::new();
            for (pos, &e) in pattern.iter().enumerate() {
                match seen.get(&e.0) {
                    Some(&v) if v != w[pos] => continue 'witness,
                    Some(_) => {}
                    None => {
                        seen.insert(e.0, w[pos]);
                    }
                }
            }
            cands.push(w.to_vec());
        }
        if cands.is_empty() {
            return Some(None);
        }
        candidates.push(cands);
    }

    // Children lists + topological (leaves-first) order.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, p) in jt.parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    let order = {
        // Process nodes so every child precedes its parent: sort by
        // decreasing depth.
        let mut depth = vec![0usize; n];
        for (i, slot) in depth.iter_mut().enumerate() {
            let mut d = 0;
            let mut cur = i;
            while let Some(p) = jt.parent[cur] {
                d += 1;
                cur = p;
            }
            *slot = d;
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
        idx
    };

    // Shared elements between node and parent, as (pos_in_child,
    // positions-in-parent) via element ids.
    let shared_elems = |i: usize, p: usize| -> Vec<u32> {
        let (ri, ti) = jt.nodes[i];
        let (rp, tp) = jt.nodes[p];
        let pi: HashSet<u32> = a
            .relation(ri)
            .tuple(ti as usize)
            .iter()
            .map(|e| e.0)
            .collect();
        let pp: HashSet<u32> = a
            .relation(rp)
            .tuple(tp as usize)
            .iter()
            .map(|e| e.0)
            .collect();
        let mut v: Vec<u32> = pi.intersection(&pp).copied().collect();
        v.sort_unstable();
        v
    };
    // Projection of a candidate onto a set of A-elements.
    let project = |i: usize, w: &[Element], elems: &[u32]| -> Vec<Element> {
        let (r, t) = jt.nodes[i];
        let pattern = a.relation(r).tuple(t as usize);
        elems
            .iter()
            .map(|&e| {
                let pos = pattern
                    .iter()
                    .position(|x| x.0 == e)
                    .expect("shared element");
                w[pos]
            })
            .collect()
    };

    // Bottom-up semijoins: filter each parent by each child.
    for &i in &order {
        let Some(p) = jt.parent[i] else { continue };
        let elems = shared_elems(i, p);
        let child_proj: HashSet<Vec<Element>> = candidates[i]
            .iter()
            .map(|w| project(i, w, &elems))
            .collect();
        let before = candidates[p].len();
        let kept: Vec<Vec<Element>> = candidates[p]
            .iter()
            .filter(|w| child_proj.contains(&project(p, w, &elems)))
            .cloned()
            .collect();
        candidates[p] = kept;
        let _ = before;
        if candidates[p].is_empty() {
            return Some(None);
        }
    }

    // Top-down witness extraction.
    let mut map: Vec<Option<Element>> = vec![None; a.universe()];
    let mut chosen: Vec<Option<Vec<Element>>> = vec![None; n];
    for &i in order.iter().rev() {
        let pick = match jt.parent[i] {
            None => candidates[i][0].clone(),
            Some(p) => {
                let elems = shared_elems(i, p);
                let parent_proj =
                    project(p, chosen[p].as_ref().expect("parents chosen first"), &elems);
                candidates[i]
                    .iter()
                    .find(|w| project(i, w, &elems) == parent_proj)
                    .expect("semijoin kept only supported parents")
                    .clone()
            }
        };
        let (r, t) = jt.nodes[i];
        for (pos, &e) in a.relation(r).tuple(t as usize).iter().enumerate() {
            debug_assert!(
                map[e.index()].is_none() || map[e.index()] == Some(pick[pos]),
                "join-tree connectivity guarantees agreement"
            );
            map[e.index()] = Some(pick[pos]);
        }
        chosen[i] = Some(pick);
    }
    // Isolated elements map to 0.
    let h: Vec<Element> = map.into_iter().map(|o| o.unwrap_or(Element(0))).collect();
    debug_assert!(cqcs_structures::is_homomorphism(&h, a, b));
    Some(Some(Homomorphism::from_map(h)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn paths_and_stars_are_acyclic() {
        assert!(is_acyclic(&generators::directed_path(6)));
        let star = generators::random_structure(1, &[1], 1, 0); // trivial
        assert!(is_acyclic(&star));
        // A star: edges (0,i).
        let voc = generators::digraph_vocabulary();
        let mut b = cqcs_structures::StructureBuilder::new(voc, 5);
        for i in 1..5u32 {
            b.add_fact("E", &[0, i]).unwrap();
        }
        assert!(is_acyclic(&b.finish()));
    }

    #[test]
    fn cycles_are_not_acyclic() {
        assert!(!is_acyclic(&generators::directed_cycle(3)));
        assert!(!is_acyclic(&generators::undirected_cycle(4)));
    }

    #[test]
    fn wide_tuples_make_acyclic_hypergraphs() {
        // A single ternary tuple is acyclic even though its Gaifman
        // graph is a triangle — the hypergraph view matters (the paper's
        // incidence-treewidth discussion).
        let voc = cqcs_structures::Vocabulary::from_symbols([("R", 3)])
            .unwrap()
            .into_shared();
        let mut b = cqcs_structures::StructureBuilder::new(voc, 3);
        b.add_fact("R", &[0, 1, 2]).unwrap();
        assert!(is_acyclic(&b.finish()));
    }

    #[test]
    fn yannakakis_matches_reference_on_paths() {
        let t4 = generators::transitive_tournament(4);
        for n in 2..=6 {
            let p = generators::directed_path(n);
            let res = yannakakis(&p, &t4).expect("paths are acyclic");
            assert_eq!(res.is_some(), n <= 4, "P{n} → TT4");
            if let Some(h) = res {
                assert!(cqcs_structures::is_homomorphism(h.as_slice(), &p, &t4));
            }
        }
    }

    #[test]
    fn yannakakis_on_random_trees() {
        // Random tree-shaped structures (partial 1-trees with all edges
        // kept are trees/forests).
        for seed in 0..10u64 {
            let a = generators::partial_ktree(8, 1, 1.0, seed);
            if !is_acyclic(&a) {
                // Symmetric edge pairs make hyperedges {u,v} duplicated
                // — still acyclic via containment; this branch should
                // not trigger.
                panic!("1-trees must be acyclic, seed {seed}");
            }
            let b = generators::random_digraph(4, 0.4, seed + 42);
            let res = yannakakis(&a, &b).unwrap();
            assert_eq!(res.is_some(), homomorphism_exists(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn non_acyclic_returns_outer_none() {
        let c4 = generators::undirected_cycle(4);
        let k2 = generators::complete_graph(2);
        assert!(yannakakis(&c4, &k2).is_none());
    }

    #[test]
    fn repeated_element_patterns() {
        // A tuple E(x, x) needs a loop in B.
        let voc = generators::digraph_vocabulary();
        let mut ab = cqcs_structures::StructureBuilder::new(std::sync::Arc::clone(&voc), 1);
        ab.add_fact("E", &[0, 0]).unwrap();
        let a = ab.finish();
        let k2 = generators::complete_graph(2);
        assert_eq!(yannakakis(&a, &k2), Some(None), "K2 has no loops");
        let mut bb = cqcs_structures::StructureBuilder::new(voc, 1);
        bb.add_fact("E", &[0, 0]).unwrap();
        let loopy = bb.finish();
        let res = yannakakis(&a, &loopy).unwrap();
        assert!(res.is_some());
    }

    #[test]
    fn pooled_gyo_reuse_is_invisible() {
        // One scratch reused across a stream of instances of varying
        // size must reproduce the fresh-buffer results exactly — join
        // tree shape, acyclicity verdicts, and Yannakakis output.
        let mut scratch = GyoScratch::default();
        let b = generators::random_digraph(4, 0.4, 99);
        for seed in 0..15u64 {
            let n = 3 + (seed as usize % 6);
            let a = generators::random_digraph(n, 0.35, seed);
            let fresh = gyo_join_tree(&a);
            let pooled = gyo_join_tree_pooled(&a, &mut scratch);
            match (&fresh, &pooled) {
                (None, None) => {}
                (Some(f), Some(p)) => {
                    assert_eq!(f.nodes, p.nodes, "seed {seed}");
                    assert_eq!(f.parent, p.parent, "seed {seed}");
                }
                _ => panic!("acyclicity verdict diverged, seed {seed}"),
            }
            assert_eq!(
                yannakakis(&a, &b),
                yannakakis_pooled(&a, &b, &mut scratch),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn forest_precheck_rejects_exactly_where_the_reduction_gets_stuck() {
        // Seeded arity-≤2 structures of every shape the pre-check sees:
        // digraphs sparse and dense, and mixed vocabularies with 0-ary,
        // unary and two binary relations (self-loops, both directions of
        // an edge, repeated facts).
        let mut scratch = GyoScratch::default();
        let mut rejected = 0;
        for seed in 0..6000u64 {
            let n = 1 + (seed as usize % 9);
            let p = [0.05, 0.1, 0.2, 0.35][(seed / 9) as usize % 4];
            let digraph = generators::random_digraph(n, p, seed);
            let mixed = generators::random_structure(n, &[0, 1, 2, 2], seed as usize % 7, seed);
            for a in [digraph, mixed] {
                let stuck = !gyo_reduce(&a, &mut scratch);
                assert_eq!(graph_has_cycle(&a, &mut scratch), stuck, "seed {seed}");
                rejected += usize::from(stuck);
            }
        }
        assert!(
            (2_000..10_000).contains(&rejected),
            "both verdicts well represented: {rejected} of 12000 rejected"
        );
        // Wider vocabularies always take the reduction.
        let wide = generators::random_structure(6, &[3], 8, 1);
        assert!(!graph_has_cycle(&wide, &mut scratch));
    }

    #[test]
    fn disconnected_acyclic_structures() {
        // Two disjoint edges: a forest; GYO leaves two empty survivors.
        let voc = generators::digraph_vocabulary();
        let mut b = cqcs_structures::StructureBuilder::new(voc, 4);
        b.add_fact("E", &[0, 1]).unwrap();
        b.add_fact("E", &[2, 3]).unwrap();
        let a = b.finish();
        assert!(is_acyclic(&a));
        let t2 = generators::transitive_tournament(2);
        let res = yannakakis(&a, &t2).unwrap();
        assert!(res.is_some());
    }
}
