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
//! The DP runs compiled, on a reusable [`DpScratch`]:
//!
//! * **Front end.** [`solve_min_fill_pooled`] builds `A`'s Gaifman
//!   graph as word rows straight from `A`'s tuples and eliminates it in
//!   min-fill order ([`crate::heuristics`]'s elimination core), which
//!   emits the bags as word rows and the tree edges. Those rows are
//!   lowered directly: no graph, no `BitSet` bag and no
//!   [`TreeDecomposition`] is built, and a decomposition the solver
//!   built itself is not re-validated. [`solve_with_order_pooled`] does
//!   the same for a given elimination order, and
//!   [`solve_with_decomposition_pooled`] validates a caller's
//!   decomposition and loads it into the same rows, so there is one
//!   lowering. Under a width budget, min-fill stops at the first bag
//!   wider than it, and [`DpScratch::proves_treewidth_above`] reloads
//!   the rows for an MMD⁺ bound that can prove no order fits.
//! * **Lowering.** Flat arrays: bag elements, each `A`-tuple as a
//!   relation plus bag positions checked at the first bag holding it
//!   (found by AND-ing per-element rows of holder bags), each child's
//!   positions shared with its parent, the tree order. Each child's
//!   table is a mixed-radix array over its projection onto the parent
//!   bag, holding the first kept row per projection.
//! * **Fill.** A bag with `|B|^{|bag|} ≤ 128` rows is filled as one row
//!   set, a `u128` over its rows: the AND of one mask per tuple check
//!   (the union, over the `B`-tuples, of the rows agreeing with one) and
//!   one per child table (the union, over the child's kept projections,
//!   of the rows projecting onto one), all built from cached position
//!   masks (the rows with value `v` at position `p`). Its kept rows are
//!   read off in ascending row order, which is the odometer order.
//!   Larger bags walk the odometer (position 0 fastest), testing each
//!   row's tuples as an AND of the template's [`SupportIndex`] bitsets
//!   and probing each child's table.
//!
//! [`solve_with_decomposition_reference`] is the hash-map DP the
//! compiled one replaced, kept as the parity oracle: both enumerate
//! every bag in odometer order and let the first kept row represent its
//! projection, so verdicts and witnesses are identical.

use crate::decomposition::{DecompositionError, TreeDecomposition};
use crate::heuristics::{holds, members, rank, Elimination};
use cqcs_structures::{Element, Homomorphism, RelId, Structure, SupportIndex};
use std::collections::HashMap;

/// An empty child-table slot, and the root's parent.
const NONE: u32 = u32::MAX;

/// Bags with at most this many rows (`|B|^{|bag|}`) are filled as one
/// row set, a `u128` mask over the rows.
const ROW_SET_ROWS: usize = 128;

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

/// The row-set tables for one `|B| ≥ 2`, for every bag size `k` with
/// `|B|^k ≤ ROW_SET_ROWS`. Row `r` of a `k`-element bag assigns
/// position `p` the value `(r / |B|^p) mod |B|`, so ascending rows are
/// the odometer order.
#[derive(Debug, Default)]
struct RowSets {
    /// `|B|` the tables describe (0 before the first build).
    base: usize,
    /// Per bag size `k`: where its masks and digits start.
    at: Vec<(usize, usize)>,
    /// `masks[at[k].0 + p * base + v]`: the rows with value `v` at
    /// position `p`.
    masks: Vec<u128>,
    /// `digits[at[k].1 + r * k..][..k]`: row `r`'s values, position 0
    /// first.
    digits: Vec<u32>,
}

impl RowSets {
    /// Builds the tables for `m = |B| ≥ 2`, unless they describe it
    /// already.
    fn prepare(&mut self, m: usize) {
        if self.base == m {
            return;
        }
        self.base = m;
        self.at.clear();
        self.masks.clear();
        self.digits.clear();
        let (mut k, mut rows) = (0, 1);
        while rows <= ROW_SET_ROWS {
            let masks = self.masks.len();
            self.at.push((masks, self.digits.len()));
            self.masks.resize(masks + k * m, 0);
            for r in 0..rows {
                let mut x = r;
                for p in 0..k {
                    self.masks[masks + p * m + x % m] |= 1 << r;
                    self.digits.push((x % m) as u32);
                    x /= m;
                }
            }
            k += 1;
            rows *= m;
        }
    }

    /// Whether a `k`-element bag over `m = |B|` is filled as a row set.
    #[inline]
    fn covers(&self, m: usize, k: usize) -> bool {
        m >= 2 && k < self.at.len()
    }

    /// Every row of a `k`-element bag.
    #[inline]
    fn all(&self, k: usize) -> u128 {
        u128::MAX >> (128 - self.base.pow(k as u32))
    }

    #[inline]
    fn mask(&self, k: usize, p: usize, v: usize) -> u128 {
        self.masks[self.at[k].0 + p * self.base + v]
    }

    #[inline]
    fn digits(&self, k: usize, r: usize) -> &[u32] {
        let at = self.at[k].1 + r * k;
        &self.digits[at..at + k]
    }

    /// The rows of a `k`-element bag that map a check's tuple onto a
    /// tuple of `B`: the union, over `B`'s tuples, of the rows agreeing
    /// with one.
    fn check(&self, k: usize, args: &[u32], rel: &cqcs_structures::Relation) -> u128 {
        rel.iter().fold(0, |set, t| {
            set | args.iter().zip(t).fold(u128::MAX, |acc, (&p, v)| {
                acc & self.mask(k, p as usize, v.index())
            })
        })
    }

    /// The rows of a `k`-element bag whose projection onto a child's
    /// shared elements (`shared`, as parent positions) has a kept row in
    /// the child's `table`.
    fn supported(&self, k: usize, shared: &[(u32, u32)], table: &[u32]) -> u128 {
        let s = shared.len();
        table
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != NONE)
            .fold(0, |set, (slot, _)| {
                // The first shared element is the slot's most
                // significant digit.
                let digits = self.digits(s, slot).iter().rev();
                set | shared
                    .iter()
                    .zip(digits)
                    .fold(u128::MAX, |acc, (&(q, _), &d)| {
                        acc & self.mask(k, q as usize, d as usize)
                    })
            })
    }
}

/// Reusable buffers for the compiled DP: the elimination core's rows,
/// the lowered decomposition, the flat bag tables and the row-set
/// tables. A batch worker keeps one next to its propagation arena so
/// the route allocates nothing once the buffers reach the batch's
/// high-water mark; a fresh (default) scratch gives the same answers.
/// When min-fill overshoots a width budget, the same rows serve the
/// MMD⁺ bound that can prove no order fits
/// ([`proves_treewidth_above`](DpScratch::proves_treewidth_above)).
#[derive(Debug, Default)]
pub struct DpScratch {
    /// `A`'s Gaifman graph as word rows and its elimination's bags and
    /// tree edges, or a caller's decomposition loaded into the same rows.
    elim: Elimination,
    nodes: Vec<Node>,
    bag_elems: Vec<u32>,
    /// `holders[e * words..][..words]`: the bags holding element `e`, as
    /// a word row over bag indices.
    holders: Vec<u64>,
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
    sets: RowSets,
}

/// What [`solve_min_fill_pooled`] did with one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinFillOutcome {
    /// `A`'s min-fill decomposition has width `width`, within the
    /// budget, and the DP over it answered.
    Solved {
        /// The width of the decomposition the DP ran on.
        width: usize,
        /// A homomorphism, or `None` when there is none.
        homomorphism: Option<Homomorphism>,
    },
    /// Min-fill reached a bag wider than the budget and stopped there;
    /// the DP did not run. [`DpScratch::proves_treewidth_above`] can
    /// then prove that no order fits the budget.
    OverBudget,
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
/// `b`, on caller-pooled buffers (identical output). The decomposition
/// is validated, then loaded into the same bag rows an elimination
/// emits.
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
    td.validate_shape(a.universe())?;
    scratch.elim.load_decomposition(td, a.universe());
    scratch.lower(a)?;
    Ok(scratch.solve_lowered(a, b, support))
}

/// The Theorem 5.4 route in one step: eliminates `A`'s Gaifman graph,
/// built straight from `A`'s tuples, in min-fill order, and when the
/// width is at most `max_width` runs the DP over the elimination's bags
/// against a prebuilt support index over `b`; min-fill stops at the
/// first bag wider than `max_width`. The answer is identical to
/// [`solve_with_decomposition`] on
/// `decomposition_from_elimination(&gaifman_graph(a), &min_fill_order(..))`.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn solve_min_fill_pooled(
    a: &Structure,
    b: &Structure,
    support: &SupportIndex,
    max_width: usize,
    scratch: &mut DpScratch,
) -> MinFillOutcome {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    scratch.elim.load_structure(a);
    if !scratch.elim.run(None, max_width) {
        return MinFillOutcome::OverBudget;
    }
    MinFillOutcome::Solved {
        width: scratch.elim.width(),
        homomorphism: scratch.solve_eliminated(a, b, support),
    }
}

/// [`solve_min_fill_pooled`] on a given elimination order of `A`'s
/// Gaifman graph (a permutation of `A`'s elements), with no width
/// budget.
///
/// # Panics
/// Panics if the structures are over different vocabularies, or if
/// `order` is not a permutation of `A`'s elements.
pub fn solve_with_order_pooled(
    a: &Structure,
    b: &Structure,
    order: &[usize],
    support: &SupportIndex,
    scratch: &mut DpScratch,
) -> Option<Homomorphism> {
    assert!(
        a.same_vocabulary(b),
        "homomorphism across different vocabularies"
    );
    scratch.elim.load_structure(a);
    scratch.elim.run(Some(order), usize::MAX);
    scratch.solve_eliminated(a, b, support)
}

/// `pool[start..start + len]`.
#[inline]
fn span<T>(pool: &[T], start: u32, len: u32) -> &[T] {
    &pool[start as usize..(start + len) as usize]
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
        (0..support.tuple_words(c.rel)).any(|w| {
            args.iter().enumerate().fold(u64::MAX, |acc, (j, &p)| {
                acc & support.supports(c.rel, j, vals[p as usize] as usize)[w]
            }) != 0
        })
    })
}

/// Where one bag's kept rows go, offered in ascending row order: the
/// root keeps its first row, every other node the first row for each
/// projection onto its parent's bag.
struct Keep<'s> {
    /// The node's (parent position, own position) pairs.
    shared: &'s [(u32, u32)],
    root: bool,
    table: usize,
    /// Projections onto the parent's bag: `|B|^shared`.
    capacity: usize,
    m: usize,
    kept: usize,
    /// The root's kept row.
    chosen: u32,
}

impl Keep<'_> {
    /// Offers a row that passed every check; `true` once the node needs
    /// no more rows.
    #[inline]
    fn offer(&mut self, vals: &[u32], slots: &mut [u32], rows: &mut Vec<u32>) -> bool {
        let row = u32::try_from(rows.len()).expect("kept rows fit u32 offsets");
        if self.root {
            rows.extend_from_slice(vals);
            self.chosen = row;
            self.kept = 1;
            return true;
        }
        let slot = &mut slots[self.table + slot_of(vals, self.shared.iter().map(|s| s.1), self.m)];
        if *slot != NONE {
            return false;
        }
        *slot = row;
        rows.extend_from_slice(vals);
        self.kept += 1;
        self.kept == self.capacity // every projection has its row
    }
}

/// The answer when one is decided without the DP: a failed 0-ary
/// precondition, an empty `A`, or an empty `B`.
fn trivial_answer(a: &Structure, b: &Structure) -> Option<Option<Homomorphism>> {
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return Some(None);
        }
    }
    if a.universe() == 0 {
        return Some(Some(Homomorphism::from_map(Vec::new())));
    }
    (b.universe() == 0).then_some(None)
}

impl DpScratch {
    /// Whether the MMD or MMD⁺ lower bound on the treewidth of `A`'s
    /// Gaifman graph exceeds `k`:
    /// `mmd_lower_bound(&g).max(mmd_plus_lower_bound(&g)) > k` for
    /// `g = gaifman_graph(a)`, decided on the scratch's word rows
    /// (reloaded from `A`'s tuples) without building `g`. `true` proves
    /// that no elimination order of `A` has width at most `k`; `false`
    /// proves nothing. The run stops at its first minimum degree above
    /// `k` (see [`lower_bounds`](crate::lower_bounds)).
    pub fn proves_treewidth_above(&mut self, a: &Structure, k: usize) -> bool {
        self.elim.load_structure(a);
        self.elim.mmd_plus_exceeds(k)
    }

    /// Lowers and solves the elimination the core just ran on `a`.
    fn solve_eliminated(
        &mut self,
        a: &Structure,
        b: &Structure,
        support: &SupportIndex,
    ) -> Option<Homomorphism> {
        // An empty `A` has no bags (and needs none: `trivial_answer`).
        if a.universe() > 0 {
            self.lower(a)
                .expect("the bags of an elimination of A's Gaifman graph cover every tuple");
        }
        self.solve_lowered(a, b, support)
    }

    /// Runs the DP over the lowered bags.
    fn solve_lowered(
        &mut self,
        a: &Structure,
        b: &Structure,
        support: &SupportIndex,
    ) -> Option<Homomorphism> {
        debug_assert_eq!(support.universe(), b.universe(), "index over another B");
        if let Some(answer) = trivial_answer(a, b) {
            return answer;
        }
        let m = b.universe();
        self.link(m);
        if !self.fill_tables(b, support, m) {
            return None;
        }
        let h = self.witness(a.universe(), m);
        debug_assert!(cqcs_structures::is_homomorphism(&h, a, b));
        Some(Homomorphism::from_map(h))
    }

    /// Lowers the bag rows and assigns every `A`-tuple to the first bag
    /// holding all of its elements: the lowest set bit of the AND of its
    /// elements' holder rows. A tuple no bag holds is the decomposition's
    /// coverage error, reported here in vocabulary and tuple order, so
    /// coverage is scanned once.
    fn lower(&mut self, a: &Structure) -> Result<(), DecompositionError> {
        let DpScratch {
            elim,
            nodes,
            bag_elems,
            holders,
            checks,
            arg_pos,
            ..
        } = self;
        let count = elim.bag_count();
        let hw = count.div_ceil(64).max(1);
        nodes.clear();
        bag_elems.clear();
        checks.clear();
        arg_pos.clear();
        holders.clear();
        holders.resize(a.universe() * hw, 0);
        for i in 0..count {
            let start = bag_elems.len() as u32;
            for e in members(elim.bag(i)) {
                bag_elems.push(e as u32);
                holders[e * hw + i / 64] |= 1 << (i % 64);
            }
            nodes.push(Node {
                bag: start,
                len: bag_elems.len() as u32 - start,
                ..Node::default()
            });
        }
        let voc = a.vocabulary();
        for r in voc.iter() {
            for (ti, tuple) in a.relation(r).iter().enumerate() {
                let holder = if tuple.is_empty() {
                    (count > 0).then_some(0) // every bag holds a 0-ary tuple
                } else {
                    (0..hw).find_map(|k| {
                        let common = tuple
                            .iter()
                            .fold(u64::MAX, |acc, e| acc & holders[e.index() * hw + k]);
                        (common != 0).then(|| k * 64 + common.trailing_zeros() as usize)
                    })
                };
                let holder = holder.ok_or_else(|| DecompositionError::TupleNotCovered {
                    relation: voc.name(r).to_owned(),
                    tuple_index: ti,
                })?;
                if tuple.is_empty() {
                    continue; // 0-ary: a global precondition, not a bag check
                }
                let args = arg_pos.len() as u32;
                let bag = elim.bag(holder);
                arg_pos.extend(tuple.iter().map(|e| rank(bag, e.index())));
                checks.push(Check {
                    node: holder as u32,
                    rel: r,
                    args,
                    arity: tuple.len() as u32,
                });
            }
        }
        checks.sort_unstable_by_key(|c| c.node);
        let mut c = 0;
        for (u, node) in nodes.iter_mut().enumerate() {
            node.checks = c as u32;
            while checks.get(c).is_some_and(|ch| ch.node as usize == u) {
                c += 1;
            }
            node.checks_len = c as u32 - node.checks;
        }
        Ok(())
    }

    /// Roots the tree at node 0 and sizes each child's table over its
    /// projection onto the parent bag: `|B|^{shared}` slots, never more
    /// than the child's own `|B|^{|bag|}` enumeration.
    fn link(&mut self, m: usize) {
        let DpScratch {
            elim,
            nodes,
            bag_elems,
            adj,
            order,
            shared,
            slots,
            ..
        } = self;
        adj.clear();
        adj.extend(elim.edges().iter().flat_map(|&(u, v)| [(u, v), (v, u)]));
        adj.sort_unstable();
        order.clear();
        order.push(0);
        nodes[0].parent = NONE;
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            let from = adj.partition_point(|&(x, _)| x < u);
            let to = from + adj[from..].partition_point(|&(x, _)| x == u);
            let node = &mut nodes[u as usize];
            (node.nbrs, node.nbrs_len) = (from as u32, (to - from) as u32);
            let parent = node.parent;
            for &(_, v) in &adj[from..to] {
                if v != parent {
                    nodes[v as usize].parent = u;
                    order.push(v);
                }
            }
        }
        shared.clear();
        let mut table = 0usize;
        for &c in &order[1..] {
            let node = &mut nodes[c as usize];
            let parent_bag = elim.bag(node.parent as usize);
            let start = shared.len();
            for (i, &e) in span(bag_elems, node.bag, node.len).iter().enumerate() {
                if holds(parent_bag, e as usize) {
                    shared.push((rank(parent_bag, e as usize), i as u32));
                }
            }
            node.shared = start as u32;
            node.shared_len = (shared.len() - start) as u32;
            node.table = table;
            table = m
                .checked_pow(node.shared_len)
                .and_then(|slots| table.checked_add(slots))
                .expect("bag tables exceed the address space");
        }
        slots.clear();
        slots.resize(table, NONE);
    }

    /// Fills every bag's table, children first, keeping a row when its
    /// tuples hold in `B` and every child's table has a row for its
    /// projection — the first such row per projection onto the parent,
    /// and at the root the first one overall. Small bags are filled as
    /// row sets, larger ones by the odometer; both offer rows in
    /// odometer order, so they keep the same rows. `false` when some bag
    /// keeps nothing (no homomorphism).
    fn fill_tables(&mut self, b: &Structure, support: &SupportIndex, m: usize) -> bool {
        if m >= 2 {
            self.sets.prepare(m);
        }
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
            sets,
            ..
        } = self;
        rows.clear();
        for &u in order.iter().rev() {
            let node = nodes[u as usize];
            let own_checks = span(checks, node.checks, node.checks_len);
            let children = span(adj, node.nbrs, node.nbrs_len)
                .iter()
                .map(|&(_, c)| nodes[c as usize])
                .filter(|c| c.parent == u);
            let mut keep = Keep {
                shared: span(shared, node.shared, node.shared_len),
                root: node.parent == NONE,
                table: node.table,
                capacity: m.pow(node.shared_len),
                m,
                kept: 0,
                chosen: NONE,
            };
            let k = node.len as usize;
            if sets.covers(m, k) {
                let mut set = sets.all(k);
                for c in own_checks {
                    set &= sets.check(k, span(arg_pos, c.args, c.arity), b.relation(c.rel));
                }
                for child in children {
                    let sh = span(shared, child.shared, child.shared_len);
                    let table = &slots[child.table..child.table + m.pow(child.shared_len)];
                    set &= sets.supported(k, sh, table);
                }
                while set != 0 {
                    let r = set.trailing_zeros() as usize;
                    set &= set - 1;
                    if keep.offer(sets.digits(k, r), slots, rows) {
                        break;
                    }
                }
            } else {
                vals.clear();
                vals.resize(k, 0);
                loop {
                    let ok = tuples_hold(vals, own_checks, arg_pos, support)
                        && children.clone().all(|child| {
                            let sh = span(shared, child.shared, child.shared_len);
                            slots[child.table + slot_of(vals, sh.iter().map(|s| s.0), m)] != NONE
                        });
                    if ok && keep.offer(vals, slots, rows) {
                        break;
                    }
                    if !advance(vals, m as u32) {
                        break;
                    }
                }
            }
            if keep.kept == 0 {
                return false;
            }
            nodes[u as usize].chosen = keep.chosen;
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

/// Convenience pipeline: `A`'s min-fill decomposition → DP, with a
/// fresh support index and scratch. Returns the homomorphism (if any)
/// and the decomposition width used.
pub fn homomorphism_via_treewidth(a: &Structure, b: &Structure) -> (Option<Homomorphism>, usize) {
    let support = SupportIndex::build(b);
    match solve_min_fill_pooled(a, b, &support, usize::MAX, &mut DpScratch::default()) {
        MinFillOutcome::Solved {
            width,
            homomorphism,
        } => (homomorphism, width),
        MinFillOutcome::OverBudget => unreachable!("no width exceeds usize::MAX"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics;
    use cqcs_structures::homomorphism::homomorphism_exists;
    use cqcs_structures::{gaifman_graph, generators, BitSet};
    use std::sync::Arc;

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

    /// The compiled DP on `A`'s min-fill decomposition, every min-fill
    /// path and, while its one bag has at most 2^16 rows, the trivial
    /// decomposition must agree with the reference, witness included;
    /// returns the verdict.
    fn assert_fill_agrees(a: &Structure, b: &Structure, what: &str) -> bool {
        let g = gaifman_graph(a);
        let order = heuristics::min_fill_order(&g);
        let td = heuristics::decomposition_from_elimination(&g, &order);
        let reference = solve_with_decomposition_reference(a, b, &td).unwrap();
        let support = SupportIndex::build(b);
        let mut scratch = DpScratch::default();
        assert_eq!(
            solve_with_decomposition_pooled(a, b, &td, &support, &mut scratch).unwrap(),
            reference,
            "{what}: pooled"
        );
        let MinFillOutcome::Solved {
            width,
            homomorphism,
        } = solve_min_fill_pooled(a, b, &support, usize::MAX, &mut scratch)
        else {
            unreachable!()
        };
        assert_eq!(
            (width, &homomorphism),
            (td.width(), &reference),
            "{what}: min-fill"
        );
        assert_eq!(
            solve_with_order_pooled(a, b, &order, &support, &mut scratch),
            reference,
            "{what}: order"
        );
        let rows = b.universe().checked_pow(a.universe() as u32);
        if rows.is_some_and(|rows| rows <= 1 << 16) {
            assert_all_agree(a, b, &TreeDecomposition::trivial(a.universe())).unwrap();
        }
        reference.is_some()
    }

    #[test]
    fn row_sets_match_reference_on_both_sides_of_the_bound() {
        let k2 = generators::complete_graph(2);
        let k5 = generators::complete_graph(5);
        // K7 and K8 give one bag of 7 and 8 elements: 128 rows (a row
        // set at the bound) and 256 rows (the odometer) against K2.
        for n in [7usize, 8] {
            assert!(!assert_fill_agrees(
                &generators::complete_graph(n),
                &k2,
                "K{n} → K2"
            ));
        }
        // K3 and K4 against K5: 125 rows (a row set) and 625 (the
        // odometer), with injective witnesses.
        for n in [3usize, 4] {
            assert!(assert_fill_agrees(
                &generators::complete_graph(n),
                &k5,
                "K{n} → K5"
            ));
        }
        // Only the last row of a 7- or 8-element bag survives: every
        // element is forced to 1, so dropping the top row flips the
        // verdict.
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let voc = Vocabulary::from_symbols([("E", 2), ("U", 1)])
            .unwrap()
            .into_shared();
        let mut bb = StructureBuilder::new(Arc::clone(&voc), 2);
        bb.add_fact("E", &[1, 1]).unwrap();
        bb.add_fact("U", &[1]).unwrap();
        let b = bb.finish();
        for n in [7u32, 8] {
            let mut ab = StructureBuilder::new(Arc::clone(&voc), n as usize);
            for x in 0..n {
                ab.add_fact("U", &[x]).unwrap();
                for y in x + 1..n {
                    ab.add_fact("E", &[x, y]).unwrap();
                }
            }
            let a = ab.finish();
            assert!(assert_fill_agrees(&a, &b, &format!("forced K{n}")));
        }
        // A ternary relation over 3 and 5 elements (bags of 27–81 and
        // 125–625 rows).
        for seed in 0..12u64 {
            let a = generators::random_structure(6, &[3], 4, seed);
            for m in [3usize, 5] {
                let b = generators::random_structure_over(a.vocabulary(), m, 3 * m, seed + 50);
                assert_fill_agrees(&a, &b, &format!("ternary seed {seed} |B| {m}"));
            }
        }
        // An empty relation: in B it refutes every bag that checks it, in
        // A it checks nothing.
        let voc = Vocabulary::from_symbols([("E", 2), ("F", 2)])
            .unwrap()
            .into_shared();
        let mut bb = StructureBuilder::new(Arc::clone(&voc), 3);
        for (x, y) in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)] {
            bb.add_fact("E", &[x, y]).unwrap();
        }
        let b = bb.finish();
        let mut ab = StructureBuilder::new(Arc::clone(&voc), 5);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
            ab.add_fact("E", &[x, y]).unwrap();
        }
        let a = ab.finish();
        assert!(assert_fill_agrees(&a, &b, "empty F in A and B"));
        ab = StructureBuilder::new(Arc::clone(&voc), 5);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            ab.add_fact("E", &[x, y]).unwrap();
        }
        ab.add_fact("F", &[4, 0]).unwrap();
        assert!(!assert_fill_agrees(&ab.finish(), &b, "F in A, empty in B"));
    }

    #[test]
    fn word_rows_match_reference_across_word_boundaries() {
        // A's Gaifman rows and the bags' holder rows span one to three
        // words: cycles on 63, 64, 65, 128 and 129 elements, and 130
        // elements whose isolated ones sit at and around the boundary.
        let k3 = generators::complete_graph(3);
        for n in [63usize, 64, 65, 128, 129] {
            let c = generators::undirected_cycle(n);
            assert!(assert_fill_agrees(&c, &k3, &format!("C{n} → K3")));
        }
        let mut edges: Vec<(u32, u32)> = (1..61).map(|v| (v, v + 1)).collect();
        edges.extend((65..128).map(|v| (v, v + 1)));
        edges.extend([(61, 65), (1, 128), (30, 100), (2, 127)]);
        let mut builder =
            cqcs_structures::StructureBuilder::new(generators::digraph_vocabulary(), 130);
        for (x, y) in edges {
            builder.add_fact("E", &[x, y]).unwrap();
            builder.add_fact("E", &[y, x]).unwrap();
        }
        assert!(assert_fill_agrees(
            &builder.finish(),
            &k3,
            "isolated at the boundary"
        ));
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
