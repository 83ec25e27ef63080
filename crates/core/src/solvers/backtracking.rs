//! Complete backtracking search for homomorphisms.
//!
//! The generic (NP-side) solver every tractable route is benchmarked
//! against, and the fallback when no theorem applies. Two classic
//! improvements are toggleable so experiment E12 can measure them:
//!
//! * **MRV** — pick the unassigned element with the fewest candidates;
//! * **MAC** — after each tentative assignment, maintain hyperarc
//!   consistency via `cqcs-pebble`'s compiled
//!   [`ProgramPropagator`]: `assign(x := v)` propagates only from the
//!   tuples through changed elements, and `undo()` rolls the trail back
//!   in O(changed), instead of cloning the full domain vector and
//!   refining from scratch at every node.
//!
//! MAC implies arc-consistent starting domains (that is what
//! "maintaining" means), so with `mac: true` the root domains are
//! established once even when `ac_preprocess` is off. A plain search
//! (`mac = ac_preprocess = false`) never establishes: it reads the full
//! domains the engine binds and checks fully assigned tuples directly.
//!
//! A third improvement is always on, because it cannot change an
//! answer: **interchangeable values** (Van Hentenryck, Flener, Pearson
//! and Ågren, IJCAI 2003; for `B = K_n` the "try one new colour" rule).
//! The template's program records which values of `B` are
//! interchangeable ([`PropProgram::value_classes`]). Among a node's
//! candidates that no assigned element uses, the search tries only the
//! first of each class; a skipped value is not a node. The used values
//! are one word, read off the assignment at each node beside MRV's own
//! pass over it.
//!
//! *Soundness.* Let the node assign `x` under the prefix `P`, let `u` be
//! the first unused candidate of a class, tried and refuted, and `v` a
//! later unused candidate of the same class. The swap `σ = (u v)` is an
//! automorphism of `B` that fixes every value `P` uses, and it maps the
//! root domains onto themselves: full domains trivially, and their
//! arc-consistent fixpoint because `σ` maps arc-consistent domains to
//! arc-consistent domains. If some homomorphism `h` extended
//! `P ∪ {x ↦ v}` inside the root domains, `σ ∘ h` would extend
//! `P ∪ {x ↦ u}` inside them, and the complete search below `u` would
//! have found it. So the subtree below `v` holds no solution.
//!
//! *Witnesses cannot move.* Every skipped subtree is one the unpruned
//! search would have explored and failed, so the pruned search visits
//! the unpruned search's nodes in the same order minus those subtrees,
//! each in the same engine state: the same verdict, the same first
//! witness, and nodes, backtracks and deletions each at most the
//! unpruned counts. `tests/property_based.rs` pins this against the
//! instance's twin with every value pinned apart
//! (`generators::pin_values`), and `crates/core/tests/search_pin.rs`
//! against committed witness hashes.
//!
//! *The exception.* Root domains that a caller narrowed with
//! [`ProgramPropagator::restrict_domains`] need not be mapped onto
//! themselves by `σ`, so on a
//! [restricted](ProgramPropagator::domains_restricted) engine the search
//! treats every value as its own class.
//!
//! The dispatcher hands the search its worker's engine, running the
//! template's shared [`PropProgram`]; the standalone
//! [`backtracking_search`] compiles `B` for the one call.

use cqcs_pebble::program::{ProgramPropagator, PropProgram};
use cqcs_structures::{Element, Homomorphism, Structure};
use std::sync::Arc;

/// Search configuration (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Minimum-remaining-values variable ordering.
    pub mrv: bool,
    /// Maintain arc consistency during search.
    pub mac: bool,
    /// Enforce arc consistency once before searching.
    pub ac_preprocess: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            mrv: true,
            mac: true,
            ac_preprocess: true,
        }
    }
}

/// Search effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Assignments attempted.
    pub nodes: u64,
    /// Dead ends hit: exhausted candidate lists *and* MAC wipeouts.
    pub backtracks: u64,
    /// Domain-value deletions performed by propagation *during this
    /// search call* (0 unless AC preprocessing or MAC ran). A reused
    /// propagator's earlier deletions are not re-counted.
    pub deletions: u64,
}

impl SearchStats {
    /// Folds another run's counters into this one, field by field — the
    /// one way to aggregate per-instance statistics into batch totals
    /// (hand-summing the fields at call sites silently drops any
    /// counter added later, which is exactly how `deletions` went
    /// missing from early aggregations).
    pub fn merge(&mut self, other: &SearchStats) {
        let SearchStats {
            nodes,
            backtracks,
            deletions,
        } = other;
        self.nodes += nodes;
        self.backtracks += backtracks;
        self.deletions += deletions;
    }
}

/// Reusable per-search buffers: the assignment vector and the per-depth
/// candidate snapshots. One scratch per worker keeps the generic
/// route's allocation profile flat across a streamed batch; a fresh
/// (default) scratch makes [`backtracking_search_scratch`] behave
/// exactly like [`backtracking_search_with`].
#[derive(Debug, Default)]
pub struct SearchScratch {
    assigned: Vec<Option<Element>>,
    candidate_pool: Vec<Vec<usize>>,
}

/// Runs the search. Returns a homomorphism (if one exists) plus the
/// effort counters.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
pub fn backtracking_search(
    a: &Structure,
    b: &Structure,
    opts: SearchOptions,
) -> (Option<Homomorphism>, SearchStats) {
    let program = Arc::new(PropProgram::compile(b));
    let mut prop = ProgramPropagator::new(a, b, program);
    backtracking_search_with(opts, &mut prop)
}

/// Runs the search on a caller-provided propagator, so a dispatcher
/// that already established arc consistency (e.g. as a refutation
/// prefilter) does not pay for it twice. The propagator must be fresh
/// or at depth 0; it is returned to that state on exit.
///
/// # Panics
/// Panics if the propagator has open assignment frames — the search
/// unwinds to depth 0 on exit and must not pop a caller's own frames.
pub fn backtracking_search_with(
    opts: SearchOptions,
    prop: &mut ProgramPropagator<'_>,
) -> (Option<Homomorphism>, SearchStats) {
    backtracking_search_scratch(opts, prop, &mut SearchScratch::default())
}

/// [`backtracking_search_with`] on caller-pooled buffers (identical
/// output): the assignment vector and per-depth candidate snapshots
/// come from `scratch` instead of fresh allocations, so a worker
/// streaming instances against one template reuses them across the
/// whole batch.
///
/// # Panics
/// Panics if the propagator has open assignment frames.
pub fn backtracking_search_scratch(
    opts: SearchOptions,
    prop: &mut ProgramPropagator<'_>,
    scratch: &mut SearchScratch,
) -> (Option<Homomorphism>, SearchStats) {
    assert_eq!(prop.depth(), 0, "search requires a depth-0 propagator");
    let (a, b) = (prop.left(), prop.right());
    let mut stats = SearchStats::default();
    // The propagator's deletion counter is monotone across reuse;
    // report only this call's delta.
    let deletions_at_entry = prop.deletions() as u64;

    // 0-ary preconditions.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return (None, stats);
        }
    }
    if a.universe() == 0 {
        return (Some(Homomorphism::from_map(Vec::new())), stats);
    }
    if b.universe() == 0 {
        return (None, stats);
    }

    if opts.ac_preprocess || opts.mac {
        let consistent = prop.establish();
        stats.deletions = prop.deletions() as u64 - deletions_at_entry;
        if !consistent {
            return (None, stats);
        }
    }
    scratch.assigned.clear();
    scratch.assigned.resize(a.universe(), None);
    // Per-depth candidate buffers, reused across the whole search (and,
    // via the scratch, across the whole batch) instead of one fresh
    // Vec per node.
    if scratch.candidate_pool.len() < a.universe() {
        scratch.candidate_pool.resize_with(a.universe(), Vec::new);
    }
    // Interchangeable values, on root domains B's automorphisms map onto
    // themselves only (see the module docs).
    let program = Arc::clone(prop.program());
    let classes = program
        .value_classes()
        .filter(|_| !prop.domains_restricted());
    let found = descend(
        a,
        b,
        &opts,
        &mut stats,
        prop,
        &mut scratch.assigned,
        &mut scratch.candidate_pool,
        classes,
        0,
    );
    stats.deletions = prop.deletions() as u64 - deletions_at_entry;
    // A successful descent returns early with its assign frames still
    // open; unwind them so the propagator is reusable at depth 0.
    while prop.depth() > 0 {
        prop.undo();
    }
    let hom = found.then(|| {
        let map: Vec<Element> = scratch
            .assigned
            .iter()
            .map(|o| o.expect("search completed"))
            .collect();
        debug_assert!(cqcs_structures::is_homomorphism(&map, a, b));
        Homomorphism::from_map(map)
    });
    (hom, stats)
}

#[allow(clippy::too_many_arguments)]
fn descend(
    a: &Structure,
    b: &Structure,
    opts: &SearchOptions,
    stats: &mut SearchStats,
    prop: &mut ProgramPropagator<'_>,
    assigned: &mut Vec<Option<Element>>,
    candidate_pool: &mut Vec<Vec<usize>>,
    classes: Option<&[u32]>,
    depth: usize,
) -> bool {
    // Pick the next variable (MRV reads live domain sizes in O(1)).
    let next = if opts.mrv {
        (0..a.universe())
            .filter(|&e| assigned[e].is_none())
            .min_by_key(|&e| prop.domain_size(Element::new(e)))
    } else {
        (0..a.universe()).find(|&e| assigned[e].is_none())
    };
    let Some(x) = next else { return true };

    // Snapshot the domain into this depth's pooled buffer (propagation
    // mutates the live domain below).
    let mut candidates = std::mem::take(&mut candidate_pool[depth]);
    prop.domain_values_into(Element::new(x), &mut candidates);
    // With classes (so |B| ≤ 64): the values the assignment uses, and
    // the classes (by least member) whose first unused candidate this
    // node has tried.
    let used = classes.map_or(0u64, |_| {
        assigned.iter().flatten().fold(0, |m, e| m | 1 << e.index())
    });
    let mut tried = 0u64;
    let mut found = false;
    for &v in &candidates {
        if let Some(classes) = classes {
            if used & 1 << v == 0 {
                let class = 1u64 << classes[v];
                if tried & class != 0 {
                    continue;
                }
                tried |= class;
            }
        }
        stats.nodes += 1;
        assigned[x] = Some(Element(v as u32));
        if opts.mac {
            // Incremental propagation subsumes the fully-assigned
            // tuple checks: every assigned element has a singleton
            // domain, so a violated tuple wipes a domain out.
            if prop.assign(Element::new(x), v) {
                if descend(
                    a,
                    b,
                    opts,
                    stats,
                    prop,
                    assigned,
                    candidate_pool,
                    classes,
                    depth + 1,
                ) {
                    found = true;
                }
            } else {
                stats.backtracks += 1;
            }
            if found {
                candidate_pool[depth] = candidates;
                return true;
            }
            prop.undo();
        } else {
            if !locally_consistent(a, b, assigned, Element::new(x)) {
                assigned[x] = None;
                continue;
            }
            if descend(
                a,
                b,
                opts,
                stats,
                prop,
                assigned,
                candidate_pool,
                classes,
                depth + 1,
            ) {
                candidate_pool[depth] = candidates;
                return true;
            }
        }
        assigned[x] = None;
    }
    candidate_pool[depth] = candidates;
    stats.backtracks += 1;
    false
}

/// Checks tuples through `x` whose elements are all assigned.
fn locally_consistent(
    a: &Structure,
    b: &Structure,
    assigned: &[Option<Element>],
    x: Element,
) -> bool {
    let mut image: Vec<Element> = Vec::with_capacity(a.vocabulary().max_arity());
    'occ: for &(r, t) in a.occurrences(x) {
        image.clear();
        for &e in a.relation(r).tuple(t as usize) {
            match assigned[e.index()] {
                Some(v) => image.push(v),
                None => continue 'occ,
            }
        }
        if !b.relation(r).contains(&image) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    fn compile_for(b: &Structure) -> Arc<PropProgram> {
        Arc::new(PropProgram::compile(b))
    }

    fn all_option_combos() -> Vec<SearchOptions> {
        let mut out = Vec::new();
        for mrv in [false, true] {
            for mac in [false, true] {
                for ac in [false, true] {
                    out.push(SearchOptions {
                        mrv,
                        mac,
                        ac_preprocess: ac,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn all_configurations_agree_with_reference() {
        for seed in 0..12u64 {
            let a = generators::random_digraph(6, 0.3, seed);
            let b = generators::random_digraph(4, 0.35, seed + 600);
            let expected = homomorphism_exists(&a, &b);
            for opts in all_option_combos() {
                let (h, _) = backtracking_search(&a, &b, opts);
                assert_eq!(h.is_some(), expected, "seed {seed} opts {opts:?}");
                if let Some(h) = h {
                    assert!(cqcs_structures::is_homomorphism(h.as_slice(), &a, &b));
                }
            }
        }
    }

    #[test]
    fn coloring_instances() {
        let k3 = generators::complete_graph(3);
        let c5 = generators::undirected_cycle(5);
        let (h, _) = backtracking_search(&c5, &k3, SearchOptions::default());
        assert!(h.is_some());
        let k2 = generators::complete_graph(2);
        let (h, stats) = backtracking_search(&c5, &k2, SearchOptions::default());
        assert!(h.is_none());
        assert!(stats.nodes > 0 || stats.backtracks == 0);
    }

    #[test]
    fn mac_prunes_more_than_plain() {
        // On an unsatisfiable coloring instance MAC should explore no
        // more nodes than the plain search.
        let g = generators::undirected_cycle(9);
        let k2 = generators::complete_graph(2);
        let (h1, plain) = backtracking_search(
            &g,
            &k2,
            SearchOptions {
                mrv: false,
                mac: false,
                ac_preprocess: false,
            },
        );
        let (h2, mac) = backtracking_search(
            &g,
            &k2,
            SearchOptions {
                mrv: false,
                mac: true,
                ac_preprocess: false,
            },
        );
        assert!(h1.is_none() && h2.is_none());
        assert!(
            mac.nodes <= plain.nodes,
            "MAC {} > plain {}",
            mac.nodes,
            plain.nodes
        );
    }

    #[test]
    fn mac_wipeouts_are_counted_as_backtracks() {
        // Pinning any element of an odd cycle to a 2-coloring wipes
        // out immediately: every MAC node is a dead end, and each must
        // be counted (the pre-propagator solver dropped these).
        let c9 = generators::undirected_cycle(9);
        let k2 = generators::complete_graph(2);
        let (h, stats) = backtracking_search(
            &c9,
            &k2,
            SearchOptions {
                mrv: false,
                mac: true,
                ac_preprocess: false,
            },
        );
        assert!(h.is_none());
        assert!(stats.nodes > 0);
        assert!(
            stats.backtracks >= stats.nodes,
            "every node is a wipeout dead end plus the exhausted root: \
             backtracks {} < nodes {}",
            stats.backtracks,
            stats.nodes
        );
        assert!(stats.deletions > 0, "propagation effort is recorded");
    }

    #[test]
    fn deletions_accounting() {
        let a = generators::undirected_cycle(6);
        let b = generators::complete_graph(3);
        // AC preprocessing alone on an already-consistent instance
        // deletes nothing, and plain search propagates nothing.
        let (_, stats) = backtracking_search(
            &a,
            &b,
            SearchOptions {
                mrv: false,
                mac: false,
                ac_preprocess: true,
            },
        );
        assert_eq!(stats.deletions, 0);
        // MAC search propagates per node; the effort shows up.
        let (h, stats) = backtracking_search(&a, &b, SearchOptions::default());
        assert!(h.is_some());
        assert!(stats.deletions > 0, "MAC propagation effort is recorded");
    }

    #[test]
    fn empty_cases() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let k2 = generators::complete_graph(2);
        let (h, _) = backtracking_search(&empty, &k2, SearchOptions::default());
        assert!(h.is_some());
        let (h, _) = backtracking_search(&k2, &empty, SearchOptions::default());
        assert!(h.is_none());
    }

    #[test]
    fn stats_populated() {
        let a = generators::undirected_cycle(6);
        let b = generators::complete_graph(3);
        let (_, stats) = backtracking_search(
            &a,
            &b,
            SearchOptions {
                mrv: true,
                mac: false,
                ac_preprocess: false,
            },
        );
        assert!(stats.nodes >= 6, "at least one node per element");
    }

    #[test]
    fn merge_totals_equal_per_instance_sums() {
        // Batch totals must equal the field-by-field sum of the
        // per-instance statistics — every counter, including
        // `deletions` (the one hand-summing call sites used to drop).
        let k3 = generators::complete_graph(3);
        let instances: Vec<_> = (0..8u64)
            .map(|seed| generators::random_graph_nm(10, 20, seed))
            .collect();
        let per_instance: Vec<SearchStats> = instances
            .iter()
            .map(|a| backtracking_search(a, &k3, SearchOptions::default()).1)
            .collect();
        let mut merged = SearchStats::default();
        for st in &per_instance {
            merged.merge(st);
        }
        assert_eq!(
            merged.nodes,
            per_instance.iter().map(|s| s.nodes).sum::<u64>()
        );
        assert_eq!(
            merged.backtracks,
            per_instance.iter().map(|s| s.backtracks).sum::<u64>()
        );
        assert_eq!(
            merged.deletions,
            per_instance.iter().map(|s| s.deletions).sum::<u64>()
        );
        assert!(merged.deletions > 0, "the workload exercises propagation");
        // Merging zero is the identity; merge is order-insensitive.
        let mut with_zero = merged;
        with_zero.merge(&SearchStats::default());
        assert_eq!(with_zero, merged);
        let mut reversed = SearchStats::default();
        for st in per_instance.iter().rev() {
            reversed.merge(st);
        }
        assert_eq!(reversed, merged);
    }

    #[test]
    fn pooled_scratch_reuse_is_invisible() {
        // One scratch streamed across instances of varying size must
        // reproduce the fresh-buffer search exactly: witnesses and
        // statistics bit for bit.
        let k3 = generators::complete_graph(3);
        let program = compile_for(&k3);
        let mut scratch = SearchScratch::default();
        for seed in 0..10u64 {
            let n = 6 + (seed as usize % 5);
            let a = generators::random_graph_nm(n, 2 * n - 4, seed);
            for opts in all_option_combos() {
                let mut prop = ProgramPropagator::new(&a, &k3, Arc::clone(&program));
                let pooled = backtracking_search_scratch(opts, &mut prop, &mut scratch);
                let mut prop = ProgramPropagator::new(&a, &k3, Arc::clone(&program));
                let fresh = backtracking_search_with(opts, &mut prop);
                assert_eq!(
                    pooled.0.as_ref().map(Homomorphism::as_slice),
                    fresh.0.as_ref().map(Homomorphism::as_slice),
                    "seed {seed} opts {opts:?}"
                );
                assert_eq!(pooled.1, fresh.1, "seed {seed} opts {opts:?}");
            }
        }
    }

    #[test]
    fn restricted_root_domains_treat_every_value_as_its_own_class() {
        // A = one edge x0–x1 with dom(x1) = {0}. x0 := 0 fails; K3's
        // values 1 and 2 are interchangeable with 0, but not on these
        // root domains, so the search must still try them.
        let k3 = generators::complete_graph(3);
        let edge = generators::undirected_path(2);
        let mut prop = ProgramPropagator::new(&edge, &k3, compile_for(&k3));
        let mut zero = cqcs_structures::BitSet::new(3);
        zero.insert(0);
        prop.restrict_domains(&[cqcs_structures::BitSet::full(3), zero]);
        assert!(prop.domains_restricted());
        let plain = SearchOptions {
            mrv: false,
            mac: false,
            ac_preprocess: false,
        };
        let (h, _) = backtracking_search_with(plain, &mut prop);
        assert_eq!(
            h.as_ref().map(Homomorphism::as_slice),
            Some(&[Element(1), Element(0)][..])
        );
        // Rebinding clears the mark.
        prop.reset_for_instance(&edge);
        assert!(!prop.domains_restricted());
    }

    #[test]
    fn interchangeable_values_prune_only_refuted_siblings() {
        // K4 → K3 is refuted; the pinned twin searches every value.
        let k3 = generators::complete_graph(3);
        let k4 = generators::complete_graph(4);
        let (k4_pinned, k3_pinned) = generators::pin_values(&k4, &k3);
        for opts in all_option_combos() {
            let (h, pruned) = backtracking_search(&k4, &k3, opts);
            let (twin_h, twin) = backtracking_search(&k4_pinned, &k3_pinned, opts);
            assert!(h.is_none() && twin_h.is_none(), "{opts:?}");
            assert!(
                pruned.nodes < twin.nodes,
                "{opts:?}: {pruned:?} vs {twin:?}"
            );
            assert!(pruned.backtracks <= twin.backtracks, "{opts:?}");
            assert!(pruned.deletions <= twin.deletions, "{opts:?}");
        }
    }

    #[test]
    fn search_reuses_an_established_propagator() {
        let a = generators::random_graph_nm(10, 18, 4);
        let b = generators::complete_graph(3);
        let mut prop = ProgramPropagator::new(&a, &b, compile_for(&b));
        assert!(prop.establish());
        let (h1, _) = backtracking_search_with(SearchOptions::default(), &mut prop);
        assert_eq!(prop.depth(), 0, "search unwinds its trail frames");
        // The same propagator can be searched again.
        let (h2, _) = backtracking_search_with(SearchOptions::default(), &mut prop);
        assert_eq!(h1.is_some(), h2.is_some());
        assert_eq!(h1.is_some(), homomorphism_exists(&a, &b));
    }
}
