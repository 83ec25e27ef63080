//! Property-based tests (proptest) on the workspace's core invariants.

use cqcs::boolean::booleanize::booleanize;
use cqcs::boolean::relation::BooleanRelation;
use cqcs::boolean::schaefer;
use cqcs::core::{backtracking_search, solve, SearchOptions, Session, Strategy as SolveStrategy};
use cqcs::pebble::consistency::{arc_consistent_domains, refine_domains, refine_domains_reference};
use cqcs::pebble::program::{ProgramPropagator, PropProgram};
use cqcs::structures::homomorphism::{find_homomorphism, homomorphism_exists};
use cqcs::structures::product::{direct_product, projections};
use cqcs::structures::{generators, is_homomorphism, BitSet, Element};
use cqcs::treewidth::acyclic::{is_acyclic, yannakakis};
use cqcs::treewidth::bb::{bb_treewidth, elimination_width};
use cqcs::treewidth::dp::{
    solve_with_decomposition, solve_with_decomposition_pooled, solve_with_decomposition_reference,
    DpScratch,
};
use cqcs::treewidth::exact::{dp_treewidth, exact_treewidth};
use cqcs::treewidth::heuristics::{
    decomposition_from_elimination, min_degree_order, min_fill_order, min_fill_order_reference,
};
use cqcs::treewidth::lower_bounds::{mmd_lower_bound, mmd_plus_lower_bound};
use cqcs::treewidth::TreeDecomposition;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a small random digraph structure.
fn digraph(max_n: usize, max_edges: usize) -> impl Strategy<Value = cqcs::structures::Structure> {
    (
        1..=max_n,
        proptest::collection::vec((0..max_n as u32, 0..max_n as u32), 0..=max_edges),
    )
        .prop_map(|(n, edges)| {
            let voc = generators::digraph_vocabulary();
            let mut b = cqcs::structures::StructureBuilder::new(voc, n);
            for (x, y) in edges {
                let _ = b.add_fact("E", &[x % n as u32, y % n as u32]);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BitSet behaves like a HashSet<usize>.
    #[test]
    fn bitset_models_hashset(ops in proptest::collection::vec((0usize..96, any::<bool>()), 0..60)) {
        let mut bs = BitSet::new(96);
        let mut hs: HashSet<usize> = HashSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(v), hs.insert(v));
            } else {
                prop_assert_eq!(bs.remove(v), hs.remove(&v));
            }
        }
        prop_assert_eq!(bs.len(), hs.len());
        let from_bs: HashSet<usize> = bs.iter().collect();
        prop_assert_eq!(from_bs, hs);
    }

    /// The product's universal property: hom(C → A×B) iff hom(C → A)
    /// and hom(C → B); and the projections are homomorphisms.
    #[test]
    fn product_universal_property(
        c in digraph(4, 6),
        a in digraph(3, 5),
        b in digraph(3, 5),
    ) {
        let p = direct_product(&a, &b);
        let (p1, p2) = projections(&a, &b);
        prop_assert!(is_homomorphism(&p1, &p, &a));
        prop_assert!(is_homomorphism(&p2, &p, &b));
        let both = homomorphism_exists(&c, &a) && homomorphism_exists(&c, &b);
        prop_assert_eq!(homomorphism_exists(&c, &p), both);
    }

    /// Booleanization preserves homomorphism existence (Lemma 3.5).
    #[test]
    fn booleanization_preserves_hom(a in digraph(5, 8), b in digraph(4, 7)) {
        prop_assume!(b.universe() >= 1);
        let expected = homomorphism_exists(&a, &b);
        let (ab, bb, info) = booleanize(&a, &b).unwrap();
        prop_assert_eq!(homomorphism_exists(&ab, &bb), expected);
        if expected {
            let hb = find_homomorphism(&ab, &bb).unwrap();
            let decoded = info.decode(hb.as_slice());
            prop_assert!(is_homomorphism(&decoded, &a, &b));
        }
    }

    /// Arc consistency is sound: wiping out a domain proves no hom, and
    /// surviving domains contain every real solution's values.
    #[test]
    fn arc_consistency_sound(a in digraph(5, 8), b in digraph(3, 5)) {
        let ac = arc_consistent_domains(&a, &b);
        match find_homomorphism(&a, &b) {
            Some(h) => {
                prop_assert!(ac.consistent);
                for e in a.elements() {
                    prop_assert!(ac.domains[e.index()].contains(h.apply(e).index()));
                }
            }
            None => { /* AC may or may not detect it — only soundness matters */ }
        }
        if !ac.consistent {
            prop_assert!(!homomorphism_exists(&a, &b));
        }
    }

    /// The auto dispatcher and all-options search agree with the
    /// reference on arbitrary instances.
    #[test]
    fn solvers_agree(a in digraph(5, 8), b in digraph(3, 6)) {
        let expected = homomorphism_exists(&a, &b);
        let sol = solve(&a, &b, SolveStrategy::Auto).unwrap();
        prop_assert_eq!(sol.homomorphism.is_some(), expected);
        let (h, _) = backtracking_search(&a, &b, SearchOptions::default());
        prop_assert_eq!(h.is_some(), expected);
    }

    /// Closure properties of Boolean relations survive classification:
    /// closing any set under ∧ yields a Horn relation, etc.
    #[test]
    fn closures_classify(tuples in proptest::collection::vec(0u64..16, 1..5)) {
        let close = |mut ts: Vec<u64>, f: fn(u64, u64) -> u64| {
            loop {
                let snapshot = ts.clone();
                let mut added = false;
                for &a in &snapshot {
                    for &b in &snapshot {
                        let t = f(a, b);
                        if !ts.contains(&t) {
                            ts.push(t);
                            added = true;
                        }
                    }
                }
                if !added { break; }
            }
            ts
        };
        let horn = BooleanRelation::new(4, close(tuples.clone(), |a, b| a & b)).unwrap();
        prop_assert!(schaefer::is_horn(&horn));
        let dual = BooleanRelation::new(4, close(tuples.clone(), |a, b| a | b)).unwrap();
        prop_assert!(schaefer::is_dual_horn(&dual));
    }

    /// Elimination-order decompositions are always valid, and on small
    /// graphs their width is an upper bound on the exact treewidth.
    #[test]
    fn heuristic_decompositions_valid(a in digraph(8, 14)) {
        let g = cqcs::structures::gaifman_graph(&a);
        for order in [min_degree_order(&g), min_fill_order(&g)] {
            let td = decomposition_from_elimination(&g, &order);
            prop_assert!(td.validate_graph(&g).is_ok());
            prop_assert!(td.validate(&a).is_ok());
            prop_assert!(td.width() >= exact_treewidth(&g));
        }
    }

    /// Homomorphism composition: if h : A→B and g : B→C then
    /// g∘h : A→C.
    #[test]
    fn homomorphisms_compose(a in digraph(4, 6), b in digraph(3, 5), c in digraph(3, 5)) {
        if let (Some(h), Some(g)) = (find_homomorphism(&a, &b), find_homomorphism(&b, &c)) {
            let composed: Vec<_> = a.elements().map(|e| g.apply(h.apply(e))).collect();
            prop_assert!(is_homomorphism(&composed, &a, &c));
        }
    }

    /// Mixed-arity structures (unary + binary + ternary symbols): the
    /// reference search, the option-toggled search, and the auto
    /// dispatcher agree, and any found homomorphism checks out.
    #[test]
    fn solvers_agree_mixed_arity(
        (a, b) in mixed_arity_pair(4, 3, 5),
    ) {
        let expected = homomorphism_exists(&a, &b);
        if let Some(h) = find_homomorphism(&a, &b) {
            prop_assert!(is_homomorphism(h.as_slice(), &a, &b));
        }
        let sol = solve(&a, &b, SolveStrategy::Auto).unwrap();
        prop_assert_eq!(sol.homomorphism.is_some(), expected);
        let (h, _) = backtracking_search(&a, &b, SearchOptions::default());
        prop_assert_eq!(h.is_some(), expected);
        // Arc consistency stays sound off the graph fragment too.
        let ac = arc_consistent_domains(&a, &b);
        if !ac.consistent {
            prop_assert!(!expected);
        }
    }

    /// The incremental propagator is a drop-in for the reference
    /// from-scratch refinement on arbitrary mixed-arity instances and
    /// arbitrary (possibly already restricted) starting domains: the
    /// consistency verdict always agrees, and whenever consistent the
    /// final domains and the deletion count match exactly. (On wipeout
    /// the pruning order, and hence the partially pruned domains, may
    /// legitimately differ.)
    #[test]
    fn propagator_matches_reference_refinement(
        (a, b) in mixed_arity_pair(4, 3, 6),
        masks in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let full = BitSet::full(b.universe());
        let domains: Vec<BitSet> = (0..a.universe())
            .map(|e| {
                let mut d = BitSet::new(b.universe());
                for v in 0..b.universe() {
                    if masks[e % masks.len()] & (1 << (v % 64)) != 0 {
                        d.insert(v);
                    }
                }
                if d.is_empty() { full.clone() } else { d }
            })
            .collect();
        let reference = refine_domains_reference(&a, &b, domains.clone());
        let fast = refine_domains(&a, &b, domains);
        prop_assert_eq!(fast.consistent, reference.consistent);
        if reference.consistent {
            prop_assert_eq!(&fast.domains, &reference.domains);
            prop_assert_eq!(fast.deletions, reference.deletions);
        }
    }

    /// Incremental `assign`/`undo` on the compiled engine agrees with
    /// the from-scratch reference refinement on random mixed-arity
    /// instances: `establish` lands on the reference fixpoint; each
    /// `assign` reaches the reference refinement of the narrowed domains
    /// (the verdict always, the domains and deletion count when
    /// consistent); and every `undo`, immediate or unwound at the end,
    /// restores the previous domains bit for bit at the right depth.
    /// Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn propagator_assign_undo_is_exact(
        (a, b) in mixed_arity_pair(4, 3, 6),
        picks in proptest::collection::vec((0usize..8, 0usize..8, any::<bool>()), 0..5),
    ) {
        let mut prop = ProgramPropagator::new(&a, &b, compile_for(&b));
        if !establish_matches_reference(&mut prop)? {
            return Ok(());
        }
        // snapshots[d] holds the domains at depth d.
        let mut snapshots: Vec<Vec<BitSet>> = vec![prop.domains_vec()];
        for (xe, vv, undo_now) in picks {
            let x = Element::new(xe % a.universe());
            let ok = assign_matches_reference(&mut prop, x, vv)?;
            prop_assert_eq!(prop.depth(), snapshots.len());
            if !ok || undo_now {
                prop.undo();
                prop_assert_eq!(prop.depth(), snapshots.len() - 1);
                prop_assert_eq!(&prop.domains_vec(), snapshots.last().unwrap());
            } else {
                snapshots.push(prop.domains_vec());
            }
        }
        while prop.depth() > 0 {
            prop.undo();
            snapshots.pop();
            prop_assert_eq!(&prop.domains_vec(), snapshots.last().unwrap());
        }
        prop_assert_eq!(&prop.domains_vec(), &snapshots[0]);
    }

    /// All eight `SearchOptions` combinations agree with the reference
    /// decision procedure on mixed-arity instances, and any witness
    /// they produce is a real homomorphism.
    #[test]
    fn search_option_combos_agree(
        (a, b) in mixed_arity_pair(4, 3, 6),
    ) {
        let expected = homomorphism_exists(&a, &b);
        for mrv in [false, true] {
            for mac in [false, true] {
                for ac_preprocess in [false, true] {
                    let opts = SearchOptions { mrv, mac, ac_preprocess };
                    let (h, stats) = backtracking_search(&a, &b, opts);
                    prop_assert_eq!(h.is_some(), expected, "opts {:?}", opts);
                    if let Some(h) = h {
                        prop_assert!(is_homomorphism(h.as_slice(), &a, &b));
                    }
                    if !expected && (mac || ac_preprocess) {
                        // A refuted MAC/AC run must report its effort.
                        prop_assert!(
                            stats.nodes + stats.backtracks + stats.deletions > 0
                                || a.universe() == 0
                                || b.universe() == 0
                        );
                    }
                }
            }
        }
    }

    /// A session compiled on `B` is a drop-in for one-shot `solve` on
    /// arbitrary mixed-arity instances and *every* strategy: same
    /// verdict, same route, same search statistics, and any witness it
    /// returns is a real homomorphism. Solving twice on one session
    /// changes nothing (template reuse is invisible).
    #[test]
    fn session_is_a_drop_in_for_solve(
        (a, b) in mixed_arity_pair(4, 3, 6),
    ) {
        let session = Session::compile(&b);
        let strategies = [
            SolveStrategy::Auto,
            SolveStrategy::Schaefer,
            SolveStrategy::Booleanize,
            SolveStrategy::Acyclic,
            SolveStrategy::Treewidth,
            SolveStrategy::Generic(SearchOptions::default()),
            SolveStrategy::Generic(SearchOptions {
                mrv: false,
                mac: false,
                ac_preprocess: false,
            }),
        ];
        for strat in strategies {
            let one_shot = solve(&a, &b, strat);
            let first = session.solve_with(&a, strat);
            let second = session.solve_with(&a, strat);
            match (one_shot, first, second) {
                (Ok(o), Ok(s1), Ok(s2)) => {
                    prop_assert_eq!(
                        o.homomorphism.is_some(),
                        s1.homomorphism.is_some(),
                        "verdict, {:?}", strat
                    );
                    prop_assert_eq!(o.route, s1.route, "route, {:?}", strat);
                    prop_assert_eq!(o.stats, s1.stats, "stats, {:?}", strat);
                    if let Some(h) = &s1.homomorphism {
                        prop_assert!(is_homomorphism(h.as_slice(), &a, &b));
                    }
                    // Reuse: the second solve is bit-identical.
                    prop_assert_eq!(
                        s1.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                        s2.homomorphism.as_ref().map(|h| h.as_slice().to_vec())
                    );
                    prop_assert_eq!(s1.route, s2.route);
                    prop_assert_eq!(s1.stats, s2.stats);
                }
                (Err(oe), Err(se1), Err(se2)) => {
                    prop_assert_eq!(&oe, &se1, "error, {:?}", strat);
                    prop_assert_eq!(&oe, &se2, "error reuse, {:?}", strat);
                }
                (o, s1, _) => {
                    return Err(TestCaseError::Fail(format!(
                        "ok/err divergence under {strat:?}: one-shot {o:?} vs session {s1:?}"
                    )));
                }
            }
        }
    }

    /// The parallel batch executor is a drop-in for the sequential
    /// batch on arbitrary mixed-arity batches and every thread count,
    /// including more threads than instances: same verdicts, same
    /// routes, same search statistics, and bit-identical witnesses, in
    /// input order. Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn par_solve_batch_is_bit_identical_to_sequential(
        (b, batch) in mixed_arity_batch(4, 5, 6),
    ) {
        let session = Session::compile(&b);
        let seq = session.solve_batch(&batch);
        prop_assert_eq!(seq.len(), batch.len());
        for threads in [1usize, 2, 4] {
            let par = session.par_solve_batch(&batch, threads);
            prop_assert_eq!(par.len(), seq.len(), "threads {}", threads);
            for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
                prop_assert_eq!(
                    s.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                    p.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                    "witness {} with {} threads", i, threads
                );
                prop_assert_eq!(s.route, p.route, "route {} with {} threads", i, threads);
                prop_assert_eq!(s.stats, p.stats, "stats {} with {} threads", i, threads);
            }
        }
    }

    /// The explicit-strategy parallel batch matches per-instance
    /// `solve_with` for all 7 strategies — verdict, route, stats, and
    /// witness when every instance succeeds, and the lowest-index error
    /// when a forced route does not apply.
    #[test]
    fn par_solve_batch_with_matches_solve_with_on_every_strategy(
        (b, batch) in mixed_arity_batch(4, 4, 5),
    ) {
        let session = Session::compile(&b);
        let strategies = [
            SolveStrategy::Auto,
            SolveStrategy::Schaefer,
            SolveStrategy::Booleanize,
            SolveStrategy::Acyclic,
            SolveStrategy::Treewidth,
            SolveStrategy::Generic(SearchOptions::default()),
            SolveStrategy::Generic(SearchOptions {
                mrv: false,
                mac: false,
                ac_preprocess: false,
            }),
        ];
        for strat in strategies {
            let seq: Result<Vec<_>, _> = batch
                .iter()
                .map(|a| session.solve_with(a, strat))
                .collect();
            let par = session.par_solve_batch_with(&batch, strat, 3);
            match (seq, par) {
                (Ok(seq), Ok(par)) => {
                    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
                        prop_assert_eq!(
                            s.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                            p.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                            "witness {} under {:?}", i, strat
                        );
                        prop_assert_eq!(s.route, p.route, "route {} under {:?}", i, strat);
                        prop_assert_eq!(s.stats, p.stats, "stats {} under {:?}", i, strat);
                    }
                }
                (Err(se), Err(pe)) => prop_assert_eq!(se, pe, "error under {:?}", strat),
                (s, p) => {
                    return Err(TestCaseError::Fail(format!(
                        "ok/err divergence under {strat:?}: sequential {s:?} vs parallel {p:?}"
                    )));
                }
            }
        }
    }

    /// Batch containment against one fixed query agrees with the
    /// pairwise route (the cq face of template reuse).
    #[test]
    fn batch_containment_matches_pairwise(edge_lists in proptest::collection::vec(
        proptest::collection::vec((0u32..4, 0u32..4), 1..4), 1..5,
    )) {
        use cqcs::cq::{contained_in, contained_in_batch, par_contained_in_batch, parse_query};
        let as_query = |edges: &[(u32, u32)]| {
            let body: Vec<String> = edges
                .iter()
                .map(|&(x, y)| format!("E(V{x}, V{y})"))
                .collect();
            parse_query(&format!("Q(V{}) :- {}.", edges[0].0, body.join(", "))).unwrap()
        };
        let q2 = as_query(&edge_lists[0]);
        let q1s: Vec<_> = edge_lists.iter().map(|e| as_query(e)).collect();
        let batch = contained_in_batch(&q1s, &q2).unwrap();
        for (q1, got) in q1s.iter().zip(&batch) {
            prop_assert_eq!(*got, contained_in(q1, &q2).unwrap());
        }
        // The parallel variant answers identically.
        prop_assert_eq!(par_contained_in_batch(&q1s, &q2, 2).unwrap(), batch);
        // Reflexivity comes out of the batch too: q2 is its own first
        // candidate here only when the head variable matches; just pin
        // q2 ⊑ q2 directly.
        prop_assert!(contained_in_batch(std::slice::from_ref(&q2), &q2).unwrap()[0]);
    }

    /// The product of mixed-arity structures multiplies universes and
    /// relation cardinalities exactly (distinct tuple pairs stay
    /// distinct).
    #[test]
    fn product_cardinalities_mixed_arity(
        (a, b) in mixed_arity_pair(3, 3, 4),
    ) {
        let p = direct_product(&a, &b);
        prop_assert_eq!(p.universe(), a.universe() * b.universe());
        for r in a.vocabulary().iter() {
            let pr = p.vocabulary().lookup(a.vocabulary().name(r)).unwrap();
            let br = b.vocabulary().lookup(a.vocabulary().name(r)).unwrap();
            prop_assert_eq!(
                p.relation(pr).len(),
                a.relation(r).len() * b.relation(br).len()
            );
        }
    }

    /// Differential oracle: the branch-and-bound solver and the subset
    /// DP compute the same treewidth on random graphs (mixed densities
    /// via the free edge count), and the B&B's elimination order
    /// witnesses that width through a validated tree decomposition.
    /// Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn bb_matches_subset_dp_with_witness(a in digraph(13, 40)) {
        let g = cqcs::structures::gaifman_graph(&a);
        let r = bb_treewidth(&g);
        prop_assert_eq!(r.width, dp_treewidth(&g), "B&B disagrees with DP");
        prop_assert_eq!(r.order.len(), g.len());
        prop_assert_eq!(elimination_width(&g, &r.order), r.width);
        let td = decomposition_from_elimination(&g, &r.order);
        prop_assert!(td.validate_graph(&g).is_ok());
        prop_assert_eq!(td.width(), r.width, "order does not witness the width");
    }

    /// The sandwich every width measure must respect:
    /// `mmd ≤ mmd⁺ ≤ exact ≤ min(min-fill, min-degree)`, with
    /// `DpScratch::proves_treewidth_above` pinned to the lower bounds.
    #[test]
    fn treewidth_sandwich(a in digraph(12, 36)) {
        let g = cqcs::structures::gaifman_graph(&a);
        let exact = exact_treewidth(&g);
        prop_assert!(mmd_lower_bound(&g) <= exact);
        prop_assert!(mmd_plus_lower_bound(&g) <= exact);
        // The DP scratch's certificate is exactly `max(MMD, MMD⁺) > k`,
        // so it is sound by the two bounds above.
        let bound = mmd_lower_bound(&g).max(mmd_plus_lower_bound(&g));
        let mut scratch = DpScratch::default();
        for k in 0..=4 {
            prop_assert_eq!(scratch.proves_treewidth_above(&a, k), bound > k, "k = {}", k);
        }
        let min_fill = elimination_width(&g, &min_fill_order(&g));
        let min_degree = elimination_width(&g, &min_degree_order(&g));
        prop_assert!(exact <= min_fill.min(min_degree));
    }

    /// The cached-fill min-fill order is *identical* to the
    /// from-scratch reference, not merely equal in width.
    #[test]
    fn min_fill_cache_preserves_order(a in digraph(12, 40)) {
        let g = cqcs::structures::gaifman_graph(&a);
        prop_assert_eq!(min_fill_order(&g), min_fill_order_reference(&g));
    }

    /// The compiled Theorem 5.4 DP is bit-identical to the hash-map
    /// reference — verdict and witness — over min-fill, min-degree,
    /// branch-and-bound and trivial decompositions: on mixed-arity
    /// pairs, on the same instance against its template with `T`
    /// emptied (zero-word support bitsets), and on a forest against a
    /// wide template (support bitsets of several words). Corrupted
    /// decompositions — a dropped tree edge, an element removed from a
    /// bag, an out-of-range element added — give the same `Err` (or,
    /// when a removal leaves the decomposition valid, the same answer).
    /// One scratch serves every call, so reuse is pinned as well.
    /// Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn compiled_dp_matches_reference(
        (a, b) in mixed_arity_pair(6, 3, 6),
        wide in wide_digraph(),
        forest in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..=2),
        cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 3),
    ) {
        use cqcs::structures::SupportIndex;
        let mut scratch = DpScratch::default();
        for b in [b.clone(), without_relation(&b, "T")] {
            let support = SupportIndex::build(&b);
            for td in dp_decompositions(&a) {
                dp_parity(&a, &b, &td, &support, &mut scratch)?;
                for bad in corrupted(&td, a.universe(), &cuts) {
                    dp_parity(&a, &b, &bad, &support, &mut scratch)?;
                }
            }
        }
        // Only width-1 decompositions against the wide template: its
        // |B|^{|bag|} rows stay in the thousands.
        let a = forest_digraph(&forest);
        let support = SupportIndex::build(&wide);
        for td in dp_decompositions(&a).into_iter().filter(|td| td.width() <= 1) {
            dp_parity(&a, &wide, &td, &support, &mut scratch)?;
        }
    }

    /// The compiled engine agrees with the reference refinement on
    /// templates past the single-tuple-word regime, where the scalar
    /// live-tuple kernel never runs: a wide template (universe > 64,
    /// often > 64 tuples per relation) on the multi-word kernels, and a
    /// narrow one (33–64 elements, > 64 tuples, self-loops) on the
    /// binary neighbour-row kernel. For each: the establish fixpoint,
    /// every assign along a random path, and the exact restore after
    /// unwinding. Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn compiled_engine_matches_interpreted_wide(
        a in digraph(6, 12),
        wide in wide_digraph(),
        narrow in dense_narrow_digraph(),
        picks in proptest::collection::vec((0usize..8, 0usize..64), 0..3),
    ) {
        for b in [&wide, &narrow] {
            let mut comp = ProgramPropagator::new(&a, b, compile_for(b));
            if !establish_matches_reference(&mut comp)? {
                continue;
            }
            let base = comp.domains_vec();
            for &(xe, vv) in &picks {
                let x = Element::new(xe % a.universe());
                if !assign_matches_reference(&mut comp, x, vv)? {
                    break;
                }
            }
            while comp.depth() > 0 {
                comp.undo();
            }
            prop_assert_eq!(comp.domains_vec(), base);
        }
    }

    /// A `Session::watch` absorbing an arbitrary add/retract stream
    /// stays pinned to from-scratch `Session::solve` on every
    /// post-delta instance: same verdict, same route, bit-identical
    /// witness, and identical search statistics on every update except
    /// those the O(1) monotone-refutation path answers (it skips the
    /// solve entirely and reports no stats).
    /// Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn watch_session_stays_pinned_to_fresh_solves(
        (b, na, script) in delta_stream(4, 4, 5),
    ) {
        let (structures, deltas) = materialize_stream(na, &script);
        let session = Session::compile(&b);
        let mut watch = session.watch(&structures[0]);
        for (d, post) in deltas.iter().zip(&structures[1..]) {
            let before = watch.verdict();
            let refutations = watch.stats().monotone_refutations;
            let flip = watch.apply(d).unwrap();
            prop_assert_eq!(flip, (watch.verdict() != before).then_some(watch.verdict()));
            let fresh = session.solve(post);
            prop_assert_eq!(
                watch.solution().homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                fresh.homomorphism.as_ref().map(|h| h.as_slice().to_vec()),
                "witness"
            );
            prop_assert_eq!(watch.solution().route, fresh.route, "route");
            if watch.stats().monotone_refutations == refutations {
                prop_assert_eq!(&watch.solution().stats, &fresh.stats, "stats");
            } else {
                prop_assert_eq!(&watch.solution().stats, &None, "monotone stats");
            }
        }
    }

    /// Incremental Datalog (counting + DRed) stays pinned to
    /// from-scratch semi-naive evaluation under arbitrary add/retract
    /// streams on the transitive-closure/cycle program: same goal
    /// verdict and identical IDB fact sets after every step, with
    /// every step absorbed incrementally (the universe never grows, so
    /// the recompute fallback must not fire). Stress-runnable via
    /// `PROPTEST_CASES=5000`.
    #[test]
    fn incremental_datalog_matches_semi_naive(
        n in 2usize..=7,
        script in proptest::collection::vec(
            proptest::collection::vec((0u32..7, 0u32..7), 1..=4), 1..=8,
        ),
    ) {
        use cqcs::datalog::{eval::eval_semi_naive, programs, IncrementalEval, PredId};
        use cqcs::structures::StructureDelta;
        let program = programs::cycle_detection();
        let voc = generators::digraph_vocabulary();
        let mut facts: HashSet<Vec<u32>> = HashSet::new();
        let build = |facts: &HashSet<Vec<u32>>| {
            let mut bb = cqcs::structures::StructureBuilder::new(
                std::sync::Arc::clone(&voc), n,
            );
            for t in facts {
                bb.add_fact("E", t).unwrap();
            }
            bb.finish()
        };
        let mut structures = vec![build(&facts)];
        for step in &script {
            for &(x, y) in step {
                let t = vec![x % n as u32, y % n as u32];
                if !facts.insert(t.clone()) {
                    facts.remove(&t);
                }
            }
            structures.push(build(&facts));
        }
        let mut inc = IncrementalEval::new(&program, &structures[0]);
        for w in structures.windows(2) {
            let delta = StructureDelta::between(&w[0], &w[1]).unwrap();
            let goal = inc.apply_delta(&w[1], &delta);
            let fresh = eval_semi_naive(&program, &w[1]);
            prop_assert_eq!(goal, fresh.goal_derived, "goal verdict");
            for i in 0..program.num_preds() as u32 {
                let p = PredId(i);
                if program.is_idb(p) {
                    prop_assert_eq!(
                        inc.facts().get(&p).cloned().unwrap_or_default(),
                        fresh.facts.get(&p).cloned().unwrap_or_default(),
                        "IDB facts for {}", program.pred_name(p)
                    );
                }
            }
        }
        prop_assert_eq!(inc.stats().full_recomputes, 0);
        prop_assert_eq!(inc.stats().incremental_updates as usize, structures.len() - 1);
    }

    /// A structure stores each relation as its sorted, deduplicated
    /// tuples and lists each element's `(relation, tuple)` occurrences
    /// in relation-then-tuple order, once per tuple however often the
    /// element repeats in it — both checked against a naive scan of the
    /// input, on mixed arities 0–3 with repeated elements and duplicate
    /// facts. Stress-runnable via `PROPTEST_CASES=5000`.
    #[test]
    fn flat_layout_matches_naive_scan(
        n in 1usize..=6,
        facts in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0u32..8, 3)),
            0..=16,
        ),
        repeats in 0usize..=8,
    ) {
        // Duplicate a prefix of the facts, out of order.
        let mut all: Vec<(usize, Vec<u32>)> = facts
            .iter()
            .map(|(which, args)| {
                let arity = *which as usize;
                (arity, args[..arity].iter().map(|&v| v % n as u32).collect())
            })
            .collect();
        let dups: Vec<_> = all.iter().take(repeats).rev().cloned().collect();
        all.extend(dups);
        let voc = cqcs::structures::Vocabulary::from_symbols([("Z", 0), ("U", 1), ("E", 2), ("T", 3)])
            .unwrap()
            .into_shared();
        let mut b = cqcs::structures::StructureBuilder::new(voc.clone(), n);
        for (arity, args) in &all {
            b.add_fact(["Z", "U", "E", "T"][*arity], args).unwrap();
        }
        let s = b.finish();
        for r in voc.iter() {
            let expected: std::collections::BTreeSet<Vec<u32>> = all
                .iter()
                .filter(|(arity, _)| *arity == r.index())
                .map(|(_, args)| args.clone())
                .collect();
            let got: Vec<Vec<u32>> = s
                .relation(r)
                .iter()
                .map(|t| t.iter().map(|e| e.0).collect())
                .collect();
            prop_assert_eq!(&got, &expected.into_iter().collect::<Vec<_>>(), "relation {:?}", r);
        }
        for e in s.elements() {
            let mut naive = Vec::new();
            for r in voc.iter() {
                for (t, tuple) in s.relation(r).iter().enumerate() {
                    if tuple.contains(&e) {
                        naive.push((r, t as u32));
                    }
                }
            }
            prop_assert_eq!(s.occurrences(e), naive.as_slice(), "element {:?}", e);
        }
    }

    /// The forest pre-check ahead of GYO is exact: on digraphs and on
    /// arity-≤2 mixed structures (0-ary and unary facts, self-loops,
    /// both directions of an edge) the structure is α-acyclic exactly
    /// when the simple graph of its two-element tuples is a forest,
    /// i.e. has `|A| − components` edges. Stress-runnable via
    /// `PROPTEST_CASES=5000`.
    #[test]
    fn acyclic_iff_graph_is_forest(
        d in digraph(9, 14),
        n in 1usize..=9,
        facts in proptest::collection::vec((0u8..4, 0u32..9, 0u32..9, any::<bool>()), 0..=14),
    ) {
        let mixed = build_low_arity(n, &facts);
        for a in [d, mixed] {
            let mut g = cqcs::structures::UndirectedGraph::new(a.universe());
            for r in a.vocabulary().iter() {
                if a.vocabulary().arity(r) == 2 {
                    for t in a.relation(r).iter() {
                        if t[0] != t[1] {
                            g.add_edge(t[0].index(), t[1].index());
                        }
                    }
                }
            }
            let forest = g.num_edges() == a.universe() - g.components().len();
            prop_assert_eq!(is_acyclic(&a), forest);
        }
    }

    /// Forests bypass the pre-check and run the full reduction: the
    /// Yannakakis route still applies to every directed forest and
    /// agrees with the reference homomorphism test, with a valid witness.
    #[test]
    fn yannakakis_decides_forests(
        forest in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..=10),
        b in digraph(4, 7),
    ) {
        let a = forest_digraph(&forest);
        let verdict = yannakakis(&a, &b);
        prop_assert!(verdict.is_some(), "a forest is acyclic");
        let h = verdict.unwrap();
        prop_assert_eq!(h.is_some(), homomorphism_exists(&a, &b));
        if let Some(h) = &h {
            prop_assert!(is_homomorphism(h.as_slice(), &a, &b));
        }
    }

    /// The per-thread scratch pool is invisible: on one thread, a
    /// stream of `Session::solve`, `solve_batch` and
    /// `par_solve_batch(_, 1)` calls over K3 and C4, on instances that
    /// grow and shrink, interrupted once by a caught vocabulary-mismatch
    /// panic (which empties the pool), gives bit-for-bit the solutions
    /// the same call gives on a freshly spawned thread. Stress-runnable
    /// via `PROPTEST_CASES=5000`.
    #[test]
    fn scratch_pool_is_invisible(
        ops in proptest::collection::vec(
            (
                0u8..3,
                any::<bool>(),
                proptest::collection::vec((1usize..=12, 0u8..=100, any::<u64>(), any::<bool>()), 1..=4),
            ),
            1..=8,
        ),
        panic_at in 0usize..=8,
    ) {
        let sessions = [
            Session::compile(&generators::complete_graph(3)),
            Session::compile(&generators::directed_cycle(4)),
        ];
        let run = |kind: u8, session: &Session, batch: &[cqcs::structures::Structure]| match kind {
            0 => vec![session.solve(&batch[0])],
            1 => session.solve_batch(batch),
            _ => session.par_solve_batch(batch, 1),
        };
        for (i, (kind, c4, specs)) in ops.iter().enumerate() {
            if i == panic_at {
                let bad = generators::random_structure(3, &[3], 2, 0);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sessions[0].solve(&bad)
                }));
                prop_assert!(caught.is_err(), "vocabulary mismatch panics");
            }
            let batch: Vec<_> = specs
                .iter()
                .map(|&(n, density, seed, symmetric)| {
                    if symmetric {
                        let m = (n * (n - 1) / 2) * density as usize / 100;
                        generators::random_graph_nm(n, m, seed)
                    } else {
                        generators::random_digraph(n, density as f64 / 200.0, seed)
                    }
                })
                .collect();
            let session = &sessions[usize::from(*c4)];
            let here = run(*kind, session, &batch);
            let fresh = std::thread::scope(|s| s.spawn(|| run(*kind, session, &batch)).join().unwrap());
            prop_assert_eq!(here.len(), fresh.len());
            for (h, f) in here.iter().zip(&fresh) {
                prop_assert_eq!(
                    h.homomorphism.as_ref().map(|w| w.as_slice().to_vec()),
                    f.homomorphism.as_ref().map(|w| w.as_slice().to_vec()),
                    "witness, op {}", i
                );
                prop_assert_eq!(h.route, f.route, "route, op {}", i);
                prop_assert_eq!(h.stats, f.stats, "stats, op {}", i);
            }
        }
    }

    /// Exact treewidth reproduces the textbook values on known
    /// families: paths 1, cycles 2, cliques k-1, grids min(r, c).
    #[test]
    fn exact_treewidth_known_families(n in 3usize..=7, r in 2usize..=3, c in 2usize..=4) {
        let path = cqcs::structures::gaifman_graph(&generators::undirected_path(n));
        prop_assert_eq!(exact_treewidth(&path), 1);
        let cycle = cqcs::structures::gaifman_graph(&generators::undirected_cycle(n));
        prop_assert_eq!(exact_treewidth(&cycle), 2);
        let clique = cqcs::structures::gaifman_graph(&generators::complete_graph(n));
        prop_assert_eq!(exact_treewidth(&clique), n - 1);
        let grid = cqcs::structures::gaifman_graph(&generators::grid_graph(r, c));
        prop_assert_eq!(exact_treewidth(&grid), r.min(c));
    }
}

/// Strategy: a digraph template past the single-word regime — universe
/// in 65..=80 (two domain words) and enough edges that the `E` relation
/// frequently exceeds 64 tuples (two support words).
fn wide_digraph() -> impl Strategy<Value = cqcs::structures::Structure> {
    (
        65usize..=80,
        proptest::collection::vec((0u32..80, 0u32..80), 40..=140),
    )
        .prop_map(|(n, edges)| {
            let voc = generators::digraph_vocabulary();
            let mut b = cqcs::structures::StructureBuilder::new(voc, n);
            for (x, y) in edges {
                let _ = b.add_fact("E", &[x % n as u32, y % n as u32]);
            }
            b.finish()
        })
}

/// A binary template whose domains fit one word but whose tuples do
/// not: 33–64 elements (so bit 63 occurs), 65–400 drawn arcs, a loop on
/// the top element and a few more loops, keeping more than 64 tuples.
fn dense_narrow_digraph() -> impl Strategy<Value = cqcs::structures::Structure> {
    (
        33usize..=64,
        proptest::collection::vec((0u32..64, 0u32..64), 65..=400),
        proptest::collection::vec(0u32..64, 0..=4),
    )
        .prop_map(|(n, edges, loops)| {
            let voc = generators::digraph_vocabulary();
            let mut b = cqcs::structures::StructureBuilder::new(voc, n);
            let top = n as u32 - 1;
            for (x, y) in edges.into_iter().chain(loops.iter().map(|&v| (v, v))) {
                let _ = b.add_fact("E", &[x % n as u32, y % n as u32]);
            }
            let _ = b.add_fact("E", &[top, top]);
            b.finish()
        })
        .prop_filter("more than 64 tuples", |b| b.total_tuples() > 64)
}

/// The four decompositions the DP parity property runs: min-fill,
/// min-degree, branch-and-bound, and the trivial single bag.
fn dp_decompositions(a: &cqcs::structures::Structure) -> Vec<TreeDecomposition> {
    let g = cqcs::structures::gaifman_graph(a);
    vec![
        decomposition_from_elimination(&g, &min_fill_order(&g)),
        decomposition_from_elimination(&g, &min_degree_order(&g)),
        decomposition_from_elimination(&g, &bb_treewidth(&g).order),
        TreeDecomposition::trivial(a.universe()),
    ]
}

/// `td` with one tree edge dropped, one element removed from a bag, and
/// one element past `universe` added to a bag (positions from `cuts`).
fn corrupted(
    td: &TreeDecomposition,
    universe: usize,
    cuts: &[(usize, usize)],
) -> Vec<TreeDecomposition> {
    let mut out = Vec::new();
    if !td.edges.is_empty() {
        let mut t = td.clone();
        t.edges.remove(cuts[0].0 % t.edges.len());
        out.push(t);
    }
    let (i, j) = cuts[1];
    let mut t = td.clone();
    let n = t.bags.len();
    let bag = &mut t.bags[i % n];
    if let Some(e) = bag.iter().nth(j % bag.len().max(1)) {
        bag.remove(e);
        out.push(t);
    }
    let (i, j) = cuts[2];
    let mut t = td.clone();
    let outside = universe + j % 3;
    let mut bag = BitSet::new(outside + 1);
    for e in t.bags[i % n].iter() {
        bag.insert(e);
    }
    bag.insert(outside);
    t.bags[i % n] = bag;
    out.push(t);
    out
}

/// The compiled DP (pooled on `scratch`, and the one-shot wrapper)
/// answers exactly as the reference, `Err` included.
fn dp_parity(
    a: &cqcs::structures::Structure,
    b: &cqcs::structures::Structure,
    td: &TreeDecomposition,
    support: &cqcs::structures::SupportIndex,
    scratch: &mut DpScratch,
) -> Result<(), TestCaseError> {
    let reference = solve_with_decomposition_reference(a, b, td);
    prop_assert_eq!(
        solve_with_decomposition_pooled(a, b, td, support, scratch),
        reference.clone()
    );
    prop_assert_eq!(solve_with_decomposition(a, b, td), reference);
    Ok(())
}

/// `b` with relation `name` emptied.
fn without_relation(b: &cqcs::structures::Structure, name: &str) -> cqcs::structures::Structure {
    let voc = b.vocabulary();
    let mut out = cqcs::structures::StructureBuilder::new(std::sync::Arc::clone(voc), b.universe());
    for r in voc.iter().filter(|&r| voc.name(r) != name) {
        for t in b.relation(r).iter() {
            let args: Vec<u32> = t.iter().map(|e| e.0).collect();
            out.add_fact(voc.name(r), &args).unwrap();
        }
    }
    out.finish()
}

/// A directed forest: vertex `i + 1` gets one edge to an earlier
/// vertex, in either direction.
fn forest_digraph(edges: &[(u32, bool)]) -> cqcs::structures::Structure {
    let n = edges.len() + 1;
    let mut b = cqcs::structures::StructureBuilder::new(generators::digraph_vocabulary(), n);
    for (i, &(pick, down)) in edges.iter().enumerate() {
        let (child, parent) = (i as u32 + 1, pick % (i as u32 + 1));
        let (x, y) = if down {
            (parent, child)
        } else {
            (child, parent)
        };
        b.add_fact("E", &[x, y]).unwrap();
    }
    b.finish()
}

/// Builds an arity-≤2 structure over `{Z/0, U/1, E/2, F/2}`: each fact
/// `(which, x, y, both)` adds `Z()`, `U(x)`, or an `E`/`F` edge `(x, y)`
/// (a self-loop when `x = y`), plus `(y, x)` when `both`.
fn build_low_arity(n: usize, facts: &[(u8, u32, u32, bool)]) -> cqcs::structures::Structure {
    let voc = cqcs::structures::Vocabulary::from_symbols([("Z", 0), ("U", 1), ("E", 2), ("F", 2)])
        .unwrap()
        .into_shared();
    let mut b = cqcs::structures::StructureBuilder::new(voc, n);
    for &(which, x, y, both) in facts {
        let (x, y) = (x % n as u32, y % n as u32);
        match which {
            0 => b.add_fact("Z", &[]).unwrap(),
            1 => b.add_fact("U", &[x]).unwrap(),
            _ => {
                let name = if which == 2 { "E" } else { "F" };
                b.add_fact(name, &[x, y]).unwrap();
                if both {
                    b.add_fact(name, &[y, x]).unwrap();
                }
            }
        }
    }
    b.finish()
}

/// The template's propagation program, with a fresh support index.
fn compile_for(b: &cqcs::structures::Structure) -> std::sync::Arc<PropProgram> {
    std::sync::Arc::new(PropProgram::compile(b))
}

/// Establishes `prop` and checks it against the reference fixpoint from
/// full domains: the verdict always, the domains and deletion count
/// when consistent. Returns the verdict.
fn establish_matches_reference(prop: &mut ProgramPropagator<'_>) -> Result<bool, TestCaseError> {
    let (a, b) = (prop.left(), prop.right());
    let full = vec![BitSet::full(b.universe()); a.universe()];
    let reference = refine_domains_reference(a, b, full);
    let ok = prop.establish();
    prop_assert_eq!(ok, reference.consistent, "establish verdict");
    if ok {
        prop_assert_eq!(prop.domains_vec(), reference.domains, "fixpoint");
        prop_assert_eq!(prop.deletions(), reference.deletions, "deletions");
    }
    Ok(ok)
}

/// Assigns `x` its `pick`-th live value (mod the domain size) and checks
/// the result against the reference refinement of the narrowed domains:
/// the verdict always; when consistent, the domains and the deletion
/// count, which is the narrowing itself plus the reference's
/// deletions. Returns the verdict, leaving the frame open.
fn assign_matches_reference(
    prop: &mut ProgramPropagator<'_>,
    x: Element,
    pick: usize,
) -> Result<bool, TestCaseError> {
    let (a, b) = (prop.left(), prop.right());
    let mut dom = Vec::new();
    prop.domain_values_into(x, &mut dom);
    let v = dom[pick % dom.len()];
    let mut narrowed = prop.domains_vec();
    narrowed[x.index()].clear();
    narrowed[x.index()].insert(v);
    let reference = refine_domains_reference(a, b, narrowed);
    let before = prop.deletions();
    let ok = prop.assign(x, v);
    prop_assert_eq!(ok, reference.consistent, "{:?}:={} verdict", x, v);
    if ok {
        prop_assert_eq!(prop.domains_vec(), reference.domains, "{:?}:={}", x, v);
        prop_assert_eq!(
            prop.deletions() - before,
            dom.len() - 1 + reference.deletions,
            "{:?}:={} deletions",
            x,
            v
        );
    }
    Ok(ok)
}

/// One compiled template never rebuilds its support index: across a
/// batch of session solves on every route that runs the propagation
/// engine (the Auto dispatcher's AC prefilter, Generic MAC/AC searches,
/// and plain Generic searches, which share the session's program
/// without establishing it) or the Theorem 5.4 DP (Auto's and the
/// forced Treewidth route's tuple checks read the program's index), the
/// per-thread build counter moves exactly once.
#[test]
fn support_index_built_once_per_template() {
    use cqcs::structures::support_builds_on_this_thread;
    let b = generators::complete_graph(3);
    let session = Session::compile(&b);
    let batch: Vec<_> = (0..6u64)
        .map(|s| generators::random_graph_nm(10, 20, s))
        .collect();
    let before = support_builds_on_this_thread();
    for a in &batch {
        let _ = session.solve(a);
        let _ = session.solve_with(a, SolveStrategy::Generic(SearchOptions::default()));
        let _ = session.solve_with(
            a,
            SolveStrategy::Generic(SearchOptions {
                mrv: true,
                mac: false,
                ac_preprocess: true,
            }),
        );
        // A plain search reuses the session's program, never a new one.
        let _ = session.solve_with(
            a,
            SolveStrategy::Generic(SearchOptions {
                mrv: true,
                mac: false,
                ac_preprocess: false,
            }),
        );
        let _ = session.solve_with(a, SolveStrategy::Treewidth);
    }
    let _ = session.solve_batch(&batch);
    assert_eq!(
        support_builds_on_this_thread() - before,
        1,
        "the session must lower exactly one support index per template"
    );
}

/// Known treewidth families pinned through the branch-and-bound oracle
/// (deterministic, not property-sampled — these are the textbook
/// regression anchors for the exact subsystem, several past the subset
/// DP's 24-vertex ceiling).
#[test]
fn bb_treewidth_known_family_regressions() {
    let check = |g: &cqcs::structures::UndirectedGraph, want: usize, what: &str| {
        let r = bb_treewidth(g);
        assert_eq!(r.width, want, "{what}");
        let td = decomposition_from_elimination(g, &r.order);
        td.validate_graph(g).unwrap();
        assert_eq!(td.width(), want, "{what}: order fails to witness");
    };
    use cqcs::structures::{gaifman_graph, UndirectedGraph};
    for n in [4usize, 6, 8] {
        check(
            &gaifman_graph(&generators::complete_graph(n)),
            n - 1,
            &format!("K_{n}"),
        );
    }
    for n in [5usize, 12, 30] {
        check(
            &gaifman_graph(&generators::undirected_cycle(n)),
            2,
            &format!("C_{n}"),
        );
    }
    for n in [10usize, 25, 40] {
        // Random 1-trees are exactly the trees.
        check(
            &UndirectedGraph::from_edges(n, &generators::ktree_edges(n, 1, n as u64)),
            1,
            &format!("tree on {n} vertices"),
        );
    }
    for (rows, cols) in [(2usize, 9usize), (3, 7), (4, 5)] {
        check(
            &gaifman_graph(&generators::grid_graph(rows, cols)),
            rows.min(cols),
            &format!("{rows}×{cols} grid"),
        );
    }
    check(&gaifman_graph(&generators::petersen()), 4, "Petersen");
}

/// Strategy: a template plus a batch of instances over the shared
/// `{U/1, E/2, T/3}` vocabulary — the parallel-batch executor's input
/// shape (batches mix empty, tiny, and propagation-heavy instances, so
/// routes and worker scratch resets vary within one batch).
fn mixed_arity_batch(
    max_nb: usize,
    max_na: usize,
    max_batch: usize,
) -> impl Strategy<
    Value = (
        cqcs::structures::Structure,
        Vec<cqcs::structures::Structure>,
    ),
> {
    let instance = move |max_n: usize| {
        (
            1..=max_n,
            proptest::collection::vec((any::<u8>(), proptest::collection::vec(0u32..8, 3)), 0..=10),
        )
    };
    (
        instance(max_nb),
        proptest::collection::vec(instance(max_na), 0..=max_batch),
    )
        .prop_map(|((nb, tb), instances)| {
            (
                build_mixed_arity(nb, &tb),
                instances
                    .into_iter()
                    .map(|(na, ta)| build_mixed_arity(na, &ta))
                    .collect(),
            )
        })
}

/// Builds one mixed-arity structure over `{U/1, E/2, T/3}`.
fn build_mixed_arity(n: usize, tuples: &[(u8, Vec<u32>)]) -> cqcs::structures::Structure {
    let mut voc = cqcs::structures::Vocabulary::new();
    voc.add("U", 1).unwrap();
    voc.add("E", 2).unwrap();
    voc.add("T", 3).unwrap();
    let voc = voc.into_shared();
    let mut b = cqcs::structures::StructureBuilder::new(voc, n);
    for (which, args) in tuples {
        let name = ["U", "E", "T"][(*which % 3) as usize];
        let arity = (*which % 3) as usize + 1;
        let args: Vec<u32> = args
            .iter()
            .cycle()
            .take(arity)
            .map(|&v| v % n as u32)
            .collect();
        let _ = b.add_fact(name, &args);
    }
    b.finish()
}

/// A [`delta_stream`] sample: the template, the instance universe
/// size, and the toggle script (one list of `{U/1, E/2, T/3}` fact
/// togglings per step).
type DeltaStreamInput = (cqcs::structures::Structure, usize, Vec<Vec<(u8, Vec<u32>)>>);

/// Strategy: a mixed-arity template plus an instance-side add/retract
/// script — a base universe size and a list of steps, each toggling
/// membership of a few `{U/1, E/2, T/3}` facts. Materialized by
/// [`materialize_stream`] into nested structures and valid deltas.
fn delta_stream(
    max_nb: usize,
    max_na: usize,
    max_steps: usize,
) -> impl Strategy<Value = DeltaStreamInput> {
    (
        (
            1..=max_nb,
            proptest::collection::vec((any::<u8>(), proptest::collection::vec(0u32..8, 3)), 0..=12),
        ),
        1..=max_na,
        proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), proptest::collection::vec(0u32..8, 3)), 1..=4),
            1..=max_steps,
        ),
    )
        .prop_map(|((nb, tb), na, script)| (build_mixed_arity(nb, &tb), na, script))
}

/// Plays a [`delta_stream`] script: each step toggles its facts in a
/// running fact set, yielding the structure after every step and the
/// exact `StructureDelta` between consecutive states.
fn materialize_stream(
    n: usize,
    script: &[Vec<(u8, Vec<u32>)>],
) -> (
    Vec<cqcs::structures::Structure>,
    Vec<cqcs::structures::StructureDelta>,
) {
    let mut facts: HashSet<(usize, Vec<u32>)> = HashSet::new();
    let build = |facts: &HashSet<(usize, Vec<u32>)>| {
        let tuples: Vec<(u8, Vec<u32>)> = facts
            .iter()
            .map(|(which, args)| (*which as u8, args.clone()))
            .collect();
        build_mixed_arity(n, &tuples)
    };
    let mut structures = vec![build(&facts)];
    for step in script {
        for (which, args) in step {
            let which = (*which % 3) as usize;
            let args: Vec<u32> = args
                .iter()
                .cycle()
                .take(which + 1)
                .map(|&v| v % n as u32)
                .collect();
            let key = (which, args);
            if !facts.insert(key.clone()) {
                facts.remove(&key);
            }
        }
        structures.push(build(&facts));
    }
    let deltas = structures
        .windows(2)
        .map(|w| cqcs::structures::StructureDelta::between(&w[0], &w[1]).unwrap())
        .collect();
    (structures, deltas)
}

/// Strategy: a pair of structures over a shared vocabulary
/// `{U/1, E/2, T/3}`, hitting code paths the digraph-only strategies
/// cannot (unary constraints, ternary constraint propagation).
fn mixed_arity_pair(
    max_na: usize,
    max_nb: usize,
    max_tuples: usize,
) -> impl Strategy<Value = (cqcs::structures::Structure, cqcs::structures::Structure)> {
    (
        1..=max_na,
        proptest::collection::vec((any::<u8>(), proptest::collection::vec(0u32..8, 3)), 0..=12),
        1..=max_nb,
        proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0u32..8, 3)),
            0..=max_tuples * 3,
        ),
    )
        .prop_map(move |(na, ta, nb, tb)| (build_mixed_arity(na, &ta), build_mixed_arity(nb, &tb)))
}

/// SplitMix64 for the structured families below: one `u64` case seed
/// expands into whole templates and instances.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `base` with each vertex `i` blown up into 1–3 copies that relate to
/// every other vertex's copies as `i` does (so any two copies are
/// interchangeable), capped at `max` vertices. Copies of a looped vertex
/// are all joined, loops included; with `twins_joined`, the copies of
/// any other vertex are joined (true twins) or not (false twins) at
/// random, and without it never.
fn blow_up(
    base: &[(usize, usize)],
    n: usize,
    max: usize,
    twins_joined: bool,
    rng: &mut Mix,
) -> cqcs::structures::Structure {
    let mut owner = Vec::new();
    let mut joined = Vec::new();
    for i in 0..n {
        // Leave room for one copy of every later vertex.
        let room = max - owner.len() - (n - 1 - i);
        owner.extend(std::iter::repeat_n(i, (1 + rng.below(3)).min(room)));
        joined.push(twins_joined && rng.below(2) == 0);
    }
    let has = |i: usize, j: usize| base.contains(&(i, j));
    let mut b =
        cqcs::structures::StructureBuilder::new(generators::digraph_vocabulary(), owner.len());
    for (x, &i) in owner.iter().enumerate() {
        for (y, &j) in owner.iter().enumerate() {
            let arc = if i != j {
                has(i, j)
            } else {
                has(i, i) || (x != y && joined[i])
            };
            if arc {
                b.add_fact("E", &[x as u32, y as u32]).unwrap();
            }
        }
    }
    b.finish()
}

/// A template with interchangeable values: K2–K6, a complete
/// multipartite graph, a K_n with a unary relation over some of its
/// values, a graph with twin vertices, or a looped digraph with twins.
fn symmetric_template(rng: &mut Mix) -> cqcs::structures::Structure {
    match rng.below(5) {
        0 => generators::complete_graph(2 + rng.below(5)),
        1 => {
            let k = 2 + rng.below(2);
            let parts: Vec<(usize, usize)> = (0..k)
                .flat_map(|i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect();
            blow_up(&parts, k, 7, false, rng)
        }
        2 => {
            let n = 2 + rng.below(4);
            let voc = cqcs::structures::Vocabulary::from_symbols([("E", 2), ("U", 1)])
                .unwrap()
                .into_shared();
            let mut b = cqcs::structures::StructureBuilder::new(voc, n);
            for x in 0..n as u32 {
                for y in 0..n as u32 {
                    if x != y {
                        b.add_fact("E", &[x, y]).unwrap();
                    }
                }
                if rng.below(2) == 0 {
                    b.add_fact("U", &[x]).unwrap();
                }
            }
            b.finish()
        }
        kind => {
            // A random base graph (symmetric, loop-free) or digraph
            // (loops allowed) on 2–4 vertices, blown up into twins.
            let n = 2 + rng.below(3);
            let mut base = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    let take = if kind == 3 { i < j } else { true };
                    if take && rng.below(2) == 0 {
                        base.push((i, j));
                        if kind == 3 {
                            base.push((j, i));
                        }
                    }
                }
            }
            blow_up(&base, n, 7, true, rng)
        }
    }
}

/// A random instance over `b`'s vocabulary on 1–6 elements: a few unary
/// facts, and binary facts between distinct elements plus a rare loop.
fn instance_over(b: &cqcs::structures::Structure, rng: &mut Mix) -> cqcs::structures::Structure {
    let n = 1 + rng.below(6);
    let voc = b.vocabulary();
    let mut a = cqcs::structures::StructureBuilder::new(std::sync::Arc::clone(voc), n);
    for r in voc.iter() {
        match voc.arity(r) {
            1 => {
                for _ in 0..rng.below(3) {
                    a.add_tuple(r, &[Element(rng.below(n) as u32)]).unwrap();
                }
            }
            _ => {
                for _ in 0..rng.below(2 * n + 2) {
                    let (x, y) = (rng.below(n), rng.below(n));
                    if x != y || rng.below(8) == 0 {
                        a.add_tuple(r, &[Element(x as u32), Element(y as u32)])
                            .unwrap();
                    }
                }
            }
        }
    }
    a.finish()
}

/// `{P/0, U/1, E/2, W/4}`: the acyclic families' vocabulary.
fn acyclic_vocabulary() -> std::sync::Arc<cqcs::structures::Vocabulary> {
    cqcs::structures::Vocabulary::from_symbols([("P", 0), ("U", 1), ("E", 2), ("W", 4)])
        .unwrap()
        .into_shared()
}

/// A random α-acyclic structure, grown as a hypertree: each new tuple
/// takes up to `arity − 1` elements of one earlier tuple (sometimes the
/// same one twice) and fresh elements elsewhere, so it is always an ear.
/// Shapes: binary forests, wide `W` tuples, disconnected pieces (a tuple
/// sharing nothing), isolated elements and the 0-ary fact.
fn acyclic_instance(rng: &mut Mix) -> cqcs::structures::Structure {
    let voc = acyclic_vocabulary();
    let names = ["U", "E", "W"];
    let wide = rng.below(3);
    let mut tuples: Vec<(&str, Vec<u32>)> = Vec::new();
    let mut fresh = 0u32;
    for _ in 0..rng.below(9) {
        let name = names[match wide {
            0 => 1,
            1 => 1 + rng.below(2),
            _ => rng.below(3),
        }];
        let arity = voc.arity(voc.lookup(name).unwrap());
        let base = (!tuples.is_empty() && rng.below(5) != 0)
            .then(|| tuples[rng.below(tuples.len())].1.clone());
        let share = base.as_ref().map_or(0, |_| rng.below(arity));
        let mut t: Vec<u32> = Vec::with_capacity(arity);
        for q in 0..arity {
            let e = match &base {
                Some(base) if q < share => base[rng.below(base.len())],
                _ if q > 0 && rng.below(5) == 0 => t[q - 1],
                _ => {
                    fresh += 1;
                    fresh - 1
                }
            };
            t.push(e);
        }
        tuples.push((name, t));
    }
    let n = fresh as usize + rng.below(3);
    let mut builder = cqcs::structures::StructureBuilder::new(voc, n);
    for (name, t) in &tuples {
        builder.add_fact(name, t).unwrap();
    }
    if rng.below(3) == 0 {
        builder.add_fact("P", &[]).unwrap();
    }
    builder.finish()
}

/// A template over [`acyclic_vocabulary`]: small (1–6 elements, dense)
/// or large (300+ elements, where two shared elements overflow the
/// semijoin's key bitset), with or without the 0-ary fact.
fn acyclic_template(rng: &mut Mix) -> cqcs::structures::Structure {
    let voc = acyclic_vocabulary();
    let large = rng.below(4) == 0;
    let n = if large {
        300 + rng.below(40)
    } else {
        1 + rng.below(6)
    };
    let mut builder = cqcs::structures::StructureBuilder::new(std::sync::Arc::clone(&voc), n);
    let hub = if large { 12 } else { n };
    for r in voc.iter() {
        let arity = voc.arity(r);
        let count = if large { 600 } else { rng.below(2 * n * n + 2) };
        for _ in 0..count {
            let t: Vec<u32> = (0..arity)
                .map(|q| rng.below(if q % 2 == 0 { hub } else { n }) as u32)
                .collect();
            builder
                .add_tuple(r, &t.iter().map(|&e| Element(e)).collect::<Vec<_>>())
                .unwrap();
        }
    }
    builder.finish()
}

/// A Boolean relation of arity `k` in class `op` (0 Horn, 1 dual Horn,
/// 2 bijunctive, 3 affine): the ∧-, ∨- or majority-closure of a random
/// set, or the solutions of random GF(2) equations.
fn class_relation(k: usize, op: usize, rng: &mut Mix) -> BooleanRelation {
    let size = 1u64 << k;
    let mut set: Vec<u64> = if op == 3 {
        let eqs: Vec<(u64, u64)> = (0..rng.below(3))
            .map(|_| (rng.next() % size, rng.next() % 2))
            .collect();
        (0..size)
            .filter(|t| {
                eqs.iter()
                    .all(|&(m, r)| u64::from((t & m).count_ones()) % 2 == r)
            })
            .collect()
    } else {
        (0..size).filter(|_| rng.below(3) == 0).collect()
    };
    loop {
        let before = set.len();
        let snap = set.clone();
        for &x in &snap {
            for &y in &snap {
                for &z in &snap {
                    let c = match op {
                        0 => x & y,
                        1 => x | y,
                        2 => BooleanRelation::majority(x, y, z),
                        _ => z,
                    };
                    if !set.contains(&c) {
                        set.push(c);
                    }
                }
            }
        }
        if set.len() == before {
            break;
        }
    }
    BooleanRelation::new(k, set).unwrap()
}

/// A Boolean template in class `op` (see [`class_relation`]): one to
/// three relations of arity 2–4, usually with the units `{1}` and `{0}`
/// (so neither trivial class applies) and sometimes an empty 0-ary
/// relation.
fn class_template(op: usize, rng: &mut Mix) -> cqcs::structures::Structure {
    let mut rels: Vec<(String, BooleanRelation)> = (0..1 + rng.below(3))
        .map(|i| (format!("R{i}"), class_relation(2 + rng.below(3), op, rng)))
        .collect();
    if rng.below(4) != 0 {
        rels.push(("T".into(), BooleanRelation::new(1, vec![1]).unwrap()));
        rels.push(("F".into(), BooleanRelation::new(1, vec![0]).unwrap()));
    }
    if rng.below(5) == 0 {
        rels.push(("Z".into(), BooleanRelation::new(0, vec![]).unwrap()));
    }
    cqcs::boolean::BooleanStructure::new(rels).to_structure()
}

/// The class whose model `solve_schaefer_via_formulas` returns: a
/// trivial class first, then bijunctive, affine, Horn, dual Horn.
fn formula_class(classes: cqcs::boolean::SchaeferSet) -> Option<schaefer::SchaeferClass> {
    use schaefer::SchaeferClass as C;
    [
        C::ZeroValid,
        C::OneValid,
        C::Bijunctive,
        C::Affine,
        C::Horn,
        C::DualHorn,
    ]
    .into_iter()
    .find(|&c| classes.contains(c))
}

/// Whether the plan and the formula route must return the same model:
/// they run the same class and it is not bijunctive (the plan's phase
/// order and the formula route's 2-SAT pick different models).
fn same_model(plan: &cqcs::boolean::SchaeferPlan) -> bool {
    plan.class() == formula_class(plan.classes())
        && plan.class() != Some(schaefer::SchaeferClass::Bijunctive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trying one value per interchangeable class changes no answer:
    /// on templates with interchangeable values, every `SearchOptions`
    /// combination returns the same verdict and witness as on the
    /// instance's twin with every value pinned apart
    /// (`generators::pin_values`), which has none, and its nodes,
    /// backtracks and deletions are each at most the twin's.
    /// Stress-runnable via `PROPTEST_CASES`.
    #[test]
    fn interchangeable_values_match_the_pinned_twin(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let b = symmetric_template(&mut rng);
        let a = instance_over(&b, &mut rng);
        let (a_pinned, b_pinned) = generators::pin_values(&a, &b);
        for mrv in [false, true] {
            for mac in [false, true] {
                for ac_preprocess in [false, true] {
                    let opts = SearchOptions { mrv, mac, ac_preprocess };
                    let (h, stats) = backtracking_search(&a, &b, opts);
                    let (twin_h, twin) = backtracking_search(&a_pinned, &b_pinned, opts);
                    prop_assert_eq!(
                        h.as_ref().map(|h| h.as_slice().to_vec()),
                        twin_h.as_ref().map(|h| h.as_slice().to_vec()),
                        "witness, {:?}", opts
                    );
                    prop_assert!(
                        stats.nodes <= twin.nodes
                            && stats.backtracks <= twin.backtracks
                            && stats.deletions <= twin.deletions,
                        "{:?}: {:?} against the twin's {:?}", opts, stats, twin
                    );
                }
            }
        }
    }

    /// The tuple-index Yannakakis evaluation returns exactly the
    /// hash-map reference's answer — acyclicity, verdict and witness —
    /// over one scratch reused across forests, wide hypergraphs with
    /// repeated elements, disconnected pieces, 0-ary facts, and small
    /// and large templates. Stress-runnable via `PROPTEST_CASES`.
    #[test]
    fn yannakakis_pooled_matches_reference(seed in any::<u64>()) {
        use cqcs::treewidth::acyclic::{yannakakis_pooled, yannakakis_reference, GyoScratch};
        let mut rng = Mix(seed);
        let mut scratch = GyoScratch::default();
        for _ in 0..3 {
            let b = acyclic_template(&mut rng);
            for _ in 0..3 {
                let a = acyclic_instance(&mut rng);
                let want = yannakakis_reference(&a, &b);
                prop_assert!(want.is_some(), "hypertrees are acyclic");
                prop_assert_eq!(yannakakis_pooled(&a, &b, &mut scratch), want);
            }
        }
        // Cyclic instances decline identically.
        let c = generators::random_digraph(6, 0.4, seed);
        let b = generators::random_digraph(3, 0.5, seed ^ 1);
        prop_assert_eq!(yannakakis_pooled(&c, &b, &mut scratch), yannakakis_reference(&c, &b));
    }

    /// The compiled Schaefer plan agrees with the literal Theorem 3.3
    /// pipeline on random templates of every class, over one reused
    /// scratch: the same verdict always, and the same model for Horn
    /// (least), dual Horn (greatest), affine (the unique RREF solution)
    /// and the trivial classes.
    #[test]
    fn schaefer_plan_matches_formulas(seed in any::<u64>()) {
        use cqcs::boolean::uniform::solve_schaefer_via_formulas;
        use cqcs::boolean::{SchaeferPlan, SchaeferScratch};
        let mut rng = Mix(seed);
        let mut scratch = SchaeferScratch::default();
        for op in 0..4 {
            let b = class_template(op, &mut rng);
            let plan = SchaeferPlan::compile(&b).unwrap();
            prop_assert!(plan.classes().is_schaefer());
            for _ in 0..4 {
                let n = 1 + rng.below(14);
                let a = generators::random_structure_over(b.vocabulary(), n, rng.below(6), rng.next());
                let want = solve_schaefer_via_formulas(&a, &b).unwrap();
                let got = plan.solve(&a, 1, &mut scratch).map(<[bool]>::to_vec);
                prop_assert_eq!(got.is_some(), want.is_some(), "verdict, {:?}", plan.class());
                if same_model(&plan) {
                    prop_assert_eq!(&got, &want, "model, {:?}", plan.class());
                }
                if let Some(h) = got {
                    let map: Vec<Element> = h.iter().map(|&v| Element(u32::from(v))).collect();
                    prop_assert!(is_homomorphism(&map, &a, &b));
                }
            }
        }
    }

    /// `Strategy::Booleanize` (a plan compiled from `B_b`, read on `A` at
    /// bit width `m`) agrees with the literal pipeline — `booleanize`,
    /// `solve_schaefer_via_formulas` on `(A_b, B_b)`, `decode` — on
    /// random templates of 3, 4 and 8 elements whose relations encode a
    /// class's Boolean relation: the same applicability, verdict and,
    /// where the models coincide, witness.
    #[test]
    fn booleanize_plan_matches_formulas(seed in any::<u64>()) {
        use cqcs::boolean::uniform::solve_schaefer_via_formulas;
        use cqcs::boolean::SchaeferPlan;
        let mut rng = Mix(seed);
        let (n, bits) = [(3, 2), (4, 2), (8, 3)][rng.below(3)];
        let voc = cqcs::structures::Vocabulary::from_symbols([("U", 1), ("E", 2)])
            .unwrap()
            .into_shared();
        let mut builder = cqcs::structures::StructureBuilder::new(std::sync::Arc::clone(&voc), n);
        let op = rng.below(4);
        for r in voc.iter() {
            let arity = voc.arity(r);
            for t in class_relation(arity * bits, op, &mut rng).iter() {
                let tuple: Vec<Element> = (0..arity)
                    .map(|q| Element(((t >> (q * bits)) & ((1 << bits) - 1)) as u32))
                    .collect();
                if tuple.iter().all(|e| e.index() < n) {
                    builder.add_tuple(r, &tuple).unwrap();
                }
            }
        }
        let b = builder.finish();
        let session = Session::compile(&b);
        for _ in 0..4 {
            let a = generators::random_structure_over(&voc, 1 + rng.below(10), rng.below(5), rng.next());
            let got = session.solve_with(&a, SolveStrategy::Booleanize);
            let (ab, bb, info) = booleanize(&a, &b).unwrap();
            match (got, solve_schaefer_via_formulas(&ab, &bb)) {
                (Err(_), Err(cqcs::boolean::Error::NotSchaefer)) => {}
                (Ok(sol), Ok(want)) => {
                    let want = want.map(|bits| {
                        let hb: Vec<Element> = bits.iter().map(|&v| Element(u32::from(v))).collect();
                        info.decode(&hb)
                    });
                    let got = sol.homomorphism.map(|h| h.as_slice().to_vec());
                    prop_assert_eq!(got.is_some(), want.is_some(), "verdict");
                    if same_model(&SchaeferPlan::compile(&bb).unwrap()) {
                        prop_assert_eq!(&got, &want, "witness");
                    }
                    if let Some(h) = got {
                        prop_assert!(is_homomorphism(&h, &a, &b));
                    }
                }
                (got, want) => prop_assert!(false, "applicability differs: {:?} vs {:?}", got.err(), want.err()),
            }
        }
    }

    /// The word-row kernel solves exactly as `LinearSystem::solve`:
    /// the same verdict and, when consistent, the same solution (free
    /// variables 0), around the word boundaries (63, 64, 65 and 130
    /// variables), with redundant and contradictory rows, and for the
    /// empty system — three systems per case on one reused basis.
    #[test]
    fn row_basis_matches_linear_system(seed in any::<u64>()) {
        use cqcs::boolean::{LinearSystem, RowBasis};
        let mut rng = Mix(seed);
        let mut basis = RowBasis::default();
        for _ in 0..3 {
            let vars = [0, 1, 5, 63, 64, 65, 130][rng.below(7)];
            let mut rows: Vec<(Vec<usize>, bool)> = Vec::new();
            for _ in 0..rng.below(if vars == 0 { 3 } else { vars + 8 }) {
                let row = match rng.below(4) {
                    // Redundant or contradictory: the sum of two rows.
                    0 if rows.len() >= 2 => {
                        let (x, y) = (&rows[rng.below(rows.len())], &rows[rng.below(rows.len())]);
                        let v: Vec<usize> = x.0.iter().chain(&y.0).copied().collect();
                        (v, x.1 ^ y.1 ^ (rng.below(3) == 0))
                    }
                    1 if vars > 0 => ((0..vars).filter(|_| rng.below(2) == 0).collect(), rng.below(2) == 1),
                    _ if vars > 0 => ((0..1 + rng.below(4)).map(|_| rng.below(vars)).collect(), rng.below(2) == 1),
                    _ => (Vec::new(), rng.below(2) == 1),
                };
                rows.push(row);
            }
            let mut sys = LinearSystem::new(vars);
            basis.reset(vars);
            let mut consistent = true;
            for (row, rhs) in &rows {
                // GF(2): a variable listed twice cancels in both encodings.
                let mut odd = vec![false; vars];
                for &v in row {
                    odd[v] ^= true;
                    basis.toggle(v);
                }
                sys.add_equation((0..vars).filter(|&v| odd[v]), *rhs);
                consistent = consistent && basis.insert(*rhs);
            }
            let got = consistent.then(|| {
                let mut out = Vec::new();
                basis.solution(&mut out);
                out
            });
            prop_assert_eq!(got, sys.solve(), "{} variables, {} rows", vars, rows.len());
        }
    }
}

/// A session compiles each Schaefer plan once: `B`'s for a Boolean
/// template, `B_b`'s for a non-Boolean one, whatever mix of Auto,
/// forced-route and batch solves follows (the plan counter moves by
/// exactly one per template).
#[test]
fn schaefer_plans_compiled_once_per_template() {
    use cqcs::boolean::plan_compiles_on_this_thread;
    use cqcs::core::Route;
    let cases = [
        (
            generators::complete_graph(2),
            (0..8)
                .map(|s| generators::random_graph_nm(16, 20, s))
                .collect::<Vec<_>>(),
            SolveStrategy::Schaefer,
        ),
        (
            generators::directed_cycle(4),
            (0..8)
                .map(|s| generators::random_digraph(12, 0.2, s))
                .chain([generators::directed_cycle(8)])
                .collect(),
            SolveStrategy::Booleanize,
        ),
        (
            generators::complete_graph(3),
            (0..8)
                .map(|s| generators::random_graph_nm(8, 12, s))
                .collect(),
            SolveStrategy::Booleanize,
        ),
    ];
    for (b, batch, forced) in cases {
        let session = Session::compile(&b);
        let before = plan_compiles_on_this_thread();
        for a in &batch {
            let sol = session.solve(a);
            if b.universe() == 2 {
                assert_eq!(sol.route, Route::Schaefer);
            }
            let _ = session.solve_with(a, forced);
        }
        let _ = session.solve_batch(&batch);
        assert_eq!(
            plan_compiles_on_this_thread() - before,
            1,
            "one plan per template, {} elements",
            b.universe()
        );
    }
}
