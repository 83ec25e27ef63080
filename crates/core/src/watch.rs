//! Register-once delta watching: [`WatchSession`].
//!
//! A [`Session`] answers `hom(A → B)` per instance; a `WatchSession`
//! answers it per **edit**. Register the check once against a compiled
//! template, then feed a stream of [`StructureDelta`]s: each
//! [`apply`](WatchSession::apply) re-solves on the post-delta structure
//! and reports exactly the goal-verdict flips. Three mechanisms keep
//! the per-update cost proportional to the delta instead of the
//! instance:
//!
//! * **Resident propagation state.** The compiled engine's
//!   arena — fixpoint domains, trail, counters — is parked between
//!   updates ([`SavedPropState`]) and rehydrated per delta
//!   ([`ProgramPropagator::resume_with_delta`]); when the shared
//!   admission rules (`cqcs_pebble::binding::plan_delta`) admit it, the
//!   worklist is re-seeded from the added tuples only, so
//!   re-establishing arc consistency costs O(delta's cone) rather than
//!   O(A×B). Inadmissible deltas (retractions, universe growth, prior
//!   wipeout) transparently rebind and establish from scratch.
//! * **Provable route skips.** An update runs the very stage functions
//!   [`Session::solve`] runs (`auto_before_engine` before the engine,
//!   `auto_on_engine` on it), not a copy of them. The only difference
//!   is what it passes in: the monotone proofs its earlier updates
//!   established, each of which skips the stage whose outcome it
//!   settles on the grown instance. All of them rest on monotonicity
//!   under fact additions, so any retraction clears them.
//!   GYO-cyclicity persists when every scope has arity ≤ 2 (a new edge
//!   can neither subsume a cycle edge nor enable an ear), and is passed
//!   in only then; `tw(A) >` budget persists because the Gaifman graph
//!   only gains vertices/edges and treewidth is subgraph-monotone. The
//!   DP stage sets that proof exactly where a fresh solve computes it:
//!   an MMD⁺ bound above budget (`DpScratch::proves_treewidth_above`),
//!   or a completed branch-and-bound probe where that bound is silent,
//!   both on instances of at most `EXACT_WIDTH_PROBE_MAX_VERTICES`
//!   elements.
//! * **Monotone refutation.** `A ⊆ A'` makes `hom(A → B) = ∅` final
//!   under additions; when the previous update was arc-refuted (and the
//!   GYO skip applies, so the fresh route is pinned), the update is
//!   O(1).
//!
//! **Parity contract**: the verdict, route, and witness of
//! [`solution`](WatchSession::solution) are bit-identical to a fresh
//! [`Session::solve`] on the current structure after every update
//! (pinned by the tests below, the facade property suite, and the
//! CI-gated experiment E17). Search statistics are also identical on
//! every route that executes; only the monotone-refutation fast path
//! returns `stats: None` where a fresh solve would recount the
//! establish deletions it provably does not need to repeat.
//!
//! ```
//! use cqcs_core::Session;
//! use cqcs_structures::{generators, StructureDelta};
//!
//! let session = Session::compile(&generators::complete_graph(3));
//! let a = generators::undirected_cycle(6);
//! let mut watch = session.watch(&a);
//! assert!(watch.verdict(), "C6 is 3-colorable");
//! let mut delta = StructureDelta::new(watch.current());
//! delta.add_fact("E", &[0, 2]).unwrap();
//! delta.add_fact("E", &[2, 0]).unwrap();
//! assert_eq!(watch.apply(&delta).unwrap(), None, "still 3-colorable");
//! ```
//!
//! The Datalog analogue (incremental least-fixpoint maintenance with
//! the same flip-notification surface) is
//! `cqcs_datalog::incremental::DatalogWatch`.

use crate::exec::Buffers;
use crate::session::{auto_before_engine, auto_on_engine, Proofs, Session};
use crate::solvers::dispatch::{Route, Solution};
use crate::CompiledTemplate;
use cqcs_pebble::program::{ProgramPropagator, SavedPropState};
use cqcs_structures::{Structure, StructureDelta};
use std::sync::Arc;

/// Per-update path counters: how the watch actually absorbed its
/// stream. `repaired_establishes + full_establishes` counts the updates
/// that reached the propagation stage at all (earlier routes and the
/// monotone fast path never touch the engine).
#[derive(Debug, Default, Clone, Copy)]
pub struct WatchStats {
    /// Deltas absorbed so far (excluding the registering solve).
    pub updates: usize,
    /// Propagation re-established in place from the delta's seeds.
    pub repaired_establishes: usize,
    /// Propagation rebuilt from scratch (first solve, retractions,
    /// growth, prior wipeout, oversized delta).
    pub full_establishes: usize,
    /// GYO acyclicity tests skipped via cached cyclicity.
    pub acyclicity_skips: usize,
    /// Treewidth stages skipped via a cached width lower bound.
    pub treewidth_skips: usize,
    /// O(1) updates via monotone arc-refutation.
    pub monotone_refutations: usize,
}

/// A homomorphism / CQ-containment check registered once against a
/// compiled template and maintained across a [`StructureDelta`] stream.
/// See the [module docs](self).
#[derive(Debug)]
pub struct WatchSession {
    template: Arc<CompiledTemplate>,
    current: Structure,
    solution: Solution,
    /// Parked engine state from the latest update, when that update
    /// reached the engine; any other route recycles it into
    /// `bufs.arena`, so repair admission never sees a snapshot of an
    /// older revision.
    saved: Option<SavedPropState>,
    /// What the stages proved about `current`, kept across
    /// additions-only deltas and cleared by any retraction.
    proofs: Proofs,
    bufs: Buffers,
    stats: WatchStats,
}

impl Session {
    /// Registers instance `a` against this session's template and
    /// solves it once; feed the returned watch deltas from there.
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    pub fn watch(&self, a: &Structure) -> WatchSession {
        WatchSession::open(self, a)
    }
}

impl WatchSession {
    /// [`Session::watch`] — registers `a` and computes the initial
    /// verdict with the full (skip-free) route dispatch.
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    pub fn open(session: &Session, a: &Structure) -> WatchSession {
        assert!(
            a.same_vocabulary(session.template().template()),
            "solve across different vocabularies"
        );
        let mut watch = WatchSession {
            template: Arc::clone(session.template()),
            current: a.clone(),
            solution: Solution {
                homomorphism: None,
                route: Route::Generic,
                stats: None,
            },
            saved: None,
            proofs: Proofs::default(),
            bufs: Buffers::default(),
            stats: WatchStats::default(),
        };
        watch.resolve(a.clone(), None);
        watch
    }

    /// Applies `delta` to the watched structure and re-solves. Returns
    /// `Ok(Some(new_verdict))` exactly when the verdict ("a
    /// homomorphism exists") flipped, `Ok(None)` when it held; errors
    /// (vocabulary mismatch, facts that do not match the current
    /// structure) leave the watch unchanged.
    pub fn apply(&mut self, delta: &StructureDelta) -> cqcs_structures::Result<Option<bool>> {
        let next = delta.apply(&self.current)?;
        let before = self.solution.homomorphism.is_some();
        self.stats.updates += 1;
        self.resolve(next, Some(delta));
        let after = self.solution.homomorphism.is_some();
        Ok((after != before).then_some(after))
    }

    /// Solves `next` with [`Session::solve`]'s stage functions, passing
    /// the proofs that still hold and an engine resumed from the parked
    /// fixpoint (see the [module docs](self)). `delta` is `None` only
    /// for the registering solve, which starts with no proofs.
    fn resolve(&mut self, next: Structure, delta: Option<&StructureDelta>) {
        let additions_only = delta.is_some_and(StructureDelta::additions_only);
        if !additions_only {
            // Retractions invalidate every monotone proof; the first
            // solve starts with none anyway.
            self.proofs = Proofs::default();
        }
        let template = Arc::clone(&self.template);
        let (b, facts, a) = (template.template(), &template.facts, &next);
        // The GYO proof and the monotone refutation pin fresh behaviour
        // only when no hyperedge scope can exceed 2.
        let arity_le2 = b.vocabulary().max_arity() <= 2;
        let proven = Proofs {
            gyo_cyclic: arity_le2 && self.proofs.gyo_cyclic,
            ..self.proofs
        };
        let mut proofs = proven;
        // Monotone refutation: additions cannot create a homomorphism,
        // and the fresh route is pinned to ArcRefuted (the stages before
        // the engine depend only on B, GYO stays cyclic, and the old
        // wipeout only deepens).
        let monotone = additions_only && arity_le2 && self.solution.route == Route::ArcRefuted;
        let early = if monotone {
            self.stats.monotone_refutations += 1;
            Some(Solution {
                homomorphism: None,
                route: Route::ArcRefuted,
                stats: None,
            })
        } else {
            auto_before_engine(b, facts, a, &mut self.bufs, &mut proofs)
        };
        // The parked snapshot describes the previous revision. The
        // engine resumes it; an earlier answer leaves it stale, so only
        // its allocation is kept.
        let saved = self.saved.take();
        let solution = match early {
            Some(sol) => {
                if let Some(saved) = saved {
                    self.bufs.arena = saved.into_arena();
                }
                sol
            }
            None => {
                let Buffers {
                    arena, search, dp, ..
                } = &mut self.bufs;
                let program = Arc::clone(template.program());
                let mut prop = match (saved, delta) {
                    (Some(saved), Some(d)) => {
                        ProgramPropagator::resume_with_delta(a, b, program, saved, d)
                    }
                    // Nothing to resume: bind on the spare arena. (The
                    // registering solve, the one without a delta,
                    // never has a parked state.)
                    _ => ProgramPropagator::with_arena(a, b, program, std::mem::take(arena)),
                };
                if prop.is_established() {
                    self.stats.repaired_establishes += 1;
                } else {
                    self.stats.full_establishes += 1;
                }
                let sol = auto_on_engine(b, facts, a, &mut prop, search, dp, &mut proofs);
                self.saved = Some(prop.into_saved());
                sol
            }
        };
        if !monotone {
            // A proof passed in skipped its stage whenever the solve got
            // that far: GYO runs right after Schaefer, and the DP stage
            // is the last before the search.
            self.stats.acyclicity_skips +=
                usize::from(proven.gyo_cyclic && solution.route != Route::Schaefer);
            self.stats.treewidth_skips +=
                usize::from(proven.tw_exceeds_budget && solution.route == Route::Generic);
        }
        self.proofs = proofs;
        self.solution = solution;
        self.current = next;
    }

    /// The current verdict: does a homomorphism `current → B` exist?
    pub fn verdict(&self) -> bool {
        self.solution.homomorphism.is_some()
    }

    /// The full solution of the latest update — verdict, route, and
    /// witness bit-identical to a fresh [`Session::solve`] on
    /// [`current`](WatchSession::current) (see the parity contract in
    /// the [module docs](self)).
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The watched structure as of the last applied delta.
    pub fn current(&self) -> &Structure {
        &self.current
    }

    /// The compiled template this watch runs against.
    pub fn template(&self) -> &Arc<CompiledTemplate> {
        &self.template
    }

    /// Update-path counters.
    pub fn stats(&self) -> WatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::{generators, Homomorphism, StructureBuilder};

    /// Verdict, route, and witness parity against a fresh solve on the
    /// watch's current structure — the module's contract.
    fn assert_parity(watch: &WatchSession, what: &str) {
        let fresh = Session::from_template(Arc::clone(watch.template())).solve(watch.current());
        assert_eq!(
            watch
                .solution()
                .homomorphism
                .as_ref()
                .map(Homomorphism::as_slice),
            fresh.homomorphism.as_ref().map(Homomorphism::as_slice),
            "{what}: witnesses differ"
        );
        assert_eq!(watch.solution().route, fresh.route, "{what}: routes differ");
        if watch.solution().stats.is_some() {
            assert_eq!(watch.solution().stats, fresh.stats, "{what}: stats differ");
        }
    }

    fn ramp_deltas(
        edges: &[(u32, u32)],
        n: usize,
        start: usize,
    ) -> (Structure, Vec<StructureDelta>) {
        let digraph = |m: usize| {
            let mut b = StructureBuilder::new(generators::digraph_vocabulary(), n);
            for &(x, y) in &edges[..m] {
                b.add_fact("E", &[x, y]).unwrap();
            }
            b.finish()
        };
        let a0 = digraph(start);
        let mut deltas = Vec::new();
        for m in start..edges.len() {
            let d = StructureDelta::between(&digraph(m), &digraph(m + 1)).unwrap();
            deltas.push(d);
        }
        (a0, deltas)
    }

    fn random_edges(n: u32, m: usize, mut seed: u64) -> Vec<(u32, u32)> {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut edges = Vec::new();
        while edges.len() < m {
            let x = (next() % n as u64) as u32;
            let y = (next() % n as u64) as u32;
            if x != y && !edges.contains(&(x, y)) && !edges.contains(&(y, x)) {
                edges.push((x, y));
            }
        }
        edges
    }

    #[test]
    fn additive_graph_ramp_stays_pinned_to_fresh_solves() {
        // Undirected G(n, m) ramp against K3: starts 3-colorable,
        // densifies until arc consistency (or search) refutes it.
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let pairs = random_edges(10, 28, 0xC0FFEE);
        let sym: Vec<(u32, u32)> = pairs.iter().flat_map(|&(x, y)| [(x, y), (y, x)]).collect();
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), 10);
        for &(x, y) in &sym[..8] {
            b.add_fact("E", &[x, y]).unwrap();
        }
        let a0 = b.finish();
        let mut watch = session.watch(&a0);
        assert_parity(&watch, "registering solve");
        let mut cur = a0;
        for step in 0..(sym.len() - 8) / 2 {
            let mut d = StructureDelta::new(&cur);
            d.add_fact("E", &[sym[8 + 2 * step].0, sym[8 + 2 * step].1])
                .unwrap();
            d.add_fact("E", &[sym[9 + 2 * step].0, sym[9 + 2 * step].1])
                .unwrap();
            cur = d.apply(&cur).unwrap();
            watch.apply(&d).unwrap();
            assert_parity(&watch, &format!("step {step}"));
        }
        let stats = watch.stats();
        assert_eq!(stats.updates, (sym.len() - 8) / 2);
        assert!(
            stats.repaired_establishes + stats.monotone_refutations > 0,
            "the additive ramp must exercise a delta path: {stats:?}"
        );
    }

    #[test]
    fn verdict_flips_are_reported_exactly_once() {
        // K3 plus a unary predicate P that is empty in the template:
        // any instance fact P(v) empties dom(v), so arc consistency
        // refutes — the dispatcher's ArcRefuted regime (Schaefer and
        // Booleanization stay closed: B is not Boolean and its
        // Booleanization is not Schaefer).
        let voc = cqcs_structures::Vocabulary::from_symbols([("E", 2), ("P", 1)])
            .unwrap()
            .into_shared();
        let mut bb = StructureBuilder::new(Arc::clone(&voc), 3);
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i != j {
                    bb.add_fact("E", &[i, j]).unwrap();
                }
            }
        }
        let template = bb.finish();
        let session = Session::compile(&template);

        // A directed triangle (GYO-cyclic, loopless → maps into K3).
        let mut ab = StructureBuilder::new(voc, 4);
        ab.add_fact("E", &[0, 1]).unwrap();
        ab.add_fact("E", &[1, 2]).unwrap();
        ab.add_fact("E", &[2, 0]).unwrap();
        let a0 = ab.finish();
        let mut watch = session.watch(&a0);
        assert!(watch.verdict(), "a triangle 3-colors");
        assert_parity(&watch, "registering solve");

        // P(0) has no image: wipeout, verdict flips to false.
        let mut d = StructureDelta::new(watch.current());
        d.add_fact("P", &[0]).unwrap();
        assert_eq!(watch.apply(&d).unwrap(), Some(false));
        assert_parity(&watch, "after the flip");
        assert_eq!(watch.solution().route, Route::ArcRefuted);

        // Further additions hold the verdict — and take the O(1)
        // monotone path (stats intentionally absent there).
        let mut d = StructureDelta::new(watch.current());
        d.add_fact("E", &[3, 1]).unwrap();
        assert_eq!(watch.apply(&d).unwrap(), None);
        assert_parity(&watch, "monotone refutation");
        assert_eq!(watch.stats().monotone_refutations, 1);

        // Retract the offending fact: verdict flips back to true.
        let mut d = StructureDelta::new(watch.current());
        d.retract_fact("P", &[0]).unwrap();
        assert_eq!(watch.apply(&d).unwrap(), Some(true));
        assert_parity(&watch, "after the flip back");
        assert_eq!(watch.stats().monotone_refutations, 1, "no longer monotone");
    }

    #[test]
    fn retractions_and_growth_rebind_but_stay_pinned() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let edges = random_edges(8, 16, 7);
        let sym: Vec<(u32, u32)> = edges.iter().flat_map(|&(x, y)| [(x, y), (y, x)]).collect();
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), 8);
        for &(x, y) in &sym {
            b.add_fact("E", &[x, y]).unwrap();
        }
        let a0 = b.finish();
        let mut watch = session.watch(&a0);
        assert_parity(&watch, "registering solve");

        // Retraction: clears the cache, rebinds, still pinned.
        let mut d = StructureDelta::new(watch.current());
        d.retract_fact("E", &[sym[0].0, sym[0].1]).unwrap();
        d.retract_fact("E", &[sym[1].0, sym[1].1]).unwrap();
        watch.apply(&d).unwrap();
        assert_parity(&watch, "after retraction");

        // Universe growth: layout re-keys, full rebind, still pinned.
        let mut d = StructureDelta::new(watch.current());
        d.grow_universe(1);
        d.add_fact("E", &[7, 8]).unwrap();
        d.add_fact("E", &[8, 7]).unwrap();
        watch.apply(&d).unwrap();
        assert_parity(&watch, "after growth");
        assert_eq!(watch.current().universe(), 9);
    }

    #[test]
    fn pre_propagation_routes_invalidate_the_parked_state() {
        // A template whose instances route through GYO/Yannakakis
        // (acyclic instances) interleaved with cyclic ones: the parked
        // snapshot from a propagating update must not be repaired
        // against a delta whose base the engine never saw.
        let tt4 = generators::transitive_tournament(4);
        let session = Session::compile(&tt4);
        // A directed path: acyclic route, no propagation.
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), 6);
        for i in 0..3u32 {
            b.add_fact("E", &[i, i + 1]).unwrap();
        }
        let a0 = b.finish();
        let mut watch = session.watch(&a0);
        assert_eq!(watch.solution().route, Route::Acyclic);
        assert_parity(&watch, "acyclic registering solve");

        // Close a cycle: now GYO fails and the solve propagates.
        let mut d = StructureDelta::new(watch.current());
        d.add_fact("E", &[3, 0]).unwrap();
        watch.apply(&d).unwrap();
        assert_parity(&watch, "cyclic");

        // Retract the closing edge — acyclic again, snapshot goes
        // stale (recycled, not trusted)...
        let mut d = StructureDelta::new(watch.current());
        d.retract_fact("E", &[3, 0]).unwrap();
        watch.apply(&d).unwrap();
        assert_eq!(watch.solution().route, Route::Acyclic);
        assert_parity(&watch, "acyclic again");

        // ...so this delta (whose base the engine never bound) must
        // not be "repaired" into the old arena.
        let mut d = StructureDelta::new(watch.current());
        d.add_fact("E", &[3, 5]).unwrap();
        d.add_fact("E", &[5, 4]).unwrap();
        d.add_fact("E", &[4, 3]).unwrap();
        watch.apply(&d).unwrap();
        assert_parity(&watch, "cyclic after stale snapshot");
    }

    #[test]
    fn dense_ramps_cache_treewidth_bounds() {
        // A dense instance whose Gaifman graph exceeds the treewidth
        // budget provably (MMD⁺): the stage is skipped on later
        // additions-only updates.
        let k4 = generators::complete_graph(4);
        let session = Session::compile(&k4);
        let pairs = random_edges(12, 40, 99);
        let sym: Vec<(u32, u32)> = pairs.iter().flat_map(|&(x, y)| [(x, y), (y, x)]).collect();
        let (a0, deltas) = ramp_deltas(&sym, 12, sym.len() - 8);
        let mut watch = session.watch(&a0);
        assert_parity(&watch, "registering solve");
        for (i, d) in deltas.iter().enumerate() {
            watch.apply(d).unwrap();
            assert_parity(&watch, &format!("ramp step {i}"));
        }
        let stats = watch.stats();
        assert!(
            stats.treewidth_skips + stats.acyclicity_skips > 0,
            "a dense additive ramp should hit the route cache: {stats:?}"
        );
    }

    #[test]
    fn e17_ramps_pin_the_watch_counters() {
        // E17's ramps: nested random_graph_nm(n, m, 7) prefixes against
        // K3, one undirected edge per delta. Every counter is pinned, so
        // a watch that silently stopped repairing or skipping fails here
        // even though each update stays pinned to a fresh solve. The
        // 64-vertex ramp is over the probe's 48-vertex gate, so nothing
        // proves its treewidth over budget.
        let session = Session::compile(&generators::complete_graph(3));
        for (n, m0, m1, tw_skips) in [(24, 40, 64, 24), (28, 48, 72, 24), (64, 120, 160, 0)] {
            let structures: Vec<Structure> = (m0..=m1)
                .map(|m| generators::random_graph_nm(n, m, 7))
                .collect();
            let mut watch = session.watch(&structures[0]);
            for w in structures.windows(2) {
                watch
                    .apply(&StructureDelta::between(&w[0], &w[1]).unwrap())
                    .unwrap();
            }
            assert_parity(&watch, &format!("G({n},{m0}→{m1})"));
            let s = watch.stats();
            let updates = m1 - m0;
            assert_eq!(
                (
                    s.updates,
                    s.repaired_establishes,
                    s.full_establishes,
                    s.acyclicity_skips,
                    s.treewidth_skips,
                    s.monotone_refutations
                ),
                (updates, updates, 1, updates, tw_skips, 0),
                "G({n},{m0}→{m1}): {s:?}"
            );
        }
    }

    #[test]
    fn empty_delta_is_a_cheap_no_op_update() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let a = generators::undirected_cycle(5);
        let mut watch = session.watch(&a);
        let d = StructureDelta::new(watch.current());
        assert_eq!(watch.apply(&d).unwrap(), None);
        assert_parity(&watch, "empty delta");
    }

    #[test]
    fn bad_delta_leaves_the_watch_unchanged() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let a = generators::undirected_cycle(5);
        let mut watch = session.watch(&a);
        let before = watch.solution().clone();
        let mut d = StructureDelta::new(watch.current());
        d.retract_fact("E", &[0, 3]).unwrap(); // not a fact of C5
        assert!(watch.apply(&d).is_err());
        assert_eq!(watch.solution().route, before.route);
        assert_eq!(watch.current().total_tuples(), a.total_tuples());
        assert_parity(&watch, "after rejected delta");
    }

    #[test]
    fn vocabulary_mismatch_delta_is_an_error_not_a_panic() {
        // Regression: a delta anchored to a structure over a *different*
        // vocabulary must surface `Error::VocabularyMismatch` — never
        // panic inside the incremental engine — and must leave the
        // watch both unchanged and usable.
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let a = generators::undirected_cycle(5);
        let mut watch = session.watch(&a);
        let before_verdict = watch.verdict();

        let foreign = generators::random_structure(5, &[2, 1], 3, 7);
        let mut d = StructureDelta::new(&foreign);
        d.add_fact("R0", &[0, 1]).unwrap();
        let err = watch
            .apply(&d)
            .expect_err("foreign-vocabulary delta accepted");
        assert!(
            matches!(err, cqcs_structures::Error::VocabularyMismatch),
            "wrong error: {err:?}"
        );

        // Unchanged...
        assert_eq!(watch.verdict(), before_verdict);
        assert_eq!(watch.current().total_tuples(), a.total_tuples());
        assert_parity(&watch, "after vocabulary-mismatch delta");
        // ...and still able to make progress with a well-formed delta.
        let mut good = StructureDelta::new(watch.current());
        good.add_fact("E", &[0, 2]).unwrap();
        good.add_fact("E", &[2, 0]).unwrap();
        watch.apply(&good).unwrap();
        assert_parity(&watch, "good delta after rejected one");
    }

    #[test]
    fn universe_anchor_mismatch_delta_is_rejected() {
        // Same vocabulary, wrong base universe: the strict delta
        // validation must refuse (as `Error::Invalid`) rather than
        // apply a delta anchored to a different snapshot size.
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let mut watch = session.watch(&generators::undirected_cycle(5));
        let smaller = generators::undirected_cycle(4);
        let mut d = StructureDelta::new(&smaller);
        d.add_fact("E", &[0, 2]).unwrap();
        let err = watch.apply(&d).expect_err("mis-anchored delta accepted");
        assert!(
            matches!(err, cqcs_structures::Error::Invalid(_)),
            "wrong error: {err:?}"
        );
        assert_parity(&watch, "after mis-anchored delta");
    }
}
