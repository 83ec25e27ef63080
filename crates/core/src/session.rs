//! Compile the template once: [`CompiledTemplate`] and [`Session`].
//!
//! The paper's reduction sends CQ containment to `hom(A → B)` with one
//! side fixed: in the CSP(`B`) serving regime many instances `A` stream
//! against a single template `B`. A plain [`solve`](crate::solve) call
//! rebuilds everything about `B` per instance — the
//! [`SupportIndex`] behind arc-consistency propagation, `B`'s Schaefer
//! plan (classification plus the lowered Theorem 3.4 algorithm), the
//! Booleanized template and *its* plan. [`CompiledTemplate`] computes
//! each of these once; [`Session`] then answers `hom(A → B)` per
//! instance with only the genuinely per-instance work (the plans'
//! propagation or elimination, acyclicity, `A`'s treewidth, arc
//! consistency, search) left on the hot path.
//!
//! A `CompiledTemplate` is immutable after construction (the lazy
//! fields are `OnceLock`s) and `Sync`, so one compiled template can be
//! shared across threads via `Arc`; a `Session` is a cheap
//! handle holding such an `Arc`. All per-solve state (propagator
//! domains, trails, search stacks) belongs to the solve call, but its
//! buffers do not have to be allocated per call:
//! [`Session::solve_with`] and the sequential batch take the calling
//! thread's pooled scratch on entry and hand it back on exit (see
//! [`crate::exec`]), so a thread that solves many instances allocates
//! its arena, search stacks, Schaefer, GYO and DP buffers once. The pool
//! holds only buffers, never a template or an instance, and every buffer
//! is re-dimensioned per instance, so results do not depend on what the
//! thread solved before.
//!
//! Routing is **identical** to the one-shot dispatcher —
//! [`solve`](crate::solve) runs the same routing core against the
//! caller's borrowed template with a per-call set of lazy facts — so
//! verdicts, witnesses, routes, and search statistics never depend on
//! which entry point was used (pinned by the property suite and
//! experiment E14).
//!
//! ```
//! use cqcs_core::{Session, Strategy};
//! use cqcs_structures::generators;
//!
//! let k3 = generators::complete_graph(3);
//! let session = Session::compile(&k3);
//! for seed in 0..4 {
//!     let a = generators::random_graph_nm(8, 12, seed);
//!     let sol = session.solve(&a);
//!     let one_shot = cqcs_core::solve(&a, &k3, Strategy::Auto).unwrap();
//!     assert_eq!(sol.homomorphism.is_some(), one_shot.homomorphism.is_some());
//! }
//! ```

use crate::analysis::{EXACT_WIDTH_PROBE_MAX_VERTICES, EXACT_WIDTH_PROBE_NODE_BUDGET};
use crate::exec::{fan_out, Buffers, WorkerScratch};
use crate::solvers::backtracking::{
    backtracking_search_scratch, SearchOptions, SearchScratch, SearchStats,
};
use crate::solvers::dispatch::{Route, Solution, SolveError, Strategy, AUTO_TREEWIDTH_BUDGET};
use cqcs_boolean::booleanize::{booleanize_template, identity_labels, BooleanizedTemplate};
use cqcs_boolean::schaefer::SchaeferSet;
use cqcs_boolean::{SchaeferPlan, SchaeferScratch};
use cqcs_pebble::program::{ProgramPropagator, PropProgram};
use cqcs_structures::{Element, Homomorphism, Structure, SupportIndex};
use cqcs_treewidth::acyclic::{yannakakis_pooled, GyoScratch};
use cqcs_treewidth::bb::bb_treewidth_best_effort_seeded;
use cqcs_treewidth::dp::{
    solve_min_fill_pooled, solve_with_order_pooled, DpScratch, MinFillOutcome,
};
use cqcs_treewidth::lower_bounds::mmd_lower_bound;
use std::sync::{Arc, OnceLock};

/// The lazily-computed template-side facts, separate from ownership of
/// the template itself: [`CompiledTemplate`] pairs them with an owned
/// `B` for sharing, while the one-shot [`solve`](crate::solve) keeps a
/// fresh set on its stack next to the caller's borrowed `B` — so the
/// wrapper clones nothing and still runs the identical routing code.
/// Every fact is built at its first read: the Schaefer plans when a
/// solve first reaches stage 1 or 3, the support index and program when
/// one first binds an engine.
#[derive(Debug, Default)]
pub(crate) struct TemplateFacts {
    /// `B`'s Schaefer plan, carrying its classification (`None` unless
    /// `B` is Boolean and within the bit-packed arity limit).
    schaefer: OnceLock<Option<SchaeferPlan>>,
    /// Support index over `B`'s tuples, shared by every propagator the
    /// template spawns and read by the treewidth DP's tuple checks.
    support: OnceLock<Arc<SupportIndex>>,
    /// The flat propagation program compiled from the support index —
    /// what every MAC/AC route actually executes. Chained off
    /// [`support`](TemplateFacts::support), so the index is built at
    /// most once per template no matter how routes interleave.
    program: OnceLock<Arc<PropProgram>>,
    /// The Booleanized template and its Schaefer plan (`None` when `B`
    /// is already Boolean, degenerate, or exceeds the bit-packed arity
    /// budget).
    booleanized: OnceLock<Option<(BooleanizedTemplate, SchaeferPlan)>>,
}

impl TemplateFacts {
    /// `b`'s Schaefer plan, when Boolean (compiled on first use).
    fn schaefer_plan(&self, b: &Structure) -> Option<&SchaeferPlan> {
        self.schaefer
            .get_or_init(|| {
                (b.universe() == 2)
                    .then(|| SchaeferPlan::compile(b).ok())
                    .flatten()
            })
            .as_ref()
    }

    /// Schaefer classification of `b`, when Boolean.
    fn schaefer(&self, b: &Structure) -> Option<SchaeferSet> {
        self.schaefer_plan(b).map(SchaeferPlan::classes)
    }

    /// The support index over `b`'s tuples (built on first use, then
    /// shared by every subsequent solve).
    fn support(&self, b: &Structure) -> &Arc<SupportIndex> {
        self.support
            .get_or_init(|| Arc::new(SupportIndex::build(b)))
    }

    /// The compiled propagation program over `b` (lowered from the
    /// shared support index on first use, then shared by every
    /// subsequent solve).
    fn program(&self, b: &Structure) -> &Arc<PropProgram> {
        self.program
            .get_or_init(|| Arc::new(PropProgram::compile(b, self.support(b))))
    }

    /// The Booleanized template (Lemma 3.5) with its Schaefer plan, when
    /// `b` is non-Boolean and encodable.
    fn booleanized(&self, b: &Structure) -> Option<&(BooleanizedTemplate, SchaeferPlan)> {
        self.booleanized
            .get_or_init(|| {
                if b.universe() <= 2 {
                    return None; // already Boolean (or degenerate)
                }
                let t = booleanize_template(b, &identity_labels(b.universe())).ok()?;
                let plan = SchaeferPlan::compile(&t.template).ok()?;
                Some((t, plan))
            })
            .as_ref()
    }
}

/// Everything the dispatcher ever needs to know about a fixed template
/// `B`, computed at most once. [`compile`] itself only clones `B`; the
/// Schaefer plan (with its classification), the support index, and the
/// Booleanized template with its plan are each built lazily on first
/// use, so a template never pays for a fact its routes don't read.
///
/// [`compile`]: CompiledTemplate::compile
#[derive(Debug)]
pub struct CompiledTemplate {
    pub(crate) b: Structure,
    pub(crate) facts: TemplateFacts,
}

impl CompiledTemplate {
    /// Compiles a template (clones `b` so the result is self-contained
    /// and shareable).
    pub fn compile(b: &Structure) -> CompiledTemplate {
        CompiledTemplate {
            b: b.clone(),
            facts: TemplateFacts::default(),
        }
    }

    /// The template structure `B`.
    pub fn template(&self) -> &Structure {
        &self.b
    }

    /// Schaefer classification of `B`, when `B` is Boolean (computed on
    /// first use).
    pub fn schaefer(&self) -> Option<SchaeferSet> {
        self.facts.schaefer(&self.b)
    }

    /// The support index over `B`'s tuples (built on first use, then
    /// shared by every subsequent solve).
    pub fn support(&self) -> &Arc<SupportIndex> {
        self.facts.support(&self.b)
    }

    /// The flat propagation program compiled for `B` (built on first
    /// use from the shared support index) — what every MAC/AC solve
    /// against this template executes.
    pub fn program(&self) -> &Arc<PropProgram> {
        self.facts.program(&self.b)
    }

    /// Forces the lazy per-template state — the support index and the
    /// propagation program chained off it — to exist *now*, on the
    /// calling thread. Serving paths call this at registration time so
    /// the first solve against a fresh template pays a hash probe, not
    /// the full lowering.
    pub fn warm(&self) {
        let _ = self.program();
    }
}

/// A solving session against one compiled template: compile `B` once,
/// then [`solve`](Session::solve) any number of instances `A` against
/// it. See the [module docs](self) for the amortization story.
#[derive(Debug, Clone)]
pub struct Session {
    template: Arc<CompiledTemplate>,
}

impl Session {
    /// Compiles `b` and opens a session on it.
    pub fn compile(b: &Structure) -> Session {
        Session {
            template: Arc::new(CompiledTemplate::compile(b)),
        }
    }

    /// Opens a session on an already-compiled (possibly shared)
    /// template.
    pub fn from_template(template: Arc<CompiledTemplate>) -> Session {
        Session { template }
    }

    /// The compiled template, for sharing with other sessions.
    pub fn template(&self) -> &Arc<CompiledTemplate> {
        &self.template
    }

    /// Solves `hom(a → B)` with the automatic route dispatch —
    /// equivalent to [`solve`](crate::solve) with [`Strategy::Auto`].
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    pub fn solve(&self, a: &Structure) -> Solution {
        self.solve_with(a, Strategy::Auto)
            .expect("the Auto strategy always applies")
    }

    /// Solves `hom(a → B)` with an explicit strategy — equivalent to
    /// [`solve`](crate::solve) with the same strategy. Runs on the
    /// calling thread's pooled scratch, so back-to-back calls reuse one
    /// set of buffers (a panic drops them and leaves the pool empty).
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    pub fn solve_with(&self, a: &Structure, strategy: Strategy) -> Result<Solution, SolveError> {
        let mut scratch = WorkerScratch::pooled();
        let result = solve_on(
            &self.template.b,
            &self.template.facts,
            a,
            strategy,
            &mut scratch,
        );
        scratch.release();
        result
    }

    /// Solves a batch of instances against the template, in order, on
    /// the calling thread's pooled worker scratch — the propagator,
    /// search buffers, and GYO bitsets are reset per instance instead of
    /// reallocated, so the allocation profile stays flat across the
    /// stream and across batches. Output is
    /// bit-identical to per-instance [`solve`](Session::solve) calls
    /// (pinned by experiment E14 in CI).
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary.
    pub fn solve_batch(&self, instances: &[Structure]) -> Vec<Solution> {
        self.par_solve_batch(instances, 1)
    }

    /// Solves a batch on up to `threads` workers sharing this compiled
    /// template. Output order and content — verdicts, routes, witnesses,
    /// search statistics — are bit-identical to
    /// [`solve_batch`](Session::solve_batch) regardless of the thread
    /// count or of which worker took which instance (pinned by the
    /// property suite and the CI-gated experiment E15). See
    /// [`crate::exec`] for the execution model.
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary.
    pub fn par_solve_batch(&self, instances: &[Structure], threads: usize) -> Vec<Solution> {
        self.solve_each(instances, Strategy::Auto, threads)
            .into_iter()
            .map(|r| r.expect("the Auto strategy always applies"))
            .collect()
    }

    /// [`par_solve_batch`](Session::par_solve_batch) with an explicit
    /// strategy; errors exactly as the lowest-index failing instance
    /// would under [`solve_with`](Session::solve_with).
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary.
    pub fn par_solve_batch_with(
        &self,
        instances: &[Structure],
        strategy: Strategy,
        threads: usize,
    ) -> Result<Vec<Solution>, SolveError> {
        self.solve_each(instances, strategy, threads)
            .into_iter()
            .collect()
    }

    /// Every instance's result, in input order, from up to `threads`
    /// workers, each on its thread's pooled scratch.
    fn solve_each(
        &self,
        instances: &[Structure],
        strategy: Strategy,
        threads: usize,
    ) -> Vec<Result<Solution, SolveError>> {
        let CompiledTemplate { b, facts } = &*self.template;
        fan_out(
            instances.len(),
            threads,
            WorkerScratch::pooled,
            |scratch, i| solve_on(b, facts, &instances[i], strategy, scratch),
            WorkerScratch::release,
        )
    }
}

/// The one-shot entry behind [`solve`](crate::solve): a fresh
/// stack-local [`TemplateFacts`] next to the caller's borrowed `b` —
/// no clone of the template, the facts built lazily per call, and the
/// exact routing a [`Session`] runs.
pub(crate) fn solve_one_shot(
    a: &Structure,
    b: &Structure,
    strategy: Strategy,
) -> Result<Solution, SolveError> {
    let facts = TemplateFacts::default();
    let mut scratch = WorkerScratch::new();
    solve_on(b, &facts, a, strategy, &mut scratch)
}

/// Routing core shared by [`Session`], the one-shot wrapper, and the
/// batch workers. All per-solve mutable state comes from `scratch`; a
/// fresh scratch (the one-shot wrapper, a parallel batch's spawned
/// workers) allocates per call or per batch, a pooled or long-lived one
/// amortizes that across a stream — the results are bit-identical
/// either way.
///
/// # Panics
/// Panics if the structures are over different vocabularies.
fn solve_on<'s>(
    b: &'s Structure,
    facts: &TemplateFacts,
    a: &'s Structure,
    strategy: Strategy,
    scratch: &mut WorkerScratch<'s>,
) -> Result<Solution, SolveError> {
    assert!(a.same_vocabulary(b), "solve across different vocabularies");
    let bufs = scratch.buffers();
    match strategy {
        Strategy::Auto => Ok(auto_on(b, facts, a, scratch)),
        Strategy::Schaefer => try_schaefer(b, facts, a, &mut bufs.schaefer).ok_or(
            SolveError::RouteNotApplicable("B is not a Schaefer Boolean structure"),
        ),
        Strategy::Booleanize => try_booleanize(b, facts, a, &mut bufs.schaefer).ok_or(
            SolveError::RouteNotApplicable("Booleanized template is not Schaefer"),
        ),
        Strategy::Acyclic => try_acyclic(a, b, &mut bufs.gyo)
            .ok_or(SolveError::RouteNotApplicable("A is not acyclic")),
        Strategy::Treewidth => Ok(treewidth_route(a, b, facts.support(b), &mut bufs.dp)),
        Strategy::Generic(opts) => {
            // Every search runs on the scratch's compiled engine over the
            // template's program; a plain search (`mac = ac_preprocess =
            // false`) never establishes it, so it reads full domains.
            let (prop, search, _) = scratch.compiled_engine(a, b, facts.program(b));
            let (h, stats) = backtracking_search_scratch(opts, prop, search);
            Ok(Solution {
                homomorphism: h,
                route: Route::Generic,
                stats: Some(stats),
            })
        }
    }
}

/// The uniform meta-algorithm (see `solvers::dispatch` for the route
/// order and the theorems behind it), with every template-side fact
/// read from the lazy cache. A fresh solve proves nothing in advance.
fn auto_on<'s>(
    b: &'s Structure,
    facts: &TemplateFacts,
    a: &'s Structure,
    scratch: &mut WorkerScratch<'s>,
) -> Solution {
    let mut proofs = Proofs::default();
    if let Some(sol) = auto_before_engine(b, facts, a, scratch.buffers(), &mut proofs) {
        return sol;
    }
    let (prop, search, dp) = scratch.compiled_engine(a, b, facts.program(b));
    auto_on_engine(b, facts, a, prop, search, dp, &mut proofs)
}

/// Monotone facts about `A` that settle a stage's outcome in advance:
/// each stays true on any instance grown from `A` by added facts. A set
/// proof skips its stage, and a stage that proves a fact sets it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Proofs {
    /// `A`'s hypergraph fails GYO reduction, so the acyclic route
    /// declines. Additions keep it failing only when every scope has
    /// arity ≤ 2 (a new edge can neither subsume a cycle edge nor
    /// enable an ear); a caller that cannot rule out wider scopes must
    /// not pass it in.
    pub(crate) gyo_cyclic: bool,
    /// `tw(gaifman(A))` exceeds [`AUTO_TREEWIDTH_BUDGET`] (an MMD bound
    /// above it, or a branch-and-bound probe that ran to completion).
    /// Treewidth is subgraph-monotone, so the DP stage stays closed.
    pub(crate) tw_exceeds_budget: bool,
}

/// Stages 1–3 of the Auto order, which need no engine: Schaefer, GYO →
/// Yannakakis, Booleanization. `None` means every one declined and the
/// caller binds an engine for [`auto_on_engine`]. Together the two
/// functions are the only code that encodes the order.
pub(crate) fn auto_before_engine(
    b: &Structure,
    facts: &TemplateFacts,
    a: &Structure,
    bufs: &mut Buffers,
    proofs: &mut Proofs,
) -> Option<Solution> {
    if let Some(sol) = try_schaefer(b, facts, a, &mut bufs.schaefer) {
        return Some(sol);
    }
    if !proofs.gyo_cyclic {
        if let Some(sol) = try_acyclic(a, b, &mut bufs.gyo) {
            return Some(sol);
        }
        proofs.gyo_cyclic = true;
    }
    try_booleanize(b, facts, a, &mut bufs.schaefer)
}

/// Stages 4–6 of the Auto order, on an engine the caller has bound to
/// `a` over the template's program: arc consistency, the Theorem 5.4 DP
/// and generic search.
pub(crate) fn auto_on_engine(
    b: &Structure,
    facts: &TemplateFacts,
    a: &Structure,
    prop: &mut ProgramPropagator<'_>,
    search: &mut SearchScratch,
    dp: &mut DpScratch,
    proofs: &mut Proofs,
) -> Solution {
    // Establish arc consistency (or finish re-establishing it): a
    // wipeout refutes the instance before the treewidth DP or search
    // spends anything, and otherwise the same engine (shared program,
    // filtered domains) is handed to the generic search instead of
    // being rebuilt.
    if a.universe() > 0 && b.universe() > 0 && !prop.establish() {
        return Solution {
            homomorphism: None,
            route: Route::ArcRefuted,
            stats: Some(SearchStats {
                deletions: prop.deletions() as u64,
                ..SearchStats::default()
            }),
        };
    }
    if a.universe() > 0 && !proofs.tw_exceeds_budget {
        let support = facts.support(b);
        if let MinFillOutcome::Solved {
            width,
            homomorphism,
        } = solve_min_fill_pooled(a, b, support, AUTO_TREEWIDTH_BUDGET, dp)
        {
            return treewidth_solution(width, homomorphism);
        }
        // The heuristic overshot the budget. On small graphs, ask the
        // branch and bound (bounded effort, seeded with the min-fill
        // order just computed) for a narrower order before surrendering
        // to search. A witness is enough — even when the budget runs
        // out, the incumbent is a complete order that may fit, so
        // best-effort rather than oracle-or-nothing. The MMD degeneracy
        // bound gates the probe: when it already proves the treewidth
        // exceeds the budget, no order can rescue the DP route and the
        // search starts immediately.
        if a.universe() <= EXACT_WIDTH_PROBE_MAX_VERTICES {
            let g = cqcs_structures::gaifman_graph(a);
            if mmd_lower_bound(&g) > AUTO_TREEWIDTH_BUDGET {
                proofs.tw_exceeds_budget = true;
            } else {
                let (r, optimal) =
                    bb_treewidth_best_effort_seeded(&g, dp.order(), EXACT_WIDTH_PROBE_NODE_BUDGET);
                if r.width <= AUTO_TREEWIDTH_BUDGET {
                    let h = solve_with_order_pooled(a, b, &r.order, support, dp);
                    return treewidth_solution(r.width, h);
                }
                // A probe that ran to completion found the exact
                // treewidth, over the budget.
                proofs.tw_exceeds_budget = optimal;
            }
        }
    }
    let (h, mut stats) = backtracking_search_scratch(SearchOptions::default(), prop, search);
    // The search reports its own delta; fold the prefilter's establish
    // deletions back in so the solution carries the whole solve's
    // effort.
    stats.deletions = prop.deletions() as u64;
    Solution {
        homomorphism: h,
        route: Route::Generic,
        stats: Some(stats),
    }
}

/// Stage 1: `B`'s compiled plan on `A` itself (bit width 1).
fn try_schaefer(
    b: &Structure,
    facts: &TemplateFacts,
    a: &Structure,
    scratch: &mut SchaeferScratch,
) -> Option<Solution> {
    let plan = facts.schaefer_plan(b)?;
    if !plan.classes().is_schaefer() {
        return None;
    }
    let homomorphism = plan.solve(a, 1, scratch).map(|values| {
        Homomorphism::from_map(values.iter().map(|&v| Element(u32::from(v))).collect())
    });
    Some(Solution {
        homomorphism,
        route: Route::Schaefer,
        stats: None,
    })
}

/// Stage 3: `B_b`'s compiled plan read on `A` at `B_b`'s bit width, and
/// the answer decoded back to `B`.
fn try_booleanize(
    b: &Structure,
    facts: &TemplateFacts,
    a: &Structure,
    scratch: &mut SchaeferScratch,
) -> Option<Solution> {
    let (t, plan) = facts.booleanized(b)?;
    if !plan.classes().is_schaefer() {
        return None;
    }
    let homomorphism = plan.solve(a, t.bits, scratch).map(|values| {
        let decoded = t.decode(values);
        debug_assert!(cqcs_structures::is_homomorphism(&decoded, a, b));
        Homomorphism::from_map(decoded)
    });
    Some(Solution {
        homomorphism,
        route: Route::Booleanization,
        stats: None,
    })
}

fn try_acyclic(a: &Structure, b: &Structure, gyo: &mut GyoScratch) -> Option<Solution> {
    let result = yannakakis_pooled(a, b, gyo)?;
    Some(Solution {
        homomorphism: result,
        route: Route::Acyclic,
        stats: None,
    })
}

/// The forced Theorem 5.4 route: `A`'s min-fill decomposition, at any
/// width.
fn treewidth_route(
    a: &Structure,
    b: &Structure,
    support: &SupportIndex,
    dp: &mut DpScratch,
) -> Solution {
    match solve_min_fill_pooled(a, b, support, usize::MAX, dp) {
        MinFillOutcome::Solved {
            width,
            homomorphism,
        } => treewidth_solution(width, homomorphism),
        MinFillOutcome::OverBudget { .. } => unreachable!("no width exceeds usize::MAX"),
    }
}

/// A Theorem 5.4 answer over a decomposition of width `width`.
fn treewidth_solution(width: usize, homomorphism: Option<Homomorphism>) -> Solution {
    Solution {
        homomorphism,
        route: Route::Treewidth(width),
        stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::dispatch::solve;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    fn assert_solutions_identical(s: &Solution, o: &Solution, what: &str) {
        assert_eq!(
            s.homomorphism.as_ref().map(Homomorphism::as_slice),
            o.homomorphism.as_ref().map(Homomorphism::as_slice),
            "{what}: witnesses differ"
        );
        assert_eq!(s.route, o.route, "{what}: routes differ");
        assert_eq!(s.stats, o.stats, "{what}: stats differ");
    }

    #[test]
    fn session_matches_one_shot_on_every_strategy() {
        for seed in 0..10u64 {
            let a = generators::random_digraph(6, 0.3, seed);
            let b = generators::random_digraph(4, 0.4, seed + 777);
            let session = Session::compile(&b);
            for strat in [
                Strategy::Auto,
                Strategy::Treewidth,
                Strategy::Generic(SearchOptions::default()),
                Strategy::Generic(SearchOptions {
                    mrv: false,
                    mac: false,
                    ac_preprocess: false,
                }),
            ] {
                let s = session.solve_with(&a, strat).unwrap();
                let o = solve(&a, &b, strat).unwrap();
                assert_solutions_identical(&s, &o, &format!("seed {seed} {strat:?}"));
            }
            // Forced routes error identically too.
            for strat in [Strategy::Schaefer, Strategy::Booleanize, Strategy::Acyclic] {
                assert_eq!(
                    session.solve_with(&a, strat).err(),
                    solve(&a, &b, strat).err(),
                    "seed {seed} {strat:?}"
                );
            }
        }
    }

    #[test]
    fn one_session_serves_many_instances() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let instances: Vec<Structure> = (0..12)
            .map(|seed| generators::random_graph_nm(9, 16, seed))
            .collect();
        let batch = session.solve_batch(&instances);
        assert_eq!(batch.len(), instances.len());
        for (a, sol) in instances.iter().zip(&batch) {
            assert_eq!(sol.homomorphism.is_some(), homomorphism_exists(a, &k3));
            if let Some(h) = &sol.homomorphism {
                assert!(cqcs_structures::is_homomorphism(h.as_slice(), a, &k3));
            }
            // Reuse never changes the answer: a fresh session agrees.
            let fresh = Session::compile(&k3).solve(a);
            assert_solutions_identical(sol, &fresh, "batch vs fresh");
        }
    }

    #[test]
    fn routes_cover_all_templates() {
        // Schaefer (Boolean template) through the session.
        let k2 = generators::complete_graph(2);
        let session = Session::compile(&k2);
        let sol = session.solve(&generators::undirected_cycle(6));
        assert_eq!(sol.route, Route::Schaefer);
        assert!(sol.homomorphism.is_some());
        // Booleanization (C4, Example 3.8) — twice, to exercise the
        // cached template encoding.
        let c4 = generators::directed_cycle(4);
        let session = Session::compile(&c4);
        for n in [4usize, 8] {
            let sol = session.solve(&generators::directed_cycle(n));
            assert_eq!(sol.route, Route::Booleanization);
            assert!(sol.homomorphism.is_some());
        }
        // Acyclic.
        let tt4 = generators::transitive_tournament(4);
        let session = Session::compile(&tt4);
        let sol = session.solve(&generators::directed_path(5));
        assert_eq!(sol.route, Route::Acyclic);
    }

    #[test]
    fn compiled_template_is_shareable_across_sessions_and_threads() {
        let k3 = generators::complete_graph(3);
        let template = Arc::new(CompiledTemplate::compile(&k3));
        // Force the lazy index once; clones of the Arc share it.
        let _ = template.support();
        let handles: Vec<_> = (0..4u64)
            .map(|seed| {
                let t = Arc::clone(&template);
                std::thread::spawn(move || {
                    let a = generators::random_graph_nm(10, 18, seed);
                    let sol = Session::from_template(t).solve(&a);
                    (seed, sol.homomorphism.is_some())
                })
            })
            .collect();
        for h in handles {
            let (seed, got) = h.join().unwrap();
            let a = generators::random_graph_nm(10, 18, seed);
            assert_eq!(got, homomorphism_exists(&a, &k3), "seed {seed}");
        }
    }

    #[test]
    fn treewidth_route_matches_the_reference_pipeline_on_served_instances() {
        // The served family, G(8,12) → K3: the word-row front end and the
        // row-set DP must pick the reference pipeline's width and witness
        // (BitSet min-fill → BitSet bags → hash-map DP), both under Auto
        // and on the forced route.
        use cqcs_treewidth::dp::solve_with_decomposition_reference;
        use cqcs_treewidth::heuristics::{
            decomposition_from_elimination_reference, min_fill_order_reference,
        };
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let mut treewidth_routes = 0;
        for seed in 0..1024u64 {
            let a = generators::random_graph_nm(8, 12, seed);
            let g = cqcs_structures::gaifman_graph(&a);
            let td = decomposition_from_elimination_reference(&g, &min_fill_order_reference(&g));
            let want = solve_with_decomposition_reference(&a, &k3, &td).unwrap();
            let want = want.as_ref().map(Homomorphism::as_slice);
            let forced = session.solve_with(&a, Strategy::Treewidth).unwrap();
            assert_eq!(forced.route, Route::Treewidth(td.width()), "seed {seed}");
            assert_eq!(
                forced.homomorphism.as_ref().map(Homomorphism::as_slice),
                want,
                "seed {seed}"
            );
            let auto = session.solve(&a);
            if let Route::Treewidth(w) = auto.route {
                treewidth_routes += 1;
                assert_eq!(w, td.width(), "seed {seed}");
                assert_eq!(
                    auto.homomorphism.as_ref().map(Homomorphism::as_slice),
                    want,
                    "seed {seed}"
                );
            }
        }
        assert!(
            treewidth_routes > 1000,
            "{treewidth_routes} Treewidth routes"
        );
    }

    #[test]
    fn empty_universes() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        assert!(session.solve(&empty).homomorphism.is_some());
        let session = Session::compile(&empty);
        assert!(session.solve(&k3).homomorphism.is_none());
        // An empty A with a 0-ary fact has no bags to hold it: the forced
        // Treewidth route answers from the 0-ary precondition alone.
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let voc = Vocabulary::from_symbols([("P", 0), ("E", 2)])
            .unwrap()
            .into_shared();
        let mut ab = StructureBuilder::new(Arc::clone(&voc), 0);
        ab.add_fact("P", &[]).unwrap();
        let a = ab.finish();
        let mut with_p = StructureBuilder::new(Arc::clone(&voc), 2);
        with_p.add_fact("P", &[]).unwrap();
        let without_p = StructureBuilder::new(voc, 2).finish();
        for (b, holds) in [(with_p.finish(), true), (without_p, false)] {
            let sol = Session::compile(&b)
                .solve_with(&a, Strategy::Treewidth)
                .unwrap();
            assert_eq!(sol.route, Route::Treewidth(0));
            assert_eq!(sol.homomorphism.is_some(), holds);
        }
    }

    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn vocabulary_mismatch_panics() {
        let k3 = generators::complete_graph(3);
        let other = generators::random_structure(3, &[3], 2, 0);
        Session::compile(&k3).solve(&other);
    }
}
