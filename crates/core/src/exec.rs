//! Parallel batch execution: work-stealing instance streams over a
//! shared [`CompiledTemplate`].
//!
//! Once a template `B` is compiled, the paper's core operations —
//! homomorphism/containment checks routed through the Schaefer,
//! acyclic, Booleanization, and bounded-treewidth tractable cases — are
//! embarrassingly parallel across instances: every per-solve mutable
//! state (propagator domains and trail, search stacks, GYO buffers)
//! is instance-local, and the template-side facts are immutable and
//! `Sync`. This module turns that observation into throughput:
//!
//! * [`BatchExecutor`] drives `N` scoped workers
//!   (`std::thread::scope`) over one shared template. Work is
//!   distributed by the hand-rolled primitives in
//!   `cqcs_structures::worksteal`: an atomic claim counter hands out
//!   index chunks, and idle workers steal the back half of a loaded
//!   neighbour's deque — so a batch mixing microsecond Schaefer routes
//!   with millisecond generic searches stays balanced without any
//!   up-front cost model.
//! * Each worker owns a `WorkerScratch` that **persists across
//!   instances**: the compiled propagation engine (the one engine every
//!   searching route shares; plain searches leave it unestablished),
//!   whose arena-resident domains/trail/worklists are rebound in place
//!   (`ProgramPropagator::reset_for_instance`) instead of reallocated,
//!   pooled candidate buffers for the backtracking search, pooled
//!   bitsets for the GYO acyclicity test, and the Theorem 5.4 route's
//!   `DpScratch`: the min-fill elimination's word rows, the lowered bag
//!   tables and the row-set masks. The per-instance allocation profile
//!   drops even at `threads = 1`, which is why the sequential
//!   [`Session::solve_batch`](crate::Session::solve_batch) runs on the
//!   same worker loop.
//! * The borrow-free half of that scratch — the engine's arena, the
//!   search buffers, the GYO buffers and the `DpScratch` — also
//!   **outlives its batch**: it sits in a per-thread pool that the
//!   inline worker (`threads ≤ 1`, the path every server batch takes)
//!   and [`Session::solve_with`](crate::Session::solve_with) take on
//!   entry and hand back on exit. A long-lived thread — a server shard,
//!   a caller's solve loop — pays for its scratch once, not once per
//!   batch or per call. The pool keeps the thread's high-water mark
//!   (the largest instance it has solved); peak memory does not change,
//!   since the batch that reached the mark already held it. A panic
//!   mid-solve drops the scratch and leaves the pool empty, and the
//!   scoped workers of a parallel batch start empty, as before. Reuse is
//!   invisible: every buffer is re-dimensioned per instance.
//! * Results are written into pre-sized output slots, so the returned
//!   vector is in input order and **bit-identical** to the sequential
//!   batch — verdicts, routes, witnesses, and search statistics never
//!   depend on the thread count or the steal schedule (pinned by the
//!   property suite and the CI-gated experiment E15).
//!
//! Per-worker [`SearchStats`] accumulate locally and are merged once at
//! the end ([`SearchStats::merge`]), so the aggregate effort of a batch
//! is available without a shared counter on the hot path.
//!
//! ```
//! use cqcs_core::{BatchExecutor, Session};
//! use cqcs_structures::generators;
//!
//! let session = Session::compile(&generators::complete_graph(3));
//! let batch: Vec<_> = (0..16)
//!     .map(|seed| generators::random_graph_nm(10, 18, seed))
//!     .collect();
//! let sequential = session.solve_batch(&batch);
//! let parallel = session.par_solve_batch(&batch, 4);
//! for (s, p) in sequential.iter().zip(&parallel) {
//!     assert_eq!(s.route, p.route);
//!     assert_eq!(s.stats, p.stats);
//! }
//! ```

use crate::session::{solve_on_template, CompiledTemplate};
use crate::solvers::backtracking::{SearchScratch, SearchStats};
use crate::solvers::dispatch::{Solution, SolveError, Strategy};
use cqcs_pebble::program::{ProgramPropagator, PropProgram};
use cqcs_structures::{PropArena, Structure, WorkStealQueue};
use cqcs_treewidth::acyclic::GyoScratch;
use cqcs_treewidth::dp::DpScratch;
use std::cell::{Cell, UnsafeCell};
use std::sync::Arc;

/// The borrow-free half of a [`WorkerScratch`]: everything that holds
/// no reference to a template or an instance, so it can outlive them.
/// A `WatchSession` keeps one set for its whole stream.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    /// The engine's arena, recycled into the next engine built.
    pub(crate) arena: PropArena,
    pub(crate) search: SearchScratch,
    pub(crate) gyo: GyoScratch,
    pub(crate) dp: DpScratch,
}

std::thread_local! {
    /// This thread's pooled buffers, between [`WorkerScratch::pooled`]
    /// and [`WorkerScratch::release`].
    static POOL: Cell<Option<Buffers>> = const { Cell::new(None) };
}

/// Per-worker state that persists across the instances a worker drains
/// from the queue: the compiled propagation engine and its arena
/// (rebound in place per instance, never reallocated), the backtracking
/// search's candidate buffers, the GYO reduction's bitsets, the
/// Theorem 5.4 route's elimination rows and bag tables, and a local
/// statistics accumulator. One
/// scratch serves one template at a time; handing it instances against
/// a different template transparently rebuilds the engine (recycling
/// the arena allocation).
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch<'s> {
    /// The compiled engine, for every route that propagates or
    /// searches: executes the template's shared [`PropProgram`] over
    /// this worker's arena. Plain searches (no MAC/AC) never establish
    /// it and read its full domains.
    prog: Option<ProgramPropagator<'s>>,
    /// The pooled buffers; `arena` is the spare the first engine is
    /// built on (afterwards the engine owns the arena).
    bufs: Buffers,
    stats: SearchStats,
}

impl<'s> WorkerScratch<'s> {
    /// Creates an empty scratch (all pools start unallocated).
    pub(crate) fn new() -> Self {
        WorkerScratch::default()
    }

    /// A scratch on this thread's pooled buffers (empty ones if the
    /// pool is empty). Hand it back with
    /// [`release`](WorkerScratch::release).
    pub(crate) fn pooled() -> Self {
        WorkerScratch {
            bufs: POOL.take().unwrap_or_default(),
            ..WorkerScratch::default()
        }
    }

    /// Returns the buffers to this thread's pool, recovering the arena
    /// from the engine, and yields the accumulated statistics.
    pub(crate) fn release(self) -> SearchStats {
        let mut bufs = self.bufs;
        if let Some(prog) = self.prog {
            bufs.arena = prog.into_arena();
        }
        POOL.set(Some(bufs));
        self.stats
    }

    /// The statistics accumulated so far across every solution this
    /// scratch recorded.
    pub(crate) fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Folds a solution's statistics (if any) into the accumulator.
    pub(crate) fn record(&mut self, sol: &Solution) {
        if let Some(st) = &sol.stats {
            self.stats.merge(st);
        }
    }

    /// The pooled GYO buffers.
    pub(crate) fn gyo(&mut self) -> &mut GyoScratch {
        &mut self.bufs.gyo
    }

    /// The pooled Theorem 5.4 buffers: elimination rows and DP tables.
    pub(crate) fn dp(&mut self) -> &mut DpScratch {
        &mut self.bufs.dp
    }

    /// The compiled engine rebound to instance `a`, plus the pooled
    /// search buffers and DP tables (split borrow, since the Auto
    /// dispatcher holds the engine across the DP and the search).
    /// Reuses the retained engine — arena included — whenever it
    /// already runs this exact program (`Arc::ptr_eq`);
    /// otherwise builds one on the new program, recycling the retired
    /// engine's arena (or the pooled spare) so the worker's allocation
    /// survives template switches.
    pub(crate) fn compiled_engine(
        &mut self,
        a: &'s Structure,
        b: &'s Structure,
        program: &Arc<PropProgram>,
    ) -> (
        &mut ProgramPropagator<'s>,
        &mut SearchScratch,
        &mut DpScratch,
    ) {
        match &mut self.prog {
            Some(p) if Arc::ptr_eq(p.program(), program) => p.reset_for_instance(a),
            slot => {
                let arena = match slot.take() {
                    Some(retired) => retired.into_arena(),
                    None => std::mem::take(&mut self.bufs.arena),
                };
                *slot = Some(ProgramPropagator::with_arena(
                    a,
                    b,
                    Arc::clone(program),
                    arena,
                ));
            }
        }
        (
            self.prog.as_mut().expect("engine just ensured"),
            &mut self.bufs.search,
            &mut self.bufs.dp,
        )
    }
}

/// Picks the claim-chunk size: enough chunks that stealing has
/// something to balance (≈4 per worker), small enough that a chunk of
/// slow instances cannot strand a worker, and never degenerate.
fn chunk_size(total: usize, threads: usize) -> usize {
    (total / (threads * 4)).clamp(1, 64)
}

/// A reusable parallel batch driver over a fixed thread count.
///
/// The executor itself is stateless between batches, so one executor
/// can serve any number of batches and templates; construction is free.
/// `threads = 1` runs the worker loop inline on the caller's thread — no
/// spawn, same scratch reuse, on the thread's pooled buffers (see the
/// [module docs](self)) — so a single-threaded executor is never slower
/// than a hand-written sequential loop. Spawned workers of a parallel
/// batch start with empty scratches that live for that batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

impl BatchExecutor {
    /// Creates an executor with the given worker count (`0` is clamped
    /// to 1).
    pub fn new(threads: usize) -> Self {
        BatchExecutor {
            threads: threads.max(1),
        }
    }

    /// An executor sized to `std::thread::available_parallelism` (1 if
    /// unknown).
    pub fn with_available_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves every instance against the template with the automatic
    /// route dispatch. The output is in input order and bit-identical
    /// to a sequential [`Session::solve_batch`](crate::Session) —
    /// verdicts, routes, witnesses, and statistics.
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary than the
    /// template.
    pub fn solve_batch(
        &self,
        template: &CompiledTemplate,
        instances: &[Structure],
    ) -> Vec<Solution> {
        self.solve_batch_with_stats(template, instances).0
    }

    /// [`solve_batch`](BatchExecutor::solve_batch), also returning the
    /// batch's aggregate search statistics (the merged per-worker
    /// accumulators — equal to summing each solution's `stats` field,
    /// pinned by test).
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary than the
    /// template.
    pub fn solve_batch_with_stats(
        &self,
        template: &CompiledTemplate,
        instances: &[Structure],
    ) -> (Vec<Solution>, SearchStats) {
        let (results, stats) = self.run(template, instances, Strategy::Auto);
        let solutions = results
            .into_iter()
            .map(|r| r.expect("the Auto strategy always applies"))
            .collect();
        (solutions, stats)
    }

    /// Solves every instance with an explicit strategy. On a forced
    /// route that does not apply to some instance, returns the error of
    /// the lowest-index failing instance (exactly what a sequential
    /// loop of [`Session::solve_with`](crate::Session::solve_with)
    /// would surface first).
    ///
    /// # Panics
    /// Panics if any instance is over a different vocabulary than the
    /// template.
    pub fn solve_batch_with(
        &self,
        template: &CompiledTemplate,
        instances: &[Structure],
        strategy: Strategy,
    ) -> Result<Vec<Solution>, SolveError> {
        self.run(template, instances, strategy)
            .0
            .into_iter()
            .collect()
    }

    /// The worker loop shared by every entry point.
    fn run<'s>(
        &self,
        template: &'s CompiledTemplate,
        instances: &'s [Structure],
        strategy: Strategy,
    ) -> (Vec<Result<Solution, SolveError>>, SearchStats) {
        let total = instances.len();
        let threads = self.threads.min(total.max(1));
        if threads <= 1 {
            // Inline worker: same scratch reuse, no spawn overhead, and
            // the thread's pooled buffers instead of fresh ones.
            let mut scratch = WorkerScratch::pooled();
            let mut out = Vec::with_capacity(total);
            for a in instances {
                let result = solve_on_template(template, a, strategy, &mut scratch);
                if let Ok(sol) = &result {
                    scratch.record(sol);
                }
                out.push(result);
            }
            return (out, scratch.release());
        }
        let queue = WorkStealQueue::new(total, threads, chunk_size(total, threads));
        let slots = Slots::new(total);
        let worker_stats: Vec<SearchStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let queue = &queue;
                    let slots = &slots;
                    s.spawn(move || {
                        let mut scratch = WorkerScratch::new();
                        while let Some(i) = queue.pop(w) {
                            let result =
                                solve_on_template(template, &instances[i], strategy, &mut scratch);
                            if let Ok(sol) = &result {
                                scratch.record(sol);
                            }
                            // SAFETY: the work-stealing queue hands out
                            // each index exactly once, so no two
                            // workers ever write the same slot, and
                            // `into_vec` reads only after every worker
                            // has been joined.
                            unsafe { slots.write(i, result) };
                        }
                        scratch.stats()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut total_stats = SearchStats::default();
        for st in &worker_stats {
            total_stats.merge(st);
        }
        (slots.into_vec(), total_stats)
    }
}

impl Default for BatchExecutor {
    /// The available-parallelism executor.
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// Runs `f(0), …, f(total - 1)` across `threads` workers over the same
/// work-stealing queue the batch executor uses, returning the results
/// in index order. The building block for parallel fan-outs whose items
/// are not homomorphism instances (e.g. the batch-containment and
/// batch-canonicalization variants in `cqcs-cq`). `threads ≤ 1` runs
/// inline.
pub fn par_map<T, F>(total: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(total.max(1));
    if threads <= 1 {
        return (0..total).map(f).collect();
    }
    let queue = WorkStealQueue::new(total, threads, chunk_size(total, threads));
    let slots = Slots::new(total);
    std::thread::scope(|s| {
        for w in 0..threads {
            let queue = &queue;
            let slots = &slots;
            let f = &f;
            s.spawn(move || {
                while let Some(i) = queue.pop(w) {
                    let value = f(i);
                    // SAFETY: as in the batch worker — each index is
                    // handed out exactly once and read only after the
                    // scope joins every worker.
                    unsafe { slots.write(i, value) };
                }
            });
        }
    });
    slots.into_vec()
}

/// Pre-sized once-writable output slots shared across workers. The
/// work-stealing queue's exactly-once index hand-out is what makes the
/// unsynchronized writes sound: distinct indices are distinct cells,
/// and the same index is never handed to two workers.
struct Slots<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: all access goes through `write` (whose contract forbids two
// writes to one index and any read-during-write) and `into_vec` (which
// consumes the slots after the worker scope has joined).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(total: usize) -> Self {
        Slots {
            cells: (0..total).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// # Safety
    /// Each index must be written at most once, and never concurrently
    /// with any other access to the same cell.
    unsafe fn write(&self, i: usize, value: T) {
        *self.cells[i].get() = Some(value);
    }

    fn into_vec(self) -> Vec<T> {
        self.cells
            .into_iter()
            .map(|c| c.into_inner().expect("every index solved exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::solvers::backtracking::SearchOptions;
    use cqcs_structures::generators;
    use cqcs_structures::Homomorphism;

    fn assert_batches_identical(seq: &[Solution], par: &[Solution], what: &str) {
        assert_eq!(seq.len(), par.len(), "{what}: lengths differ");
        for (i, (s, p)) in seq.iter().zip(par).enumerate() {
            assert_eq!(
                s.homomorphism.as_ref().map(Homomorphism::as_slice),
                p.homomorphism.as_ref().map(Homomorphism::as_slice),
                "{what}: witness {i} differs"
            );
            assert_eq!(s.route, p.route, "{what}: route {i} differs");
            assert_eq!(s.stats, p.stats, "{what}: stats {i} differ");
        }
    }

    #[test]
    fn empty_batch() {
        let session = Session::compile(&generators::complete_graph(3));
        for threads in [1usize, 4] {
            assert!(session.par_solve_batch(&[], threads).is_empty());
        }
        let (sols, stats) = BatchExecutor::new(4).solve_batch_with_stats(session.template(), &[]);
        assert!(sols.is_empty());
        assert_eq!(stats, SearchStats::default());
    }

    #[test]
    fn single_instance_batch() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let batch = [generators::random_graph_nm(10, 20, 7)];
        let seq = session.solve_batch(&batch);
        for threads in [1usize, 2, 8] {
            let par = session.par_solve_batch(&batch, threads);
            assert_batches_identical(&seq, &par, &format!("threads {threads}"));
        }
    }

    #[test]
    fn batch_larger_than_threads_and_vice_versa() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let batch: Vec<Structure> = (0..37u64)
            .map(|seed| generators::random_graph_nm(8 + (seed as usize % 6), 14, seed))
            .collect();
        let seq = session.solve_batch(&batch);
        for threads in [1usize, 2, 3, 4, 64] {
            let par = session.par_solve_batch(&batch, threads);
            assert_batches_identical(&seq, &par, &format!("threads {threads}"));
        }
        // Zero threads clamps to one.
        let par = session.par_solve_batch(&batch[..3], 0);
        assert_batches_identical(&seq[..3], &par, "threads 0");
    }

    #[test]
    fn mixed_routes_stay_bit_identical() {
        // A Booleanization-regime template (C4) exercises the lazy
        // template facts under concurrent first use.
        let c4 = generators::directed_cycle(4);
        let session = Session::compile(&c4);
        let batch: Vec<Structure> = (0..24u64)
            .map(|seed| generators::random_digraph(10, 0.2, seed))
            .collect();
        let seq = session.solve_batch(&batch);
        let par = session.par_solve_batch(&batch, 4);
        assert_batches_identical(&seq, &par, "C4 template");
    }

    #[test]
    fn aggregate_stats_equal_per_instance_sums() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let batch: Vec<Structure> = (0..20u64)
            .map(|seed| generators::random_graph_nm(11, 22, seed))
            .collect();
        for threads in [1usize, 4] {
            let (sols, total) =
                BatchExecutor::new(threads).solve_batch_with_stats(session.template(), &batch);
            let mut expected = SearchStats::default();
            for sol in &sols {
                if let Some(st) = &sol.stats {
                    expected.merge(st);
                }
            }
            assert_eq!(total, expected, "threads {threads}");
            assert!(
                total.nodes + total.deletions > 0,
                "the workload exercises search/propagation"
            );
        }
    }

    #[test]
    fn explicit_strategies_match_sequential_solves() {
        let b = generators::random_digraph(4, 0.4, 99);
        let session = Session::compile(&b);
        let batch: Vec<Structure> = (0..12u64)
            .map(|seed| generators::random_digraph(6, 0.3, seed))
            .collect();
        for strategy in [
            Strategy::Auto,
            Strategy::Treewidth,
            Strategy::Generic(SearchOptions::default()),
            Strategy::Generic(SearchOptions {
                mrv: false,
                mac: false,
                ac_preprocess: false,
            }),
        ] {
            let seq: Vec<Solution> = batch
                .iter()
                .map(|a| session.solve_with(a, strategy).unwrap())
                .collect();
            for threads in [1usize, 3] {
                let par = session
                    .par_solve_batch_with(&batch, strategy, threads)
                    .unwrap();
                assert_batches_identical(&seq, &par, &format!("{strategy:?} threads {threads}"));
            }
        }
        // A forced route that does not apply errors like the earliest
        // sequential failure.
        let err = session
            .par_solve_batch_with(&batch, Strategy::Schaefer, 3)
            .unwrap_err();
        assert_eq!(
            err,
            session
                .solve_with(&batch[0], Strategy::Schaefer)
                .unwrap_err()
        );
    }

    #[test]
    fn executor_is_reusable_across_batches_and_templates() {
        let exec = BatchExecutor::new(3);
        let k3 = generators::complete_graph(3);
        let c4 = generators::directed_cycle(4);
        let s3 = Session::compile(&k3);
        let s4 = Session::compile(&c4);
        let graphs: Vec<Structure> = (0..9u64)
            .map(|seed| generators::random_graph_nm(9, 16, seed))
            .collect();
        let digraphs: Vec<Structure> = (0..9u64)
            .map(|seed| generators::random_digraph(8, 0.25, seed))
            .collect();
        for _ in 0..2 {
            assert_batches_identical(
                &s3.solve_batch(&graphs),
                &exec.solve_batch(s3.template(), &graphs),
                "K3 batch",
            );
            assert_batches_identical(
                &s4.solve_batch(&digraphs),
                &exec.solve_batch(s4.template(), &digraphs),
                "C4 batch",
            );
        }
    }

    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn vocabulary_mismatch_panics_in_parallel_too() {
        let k3 = generators::complete_graph(3);
        let session = Session::compile(&k3);
        let bad: Vec<Structure> = (0..4)
            .map(|s| generators::random_structure(3, &[3], 2, s))
            .collect();
        session.par_solve_batch(&bad, 2);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let f = |i: usize| i * i + 1;
        let expected: Vec<usize> = (0..57).map(f).collect();
        for threads in [1usize, 2, 5, 64] {
            assert_eq!(par_map(57, threads, f), expected, "threads {threads}");
        }
        assert!(par_map(0, 4, f).is_empty());
    }
}
