//! Parallel batch execution over a shared
//! [`CompiledTemplate`](crate::CompiledTemplate).
//!
//! Once a template `B` is compiled, the paper's core operations —
//! homomorphism/containment checks routed through the Schaefer,
//! acyclic, Booleanization, and bounded-treewidth tractable cases — are
//! embarrassingly parallel across instances: every per-solve mutable
//! state (propagator domains and trail, search stacks, GYO buffers)
//! is instance-local, and the template-side facts are immutable and
//! `Sync`. A parallel batch is therefore a plain parallel map:
//!
//! * [`par_map`] and the session batches
//!   ([`Session::par_solve_batch`](crate::Session::par_solve_batch) and
//!   its siblings) run up to `threads` scoped workers
//!   (`std::thread::scope`) that take indices one at a time from one
//!   atomic counter. A worker that draws cheap instances simply takes
//!   more of them, so a batch mixing microsecond Schaefer routes with
//!   millisecond generic searches stays balanced without any cost
//!   model. Each worker keeps `(index, result)` pairs, which are put in
//!   input order once every worker has been joined; a worker's panic is
//!   re-raised on the caller with its own payload. `threads ≤ 1` runs
//!   inline on the calling thread.
//! * Each batch worker solves on a `WorkerScratch` that **persists
//!   across instances**: the compiled propagation engine (the one engine
//!   every searching route shares; plain searches leave it
//!   unestablished), whose arena-resident domains/trail/worklists are
//!   rebound in place (`ProgramPropagator::reset_for_instance`) instead
//!   of reallocated, pooled candidate buffers for the backtracking
//!   search, the Schaefer and Booleanization routes' `SchaeferScratch`,
//!   the GYO reduction's bitsets and Yannakakis' candidate indices, and
//!   the Theorem 5.4 route's `DpScratch`: the min-fill elimination's
//!   word rows, the lowered bag tables and the row-set masks. The
//!   per-instance allocation profile drops even at `threads = 1`, which
//!   is why the sequential
//!   [`Session::solve_batch`](crate::Session::solve_batch) is the same
//!   fan-out at one thread.
//! * The borrow-free half of that scratch — the engine's arena, the
//!   search buffers, the Schaefer, GYO and DP buffers — also
//!   **outlives its batch**: it sits in a per-thread pool that a batch
//!   worker and [`Session::solve_with`](crate::Session::solve_with) take
//!   on entry and hand back on exit. A long-lived thread — a server
//!   connection, a caller's solve loop — pays for its scratch once, not
//!   once per batch or per call. The pool keeps the thread's high-water
//!   mark (the largest instance it has solved); peak memory does not
//!   change, since the batch that reached the mark already held it. A
//!   panic mid-solve drops the scratch and leaves the pool empty, and
//!   the spawned workers of a parallel batch start on their new
//!   threads' empty pools. Reuse is invisible: every buffer is
//!   re-dimensioned per instance.
//! * So the returned vector is in input order and **bit-identical** to
//!   the sequential batch — verdicts, routes, witnesses, and search
//!   statistics never depend on the thread count or on which worker
//!   took which index (pinned by the property suite and the CI-gated
//!   experiment E15). A batch's aggregate effort is the
//!   [`merge`](crate::SearchStats::merge) of its solutions' `stats`.
//!
//! ```
//! use cqcs_core::Session;
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

use crate::solvers::backtracking::SearchScratch;
use cqcs_boolean::SchaeferScratch;
use cqcs_pebble::program::{ProgramPropagator, PropProgram};
use cqcs_structures::{PropArena, Structure};
use cqcs_treewidth::acyclic::GyoScratch;
use cqcs_treewidth::dp::DpScratch;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The borrow-free half of a [`WorkerScratch`]: everything that holds
/// no reference to a template or an instance, so it can outlive them.
/// A `WatchSession` keeps one set for its whole stream.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    /// The engine's arena, recycled into the next engine built.
    pub(crate) arena: PropArena,
    pub(crate) search: SearchScratch,
    /// The Schaefer and Booleanization routes' values, queues, trail
    /// and affine rows.
    pub(crate) schaefer: SchaeferScratch,
    /// GYO reduction and Yannakakis candidate buffers.
    pub(crate) gyo: GyoScratch,
    pub(crate) dp: DpScratch,
}

std::thread_local! {
    /// This thread's pooled buffers, between [`WorkerScratch::pooled`]
    /// and [`WorkerScratch::release`].
    static POOL: Cell<Option<Buffers>> = const { Cell::new(None) };
}

/// Per-worker state that persists across the instances a worker
/// solves: the compiled propagation engine and its arena (rebound in
/// place per instance, never reallocated), the backtracking search's
/// candidate buffers, the Schaefer plans' values and rows, the GYO
/// reduction's bitsets and Yannakakis' candidates, and the Theorem 5.4
/// route's elimination rows and bag tables. One scratch serves one
/// template at a time; handing it instances against a different
/// template transparently rebuilds the engine (recycling the arena
/// allocation).
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
    /// from the engine.
    pub(crate) fn release(self) {
        let mut bufs = self.bufs;
        if let Some(prog) = self.prog {
            bufs.arena = prog.into_arena();
        }
        POOL.set(Some(bufs));
    }

    /// The pooled buffers (the engine, when built, holds the arena).
    pub(crate) fn buffers(&mut self) -> &mut Buffers {
        &mut self.bufs
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

/// The one fan-out behind [`par_map`] and the session batches: runs
/// `f(&mut state, i)` for every `i` in `0..total` on up to `threads`
/// scoped workers and returns the results in index order. Each worker
/// opens its state with `open` before its first index and hands it to
/// `close` after its last. With `threads ≤ 1`, or at most one item, the
/// calling thread is the only worker.
///
/// Workers take indices one at a time from one shared counter, so every
/// index runs exactly once and a slow item holds up only its own
/// worker. A worker's panic is re-raised here, with its own payload,
/// once every worker has stopped.
pub(crate) fn fan_out<S, T>(
    total: usize,
    threads: usize,
    open: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
    close: impl Fn(S) + Sync,
) -> Vec<T>
where
    T: Send,
{
    let workers = threads.min(total);
    if workers <= 1 {
        let mut state = open();
        let out = (0..total).map(|i| f(&mut state, i)).collect();
        close(state);
        return out;
    }
    // The counter hands out indices and publishes nothing else (results
    // come back through `join`), so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = open();
        let done: Vec<(usize, T)> = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&i| i < total)
            .map(|i| (i, f(&mut state, i)))
            .collect();
        close(state);
        done
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Runs `f(0), …, f(total - 1)` on up to `threads` scoped workers — the
/// fan-out the session batches use — and returns the results in index
/// order. For parallel work whose items are not instances of one
/// compiled template (e.g. the batch-containment and
/// batch-canonicalization variants in `cqcs-cq`). `threads ≤ 1` runs
/// inline on the calling thread; a panic in `f` is re-raised on the
/// caller with its own payload.
pub fn par_map<T, F>(total: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(total, threads, || (), |_, i| f(i), drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::solvers::backtracking::SearchOptions;
    use crate::solvers::dispatch::{Solution, Strategy};
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
            assert!(session
                .par_solve_batch_with(&[], Strategy::Schaefer, threads)
                .unwrap()
                .is_empty());
        }
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
        // Zero threads runs inline, like one.
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
        // Under uneven per-item cost, every index still runs exactly
        // once, whichever worker takes it.
        for threads in [2usize, 3, 8] {
            let calls: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(calls.len(), threads, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                (0..(i % 7) * 5_000)
                    .map(std::hint::black_box)
                    .sum::<usize>();
                i
            });
            assert_eq!(out, (0..200).collect::<Vec<_>>(), "threads {threads}");
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}, threads {threads}");
            }
        }
        // One thread means the caller's thread, for every item.
        let caller = std::thread::current().id();
        let ran_on = par_map(57, 1, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }
}
