//! # cqcs-core — the uniform homomorphism-problem solver
//!
//! The paper's thesis operationalized: conjunctive-query containment
//! and constraint satisfaction are both the question "is there a
//! homomorphism `h : A → B`?", and the three uniformization results
//! (§3 Schaefer, §4 Datalog/pebble games, §5 bounded treewidth) are
//! *dispatch rules* a uniform solver can apply after inspecting the
//! input pair:
//!
//! * [`analysis`] — what is this instance? Boolean? Schaefer (and in
//!   which classes)? Booleanizable into Schaefer? Acyclic? Of small
//!   treewidth?
//! * [`solvers::backtracking`] — the complete generic solver (MRV +
//!   MAC, both toggleable for experiment E12), with search statistics;
//! * [`solvers::dispatch`] — [`solve`]: the meta-algorithm that picks
//!   the tractable route the paper proves correct, falling back to
//!   search only when no theorem applies;
//! * [`session`] — the serving shape of the same algorithm:
//!   [`Session::compile`] fixes the template `B` once (the propagation
//!   program with its support index, `B`'s Schaefer plan, the
//!   Booleanized template and its plan — each computed at most once) and [`Session::solve`] / [`Session::solve_batch`]
//!   stream instances against it. [`solve`] is a thin
//!   compile-then-solve wrapper, so both entry points route
//!   identically; a [`CompiledTemplate`] is immutable and `Sync`, ready
//!   to be shared across threads and connections;
//! * [`exec`] — the parallel map behind the batches: [`par_map`] and
//!   [`Session::par_solve_batch`] hand a batch's indices to scoped
//!   workers one at a time from an atomic counter, each solving on a
//!   persistent per-worker scratch (propagator reset, pooled search
//!   and GYO buffers), with output bit-identical to the sequential
//!   batch;
//! * [`watch`] — the delta-solve pipeline: [`Session::watch`] registers
//!   one instance and absorbs [`StructureDelta`](cqcs_structures::StructureDelta)
//!   streams, repairing the parked arc-consistency fixpoint in place
//!   and skipping routes whose outcome is provable from cached
//!   monotone facts, with verdict/route/witness bit-identical to fresh
//!   solves and notifications exactly on verdict flips.
//!
//! ```
//! use cqcs_core::Session;
//! use cqcs_structures::generators;
//!
//! let session = Session::compile(&generators::complete_graph(3));
//! let instances: Vec<_> = (0..8)
//!     .map(|seed| generators::random_graph_nm(10, 15, seed))
//!     .collect();
//! for sol in session.solve_batch(&instances) {
//!     println!("{:?}: hom = {}", sol.route, sol.homomorphism.is_some());
//! }
//! ```

pub mod analysis;
pub mod exec;
pub mod session;
pub mod solvers;
pub mod watch;

pub use analysis::{analyze, InstanceAnalysis};
pub use exec::par_map;
pub use session::{CompiledTemplate, Session};
pub use solvers::backtracking::{backtracking_search, SearchOptions, SearchScratch, SearchStats};
pub use solvers::dispatch::{solve, Route, Solution, Strategy};
pub use watch::{WatchSession, WatchStats};
