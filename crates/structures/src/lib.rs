//! # cqcs-structures — finite relational structures
//!
//! The substrate shared by every other crate in this workspace: finite
//! relational structures over a common [`Vocabulary`], and the
//! **homomorphism problem** that Kolaitis & Vardi (PODS 1998) identify as
//! the common core of conjunctive-query containment and constraint
//! satisfaction.
//!
//! A *structure* `A` consists of a finite universe `{0, …, n-1}` and, for
//! each relation symbol `R` of the vocabulary, a finite set of tuples
//! `R^A ⊆ A^arity(R)`. A *homomorphism* `h : A → B` is a map on universes
//! such that `(c₁,…,cₖ) ∈ R^A` implies `(h(c₁),…,h(cₖ)) ∈ R^B` for every
//! symbol `R`.
//!
//! Provided here:
//! * [`Vocabulary`] / [`Structure`] / [`StructureBuilder`] — interned
//!   relation symbols, immutable flat relations with CSR occurrence
//!   lists;
//! * [`homomorphism`] — checking, extension, and a reference backtracking
//!   search ([`find_homomorphism`]);
//! * [`sum`] — the `A + B` two-vocabulary encoding of §4.2 of the paper;
//! * [`product`] — direct products (used to cross-validate solvers);
//! * [`gaifman`] / [`incidence`] — the two graph views whose treewidths
//!   §5 of the paper compares;
//! * [`binary_encoding`] — the dual-graph encoding of Lemma 5.5;
//! * [`csp`] — the classic variables/domains/constraints presentation of
//!   CSP and its round-trip to the homomorphism form;
//! * [`core_of`] — cores and retracts (powering CQ minimization);
//! * [`generators`] — deterministic and random workload families used by
//!   the test-suite and the benchmark harness;
//! * [`delta`] — first-class [`StructureDelta`]s (added/retracted facts,
//!   universe growth), the unit of incremental serving upstream;
//! * [`arena`] — the flat `u64`-word [`PropArena`] and whole-word
//!   kernels backing the compiled propagation route upstream;
//! * [`worksteal`] — hand-rolled work-stealing scheduling primitives
//!   (atomic chunk claiming + steal-half deques) for the parallel batch
//!   drivers upstream.

pub mod arena;
pub mod binary_encoding;
pub mod bitset;
pub mod core_of;
pub mod csp;
pub mod delta;
pub mod error;
pub mod gaifman;
pub mod generators;
pub mod graph;
pub mod homomorphism;
pub mod incidence;
pub mod product;
pub mod structure;
pub mod sum;
pub mod support;
pub mod vocabulary;
pub mod worksteal;

pub use arena::PropArena;
pub use binary_encoding::{binary_encode, binary_encode_optimized};
pub use bitset::BitSet;
pub use csp::{Constraint, CspInstance};
pub use delta::StructureDelta;
pub use error::{Error, Result};
pub use gaifman::gaifman_graph;
pub use graph::UndirectedGraph;
pub use homomorphism::{extend_homomorphism, find_homomorphism, is_homomorphism, Homomorphism};
pub use incidence::incidence_graph;
pub use product::direct_product;
pub use structure::{Element, Relation, Structure, StructureBuilder};
pub use sum::{structure_sum, SumVocabulary};
pub use support::{support_builds_on_this_thread, SupportIndex};
pub use vocabulary::{RelId, Vocabulary};
pub use worksteal::{ChunkClaimer, StealDeque, WorkStealQueue};
