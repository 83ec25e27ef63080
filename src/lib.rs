//! # cqcs — Conjunctive-Query Containment and Constraint Satisfaction
//!
//! A full Rust implementation of **Kolaitis & Vardi, PODS 1998 / JCSS
//! 2000**: conjunctive-query containment and constraint satisfaction
//! are the *same* problem — the homomorphism problem between finite
//! relational structures — and several non-uniform tractability results
//! **uniformize** into polynomial-time algorithms that take both
//! structures as input.
//!
//! The workspace (re-exported here as modules):
//!
//! * [`structures`] — relational structures, homomorphisms, products,
//!   sums, the binary encoding of Lemma 5.5, CSP round-trips, workload
//!   generators;
//! * [`boolean`] — §3: Schaefer classes, defining formulas, the SAT
//!   substrate, Theorem 3.4's direct algorithms, Booleanization;
//! * [`pebble`] — §4: existential k-pebble games and arc consistency;
//! * [`datalog`] — §4: the Datalog engine and the canonical program ρ_B;
//! * [`treewidth`] — §5: decompositions, the bounded-treewidth DP, the
//!   ∃FO^{k+1} translation, acyclic queries;
//! * [`core`] — the uniform solver dispatching across all routes;
//! * [`cq`] — conjunctive queries: parsing, containment, evaluation,
//!   minimization, Saraiya's two-atom case;
//! * [`net`] — the network front end: compiled templates served behind
//!   a TCP socket (length-prefixed wire protocol, LRU template
//!   registry, a serving loop that answers each connection on its own
//!   thread, blocking and pipelining client).
//!
//! ## Quickstart
//!
//! ```
//! use cqcs::cq::{parse_query, contained_in, minimize};
//!
//! // Containment: the more constrained query is contained in the freer one.
//! let specific = parse_query("Q(X) :- E(X, Y), E(Y, X).").unwrap();
//! let general = parse_query("Q(X) :- E(X, Y).").unwrap();
//! assert!(contained_in(&specific, &general).unwrap());
//! assert!(!contained_in(&general, &specific).unwrap());
//!
//! // Minimization via cores.
//! let redundant = parse_query("Q(X) :- E(X, Y), E(X, Z).").unwrap();
//! assert_eq!(minimize(&redundant).unwrap().body.len(), 1);
//! ```
//!
//! And the CSP face of the same coin:
//!
//! ```
//! use cqcs::structures::generators;
//! use cqcs::core::{solve, Strategy, Route};
//!
//! // 2-coloring an even cycle = hom(C6 → K2): Schaefer route.
//! let c6 = generators::undirected_cycle(6);
//! let k2 = generators::complete_graph(2);
//! let sol = solve(&c6, &k2, Strategy::Auto).unwrap();
//! assert!(sol.homomorphism.is_some());
//! assert_eq!(sol.route, Route::Schaefer);
//! ```

pub use cqcs_boolean as boolean;
pub use cqcs_core as core;
pub use cqcs_cq as cq;
pub use cqcs_datalog as datalog;
pub use cqcs_net as net;
pub use cqcs_pebble as pebble;
pub use cqcs_structures as structures;
pub use cqcs_treewidth as treewidth;
