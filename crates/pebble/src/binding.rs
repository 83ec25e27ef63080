//! The instance-binding seam of the propagation engine.
//!
//! What binding instance `A` against template `B` means — the
//! vocabulary check, the universe size, the per-relation tuple
//! geometry — and when a delta may repair a bound fixpoint instead of
//! rebinding, described in one audited place, apart from the
//! [`ProgramPropagator`](crate::ProgramPropagator) that executes it:
//!
//! * [`InstanceBinding`] — the validated geometry of a fresh bind
//!   (vocabulary-checked universe and tuple counts). The engine derives
//!   its prefix-sum tuple bases and arena layout from it.
//! * [`DeltaPlan`] / [`plan_delta`] — the admission decision for the
//!   incremental delta-bind path: either a worklist seed list
//!   (re-propagate only from the tuples a [`StructureDelta`] touched)
//!   or a full rebind with the reason. The admission rules live here:
//!   the engine sits at an established, consistent fixpoint; additions
//!   only (retractions can restore support); no 0-ary additions (those
//!   have a dedicated wipeout path in `establish`); no universe growth
//!   (the arena layout is keyed on `|A|`); and a delta small relative
//!   to the instance. No search frames are open, because only a parked
//!   engine is repaired and
//!   [`into_saved`](crate::ProgramPropagator::into_saved) parks only at
//!   depth 0.

use cqcs_structures::{RelId, Structure, StructureDelta};

/// A full rebind is cheaper than repair once the delta stops being
/// "small": beyond one seeded tuple per `REBIND_FACTOR` instance
/// tuples, fall back (the repair would re-revise most of `A` anyway).
pub const REBIND_FACTOR: usize = 4;

/// Validated fresh-bind geometry: what the engine needs to (re)size its
/// per-instance state for `a` against template `b`.
#[derive(Debug, Clone)]
pub struct InstanceBinding {
    /// `|A|`.
    pub universe: usize,
    /// `|B|` — the capacity of every domain.
    pub domain_size: usize,
    /// Per-relation tuple counts of `A`, in vocabulary order.
    pub tuple_counts: Vec<u32>,
}

impl InstanceBinding {
    /// Describes binding `a` against template `b`.
    ///
    /// # Panics
    /// Panics if the structures are over different vocabularies — the
    /// single authoritative check every bind path shares.
    pub fn plan(a: &Structure, b: &Structure) -> InstanceBinding {
        assert!(
            a.same_vocabulary(b),
            "arc consistency across different vocabularies"
        );
        InstanceBinding {
            universe: a.universe(),
            domain_size: b.universe(),
            tuple_counts: a
                .vocabulary()
                .iter()
                .map(|r| a.relation(r).len() as u32)
                .collect(),
        }
    }

    /// Total tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.tuple_counts.iter().map(|&c| c as usize).sum()
    }
}

/// The admission verdict for a delta bind: repair in place from the
/// given worklist seeds, or rebind from scratch (with the reason, for
/// diagnostics and tests).
#[derive(Debug, Clone)]
pub enum DeltaPlan {
    /// Repair is sound: re-seed the worklist with exactly these
    /// `(relation, tuple id in the post-delta structure)` pairs, sorted
    /// and deduplicated.
    Incremental { seeds: Vec<(RelId, u32)> },
    /// Fall back to `reset_for_instance` + `establish`.
    Rebind { reason: &'static str },
}

/// A snapshot of the engine state the admission rules consult.
#[derive(Debug, Clone, Copy)]
pub struct EngineState {
    /// `establish` has run (domains sit at the fixpoint).
    pub established: bool,
    /// Every domain nonempty (no prior wipeout).
    pub consistent: bool,
    /// Universe of the currently bound structure — the delta must be
    /// anchored there.
    pub bound_universe: usize,
    /// Total tuples of the currently bound structure — with a strict
    /// additions-only delta, `a2` must hold exactly this many plus the
    /// additions, or the delta does not describe the transition.
    pub bound_tuples: usize,
}

/// Decides how an engine at `state` should bind the post-delta
/// instance `a2`, described by `delta` relative to the currently bound
/// structure.
///
/// The returned seeds are positions in `a2`'s (re-sorted) relations —
/// tuple ids are **not** stable across rebuilds, so they are recovered
/// by binary search per added fact. A delta that does not actually
/// correspond to `a2` (an added fact `a2` lacks) degrades to a rebind:
/// the fallback is always sound.
///
/// # Panics
/// Panics if `a2` is over a different vocabulary than `b` (the same
/// rejection `reset_for_instance` enforces).
pub fn plan_delta(
    a2: &Structure,
    b: &Structure,
    delta: &StructureDelta,
    state: EngineState,
) -> DeltaPlan {
    assert!(
        a2.same_vocabulary(b),
        "arc consistency across different vocabularies"
    );
    if !state.established {
        return DeltaPlan::Rebind {
            reason: "engine not established",
        };
    }
    if !state.consistent {
        return DeltaPlan::Rebind {
            reason: "prior wipeout: domains are not a usable fixpoint",
        };
    }
    if !delta.additions_only() {
        return DeltaPlan::Rebind {
            reason: "retractions can restore support",
        };
    }
    if delta.grows_universe() {
        return DeltaPlan::Rebind {
            reason: "universe growth re-keys the layout",
        };
    }
    if delta.base_universe() != state.bound_universe
        || delta.new_universe() != a2.universe()
        || state.bound_tuples + delta.added().len() != a2.total_tuples()
    {
        return DeltaPlan::Rebind {
            reason: "delta does not describe the instance",
        };
    }
    if delta.added().len() * REBIND_FACTOR > a2.total_tuples().max(1) {
        return DeltaPlan::Rebind {
            reason: "delta too large relative to the instance",
        };
    }
    let mut seeds = Vec::with_capacity(delta.added().len());
    for (r, tuple) in delta.added() {
        if a2.vocabulary().arity(*r) == 0 {
            // 0-ary facts route through establish's dedicated wipeout
            // scan; repairing around them is not worth a second path.
            return DeltaPlan::Rebind {
                reason: "0-ary addition",
            };
        }
        match a2.relation(*r).position(tuple) {
            Some(t) => seeds.push((*r, t)),
            None => {
                return DeltaPlan::Rebind {
                    reason: "delta does not describe the instance",
                }
            }
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    DeltaPlan::Incremental { seeds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::{generators, StructureBuilder};

    fn fixpoint_on(a: &Structure) -> EngineState {
        EngineState {
            established: true,
            consistent: true,
            bound_universe: a.universe(),
            bound_tuples: a.total_tuples(),
        }
    }

    fn digraph(edges: &[(u32, u32)], n: usize) -> Structure {
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), n);
        for &(x, y) in edges {
            b.add_fact("E", &[x, y]).unwrap();
        }
        b.finish()
    }

    fn rebind_reason(plan: DeltaPlan) -> &'static str {
        match plan {
            DeltaPlan::Rebind { reason } => reason,
            DeltaPlan::Incremental { .. } => panic!("expected a rebind"),
        }
    }

    #[test]
    fn binding_geometry() {
        let a = generators::random_graph_nm(6, 9, 3);
        let b = generators::complete_graph(3);
        let bind = InstanceBinding::plan(&a, &b);
        assert_eq!(bind.universe, 6);
        assert_eq!(bind.domain_size, 3);
        assert_eq!(bind.total_tuples(), a.total_tuples());
    }

    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn binding_rejects_vocabulary_mismatch() {
        let a = generators::random_graph_nm(4, 5, 0);
        let other = generators::random_structure(3, &[3], 2, 0);
        let _ = InstanceBinding::plan(&a, &other);
    }

    #[test]
    fn plan_seeds_exactly_the_added_tuples() {
        let b = generators::complete_graph(3);
        let a = digraph(
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (1, 4),
                (2, 5),
                (0, 3),
            ],
            6,
        );
        let mut d = cqcs_structures::StructureDelta::new(&a);
        d.add_fact("E", &[0, 5]).unwrap();
        d.add_fact("E", &[5, 0]).unwrap();
        let a2 = d.apply(&a).unwrap();
        match plan_delta(&a2, &b, &d, fixpoint_on(&a)) {
            DeltaPlan::Incremental { seeds } => {
                assert_eq!(seeds.len(), 2);
                let e = a2.vocabulary().lookup("E").unwrap();
                for (r, t) in seeds {
                    assert_eq!(r, e);
                    let tuple = a2.relation(e).tuple(t as usize);
                    assert!(tuple[0].index() == 0 || tuple[0].index() == 5);
                }
            }
            DeltaPlan::Rebind { reason } => panic!("unexpected rebind: {reason}"),
        }
    }

    #[test]
    fn admission_rules() {
        let b = generators::complete_graph(3);
        let a = digraph(
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
            ],
            8,
        );
        let mut d = cqcs_structures::StructureDelta::new(&a);
        d.add_fact("E", &[0, 7]).unwrap();
        let a2 = d.apply(&a).unwrap();
        assert!(matches!(
            plan_delta(&a2, &b, &d, fixpoint_on(&a)),
            DeltaPlan::Incremental { .. }
        ));

        let mut s = fixpoint_on(&a);
        s.established = false;
        assert_eq!(
            rebind_reason(plan_delta(&a2, &b, &d, s)),
            "engine not established"
        );
        let mut s = fixpoint_on(&a);
        s.consistent = false;
        assert!(rebind_reason(plan_delta(&a2, &b, &d, s)).starts_with("prior wipeout"));

        let mut retracting = cqcs_structures::StructureDelta::new(&a);
        retracting.retract_fact("E", &[0, 1]).unwrap();
        let a2r = retracting.apply(&a).unwrap();
        assert_eq!(
            rebind_reason(plan_delta(&a2r, &b, &retracting, fixpoint_on(&a))),
            "retractions can restore support"
        );

        let mut growing = cqcs_structures::StructureDelta::new(&a);
        growing.grow_universe(1);
        let a2g = growing.apply(&a).unwrap();
        assert_eq!(
            rebind_reason(plan_delta(&a2g, &b, &growing, fixpoint_on(&a))),
            "universe growth re-keys the layout"
        );

        // A delta that does not describe the handed instance degrades
        // to a rebind instead of corrupting the repair.
        assert!(
            rebind_reason(plan_delta(&a, &b, &d, fixpoint_on(&a))).starts_with("delta does not")
        );

        // Large deltas fall back.
        let empty = digraph(&[], 8);
        let mut big = cqcs_structures::StructureDelta::new(&empty);
        for i in 0..4u32 {
            big.add_fact("E", &[i, i + 1]).unwrap();
        }
        let filled = big.apply(&empty).unwrap();
        assert_eq!(
            rebind_reason(plan_delta(&filled, &b, &big, fixpoint_on(&empty))),
            "delta too large relative to the instance"
        );
    }
}
