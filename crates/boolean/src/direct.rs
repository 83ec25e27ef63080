//! The direct algorithms of Theorem 3.4, compiled once per template.
//!
//! Theorem 3.4 improves on the cubic formula-building route by running
//! on the structures directly. [`SchaeferPlan::compile`] classifies a
//! Boolean template `B` once (Theorem 3.1), picks the algorithm of the
//! first class that applies — 0-valid, 1-valid, bijunctive, Horn, dual
//! Horn, affine — and lowers only what that algorithm reads from `B`:
//!
//! * **Trivial classes** — nothing: a 0-valid (1-valid) template always
//!   admits the constant map to 0 (1).
//! * **Bijunctive** — the AND and OR masks of `T_{Q',k,i}` (the tuples
//!   of `Q'` with bit `k` equal to `i`) for every relation, position and
//!   value. [`SchaeferPlan::solve`] runs the paper's emulation of the
//!   phase-based 2-SAT algorithm \[LP97\]: pick the first unassigned
//!   variable, guess `false` then `true`, and propagate the positions
//!   the masks force; both guesses failing means no homomorphism. A
//!   successful propagation assigns exactly the closure of its guess, so
//!   the witness does not depend on the propagation order.
//! * **Horn** — the packed relations. The solve grows the set `One` of
//!   variables that must be 1: when a tuple's current ones have no
//!   extension in `Q'` the instance fails, and otherwise every position
//!   set in all extensions joins `One`. The fixpoint is the least model
//!   (fewest ones), reached in `O(‖A‖·‖B‖)` through `A`'s occurrence
//!   lists.
//! * **Dual Horn** — the packed relations flipped once here, then the
//!   Horn fixpoint and a flipped answer: the greatest model.
//! * **Affine** — each relation's Theorem 3.2 equations as
//!   `(position mask, rhs)` words. The solve instantiates them per tuple
//!   (a variable repeated inside a tuple cancels) into a
//!   [`RowBasis`] and stops at the first `0 = 1`.
//!   The answer is the reduced row echelon form's solution with every
//!   free variable 0, which is unique, so it equals
//!   [`LinearSystem::solve`](crate::gf2::LinearSystem::solve)'s.
//!
//! The solve reads `A` through a *bit width*: position `p` of a tuple is
//! bit `p % bits` of element `t[p / bits]`, and variable `e·bits + i` is
//! bit `i` of element `e`. Width 1 is the Schaefer route on `A` itself;
//! width `m` runs a plan compiled from a Booleanized template `B_b`
//! (Lemma 3.5) directly on the original `A`, so `A_b` is never built.
//! Every per-instance buffer lives in a [`SchaeferScratch`] the caller
//! can keep across solves.

use crate::error::Result;
use crate::formula_build;
use crate::gf2::RowBasis;
use crate::relation::{BooleanRelation, BooleanStructure};
use crate::schaefer::{classify_structure, SchaeferClass, SchaeferSet};
use cqcs_structures::{Element, RelId, Structure};
use std::cell::Cell;

std::thread_local! {
    /// Per-thread count of [`SchaeferPlan::compile`] calls.
    static COMPILES: Cell<usize> = const { Cell::new(0) };
}

/// Number of [`SchaeferPlan::compile`] calls performed **by the calling
/// thread** since it started — a diagnostic for caching layers, like
/// `support_builds_on_this_thread`: a session that serves many
/// instances must move it exactly once per template.
pub fn plan_compiles_on_this_thread() -> usize {
    COMPILES.with(Cell::get)
}

/// The order in which the direct route picks a class's algorithm.
const ROUTE_ORDER: [SchaeferClass; 6] = [
    SchaeferClass::ZeroValid,
    SchaeferClass::OneValid,
    SchaeferClass::Bijunctive,
    SchaeferClass::Horn,
    SchaeferClass::DualHorn,
    SchaeferClass::Affine,
];

/// One relation of `B` as the plan sees it.
#[derive(Debug, Clone, Copy)]
struct RelPlan {
    /// Boolean arity (the number of positions).
    arity: usize,
    /// Whether `B`'s relation has a tuple (read for 0-ary facts).
    nonempty: bool,
    /// This relation's entries in the kernel's table.
    start: usize,
    end: usize,
}

/// `T_{Q',k,i}` summarised: the AND and OR of its tuples, and whether it
/// has any.
#[derive(Debug, Clone, Copy)]
struct Phase {
    and: u64,
    or: u64,
    any: bool,
}

/// What the chosen algorithm reads from `B`, indexed by the
/// [`RelPlan`] ranges.
#[derive(Debug, Clone)]
enum Kernel {
    Constant(bool),
    /// `2·arity` phases per relation: position `k`, value `i` at
    /// `start + 2k + i`.
    Bijunctive(Vec<Phase>),
    /// Packed tuples, flipped when `dual`.
    Horn {
        tuples: Vec<u64>,
        dual: bool,
    },
    /// Defining equations `(position mask, rhs)`.
    Affine(Vec<(u64, bool)>),
}

/// Theorem 3.4's algorithm for one Boolean template, lowered once and
/// run on any number of instances (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SchaeferPlan {
    classes: SchaeferSet,
    class: Option<SchaeferClass>,
    rels: Vec<RelPlan>,
    /// `None` outside Schaefer's class.
    kernel: Option<Kernel>,
}

/// Per-instance buffers for [`SchaeferPlan::solve`], re-dimensioned on
/// every solve so reuse never changes an answer.
#[derive(Debug, Default)]
pub struct SchaeferScratch {
    /// The answer, one value per variable.
    values: Vec<bool>,
    /// Bijunctive: whether a variable has a value yet.
    assigned: Vec<bool>,
    /// Variables whose consequences are still to propagate.
    queue: Vec<u32>,
    /// Bijunctive: the variables one guess assigned, undone on conflict.
    trail: Vec<u32>,
    /// Affine: the instantiated system.
    basis: RowBasis,
}

impl SchaeferScratch {
    /// Bijunctive: gives variable `v` its value and queues it.
    fn assign(&mut self, v: usize, value: bool) {
        self.values[v] = value;
        self.assigned[v] = true;
        self.trail.push(v as u32);
        self.queue.push(v as u32);
    }
}

/// Variable at Boolean position `p` of tuple `t` under bit width `bits`.
#[inline]
fn var(t: &[Element], bits: usize, p: usize) -> usize {
    t[p / bits].index() * bits + p % bits
}

/// The low `arity` bits.
#[inline]
fn ones(arity: usize) -> u64 {
    if arity >= 64 {
        u64::MAX
    } else {
        (1 << arity) - 1
    }
}

impl SchaeferPlan {
    /// Classifies the Boolean template `b` and lowers what its class's
    /// algorithm reads. A template outside Schaefer's class compiles to
    /// a plan with empty [`classes`](SchaeferPlan::classes) that cannot
    /// solve.
    ///
    /// Errors if `b` is not Boolean or has a relation wider than the
    /// bit-packed limit.
    pub fn compile(b: &Structure) -> Result<SchaeferPlan> {
        COMPILES.with(|c| c.set(c.get() + 1));
        let bs = BooleanStructure::from_structure(b)?;
        let classes = classify_structure(&bs);
        let class = ROUTE_ORDER.into_iter().find(|&c| classes.contains(c));
        let relations: Vec<&BooleanRelation> = bs.relations().iter().map(|(_, r)| r).collect();
        let mut rels: Vec<RelPlan> = relations
            .iter()
            .map(|r| RelPlan {
                arity: r.arity(),
                nonempty: !r.is_empty(),
                start: 0,
                end: 0,
            })
            .collect();
        // Lowers one table entry list per relation, recording its range.
        fn lower<T>(
            relations: &[&BooleanRelation],
            rels: &mut [RelPlan],
            mut entries: impl FnMut(&BooleanRelation, &mut Vec<T>),
        ) -> Vec<T> {
            let mut table = Vec::new();
            for (plan, r) in rels.iter_mut().zip(relations) {
                plan.start = table.len();
                entries(r, &mut table);
                plan.end = table.len();
            }
            table
        }
        let kernel = class.map(|class| match class {
            SchaeferClass::ZeroValid => Kernel::Constant(false),
            SchaeferClass::OneValid => Kernel::Constant(true),
            SchaeferClass::Bijunctive => {
                Kernel::Bijunctive(lower(&relations, &mut rels, |r, out| {
                    for k in 0..r.arity() {
                        for i in [false, true] {
                            let mut phase = Phase {
                                and: r.ones_mask(),
                                or: 0,
                                any: false,
                            };
                            for t in r.iter().filter(|&t| BooleanRelation::bit(t, k) == i) {
                                phase.and &= t;
                                phase.or |= t;
                                phase.any = true;
                            }
                            out.push(phase);
                        }
                    }
                }))
            }
            SchaeferClass::Horn | SchaeferClass::DualHorn => {
                let dual = class == SchaeferClass::DualHorn;
                Kernel::Horn {
                    tuples: lower(&relations, &mut rels, |r, out| {
                        let flip = if dual { r.ones_mask() } else { 0 };
                        out.extend(r.iter().map(|t| t ^ flip));
                    }),
                    dual,
                }
            }
            SchaeferClass::Affine => Kernel::Affine(lower(&relations, &mut rels, |r, out| {
                let delta = formula_build::defining_affine(r);
                out.extend(
                    delta
                        .equations
                        .iter()
                        .map(|eq| (eq.vars.iter().fold(0u64, |m, p| m | 1 << p), eq.rhs)),
                );
            })),
        });
        Ok(SchaeferPlan {
            classes,
            class,
            rels,
            kernel,
        })
    }

    /// The template's Schaefer classes (empty when it is not Schaefer).
    pub fn classes(&self) -> SchaeferSet {
        self.classes
    }

    /// The class whose algorithm [`solve`](SchaeferPlan::solve) runs:
    /// the first of 0-valid, 1-valid, bijunctive, Horn, dual Horn and
    /// affine that applies, or `None` outside Schaefer's class.
    pub fn class(&self) -> Option<SchaeferClass> {
        self.class
    }

    /// Decides `hom(A → B)` reading `a` at bit width `bits` (see the
    /// [module docs](self)). Returns the homomorphism as one value per
    /// variable (`a.universe() · bits` of them), borrowed from
    /// `scratch`, or `None` when there is none.
    ///
    /// # Panics
    /// Panics if the plan is not Schaefer, or if `a`'s relations do not
    /// line up with `B`'s at width `bits` (relation `r` of arity `k`
    /// needs `B`'s relation `r` of arity `k · bits`).
    pub fn solve<'s>(
        &self,
        a: &Structure,
        bits: usize,
        scratch: &'s mut SchaeferScratch,
    ) -> Option<&'s [bool]> {
        let voc = a.vocabulary();
        assert!(
            bits >= 1
                && voc.len() == self.rels.len()
                && voc
                    .iter()
                    .all(|r| voc.arity(r) * bits == self.rels[r.index()].arity),
            "instance relations do not match the plan at bit width {bits}"
        );
        let kernel = self
            .kernel
            .as_ref()
            .expect("solve on a template outside Schaefer's class");
        if self.missing_fact(a) {
            return None;
        }
        let n = a.universe() * bits;
        let solved = match kernel {
            Kernel::Constant(value) => {
                scratch.values.clear();
                scratch.values.resize(n, *value);
                true
            }
            Kernel::Bijunctive(phases) => self.bijunctive(a, bits, phases, scratch),
            Kernel::Horn { tuples, dual } => {
                let solved = self.horn(a, bits, tuples, scratch);
                if *dual {
                    scratch.values.iter_mut().for_each(|v| *v = !*v);
                }
                solved
            }
            Kernel::Affine(equations) => self.affine(a, bits, equations, scratch),
        };
        solved.then_some(&scratch.values[..])
    }

    /// Whether some 0-ary fact of `a` is missing from `B`.
    fn missing_fact(&self, a: &Structure) -> bool {
        a.vocabulary().iter().any(|r| {
            let plan = &self.rels[r.index()];
            plan.arity == 0 && !plan.nonempty && !a.relation(r).is_empty()
        })
    }

    /// The Horn fixpoint over `tuples` (∧-closed): least model in
    /// `scratch.values`.
    fn horn(&self, a: &Structure, bits: usize, tuples: &[u64], s: &mut SchaeferScratch) -> bool {
        let SchaeferScratch { values, queue, .. } = s;
        values.clear();
        values.resize(a.universe() * bits, false);
        queue.clear();
        // One tuple: fails when its current ones have no extension in Q',
        // otherwise forces the positions every extension sets.
        let process = |values: &mut [bool], queue: &mut Vec<u32>, r: RelId, t: &[Element]| {
            let plan = &self.rels[r.index()];
            let mask = (0..plan.arity).fold(0u64, |m, p| m | (values[var(t, bits, p)] as u64) << p);
            let mut meet = ones(plan.arity);
            let mut any = false;
            for &q in &tuples[plan.start..plan.end] {
                if q & mask == mask {
                    meet &= q;
                    any = true;
                }
            }
            let mut forced = meet & !mask;
            while any && forced != 0 {
                let v = var(t, bits, forced.trailing_zeros() as usize);
                forced &= forced - 1;
                if !values[v] {
                    values[v] = true;
                    queue.push(v as u32);
                }
            }
            any
        };
        for r in a.vocabulary().iter() {
            if self.rels[r.index()].arity == 0 {
                continue;
            }
            if !a.relation(r).iter().all(|t| process(values, queue, r, t)) {
                return false;
            }
        }
        while let Some(v) = queue.pop() {
            let e = Element::new(v as usize / bits);
            for &(r, ti) in a.occurrences(e) {
                if !process(values, queue, r, a.relation(r).tuple(ti as usize)) {
                    return false;
                }
            }
        }
        true
    }

    /// The phase-based bijunctive algorithm: variables in order, `false`
    /// guessed first, a failed guess undone through the trail.
    fn bijunctive(
        &self,
        a: &Structure,
        bits: usize,
        phases: &[Phase],
        s: &mut SchaeferScratch,
    ) -> bool {
        let n = a.universe() * bits;
        s.values.clear();
        s.values.resize(n, false);
        s.assigned.clear();
        s.assigned.resize(n, false);
        for start in 0..n {
            if s.assigned[start] {
                continue;
            }
            let phased = [false, true].into_iter().any(|guess| {
                s.trail.clear();
                s.queue.clear();
                s.assign(start, guess);
                if self.propagate(a, bits, phases, s) {
                    return true;
                }
                for &v in &s.trail {
                    s.assigned[v as usize] = false;
                }
                false
            });
            if !phased {
                return false;
            }
        }
        true
    }

    /// Propagates the queued assignments through the `T_{Q',k,i}`
    /// masks; `false` on conflict (the caller undoes the trail).
    fn propagate(
        &self,
        a: &Structure,
        bits: usize,
        phases: &[Phase],
        s: &mut SchaeferScratch,
    ) -> bool {
        while let Some(v) = s.queue.pop() {
            let v = v as usize;
            let (e, bit) = (v / bits, v % bits);
            let value = s.values[v];
            for &(r, ti) in a.occurrences(Element::new(e)) {
                let plan = &self.rels[r.index()];
                let t = a.relation(r).tuple(ti as usize);
                // `e` may fill several positions of the tuple.
                for q in (0..t.len()).filter(|&q| t[q].index() == e) {
                    let phase = phases[plan.start + 2 * (q * bits + bit) + usize::from(value)];
                    if !phase.any {
                        return false;
                    }
                    let mut forced = phase.and | (!phase.or & ones(plan.arity));
                    while forced != 0 {
                        let l = forced.trailing_zeros() as usize;
                        forced &= forced - 1;
                        let (w, j) = (var(t, bits, l), phase.and >> l & 1 == 1);
                        if !s.assigned[w] {
                            s.assign(w, j);
                        } else if s.values[w] != j {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Instantiates the defining equations per tuple into the word-row
    /// basis; the RREF solution lands in `scratch.values`.
    fn affine(
        &self,
        a: &Structure,
        bits: usize,
        equations: &[(u64, bool)],
        s: &mut SchaeferScratch,
    ) -> bool {
        s.basis.reset(a.universe() * bits);
        for r in a.vocabulary().iter() {
            let plan = &self.rels[r.index()];
            if plan.arity == 0 {
                continue;
            }
            for t in a.relation(r).iter() {
                for &(mask, rhs) in &equations[plan.start..plan.end] {
                    let mut m = mask;
                    while m != 0 {
                        s.basis.toggle(var(t, bits, m.trailing_zeros() as usize));
                        m &= m - 1;
                    }
                    if !s.basis.insert(rhs) {
                        return false;
                    }
                }
            }
        }
        s.basis.solution(&mut s.values);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::{homomorphism_exists, is_homomorphism};
    use cqcs_structures::StructureBuilder;
    use std::sync::Arc;

    /// Builds a left structure over the same symbols as a Boolean
    /// template.
    fn left(bs: &BooleanStructure, n: usize, facts: &[(&str, &[u32])]) -> Structure {
        let b = bs.to_structure();
        let mut builder = StructureBuilder::new(Arc::clone(b.vocabulary()), n);
        for (name, tuple) in facts {
            builder.add_fact(name, tuple).unwrap();
        }
        builder.finish()
    }

    /// Compiles `b` and solves `a` at width 1.
    fn plan_solve(a: &Structure, b: &Structure) -> Option<Vec<bool>> {
        let plan = SchaeferPlan::compile(b).unwrap();
        plan.solve(a, 1, &mut SchaeferScratch::default())
            .map(<[bool]>::to_vec)
    }

    /// The plan's verdict matches exhaustive search and its witness is a
    /// homomorphism.
    fn check_against_search(a: &Structure, b: &Structure, what: &str) {
        let got = plan_solve(a, b);
        assert_eq!(got.is_some(), homomorphism_exists(a, b), "{what}");
        if let Some(h) = got {
            let map: Vec<_> = h.iter().map(|&v| Element::new(usize::from(v))).collect();
            assert!(is_homomorphism(&map, a, b), "{what}");
        }
    }

    /// `x ∧ y → z` plus the units `U = {1}` and `F = {0}`: Horn and
    /// nothing else, so the plan runs the Horn fixpoint.
    fn horn_template(flip: bool) -> BooleanStructure {
        let mask = if flip { 0b111 } else { 0 };
        let implication: Vec<u64> = (0..8u64)
            .filter(|&t| t != 0b011)
            .map(|t| t ^ mask)
            .collect();
        BooleanStructure::new(vec![
            ("R".into(), BooleanRelation::new(3, implication).unwrap()),
            ("U".into(), BooleanRelation::new(1, vec![0b1]).unwrap()),
            ("F".into(), BooleanRelation::new(1, vec![0b0]).unwrap()),
        ])
    }

    #[test]
    fn horn_implication_chain() {
        let bs = horn_template(false);
        let b = bs.to_structure();
        assert_eq!(
            SchaeferPlan::compile(&b).unwrap().class(),
            Some(SchaeferClass::Horn)
        );
        // U(0), U(1), R(0,1,2), R(2,2,3): forces 0..=3 all true.
        let a = left(
            &bs,
            5,
            &[
                ("U", &[0]),
                ("U", &[1]),
                ("R", &[0, 1, 2]),
                ("R", &[2, 2, 3]),
            ],
        );
        assert_eq!(
            plan_solve(&a, &b),
            Some(vec![true, true, true, true, false])
        );
        // Add F(3): now unsatisfiable.
        let a2 = left(
            &bs,
            4,
            &[
                ("U", &[0]),
                ("U", &[1]),
                ("R", &[0, 1, 2]),
                ("R", &[2, 2, 3]),
                ("F", &[3]),
            ],
        );
        assert_eq!(plan_solve(&a2, &b), None);
    }

    #[test]
    fn horn_returns_minimal_model() {
        // R(0,1,2) alone: all-false works and is minimal.
        let bs = horn_template(false);
        let a = left(&bs, 3, &[("R", &[0, 1, 2])]);
        assert_eq!(plan_solve(&a, &bs.to_structure()), Some(vec![false; 3]));
        // Dually, the greatest model.
        let bs = horn_template(true);
        let a = left(&bs, 3, &[("R", &[0, 1, 2])]);
        assert_eq!(plan_solve(&a, &bs.to_structure()), Some(vec![true; 3]));
    }

    #[test]
    fn horn_and_dual_horn_match_reference_search() {
        for (flip, class) in [
            (false, SchaeferClass::Horn),
            (true, SchaeferClass::DualHorn),
        ] {
            let b = horn_template(flip).to_structure();
            assert_eq!(SchaeferPlan::compile(&b).unwrap().class(), Some(class));
            for seed in 0..20u64 {
                let a = generators::random_structure_over(b.vocabulary(), 6, 3, seed);
                check_against_search(&a, &b, &format!("{class} seed {seed}"));
            }
        }
    }

    #[test]
    fn bijunctive_two_coloring() {
        // K2 as a Boolean template is the XOR relation (Example 3.7).
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let bs = BooleanStructure::new(vec![("E".into(), xor)]);
        let b = bs.to_structure();
        assert_eq!(
            SchaeferPlan::compile(&b).unwrap().class(),
            Some(SchaeferClass::Bijunctive)
        );
        let cycle = |n: u32| -> Vec<[u32; 2]> { (0..n).map(|i| [i, (i + 1) % n]).collect() };
        let even = cycle(6);
        let facts: Vec<(&str, &[u32])> = even.iter().map(|f| ("E", f.as_slice())).collect();
        let h = plan_solve(&left(&bs, 6, &facts), &b).unwrap();
        for w in &even {
            assert_ne!(h[w[0] as usize], h[w[1] as usize]);
        }
        let odd = cycle(5);
        let facts: Vec<(&str, &[u32])> = odd.iter().map(|f| ("E", f.as_slice())).collect();
        assert_eq!(plan_solve(&left(&bs, 5, &facts), &b), None);
    }

    #[test]
    fn bijunctive_matches_reference_on_random_instances() {
        // Majority closure of {001, 010, 111}, plus XOR.
        let mut tuples = vec![0b001u64, 0b010, 0b111];
        loop {
            let snap = tuples.clone();
            let before = tuples.len();
            for &x in &snap {
                for &y in &snap {
                    for &z in &snap {
                        let m = BooleanRelation::majority(x, y, z);
                        if !tuples.contains(&m) {
                            tuples.push(m);
                        }
                    }
                }
            }
            if tuples.len() == before {
                break;
            }
        }
        let r3 = BooleanRelation::new(3, tuples).unwrap();
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let b = BooleanStructure::new(vec![("R".into(), r3), ("X".into(), xor)]).to_structure();
        for seed in 0..25u64 {
            let a = generators::random_structure_over(b.vocabulary(), 6, 4, seed);
            check_against_search(&a, &b, &format!("seed {seed}"));
        }
    }

    #[test]
    fn affine_repeated_elements_cancel() {
        // Even parity P(x, y, z): P(0, 0, 1) forces x1 = 0; adding the
        // unit U(1) = {1} makes it unsatisfiable.
        let parity = BooleanRelation::new(3, vec![0b000, 0b011, 0b101, 0b110]).unwrap();
        let unit = BooleanRelation::new(1, vec![0b1]).unwrap();
        let bs = BooleanStructure::new(vec![("P".into(), parity), ("U".into(), unit)]);
        let b = bs.to_structure();
        assert_eq!(
            SchaeferPlan::compile(&b).unwrap().class(),
            Some(SchaeferClass::Affine)
        );
        let a = left(&bs, 2, &[("P", &[0, 0, 1])]);
        assert_eq!(plan_solve(&a, &b), Some(vec![false, false]));
        let a = left(&bs, 2, &[("P", &[0, 0, 1]), ("U", &[1])]);
        assert_eq!(plan_solve(&a, &b), None);
    }

    #[test]
    fn bit_width_reads_pairs_of_positions() {
        // Width 2 against the Booleanized two-colouring of K2's pair
        // relation: E_b(x0 x1, y0 y1) = XOR on bit 0, bit 1 = 0 — the
        // plan must read element e's bits as variables 2e, 2e + 1.
        let rel = BooleanRelation::new(4, vec![0b0001, 0b0100]).unwrap();
        let b = BooleanStructure::new(vec![("E".into(), rel)]).to_structure();
        let plan = SchaeferPlan::compile(&b).unwrap();
        let a = generators::directed_path(3);
        let mut scratch = SchaeferScratch::default();
        let h = plan.solve(&a, 2, &mut scratch).unwrap();
        assert_eq!(h, [false, false, true, false, false, false]);
    }

    #[test]
    fn not_schaefer_compiles_but_cannot_solve() {
        // Positive one-in-three.
        let b = BooleanRelation::new(3, vec![0b001, 0b010, 0b100])
            .unwrap()
            .to_structure("R");
        let plan = SchaeferPlan::compile(&b).unwrap();
        assert!(!plan.classes().is_schaefer());
        assert_eq!(plan.class(), None);
        let non_boolean = generators::complete_graph(3);
        assert!(SchaeferPlan::compile(&non_boolean).is_err());
    }

    #[test]
    fn isolated_elements_get_values() {
        // Universe 4 but only elements 0, 1 constrained, on every kernel.
        let xor = BooleanRelation::new(2, vec![0b01, 0b10]).unwrap();
        let bs = BooleanStructure::new(vec![("E".into(), xor)]);
        let a = left(&bs, 4, &[("E", &[0, 1])]);
        assert_eq!(plan_solve(&a, &bs.to_structure()).unwrap().len(), 4);
        let bs = horn_template(false);
        let a = left(&bs, 4, &[("R", &[0, 1, 1])]);
        assert_eq!(plan_solve(&a, &bs.to_structure()).unwrap().len(), 4);
    }

    #[test]
    fn compiles_are_counted_per_thread() {
        let b = generators::complete_graph(2);
        let before = plan_compiles_on_this_thread();
        let plan = SchaeferPlan::compile(&b).unwrap();
        let mut scratch = SchaeferScratch::default();
        for n in 3..7 {
            let _ = plan.solve(&generators::undirected_cycle(n), 1, &mut scratch);
        }
        assert_eq!(plan_compiles_on_this_thread() - before, 1);
    }
}
