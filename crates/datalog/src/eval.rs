//! Bottom-up Datalog evaluation.
//!
//! Both the textbook **naive** iteration and the **semi-naive**
//! differential variant are provided (experiment E12 measures the gap).
//! Semantics are over the **active domain**: rule variables range over
//! the whole universe of the input structure, so range-unrestricted
//! head variables (which the canonical program ρ_B of Theorem 4.7 uses)
//! mean "for every element". Evaluation terminates within a polynomial
//! number of steps in the size of the input, as the paper recalls in
//! §4.1.

use crate::ast::{Atom, PredId, Program, Rule};
use cqcs_structures::Structure;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Derived facts per predicate.
pub type FactStore = HashMap<PredId, HashSet<Vec<u32>>>;

/// An append-only fact list with a tuple-membership index: facts are
/// stored once, in derivation order, so the semi-naive evaluator's
/// deltas are just index ranges into this vector — no per-stratum
/// cloning of relations into a separate delta store. Membership is a
/// hash-bucket lookup (full-tuple comparison on collision, so the index
/// is exact).
#[derive(Debug, Default)]
struct IndexedFacts {
    facts: Vec<Vec<u32>>,
    /// fact hash → indices into `facts` with that hash.
    index: HashMap<u64, Vec<u32>>,
}

impl IndexedFacts {
    fn hash_of(fact: &[u32]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        fact.hash(&mut h);
        h.finish()
    }

    /// Membership with a caller-computed hash, so one hash serves
    /// several probes of the same fact.
    fn contains_hashed(&self, hash: u64, fact: &[u32]) -> bool {
        self.index
            .get(&hash)
            .is_some_and(|ids| ids.iter().any(|&i| self.facts[i as usize] == fact))
    }

    /// Appends `fact` unless already present; reports whether it was new.
    fn insert(&mut self, fact: Vec<u32>) -> bool {
        self.insert_hashed(Self::hash_of(&fact), fact)
    }

    fn insert_hashed(&mut self, hash: u64, fact: Vec<u32>) -> bool {
        let ids = self.index.entry(hash).or_default();
        if ids.iter().any(|&i| self.facts[i as usize] == fact) {
            return false;
        }
        ids.push(self.facts.len() as u32);
        self.facts.push(fact);
        true
    }

    /// Empties the store, keeping allocations (scratch reuse).
    fn clear(&mut self) {
        self.facts.clear();
        self.index.clear();
    }
}

/// Where one body atom draws its candidate facts from: an EDB hash set
/// or a (possibly delta-ranged) slice of an [`IndexedFacts`] vector.
/// Shared with the incremental maintainer in [`crate::incremental`].
pub(crate) enum AtomSource<'a> {
    Set(&'a HashSet<Vec<u32>>),
    Slice(&'a [Vec<u32>]),
}

impl<'a> AtomSource<'a> {
    fn iter(&self) -> SourceIter<'a> {
        match self {
            AtomSource::Set(s) => SourceIter::Set(s.iter()),
            AtomSource::Slice(s) => SourceIter::Slice(s.iter()),
        }
    }
}

enum SourceIter<'a> {
    Set(std::collections::hash_set::Iter<'a, Vec<u32>>),
    Slice(std::slice::Iter<'a, Vec<u32>>),
}

impl<'a> Iterator for SourceIter<'a> {
    type Item = &'a Vec<u32>;
    fn next(&mut self) -> Option<&'a Vec<u32>> {
        match self {
            SourceIter::Set(it) => it.next(),
            SourceIter::Slice(it) => it.next(),
        }
    }
}

/// The outcome of a bottom-up evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// All derived IDB facts (EDB facts are not copied in).
    pub facts: FactStore,
    /// Whether any fact of the goal predicate was derived.
    pub goal_derived: bool,
    /// Rule-application rounds performed. Both evaluators use the same
    /// convention — every round actually executed is counted,
    /// including naive evaluation's final no-change round and
    /// semi-naive evaluation's seeding round — so the two figures are
    /// directly comparable in experiment E12.
    pub iterations: usize,
    /// Total rule-body join attempts (a work measure for E12).
    pub join_work: usize,
}

/// Binds the program's EDB predicates to the structure's relations by
/// name; missing relations are treated as empty.
pub(crate) fn edb_store(program: &Program, input: &Structure) -> FactStore {
    let mut store: FactStore = HashMap::new();
    for p in program.edb_preds() {
        let mut set = HashSet::new();
        if let Some(rel) = input.vocabulary().lookup(program.pred_name(p)) {
            if input.vocabulary().arity(rel) == program.pred_arity(p) {
                for t in input.relation(rel).iter() {
                    set.insert(t.iter().map(|e| e.0).collect());
                }
            }
        }
        store.insert(p, set);
    }
    store
}

/// Naive evaluation: re-derive everything until no new fact appears.
pub fn eval_naive(program: &Program, input: &Structure) -> EvalResult {
    let edb = edb_store(program, input);
    let universe = input.universe() as u32;
    let mut idb: FactStore = HashMap::new();
    let mut iterations = 0usize;
    let mut join_work = 0usize;
    loop {
        iterations += 1;
        let mut fresh: Vec<(PredId, Vec<u32>)> = Vec::new();
        for rule in &program.rules {
            let sources: Vec<AtomSource> = rule
                .body
                .iter()
                .map(|a| naive_source(a, &edb, &idb))
                .collect();
            derive(
                rule,
                &sources,
                universe,
                &mut |fact| {
                    fresh.push((rule.head.pred, fact));
                },
                &mut join_work,
            );
        }
        let mut changed = false;
        for (p, fact) in fresh {
            if idb.entry(p).or_default().insert(fact) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let goal_derived = idb.get(&program.goal).is_some_and(|s| !s.is_empty());
    EvalResult {
        facts: idb,
        goal_derived,
        iterations,
        join_work,
    }
}

fn naive_source<'a>(atom: &Atom, edb: &'a FactStore, idb: &'a FactStore) -> AtomSource<'a> {
    let store = if edb.contains_key(&atom.pred) {
        edb
    } else {
        idb
    };
    match store.get(&atom.pred) {
        Some(facts) => AtomSource::Set(facts),
        None => AtomSource::Slice(&[]),
    }
}

/// Semi-naive evaluation: each round only instantiates rule bodies with
/// at least one atom taken from the previous round's delta.
///
/// Derived facts live in per-predicate `IndexedFacts` — an
/// append-only vector plus a tuple-membership index — and a round's
/// delta is just the index range appended by the previous round, read
/// as a slice. Nothing is cloned between the delta and the full store
/// (the pre-rework evaluator copied every delta fact into the IDB per
/// stratum), and the final [`EvalResult::facts`] is built by *moving*
/// the vectors. Output is pinned equal to [`eval_naive`]'s (tests and
/// E12), and `iterations`/`join_work` keep their conventions.
pub fn eval_semi_naive(program: &Program, input: &Structure) -> EvalResult {
    let edb = edb_store(program, input);
    let universe = input.universe() as u32;
    let mut idb: HashMap<PredId, IndexedFacts> = HashMap::new();
    // Pre-round fact counts: facts [..snapshot] are the full store a
    // round may read, [delta_start..snapshot] the current delta.
    fn snapshot_of(idb: &HashMap<PredId, IndexedFacts>) -> HashMap<PredId, usize> {
        idb.iter().map(|(p, f)| (*p, f.facts.len())).collect()
    }
    let mut iterations = 0usize;
    let mut join_work = 0usize;
    // Per-derive scratch: dedups at emit time, so peak memory is
    // bounded by *distinct* new facts (as the old per-round hash sets
    // were), not by total join emissions.
    let mut derived = IndexedFacts::default();

    // Round 0: rules whose bodies contain no IDB atom (including empty
    // bodies). This seeding round is a rule-application round and is
    // counted, matching the naive evaluator's every-round convention.
    iterations += 1;
    for rule in &program.rules {
        if rule.body.iter().all(|a| !program.is_idb(a.pred)) {
            let sources: Vec<AtomSource> = rule
                .body
                .iter()
                .map(|a| {
                    edb.get(&a.pred)
                        .map_or(AtomSource::Slice(&[]), AtomSource::Set)
                })
                .collect();
            derive(
                rule,
                &sources,
                universe,
                &mut |fact| {
                    derived.insert(fact);
                },
                &mut join_work,
            );
            let store = idb.entry(rule.head.pred).or_default();
            for fact in derived.facts.drain(..) {
                store.insert(fact);
            }
            derived.clear();
        }
    }

    // Each main round reads the store as of its start (`snapshot`) and
    // appends; the facts appended during round k are round k+1's delta.
    let mut delta_start: HashMap<PredId, usize> = HashMap::new();
    loop {
        let snapshot = snapshot_of(&idb);
        let any_delta = snapshot
            .iter()
            .any(|(p, &end)| delta_start.get(p).copied().unwrap_or(0) < end);
        if !any_delta {
            break;
        }
        iterations += 1;
        for rule in &program.rules {
            for (pos, atom) in rule.body.iter().enumerate() {
                if !program.is_idb(atom.pred) {
                    continue;
                }
                let d_end = snapshot.get(&atom.pred).copied().unwrap_or(0);
                let d_start = delta_start.get(&atom.pred).copied().unwrap_or(0);
                if d_start >= d_end {
                    continue;
                }
                {
                    let sources: Vec<AtomSource> = rule
                        .body
                        .iter()
                        .enumerate()
                        .map(|(i, a)| {
                            if let Some(facts) = edb.get(&a.pred) {
                                return AtomSource::Set(facts);
                            }
                            let all = idb.get(&a.pred).map_or(&[][..], |f| &f.facts[..]);
                            let end = snapshot.get(&a.pred).copied().unwrap_or(0);
                            if i == pos {
                                AtomSource::Slice(&all[d_start..end])
                            } else {
                                AtomSource::Slice(&all[..end])
                            }
                        })
                        .collect();
                    let head = idb.get(&rule.head.pred);
                    derive(
                        rule,
                        &sources,
                        universe,
                        &mut |fact| {
                            let h = IndexedFacts::hash_of(&fact);
                            if !head.is_some_and(|f| f.contains_hashed(h, &fact)) {
                                derived.insert_hashed(h, fact);
                            }
                        },
                        &mut join_work,
                    );
                }
                if !derived.facts.is_empty() {
                    let store = idb.entry(rule.head.pred).or_default();
                    for fact in derived.facts.drain(..) {
                        store.insert(fact);
                    }
                    derived.clear();
                }
            }
        }
        for (p, end) in snapshot {
            delta_start.insert(p, end);
        }
    }
    let goal_derived = idb.get(&program.goal).is_some_and(|f| !f.facts.is_empty());
    // Moves, not clones: each fact vector is handed to the result set.
    let facts: FactStore = idb
        .into_iter()
        .map(|(p, f)| (p, f.facts.into_iter().collect::<HashSet<_>>()))
        .collect();
    EvalResult {
        facts,
        goal_derived,
        iterations,
        join_work,
    }
}

/// Evaluates one rule body by backtracking join over the given per-atom
/// fact sources; head-only variables range over the active domain.
pub(crate) fn derive(
    rule: &Rule,
    sources: &[AtomSource],
    universe: u32,
    emit: &mut dyn FnMut(Vec<u32>),
    join_work: &mut usize,
) {
    let mut binding: Vec<Option<u32>> = vec![None; rule.num_vars];
    join_atoms(rule, 0, sources, universe, &mut binding, emit, join_work);
}

fn join_atoms(
    rule: &Rule,
    pos: usize,
    sources: &[AtomSource],
    universe: u32,
    binding: &mut Vec<Option<u32>>,
    emit: &mut dyn FnMut(Vec<u32>),
    join_work: &mut usize,
) {
    if pos == rule.body.len() {
        // Enumerate head-only variables over the active domain.
        emit_heads(rule, 0, universe, binding, emit);
        return;
    }
    let atom = &rule.body[pos];
    // One scratch list per join level, reused across the fact loop
    // (the old per-fact `Vec::new()` was a heap allocation per
    // `join_work` unit).
    let mut bound_here: Vec<usize> = Vec::with_capacity(atom.args.len());
    'fact: for fact in sources[pos].iter() {
        *join_work += 1;
        bound_here.clear();
        for (i, &v) in atom.args.iter().enumerate() {
            match binding[v.index()] {
                Some(existing) if existing != fact[i] => {
                    for &b in &bound_here {
                        binding[b] = None;
                    }
                    continue 'fact;
                }
                Some(_) => {}
                None => {
                    binding[v.index()] = Some(fact[i]);
                    bound_here.push(v.index());
                }
            }
        }
        join_atoms(rule, pos + 1, sources, universe, binding, emit, join_work);
        for &b in &bound_here {
            binding[b] = None;
        }
    }
}

fn emit_heads(
    rule: &Rule,
    from: usize,
    universe: u32,
    binding: &mut Vec<Option<u32>>,
    emit: &mut dyn FnMut(Vec<u32>),
) {
    // Find the next unbound head variable.
    let unbound = rule.head.args[from..]
        .iter()
        .enumerate()
        .find(|(_, v)| binding[v.index()].is_none());
    match unbound {
        None => {
            let fact: Vec<u32> = rule
                .head
                .args
                .iter()
                .map(|v| binding[v.index()].expect("all head vars bound"))
                .collect();
            emit(fact);
        }
        Some((offset, &v)) => {
            let at = from + offset;
            for value in 0..universe {
                binding[v.index()] = Some(value);
                emit_heads(rule, at + 1, universe, binding, emit);
            }
            binding[v.index()] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ProgramBuilder;
    use cqcs_structures::generators;

    fn tc_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.rule(("P", &["X", "Y"]), &[("E", &["X", "Y"])]);
        b.rule(
            ("P", &["X", "Y"]),
            &[("P", &["X", "Z"]), ("E", &["Z", "Y"])],
        );
        b.rule(("Q", &[]), &[("P", &["X", "X"])]);
        b.finish("Q")
    }

    #[test]
    fn transitive_closure_on_path() {
        let program = tc_program();
        let input = generators::directed_path(4);
        for result in [
            eval_naive(&program, &input),
            eval_semi_naive(&program, &input),
        ] {
            let p = program.pred("P").unwrap();
            let facts = &result.facts[&p];
            assert_eq!(facts.len(), 6, "all pairs i<j on a 4-path");
            assert!(facts.contains(&vec![0u32, 3]));
            assert!(!result.goal_derived, "a path has no cycle");
        }
    }

    #[test]
    fn cycle_detection_goal() {
        let program = tc_program();
        let input = generators::directed_cycle(3);
        assert!(eval_naive(&program, &input).goal_derived);
        assert!(eval_semi_naive(&program, &input).goal_derived);
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let program = tc_program();
        for seed in 0..10u64 {
            let input = generators::random_digraph(6, 0.3, seed);
            let a = eval_naive(&program, &input);
            let b = eval_semi_naive(&program, &input);
            assert_eq!(a.goal_derived, b.goal_derived, "seed {seed}");
            let p = program.pred("P").unwrap();
            assert_eq!(
                a.facts.get(&p).cloned().unwrap_or_default(),
                b.facts.get(&p).cloned().unwrap_or_default(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn semi_naive_does_less_join_work() {
        let program = tc_program();
        let input = generators::directed_path(12);
        let naive = eval_naive(&program, &input);
        let semi = eval_semi_naive(&program, &input);
        assert!(
            semi.join_work < naive.join_work,
            "semi-naive {} !< naive {}",
            semi.join_work,
            naive.join_work
        );
    }

    #[test]
    fn active_domain_head_variables() {
        // T(X, Y) :- E(X, X).  Y is range-unrestricted: derives a fact
        // per universe element once some loop exists.
        let mut b = ProgramBuilder::new();
        b.rule(("T", &["X", "Y"]), &[("E", &["X", "X"])]);
        let program = b.finish("T");
        let voc = generators::digraph_vocabulary();
        let mut sb = cqcs_structures::StructureBuilder::new(voc, 4);
        sb.add_fact("E", &[2, 2]).unwrap();
        let input = sb.finish();
        let result = eval_naive(&program, &input);
        let t = program.pred("T").unwrap();
        assert_eq!(result.facts[&t].len(), 4, "Y ranges over the universe");
        assert!(result.facts[&t].contains(&vec![2u32, 0]));
        let semi = eval_semi_naive(&program, &input);
        assert_eq!(semi.facts[&t], result.facts[&t]);
    }

    #[test]
    fn empty_body_rules_fire_unconditionally() {
        let mut b = ProgramBuilder::new();
        b.rule(("T", &["X"]), &[]);
        let program = b.finish("T");
        let input = generators::directed_path(3);
        let result = eval_semi_naive(&program, &input);
        let t = program.pred("T").unwrap();
        assert_eq!(result.facts[&t].len(), 3);
        assert!(result.goal_derived);
    }

    #[test]
    fn missing_edb_is_empty() {
        // Program mentions relation "F" that the structure lacks.
        let mut b = ProgramBuilder::new();
        b.rule(("T", &["X"]), &[("F", &["X"])]);
        let program = b.finish("T");
        let input = generators::directed_path(3);
        let result = eval_naive(&program, &input);
        assert!(!result.goal_derived);
    }

    #[test]
    fn repeated_variables_in_atoms() {
        // Q :- E(X, X) finds loops only.
        let mut b = ProgramBuilder::new();
        b.rule(("Q", &[]), &[("E", &["X", "X"])]);
        let program = b.finish("Q");
        assert!(!eval_naive(&program, &generators::directed_cycle(3)).goal_derived);
        let voc = generators::digraph_vocabulary();
        let mut sb = cqcs_structures::StructureBuilder::new(voc, 2);
        sb.add_fact("E", &[1, 1]).unwrap();
        assert!(eval_naive(&program, &sb.finish()).goal_derived);
    }

    #[test]
    fn iteration_accounting_is_comparable() {
        // Regression for the E12 accounting mismatch: naive counted
        // its final no-change round while semi-naive skipped its
        // seeding round, so the two `iterations` figures drifted by
        // two. Under the unified every-round-performed convention they
        // coincide on the canonical workloads.
        let program = tc_program();
        // 4-path: edges, length-2, length-3, then one no-change round.
        let input = generators::directed_path(4);
        let naive = eval_naive(&program, &input);
        let semi = eval_semi_naive(&program, &input);
        assert_eq!(naive.iterations, 4);
        assert_eq!(semi.iterations, 4);
        // 3-cycle: edges, length-2, loops, goal Q, then no change.
        let input = generators::directed_cycle(3);
        let naive = eval_naive(&program, &input);
        let semi = eval_semi_naive(&program, &input);
        assert_eq!(naive.iterations, 5);
        assert_eq!(semi.iterations, 5);
    }

    #[test]
    fn semi_naive_matches_naive_on_rho_b() {
        // The delta-range rework must stay pinned to the naive
        // evaluator on the canonical-program workload E12 measures:
        // same facts for every predicate, same goal verdict.
        let program = crate::canonical::canonical_program(&generators::complete_graph(2), 2);
        for seed in 0..6u64 {
            let input = generators::random_digraph(5, 0.3, seed);
            let nv = eval_naive(&program, &input);
            let sn = eval_semi_naive(&program, &input);
            assert_eq!(nv.goal_derived, sn.goal_derived, "seed {seed}");
            for p in 0..program.num_preds() {
                let p = crate::ast::PredId(p as u32);
                assert_eq!(
                    nv.facts.get(&p).cloned().unwrap_or_default(),
                    sn.facts.get(&p).cloned().unwrap_or_default(),
                    "seed {seed} pred {p:?}"
                );
            }
        }
    }

    #[test]
    fn zero_ary_goal_via_semi_naive() {
        let program = tc_program();
        let input = generators::directed_cycle(5);
        let semi = eval_semi_naive(&program, &input);
        assert!(semi.goal_derived);
        assert!(semi.iterations >= 2, "recursion actually iterated");
    }
}
