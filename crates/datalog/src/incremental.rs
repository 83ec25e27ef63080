//! Incremental Datalog maintenance over [`StructureDelta`] streams.
//!
//! [`IncrementalEval`] keeps the least fixpoint of a program over a
//! changing EDB up to date without re-running
//! [`eval_semi_naive`](crate::eval::eval_semi_naive) from scratch:
//!
//! * predicates are **stratified** by the SCC condensation of the rule
//!   dependency graph (body pred → head pred), processed in topological
//!   order;
//! * **non-recursive** predicates are maintained by **counting**: each
//!   fact carries its number of rule derivations, and a delta
//!   telescopes every rule body through signed per-position joins
//!   (`Σᵢ new₁..ᵢ₋₁ · δᵢ · oldᵢ₊₁..ₘ`), so a fact dies exactly when
//!   its count reaches zero;
//! * **recursive** strata are maintained **DRed**-style
//!   (delete-and-re-derive): deletions over-propagate semi-naively
//!   against the old state, the over-deleted facts that survive are
//!   re-derived from the post-deletion state, and insertions continue
//!   the semi-naive fixpoint;
//! * each update runs a **deletion sweep** then an **addition sweep**
//!   over the strata, so every sweep sees single-signed deltas;
//! * universe growth falls back to full recomputation — head-only
//!   variables range over the active domain, so growing the universe
//!   changes derivations that no EDB-fact delta describes.
//!
//! The maintained facts are pinned equal to a from-scratch
//! [`eval_semi_naive`](crate::eval::eval_semi_naive) on the post-delta
//! structure (unit tests here, property tests in the facade suite).
//! [`DatalogWatch`] wraps the maintainer into a register-once /
//! feed-deltas / notify-on-goal-flip surface — the Datalog side of the
//! delta-solve pipeline.

use crate::ast::{PredId, Program};
use crate::eval::{derive, edb_store, AtomSource, FactStore};
use cqcs_structures::{Structure, StructureDelta};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One SCC of the predicate dependency graph, with the rules whose
/// heads it owns.
#[derive(Debug)]
struct Stratum {
    preds: Vec<PredId>,
    /// Indices into `program.rules`.
    rules: Vec<usize>,
    /// Mutual recursion (SCC size > 1) or direct self-recursion.
    recursive: bool,
}

/// Update-path counters, exposed so tests can assert the incremental
/// path actually ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncStats {
    /// Deltas absorbed by the counting/DRed path.
    pub incremental_updates: usize,
    /// Deltas that forced a from-scratch recomputation.
    pub full_recomputes: usize,
    /// Total rule-body join attempts, same convention as
    /// [`EvalResult::join_work`](crate::eval::EvalResult::join_work).
    pub join_work: usize,
}

/// Incrementally maintained least fixpoint of a Datalog program. See
/// the [module docs](self).
#[derive(Debug)]
pub struct IncrementalEval {
    program: Program,
    strata: Vec<Stratum>,
    universe: u32,
    edb: FactStore,
    idb: FactStore,
    /// Derivation counts, kept for non-recursive predicates only.
    counts: HashMap<PredId, HashMap<Vec<u32>, u64>>,
    stats: IncStats,
}

fn empty_set() -> &'static HashSet<Vec<u32>> {
    static EMPTY: OnceLock<HashSet<Vec<u32>>> = OnceLock::new();
    EMPTY.get_or_init(HashSet::new)
}

/// The current fact set of `p`, whichever store holds it.
fn full_set<'a>(edb: &'a FactStore, idb: &'a FactStore, p: PredId) -> &'a HashSet<Vec<u32>> {
    match edb.get(&p).or_else(|| idb.get(&p)) {
        Some(s) => s,
        None => empty_set(),
    }
}

/// Tarjan's SCC algorithm (iterative); emits components in reverse
/// topological order of the condensation.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    for s in 0..n {
        if index[s] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(s, 0)];
        index[s] = counter;
        low[s] = counter;
        counter += 1;
        stack.push(s);
        on_stack[s] = true;
        while let Some(frame) = call.last_mut() {
            let (v, ci) = *frame;
            if ci < adj[v].len() {
                frame.1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// SCC-condenses the body→head dependency graph into topologically
/// ordered strata; components without rules (the EDB predicates) are
/// dropped.
fn stratify(program: &Program) -> Vec<Stratum> {
    let n = program.num_preds();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for rule in &program.rules {
        for a in &rule.body {
            adj[a.pred.index()].push(rule.head.pred.index());
        }
    }
    for targets in &mut adj {
        targets.sort_unstable();
        targets.dedup();
    }
    let order: Vec<Vec<usize>> = tarjan(n, &adj).into_iter().rev().collect();
    let mut comp = vec![0usize; n];
    for (i, c) in order.iter().enumerate() {
        for &p in c {
            comp[p] = i;
        }
    }
    let mut strata = Vec::new();
    for (i, c) in order.iter().enumerate() {
        let rules: Vec<usize> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| comp[r.head.pred.index()] == i)
            .map(|(j, _)| j)
            .collect();
        if rules.is_empty() {
            continue;
        }
        let recursive = c.len() > 1
            || program.rules.iter().any(|r| {
                r.head.pred.index() == c[0] && r.body.iter().any(|a| a.pred.index() == c[0])
            });
        strata.push(Stratum {
            preds: c.iter().map(|&p| PredId(p as u32)).collect(),
            rules,
            recursive,
        });
    }
    strata
}

impl IncrementalEval {
    /// Stratifies `program` and computes the initial fixpoint on
    /// `input` (counting derivations for the non-recursive
    /// predicates).
    pub fn new(program: &Program, input: &Structure) -> IncrementalEval {
        let mut me = IncrementalEval {
            strata: stratify(program),
            program: program.clone(),
            universe: 0,
            edb: HashMap::new(),
            idb: HashMap::new(),
            counts: HashMap::new(),
            stats: IncStats::default(),
        };
        me.recompute(input);
        me
    }

    /// Re-derives everything from scratch on `input` (initial build and
    /// the universe-growth fallback).
    fn recompute(&mut self, input: &Structure) {
        self.universe = input.universe() as u32;
        self.edb = edb_store(&self.program, input);
        self.idb.clear();
        self.counts.clear();
        for si in 0..self.strata.len() {
            if self.strata[si].recursive {
                self.eval_recursive_stratum(si);
            } else {
                self.eval_counting_stratum(si);
            }
        }
    }

    /// Full evaluation of a non-recursive stratum: enumerate every rule
    /// derivation, counting multiplicities.
    fn eval_counting_stratum(&mut self, si: usize) {
        let stratum = &self.strata[si];
        let p = stratum.preds[0];
        let (edb, idb) = (&self.edb, &self.idb);
        let pcounts = self.counts.entry(p).or_default();
        let join_work = &mut self.stats.join_work;
        for &ri in &stratum.rules {
            let rule = &self.program.rules[ri];
            let sources: Vec<AtomSource> = rule
                .body
                .iter()
                .map(|a| AtomSource::Set(full_set(edb, idb, a.pred)))
                .collect();
            derive(
                rule,
                &sources,
                self.universe,
                &mut |fact| {
                    *pcounts.entry(fact).or_insert(0) += 1;
                },
                join_work,
            );
        }
        let set: HashSet<Vec<u32>> = pcounts.keys().cloned().collect();
        self.idb.insert(p, set);
    }

    /// Full evaluation of a recursive stratum: round-one full join,
    /// then semi-naive iteration within the stratum.
    fn eval_recursive_stratum(&mut self, si: usize) {
        let stratum = &self.strata[si];
        let mut emitted: Vec<(PredId, Vec<u32>)> = Vec::new();
        for &ri in &stratum.rules {
            let rule = &self.program.rules[ri];
            let sources: Vec<AtomSource> = rule
                .body
                .iter()
                .map(|a| AtomSource::Set(full_set(&self.edb, &self.idb, a.pred)))
                .collect();
            let head = rule.head.pred;
            derive(
                rule,
                &sources,
                self.universe,
                &mut |fact| emitted.push((head, fact)),
                &mut self.stats.join_work,
            );
        }
        let mut batch: HashMap<PredId, Vec<Vec<u32>>> = HashMap::new();
        for (p, fact) in emitted {
            if self.idb.entry(p).or_default().insert(fact.clone()) {
                batch.entry(p).or_default().push(fact);
            }
        }
        self.saturate_stratum(si, batch, None);
    }

    /// Semi-naive iteration within stratum `si` from the given delta
    /// batches: each round joins one batch position against the current
    /// (live) state of everything else, inserting newly derived facts.
    /// With `restrict` set, only facts in that per-predicate allowance
    /// are inserted (the DRed re-derivation filter); newly inserted
    /// facts are also recorded into `record` when provided by the
    /// caller via `saturate_recording`.
    fn saturate_stratum(
        &mut self,
        si: usize,
        mut batch: HashMap<PredId, Vec<Vec<u32>>>,
        mut record: Option<&mut HashMap<PredId, HashSet<Vec<u32>>>>,
    ) {
        while !batch.is_empty() {
            let mut emitted: Vec<(PredId, Vec<u32>)> = Vec::new();
            {
                let stratum = &self.strata[si];
                let (edb, idb) = (&self.edb, &self.idb);
                let join_work = &mut self.stats.join_work;
                for &ri in &stratum.rules {
                    let rule = &self.program.rules[ri];
                    for pos in 0..rule.body.len() {
                        let Some(b) = batch.get(&rule.body[pos].pred) else {
                            continue;
                        };
                        let sources: Vec<AtomSource> = rule
                            .body
                            .iter()
                            .enumerate()
                            .map(|(j, a)| {
                                if j == pos {
                                    AtomSource::Slice(&b[..])
                                } else {
                                    AtomSource::Set(full_set(edb, idb, a.pred))
                                }
                            })
                            .collect();
                        let head = rule.head.pred;
                        derive(
                            rule,
                            &sources,
                            self.universe,
                            &mut |fact| emitted.push((head, fact)),
                            join_work,
                        );
                    }
                }
            }
            batch.clear();
            for (p, fact) in emitted {
                if self.idb.entry(p).or_default().insert(fact.clone()) {
                    if let Some(rec) = record.as_deref_mut() {
                        rec.entry(p).or_default().insert(fact.clone());
                    }
                    batch.entry(p).or_default().push(fact);
                }
            }
        }
    }

    /// Absorbs `delta`, whose post-state is `input2` (used for the
    /// fallback path and consistency checks). Returns the goal verdict
    /// on the new state.
    pub fn apply_delta(&mut self, input2: &Structure, delta: &StructureDelta) -> bool {
        if delta.grows_universe() || input2.universe() as u32 != self.universe {
            self.stats.full_recomputes += 1;
            self.recompute(input2);
            return self.goal_derived();
        }
        // Map structure-level facts to program EDB predicates; facts on
        // relations the program does not read (or reads at a different
        // arity, mirroring `edb_store`) cannot change the fixpoint.
        let mut removed_edb: HashMap<PredId, Vec<Vec<u32>>> = HashMap::new();
        let mut added_edb: HashMap<PredId, Vec<Vec<u32>>> = HashMap::new();
        for (r, tuple) in delta.retracted() {
            if let Some(p) = self.edb_pred_for(input2, *r) {
                removed_edb
                    .entry(p)
                    .or_default()
                    .push(tuple.iter().map(|e| e.0).collect());
            }
        }
        for (r, tuple) in delta.added() {
            if let Some(p) = self.edb_pred_for(input2, *r) {
                added_edb
                    .entry(p)
                    .or_default()
                    .push(tuple.iter().map(|e| e.0).collect());
            }
        }
        self.stats.incremental_updates += 1;
        self.sweep(removed_edb, true);
        self.sweep(added_edb, false);
        self.goal_derived()
    }

    /// The EDB predicate a structure relation binds to, if any — the
    /// inverse of [`edb_store`]'s name-and-arity binding.
    fn edb_pred_for(&self, input: &Structure, r: cqcs_structures::RelId) -> Option<PredId> {
        let name = input.vocabulary().name(r);
        let arity = input.vocabulary().arity(r);
        self.program
            .edb_preds()
            .find(|&p| self.program.pred_name(p) == name && self.program.pred_arity(p) == arity)
    }

    /// One single-signed sweep over the strata: applies the EDB-level
    /// delta, then propagates per stratum by counting (non-recursive)
    /// or DRed / semi-naive continuation (recursive). `removing`
    /// selects the deletion or addition sweep.
    fn sweep(&mut self, edb_delta: HashMap<PredId, Vec<Vec<u32>>>, removing: bool) {
        // delta[p]: facts that actually changed state during this sweep.
        let mut delta: HashMap<PredId, HashSet<Vec<u32>>> = HashMap::new();
        for (p, facts) in edb_delta {
            let set = self.edb.entry(p).or_default();
            let changed = delta.entry(p).or_default();
            for f in facts {
                let flipped = if removing {
                    set.remove(&f)
                } else {
                    set.insert(f.clone())
                };
                if flipped {
                    changed.insert(f);
                }
            }
        }
        delta.retain(|_, d| !d.is_empty());
        if delta.is_empty() {
            return;
        }
        for si in 0..self.strata.len() {
            match (self.strata[si].recursive, removing) {
                (false, _) => self.count_stratum_delta(si, &mut delta, removing),
                (true, true) => self.dred_stratum(si, &mut delta),
                (true, false) => {
                    let batch: HashMap<PredId, Vec<Vec<u32>>> = delta
                        .iter()
                        .map(|(p, d)| (*p, d.iter().cloned().collect()))
                        .collect();
                    let mut record = HashMap::new();
                    self.saturate_stratum(si, batch, Some(&mut record));
                    for (p, facts) in record {
                        delta.entry(p).or_default().extend(facts);
                    }
                }
            }
        }
    }

    /// Counting maintenance for a non-recursive stratum: telescopes
    /// each rule body — position `i` takes the delta, earlier positions
    /// the new state, later positions the old (deletion) or
    /// pre-addition (addition) state — so each emission adjusts the
    /// head fact's derivation count by exactly its change in
    /// derivations. Facts whose count crosses zero flip state and join
    /// the sweep's delta.
    fn count_stratum_delta(
        &mut self,
        si: usize,
        delta: &mut HashMap<PredId, HashSet<Vec<u32>>>,
        removing: bool,
    ) {
        let stratum = &self.strata[si];
        let p = stratum.preds[0];
        // Old/mid views for every changed predicate: deletion sweeps
        // join later positions against `current ∪ removed`, addition
        // sweeps against `current ∖ added`.
        let mut patched: HashMap<PredId, HashSet<Vec<u32>>> = HashMap::new();
        for (q, d) in delta.iter() {
            let mut s = full_set(&self.edb, &self.idb, *q).clone();
            if removing {
                s.extend(d.iter().cloned());
            } else {
                for f in d {
                    s.remove(f);
                }
            }
            patched.insert(*q, s);
        }
        let (edb, idb) = (&self.edb, &self.idb);
        let pcounts = self.counts.entry(p).or_default();
        let join_work = &mut self.stats.join_work;
        for &ri in &stratum.rules {
            let rule = &self.program.rules[ri];
            for pos in 0..rule.body.len() {
                let Some(d) = delta.get(&rule.body[pos].pred) else {
                    continue;
                };
                let sources: Vec<AtomSource> = rule
                    .body
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if j == pos {
                            AtomSource::Set(d)
                        } else if j < pos {
                            AtomSource::Set(full_set(edb, idb, a.pred))
                        } else {
                            match patched.get(&a.pred) {
                                Some(s) => AtomSource::Set(s),
                                None => AtomSource::Set(full_set(edb, idb, a.pred)),
                            }
                        }
                    })
                    .collect();
                derive(
                    rule,
                    &sources,
                    self.universe,
                    &mut |fact| {
                        if removing {
                            let c = pcounts
                                .get_mut(&fact)
                                .expect("counting underflow: deleting an underived fact");
                            debug_assert!(*c > 0);
                            *c -= 1;
                        } else {
                            *pcounts.entry(fact).or_insert(0) += 1;
                        }
                    },
                    join_work,
                );
            }
        }
        // Reconcile flipped facts into the store and the sweep delta.
        let set = self.idb.entry(p).or_default();
        let changed = delta.entry(p).or_default();
        if removing {
            pcounts.retain(|fact, c| {
                if *c == 0 {
                    set.remove(fact);
                    changed.insert(fact.clone());
                    false
                } else {
                    true
                }
            });
        } else {
            for fact in pcounts.keys() {
                if set.insert(fact.clone()) {
                    changed.insert(fact.clone());
                }
            }
        }
        if changed.is_empty() {
            delta.remove(&p);
        }
    }

    /// DRed deletion maintenance for a recursive stratum:
    /// over-delete every fact with a derivation through a deleted
    /// fact (semi-naive, joined against the pre-deletion state), then
    /// re-derive the survivors from the post-deletion state. The net
    /// removals join the sweep's delta for higher strata.
    fn dred_stratum(&mut self, si: usize, delta: &mut HashMap<PredId, HashSet<Vec<u32>>>) {
        // Pre-deletion views of the already-updated lower strata.
        let mut old_lower: HashMap<PredId, HashSet<Vec<u32>>> = HashMap::new();
        for (q, d) in delta.iter() {
            let mut s = full_set(&self.edb, &self.idb, *q).clone();
            s.extend(d.iter().cloned());
            old_lower.insert(*q, s);
        }
        // --- Over-delete ---
        let mut over: HashMap<PredId, HashSet<Vec<u32>>> = HashMap::new();
        let mut batch: HashMap<PredId, Vec<Vec<u32>>> = delta
            .iter()
            .map(|(p, d)| (*p, d.iter().cloned().collect()))
            .collect();
        while !batch.is_empty() {
            let mut emitted: Vec<(PredId, Vec<u32>)> = Vec::new();
            {
                let stratum = &self.strata[si];
                let (edb, idb) = (&self.edb, &self.idb);
                let join_work = &mut self.stats.join_work;
                for &ri in &stratum.rules {
                    let rule = &self.program.rules[ri];
                    for pos in 0..rule.body.len() {
                        let Some(b) = batch.get(&rule.body[pos].pred) else {
                            continue;
                        };
                        let sources: Vec<AtomSource> = rule
                            .body
                            .iter()
                            .enumerate()
                            .map(|(j, a)| {
                                if j == pos {
                                    AtomSource::Slice(&b[..])
                                } else {
                                    // Old state: patched lower strata;
                                    // this stratum's sets are untouched
                                    // until over-deletion completes.
                                    match old_lower.get(&a.pred) {
                                        Some(s) => AtomSource::Set(s),
                                        None => AtomSource::Set(full_set(edb, idb, a.pred)),
                                    }
                                }
                            })
                            .collect();
                        let head = rule.head.pred;
                        derive(
                            rule,
                            &sources,
                            self.universe,
                            &mut |fact| emitted.push((head, fact)),
                            join_work,
                        );
                    }
                }
            }
            batch.clear();
            for (p, fact) in emitted {
                if self.idb.get(&p).is_some_and(|s| s.contains(&fact))
                    && over.entry(p).or_default().insert(fact.clone())
                {
                    batch.entry(p).or_default().push(fact);
                }
            }
        }
        if over.values().all(|s| s.is_empty()) {
            return;
        }
        for (p, facts) in &over {
            if let Some(set) = self.idb.get_mut(p) {
                for f in facts {
                    set.remove(f);
                }
            }
        }
        // --- Re-derive --- round one joins every stratum rule over the
        // post-deletion state; only over-deleted facts may re-enter.
        let mut emitted: Vec<(PredId, Vec<u32>)> = Vec::new();
        {
            let stratum = &self.strata[si];
            let (edb, idb) = (&self.edb, &self.idb);
            let join_work = &mut self.stats.join_work;
            for &ri in &stratum.rules {
                let rule = &self.program.rules[ri];
                let sources: Vec<AtomSource> = rule
                    .body
                    .iter()
                    .map(|a| AtomSource::Set(full_set(edb, idb, a.pred)))
                    .collect();
                let head = rule.head.pred;
                derive(
                    rule,
                    &sources,
                    self.universe,
                    &mut |fact| emitted.push((head, fact)),
                    join_work,
                );
            }
        }
        let mut seed: HashMap<PredId, Vec<Vec<u32>>> = HashMap::new();
        for (p, fact) in emitted {
            if over.get(&p).is_some_and(|s| s.contains(&fact))
                && self.idb.entry(p).or_default().insert(fact.clone())
            {
                seed.entry(p).or_default().push(fact);
            }
        }
        // Saturate without the `over` restriction: every fact derivable
        // from re-inserted survivors is genuinely derivable. Facts not
        // in `over` are still present, so only survivors re-enter.
        self.saturate_stratum(si, seed, None);
        // Net removals (over-deleted, not re-derived) feed upper strata.
        for (p, facts) in over {
            let present = self.idb.get(&p);
            let changed = delta.entry(p).or_default();
            for f in facts {
                if !present.is_some_and(|s| s.contains(&f)) {
                    changed.insert(f);
                }
            }
        }
        delta.retain(|_, d| !d.is_empty());
    }

    /// Whether any fact of the goal predicate currently holds.
    pub fn goal_derived(&self) -> bool {
        self.idb
            .get(&self.program.goal)
            .is_some_and(|s| !s.is_empty())
    }

    /// The maintained IDB facts (compare with
    /// [`EvalResult::facts`](crate::eval::EvalResult::facts)).
    pub fn facts(&self) -> &FactStore {
        &self.idb
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Update-path counters.
    pub fn stats(&self) -> IncStats {
        self.stats
    }

    /// `(predicate count, recursive)` per stratum, in evaluation order
    /// (diagnostics and tests).
    pub fn strata_summary(&self) -> Vec<(usize, bool)> {
        self.strata
            .iter()
            .map(|s| (s.preds.len(), s.recursive))
            .collect()
    }
}

/// A registered goal check over a changing structure: feed
/// [`StructureDelta`]s, get notified exactly when the goal verdict
/// flips. The Datalog half of the delta-solve pipeline's watch surface
/// (the homomorphism half lives in `cqcs-core`).
#[derive(Debug)]
pub struct DatalogWatch {
    eval: IncrementalEval,
    current: Structure,
    verdict: bool,
}

impl DatalogWatch {
    /// Registers `program` over `input` and computes the initial
    /// verdict.
    pub fn new(program: &Program, input: &Structure) -> DatalogWatch {
        let eval = IncrementalEval::new(program, input);
        let verdict = eval.goal_derived();
        DatalogWatch {
            eval,
            current: input.clone(),
            verdict,
        }
    }

    /// Applies `delta` to the watched structure. Returns
    /// `Ok(Some(new_verdict))` exactly when the goal verdict flipped,
    /// `Ok(None)` when it held; errors (vocabulary mismatch, facts that
    /// do not match the current structure) leave the watch unchanged.
    pub fn apply(&mut self, delta: &StructureDelta) -> cqcs_structures::Result<Option<bool>> {
        let next = delta.apply(&self.current)?;
        let verdict = self.eval.apply_delta(&next, delta);
        self.current = next;
        Ok(if verdict != self.verdict {
            self.verdict = verdict;
            Some(verdict)
        } else {
            None
        })
    }

    /// The current goal verdict.
    pub fn goal_derived(&self) -> bool {
        self.verdict
    }

    /// The structure as of the last applied delta.
    pub fn current(&self) -> &Structure {
        &self.current
    }

    /// The underlying maintainer (facts, stats).
    pub fn eval(&self) -> &IncrementalEval {
        &self.eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ProgramBuilder;
    use crate::eval::eval_semi_naive;
    use cqcs_structures::{generators, StructureBuilder};

    /// One scripted update: (edges added, edges retracted).
    type EdgeScript<'a> = &'a [(&'a [(u32, u32)], &'a [(u32, u32)])];

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

    fn digraph(edges: &[(u32, u32)], n: usize) -> Structure {
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), n);
        for &(x, y) in edges {
            b.add_fact("E", &[x, y]).unwrap();
        }
        b.finish()
    }

    /// Per-predicate equality of the maintained facts against a
    /// from-scratch semi-naive run on `input`.
    fn assert_pinned(inc: &IncrementalEval, program: &Program, input: &Structure, what: &str) {
        let scratch = eval_semi_naive(program, input);
        assert_eq!(inc.goal_derived(), scratch.goal_derived, "{what}: goal");
        for p in (0..program.num_preds() as u32).map(PredId) {
            if !program.is_idb(p) {
                continue;
            }
            assert_eq!(
                inc.facts().get(&p).cloned().unwrap_or_default(),
                scratch.facts.get(&p).cloned().unwrap_or_default(),
                "{what}: pred {}",
                program.pred_name(p)
            );
        }
    }

    #[test]
    fn stratification_shape() {
        let program = tc_program();
        let input = digraph(&[(0, 1)], 2);
        let inc = IncrementalEval::new(&program, &input);
        // E is EDB (no stratum); P is self-recursive; Q is not.
        assert_eq!(inc.strata_summary(), vec![(1, true), (1, false)]);
    }

    #[test]
    fn incremental_matches_scratch_on_tc_stream() {
        let program = tc_program();
        let a0 = digraph(&[(0, 1), (1, 2), (4, 5)], 6);
        let mut inc = IncrementalEval::new(&program, &a0);
        assert_pinned(&inc, &program, &a0, "initial");
        // A mixed stream: grow a path, close a cycle, break it again,
        // touch a disconnected component.
        let script: EdgeScript = &[
            (&[(2, 3)], &[]),
            (&[(3, 0)], &[]),         // closes the 0-1-2-3 cycle
            (&[], &[(1, 2)]),         // breaks it
            (&[(5, 4)], &[(4, 5)]),   // rewires the far component
            (&[(1, 2), (2, 2)], &[]), // re-adds plus a self-loop
            (&[], &[(2, 2), (3, 0)]),
        ];
        let mut cur = a0;
        for (i, (adds, rems)) in script.iter().enumerate() {
            let mut d = StructureDelta::new(&cur);
            for &(x, y) in *rems {
                d.retract_fact("E", &[x, y]).unwrap();
            }
            for &(x, y) in *adds {
                d.add_fact("E", &[x, y]).unwrap();
            }
            let next = d.apply(&cur).unwrap();
            inc.apply_delta(&next, &d);
            assert_pinned(&inc, &program, &next, &format!("step {i}"));
            cur = next;
        }
        let stats = inc.stats();
        assert_eq!(stats.incremental_updates, script.len());
        assert_eq!(stats.full_recomputes, 0);
    }

    #[test]
    fn counting_tracks_multiple_derivations() {
        // T(X,Y) :- E(X,Z), E(Z,Y) — non-recursive; (0,2) has two
        // derivations (via 1 and via 3), so it must survive losing one.
        let mut b = ProgramBuilder::new();
        b.rule(
            ("T", &["X", "Y"]),
            &[("E", &["X", "Z"]), ("E", &["Z", "Y"])],
        );
        let program = b.finish("T");
        let a0 = digraph(&[(0, 1), (1, 2), (0, 3), (3, 2)], 4);
        let mut inc = IncrementalEval::new(&program, &a0);
        assert_eq!(inc.strata_summary(), vec![(1, false)]);
        let t = program.pred("T").unwrap();
        assert!(inc.facts()[&t].contains(&vec![0, 2]));

        let mut d = StructureDelta::new(&a0);
        d.retract_fact("E", &[1, 2]).unwrap();
        let a1 = d.apply(&a0).unwrap();
        inc.apply_delta(&a1, &d);
        assert!(inc.facts()[&t].contains(&vec![0, 2]), "one support left");
        assert_pinned(&inc, &program, &a1, "after first retraction");

        let mut d = StructureDelta::new(&a1);
        d.retract_fact("E", &[3, 2]).unwrap();
        let a2 = d.apply(&a1).unwrap();
        inc.apply_delta(&a2, &d);
        assert!(!inc.facts()[&t].contains(&vec![0, 2]), "no support left");
        assert_pinned(&inc, &program, &a2, "after second retraction");
        assert_eq!(inc.stats().full_recomputes, 0);
    }

    #[test]
    fn mutual_recursion_stream() {
        // A and B derive through each other: one SCC of size two.
        let mut b = ProgramBuilder::new();
        b.rule(("A", &["X", "Y"]), &[("E", &["X", "Y"])]);
        b.rule(
            ("A", &["X", "Y"]),
            &[("B", &["X", "Z"]), ("E", &["Z", "Y"])],
        );
        b.rule(
            ("B", &["X", "Y"]),
            &[("A", &["X", "Z"]), ("E", &["Z", "Y"])],
        );
        b.rule(("Q", &[]), &[("A", &["X", "X"])]);
        let program = b.finish("Q");
        let a0 = digraph(&[(0, 1), (1, 2), (2, 3)], 5);
        let mut inc = IncrementalEval::new(&program, &a0);
        assert_eq!(inc.strata_summary(), vec![(2, true), (1, false)]);
        assert_pinned(&inc, &program, &a0, "initial");
        let script: EdgeScript = &[
            (&[(3, 0)], &[]),
            (&[], &[(1, 2)]),
            (&[(1, 4), (4, 2)], &[]),
            (&[], &[(3, 0), (4, 2)]),
        ];
        let mut cur = a0;
        for (i, (adds, rems)) in script.iter().enumerate() {
            let mut d = StructureDelta::new(&cur);
            for &(x, y) in *rems {
                d.retract_fact("E", &[x, y]).unwrap();
            }
            for &(x, y) in *adds {
                d.add_fact("E", &[x, y]).unwrap();
            }
            let next = d.apply(&cur).unwrap();
            inc.apply_delta(&next, &d);
            assert_pinned(&inc, &program, &next, &format!("step {i}"));
            cur = next;
        }
    }

    #[test]
    fn universe_growth_falls_back_to_recompute() {
        let program = tc_program();
        let a0 = digraph(&[(0, 1), (1, 0)], 2);
        let mut inc = IncrementalEval::new(&program, &a0);
        let mut d = StructureDelta::new(&a0);
        d.grow_universe(2);
        d.add_fact("E", &[1, 2]).unwrap();
        let a1 = d.apply(&a0).unwrap();
        inc.apply_delta(&a1, &d);
        assert_pinned(&inc, &program, &a1, "after growth");
        let stats = inc.stats();
        assert_eq!(stats.full_recomputes, 1);
        assert_eq!(stats.incremental_updates, 0);
    }

    #[test]
    fn watch_notifies_exactly_on_goal_flips() {
        let program = tc_program();
        let a0 = digraph(&[(0, 1), (1, 2), (2, 3)], 4);
        let mut w = DatalogWatch::new(&program, &a0);
        assert!(!w.goal_derived(), "a path has no cycle");

        // Irrelevant edge: no flip.
        let mut d = StructureDelta::new(w.current());
        d.add_fact("E", &[0, 2]).unwrap();
        assert_eq!(w.apply(&d).unwrap(), None);

        // Close the cycle: flip to true.
        let mut d = StructureDelta::new(w.current());
        d.add_fact("E", &[3, 0]).unwrap();
        assert_eq!(w.apply(&d).unwrap(), Some(true));
        assert!(w.goal_derived());

        // Another edge while cyclic: no flip.
        let mut d = StructureDelta::new(w.current());
        d.add_fact("E", &[1, 3]).unwrap();
        assert_eq!(w.apply(&d).unwrap(), None);

        // Break every cycle: flip to false. (Removing 3→0 kills the
        // only edge back into 0..=2 from 3.)
        let mut d = StructureDelta::new(w.current());
        d.retract_fact("E", &[3, 0]).unwrap();
        assert_eq!(w.apply(&d).unwrap(), Some(false));
        assert!(!w.goal_derived());

        // A bad delta leaves the watch unchanged.
        let mut d = StructureDelta::new(w.current());
        d.retract_fact("E", &[3, 0]).unwrap();
        assert!(w.apply(&d).is_err());
        assert!(!w.goal_derived());
        assert_eq!(w.eval().stats().full_recomputes, 0);
    }

    #[test]
    fn random_streams_stay_pinned() {
        // Deterministic pseudo-random add/retract streams over a small
        // vertex set, pinned against from-scratch at every step.
        let program = tc_program();
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = 5usize;
            let mut cur = digraph(&[], n);
            let mut inc = IncrementalEval::new(&program, &cur);
            for step in 0..12 {
                let e = program
                    .pred("E")
                    .map(|_| cur.vocabulary().lookup("E").unwrap())
                    .unwrap();
                let mut d = StructureDelta::new(&cur);
                let mut touched: Vec<(u32, u32)> = Vec::new();
                for _ in 0..(1 + next() % 3) {
                    let x = (next() % n as u64) as u32;
                    let y = (next() % n as u64) as u32;
                    if touched.contains(&(x, y)) {
                        continue;
                    }
                    touched.push((x, y));
                    let present = cur
                        .relation(e)
                        .contains(&[cqcs_structures::Element(x), cqcs_structures::Element(y)]);
                    if present {
                        d.retract_fact("E", &[x, y]).unwrap();
                    } else {
                        d.add_fact("E", &[x, y]).unwrap();
                    }
                }
                let nextg = d.apply(&cur).unwrap();
                inc.apply_delta(&nextg, &d);
                assert_pinned(&inc, &program, &nextg, &format!("seed {seed} step {step}"));
                cur = nextg;
            }
            assert_eq!(inc.stats().full_recomputes, 0, "seed {seed}");
        }
    }
}
