//! Compiled propagation: template programs and the arena-resident
//! engine.
//!
//! This is the crate's one (hyper)arc-consistency engine: the
//! incremental filter behind MAC search in `cqcs-core`, the Auto
//! dispatcher's refutation prefilter (which a delta watch runs like any
//! other solve), and the one-shot
//! [`refine_domains`](crate::consistency::refine_domains). It
//! **compiles the template away**:
//!
//! * [`PropProgram`] owns the fixed template `B`'s flat
//!   [`SupportIndex`] — one `u64` slab holding every
//!   `(relation, position, value) → supporting-tuple` bitset at a
//!   computed offset, the position projections beside it — and adds
//!   only what the index lacks: per-relation arities and, when
//!   `|B| ≤ 64`, each binary relation's per-value neighbour words
//!   (forward rows `{b : (a, b) ∈ R}` and backward rows
//!   `{a : (a, b) ∈ R}`). The live-tuple kernels read `B`'s tuples
//!   straight from its flat relation arrays. A program is immutable,
//!   `Sync`, and shared via `Arc` by every worker solving against its
//!   template; the treewidth DP reads the same index through
//!   [`support`](PropProgram::support).
//! * [`ProgramPropagator`] executes a program over one
//!   [`PropArena`]: domains, domain sizes, the undo trail, the worklist
//!   ring and its membership bitset, and the revision scratch sets all
//!   live at fixed word offsets in a single contiguous allocation,
//!   reset in O(words) per instance ([`reset_for_instance`]). Every
//!   instance enters the same way, bind → establish; nothing but the
//!   arena's allocation outlives it.
//!
//! Compared with re-running the from-scratch refinement at every search
//! node, the engine revises an `A`-tuple without rescanning `R^B`: a
//! binary tuple `(x, y)` over `|B| ≤ 64` unions neighbour rows over the
//! other element's domain (at most `|dom(x)| + |dom(y)|` word ORs,
//! however many tuples `R^B` has), and any other tuple computes its
//! live witnesses by bitset unions and intersections over the support
//! slabs. It trails `(element, removed value)` deltas in
//! per-assignment frames, so `assign`/`undo` cost O(changed), and seeds
//! its worklist only with the tuples through changed elements. Domains
//! sit at the arc-consistency fixpoint of the current assignment prefix
//! (except transiently inside a failed `assign`, which the matching
//! `undo` repairs), so MRV reads live domain sizes in O(1).
//!
//! [`refine_domains_reference`](crate::consistency::refine_domains_reference)
//! is the executable specification: this module's unit tests and the
//! property suite pin the engine's verdicts to it everywhere, and its
//! fixpoint domains and deletion counts wherever the instance stays
//! consistent, after `establish` and after every `assign`/`undo`. What
//! it cannot see after a wipeout (the partially pruned domains and the
//! deletions counted on the way) reaches MAC's nodes, backtracks and
//! witnesses, which `cqcs-core`'s `search_pin` test pins.
//!
//! A program also records which values of `B` are **interchangeable**:
//! `u` and `v` share a class when swapping them, and fixing every other
//! value, maps every relation of `B` onto itself. Such transpositions
//! form an equivalence relation (`(u w) = (u v)(v w)(u v)`), so one
//! check of each value against each class's least member finds the
//! classes. Each check reads the binary relations' neighbour rows and
//! the unary relations' projections, so the classes are computed when
//! `2 ≤ |B| ≤ 64` and every relation has arity at most 2; every other
//! template, and any template without two interchangeable values, has
//! only singleton classes ([`PropProgram::value_classes`] is `None`).
//! `cqcs-core`'s search uses the classes to skip values that an earlier,
//! refuted sibling already stands for.
//!
//! [`reset_for_instance`]: ProgramPropagator::reset_for_instance

use cqcs_structures::arena::{
    all_zero, and_into, count_ones, fill_ones, for_each_set_bit, or_into, PropArena,
};
use cqcs_structures::{BitSet, Element, RelId, Structure, SupportIndex};
use std::sync::Arc;

/// Per-relation geometry of a compiled program: what the support index
/// does not record.
#[derive(Debug, Clone, Copy)]
struct RelMeta {
    arity: usize,
    /// Offset of this relation's neighbour rows in `neighbour_words`,
    /// present exactly when the relation is binary and `1 ≤ |B| ≤ 64`: the
    /// forward row `{b : (a, b) ∈ R}` of `a` sits at `rows_base + a`,
    /// the backward row `{a : (a, b) ∈ R}` of `b` at
    /// `rows_base + |B| + b`.
    rows_base: Option<usize>,
}

/// A template compiled for propagation — see the [module docs](self).
/// Built once per template and handed to every [`ProgramPropagator`]
/// via `Arc`.
#[derive(Debug)]
pub struct PropProgram {
    /// The template's support bitsets and position projections.
    support: SupportIndex,
    max_arity: usize,
    /// The widest support bitset of any relation, in words.
    max_tuple_words: usize,
    rels: Vec<RelMeta>,
    /// Every binary relation's forward and backward neighbour rows, one
    /// word per value, `2 * universe` words per relation (only when
    /// `1 ≤ universe ≤ 64`).
    neighbour_words: Vec<u64>,
    /// Each value's interchangeable class, named by its least member;
    /// empty when every class is a singleton.
    value_class: Vec<u32>,
}

impl PropProgram {
    /// Compiles `b`: builds its support index and, when `|B| ≤ 64`,
    /// each binary relation's neighbour rows and `B`'s interchangeable
    /// values.
    pub fn compile(b: &Structure) -> PropProgram {
        let support = SupportIndex::build(b);
        let universe = b.universe();
        let mut rels = Vec::with_capacity(b.vocabulary().len());
        let mut neighbour_words = Vec::new();
        for r in b.vocabulary().iter() {
            let rel = b.relation(r);
            let rows_base =
                (rel.arity() == 2 && universe.div_ceil(64) == 1).then_some(neighbour_words.len());
            if let Some(rows) = rows_base {
                neighbour_words.resize(rows + 2 * universe, 0);
                for w in rel.iter() {
                    let (x, y) = (w[0].index(), w[1].index());
                    neighbour_words[rows + x] |= 1u64 << y;
                    neighbour_words[rows + universe + y] |= 1u64 << x;
                }
            }
            rels.push(RelMeta {
                arity: rel.arity(),
                rows_base,
            });
        }
        let mut program = PropProgram {
            max_arity: b.vocabulary().max_arity(),
            max_tuple_words: b
                .vocabulary()
                .iter()
                .map(|r| support.tuple_words(r))
                .max()
                .unwrap_or(0),
            support,
            rels,
            neighbour_words,
            value_class: Vec::new(),
        };
        program.value_class = program.interchangeable_classes();
        program
    }

    /// Each value's interchangeable class as its least member, or an
    /// empty vector when every class is a singleton or the template is
    /// outside the check (`|B| < 2`, `|B| > 64`, or an arity above 2).
    fn interchangeable_classes(&self) -> Vec<u32> {
        let universe = self.universe();
        if !(2..=64).contains(&universe) || self.rels.iter().any(|m| m.arity > 2) {
            return Vec::new();
        }
        let mut class = Vec::with_capacity(universe);
        let mut leaders: Vec<usize> = Vec::new();
        for v in 0..universe {
            match leaders.iter().find(|&&u| self.swap_is_automorphism(u, v)) {
                Some(&u) => class.push(u as u32),
                None => {
                    leaders.push(v);
                    class.push(v as u32);
                }
            }
        }
        if leaders.len() == universe {
            Vec::new()
        } else {
            class
        }
    }

    /// Whether swapping values `u` and `v` maps every relation onto
    /// itself, for a template of at most 64 values and arity at most 2.
    /// A unary relation needs `u` and `v` both in it or both out. A
    /// binary relation needs every other value to relate to `u` as it
    /// relates to `v` (their backward rows agree off `{u, v}`), and `v`'s
    /// forward row to be `u`'s with bits `u` and `v` swapped.
    fn swap_is_automorphism(&self, u: usize, v: usize) -> bool {
        let universe = self.universe();
        let pair = (1u64 << u) | (1u64 << v);
        let swapped = |w: u64| {
            let differ = ((w >> u) ^ (w >> v)) & 1;
            w ^ (differ * pair)
        };
        self.rels
            .iter()
            .enumerate()
            .all(|(i, meta)| match meta.arity {
                0 => true,
                1 => {
                    let members = self.support.projection_word(RelId::from_index(i), 0);
                    ((members >> u) ^ (members >> v)) & 1 == 0
                }
                _ => {
                    let rows = meta
                        .rows_base
                        .expect("binary relations over at most 64 values have rows");
                    let forward = &self.neighbour_words[rows..rows + universe];
                    let backward = &self.neighbour_words[rows + universe..rows + 2 * universe];
                    (backward[u] ^ backward[v]) & !pair == 0 && forward[v] == swapped(forward[u])
                }
            })
    }

    /// `B`'s interchangeable values: each value's class, named by its
    /// least member, where `u` and `v` share a class exactly when
    /// swapping them maps every relation of `B` onto itself. `None` when
    /// every class is a singleton, which includes every template with
    /// more than 64 values or a relation of arity above 2 (see the
    /// [module docs](self)).
    pub fn value_classes(&self) -> Option<&[u32]> {
        (!self.value_class.is_empty()).then_some(self.value_class.as_slice())
    }

    /// Universe size of the template this program was compiled for.
    #[inline]
    pub fn universe(&self) -> usize {
        self.support.universe()
    }

    /// The template's support index, which the treewidth DP's tuple
    /// checks read too.
    pub fn support(&self) -> &SupportIndex {
        &self.support
    }

    /// Whether this program was compiled for a template with `b`'s
    /// shape (universe, relation count, arities, tuple counts) — the
    /// cheap validity check engine constructors run.
    pub fn matches(&self, b: &Structure) -> bool {
        self.universe() == b.universe()
            && self.rels.len() == b.vocabulary().len()
            && b.vocabulary().iter().all(|r| {
                let rel = b.relation(r);
                self.rels[r.index()].arity == rel.arity()
                    && self.support.tuple_count(r) == rel.len()
            })
    }

    /// The union of the neighbour rows at `base + v` over `v ∈ set`.
    #[inline]
    fn row_union(&self, base: usize, set: u64) -> u64 {
        let rows = &self.neighbour_words[base..base + self.universe()];
        let mut acc = 0u64;
        let mut bits = set;
        while bits != 0 {
            acc |= rows[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        acc
    }
}

/// Word offsets of every region carved from the arena, recomputed per
/// instance bind (they depend on `|A|` and `A`'s tuple count).
#[derive(Debug, Clone, Copy, Default)]
struct Layout {
    /// `|A|`.
    n: usize,
    /// `|B|` (the logical capacity of each domain).
    d: usize,
    /// `d.div_ceil(64)` — words per domain / supported set.
    wb: usize,
    /// Domains: `n * wb` words at offset 0.
    domains: usize,
    /// Supported sets: `max_arity * wb` words.
    supported: usize,
    /// Live-witness scratch: `max_tuple_words` words.
    live: usize,
    /// Witness-union accumulator: `max_tuple_words` words.
    acc: usize,
    /// Domain sizes: `n` words (one size per word).
    sizes: usize,
    /// Undo trail: `n * d` words, each packed `(element << 32) | value`.
    trail: usize,
    /// Worklist ring: `queue_cap` words of global `A`-tuple ids.
    queue: usize,
    /// Worklist membership bitset: `queue_cap.div_ceil(64)` words.
    queued: usize,
    /// Total arena words.
    total: usize,
    /// Total `A`-tuples — ring capacity (the queued bitset dedups, so
    /// the ring never holds more).
    queue_cap: usize,
}

/// The compiled engine: executes a shared [`PropProgram`] over one
/// owned [`PropArena`]. See the [module docs](self).
#[derive(Debug)]
pub struct ProgramPropagator<'s> {
    a: &'s Structure,
    b: &'s Structure,
    program: Arc<PropProgram>,
    arena: PropArena,
    layout: Layout,
    /// Global-tuple-id base per relation (prefix sums of `A`'s
    /// relation-major tuple counts), plus a total sentinel.
    a_bases: Vec<u32>,
    /// Trail marks at each open assign frame.
    frames: Vec<usize>,
    trail_len: usize,
    deletions: usize,
    queue_head: usize,
    queue_len: usize,
    established: bool,
    /// Set by [`restrict_domains`](ProgramPropagator::restrict_domains),
    /// cleared by every bind.
    restricted: bool,
}

impl<'s> ProgramPropagator<'s> {
    /// Creates an engine with full domains on a fresh arena.
    ///
    /// # Panics
    /// Panics if the structures are over different vocabularies or the
    /// program was not compiled for `b`.
    pub fn new(a: &'s Structure, b: &'s Structure, program: Arc<PropProgram>) -> Self {
        Self::with_arena(a, b, program, PropArena::new())
    }

    /// [`ProgramPropagator::new`] on a recycled arena (e.g. taken from
    /// a retired engine via [`into_arena`](ProgramPropagator::into_arena)),
    /// so a worker switching templates keeps its allocation.
    ///
    /// # Panics
    /// Panics if the structures are over different vocabularies or the
    /// program was not compiled for `b`.
    pub fn with_arena(
        a: &'s Structure,
        b: &'s Structure,
        program: Arc<PropProgram>,
        arena: PropArena,
    ) -> Self {
        assert!(
            a.same_vocabulary(b),
            "arc consistency across different vocabularies"
        );
        assert!(program.matches(b), "program does not match the template");
        let mut p = ProgramPropagator {
            a,
            b,
            program,
            arena,
            layout: Layout::default(),
            a_bases: Vec::new(),
            frames: Vec::new(),
            trail_len: 0,
            deletions: 0,
            queue_head: 0,
            queue_len: 0,
            established: false,
            restricted: false,
        };
        p.bind(a);
        p
    }

    /// Rebinds the engine to a new left structure against the same
    /// compiled template, reusing the arena allocation, so batch loops
    /// keep a flat per-instance allocation profile. After the call the
    /// engine is observably identical to a freshly constructed one: full
    /// domains (not restricted), empty trail, zero deletions, not yet
    /// established.
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    pub fn reset_for_instance(&mut self, a: &'s Structure) {
        self.bind(a);
        self.a = a;
        self.frames.clear();
        self.trail_len = 0;
        self.deletions = 0;
        self.queue_head = 0;
        self.queue_len = 0;
        self.established = false;
    }

    /// Fills `a_bases` with the prefix sums of `a`'s relation-major
    /// tuple counts plus the total sentinel (the worklist's capacity),
    /// computes the instance layout and initialises the arena regions
    /// that start non-zero (full domains, domain sizes), clearing the
    /// restriction mark. Everything else (trail, ring, scratch) is
    /// written before it is read; the queued bitset starts all-zero from
    /// [`PropArena::reset_zeroed`]. O(arena words).
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template,
    /// before any state changes.
    fn bind(&mut self, a: &'s Structure) {
        assert!(
            a.same_vocabulary(self.b),
            "arc consistency across different vocabularies"
        );
        self.a_bases.clear();
        let mut total = 0u32;
        for r in a.vocabulary().iter() {
            self.a_bases.push(total);
            total += a.relation(r).len() as u32;
        }
        self.a_bases.push(total);
        let queue_cap = total as usize;
        let prog = &self.program;
        let n = a.universe();
        let d = prog.universe();
        let wb = d.div_ceil(64);
        let max_tw = prog.max_tuple_words;

        let domains = 0;
        let supported = domains + n * wb;
        let live = supported + prog.max_arity * wb;
        let acc = live + max_tw;
        let sizes = acc + max_tw;
        let trail = sizes + n;
        let queue = trail + n * d;
        let queued = queue + queue_cap;
        let total = queued + queue_cap.div_ceil(64);
        self.layout = Layout {
            n,
            d,
            wb,
            domains,
            supported,
            live,
            acc,
            sizes,
            trail,
            queue,
            queued,
            total,
            queue_cap,
        };

        self.arena.reset_zeroed(total);
        let words = self.arena.words_mut();
        for e in 0..n {
            fill_ones(&mut words[domains + e * wb..domains + (e + 1) * wb], d);
        }
        words[sizes..sizes + n].fill(d as u64);
        self.restricted = false;
    }

    /// The shared program this engine executes.
    pub fn program(&self) -> &Arc<PropProgram> {
        &self.program
    }

    /// Consumes the engine, yielding its arena for reuse.
    pub fn into_arena(self) -> PropArena {
        self.arena
    }

    /// The instance's left structure.
    pub fn left(&self) -> &'s Structure {
        self.a
    }

    /// The instance's right (template) structure.
    pub fn right(&self) -> &'s Structure {
        self.b
    }

    /// The `|A|`-long domain-size region, one word per element.
    #[inline]
    fn sizes(&self) -> &[u64] {
        let l = self.layout;
        &self.arena.words()[l.sizes..l.sizes + l.n]
    }

    /// The `wb` words of `dom(e)`.
    ///
    /// # Panics
    /// Panics if `e` is outside `A`, rather than reading a neighbouring
    /// region of the arena. The check is explicit because with `|B| = 0`
    /// a domain is zero words wide and slicing alone would not fail.
    #[inline]
    fn domain_words(&self, e: Element) -> &[u64] {
        let l = self.layout;
        assert!(e.index() < l.n, "{e:?} is outside A (|A| = {})", l.n);
        &self.arena.words()[l.domains + e.index() * l.wb..][..l.wb]
    }

    /// Current domain size of an element, O(1).
    ///
    /// # Panics
    /// Panics if `e` is outside `A`.
    #[inline]
    pub fn domain_size(&self, e: Element) -> usize {
        self.sizes()[e.index()] as usize
    }

    /// Whether `v` is currently in `dom(e)`.
    ///
    /// # Panics
    /// Panics if `e` is outside `A`.
    #[inline]
    pub fn domain_contains(&self, e: Element, v: usize) -> bool {
        let dom = self.domain_words(e);
        v < self.layout.d && dom[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Replaces `out` with the current domain of `e`, ascending — the
    /// search's per-node candidate snapshot, into a pooled buffer.
    ///
    /// # Panics
    /// Panics if `e` is outside `A`.
    pub fn domain_values_into(&self, e: Element, out: &mut Vec<usize>) {
        out.clear();
        for_each_set_bit(self.domain_words(e), |v| out.push(v));
    }

    /// Materialises `dom(e)` as a [`BitSet`] (diagnostics and parity
    /// tests; the hot paths never construct sets).
    ///
    /// # Panics
    /// Panics if `e` is outside `A`.
    pub fn domain_bitset(&self, e: Element) -> BitSet {
        let mut s = BitSet::new(self.layout.d);
        for_each_set_bit(self.domain_words(e), |v| {
            s.insert(v);
        });
        s
    }

    /// Narrows the bound domains before propagation starts: each
    /// `dom(e)` becomes `dom(e) ∩ domains[e]`, untrailed and uncounted,
    /// so [`establish`](ProgramPropagator::establish) refines from a
    /// caller-given start (the one-shot
    /// [`refine_domains`](crate::consistency::refine_domains)). Values
    /// at or past `|B|` are ignored. The engine stays
    /// [restricted](ProgramPropagator::domains_restricted) until it is
    /// next bound.
    ///
    /// # Panics
    /// Panics if the engine is already established, or if `domains`
    /// does not hold exactly one set per element of `A`.
    pub fn restrict_domains(&mut self, domains: &[BitSet]) {
        assert!(!self.established, "restrict_domains after establish");
        let l = self.layout;
        assert_eq!(
            domains.len(),
            l.n,
            "restrict_domains needs one set per element of A"
        );
        let words = self.arena.words_mut();
        for (e, set) in domains.iter().enumerate() {
            let dom = &mut words[l.domains + e * l.wb..][..l.wb];
            for (wi, dw) in dom.iter_mut().enumerate() {
                *dw &= set.words().get(wi).copied().unwrap_or(0);
            }
            let size = count_ones(dom);
            words[l.sizes + e] = size as u64;
        }
        self.restricted = true;
    }

    /// Whether [`restrict_domains`](ProgramPropagator::restrict_domains)
    /// narrowed the domains since the engine was last bound. Full root
    /// domains, and their arc-consistent fixpoint, are mapped onto
    /// themselves by every automorphism of `B`; caller-chosen ones need
    /// not be, so the search treats no values as interchangeable on a
    /// restricted engine.
    pub fn domains_restricted(&self) -> bool {
        self.restricted
    }

    /// All current domains, materialised (parity tests).
    pub fn domains_vec(&self) -> Vec<BitSet> {
        (0..self.layout.n)
            .map(|e| self.domain_bitset(Element::new(e)))
            .collect()
    }

    /// Total `(element, value)` deletions performed so far (monotone;
    /// not decremented by [`undo`](ProgramPropagator::undo)).
    pub fn deletions(&self) -> usize {
        self.deletions
    }

    /// Number of open assignment frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether every domain is nonempty.
    pub fn is_consistent(&self) -> bool {
        self.sizes().iter().all(|&s| s > 0)
    }

    /// Runs propagation to the arc-consistency fixpoint from the current
    /// domains, seeding the worklist with every tuple of `A`
    /// relation-major. Returns whether every domain is still nonempty.
    /// Idempotent: repeated calls after the first are O(1).
    pub fn establish(&mut self) -> bool {
        if self.established {
            return self.is_consistent();
        }
        self.established = true;
        // 0-ary relations: a missing fact in B is a global wipeout.
        for r in self.a.vocabulary().iter() {
            if self.a.vocabulary().arity(r) == 0
                && !self.a.relation(r).is_empty()
                && self.b.relation(r).is_empty()
            {
                let l = self.layout;
                let words = self.arena.words_mut();
                for e in 0..l.n {
                    let dom = l.domains + e * l.wb;
                    for wi in 0..l.wb {
                        let mut bits = words[dom + wi];
                        while bits != 0 {
                            let v = wi * 64 + bits.trailing_zeros() as usize;
                            words[l.trail + self.trail_len] = ((e as u64) << 32) | v as u64;
                            self.trail_len += 1;
                            bits &= bits - 1;
                        }
                        words[dom + wi] = 0;
                    }
                    self.deletions += words[l.sizes + e] as usize;
                    words[l.sizes + e] = 0;
                }
                return self.is_consistent();
            }
        }
        for r in self.a.vocabulary().iter() {
            if self.a.vocabulary().arity(r) == 0 {
                continue;
            }
            let base = self.a_bases[r.index()] as usize;
            for t in 0..self.a.relation(r).len() {
                self.push_queued(base + t);
            }
        }
        self.run_queue() && self.is_consistent()
    }

    /// Tentatively assigns `x := v`: opens a trail frame, narrows
    /// `dom(x)` to `{v}` (removals trailed in ascending value order),
    /// and propagates from the tuples through `x` only. Returns `false`
    /// on wipeout; either way the matching
    /// [`undo`](ProgramPropagator::undo) restores the pre-assignment
    /// domains exactly.
    ///
    /// # Panics
    /// Panics if [`establish`](ProgramPropagator::establish) has not
    /// run, if `x` is outside `A`, or if `v` is not in `dom(x)` —
    /// assigning a pruned value would corrupt the size cache, so the
    /// checks stay in release builds.
    pub fn assign(&mut self, x: Element, v: usize) -> bool {
        assert!(self.established, "assign before establish");
        assert!(
            self.domain_contains(x, v),
            "assigning pruned value {v} to {x:?}"
        );
        self.frames.push(self.trail_len);
        let l = self.layout;
        let xi = x.index();
        if self.arena.words()[l.sizes + xi] > 1 {
            let words = self.arena.words_mut();
            let dom = l.domains + xi * l.wb;
            let mut removed = 0usize;
            for wi in 0..l.wb {
                let keep = if wi == v / 64 { 1u64 << (v % 64) } else { 0 };
                let mut bits = words[dom + wi] & !keep;
                words[dom + wi] &= keep;
                while bits != 0 {
                    let u = wi * 64 + bits.trailing_zeros() as usize;
                    words[l.trail + self.trail_len] = ((xi as u64) << 32) | u as u64;
                    self.trail_len += 1;
                    removed += 1;
                    bits &= bits - 1;
                }
            }
            self.deletions += removed;
            words[l.sizes + xi] = 1;
            self.enqueue_occurrences(x);
        }
        self.run_queue()
    }

    /// Rolls back the most recent [`assign`](ProgramPropagator::assign),
    /// restoring every domain it narrowed.
    ///
    /// # Panics
    /// Panics if there is no open frame.
    pub fn undo(&mut self) {
        let mark = self.frames.pop().expect("undo without a matching assign");
        let l = self.layout;
        let words = self.arena.words_mut();
        while self.trail_len > mark {
            self.trail_len -= 1;
            let packed = words[l.trail + self.trail_len];
            let e = (packed >> 32) as usize;
            let v = (packed & u64::from(u32::MAX)) as usize;
            let dom = l.domains + e * l.wb + v / 64;
            let bit = 1u64 << (v % 64);
            if words[dom] & bit == 0 {
                words[dom] |= bit;
                words[l.sizes + e] += 1;
            }
        }
    }

    /// Appends `gid` to the ring and marks it queued (caller checks
    /// membership first where needed; `establish`'s seed is
    /// duplicate-free by construction).
    #[inline]
    fn push_queued(&mut self, gid: usize) {
        let l = self.layout;
        let words = self.arena.words_mut();
        words[l.queued + gid / 64] |= 1u64 << (gid % 64);
        let mut tail = self.queue_head + self.queue_len;
        if tail >= l.queue_cap {
            tail -= l.queue_cap;
        }
        words[l.queue + tail] = gid as u64;
        self.queue_len += 1;
    }

    /// Enqueues every `A`-tuple through `e` not already queued, in
    /// occurrence-list order.
    fn enqueue_occurrences(&mut self, e: Element) {
        let l = self.layout;
        let a = self.a;
        for &(r, t) in a.occurrences(e) {
            let gid = self.a_bases[r.index()] as usize + t as usize;
            let words = self.arena.words_mut();
            if words[l.queued + gid / 64] & (1u64 << (gid % 64)) == 0 {
                words[l.queued + gid / 64] |= 1u64 << (gid % 64);
                let mut tail = self.queue_head + self.queue_len;
                if tail >= l.queue_cap {
                    tail -= l.queue_cap;
                }
                words[l.queue + tail] = gid as u64;
                self.queue_len += 1;
            }
        }
    }

    /// Drains the worklist FIFO; on wipeout, clears it (the queued
    /// bitset is exactly the ring's membership, so one block zero
    /// clears every flag) and reports `false`.
    fn run_queue(&mut self) -> bool {
        while self.queue_len > 0 {
            let l = self.layout;
            let gid = {
                let words = self.arena.words_mut();
                let gid = words[l.queue + self.queue_head] as usize;
                self.queue_head += 1;
                if self.queue_head == l.queue_cap {
                    self.queue_head = 0;
                }
                self.queue_len -= 1;
                words[l.queued + gid / 64] &= !(1u64 << (gid % 64));
                gid
            };
            // Single-relation vocabularies (every graph workload) skip
            // the prefix-sum search: the sentinel is the only other base.
            let ri = if self.a_bases.len() == 2 {
                0
            } else {
                self.a_bases.partition_point(|&b| b as usize <= gid) - 1
            };
            let t = gid - self.a_bases[ri] as usize;
            if !self.revise(RelId::from_index(ri), t) {
                let words = self.arena.words_mut();
                words[l.queued..l.total].fill(0);
                self.queue_len = 0;
                self.queue_head = 0;
                return false;
            }
        }
        true
    }

    /// Revises one `A`-tuple against the template's program, word at a
    /// time: computes each position's supported set, then applies the
    /// per-position removals `dom & !supported`, trailed in ascending
    /// order, enqueueing the tuples through any element that shrank.
    /// Returns `false` if a domain emptied.
    ///
    /// The supported sets come from one of three kernels, chosen by
    /// the relation's arity and `|B|` alone:
    ///
    /// * a binary relation with `|B| ≤ 64` unions the program's
    ///   neighbour rows over the other position's domain
    ///   ([`revise_binary`](ProgramPropagator::revise_binary)), however
    ///   many tuples `R^B` has;
    /// * any other relation whose domains and support sets fit one
    ///   `u64` each walks its live `B`-tuples in registers
    ///   ([`revise_scalar`](ProgramPropagator::revise_scalar));
    /// * the rest AND multi-word support slabs
    ///   ([`revise_wide`](ProgramPropagator::revise_wide)).
    ///
    /// All three remove exactly the values without a live witness, so
    /// trail order and deletion counts do not depend on the kernel.
    #[inline]
    fn revise(&mut self, r: RelId, t: usize) -> bool {
        if let Some(rows) = self.program.rels[r.index()].rows_base {
            self.revise_binary(r, t, rows)
        } else if self.layout.wb == 1 && self.program.support.tuple_words(r) == 1 {
            self.revise_scalar(r, t)
        } else {
            self.revise_wide(r, t)
        }
    }

    /// [`revise`](ProgramPropagator::revise) for an `A`-tuple `(x, y)`
    /// of a binary relation over `|B| ≤ 64`: `x` keeps the values with a
    /// neighbour in `dom(y)`, the union of the backward rows over
    /// `dom(y)`, and `y` keeps the union of the forward rows over
    /// `dom(x)`. A union over a full domain is the cached position
    /// projection. Both read the domains on entry, as the live-tuple
    /// kernels do, so a loop `(x, x)` prunes exactly as they would.
    fn revise_binary(&mut self, r: RelId, t: usize, rows: usize) -> bool {
        let tuple = self.a.relation(r).tuple(t);
        let l = self.layout;
        let program: &PropProgram = &self.program;
        let words = self.arena.words_mut();
        let (x, y) = (tuple[0].index(), tuple[1].index());
        words[l.supported] = if words[l.sizes + y] == l.d as u64 {
            program.support.projection_word(r, 0)
        } else {
            program.row_union(rows + l.d, words[l.domains + y])
        };
        words[l.supported + 1] = if words[l.sizes + x] == l.d as u64 {
            program.support.projection_word(r, 1)
        } else {
            program.row_union(rows, words[l.domains + x])
        };
        self.prune_scalar(tuple)
    }

    /// [`revise`](ProgramPropagator::revise) for a non-binary relation
    /// when every bitset involved is a single word (`|B| ≤ 64` and
    /// `|R^B| ≤ 64`): the live witnesses and the supported sets they
    /// scatter to are computed in registers on `u64` scalars.
    fn revise_scalar(&mut self, r: RelId, t: usize) -> bool {
        let support = &self.program.support;
        let b_rel = self.b.relation(r);
        let tuple = self.a.relation(r).tuple(t);
        let arity = tuple.len();
        let l = self.layout;
        let words = self.arena.words_mut();

        if tuple
            .iter()
            .all(|&e| words[l.sizes + e.index()] == l.d as u64)
        {
            // Full domains: supported sets are the cached projections.
            for p in 0..arity {
                words[l.supported + p] = support.projection_word(r, p);
            }
        } else {
            // live = ∩_p ⋃_{v ∈ dom(e_p)} supports(r, p, v)
            let mut live = u64::MAX >> (64 - b_rel.len());
            for (p, &e) in tuple.iter().enumerate() {
                if live == 0 {
                    break;
                }
                let mut acc = 0u64;
                let mut bits = words[l.domains + e.index()];
                while bits != 0 {
                    acc |= support.support_word(r, p, bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
                live &= acc;
            }

            // supported[p] = {w[p] : w live}
            for p in 0..arity {
                words[l.supported + p] = 0;
            }
            let mut bits = live;
            while bits != 0 {
                let w = bits.trailing_zeros() as usize;
                for (p, bv) in b_rel.tuple(w).iter().enumerate() {
                    words[l.supported + p] |= 1u64 << bv.index();
                }
                bits &= bits - 1;
            }
        }
        self.prune_scalar(tuple)
    }

    /// The removal half of the single-word kernels: intersects each
    /// element's domain with its supported set (`supported[p]`, one
    /// word per position), trailing every removal so `undo` can restore
    /// it, and enqueues the tuples through each element that shrank.
    /// Returns `false` at the first domain that empties.
    // Forced inline: left as a call, it made a K3 establish about a
    // tenth slower than the loop it replaced inside `revise_scalar`.
    #[inline(always)]
    fn prune_scalar(&mut self, tuple: &[Element]) -> bool {
        let a = self.a;
        let l = self.layout;
        let words = self.arena.words_mut();
        for (p, &e) in tuple.iter().enumerate() {
            let ei = e.index();
            let sup = words[l.supported + p];
            let dw = words[l.domains + ei];
            let mut bits = dw & !sup;
            if bits == 0 {
                continue;
            }
            words[l.domains + ei] = dw & sup;
            let mut removed = 0usize;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                words[l.trail + self.trail_len] = ((ei as u64) << 32) | v as u64;
                self.trail_len += 1;
                removed += 1;
                bits &= bits - 1;
            }
            self.deletions += removed;
            words[l.sizes + ei] -= removed as u64;
            if words[l.sizes + ei] == 0 {
                return false;
            }
            for &(r2, t2) in a.occurrences(e) {
                let gid = self.a_bases[r2.index()] as usize + t2 as usize;
                if words[l.queued + gid / 64] & (1u64 << (gid % 64)) == 0 {
                    words[l.queued + gid / 64] |= 1u64 << (gid % 64);
                    let mut tail = self.queue_head + self.queue_len;
                    if tail >= l.queue_cap {
                        tail -= l.queue_cap;
                    }
                    words[l.queue + tail] = gid as u64;
                    self.queue_len += 1;
                }
            }
        }
        true
    }

    /// The general multi-word form of
    /// [`revise`](ProgramPropagator::revise).
    fn revise_wide(&mut self, r: RelId, t: usize) -> bool {
        let a = self.a;
        let support = &self.program.support;
        let b_rel = self.b.relation(r);
        let tuple = a.relation(r).tuple(t);
        let arity = tuple.len();
        let l = self.layout;
        let wb = l.wb;
        let tw = support.tuple_words(r);

        let words = self.arena.words_mut();
        let (domains, rest) = words.split_at_mut(l.supported);
        let (supported, rest) = rest.split_at_mut(l.live - l.supported);
        let (live, rest) = rest.split_at_mut(l.acc - l.live);
        let (acc, rest) = rest.split_at_mut(l.sizes - l.acc);
        let (sizes, rest) = rest.split_at_mut(l.trail - l.sizes);
        let (trail, rest) = rest.split_at_mut(l.queue - l.trail);
        let (queue, queued) = rest.split_at_mut(l.queued - l.queue);

        if tuple.iter().all(|&e| sizes[e.index()] == l.d as u64) {
            // Every domain is still full (the common case on the first
            // establish wave): every tuple of `R^B` is live, so the
            // supported sets are exactly the index's cached position
            // projections — one block copy each.
            for p in 0..arity {
                supported[p * wb..(p + 1) * wb].copy_from_slice(support.projection(r, p));
            }
        } else {
            // live = ∩_p ⋃_{v ∈ dom(e_p)} supports(r, p, v)
            let live = &mut live[..tw];
            fill_ones(live, b_rel.len());
            for (p, &e) in tuple.iter().enumerate() {
                if all_zero(live) {
                    break;
                }
                let acc = &mut acc[..tw];
                acc.fill(0);
                let dom = &domains[e.index() * wb..(e.index() + 1) * wb];
                for (wi, &dw) in dom.iter().enumerate() {
                    let mut bits = dw;
                    while bits != 0 {
                        let v = wi * 64 + bits.trailing_zeros() as usize;
                        or_into(acc, support.supports(r, p, v));
                        bits &= bits - 1;
                    }
                }
                and_into(live, acc);
            }

            // supported[p] = {w[p] : w live}
            supported[..arity * wb].fill(0);
            for (wi, &lw) in live.iter().enumerate() {
                let mut bits = lw;
                while bits != 0 {
                    let w = wi * 64 + bits.trailing_zeros() as usize;
                    for (p, bv) in b_rel.tuple(w).iter().enumerate() {
                        let bv = bv.index();
                        supported[p * wb + bv / 64] |= 1u64 << (bv % 64);
                    }
                    bits &= bits - 1;
                }
            }
        }

        // Intersect each element's domain with its supported set,
        // trailing every removal so `undo` can restore it.
        let mut ok = true;
        for (p, &e) in tuple.iter().enumerate() {
            let ei = e.index();
            let dom = &mut domains[ei * wb..(ei + 1) * wb];
            let sup = &supported[p * wb..(p + 1) * wb];
            let mut removed = 0usize;
            for (wi, (dw, &sw)) in dom.iter_mut().zip(sup).enumerate() {
                let mut bits = *dw & !sw;
                if bits == 0 {
                    continue;
                }
                *dw &= sw;
                while bits != 0 {
                    let v = wi * 64 + bits.trailing_zeros() as usize;
                    trail[self.trail_len] = ((ei as u64) << 32) | v as u64;
                    self.trail_len += 1;
                    removed += 1;
                    bits &= bits - 1;
                }
            }
            if removed == 0 {
                continue;
            }
            self.deletions += removed;
            sizes[ei] -= removed as u64;
            if sizes[ei] == 0 {
                ok = false;
                break;
            }
            for &(r2, t2) in a.occurrences(e) {
                let gid = self.a_bases[r2.index()] as usize + t2 as usize;
                if queued[gid / 64] & (1u64 << (gid % 64)) == 0 {
                    queued[gid / 64] |= 1u64 << (gid % 64);
                    let mut tail = self.queue_head + self.queue_len;
                    if tail >= l.queue_cap {
                        tail -= l.queue_cap;
                    }
                    queue[tail] = gid as u64;
                    self.queue_len += 1;
                }
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::refine_domains_reference;
    use cqcs_structures::generators;

    fn compile_for(b: &Structure) -> Arc<PropProgram> {
        Arc::new(PropProgram::compile(b))
    }

    /// Drives the engine through establish and a full sweep of single
    /// assigns with undo against the reference scan: the verdict always;
    /// the domains and deletion count whenever consistent (after an
    /// assign, those of the reference refinement of the narrowed
    /// domains); and an exact restore on every undo.
    fn assert_matches_reference(a: &Structure, b: &Structure, what: &str) {
        let mut p = ProgramPropagator::new(a, b, compile_for(b));
        let full = vec![BitSet::full(b.universe()); a.universe()];
        let reference = refine_domains_reference(a, b, full);
        let ok = p.establish();
        assert_eq!(ok, reference.consistent, "{what}: establish verdict");
        if !ok {
            return;
        }
        assert_eq!(p.domains_vec(), reference.domains, "{what}: fixpoint");
        assert_eq!(p.deletions(), reference.deletions, "{what}: deletions");
        let base = p.domains_vec();
        for x in a.elements() {
            for v in base[x.index()].iter() {
                let mut narrowed = base.clone();
                narrowed[x.index()].clear();
                narrowed[x.index()].insert(v);
                let reference = refine_domains_reference(a, b, narrowed);
                let before = p.deletions();
                let ok = p.assign(x, v);
                assert_eq!(ok, reference.consistent, "{what} {x:?}:={v}");
                if ok {
                    assert_eq!(p.domains_vec(), reference.domains, "{what} {x:?}:={v}");
                    assert_eq!(
                        p.deletions() - before,
                        base[x.index()].len() - 1 + reference.deletions,
                        "{what} {x:?}:={v} deletions"
                    );
                }
                p.undo();
                assert_eq!(p.domains_vec(), base, "{what} {x:?}:={v} undo");
            }
        }
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn establish_and_assign_match_reference_on_digraphs() {
        for seed in 0..30u64 {
            let a = generators::random_digraph(7, 0.3, seed);
            let b = generators::random_digraph(4, 0.3, seed + 500);
            assert_matches_reference(&a, &b, &format!("seed {seed}"));
        }
    }

    #[test]
    fn establish_and_assign_match_reference_on_mixed_arity() {
        for seed in 0..20u64 {
            let a = generators::random_structure(5, &[1, 2, 3], 8, seed);
            let b = generators::random_structure_over(a.vocabulary(), 3, 9, seed + 70);
            assert_matches_reference(&a, &b, &format!("mixed seed {seed}"));
        }
    }

    #[test]
    fn matches_reference_fixpoint() {
        for seed in 0..20u64 {
            let a = generators::random_digraph(6, 0.35, seed);
            let b = generators::random_digraph(4, 0.4, seed + 123);
            let program = compile_for(&b);
            let mut p = ProgramPropagator::new(&a, &b, program);
            let full = vec![BitSet::full(b.universe()); a.universe()];
            let reference = refine_domains_reference(&a, &b, full);
            assert_eq!(p.establish(), reference.consistent, "seed {seed}");
            if reference.consistent {
                assert_eq!(p.domains_vec(), reference.domains, "seed {seed}");
                assert_eq!(p.deletions(), reference.deletions, "seed {seed}");
            }
        }
    }

    #[test]
    fn nested_assign_undo_restores_exactly() {
        let a = generators::random_graph_nm(8, 14, 5);
        let b = generators::complete_graph(3);
        let program = compile_for(&b);
        let mut p = ProgramPropagator::new(&a, &b, program);
        assert!(p.establish());
        let snap0 = p.domains_vec();
        let v0 = p.domain_bitset(Element(0)).min().unwrap();
        assert!(p.assign(Element(0), v0));
        let snap1 = p.domains_vec();
        let v1 = p.domain_bitset(Element(1)).min().unwrap();
        let _ = p.assign(Element(1), v1);
        if let Some(v2) = p.domain_bitset(Element(2)).min() {
            let _ = p.assign(Element(2), v2);
            p.undo();
        }
        p.undo();
        assert_eq!(p.domains_vec(), snap1);
        p.undo();
        assert_eq!(p.domains_vec(), snap0);
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn wipeout_is_sound_and_undoable() {
        let c9 = generators::undirected_cycle(9);
        let k2 = generators::complete_graph(2);
        let program = compile_for(&k2);
        let mut p = ProgramPropagator::new(&c9, &k2, program);
        assert!(p.establish());
        let snap = p.domains_vec();
        for v in 0..2 {
            assert!(!p.assign(Element(0), v), "odd cycle pinned must wipe out");
            p.undo();
            assert_eq!(p.domains_vec(), snap);
        }
    }

    #[test]
    fn zero_ary_wipeout() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let voc = Vocabulary::from_symbols([("S", 0), ("E", 2)])
            .unwrap()
            .into_shared();
        let mut ab = StructureBuilder::new(Arc::clone(&voc), 2);
        ab.add_fact("S", &[]).unwrap();
        ab.add_fact("E", &[0, 1]).unwrap();
        let a = ab.finish();
        let b = StructureBuilder::new(Arc::clone(&voc), 2).finish();
        let program = compile_for(&b);
        let mut p = ProgramPropagator::new(&a, &b, program);
        assert!(!p.establish());
        assert_eq!(p.deletions(), 4, "both full domains cleared");
    }

    #[test]
    fn reset_for_instance_is_a_drop_in_for_a_fresh_engine() {
        let b = generators::complete_graph(3);
        let program = compile_for(&b);
        let instances: Vec<_> = (0..12u64)
            .map(|seed| {
                let n = 5 + (seed as usize % 5);
                generators::random_graph_nm(n, 2 * n - 3, seed)
            })
            .collect();
        let mut reused: Option<ProgramPropagator<'_>> = None;
        for a in &instances {
            match reused.as_mut() {
                None => reused = Some(ProgramPropagator::new(a, &b, Arc::clone(&program))),
                Some(p) => p.reset_for_instance(a),
            }
            let p = reused.as_mut().unwrap();
            let mut fresh = ProgramPropagator::new(a, &b, Arc::clone(&program));
            assert_eq!(p.domains_vec(), fresh.domains_vec(), "pre-establish");
            assert_eq!(p.deletions(), 0, "deletions reset");
            assert_eq!(p.depth(), 0, "no open frames");
            let ok = p.establish();
            assert_eq!(ok, fresh.establish());
            assert_eq!(p.domains_vec(), fresh.domains_vec(), "fixpoints");
            assert_eq!(p.deletions(), fresh.deletions(), "deletion counts");
            if ok {
                for x in a.elements() {
                    let Some(v) = p.domain_bitset(x).min() else {
                        continue;
                    };
                    assert_eq!(p.assign(x, v), fresh.assign(x, v), "{x:?}:={v}");
                    assert_eq!(p.domains_vec(), fresh.domains_vec(), "{x:?}:={v}");
                    p.undo();
                    fresh.undo();
                }
            }
        }
    }

    #[test]
    fn reset_for_instance_resizes_across_universes() {
        let b = generators::complete_graph(3);
        let program = compile_for(&b);
        let small = generators::random_graph_nm(3, 3, 1);
        let large = generators::random_graph_nm(9, 16, 2);
        let mut p = ProgramPropagator::new(&small, &b, Arc::clone(&program));
        assert!(p.establish());
        p.reset_for_instance(&large);
        assert_eq!(p.domains_vec().len(), large.universe());
        assert!(p.establish());
        let mut fresh = ProgramPropagator::new(&large, &b, Arc::clone(&program));
        fresh.establish();
        assert_eq!(p.domains_vec(), fresh.domains_vec());
        p.reset_for_instance(&small);
        assert_eq!(p.domains_vec().len(), small.universe());
        assert!(p.establish());
        let mut fresh = ProgramPropagator::new(&small, &b, program);
        fresh.establish();
        assert_eq!(p.domains_vec(), fresh.domains_vec());
    }

    #[test]
    #[should_panic(expected = "does not match the template")]
    fn mismatched_program_is_rejected() {
        let k3 = generators::complete_graph(3);
        let k4 = generators::complete_graph(4);
        let program = compile_for(&k4);
        let a = generators::random_graph_nm(4, 5, 0);
        let _ = ProgramPropagator::new(&a, &k3, program);
    }

    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn reset_for_instance_rejects_vocabulary_mismatch() {
        let b = generators::complete_graph(3);
        let a = generators::random_graph_nm(4, 5, 0);
        let mut p = ProgramPropagator::new(&a, &b, compile_for(&b));
        let other = generators::random_structure(3, &[3], 2, 0);
        p.reset_for_instance(&other);
    }

    #[test]
    fn elements_outside_a_panic() {
        // Every accessor, `assign` and `restrict_domains` must reject an
        // element past |A| instead of reading a neighbouring arena
        // region.
        let a = generators::random_graph_nm(4, 5, 0);
        let b = generators::complete_graph(3);
        let program = compile_for(&b);
        let outside = Element(4);
        type Probe = fn(&mut ProgramPropagator<'_>, Element);
        let probes: [(&str, Probe); 5] = [
            ("domain_size", |p, e| {
                p.domain_size(e);
            }),
            ("domain_contains", |p, e| {
                p.domain_contains(e, 0);
            }),
            ("domain_bitset", |p, e| {
                p.domain_bitset(e);
            }),
            ("domain_values_into", |p, e| {
                p.domain_values_into(e, &mut Vec::new());
            }),
            ("assign", |p, e| {
                p.assign(e, 0);
            }),
        ];
        for (what, probe) in probes {
            let mut p = ProgramPropagator::new(&a, &b, Arc::clone(&program));
            assert!(p.establish());
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(&mut p, outside)));
            assert!(caught.is_err(), "{what} accepted {outside:?}");
            assert_eq!(p.depth(), 0, "{what} opened a frame");
        }
        let mut p = ProgramPropagator::new(&a, &b, program);
        let one_too_many = vec![BitSet::full(3); a.universe() + 1];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.restrict_domains(&one_too_many)
        }));
        assert!(caught.is_err(), "restrict_domains accepted a set past |A|");
    }

    #[test]
    fn value_classes_are_the_transposition_automorphisms() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let classes = |b: &Structure| compile_for(b).value_classes().map(<[u32]>::to_vec);
        assert_eq!(classes(&generators::complete_graph(3)), Some(vec![0, 0, 0]));
        // K_{2,2}: the two sides.
        assert_eq!(
            classes(&generators::undirected_cycle(4)),
            Some(vec![0, 1, 0, 1])
        );
        // Rotations are automorphisms of a directed cycle, but no swap is.
        assert_eq!(classes(&generators::directed_cycle(4)), None);
        assert_eq!(classes(&generators::transitive_tournament(4)), None);
        // A unary relation splits K3; loops must match.
        let voc = Vocabulary::from_symbols([("E", 2), ("U", 1)])
            .unwrap()
            .into_shared();
        let mut kb = StructureBuilder::new(Arc::clone(&voc), 3);
        for (x, y) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            kb.add_fact("E", &[x, y]).unwrap();
        }
        kb.add_fact("U", &[0]).unwrap();
        assert_eq!(classes(&kb.finish()), Some(vec![0, 1, 1]));
        let mut looped = StructureBuilder::new(generators::digraph_vocabulary(), 3);
        for (x, y) in [(0, 0), (1, 1), (0, 2), (1, 2)] {
            looped.add_fact("E", &[x, y]).unwrap();
        }
        assert_eq!(classes(&looped.finish()), Some(vec![0, 0, 2]));
        let mut one_loop = StructureBuilder::new(generators::digraph_vocabulary(), 3);
        for (x, y) in [(0, 0), (0, 2), (1, 2)] {
            one_loop.add_fact("E", &[x, y]).unwrap();
        }
        assert_eq!(classes(&one_loop.finish()), None);
        // Outside the check: one value, more than 64, a ternary relation.
        assert_eq!(classes(&generators::complete_graph(1)), None);
        assert_eq!(classes(&generators::complete_graph(65)), None);
        assert_eq!(classes(&generators::complete_graph(64)), Some(vec![0; 64]));
        let ternary = generators::random_structure(3, &[3], 0, 0);
        assert_eq!(classes(&ternary), None);
    }

    #[test]
    fn large_template_crosses_word_boundaries() {
        // |B| = 70 forces two domain words; many B-tuples force
        // multi-word support sets.
        let a = generators::random_digraph(9, 0.4, 3);
        let b = generators::random_digraph(70, 0.05, 4);
        assert_matches_reference(&a, &b, "70-element template");
    }

    #[test]
    fn empty_template_universe() {
        let voc = generators::digraph_vocabulary();
        let b = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let a = generators::random_digraph(3, 0.5, 9);
        assert_matches_reference(&a, &b, "empty template universe");
    }
}
