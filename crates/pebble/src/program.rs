//! Compiled propagation: template programs and the arena-resident
//! engine.
//!
//! This is the crate's one (hyper)arc-consistency engine: the
//! incremental filter behind MAC search in `cqcs-core`, the Auto
//! dispatcher's refutation prefilter, delta watches, and the one-shot
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
//!   reset in O(words) per instance ([`reset_for_instance`]).
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
//! [`reset_for_instance`]: ProgramPropagator::reset_for_instance

use crate::binding::{plan_delta, DeltaPlan, EngineState};
use cqcs_structures::arena::{
    all_zero, and_into, count_ones, fill_ones, for_each_set_bit, or_into, PropArena,
};
use cqcs_structures::{BitSet, Element, RelId, Structure, StructureDelta, SupportIndex};
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
}

impl PropProgram {
    /// Compiles `b`: builds its support index and, when `|B| ≤ 64`,
    /// each binary relation's neighbour rows.
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
        PropProgram {
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
        }
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
        };
        p.bind(a);
        p
    }

    /// Rebinds the engine to a new left structure against the same
    /// compiled template, reusing the arena allocation, so batch loops
    /// keep a flat per-instance allocation profile. After the call the
    /// engine is observably identical to a freshly constructed one: full
    /// domains, empty trail, zero deletions, not yet established.
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

    /// The in-place half of
    /// [`resume_with_delta`](ProgramPropagator::resume_with_delta):
    /// when [`plan_delta`] admits repair, re-seeds the worklist with
    /// exactly the added tuples and re-runs propagation on the resident
    /// fixpoint. Sound because arc consistency is monotone under
    /// additions: every old tuple was already revised against domains
    /// at least as large, and any domain change re-enqueues its
    /// neighbourhood, so seeding only the additions reaches the exact
    /// gfp on `a2`. On any fallback — inadmissible delta, or a wipeout
    /// mid-repair (whose partial trail is order-dependent) — the engine
    /// is left freshly bound to `a2` and **not** established; the
    /// caller re-runs `establish`. Returns `true` only on a successful
    /// consistent repair.
    fn try_repair(
        &mut self,
        a2: &'s Structure,
        delta: &StructureDelta,
        bound_universe: usize,
        bound_tuples: usize,
    ) -> bool {
        let state = EngineState {
            established: self.established,
            consistent: self.is_consistent(),
            bound_universe,
            bound_tuples,
        };
        let seeds = match plan_delta(a2, self.b, delta, state) {
            DeltaPlan::Incremental { seeds } => seeds,
            DeltaPlan::Rebind { .. } => {
                self.reset_for_instance(a2);
                return false;
            }
        };
        self.a = a2;
        // |A| is unchanged (plan_delta rejects growth), so every region
        // up to and including the trail keeps its offset; only the
        // tuple-count-keyed tail (worklist ring + membership bitset)
        // re-dimensions. The queued flags are all-false at a fixpoint,
        // so zeroing the tail loses nothing.
        debug_assert_eq!(self.queue_len, 0, "fixpoint engines have empty worklists");
        debug_assert_eq!(a2.universe(), self.layout.n);
        let queue_cap = self.fill_a_bases(a2);
        let l = &mut self.layout;
        debug_assert_eq!(l.queue, l.trail + l.n * l.d);
        l.queue_cap = queue_cap;
        l.queued = l.queue + queue_cap;
        l.total = l.queued + queue_cap.div_ceil(64);
        let (queue_off, total) = (l.queue, l.total);
        self.arena.resize_tail_zeroed(queue_off, total);
        self.queue_head = 0;
        self.queue_len = 0;
        for (r, t) in seeds {
            let gid = self.a_bases[r.index()] as usize + t as usize;
            self.push_queued(gid);
        }
        if !self.run_queue() {
            // Wipeout mid-repair: the partial trail's order depends on
            // the seed order, not the relation-major establish order;
            // rebuild so the fallback establish reproduces the fresh
            // engine exactly.
            self.reset_for_instance(a2);
            return false;
        }
        // A fresh establish on `a2` trails A×B minus the fixpoint,
        // which is the old trail plus the repair's removals — the
        // counts agree, only the (unobservable) order differs.
        self.deletions = self.trail_len;
        debug_assert!(self.is_consistent());
        true
    }

    /// Computes the instance layout and initialises the arena regions
    /// that start non-zero (full domains, domain sizes). Everything
    /// else (trail, ring, scratch) is written before it is read; the
    /// queued bitset starts all-zero from
    /// [`PropArena::reset_zeroed`]. O(arena words).
    fn bind(&mut self, a: &'s Structure) {
        let queue_cap = self.fill_a_bases(a);
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
    }

    /// Fills `a_bases` with the prefix sums of `a`'s relation-major
    /// tuple counts plus the total sentinel, and returns the total — the
    /// worklist's capacity.
    ///
    /// # Panics
    /// Panics if `a` is over a different vocabulary than the template.
    fn fill_a_bases(&mut self, a: &Structure) -> usize {
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
        total as usize
    }

    /// The shared program this engine executes.
    pub fn program(&self) -> &Arc<PropProgram> {
        &self.program
    }

    /// Consumes the engine, yielding its arena for reuse.
    pub fn into_arena(self) -> PropArena {
        self.arena
    }

    /// Consumes the engine into a self-contained, borrow-free snapshot
    /// of its bound state — arena, layout, counters — so a watch
    /// session can park established state across deltas and re-borrow
    /// the structures per update via
    /// [`resume_with_delta`](ProgramPropagator::resume_with_delta).
    ///
    /// # Panics
    /// Panics if assignment frames are open (park only at depth 0).
    pub fn into_saved(self) -> SavedPropState {
        assert!(
            self.frames.is_empty(),
            "into_saved with open assignment frames"
        );
        SavedPropState {
            arena: self.arena,
            layout: self.layout,
            a_bases: self.a_bases,
            trail_len: self.trail_len,
            deletions: self.deletions,
            established: self.established,
            bound_universe: self.a.universe(),
            bound_tuples: self.a.total_tuples(),
        }
    }

    /// Rehydrates a parked [`SavedPropState`] against `a2` (described
    /// by `delta` relative to the structure the state was saved on) and
    /// immediately attempts the in-place repair. Whether the repair
    /// landed or fell back to a fresh bind, the returned engine behaves
    /// exactly like a fresh engine on `a2`: calling
    /// [`establish`](ProgramPropagator::establish) is the caller's next
    /// move, and it is instant (idempotent) when the repair succeeded.
    ///
    /// A snapshot whose geometry does not match `program` degrades to a
    /// plain [`with_arena`](ProgramPropagator::with_arena) construction
    /// recycling the allocation — always sound.
    ///
    /// # Panics
    /// Panics if the structures are over different vocabularies or the
    /// program was not compiled for `b`.
    pub fn resume_with_delta(
        a2: &'s Structure,
        b: &'s Structure,
        program: Arc<PropProgram>,
        saved: SavedPropState,
        delta: &StructureDelta,
    ) -> ProgramPropagator<'s> {
        assert!(
            a2.same_vocabulary(b),
            "arc consistency across different vocabularies"
        );
        assert!(program.matches(b), "program does not match the template");
        let compatible = saved.layout.d == program.universe()
            && saved.layout.n == saved.bound_universe
            && saved.arena.len() == saved.layout.total;
        if !compatible {
            return Self::with_arena(a2, b, program, saved.arena);
        }
        let mut p = ProgramPropagator {
            a: a2,
            b,
            program,
            arena: saved.arena,
            layout: saved.layout,
            a_bases: saved.a_bases,
            frames: Vec::new(),
            trail_len: saved.trail_len,
            deletions: saved.deletions,
            queue_head: 0,
            queue_len: 0,
            established: saved.established,
        };
        // On fallback try_repair leaves the engine freshly bound to
        // `a2`; either way the caller's next `establish` is correct.
        let _ = p.try_repair(a2, delta, saved.bound_universe, saved.bound_tuples);
        p
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
    /// at or past `|B|` are ignored.
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

    /// Whether [`establish`](ProgramPropagator::establish) has already
    /// run on the bound instance — `true` immediately after
    /// [`resume_with_delta`](ProgramPropagator::resume_with_delta)
    /// exactly when the in-place repair landed.
    pub fn is_established(&self) -> bool {
        self.established
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

/// A parked, borrow-free snapshot of a [`ProgramPropagator`]'s bound
/// state (arena + layout + counters), produced by
/// [`into_saved`](ProgramPropagator::into_saved) and rehydrated by
/// [`resume_with_delta`](ProgramPropagator::resume_with_delta). Watch
/// sessions own one per registered check, so compiled propagation
/// state stays arena-resident across a delta stream without
/// self-referential borrows.
#[derive(Debug)]
pub struct SavedPropState {
    arena: PropArena,
    layout: Layout,
    a_bases: Vec<u32>,
    trail_len: usize,
    deletions: usize,
    established: bool,
    bound_universe: usize,
    bound_tuples: usize,
}

impl SavedPropState {
    /// Discards the snapshot's bound state, yielding only the arena
    /// allocation for recycling into a fresh engine — for holders that
    /// let their snapshot go stale (e.g. a watch whose route stopped
    /// before propagation) but want to keep the allocation.
    pub fn into_arena(self) -> PropArena {
        self.arena
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

    fn digraph(edges: &[(u32, u32)], n: usize) -> Structure {
        use cqcs_structures::StructureBuilder;
        let mut b = StructureBuilder::new(generators::digraph_vocabulary(), n);
        for &(x, y) in edges {
            b.add_fact("E", &[x, y]).unwrap();
        }
        b.finish()
    }

    const CHAIN_EDGES: [(u32, u32); 16] = [
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
        (4, 6),
        (5, 7),
        (6, 0),
        (7, 1),
    ];

    fn additive_chain() -> Vec<Structure> {
        (0..=3)
            .map(|i| digraph(&CHAIN_EDGES[..10 + 2 * i], 8))
            .collect()
    }

    /// The one delta entry into the engine, as a watch session takes
    /// it: park `p` at depth 0, resume it on `a2` through `delta`, and
    /// establish. Returns the resumed engine and its verdict.
    fn park_and_resume<'s>(
        p: ProgramPropagator<'s>,
        a2: &'s Structure,
        delta: &StructureDelta,
    ) -> (ProgramPropagator<'s>, bool) {
        let (b, program) = (p.right(), Arc::clone(p.program()));
        let mut resumed =
            ProgramPropagator::resume_with_delta(a2, b, program, p.into_saved(), delta);
        let ok = resumed.establish();
        (resumed, ok)
    }

    #[test]
    fn saved_state_resumes_across_a_delta_stream() {
        // Park the engine's state between updates, rehydrate against
        // each post-delta structure, and pin the result against a fresh
        // engine at every step — verdict, fixpoint, deletions, depth 0
        // and the assign/undo walk — for both a prune-free and a
        // hard-pruning template.
        let templates = [generators::complete_graph(3), digraph(&[(0, 1), (1, 2)], 3)];
        let structures = additive_chain();
        for b in &templates {
            let program = compile_for(b);
            let mut p = ProgramPropagator::new(&structures[0], b, Arc::clone(&program));
            p.establish();
            for w in structures.windows(2) {
                let d = StructureDelta::between(&w[0], &w[1]).unwrap();
                assert!(d.additions_only() && d.added().len() == 2);
                let ok;
                (p, ok) = park_and_resume(p, &w[1], &d);
                let mut fresh = ProgramPropagator::new(&w[1], b, Arc::clone(&program));
                assert_eq!(ok, fresh.establish(), "verdict");
                assert_eq!(p.domains_vec(), fresh.domains_vec(), "fixpoint domains");
                assert_eq!(p.deletions(), fresh.deletions(), "deletion counts");
                assert_eq!(p.depth(), 0);
                if !ok {
                    continue;
                }
                for x in w[1].elements() {
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
    fn resume_with_delta_rebinds_on_universe_growth() {
        // The arena layout is keyed on |A|, so growth falls back to a
        // full rebind — still observably a fresh establish on `a2`.
        let b = generators::complete_graph(3);
        let program = compile_for(&b);
        let a = digraph(&CHAIN_EDGES[..10], 8);
        let mut d = StructureDelta::new(&a);
        d.grow_universe(2);
        d.add_fact("E", &[7, 8]).unwrap();
        d.add_fact("E", &[8, 9]).unwrap();
        let a2 = d.apply(&a).unwrap();
        let mut p = ProgramPropagator::new(&a, &b, Arc::clone(&program));
        assert!(p.establish());
        let (p, ok) = park_and_resume(p, &a2, &d);
        assert!(ok);
        let mut fresh = ProgramPropagator::new(&a2, &b, program);
        assert!(fresh.establish());
        assert_eq!(p.domains_vec(), fresh.domains_vec());
        assert_eq!(p.deletions(), fresh.deletions());
    }

    #[test]
    fn resume_with_delta_crossing_a_wipeout_matches_fresh() {
        let b = digraph(&[(0, 1)], 2);
        let program = compile_for(&b);
        let a = digraph(&[(0, 1), (2, 3), (4, 5), (6, 7)], 8);
        let mut d = StructureDelta::new(&a);
        d.add_fact("E", &[1, 2]).unwrap();
        let a2 = d.apply(&a).unwrap();
        let mut p = ProgramPropagator::new(&a, &b, Arc::clone(&program));
        assert!(p.establish());
        let (p, ok) = park_and_resume(p, &a2, &d);
        let mut fresh = ProgramPropagator::new(&a2, &b, program);
        assert_eq!(ok, fresh.establish());
        assert!(!ok, "path of length two is unsatisfiable here");
        assert_eq!(p.domains_vec(), fresh.domains_vec());
        assert_eq!(p.deletions(), fresh.deletions());
    }

    #[test]
    fn resume_with_retractions_falls_back_exactly() {
        let b = digraph(&[(0, 1), (1, 2)], 3);
        let program = compile_for(&b);
        let a = digraph(&CHAIN_EDGES[..12], 8);
        let mut d = StructureDelta::new(&a);
        d.retract_fact("E", &[0, 1]).unwrap();
        d.add_fact("E", &[1, 0]).unwrap();
        let a2 = d.apply(&a).unwrap();
        let mut p = ProgramPropagator::new(&a, &b, Arc::clone(&program));
        p.establish();
        let (p, ok) = park_and_resume(p, &a2, &d);
        let mut fresh = ProgramPropagator::new(&a2, &b, program);
        assert_eq!(ok, fresh.establish());
        assert_eq!(p.domains_vec(), fresh.domains_vec());
        assert_eq!(p.deletions(), fresh.deletions());
    }

    #[test]
    fn stale_saved_state_degrades_to_a_fresh_bind() {
        // A snapshot taken against one template geometry must not leak
        // into another: resume detects the mismatch and rebuilds.
        let k3 = generators::complete_graph(3);
        let k4 = generators::complete_graph(4);
        let p3 = compile_for(&k3);
        let p4 = compile_for(&k4);
        let a = digraph(&CHAIN_EDGES[..10], 8);
        let mut first = ProgramPropagator::new(&a, &k3, p3);
        first.establish();
        let saved = first.into_saved();
        let mut d = StructureDelta::new(&a);
        d.add_fact("E", &[0, 3]).unwrap();
        let a2 = d.apply(&a).unwrap();
        let mut p = ProgramPropagator::resume_with_delta(&a2, &k4, p4, saved, &d);
        let ok = p.establish();
        let mut fresh = ProgramPropagator::new(&a2, &k4, compile_for(&k4));
        assert_eq!(ok, fresh.establish());
        assert_eq!(p.domains_vec(), fresh.domains_vec());
        assert_eq!(p.deletions(), fresh.deletions());
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
    #[should_panic(expected = "open assignment frames")]
    fn into_saved_rejects_open_frames() {
        // Only a parked engine is repaired, so parking is where the
        // delta path's depth-0 rule is enforced.
        let b = generators::complete_graph(3);
        let a = generators::random_graph_nm(4, 5, 0);
        let mut p = ProgramPropagator::new(&a, &b, compile_for(&b));
        assert!(p.establish());
        p.assign(Element(0), 0);
        let _ = p.into_saved();
    }

    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn resume_with_delta_rejects_vocabulary_mismatch() {
        let b = generators::complete_graph(3);
        let a = generators::random_graph_nm(4, 5, 0);
        let mut p = ProgramPropagator::new(&a, &b, compile_for(&b));
        p.establish();
        let other = generators::random_structure(3, &[3], 2, 0);
        let d = StructureDelta::new(&other);
        park_and_resume(p, &other, &d);
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
