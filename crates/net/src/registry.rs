//! The template registry: compile once, share everywhere, evict cold.
//!
//! Serving fixes the expensive half of every solve: the template `B`.
//! [`TemplateRegistry`] owns a capacity-bounded map from server-issued
//! ids to [`Arc<CompiledTemplate>`]s, so one registration pays for the
//! support index / propagation program / Schaefer classification and
//! every subsequent request — from any connection — shares them by
//! reference count. Beyond capacity the least-recently-**used** entry
//! is evicted ([`Request::Solve`](crate::codec::Request::Solve) and
//! `SolveBatch` lookups bump recency, not just registration); an
//! evicted id answers
//! [`ErrorCode::UnknownTemplate`](crate::codec::ErrorCode::UnknownTemplate)
//! from then on, and clients re-register. In-flight solves holding the
//! `Arc` are unaffected by eviction — the compiled state dies with its
//! last user, never under one.

use cqcs_core::CompiledTemplate;
use cqcs_structures::Structure;
use std::collections::HashMap;
use std::sync::Arc;

struct Entry {
    template: Arc<CompiledTemplate>,
    last_used: u64,
}

/// A capacity-bounded, LRU-evicting map from ids to compiled
/// templates. Not internally synchronized — the server wraps it in a
/// `Mutex`, and nothing slow happens under the lock (compilation is
/// lazy inside `CompiledTemplate`; lookups are hash probes).
pub struct TemplateRegistry {
    capacity: usize,
    next_id: u64,
    clock: u64,
    evictions: u64,
    entries: HashMap<u64, Entry>,
}

impl TemplateRegistry {
    /// An empty registry holding at most `capacity` templates.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> TemplateRegistry {
        assert!(capacity > 0, "registry capacity must be positive");
        TemplateRegistry {
            capacity,
            next_id: 1,
            clock: 0,
            evictions: 0,
            entries: HashMap::new(),
        }
    }

    /// Compiles, **warms** (pre-builds the propagation program and the
    /// support index it owns — see [`CompiledTemplate::warm`]), and
    /// registers a template. Callers holding this registry behind a
    /// lock should prefer compiling+warming outside it and handing the
    /// result to [`TemplateRegistry::insert`]; this method is the
    /// convenient unlocked-path equivalent.
    pub fn register(&mut self, template: &Structure) -> u64 {
        let compiled = Arc::new(CompiledTemplate::compile(template));
        compiled.warm();
        self.insert(compiled)
    }

    /// Registers an already-compiled template, returning its fresh id
    /// and evicting the least-recently-used entry if the registry is
    /// full. Nothing slow happens here — the point of taking an `Arc`
    /// is that compilation and warming happened *before* whatever lock
    /// guards the registry was taken.
    pub fn insert(&mut self, compiled: Arc<CompiledTemplate>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.clock += 1;
        self.entries.insert(
            id,
            Entry {
                template: compiled,
                last_used: self.clock,
            },
        );
        if self.entries.len() > self.capacity {
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id)
                .expect("registry is non-empty");
            self.entries.remove(&coldest);
            self.evictions += 1;
        }
        id
    }

    /// Looks a template up, bumping its recency.
    pub fn get(&mut self, id: u64) -> Option<Arc<CompiledTemplate>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&id).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.template)
        })
    }

    /// Number of resident templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Templates evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;

    #[test]
    fn register_and_get() {
        let mut reg = TemplateRegistry::new(4);
        let k3 = generators::complete_graph(3);
        let id = reg.register(&k3);
        let t = reg.get(id).expect("registered");
        assert_eq!(t.template().universe(), 3);
        assert!(reg.get(id + 1).is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut reg = TemplateRegistry::new(2);
        let id1 = reg.register(&generators::complete_graph(2));
        let id2 = reg.register(&generators::complete_graph(3));
        // Touch id1 so id2 is the LRU entry when id3 arrives.
        assert!(reg.get(id1).is_some());
        let id3 = reg.register(&generators::complete_graph(4));
        assert!(reg.get(id1).is_some(), "recently used survives");
        assert!(reg.get(id2).is_none(), "LRU entry evicted");
        assert!(reg.get(id3).is_some());
        assert_eq!(reg.evictions(), 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn evicted_template_survives_for_holders() {
        let mut reg = TemplateRegistry::new(1);
        let id1 = reg.register(&generators::complete_graph(3));
        let held = reg.get(id1).unwrap();
        reg.register(&generators::complete_graph(2));
        assert!(reg.get(id1).is_none(), "evicted from the registry");
        // The Arc keeps the compiled template alive for in-flight work.
        assert_eq!(held.template().universe(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TemplateRegistry::new(0);
    }

    #[test]
    fn registration_warms_the_template_off_the_serving_path() {
        use cqcs_structures::support_builds_on_this_thread;

        let mut reg = TemplateRegistry::new(4);
        let before = support_builds_on_this_thread();
        let id = reg.register(&generators::complete_graph(3));
        assert!(
            support_builds_on_this_thread() > before,
            "register pays for the support build on the registering thread"
        );
        // A solve on a *different* thread (another connection, in the server)
        // must find everything pre-built: its thread-local build
        // counter stays at zero.
        let template = reg.get(id).expect("registered");
        let handle = std::thread::spawn(move || {
            let session = cqcs_core::Session::from_template(template);
            let sol = session.solve(&generators::undirected_cycle(4));
            assert!(sol.homomorphism.is_some(), "C4 → K3");
            support_builds_on_this_thread()
        });
        let solver_thread_builds = handle.join().expect("solver thread");
        assert_eq!(
            solver_thread_builds, 0,
            "warm registration leaves no lowering for the serving path"
        );
    }
}
