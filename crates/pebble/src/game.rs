//! The existential k-pebble game (Kolaitis–Vardi \[KV95\], §4.2 of the
//! paper).
//!
//! The Duplicator wins the game on `(A, B)` iff there is a nonempty
//! family `F` of partial homomorphisms from `A` to `B`, each with domain
//! of size ≤ k, such that
//!
//! 1. `F` is closed under subfunctions, and
//! 2. `F` has the *forth property up to k*: for every `f ∈ F` with
//!    `|f| < k` and every element `a` of `A`, some extension
//!    `f ∪ {a ↦ b}` is in `F`.
//!
//! We compute the **maximal** such family as a greatest fixpoint: start
//! from all partial homomorphisms of size ≤ k, then repeatedly delete
//! configurations that (i) fail the forth property or (ii) have a
//! deleted subfunction, cascading through support counters. The
//! Duplicator wins iff the empty configuration survives. This is the
//! polynomial-time algorithm promised by Theorem 4.7(1); its `O(n^{2k})`
//! cost (Theorem 4.9) is measured by experiment E6.

use cqcs_structures::{Element, Structure};
use std::collections::HashMap;

/// A game configuration: a partial function from `A`'s universe to
/// `B`'s, stored as pairs sorted by the `A`-element.
pub type Config = Vec<(u32, u32)>;

/// Outcome and statistics of a pebble-game computation.
#[derive(Debug, Clone)]
pub struct GameAnalysis {
    /// Number of pebbles.
    pub k: usize,
    /// Whether the Duplicator wins (the empty configuration survives).
    pub duplicator_wins: bool,
    /// Partial homomorphisms generated (the game graph size).
    pub generated: usize,
    /// Configurations surviving in the maximal family.
    pub surviving: usize,
}

struct ConfigData {
    pairs: Config,
    alive: bool,
    /// For configs of size < k: surviving-extension counts per
    /// `A`-element outside the domain (indexed by element).
    counters: Vec<u32>,
}

/// Computes the maximal Duplicator family for the existential k-pebble
/// game on `(a, b)`.
///
/// # Panics
/// Panics if the structures are over different vocabularies or `k = 0`.
pub fn solve_game(a: &Structure, b: &Structure, k: usize) -> GameAnalysis {
    assert!(k >= 1, "the game needs at least one pebble");
    assert!(
        a.same_vocabulary(b),
        "pebble game across different vocabularies"
    );

    // 0-ary relations are global: if A asserts a fact B lacks, even the
    // empty configuration is not a partial homomorphism.
    for r in a.vocabulary().iter() {
        if a.vocabulary().arity(r) == 0 && !a.relation(r).is_empty() && b.relation(r).is_empty() {
            return GameAnalysis {
                k,
                duplicator_wins: false,
                generated: 0,
                surviving: 0,
            };
        }
    }

    let n = a.universe();
    let m = b.universe();

    let mut ids: HashMap<Config, u32> = HashMap::new();
    let mut configs: Vec<ConfigData> = Vec::new();

    // Generate all partial homomorphisms of size ≤ k by DFS over
    // domains in increasing element order.
    {
        let mut amap: Vec<Option<Element>> = vec![None; n];
        let mut current: Config = Vec::with_capacity(k);
        gen_configs(a, b, k, 0, &mut current, &mut amap, &mut ids, &mut configs);
    }

    // Support counters: counter[sub][x] = #{b : sub ∪ {x↦b} generated}.
    for ci in 0..configs.len() {
        if configs[ci].pairs.is_empty() {
            continue;
        }
        let pairs = configs[ci].pairs.clone();
        for drop in 0..pairs.len() {
            let mut sub: Config = pairs.clone();
            let (x, _) = sub.remove(drop);
            let sub_id = ids[&sub] as usize;
            configs[sub_id].counters[x as usize] += 1;
        }
    }

    // Initial deaths: configs of size < k with some unsupported element.
    let mut worklist: Vec<u32> = Vec::new();
    for (ci, data) in configs.iter_mut().enumerate() {
        if data.pairs.len() < k {
            let dom: Vec<u32> = data.pairs.iter().map(|&(x, _)| x).collect();
            let unsupported =
                (0..n as u32).any(|x| !dom.contains(&x) && data.counters[x as usize] == 0);
            if unsupported {
                data.alive = false;
                worklist.push(ci as u32);
            }
        }
    }

    // Cascade deletions.
    while let Some(ci) = worklist.pop() {
        let pairs = configs[ci as usize].pairs.clone();
        // (a) Subfunctions lose one support each.
        for drop in 0..pairs.len() {
            let mut sub: Config = pairs.clone();
            let (x, _) = sub.remove(drop);
            let sub_id = ids[&sub] as usize;
            if !configs[sub_id].alive {
                continue;
            }
            configs[sub_id].counters[x as usize] -= 1;
            if configs[sub_id].counters[x as usize] == 0 {
                configs[sub_id].alive = false;
                worklist.push(sub_id as u32);
            }
        }
        // (b) Superfunctions must die (closure under subfunctions).
        if pairs.len() < k {
            let dom: Vec<u32> = pairs.iter().map(|&(x, _)| x).collect();
            for x in 0..n as u32 {
                if dom.contains(&x) {
                    continue;
                }
                for y in 0..m as u32 {
                    let mut sup = pairs.clone();
                    let pos = sup.partition_point(|&(e, _)| e < x);
                    sup.insert(pos, (x, y));
                    if let Some(&sid) = ids.get(&sup) {
                        if configs[sid as usize].alive {
                            configs[sid as usize].alive = false;
                            worklist.push(sid);
                        }
                    }
                }
            }
        }
    }

    let generated = configs.len();
    let surviving = configs.iter().filter(|c| c.alive).count();
    let duplicator_wins = ids
        .get(&Vec::new())
        .map(|&id| configs[id as usize].alive)
        .unwrap_or(false);
    GameAnalysis {
        k,
        duplicator_wins,
        generated,
        surviving,
    }
}

/// DFS generation of all partial homomorphisms with ≤ k pebbles whose
/// domains are enumerated in increasing element order.
#[allow(clippy::too_many_arguments)]
fn gen_configs(
    a: &Structure,
    b: &Structure,
    k: usize,
    min_next: u32,
    current: &mut Config,
    amap: &mut Vec<Option<Element>>,
    ids: &mut HashMap<Config, u32>,
    configs: &mut Vec<ConfigData>,
) {
    let id = configs.len() as u32;
    ids.insert(current.clone(), id);
    configs.push(ConfigData {
        pairs: current.clone(),
        alive: true,
        counters: if current.len() < k {
            vec![0; a.universe()]
        } else {
            Vec::new()
        },
    });
    if current.len() == k {
        return;
    }
    for x in min_next..a.universe() as u32 {
        for y in 0..b.universe() as u32 {
            if extension_is_partial_hom(a, b, amap, Element(x), Element(y)) {
                current.push((x, y));
                amap[x as usize] = Some(Element(y));
                gen_configs(a, b, k, x + 1, current, amap, ids, configs);
                amap[x as usize] = None;
                current.pop();
            }
        }
    }
}

/// Whether extending the current partial map with `x ↦ y` keeps it a
/// partial homomorphism: every `A`-tuple containing `x` whose elements
/// are now all mapped must land in the corresponding `B`-relation.
fn extension_is_partial_hom(
    a: &Structure,
    b: &Structure,
    amap: &[Option<Element>],
    x: Element,
    y: Element,
) -> bool {
    let mut image: Vec<Element> = Vec::with_capacity(a.vocabulary().max_arity());
    'occurrence: for &(r, ti) in a.occurrences(x) {
        image.clear();
        for &e in a.relation(r).tuple(ti as usize) {
            let mapped = if e == x { Some(y) } else { amap[e.index()] };
            match mapped {
                Some(v) => image.push(v),
                None => continue 'occurrence,
            }
        }
        if !b.relation(r).contains(&image) {
            return false;
        }
    }
    true
}

/// Whether the Duplicator wins the existential k-pebble game on
/// `(a, b)`.
pub fn duplicator_wins(a: &Structure, b: &Structure, k: usize) -> bool {
    solve_game(a, b, k).duplicator_wins
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::homomorphism_exists;

    #[test]
    fn hom_existence_implies_duplicator_win() {
        // If hom(A→B) exists the Duplicator plays h(a) forever — at any
        // pebble count (the easy direction of Theorem 4.8).
        let cases = [
            (
                generators::undirected_cycle(6),
                generators::complete_graph(2),
            ),
            (generators::directed_path(5), generators::directed_cycle(3)),
            (generators::complete_graph(3), generators::complete_graph(4)),
        ];
        for (a, b) in cases {
            assert!(homomorphism_exists(&a, &b));
            for k in 1..=3 {
                assert!(duplicator_wins(&a, &b, k), "k={k}");
            }
        }
    }

    #[test]
    fn two_pebbles_too_weak_for_two_coloring() {
        // With k=2 the Duplicator survives on (C5, K2) even though C5
        // is not 2-colorable.
        let c5 = generators::undirected_cycle(5);
        let k2 = generators::complete_graph(2);
        assert!(!homomorphism_exists(&c5, &k2));
        assert!(duplicator_wins(&c5, &k2, 2));
    }

    #[test]
    fn three_pebbles_decide_two_coloring() {
        // co-CSP(K2) is expressible in 3-Datalog (odd-cycle detection
        // with an odd/even split), so by Theorem 4.8 the 3-pebble game
        // decides 2-colorability.
        let k2 = generators::complete_graph(2);
        for n in [3, 5, 7, 9] {
            let c = generators::undirected_cycle(n);
            assert!(!duplicator_wins(&c, &k2, 3), "odd cycle C{n}");
        }
        for n in [4, 6, 8] {
            let c = generators::undirected_cycle(n);
            assert!(duplicator_wins(&c, &k2, 3), "even cycle C{n}");
        }
    }

    #[test]
    fn incompleteness_for_three_coloring() {
        // (K4, K3): no homomorphism, but the Duplicator wins with 2 and
        // 3 pebbles — the pebble game is incomplete when co-CSP(B) is
        // not k-Datalog-expressible. With 4 pebbles the Spoiler covers
        // all of K4 and wins.
        let k4 = generators::complete_graph(4);
        let k3 = generators::complete_graph(3);
        assert!(!homomorphism_exists(&k4, &k3));
        assert!(duplicator_wins(&k4, &k3, 2));
        assert!(duplicator_wins(&k4, &k3, 3));
        assert!(!duplicator_wins(&k4, &k3, 4));
    }

    #[test]
    fn spoiler_win_is_sound_on_random_instances() {
        // Spoiler winning always implies no homomorphism.
        for seed in 0..15u64 {
            let a = generators::random_digraph(6, 0.35, seed);
            let b = generators::random_digraph(4, 0.3, seed + 1000);
            for k in 1..=3 {
                if !duplicator_wins(&a, &b, k) {
                    assert!(
                        !homomorphism_exists(&a, &b),
                        "seed {seed} k {k}: Spoiler won but a hom exists"
                    );
                }
            }
        }
    }

    #[test]
    fn monotone_in_k() {
        // More pebbles only help the Spoiler.
        for seed in 0..10u64 {
            let a = generators::random_digraph(5, 0.4, seed);
            let b = generators::random_digraph(3, 0.4, seed + 500);
            let mut prev = true;
            for k in 1..=4 {
                let now = duplicator_wins(&a, &b, k);
                assert!(
                    !now || prev,
                    "Duplicator win must be antitone in k (seed {seed})"
                );
                prev = now;
            }
        }
    }

    #[test]
    fn directed_paths_and_tournaments() {
        // hom(P_m → TT_n) iff m ≤ n; co-CSP(TT_n)... the 2-pebble game
        // already distinguishes path lengths against transitive
        // tournaments? Just check soundness + the hom side.
        let t3 = generators::transitive_tournament(3);
        let p3 = generators::directed_path(3);
        let p5 = generators::directed_path(5);
        assert!(duplicator_wins(&p3, &t3, 2));
        // Spoiler wins on the long path with enough pebbles.
        assert!(!duplicator_wins(&p5, &t3, 4));
    }

    #[test]
    fn empty_structures() {
        let voc = generators::digraph_vocabulary();
        let empty = cqcs_structures::StructureBuilder::new(voc, 0).finish();
        let k2 = generators::complete_graph(2);
        assert!(duplicator_wins(&empty, &k2, 2), "nothing to pebble");
        // Empty B: Spoiler pebbles anything, Duplicator cannot answer.
        assert!(!duplicator_wins(&k2, &empty, 2));
    }

    #[test]
    fn analysis_counts_are_consistent() {
        let a = generators::undirected_cycle(4);
        let b = generators::complete_graph(2);
        let res = solve_game(&a, &b, 2);
        assert!(res.duplicator_wins);
        assert!(res.surviving > 0);
        assert!(res.surviving <= res.generated);
        // Generated = all partial homs of size ≤ 2: 1 + n·m + valid pairs.
        assert!(res.generated > 4 * 2);
    }
}
