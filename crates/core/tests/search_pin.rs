//! Pins what the engine's parity oracle cannot see.
//!
//! `refine_domains_reference` pins the propagation engine's verdicts,
//! and its domains and deletion counts only where the instance stays
//! consistent. A revision kernel could still change the deletions it
//! counts before a wipeout, or the partially pruned domains MAC's
//! ordering reads, and so the nodes, backtracks, witnesses and routes a
//! solve reports. This test sums those counters and hashes those
//! outputs over seeded binary families, under Auto and two MAC
//! configurations, and compares them with committed values. A change
//! that may only prune failed subtrees (such as the search's
//! interchangeable-values rule) may lower the counters but must leave
//! every hash as committed.
//!
//! The families sit on both sides of the engine's kernel choice:
//! binary relations over templates of at most 64 elements (K3, K32 with
//! its 992 tuples, a 64-element digraph with loops) and a 65-element
//! template, whose domains span two words. Auto is left out on
//! G(8,12)→K32: it answers with the Theorem 5.4 DP over 32^(w+1)-row
//! bags, which costs seconds per instance in a debug build and reads
//! nothing from the engine past arc consistency, which never refutes
//! those instances.

use cqcs_core::{SearchOptions, SearchStats, Session, Strategy};
use cqcs_structures::{generators, RelId, Structure, StructureBuilder};

/// A family under one strategy: (family, strategy, nodes, backtracks,
/// deletions, FNV-1a over every instance's route and witness in seed
/// order).
type Digest = (&'static str, &'static str, u64, u64, u64, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

const MRV_MAC_AC: SearchOptions = SearchOptions {
    mrv: true,
    mac: true,
    ac_preprocess: true,
};

const PLAIN_MAC: SearchOptions = SearchOptions {
    mrv: false,
    mac: true,
    ac_preprocess: false,
};

/// A digraph on `n` vertices with `m` uniformly drawn arcs, loops
/// included (duplicates collapse).
fn looped_digraph(n: usize, m: usize, seed: u64) -> Structure {
    generators::random_structure_over(&generators::digraph_vocabulary(), n, m, seed)
}

/// `looped_digraph(10, 30, seed)` plus the arcs `i → j` (`i < j < 5`)
/// of a 5-clique, so tw(A) ≥ 4 and Auto never reaches the Theorem 5.4
/// DP, whose 64^(w+1)-row bags would cost seconds per instance.
fn clique_looped_digraph(seed: u64) -> Structure {
    let random = looped_digraph(10, 30, seed);
    let e = RelId::from_index(0);
    let mut b = StructureBuilder::new(generators::digraph_vocabulary(), 10);
    for t in random.relation(e).iter() {
        b.add_tuple(e, t).unwrap();
    }
    for i in 0..5 {
        for j in i + 1..5 {
            b.add_fact("E", &[i, j]).unwrap();
        }
    }
    b.finish()
}

fn digest(
    family: &'static str,
    template: &Structure,
    instances: &[Structure],
    strategy: &'static str,
    options: Option<SearchOptions>,
) -> Digest {
    let session = Session::compile(template);
    let mut stats = SearchStats::default();
    let mut outputs = FNV_OFFSET;
    for a in instances {
        let solution = match options {
            None => session.solve(a),
            Some(o) => session.solve_with(a, Strategy::Generic(o)).unwrap(),
        };
        if let Some(s) = &solution.stats {
            stats.merge(s);
        }
        fnv(&mut outputs, format!("{:?}", solution.route).as_bytes());
        match &solution.homomorphism {
            Some(h) => {
                fnv(&mut outputs, &[1]);
                for e in h.as_slice() {
                    fnv(&mut outputs, &e.0.to_le_bytes());
                }
            }
            None => fnv(&mut outputs, &[0]),
        }
    }
    let SearchStats {
        nodes,
        backtracks,
        deletions,
    } = stats;
    (family, strategy, nodes, backtracks, deletions, outputs)
}

fn digests() -> Vec<Digest> {
    let k3_instances: Vec<_> = (0..48)
        .map(|seed| generators::random_graph_nm(12, 24, seed))
        .collect();
    let k32_instances: Vec<_> = (0..16)
        .map(|seed| generators::random_graph_nm(8, 12, seed))
        .collect();
    let looped_instances: Vec<_> = (0..32)
        .map(|seed| clique_looped_digraph(1_000 + seed))
        .collect();
    let families: [(&str, Structure, &[Structure], bool); 4] = [
        (
            "G(12,24)->K3",
            generators::complete_graph(3),
            &k3_instances,
            true,
        ),
        (
            "G(8,12)->K32",
            generators::complete_graph(32),
            &k32_instances,
            false,
        ),
        (
            "looped D(10,30)+K5->D(64,640)",
            looped_digraph(64, 640, 64),
            &looped_instances,
            true,
        ),
        (
            "looped D(10,30)+K5->D(65,650)",
            looped_digraph(65, 650, 65),
            &looped_instances,
            true,
        ),
    ];
    let mut out = Vec::new();
    for (family, b, instances, auto) in &families {
        if *auto {
            out.push(digest(family, b, instances, "Auto", None));
        }
        out.push(digest(family, b, instances, "MRV+MAC+AC", Some(MRV_MAC_AC)));
        out.push(digest(family, b, instances, "MAC", Some(PLAIN_MAC)));
    }
    out
}

/// Output hashes computed before the binary neighbour-row kernel
/// existed, when these families ran the live-tuple kernels. The counters
/// are those values too, except on G(12,24)->K3: K3's three values are
/// interchangeable, so the search skips the siblings of a refuted value
/// there (1050/851/5648 and 1201/1002/8036 before), while its output
/// hashes, and so every witness and route, stayed as committed. Nothing
/// else moved: K32's searches never backtrack, D(64,640) has no two
/// interchangeable values, and D(65,650) is past the 64-value check.
#[rustfmt::skip]
const PINNED: [Digest; 11] = [
    ("G(12,24)->K3",                  "Auto",       382,  183,  1425,  0x84d781aaf8752df8),
    ("G(12,24)->K3",                  "MRV+MAC+AC", 382,  183,  1425,  0x84d781aaf8752df8),
    ("G(12,24)->K3",                  "MAC",        435,  236,  1960,  0x01dafb221e6986eb),
    ("G(8,12)->K32",                  "MRV+MAC+AC", 128,  0,    3968,  0x6dab03dab052e867),
    ("G(8,12)->K32",                  "MAC",        128,  0,    3968,  0x1b695c4e87908bd4),
    ("looped D(10,30)+K5->D(64,640)", "Auto",       525,  205,  46771, 0x7c549cf4676a069d),
    ("looped D(10,30)+K5->D(64,640)", "MRV+MAC+AC", 525,  205,  46771, 0x7c549cf4676a069d),
    ("looped D(10,30)+K5->D(64,640)", "MAC",        527,  207,  46851, 0x7c49c478b4f0f86a),
    ("looped D(10,30)+K5->D(65,650)", "Auto",       354,  34,   32101, 0x75693fc999cc4fd5),
    ("looped D(10,30)+K5->D(65,650)", "MRV+MAC+AC", 354,  34,   32101, 0x75693fc999cc4fd5),
    ("looped D(10,30)+K5->D(65,650)", "MAC",        355,  35,   32108, 0x75693fc999cc4fd5),
];

#[test]
fn search_outputs_match_their_pinned_digests() {
    assert_eq!(digests(), PINNED);
}
