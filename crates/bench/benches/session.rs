//! E14 benches: template amortization — N instances against one
//! compiled template vs one-shot `solve` per instance — and the
//! pre-engine routes (Schaefer, Booleanization, Acyclic) on the mixed
//! workload's families, solved through a warm session.

use cqcs_core::{solve, Session, Strategy};
use cqcs_structures::{generators, Structure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A seeded batch of random-graph instances.
fn instances(n: usize, m: usize, count: u64) -> Vec<Structure> {
    (0..count)
        .map(|seed| generators::random_graph_nm(n, m, seed))
        .collect()
}

fn bench_session_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_session_reuse");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for &(n, m) in &[(12usize, 24usize), (16, 32)] {
        let batch = instances(n, m, 32);
        let id = format!("32×G({n},{m})→K3");
        group.bench_with_input(BenchmarkId::new("one_shot", &id), &batch, |b, batch| {
            b.iter(|| {
                for a in batch {
                    std::hint::black_box(solve(a, &k3, Strategy::Auto).unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("session", &id), &batch, |b, batch| {
            b.iter(|| {
                let session = Session::compile(&k3);
                for a in batch {
                    std::hint::black_box(session.solve(a));
                }
            })
        });
    }
    // The Booleanization regime: a non-Boolean template whose encoded
    // classification (computed per call on the one-shot path) is
    // template-only work.
    let c4 = generators::directed_cycle(4);
    let batch: Vec<Structure> = (0..32u64)
        .map(|seed| generators::random_digraph(12, 0.2, seed))
        .collect();
    group.bench_with_input(
        BenchmarkId::new("one_shot", "32×D(12,.2)→C4"),
        &batch,
        |b, batch| {
            b.iter(|| {
                for a in batch {
                    std::hint::black_box(solve(a, &c4, Strategy::Auto).unwrap());
                }
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("session", "32×D(12,.2)→C4"),
        &batch,
        |b, batch| {
            b.iter(|| {
                let session = Session::compile(&c4);
                for a in batch {
                    std::hint::black_box(session.solve(a));
                }
            })
        },
    );
    group.finish();
}

/// `Session::solve` on 64 instances of each mixed family that stages
/// 1–3 answer: G(16,20) → K2 (Schaefer), D(12,0.2) → C4
/// (Booleanization) and paths of 2–4 vertices → TT4 (Acyclic). The
/// session is compiled and warmed outside the timed loop, so each
/// sample is the per-instance route alone.
fn bench_pre_engine_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pre_engine_routes");
    group.sample_size(20);
    let families: [(&str, Structure, Vec<Structure>); 3] = [
        (
            "64×G(16,20)→K2",
            generators::complete_graph(2),
            (0..64)
                .map(|s| generators::random_graph_nm(16, 20, s))
                .collect(),
        ),
        (
            "64×D(12,.2)→C4",
            generators::directed_cycle(4),
            (0..64)
                .map(|s| generators::random_digraph(12, 0.2, s))
                .collect(),
        ),
        (
            "64×paths(2–4)→TT4",
            generators::transitive_tournament(4),
            (0..64)
                .map(|s| generators::directed_path(2 + s % 3))
                .collect(),
        ),
    ];
    for (id, b, batch) in &families {
        let session = Session::compile(b);
        for a in batch {
            std::hint::black_box(session.solve(a));
        }
        group.bench_with_input(BenchmarkId::new("session", id), batch, |bench, batch| {
            bench.iter(|| {
                for a in batch {
                    std::hint::black_box(session.solve(a));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_session_reuse, bench_pre_engine_routes);
criterion_main!(benches);
