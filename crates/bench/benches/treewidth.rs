//! E8 bench: the bounded-treewidth DP (Theorem 5.4) vs generic search,
//! and the ∃FO^{k+1} evaluation route of Lemma 5.2; plus the exact
//! treewidth oracles (E13): subset DP vs branch and bound, the cached
//! min-fill order vs its from-scratch reference, and the whole
//! Theorem 5.4 route through a session on the served instance family,
//! G(8,12) → K3, next to MAC search on the same instances.

use cqcs_core::{backtracking_search, SearchOptions, Session, Strategy};
use cqcs_structures::{gaifman_graph, generators};
use cqcs_treewidth::bb::bb_treewidth;
use cqcs_treewidth::dp::homomorphism_via_treewidth;
use cqcs_treewidth::exact::dp_treewidth;
use cqcs_treewidth::fo::{evaluate, structure_to_fo};
use cqcs_treewidth::heuristics::{
    min_fill_decomposition, min_fill_order, min_fill_order_reference,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_dp_vs_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_treewidth_dp");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for k in [1usize, 2, 3] {
        for n in [20usize, 40, 80] {
            let a = generators::partial_ktree(n, k, 0.85, 21);
            group.bench_with_input(BenchmarkId::new(format!("dp_k{k}"), n), &a, |bench, a| {
                bench.iter(|| homomorphism_via_treewidth(a, &k3))
            });
            group.bench_with_input(
                BenchmarkId::new(format!("search_k{k}"), n),
                &a,
                |bench, a| bench.iter(|| backtracking_search(a, &k3, SearchOptions::default())),
            );
        }
    }
    group.finish();
}

fn bench_fo_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_fo_evaluation");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for n in [20usize, 40] {
        let a = generators::partial_ktree(n, 2, 0.85, 21);
        let td = min_fill_decomposition(&gaifman_graph(&a));
        let q = structure_to_fo(&a, &td).unwrap();
        group.bench_with_input(BenchmarkId::new("fo_eval", n), &q, |bench, q| {
            bench.iter(|| evaluate(q, &k3))
        });
        group.bench_with_input(BenchmarkId::new("fo_translate", n), &a, |bench, a| {
            bench.iter(|| structure_to_fo(a, &td).unwrap())
        });
    }
    group.finish();
}

fn bench_exact_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_exact_treewidth");
    group.sample_size(10);
    // Head-to-head below the DP ceiling.
    for n in [12usize, 16] {
        let g = gaifman_graph(&generators::random_graph_nm(n, 2 * n, 7));
        group.bench_with_input(BenchmarkId::new("subset_dp", n), &g, |bench, g| {
            bench.iter(|| dp_treewidth(g))
        });
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &g, |bench, g| {
            bench.iter(|| bb_treewidth(g))
        });
    }
    // Branch and bound alone past the ceiling.
    for (n, k) in [(40usize, 3usize), (60, 5)] {
        let g = gaifman_graph(&generators::partial_ktree(n, k, 0.85, 2));
        group.bench_with_input(
            BenchmarkId::new(format!("branch_bound_k{k}"), n),
            &g,
            |bench, g| bench.iter(|| bb_treewidth(g)),
        );
    }
    group.finish();
}

fn bench_min_fill_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_fill_order");
    group.sample_size(10);
    // The served size, G(8,12), then two larger graphs.
    for (n, m) in [(8usize, 12usize), (40, 120), (80, 240)] {
        let g = gaifman_graph(&generators::random_graph_nm(n, m, 5));
        group.bench_with_input(BenchmarkId::new("cached", n), &g, |bench, g| {
            bench.iter(|| min_fill_order(g))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &g, |bench, g| {
            bench.iter(|| min_fill_order_reference(g))
        });
    }
    group.finish();
}

fn bench_treewidth_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("treewidth_route");
    group.sample_size(10);
    let session = Session::compile(&generators::complete_graph(3));
    let batch: Vec<_> = (0..64u64)
        .map(|seed| generators::random_graph_nm(8, 12, seed))
        .collect();
    for (name, strategy) in [
        ("dp_g8_12_x64", Strategy::Treewidth),
        ("mac_g8_12_x64", Strategy::Generic(SearchOptions::default())),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                for a in &batch {
                    session.solve_with(a, strategy).unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_vs_search,
    bench_fo_route,
    bench_exact_oracles,
    bench_min_fill_cache,
    bench_treewidth_route
);
criterion_main!(benches);
