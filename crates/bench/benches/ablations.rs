//! E12 benches: design-choice ablations — search heuristics, AC
//! preprocessing, the propagation engine itself, and the Booleanization
//! route against direct search.

use cqcs_core::{backtracking_search, solve, SearchOptions, Strategy};
use cqcs_pebble::consistency::{refine_domains, refine_domains_reference};
use cqcs_pebble::{ProgramPropagator, PropProgram};
use cqcs_structures::{generators, BitSet, Element};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn bench_search_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_search_heuristics");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for &(n, m) in &[(12usize, 22usize), (20, 40)] {
        let g = generators::random_graph_nm(n, m, 3);
        for (name, opts) in [
            (
                "plain",
                SearchOptions {
                    mrv: false,
                    mac: false,
                    ac_preprocess: false,
                },
            ),
            (
                "mrv",
                SearchOptions {
                    mrv: true,
                    mac: false,
                    ac_preprocess: false,
                },
            ),
            (
                "mac",
                SearchOptions {
                    mrv: false,
                    mac: true,
                    ac_preprocess: false,
                },
            ),
            ("mrv_mac_ac", SearchOptions::default()),
        ] {
            let id = format!("G({n},{m})→K3");
            group.bench_with_input(BenchmarkId::new(name, id), &g, |b, g| {
                b.iter(|| backtracking_search(g, &k3, opts))
            });
        }
    }
    group.finish();
}

fn bench_propagation_engine(c: &mut Criterion) {
    // The hot inner loop in isolation: one full fixpoint from scratch
    // (reference scan vs support-indexed engine), and the per-node MAC
    // step (clone + full refine vs incremental assign/undo).
    let mut group = c.benchmark_group("e12_propagation_engine");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    for &(n, m) in &[(20usize, 40usize), (40, 80)] {
        let g = generators::random_graph_nm(n, m, 7);
        let full = vec![BitSet::full(k3.universe()); g.universe()];
        let id = format!("G({n},{m})→K3");
        group.bench_with_input(BenchmarkId::new("fixpoint_reference", &id), &g, |bch, g| {
            bch.iter(|| refine_domains_reference(g, &k3, full.clone()))
        });
        group.bench_with_input(BenchmarkId::new("fixpoint_indexed", &id), &g, |bch, g| {
            bch.iter(|| refine_domains(g, &k3, full.clone()))
        });
        // The serving regime: the program is compiled once per template
        // (CompiledTemplate), so the fixpoint pays only for binding and
        // propagation.
        let program = Arc::new(PropProgram::compile(&k3));
        group.bench_with_input(
            BenchmarkId::new("fixpoint_indexed_prebuilt", &id),
            &g,
            |bch, g| bch.iter(|| ProgramPropagator::new(g, &k3, Arc::clone(&program)).establish()),
        );
        // Per-node step: narrow element 0 to each candidate in turn.
        group.bench_with_input(BenchmarkId::new("node_clone_refine", &id), &g, |bch, g| {
            let base = refine_domains(g, &k3, full.clone()).domains;
            bch.iter(|| {
                for v in 0..k3.universe() {
                    let mut narrowed = base.to_vec();
                    narrowed[0] = BitSet::new(k3.universe());
                    narrowed[0].insert(v);
                    let ac = refine_domains(g, &k3, narrowed);
                    std::hint::black_box(ac.consistent);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("node_assign_undo", &id), &g, |bch, g| {
            let mut prop = ProgramPropagator::new(g, &k3, Arc::clone(&program));
            assert!(prop.establish());
            // Only live candidates may be assigned (assign asserts it).
            let mut candidates = Vec::new();
            prop.domain_values_into(Element(0), &mut candidates);
            bch.iter(|| {
                for &v in &candidates {
                    let ok = prop.assign(Element(0), v);
                    std::hint::black_box(ok);
                    prop.undo();
                }
            })
        });
    }
    group.finish();
}

fn bench_booleanize_vs_search(c: &mut Criterion) {
    // CSP(C4) solved via the dispatcher's Booleanization route vs raw
    // search (Example 3.8 made quantitative).
    let mut group = c.benchmark_group("e12_booleanization_route");
    group.sample_size(10);
    let c4 = generators::directed_cycle(4);
    for n in [8usize, 16, 32] {
        let a = generators::directed_cycle(n);
        group.bench_with_input(BenchmarkId::new("auto_booleanize", n), &a, |b, a| {
            b.iter(|| solve(a, &c4, Strategy::Auto).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("generic_search", n), &a, |b, a| {
            b.iter(|| solve(a, &c4, Strategy::Generic(SearchOptions::default())).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_search_heuristics,
    bench_propagation_engine,
    bench_booleanize_vs_search
);
criterion_main!(benches);
