//! E16 benches: compiled propagation — the `ProgramPropagator` (flat
//! `PropProgram` pools, arena-resident state) with its arena reused
//! across a batch vs a fresh arena per instance.

use cqcs_core::solvers::backtracking::backtracking_search_scratch;
use cqcs_core::{SearchOptions, SearchScratch, Session};
use cqcs_pebble::ProgramPropagator;
use cqcs_structures::{generators, Structure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

/// A seeded batch of random-graph instances.
fn instances(n: usize, m: usize, count: u64) -> Vec<Structure> {
    (0..count)
        .map(|seed| generators::random_graph_nm(n, m, seed))
        .collect()
}

fn bench_compiled_prop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_compiled_prop");
    group.sample_size(20);
    let k3 = generators::complete_graph(3);
    let template = Session::compile(&k3);
    let template = template.template();
    let b = template.template();
    let opts = SearchOptions::default();
    for &(n, m) in &[(12usize, 24usize), (20, 40)] {
        let batch = instances(n, m, 32);
        let id = format!("32×G({n},{m})→K3");
        // The worker loop: one compiled engine over the shared
        // program, its arena rebound in place per instance.
        group.bench_with_input(
            BenchmarkId::new("compiled_arena", &id),
            &batch,
            |bb, batch| {
                bb.iter(|| {
                    let mut prop =
                        ProgramPropagator::new(&batch[0], b, Arc::clone(template.program()));
                    let mut search = SearchScratch::default();
                    for a in batch {
                        prop.reset_for_instance(a);
                        std::hint::black_box(backtracking_search_scratch(
                            opts,
                            &mut prop,
                            &mut search,
                        ));
                    }
                })
            },
        );
        // Ablation: same compiled engine, but a fresh arena allocation
        // per instance — isolates what allocation reuse buys.
        group.bench_with_input(
            BenchmarkId::new("compiled_fresh", &id),
            &batch,
            |bb, batch| {
                bb.iter(|| {
                    let mut search = SearchScratch::default();
                    for a in batch {
                        let mut prop = ProgramPropagator::new(a, b, Arc::clone(template.program()));
                        std::hint::black_box(backtracking_search_scratch(
                            opts,
                            &mut prop,
                            &mut search,
                        ));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compiled_prop);
criterion_main!(benches);
