//! E15 benches: parallel batch throughput vs thread count — one
//! compiled template, N workers taking instances from one counter.
//!
//! The `seq` rows are the sequential `Session::solve_batch` (itself the
//! fan-out at one thread, inline); the `parN` rows fan the same batch
//! out to N workers. With N above the host's core count a parN row
//! measures the fan-out's overhead; below it, scaling.

use cqcs_core::Session;
use cqcs_structures::{generators, Structure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn graph_batch(n: usize, m: usize, count: u64) -> Vec<Structure> {
    (0..count)
        .map(|seed| generators::random_graph_nm(n, m, seed))
        .collect()
}

fn digraph_batch(n: usize, p: f64, count: u64) -> Vec<Structure> {
    (0..count)
        .map(|seed| generators::random_digraph(n, p, seed))
        .collect()
}

fn bench_parallel_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_parallel_batch");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    let c4 = generators::directed_cycle(4);
    let workloads: Vec<(String, Vec<Structure>, &Structure)> = vec![
        ("64×G(12,24)→K3".into(), graph_batch(12, 24, 64), &k3),
        ("64×G(16,32)→K3".into(), graph_batch(16, 32, 64), &k3),
        ("64×D(12,.2)→C4".into(), digraph_batch(12, 0.2, 64), &c4),
    ];
    for (name, batch, template) in &workloads {
        let session = Session::compile(template);
        group.bench_with_input(BenchmarkId::new("seq", name), batch, |b, batch| {
            b.iter(|| std::hint::black_box(session.solve_batch(batch)))
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("par{threads}"), name),
                batch,
                |b, batch| b.iter(|| std::hint::black_box(session.par_solve_batch(batch, threads))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_batch);
criterion_main!(benches);
