//! E17 benches: the delta-solve pipeline — `Session::watch` absorbing
//! an additive edge ramp (one `StructureDelta::apply` plus one Auto
//! solve per delta, stages skipped from monotone proofs) vs
//! from-scratch `Session::solve` calls on the same post-delta
//! structures, and `DatalogWatch`
//! maintaining transitive closure incrementally vs per-step
//! `eval_semi_naive`.

use cqcs_core::Session;
use cqcs_datalog::eval::eval_semi_naive;
use cqcs_datalog::{programs, DatalogWatch};
use cqcs_structures::{generators, Structure, StructureBuilder, StructureDelta};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

/// Nested G(n, m) prefixes under one seed, so consecutive structures
/// differ by exactly one undirected edge (an additions-only delta of
/// two facts).
fn ramp(n: usize, m0: usize, m1: usize) -> (Vec<Structure>, Vec<StructureDelta>) {
    let structures: Vec<Structure> = (m0..=m1)
        .map(|m| generators::random_graph_nm(n, m, 7))
        .collect();
    let deltas = structures
        .windows(2)
        .map(|w| StructureDelta::between(&w[0], &w[1]).expect("nested prefixes"))
        .collect();
    (structures, deltas)
}

/// The E17 Datalog stream: a path digraph plus a shortcut-churn /
/// back-edge script (see `experiments.rs`), shrunk for bench runtime.
fn tc_stream(n: usize, steps: u32) -> (Vec<Structure>, Vec<StructureDelta>) {
    let voc = generators::digraph_vocabulary();
    let mut b = StructureBuilder::new(Arc::clone(&voc), n);
    for i in 0..n as u32 - 1 {
        b.add_fact("E", &[i, i + 1]).unwrap();
    }
    let mut structures = vec![b.finish()];
    let mut deltas = Vec::new();
    for i in 0..steps {
        let cur = structures.last().unwrap();
        let mut d = StructureDelta::new(cur);
        let tail = n as u32 - 12;
        match i % 24 {
            11 => d.add_fact("E", &[n as u32 - 1, tail + i / 24]),
            23 => d.retract_fact("E", &[n as u32 - 1, tail + i / 24]),
            16 => d.retract_fact("E", &[i - 1, i + 1]),
            _ => d.add_fact("E", &[i, i + 2]),
        }
        .unwrap();
        structures.push(d.apply(cur).unwrap());
        deltas.push(d);
    }
    (structures, deltas)
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_incremental");
    group.sample_size(10);
    let k3 = generators::complete_graph(3);
    let session = Session::compile(&k3);
    for &(n, m0, m1) in &[(16usize, 26usize, 42usize), (24, 40, 64)] {
        let (structures, deltas) = ramp(n, m0, m1);
        let id = format!("G({n},{m0}→{m1})→K3");
        // The watch: register once (outside the ramp loop's measured
        // body this is the amortized one-time cost), then absorb the
        // delta stream with the proofs the watch keeps.
        group.bench_with_input(BenchmarkId::new("watch", &id), &deltas, |bb, deltas| {
            bb.iter(|| {
                let mut w = session.watch(&structures[0]);
                for d in deltas {
                    std::hint::black_box(w.apply(d).unwrap());
                }
            })
        });
        // From scratch: a full dispatch per post-delta structure.
        group.bench_with_input(
            BenchmarkId::new("from_scratch", &id),
            &structures,
            |bb, structures| {
                bb.iter(|| {
                    for a in &structures[1..] {
                        std::hint::black_box(session.solve(a));
                    }
                })
            },
        );
    }
    {
        let program = programs::cycle_detection();
        let (structures, deltas) = tc_stream(48, 24);
        let id = "TC-cycle path(48) ±E";
        group.bench_with_input(BenchmarkId::new("watch", id), &deltas, |bb, deltas| {
            bb.iter(|| {
                let mut w = DatalogWatch::new(&program, &structures[0]);
                for d in deltas {
                    std::hint::black_box(w.apply(d).unwrap());
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("from_scratch", id),
            &structures,
            |bb, structures| {
                bb.iter(|| {
                    for a in &structures[1..] {
                        std::hint::black_box(eval_semi_naive(&program, a));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
