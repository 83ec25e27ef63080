//! Parallel batch solving: one compiled template, many instances.
//!
//! `Session::par_solve_batch(batch, threads)` fans a batch of instances
//! out to scoped workers sharing one `CompiledTemplate`. Workers take
//! instances one at a time from a shared counter, so a batch mixing
//! cheap tractable routes with expensive generic searches stays
//! balanced. Each worker keeps a persistent scratch — the propagator is
//! *reset* per instance instead of rebuilt, and the search/GYO buffers
//! are pooled — so even `threads = 1` beats a loop of one-shot solves.
//! The output is bit-identical to the sequential `solve_batch`: same
//! order, same verdicts, routes, witnesses, and search statistics,
//! whatever the thread count.
//!
//! ```text
//! cargo run --release --example parallel_batch
//! ```

use cqcs::core::{SearchStats, Session};
use cqcs::cq::{contained_in_batch, par_contained_in_batch, parse_query};
use cqcs::structures::generators;
use std::time::Instant;

fn main() {
    // 3-coloring a stream of random graphs against the fixed K3.
    let k3 = generators::complete_graph(3);
    let session = Session::compile(&k3);
    let batch: Vec<_> = (0..128u64)
        .map(|seed| generators::random_graph_nm(14, 27, seed))
        .collect();

    let t = Instant::now();
    let sequential = session.solve_batch(&batch);
    let t_seq = t.elapsed();

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let parallel = session.par_solve_batch(&batch, threads);
    let t_par = t.elapsed();

    // Bit-identical output, whatever the schedule.
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.homomorphism.is_some(), p.homomorphism.is_some());
        assert_eq!(s.route, p.route);
        assert_eq!(s.stats, p.stats);
    }
    let yes = parallel.iter().filter(|s| s.homomorphism.is_some()).count();
    println!(
        "{yes}/{} instances 3-colorable — sequential {}, parallel×{threads} {}",
        batch.len(),
        ms(t_seq),
        ms(t_par),
    );

    // The batch's aggregate search effort: each solution's own
    // statistics, merged.
    let mut stats = SearchStats::default();
    for st in parallel.iter().filter_map(|s| s.stats.as_ref()) {
        stats.merge(st);
    }
    println!(
        "aggregate effort: {} nodes, {} backtracks, {} deletions",
        stats.nodes, stats.backtracks, stats.deletions
    );

    // The containment face: many candidate queries against one fixed
    // query, verdict-identical to the sequential batch.
    let q2 = parse_query("Q(X) :- E(X, Y), E(Y, Z).").unwrap();
    let candidates: Vec<_> = (2..10usize)
        .map(|k| {
            let body: Vec<String> = (0..k)
                .map(|i| format!("E(V{i}, V{})", (i + 1) % k))
                .collect();
            parse_query(&format!("Q(V0) :- {}.", body.join(", "))).unwrap()
        })
        .collect();
    let seq = contained_in_batch(&candidates, &q2).unwrap();
    let par = par_contained_in_batch(&candidates, &q2, threads).unwrap();
    assert_eq!(seq, par);
    println!(
        "{}/{} candidate queries contained in Q2 (parallel ≡ sequential)",
        par.iter().filter(|&&c| c).count(),
        par.len()
    );
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}
