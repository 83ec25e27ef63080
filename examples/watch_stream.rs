//! Delta-solve watches: register a check once, stream edits, get
//! notified exactly when the verdict flips.
//!
//! `Session::watch` applies each `StructureDelta` and runs the same
//! Auto dispatch a fresh `Session::solve` runs, minus the stages whose
//! outcome is provable from monotone facts its earlier updates
//! established (GYO cyclicity, treewidth lower bounds); while additions
//! keep an arc-refuted instance refuted, an update costs O(1).
//! `DatalogWatch` maintains least-fixpoint containment checks
//! incrementally — counting for the non-recursive strata, DRed
//! delete/re-derive for the recursive ones. Both report `Some(verdict)`
//! exactly when an update changes the answer, and both are pinned by
//! tests and experiment E17 to agree with from-scratch re-solves.
//!
//! ```text
//! cargo run --release --example watch_stream
//! ```

use cqcs::core::Session;
use cqcs::datalog::{programs, DatalogWatch};
use cqcs::structures::{generators, StructureBuilder, StructureDelta, Vocabulary};
use std::sync::Arc;

fn main() {
    // --- A 3-colorability watch. The template is K3 plus an empty
    // unary predicate P: asserting P(v) on an instance pins v to an
    // empty image, so arc consistency refutes — a knob for forcing
    // verdict flips on demand.
    let voc = Vocabulary::from_symbols([("E", 2), ("P", 1)])
        .unwrap()
        .into_shared();
    let mut b = StructureBuilder::new(Arc::clone(&voc), 3);
    for i in 0..3u32 {
        for j in 0..3u32 {
            if i != j {
                b.add_fact("E", &[i, j]).unwrap();
            }
        }
    }
    let session = Session::compile(&b.finish());

    // Register a 6-cycle (3-colorable) and stream edits against it.
    let mut b = StructureBuilder::new(Arc::clone(&voc), 6);
    for i in 0..6u32 {
        b.add_fact("E", &[i, (i + 1) % 6]).unwrap();
        b.add_fact("E", &[(i + 1) % 6, i]).unwrap();
    }
    let mut watch = session.watch(&b.finish());
    println!("registered: 3-colorable = {}", watch.verdict());

    // Each apply returns Some(new_verdict) exactly on a flip, None
    // when the answer is unchanged (however the update was absorbed).
    let script: [(&str, bool, &[u32]); 4] = [
        ("E", true, &[0, 3]), // a chord: still 3-colorable
        ("P", true, &[2]),    // pin vertex 2: refuted
        ("E", true, &[1, 4]), // grow while refuted: monotone, O(1)
        ("P", false, &[2]),   // unpin: satisfiable again
    ];
    for (rel, add, tuple) in script {
        let mut d = StructureDelta::new(watch.current());
        if add {
            d.add_fact(rel, tuple).unwrap();
        } else {
            d.retract_fact(rel, tuple).unwrap();
        }
        let sign = if add { "+" } else { "-" };
        match watch.apply(&d).unwrap() {
            Some(v) => println!("  {sign}{rel}{tuple:?}: verdict flipped -> {v}"),
            None => println!("  {sign}{rel}{tuple:?}: unchanged"),
        }
    }
    let stats = watch.stats();
    println!(
        "{} updates: {} acyclicity skips, {} treewidth skips, {} monotone refutations\n",
        stats.updates, stats.acyclicity_skips, stats.treewidth_skips, stats.monotone_refutations,
    );

    // --- A Datalog containment watch: "does this digraph have a
    // cycle?" as a least-fixpoint goal, maintained incrementally.
    let program = programs::cycle_detection();
    let mut b = StructureBuilder::new(generators::digraph_vocabulary(), 8);
    for i in 0..7u32 {
        b.add_fact("E", &[i, i + 1]).unwrap();
    }
    let mut watch = DatalogWatch::new(&program, &b.finish());
    println!("registered: path(8) has a cycle = {}", watch.goal_derived());

    let script: [(bool, [u32; 2]); 4] = [
        (true, [2, 4]),  // a shortcut: still acyclic
        (true, [7, 0]),  // close the loop: cycle appears
        (true, [3, 5]),  // edit inside the cycle: unchanged
        (false, [7, 0]), // cut the loop: cycle gone (DRed)
    ];
    for (add, [x, y]) in script {
        let mut d = StructureDelta::new(watch.current());
        if add {
            d.add_fact("E", &[x, y]).unwrap();
        } else {
            d.retract_fact("E", &[x, y]).unwrap();
        }
        let sign = if add { "+" } else { "-" };
        match watch.apply(&d).unwrap() {
            Some(v) => println!("  {sign}E[{x}, {y}]: goal flipped -> {v}"),
            None => println!("  {sign}E[{x}, {y}]: unchanged"),
        }
    }
    let stats = watch.eval().stats();
    println!(
        "{} incremental updates, {} full recomputes",
        stats.incremental_updates, stats.full_recomputes
    );
}
