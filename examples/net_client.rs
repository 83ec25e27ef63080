//! Concurrent clients sharing one server, and a pipelined window.
//!
//! Four client threads hammer the same registered template at once,
//! each on its own connection and so on its own server thread; then a
//! single connection pipelines a batch at depth 8. The server reads a
//! window in one read and answers it in one write — visible in the
//! `max_coalesced_jobs` statistic — while every response stays
//! bit-identical to a direct in-process solve, which this example
//! checks.

use cqcs::core::Session;
use cqcs::net::client::Client;
use cqcs::net::codec::solutions_identical;
use cqcs::net::server::{Server, ServerConfig};
use cqcs::structures::generators;
use std::sync::{Arc, Barrier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr();
    let template = generators::complete_graph(3);
    let id = Client::connect(addr)?.register_template(&template)?;

    let clients = 4;
    let per_client = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let template = template.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let direct = Session::compile(&template);
                barrier.wait();
                let mut agree = 0;
                for ri in 0..per_client {
                    let a = generators::random_graph_nm(8, 14, (ci * per_client + ri) as u64);
                    let over_wire = c.solve(id, &a).expect("solve");
                    if solutions_identical(&over_wire, &direct.solve(&a)) {
                        agree += 1;
                    }
                }
                agree
            })
        })
        .collect();

    let agreements: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let total = clients * per_client;
    println!("{agreements}/{total} networked solutions bit-identical to direct solves");

    assert_eq!(agreements, total);

    // Pipelining: one connection, eight requests in flight. The window
    // travels as one buffered write, the server answers it in one
    // write, and correlation ids bring the answers back in submission
    // order.
    let mut c = Client::connect(addr)?;
    let direct = Session::compile(&template);
    let instances: Vec<_> = (0..16)
        .map(|s| generators::random_graph_nm(8, 14, 1000 + s))
        .collect();
    let piped = c.solve_pipelined(id, &instances, 8)?;
    let piped_agree = piped
        .iter()
        .zip(&instances)
        .filter(|(sol, a)| solutions_identical(sol, &direct.solve(a)))
        .count();
    println!(
        "pipelined depth 8: {piped_agree}/{} in-order solutions bit-identical to direct solves",
        instances.len()
    );
    assert_eq!(piped_agree, instances.len());

    let status = c.status()?;
    println!(
        "{} solves answered; up to {} solve replies shared one write",
        status.solves, status.max_coalesced_jobs
    );

    server.shutdown();
    Ok(())
}
