//! Run a template server and drive it in-process.
//!
//! The real deployment runs the `cqcs-serve` binary and connects from
//! other processes; this example keeps both ends in one program so
//! `cargo run --example serve` is self-contained. It binds an
//! ephemeral port, registers two templates, pipelines a window of
//! solves, and shows the registry and write statistics the server
//! exposes over `Status`.

use cqcs::net::client::Client;
use cqcs::net::server::{Server, ServerConfig};
use cqcs::structures::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    println!("serving on {}", server.local_addr());

    let mut client = Client::connect(server.local_addr())?;

    // Register once, solve many: the server compiles K3 a single time
    // and every request (from any connection) reuses the compiled
    // propagation program.
    let k3 = client.register_template(&generators::complete_graph(3))?;
    let k2 = client.register_template(&generators::complete_graph(2))?;

    for n in [4, 5, 6, 7] {
        let sol = client.solve(k3, &generators::undirected_cycle(n))?;
        println!(
            "C{n} → K3: {} (route {:?})",
            if sol.homomorphism.is_some() {
                "3-colorable"
            } else {
                "not 3-colorable"
            },
            sol.route,
        );
    }
    // Even cycles are 2-colorable, odd ones are not.
    for n in [4, 5] {
        let sol = client.solve(k2, &generators::undirected_cycle(n))?;
        println!("C{n} → K2: {}", sol.homomorphism.is_some());
    }

    // A pipelined window: eight solves leave in one write, the server's
    // connection thread reads them together and answers them in one
    // write, and correlation ids put the answers back in order.
    let cycles: Vec<_> = (4..12).map(generators::undirected_cycle).collect();
    let colorable = client
        .solve_pipelined(k3, &cycles, 8)?
        .iter()
        .filter(|sol| sol.homomorphism.is_some())
        .count();
    println!(
        "pipelined C4..C11 → K3: {colorable}/{} 3-colorable",
        cycles.len()
    );

    // Containment queries ride the same connection.
    let contained = client.containment("Q(X) :- E(X, Y), E(Y, X).", "Q(X) :- E(X, Y).")?;
    println!("symmetric-edge query ⊑ edge query: {contained}");

    let status = client.status()?;
    println!(
        "server answered {} requests and {} solves, {} templates resident; \
         up to {} solve replies shared one write",
        status.requests, status.solves, status.templates, status.max_coalesced_jobs
    );

    server.shutdown();
    println!("drained and shut down");
    Ok(())
}
