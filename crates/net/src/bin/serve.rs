//! `cqcs-serve` — run a template-serving server on a TCP address.
//!
//! ```text
//! cqcs-serve [ADDR] [--capacity N] [--queue N]
//! ```
//!
//! `ADDR` defaults to `127.0.0.1:7878`; use port 0 for an ephemeral
//! port (the bound address is printed either way, so scripts can scrape
//! it). The server runs until the process is killed.

use cqcs_net::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: cqcs-serve [ADDR] [--capacity N] [--queue N]");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad value `{raw}`");
        usage();
    })
}

fn main() {
    let mut addr = String::from("127.0.0.1:7878");
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capacity" => cfg.registry_capacity = parse_value(&mut args, "--capacity"),
            "--queue" => cfg.max_queue_depth = parse_value(&mut args, "--queue"),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => addr = other.to_owned(),
            _ => usage(),
        }
    }
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cqcs-serve: cannot serve on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("cqcs-serve listening on {}", server.local_addr());
    server.wait();
}
