//! `cqcs-load` — load the server and report latency percentiles.
//!
//! ```text
//! cqcs-load [--clients N] [--requests N] [--pipeline K] [--cpus N]
//!           [--chaos-seed S] [--fault-rate R]
//!           [--initial-rps R --increment-rps R --target-rps R [--step-secs S]]
//! ```
//!
//! Spins up an in-process server on an ephemeral port, registers the
//! K3 template, then drives it in one of two modes:
//!
//! * **Fixed** (default): `--clients` concurrent connections each issue
//!   `--requests` solve requests over random graph instances, with up
//!   to `--pipeline` requests in flight per connection (depth 1 is the
//!   old strict request/response behavior).
//! * **Ramp** (when `--initial-rps/--increment-rps/--target-rps` are
//!   given): a single connection runs an open-loop paced load, stepping
//!   the offered rate from initial to target by increment, holding each
//!   step for `--step-secs`. Each step reports offered vs achieved
//!   rate and p50/p95/p99 latency, so the knee where the server stops
//!   keeping up is visible in one run. In-flight is capped at
//!   `--pipeline` — when the cap is hit the pacer blocks on a
//!   response, making overload show up as achieved < offered instead
//!   of unbounded queueing.
//!
//! With `--fault-rate R > 0` the fixed mode becomes a **chaos run**:
//! the server wraps every accepted connection in a seeded
//! [`cqcs_net::FaultStream`] (plus accept-time resets, scheduled
//! solve panics and connection crashes), each client wraps its own
//! stream at half the rate, and the client threads switch to
//! [`cqcs_net::ResilientClient`].
//! The run then checks the failure-model contract, not just parity:
//! every request must terminate in a solution or a typed error, none
//! may be lost or answered twice, and every successful answer must
//! still be bit-identical to the direct solve. `--chaos-seed` makes
//! the whole fault schedule replayable.
//!
//! Either way every networked solution is compared bit-for-bit against
//! a direct in-process `Session` solve of the same instance, and any
//! mismatch exits nonzero. Honesty rule (same as experiment E15): runs
//! on a single CPU are marked **overhead-only** — with no parallelism
//! the numbers measure protocol and scheduling overhead, not speedup.

use cqcs_core::{Session, Solution};
use cqcs_net::client::{Client, ClientConfig};
use cqcs_net::codec::{solutions_identical, Request, Response};
use cqcs_net::resilient::{ResilientClient, RetryPolicy};
use cqcs_net::server::{ChaosConfig, Server, ServerConfig};
use cqcs_net::transport::FaultConfig;
use cqcs_structures::{generators, Structure};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn parse_value<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let raw = args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad value `{raw}`");
        std::process::exit(2);
    })
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn solve_request(template_id: u64, a: &Structure) -> Request {
    Request::Solve {
        template_id,
        deadline_ms: 0,
        instance: a.clone(),
    }
}

fn expect_solved(resp: Response) -> Solution {
    match resp {
        Response::Solved(sol) => sol,
        Response::Error { code, message } => panic!("server error {code:?}: {message}"),
        other => panic!("expected Solved, got {other:?}"),
    }
}

/// Drives `instances` through one connection with up to `depth`
/// requests in flight, returning per-request (instance index, latency,
/// solution). Latency is submit→receive for that request's id, so
/// queueing behind the window is included — the honest client view.
fn run_pipelined(
    c: &mut Client,
    template_id: u64,
    instances: &[Structure],
    depth: usize,
) -> Vec<(usize, Duration, Solution)> {
    let depth = depth.max(1);
    let mut out = Vec::with_capacity(instances.len());
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(depth);
    let mut next = 0usize;
    while next < instances.len() || !pending.is_empty() {
        while next < instances.len() && pending.len() < depth {
            let id = c
                .submit(&solve_request(template_id, &instances[next]))
                .expect("submit");
            pending.insert(id, (next, Instant::now()));
            next += 1;
        }
        let (id, resp) = c.recv().expect("recv");
        let (ix, t0) = pending.remove(&id).expect("known id");
        out.push((ix, t0.elapsed(), expect_solved(resp)));
    }
    out
}

/// Client-side chaos setup: wrap the client stream at half the server's
/// fault rate (each end sees its own seeded schedule), with socket
/// timeouts so a wedged connection surfaces as a typed `Timeout`
/// instead of pinning a retry attempt.
fn chaos_client_config(chaos_seed: u64, fault_rate: f64, client_ix: u64) -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_millis(250)),
        write_timeout: Some(Duration::from_millis(250)),
        fault: Some(FaultConfig::new(
            chaos_seed ^ client_ix.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            fault_rate / 2.0,
        )),
    }
}

fn chaos_retry(chaos_seed: u64, client_ix: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        request_deadline: Duration::from_secs(60),
        jitter_seed: chaos_seed.wrapping_add(client_ix),
    }
}

struct RampStep {
    offered_rps: f64,
    achieved_rps: f64,
    sent: usize,
    latencies: Vec<Duration>,
}

/// Pacing knobs for one [`ramp_step`].
struct RampPace {
    /// Offered request rate.
    rps: f64,
    /// How long the step holds that rate.
    hold: Duration,
    /// Maximum requests in flight before the pacer blocks on a recv.
    depth: usize,
    /// Instance-seed offset so steps never repeat instances.
    seed_base: u64,
}

/// One open-loop ramp step: submit at a fixed pace for `pace.hold`,
/// blocking on a response whenever `pace.depth` requests are in flight.
fn ramp_step(
    c: &mut Client,
    template_id: u64,
    direct: &Session,
    pace: &RampPace,
    mismatches: &mut usize,
) -> RampStep {
    let RampPace {
        rps,
        hold,
        depth,
        seed_base,
    } = *pace;
    let interval = Duration::from_secs_f64(1.0 / rps);
    let start = Instant::now();
    let mut pending: HashMap<u64, (Structure, Instant)> = HashMap::new();
    let mut latencies = Vec::new();
    let mut sent = 0usize;
    let check = |sol: Solution, a: &Structure, mismatches: &mut usize| {
        if !solutions_identical(&sol, &direct.solve(a)) {
            *mismatches += 1;
        }
    };
    while start.elapsed() < hold {
        let due = start + interval.mul_f64(sent as f64);
        // Pace in short slices, draining responses as they arrive so
        // latency is the true round trip, not "when the pacer next
        // bothered to read".
        loop {
            while let Some((id, resp)) = c.try_recv().expect("recv") {
                let (a, t0) = pending.remove(&id).expect("known id");
                latencies.push(t0.elapsed());
                check(expect_solved(resp), &a, mismatches);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(1)));
        }
        while pending.len() >= depth.max(1) {
            let (id, resp) = c.recv().expect("recv");
            let (a, t0) = pending.remove(&id).expect("known id");
            latencies.push(t0.elapsed());
            check(expect_solved(resp), &a, mismatches);
        }
        let a = generators::random_graph_nm(8, 12, seed_base + sent as u64);
        let id = c.submit(&solve_request(template_id, &a)).expect("submit");
        pending.insert(id, (a, Instant::now()));
        sent += 1;
    }
    // Drain the tail so steps don't bleed into each other.
    while !pending.is_empty() {
        let (id, resp) = c.recv().expect("recv");
        let (a, t0) = pending.remove(&id).expect("known id");
        latencies.push(t0.elapsed());
        check(expect_solved(resp), &a, mismatches);
    }
    let elapsed = start.elapsed();
    latencies.sort();
    RampStep {
        offered_rps: rps,
        achieved_rps: sent as f64 / elapsed.as_secs_f64(),
        sent,
        latencies,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut clients = 4usize;
    let mut requests = 64usize;
    let mut pipeline = 1usize;
    let mut cpus: Option<usize> = None;
    let mut chaos_seed = 0xC0A5u64;
    let mut fault_rate = 0.0f64;
    let mut initial_rps: Option<f64> = None;
    let mut increment_rps: Option<f64> = None;
    let mut target_rps: Option<f64> = None;
    let mut step_secs = 2.0f64;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = parse_value(&mut args, "--clients"),
            "--requests" => requests = parse_value(&mut args, "--requests"),
            "--pipeline" => pipeline = parse_value(&mut args, "--pipeline"),
            "--cpus" => cpus = Some(parse_value(&mut args, "--cpus")),
            "--chaos-seed" => chaos_seed = parse_value(&mut args, "--chaos-seed"),
            "--fault-rate" => fault_rate = parse_value(&mut args, "--fault-rate"),
            "--initial-rps" => initial_rps = Some(parse_value(&mut args, "--initial-rps")),
            "--increment-rps" => increment_rps = Some(parse_value(&mut args, "--increment-rps")),
            "--target-rps" => target_rps = Some(parse_value(&mut args, "--target-rps")),
            "--step-secs" => step_secs = parse_value(&mut args, "--step-secs"),
            _ => {
                eprintln!(
                    "usage: cqcs-load [--clients N] [--requests N] [--pipeline K] [--cpus N] \
                     [--chaos-seed S] [--fault-rate R] \
                     [--initial-rps R --increment-rps R --target-rps R [--step-secs S]]"
                );
                std::process::exit(2);
            }
        }
    }
    let ramp = match (initial_rps, increment_rps, target_rps) {
        (Some(i), Some(s), Some(t)) => Some((i, s, t)),
        (None, None, None) => None,
        _ => {
            eprintln!("ramp mode needs all of --initial-rps, --increment-rps, --target-rps");
            std::process::exit(2);
        }
    };
    let cpus = cpus.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });

    if fault_rate > 0.0 && ramp.is_some() {
        eprintln!("chaos mode (--fault-rate > 0) does not combine with ramp mode");
        std::process::exit(2);
    }
    let cfg = ServerConfig {
        chaos: (fault_rate > 0.0).then(|| ChaosConfig {
            seed: chaos_seed,
            fault_rate,
            accept_reset_rate: fault_rate / 4.0,
            panic_every: 13,
            crash_every: 17,
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let template = generators::complete_graph(3);

    // One registration shared by every client connection.
    let template_id = {
        let mut c = Client::connect(addr).expect("connect");
        c.register_template(&template).expect("register")
    };

    let honesty = if cpus <= 1 {
        " [cpus=1: overhead-only — no parallel speedup is claimable]"
    } else {
        ""
    };

    let mut mismatches = 0usize;
    let total;
    let mut latencies = Vec::new();
    let elapsed;
    if let Some((initial, increment, target)) = ramp {
        println!(
            "cqcs-load ramp: {initial}→{target} rps by {increment}, {step_secs} s/step, \
             pipeline {pipeline}, cpus={cpus}{honesty}"
        );
        let mut c = Client::connect(addr).expect("connect");
        let direct = Session::compile(&template);
        let start = Instant::now();
        let mut rps = initial;
        let mut sent_total = 0usize;
        let mut step_ix = 0u64;
        while rps <= target + 1e-9 {
            let step = ramp_step(
                &mut c,
                template_id,
                &direct,
                &RampPace {
                    rps,
                    hold: Duration::from_secs_f64(step_secs),
                    depth: pipeline,
                    seed_base: step_ix * 1_000_000,
                },
                &mut mismatches,
            );
            println!(
                "  step {:>7.1} rps offered | {:>7.1} achieved | {} reqs | \
                 p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
                step.offered_rps,
                step.achieved_rps,
                step.sent,
                percentile(&step.latencies, 0.50).as_secs_f64() * 1e3,
                percentile(&step.latencies, 0.95).as_secs_f64() * 1e3,
                percentile(&step.latencies, 0.99).as_secs_f64() * 1e3,
            );
            sent_total += step.sent;
            latencies.extend(step.latencies);
            rps += increment.max(1e-9);
            step_ix += 1;
        }
        elapsed = start.elapsed();
        total = sent_total;
    } else if fault_rate > 0.0 {
        println!(
            "cqcs-load chaos: {clients} clients x {requests} requests, fault rate {fault_rate}, \
             seed {chaos_seed:#x}, pipeline {pipeline}, cpus={cpus}{honesty}"
        );
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let template = template.clone();
                std::thread::spawn(move || {
                    let mut c = ResilientClient::connect(
                        addr,
                        chaos_client_config(chaos_seed, fault_rate, ci as u64),
                        chaos_retry(chaos_seed, ci as u64),
                    )
                    .expect("resilient connect");
                    let handle = c.register_template(&template).expect("register");
                    let direct = Session::compile(&template);
                    let mut latencies = Vec::with_capacity(requests);
                    let mut mismatches = 0usize;
                    let (mut ok, mut typed_err) = (0usize, 0usize);
                    let t0 = Instant::now();
                    for ri in 0..requests {
                        let a = generators::random_graph_nm(8, 12, (ci * requests + ri) as u64);
                        let r0 = Instant::now();
                        match c.solve(handle, &a) {
                            Ok(sol) => {
                                latencies.push(r0.elapsed());
                                ok += 1;
                                if !solutions_identical(&sol, &direct.solve(&a)) {
                                    mismatches += 1;
                                }
                            }
                            Err(_) => {
                                latencies.push(r0.elapsed());
                                typed_err += 1;
                            }
                        }
                    }
                    let elapsed = t0.elapsed();
                    (
                        elapsed,
                        latencies,
                        mismatches,
                        ok,
                        typed_err,
                        c.retries() + c.reconnects(),
                        c.duplicates(),
                    )
                })
            })
            .collect();
        let mut wire_elapsed = Duration::ZERO;
        let (mut ok, mut typed_err) = (0usize, 0usize);
        let (mut retries, mut duplicates) = (0u64, 0u64);
        for h in handles {
            let (e, l, m, o, te, r, d) = h.join().expect("client thread");
            wire_elapsed = wire_elapsed.max(e);
            latencies.extend(l);
            mismatches += m;
            ok += o;
            typed_err += te;
            retries += r;
            duplicates += d;
        }
        elapsed = wire_elapsed;
        total = clients * requests;
        let lost = total - ok - typed_err;
        println!(
            "chaos contract: {ok} ok, {typed_err} typed errors, {lost} lost, \
             {duplicates} duplicated, {retries} retries+reconnects, {} faults injected",
            cqcs_net::faults_injected()
        );
        if lost > 0 || duplicates > 0 {
            println!("chaos contract VIOLATED: lost={lost} duplicated={duplicates}");
            std::process::exit(1);
        }
    } else {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let template = template.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let direct = Session::compile(&template);
                    let instances: Vec<Structure> = (0..requests)
                        .map(|ri| generators::random_graph_nm(8, 12, (ci * requests + ri) as u64))
                        .collect();
                    // Time only the wire section; the parity re-solve
                    // below costs a full solve per instance and must
                    // not be billed to the server.
                    let t0 = Instant::now();
                    let results = run_pipelined(&mut c, template_id, &instances, pipeline);
                    let wire_elapsed = t0.elapsed();
                    let mut latencies = Vec::with_capacity(requests);
                    let mut mismatches = 0usize;
                    for (ix, latency, sol) in results {
                        latencies.push(latency);
                        if !solutions_identical(&sol, &direct.solve(&instances[ix])) {
                            mismatches += 1;
                        }
                    }
                    (wire_elapsed, latencies, mismatches)
                })
            })
            .collect();
        let mut wire_elapsed = Duration::ZERO;
        for h in handles {
            let (e, l, m) = h.join().expect("client thread");
            wire_elapsed = wire_elapsed.max(e);
            latencies.extend(l);
            mismatches += m;
        }
        elapsed = wire_elapsed;
        total = clients * requests;
        println!(
            "cqcs-load: {total} solves over {clients} clients (pipeline {pipeline}) \
             in {:.3} s  ({:.1} req/s)  cpus={cpus}{honesty}",
            elapsed.as_secs_f64(),
            total as f64 / elapsed.as_secs_f64()
        );
    }
    latencies.sort();

    let status = if fault_rate > 0.0 {
        ResilientClient::connect(
            addr,
            chaos_client_config(chaos_seed, fault_rate, u64::MAX),
            chaos_retry(chaos_seed, u64::MAX),
        )
        .expect("resilient connect")
        .status()
        .expect("status")
    } else {
        let mut c = Client::connect(addr).expect("connect");
        c.status().expect("status")
    };
    server.shutdown();

    println!(
        "latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  ({} reqs in {:.3} s)",
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.95).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
        total,
        elapsed.as_secs_f64(),
    );
    if fault_rate > 0.0 {
        println!(
            "server failure ledger: {} panics caught, {} connections crashed, \
             {} accept faults, {} transient / {} fatal accept errors, {} retry-flagged requests",
            status.panics_caught,
            status.connections_crashed,
            status.accept_faults,
            status.accept_transient_errors,
            status.accept_fatal_errors,
            status.client_retries,
        );
    }
    println!(
        "server: {} solves answered in {} writes, at most {} per write, {} overloaded, \
         {} idle wakeups",
        status.solves,
        status.batches,
        status.max_coalesced_jobs,
        status.overloaded,
        status.idle_wakeups,
    );
    if mismatches == 0 {
        println!("parity: all {total} networked solutions identical to direct solves");
    } else {
        println!("parity: {mismatches} MISMATCHES out of {total}");
        std::process::exit(1);
    }
}
