//! In-process integration suite: a real server on an ephemeral port,
//! driven end-to-end through the blocking client (and, for the
//! malformed-frame cases, through a raw socket).
//!
//! The load-bearing property throughout is **parity**: every solution
//! that crosses the wire is bit-identical — verdict, witness, route,
//! search stats — to what a direct in-process
//! [`Session`](cqcs_core::Session) answers for the same instance.

use cqcs_core::{Route, Session};
use cqcs_cq::{contained_in, parse_query};
use cqcs_net::client::{Client, ClientError};
use cqcs_net::codec::{
    solutions_identical, ErrorCode, Request, Response, HEADER_LEN, LEGACY_HEADER_LEN,
    LEGACY_VERSION, PROTOCOL_VERSION,
};
use cqcs_net::server::{Server, ServerConfig};
use cqcs_structures::{generators, is_homomorphism, Structure, StructureBuilder};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn server_with(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

fn default_server() -> Server {
    server_with(ServerConfig::default())
}

/// A spread of digraph instances against K3: some 3-colorable, some
/// not, various routes.
fn instances() -> Vec<Structure> {
    let mut v = vec![
        generators::undirected_cycle(4),
        generators::undirected_cycle(5),
        generators::complete_graph(4),
        generators::directed_path(6),
        generators::petersen(),
    ];
    for seed in 0..6 {
        v.push(generators::random_graph_nm(7, 10, seed));
    }
    v
}

#[test]
fn solve_matches_direct_session_bit_for_bit() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let direct = Session::compile(&k3);
    for a in instances() {
        let over_wire = client.solve(id, &a).unwrap();
        let in_process = direct.solve(&a);
        assert!(
            solutions_identical(&over_wire, &in_process),
            "wire solution diverged: {over_wire:?} vs {in_process:?}"
        );
    }
    server.shutdown();
}

#[test]
fn solve_batch_matches_direct_batch() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let batch = instances();
    let over_wire = client.solve_batch(id, &batch).unwrap();
    let direct = Session::compile(&k3).solve_batch(&batch);
    assert_eq!(over_wire.len(), direct.len());
    for (w, d) in over_wire.iter().zip(direct.iter()) {
        assert!(solutions_identical(w, d));
    }
    // An empty batch is answered, not refused.
    assert!(client.solve_batch(id, &[]).unwrap().is_empty());
    server.shutdown();
}

#[test]
fn containment_matches_in_process() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cases = [
        ("Q(X) :- E(X, Y), E(Y, X).", "Q(X) :- E(X, Y)."),
        ("Q(X) :- E(X, Y).", "Q(X) :- E(X, Y), E(Y, X)."),
        ("Q(X, Y) :- E(X, Y).", "Q(X, Y) :- E(X, Y)."),
    ];
    for (q1, q2) in cases {
        let expected = contained_in(&parse_query(q1).unwrap(), &parse_query(q2).unwrap()).unwrap();
        assert_eq!(client.containment(q1, q2).unwrap(), expected, "{q1} ⊑ {q2}");
    }
    // A bad query is a structured error, not a hangup.
    match client.containment("this is not a query", "Q(X) :- E(X, Y).") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidQuery),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    // The connection is still usable afterwards.
    assert!(client.status().unwrap().requests > 0);
    server.shutdown();
}

#[test]
fn unknown_template_and_vocabulary_mismatch_are_structured_errors() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let c4 = generators::undirected_cycle(4);

    match client.solve(999, &c4) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTemplate),
        other => panic!("expected UnknownTemplate, got {other:?}"),
    }

    let id = client.register_template(&k3).unwrap();
    // An instance over a different vocabulary is refused up front —
    // this must be an error frame, never a server-side panic.
    let other_voc = generators::random_structure(3, &[2, 2], 2, 1);
    match client.solve(id, &other_voc) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::VocabularyMismatch),
        other => panic!("expected VocabularyMismatch, got {other:?}"),
    }
    // The same template still answers well-vocabularied requests.
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    server.shutdown();
}

#[test]
fn pipelined_window_is_answered_in_shared_writes() {
    // One connection submits a window of 8 solves in one flush. The
    // server reads the window together and writes the replies before
    // its next read, so solve replies share writes — and sharing a
    // write changes no answer.
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let direct = Session::compile(&k3);
    let window: Vec<Structure> = (0..8)
        .map(|seed| generators::random_graph_nm(7, 10, seed))
        .collect();
    let mut pending = HashMap::new();
    for a in &window {
        let rid = client
            .submit(&Request::Solve {
                template_id: id,
                deadline_ms: 0,
                instance: a.clone(),
            })
            .unwrap();
        pending.insert(rid, a);
    }
    for _ in 0..window.len() {
        let (rid, resp) = client.recv().unwrap();
        let a = pending.remove(&rid).expect("known id, answered once");
        let Response::Solved(sol) = resp else {
            panic!("expected Solved, got {resp:?}");
        };
        assert!(
            solutions_identical(&sol, &direct.solve(a)),
            "a shared write changed an answer"
        );
    }
    let status = client.status().unwrap();
    assert!(
        status.max_coalesced_jobs >= 2,
        "no write carried two solve replies: {status:?}"
    );
    assert!(
        status.batches < status.solves,
        "every solve reply took its own write: {status:?}"
    );
    server.shutdown();
}

#[test]
fn registry_evicts_lru_and_reports_unknown_template() {
    let server = server_with(ServerConfig {
        registry_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id_k2 = client
        .register_template(&generators::complete_graph(2))
        .unwrap();
    let id_k3 = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    // Touch K2 so K3 is the LRU victim when a third template arrives.
    let p2 = generators::directed_path(2);
    client.solve(id_k2, &p2).unwrap();
    let id_k4 = client
        .register_template(&generators::complete_graph(4))
        .unwrap();

    match client.solve(id_k3, &p2) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTemplate),
        other => panic!("expected UnknownTemplate after eviction, got {other:?}"),
    }
    assert!(client.solve(id_k2, &p2).unwrap().homomorphism.is_some());
    assert!(client.solve(id_k4, &p2).unwrap().homomorphism.is_some());

    let status = client.status().unwrap();
    assert_eq!(status.templates, 2);
    assert_eq!(status.evictions, 1);
    server.shutdown();
}

/// A template and a batch that keep a connection thread busy for tens
/// of milliseconds in an optimized build (G(8,12) against K10 runs the
/// Theorem 5.4 DP over bags of up to 10^4 rows) from an 8 KiB frame:
/// small enough that a frame sent right behind it in the same write
/// arrives in the same server read.
fn long_batch() -> (Structure, Vec<Structure>) {
    let instances = (0..40)
        .map(|seed| generators::random_graph_nm(8, 12, seed))
        .collect();
    (generators::complete_graph(10), instances)
}

fn batch_request(template_id: u64, instances: &[Structure]) -> Request {
    Request::SolveBatch {
        template_id,
        deadline_ms: 0,
        instances: instances.to_vec(),
    }
}

/// Polls `Status` until `queue_depth` reads `depth` — a solve is being
/// worked on — or fails the test after 30 s.
fn wait_for_queue_depth(client: &mut Client, depth: u32) {
    let start = Instant::now();
    while client.status().unwrap().queue_depth != depth {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "queue depth never reached {depth}"
        );
    }
}

/// Checks a `BatchSolved` reply bit for bit against the direct solve of
/// `instances` on `template`.
fn assert_batch_matches_direct(resp: Response, template: &Structure, instances: &[Structure]) {
    let Response::BatchSolved(sols) = resp else {
        panic!("expected BatchSolved, got {resp:?}");
    };
    let direct = Session::compile(template).solve_batch(instances);
    assert_eq!(sols.len(), direct.len());
    assert!(
        sols.iter()
            .zip(&direct)
            .all(|(w, d)| solutions_identical(w, d)),
        "batch diverged from the direct solve"
    );
}

#[test]
fn admission_control_refuses_overload_with_structured_error() {
    // Queue bound 1: while connection A's long batch holds the only
    // slot, connection B's solve must be refused at once with
    // Overloaded (not queued, not hung). B polls Status until the slot
    // is taken, then sends Status and Solve in one write: its
    // connection thread answers them back to back, so if that Status
    // still shows the slot taken, the Solve must be refused. A round
    // where A's batch finished in between proves nothing and is rerun.
    let server = server_with(ServerConfig {
        max_queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let (template, batch) = long_batch();
    let mut a = Client::connect(addr).unwrap();
    let id = a.register_template(&template).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "B never caught A's batch holding the slot"
        );
        let rid = a.submit(&batch_request(id, &batch)).unwrap();
        a.flush().unwrap();
        wait_for_queue_depth(&mut b, 1);
        b.submit(&Request::Status).unwrap();
        b.submit(&Request::Solve {
            template_id: id,
            deadline_ms: 0,
            instance: generators::undirected_cycle(5),
        })
        .unwrap();
        let (_, Response::Status(status)) = b.recv().unwrap() else {
            panic!("expected Status first");
        };
        let (_, probe) = b.recv().unwrap();
        // The admitted batch completes either way, bit-identical.
        let (got, resp) = a.recv().unwrap();
        assert_eq!(got, rid);
        assert_batch_matches_direct(resp, &template, &batch);
        if status.queue_depth == 1 {
            match probe {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
                other => panic!("expected Overloaded, got {other:?}"),
            }
            break;
        }
    }
    let status = b.status().unwrap();
    assert!(status.overloaded >= 1, "{status:?}");
    assert_eq!(status.queue_depth, 0, "the slot is released: {status:?}");
    server.shutdown();
}

#[test]
fn queue_deadline_expires_stale_requests() {
    // A 1 ms deadline pipelined behind a long batch on the same
    // connection: the deadline counts from the read that delivered the
    // frame, so the wait behind the batch expires it.
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (template, batch) = long_batch();
    let id = client.register_template(&template).unwrap();
    let c4 = generators::undirected_cycle(4);
    let batch_id = client.submit(&batch_request(id, &batch)).unwrap();
    let solve_id = client
        .submit(&Request::Solve {
            template_id: id,
            deadline_ms: 1,
            instance: c4.clone(),
        })
        .unwrap();
    let (got, resp) = client.recv().unwrap();
    assert_eq!(got, batch_id);
    assert_batch_matches_direct(resp, &template, &batch);
    match client.recv().unwrap() {
        (got, Response::Error { code, .. }) => {
            assert_eq!(got, solve_id);
            assert_eq!(code, ErrorCode::DeadlineExceeded);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // No-deadline requests on the same connection still succeed.
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    assert!(client.status().unwrap().deadline_expired >= 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = default_server();
    let addr = server.local_addr();
    let (template, batch) = long_batch();
    let mut a = Client::connect(addr).unwrap();
    let id = a.register_template(&template).unwrap();
    let mut poll = Client::connect(addr).unwrap();
    let rid = a.submit(&batch_request(id, &batch)).unwrap();
    a.flush().unwrap();
    let in_flight = std::thread::spawn(move || a.recv().unwrap());
    // Shutdown hits while the batch is being solved.
    wait_for_queue_depth(&mut poll, 1);
    drop(poll);
    server.shutdown();

    let (got, resp) = in_flight.join().expect("in-flight request completed");
    assert_eq!(got, rid);
    assert_batch_matches_direct(resp, &template, &batch);
    // The port is closed for new connections (or refuses service):
    // either connect fails, or the accepted socket is dropped unserved.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(&Request::Status.encode(1).unwrap());
            let mut buf = [0u8; 1];
            // A live server would answer; a shut-down one hangs up.
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "server answered after shutdown"
            );
        }
    }
}

#[test]
fn shutdown_is_not_blocked_by_a_client_stalled_mid_frame() {
    // A client that sends half a frame header and then goes silent must
    // not pin its connection thread — and therefore shutdown, which
    // joins connection threads — forever. The drain grace bounds how
    // long shutdown waits for the rest of the frame.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"CQ\x02").unwrap(); // 3 of 16 header bytes, then silence
    stalled.flush().unwrap();
    // Give the connection thread time to start reading the partial frame.
    std::thread::sleep(Duration::from_millis(100));

    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung on a stalled client: {:?}",
        start.elapsed()
    );
    drop(stalled);
}

/// Pipelines up to 1M `Status` requests (16 MB) at the server without
/// ever reading a reply, each 64 KiB write bounded by `write_timeout`.
/// Returns the socket, still open, and whether a write timed out
/// before every frame was accepted.
fn flood_without_reading(addr: SocketAddr, write_timeout: Duration) -> (TcpStream, bool) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_write_timeout(Some(write_timeout)).unwrap();
    let chunk: Vec<u8> = (0..4096)
        .flat_map(|id| Request::Status.encode(id).unwrap())
        .collect();
    for _ in 0..256 {
        match s.write_all(&chunk) {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return (s, true);
            }
            Err(e) => panic!("flood write failed: {e}"),
        }
    }
    (s, false)
}

#[test]
fn shutdown_is_not_blocked_by_a_client_that_never_reads() {
    // A client that pipelines requests and never reads the replies
    // blocks the server's reply write. That write must give up once
    // shutdown has waited the drain grace, instead of pinning the
    // connection thread — and shutdown, which joins it — forever.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let (hog, _) = flood_without_reading(server.local_addr(), Duration::from_millis(500));
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "shutdown hung behind a client that never reads"
    );
    drop(hog);
}

#[test]
fn unread_replies_apply_backpressure() {
    // The server writes a connection's replies before reading more of
    // its requests, so replies the client never reads stop the server
    // reading: the flood's writes block and time out long before all
    // 1M frames are taken, instead of every reply queueing in memory.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let (hog, blocked) = flood_without_reading(server.local_addr(), Duration::from_secs(2));
    assert!(
        blocked,
        "the server took 1M requests whose replies were never read"
    );
    drop(hog);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Raw-socket protocol conformance: what a *misbehaving* client sees.

/// Reads one v2 response frame and expects it to be a structured error,
/// returning the correlation id alongside the error.
fn read_error_frame(s: &mut TcpStream) -> (u64, ErrorCode, String) {
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header).expect("error frame header");
    let (kind, id, len) = cqcs_net::codec::parse_header(&header).expect("valid response header");
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).expect("error frame payload");
    match Response::decode_payload(kind, &payload).expect("decodable response") {
        Response::Error { code, message } => (id, code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Reads one **legacy (v1) framed** error — what the server sends to a
/// peer whose version byte it refused, in the only framing that peer
/// can be assumed to decode.
fn read_legacy_error_frame(s: &mut TcpStream) -> (ErrorCode, String) {
    let mut header = [0u8; LEGACY_HEADER_LEN];
    s.read_exact(&mut header)
        .expect("legacy error frame header");
    let (kind, len) =
        cqcs_net::codec::parse_legacy_header(&header).expect("valid v1 response header");
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload)
        .expect("legacy error frame payload");
    match Response::decode_payload(kind, &payload).expect("decodable response") {
        Response::Error { code, message } => (code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn wrong_protocol_version_is_refused() {
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Request::Status.encode(1).unwrap();
    frame[2] = PROTOCOL_VERSION + 1;
    s.write_all(&frame).unwrap();
    // The refusal is typed but legacy-framed: the server cannot assume
    // an unknown-version peer decodes v2 frames.
    let (code, _) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    // The server hangs up after a framing error (the stream cannot be
    // trusted to be in sync).
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0);
    server.shutdown();
}

#[test]
fn v1_peer_gets_structured_unsupported_version_not_desync() {
    // A well-formed *v1* frame (8-byte header, version 1, Status kind,
    // empty payload): the v2 server must answer with a typed
    // UnsupportedVersion error in v1 framing — no panic, no desync, no
    // silent hangup — and the server must keep serving v2 clients.
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut v1_frame = Vec::new();
    v1_frame.extend_from_slice(b"CQ");
    v1_frame.push(LEGACY_VERSION);
    v1_frame.push(0x05); // K_STATUS in the v1 kind space
    v1_frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&v1_frame).unwrap();
    let (code, message) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    assert!(
        message.contains('1'),
        "refusal names the offered version: {message}"
    );
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "v1 peer is hung up on");
    // The server survives: a v2 client on a fresh connection works.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().protocol_version, PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn garbage_header_is_refused_without_panic() {
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let (code, _) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::Malformed);
    // The server survives: a fresh, well-behaved connection works.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().protocol_version, PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn malformed_payload_keeps_connection_alive() {
    let server = default_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // A valid header announcing a 3-byte Solve payload that cannot
    // possibly decode (Solve needs ≥ 12 bytes of ids alone).
    let mut frame = Vec::new();
    frame.extend_from_slice(b"CQ");
    frame.push(PROTOCOL_VERSION);
    frame.push(0x02); // K_SOLVE
    frame.extend_from_slice(&77u64.to_le_bytes()); // correlation id
    frame.extend_from_slice(&3u32.to_le_bytes());
    frame.extend_from_slice(&[1, 2, 3]);
    s.write_all(&frame).unwrap();
    let (id, code, _) = read_error_frame(&mut s);
    assert_eq!(id, 77, "the refusal names the offending request");
    assert_eq!(code, ErrorCode::Malformed);
    // Framing stayed in sync, so the same connection keeps working.
    s.write_all(&Request::Status.encode(78).unwrap()).unwrap();
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header)
        .expect("status reply on same connection");
    let (kind, id, len) = cqcs_net::codec::parse_header(&header).unwrap();
    assert_eq!(id, 78);
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).unwrap();
    let resp = Response::decode_payload(kind, &payload).unwrap();
    assert!(matches!(resp, Response::Status(_)));
    server.shutdown();
}

#[test]
fn oversized_template_registration_is_refused_fast_and_connection_survives() {
    // RegisterTemplate: one empty arity-16 relation over 2^20 elements,
    // 2^24 support words. Refused at decode as Malformed, well before
    // any support index could be built, and framing stays in sync.
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u16.to_le_bytes()); // one relation
    payload.extend_from_slice(&1u16.to_le_bytes());
    payload.push(b'R');
    payload.extend_from_slice(&16u16.to_le_bytes()); // arity 16
    payload.extend_from_slice(&cqcs_net::codec::MAX_UNIVERSE.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes()); // zero tuples
    let mut frame = Vec::new();
    frame.extend_from_slice(b"CQ");
    frame.push(PROTOCOL_VERSION);
    frame.push(0x01); // K_REGISTER
    frame.extend_from_slice(&91u64.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let start = Instant::now();
    s.write_all(&frame).unwrap();
    let (id, code, message) = read_error_frame(&mut s);
    let elapsed = start.elapsed();
    assert_eq!(id, 91);
    assert_eq!(code, ErrorCode::Malformed);
    assert!(message.contains(&(16u64 << 20).to_string()), "{message}");
    assert!(
        elapsed < Duration::from_millis(250),
        "refused at decode, not after building: {elapsed:?}"
    );
    // The same connection keeps serving.
    s.write_all(&Request::Status.encode(92).unwrap()).unwrap();
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header).unwrap();
    let (kind, id, len) = cqcs_net::codec::parse_header(&header).unwrap();
    assert_eq!(id, 92);
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).unwrap();
    assert!(matches!(
        Response::decode_payload(kind, &payload).unwrap(),
        Response::Status(_)
    ));
    server.shutdown();
}

#[test]
fn template_at_the_support_cap_registers_and_serves() {
    // The cap's own example: a binary `E` of 64 arcs over MAX_UNIVERSE
    // elements charges 2 · 2^20 · ⌈64/64⌉ = 2^21 support words, exactly
    // MAX_SUPPORT_WORDS. Registration builds its support index inline on
    // the connection thread; the template then answers a directed path
    // on the Acyclic route exactly as a direct session does, and the
    // connection keeps serving.
    use cqcs_net::codec::{MAX_SUPPORT_WORDS, MAX_UNIVERSE};
    let universe = MAX_UNIVERSE as usize;
    let stride = (MAX_UNIVERSE - 1) / 64;
    let mut b = StructureBuilder::new(generators::digraph_vocabulary(), universe);
    for i in 0..64 {
        b.add_fact("E", &[i * stride, (i + 1) * stride]).unwrap();
    }
    let template = b.finish();
    assert_eq!(2 * MAX_UNIVERSE as u64, MAX_SUPPORT_WORDS);
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client.register_template(&template).unwrap();
    let path = generators::directed_path(8);
    let over_wire = client.solve(id, &path).unwrap();
    assert_eq!(over_wire.route, Route::Acyclic);
    let h = over_wire
        .homomorphism
        .as_ref()
        .expect("P8 maps into a 64-arc path");
    assert!(is_homomorphism(h.as_slice(), &path, &template));
    let in_process = Session::compile(&template).solve(&path);
    assert!(
        solutions_identical(&over_wire, &in_process),
        "wire solution diverged: {over_wire:?} vs {in_process:?}"
    );
    // The same connection registers and solves on.
    let k3 = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let c4 = client.solve(k3, &generators::undirected_cycle(4)).unwrap();
    assert!(c4.homomorphism.is_some(), "C4 → K3");
    assert_eq!(client.status().unwrap().templates, 2);
    server.shutdown();
}

#[test]
fn status_reports_protocol_and_counters() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    client.solve(id, &generators::undirected_cycle(4)).unwrap();
    client
        .solve_batch(
            id,
            &[
                generators::undirected_cycle(5),
                generators::directed_path(3),
            ],
        )
        .unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.protocol_version, PROTOCOL_VERSION);
    assert_eq!(status.templates, 1);
    assert_eq!(status.solves, 3);
    assert!(status.batches >= 2);
    assert!(status.requests >= 4);
    assert_eq!(status.queue_depth, 0, "nothing outstanding at rest");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Pipelining: correlation ids under out-of-order completion.

#[test]
fn solve_pipelined_matches_direct_session_at_every_depth() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let batch = instances();
    let direct: Vec<_> = {
        let s = Session::compile(&k3);
        batch.iter().map(|a| s.solve(a)).collect()
    };
    for depth in [1, 3, 8, 64] {
        let over_wire = client.solve_pipelined(id, &batch, depth).unwrap();
        assert_eq!(over_wire.len(), direct.len());
        for (i, (w, d)) in over_wire.iter().zip(direct.iter()).enumerate() {
            assert!(
                solutions_identical(w, d),
                "depth {depth}, instance {i}: pipelined solution diverged"
            );
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_multi_template_load_never_mismatches_correlation_ids() {
    // Several clients, each pipelining solves that alternate between
    // two templates, released simultaneously by a barrier. The client
    // pairs every response with its request by correlation id alone,
    // and every one must match the direct solution for *its own*
    // instance — a swapped id would pair a response with the wrong
    // instance and fail parity.
    let server = default_server();
    let addr = server.local_addr();
    let k3 = generators::complete_graph(3);
    let k4 = generators::complete_graph(4);
    let (id3, id4) = {
        let mut c = Client::connect(addr).unwrap();
        (
            c.register_template(&k3).unwrap(),
            c.register_template(&k4).unwrap(),
        )
    };
    let direct3 = Arc::new(Session::compile(&k3));
    let direct4 = Arc::new(Session::compile(&k4));

    let n_clients = 3;
    let per_client = 12;
    let barrier = Arc::new(Barrier::new(n_clients));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..n_clients)
        .map(|ci| {
            let barrier = Arc::clone(&barrier);
            let direct3 = Arc::clone(&direct3);
            let direct4 = Arc::clone(&direct4);
            let mismatches = Arc::clone(&mismatches);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let work: Vec<(u64, Structure)> = (0..per_client)
                    .map(|ri| {
                        let seed = (ci * per_client + ri) as u64;
                        let a = generators::random_graph_nm(7, 10, seed);
                        (if ri % 2 == 0 { id3 } else { id4 }, a)
                    })
                    .collect();
                barrier.wait();
                // Submit the whole window, remembering which id went
                // with which instance, then receive by id.
                let mut pending = std::collections::HashMap::new();
                for (tid, a) in &work {
                    let rid = c
                        .submit(&Request::Solve {
                            template_id: *tid,
                            deadline_ms: 0,
                            instance: a.clone(),
                        })
                        .unwrap();
                    pending.insert(rid, (*tid, a.clone()));
                }
                for _ in 0..work.len() {
                    let (rid, resp) = c.recv().unwrap();
                    let (tid, a) = pending.remove(&rid).expect("known id, never reused");
                    let Response::Solved(sol) = resp else {
                        panic!("expected Solved, got {resp:?}");
                    };
                    let direct = if tid == id3 {
                        direct3.solve(&a)
                    } else {
                        direct4.solve(&a)
                    };
                    if !solutions_identical(&sol, &direct) {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
                assert!(pending.is_empty(), "every submission answered exactly once");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "a response was paired with the wrong request"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Idle connections must not spin.

#[test]
fn idle_connection_does_not_inflate_wakeup_counters() {
    // Tight mid-frame interval: a connection that sits idle for less
    // than the server's 500 ms idle interval must record zero idle
    // wakeups (polling at poll_interval would show ~12 in this window).
    let server = server_with(ServerConfig {
        poll_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    });
    let mut idle = Client::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let status = idle.status().unwrap();
    assert_eq!(
        status.idle_wakeups, 0,
        "an idle connection woke the reader: {status:?}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Robustness: timeouts, truncation, chaos, self-healing, resilience.

use cqcs_net::client::ClientConfig;
use cqcs_net::resilient::{ResilientClient, RetryPolicy};
use cqcs_net::server::ChaosConfig;
use cqcs_net::transport::FaultConfig;
use std::net::TcpListener;

/// A retry policy tuned for tests: patient enough to outlast injected
/// stalls, bounded enough that a genuinely dead server fails fast.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        request_deadline: Duration::from_secs(30),
        jitter_seed: 0x7E57,
    }
}

#[test]
fn half_frame_then_silence_is_a_typed_timeout() {
    // Regression for the mid-frame hangup bug: a server that answers
    // half a response header and then stalls used to pin `recv` in a
    // blocking read forever. With a read timeout configured the client
    // must surface a typed, retryable `ClientError::Timeout`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut discard = [0u8; 256];
        let _ = s.read(&mut discard); // swallow the request
        s.write_all(b"CQ\x02\x05").unwrap(); // 4 of 16 header bytes
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1500)); // then silence
    });
    let mut client = Client::connect_with(
        addr,
        &ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match client.status() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    assert!(ClientError::Timeout.is_retryable());
    stall.join().unwrap();
}

#[test]
fn half_frame_then_close_is_a_typed_error() {
    // The hangup variant of the same bug: half a frame and then EOF
    // must decode to a typed, retryable error — never a hang, never a
    // panic, never a silent `Ok`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hangup = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut discard = [0u8; 256];
        let _ = s.read(&mut discard);
        s.write_all(b"CQ\x02\x05\x01\x00\x00").unwrap(); // 7 of 16 bytes
        s.flush().unwrap();
        // drop: close mid-frame
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client.status().expect_err("half frame then close");
    assert!(
        matches!(err, ClientError::Io(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "expected UnexpectedEof, got {err:?}"
    );
    assert!(err.is_retryable());
    hangup.join().unwrap();
}

#[test]
fn truncated_requests_at_every_cut_point_never_kill_the_server() {
    // Server-end truncation sweep: a client that dies after sending
    // every possible prefix of a valid solve frame. The server must
    // survive each one and keep answering well-behaved clients.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let frame = Request::Solve {
        template_id: id,
        deadline_ms: 0,
        instance: generators::undirected_cycle(4),
    }
    .encode(7)
    .unwrap();
    for cut in 0..frame.len() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        s.flush().unwrap();
        drop(s); // hang up mid-frame
    }
    // The full frame still works, and the server still answers.
    assert!(client
        .solve(id, &generators::undirected_cycle(4))
        .unwrap()
        .homomorphism
        .is_some());
    server.shutdown();
}

#[test]
fn truncated_responses_at_every_cut_point_are_typed_client_errors() {
    // Client-end truncation sweep: a server that hangs up after every
    // possible prefix of a valid response frame. The client must return
    // a typed error at every cut point — no panic, no hang, no bogus
    // success.
    let status_frame = {
        let server = default_server();
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe
            .write_all(&Request::Status.encode(1).unwrap())
            .unwrap();
        let mut header = [0u8; HEADER_LEN];
        probe.read_exact(&mut header).unwrap();
        let (_, _, len) = cqcs_net::codec::parse_header(&header).unwrap();
        let mut payload = vec![0u8; len as usize];
        probe.read_exact(&mut payload).unwrap();
        server.shutdown();
        let mut f = header.to_vec();
        f.extend_from_slice(&payload);
        f
    };
    for cut in 0..status_frame.len() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let prefix = status_frame[..cut].to_vec();
        let trunc = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut discard = [0u8; 256];
            let _ = s.read(&mut discard);
            s.write_all(&prefix).unwrap();
            s.flush().unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client
            .status()
            .expect_err("a truncated response must not decode");
        assert!(
            err.is_retryable(),
            "cut {cut}: truncation must be retryable, got {err:?}"
        );
        trunc.join().unwrap();
    }
}

#[test]
fn injected_panic_is_contained_to_a_typed_internal_error() {
    // panic_every = 2: solve #1 succeeds, solve #2 panics inside the
    // per-request catch_unwind while holding its admission slot and is
    // answered `Internal`, solve #3 succeeds **on the same connection**
    // — the panic cost one request its answer, not the connection its
    // life, and the slot came back.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 1,
            fault_rate: 0.0,
            accept_reset_rate: 0.0,
            panic_every: 2,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let c4 = generators::undirected_cycle(4);
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    match client.solve(id, &c4) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected Internal from the injected panic, got {other:?}"),
    }
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    let status = client.status().unwrap();
    assert_eq!(status.panics_caught, 1, "{status:?}");
    assert_eq!(status.connections_crashed, 0, "the connection must not die");
    assert_eq!(
        status.queue_depth, 0,
        "the panicked solve's slot was released on unwind"
    );
    server.shutdown();
}

#[test]
fn crashed_connection_is_contained_and_clients_recover() {
    // crash_every = 2 kills the connection thread itself on every
    // second solve — *outside* the per-request containment. Only that
    // connection drops: the resilient client reconnects and re-submits,
    // so every solve still completes with the right answer, and a
    // bystander connection opened before the crashes keeps answering.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 2,
            fault_rate: 0.0,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 2,
        }),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut bystander = Client::connect(addr).unwrap();
    assert_eq!(bystander.status().unwrap().connections_crashed, 0);
    let mut client = ResilientClient::connect(addr, ClientConfig::default(), test_retry()).unwrap();
    let k3 = generators::complete_graph(3);
    let handle = client.register_template(&k3).unwrap();
    let direct = Session::compile(&k3);
    for a in instances().into_iter().take(6) {
        let sol = client.solve(handle, &a).unwrap();
        assert!(
            solutions_identical(&sol, &direct.solve(&a)),
            "a re-submitted solve changed its answer"
        );
    }
    let status = bystander.status().unwrap();
    assert!(
        status.connections_crashed >= 2,
        "crash_every=2 over 6 solves must crash connections: {status:?}"
    );
    assert_eq!(status.queue_depth, 0, "a crash leaks no slot: {status:?}");
    server.shutdown();
}

#[test]
fn resilient_client_survives_disconnect_heavy_chaos() {
    // Server-side fault injection at a 25% rate. The server resumes a
    // read or write after an injected stall, so only a mid-frame
    // disconnect reaches the client: the run repeats the instance set
    // until one has forced a reconnect. The resilient client must
    // finish every solve with bit-identical answers, reconnecting and
    // replaying its template registrations as needed.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xC0A5,
            fault_rate: 0.25,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let k3 = generators::complete_graph(3);
    let direct = Session::compile(&k3);
    let mut client = ResilientClient::connect(
        server.local_addr(),
        ClientConfig {
            // Without a read timeout, a connection whose server-side
            // writer died to an injected fault would pin the client
            // until the server's idle poll happens to sever it.
            read_timeout: Some(Duration::from_millis(250)),
            write_timeout: Some(Duration::from_millis(250)),
            fault: None,
        },
        test_retry(),
    )
    .unwrap();
    let handle = client.register_template(&k3).unwrap();
    for _ in 0..20 {
        for a in instances() {
            let sol = client.solve(handle, &a).unwrap();
            assert!(
                solutions_identical(&sol, &direct.solve(&a)),
                "a retried solve changed its answer"
            );
        }
        if client.reconnects() > 0 {
            break;
        }
    }
    assert!(
        client.reconnects() >= 1,
        "20 passes at a 25% fault rate never disconnected: retries={} reconnects={}",
        client.retries(),
        client.reconnects()
    );
    assert!(cqcs_net::faults_injected() > 0);
    server.shutdown();
}

#[test]
fn resilient_pipelined_chaos_loses_and_duplicates_nothing() {
    // Faults on *both* ends of the wire, pipelined at depth 8: every
    // logical request must settle exactly once, in submission order,
    // bit-identical to the direct session — the exactly-once invariant
    // experiment E20 gates at scale.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xE2E,
            fault_rate: 0.10,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let k3 = generators::complete_graph(3);
    let direct = Session::compile(&k3);
    let mut client = ResilientClient::connect(
        server.local_addr(),
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            fault: Some(FaultConfig::new(0x51DE, 0.05)),
        },
        test_retry(),
    )
    .unwrap();
    let handle = client.register_template(&k3).unwrap();
    let batch = instances();
    let sols = client.solve_pipelined(handle, &batch, 8).unwrap();
    assert_eq!(sols.len(), batch.len(), "no request lost, none invented");
    for (i, (w, d)) in sols
        .iter()
        .zip(batch.iter().map(|a| direct.solve(a)))
        .enumerate()
    {
        assert!(
            solutions_identical(w, &d),
            "instance {i}: pipelined chaos solution diverged"
        );
    }
    server.shutdown();
}

#[test]
fn evicted_template_is_transparently_re_registered() {
    // A registry too small for both templates: registering the second
    // evicts the first server-side. The resilient client treats the
    // resulting UnknownTemplate as retryable, re-registers from its
    // remembered copy, and the solve succeeds without caller-visible
    // failure.
    let server = server_with(ServerConfig {
        registry_capacity: 1,
        ..ServerConfig::default()
    });
    let mut client =
        ResilientClient::connect(server.local_addr(), ClientConfig::default(), test_retry())
            .unwrap();
    let h_k3 = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let _h_k4 = client
        .register_template(&generators::complete_graph(4))
        .unwrap();
    // K3 was evicted; this solve must re-register it behind the scenes.
    let sol = client.solve(h_k3, &generators::directed_path(2)).unwrap();
    assert!(sol.homomorphism.is_some());
    assert!(client.retries() >= 1, "the eviction must have cost a retry");
    server.shutdown();
}

#[test]
fn accept_resets_are_counted_and_survivable() {
    // Half of all accepted connections are reset before a byte is
    // served. Plain clients see transport errors; the resilient client
    // gets through; Status reports the injected accept faults.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xACCE,
            fault_rate: 0.0,
            accept_reset_rate: 0.5,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Burn through enough accepts that the seeded schedule certainly
    // contains both resets and passes.
    for _ in 0..12 {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.status(); // may fail: that is the point
        }
    }
    let mut client = ResilientClient::connect(addr, ClientConfig::default(), test_retry()).unwrap();
    let status = client.status().unwrap();
    assert!(
        status.accept_faults >= 1,
        "a 50% reset rate over 12+ accepts injected nothing: {status:?}"
    );
    server.shutdown();
}

#[test]
fn retry_flagged_requests_are_counted_by_the_server() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let c4 = generators::undirected_cycle(4);
    // A retry-flagged roundtrip still solves correctly…
    let resp = client
        .roundtrip(
            &Request::Solve {
                template_id: id,
                deadline_ms: 0,
                instance: c4.clone(),
            },
            true,
        )
        .unwrap();
    assert!(matches!(resp, Response::Solved(_)));
    // …and the server's failure ledger saw the flag.
    let status = client.status().unwrap();
    assert_eq!(status.client_retries, 1, "{status:?}");
    server.shutdown();
}
