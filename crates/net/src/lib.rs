//! Network front end: serve compiled templates behind a TCP socket.
//!
//! The in-process pipeline compiles a template once
//! ([`cqcs_core::Session::compile`]) and amortizes it over many solves;
//! this crate puts that amortization behind a socket so the compile is
//! shared across **processes** too. Seven layers, bottom-up:
//!
//! * [`transport`] — the byte-stream trait both ends move bytes
//!   through: `TcpStream` is the zero-fault production instantiation,
//!   the seeded [`FaultStream`] injects a deterministic schedule of
//!   short reads/writes, latency, stalls, and mid-frame disconnects
//!   for chaos runs (experiment E20).
//! * [`codec`] — the protocol-v2 binary wire format: a 16-byte
//!   `b"CQ"`-magic header (version, kind, a client-chosen `u64`
//!   **correlation id**, payload length) followed by a fixed-width
//!   little-endian payload. The id lets a connection keep many requests
//!   in flight — responses are matched by id, not arrival order.
//!   Decoding is cursor-based over borrowed bytes and never panics on
//!   malformed input; `encode_into` variants append frames to reusable
//!   buffers for the zero-allocation hot path.
//! * [`pool`] — pooled frame buffers plus a global growth counter that
//!   *proves* the steady-state path stops allocating (gated by
//!   experiment E19).
//! * [`registry`] — the template registry: compile **and warm** once,
//!   share by `Arc`, evict least-recently-used beyond a capacity bound.
//! * [`server`] — the serving loop: one acceptor, and one thread per
//!   connection that answers each request on the thread that read it,
//!   in arrival order, through
//!   [`solve_batch`](cqcs_core::Session::solve_batch) on the thread's
//!   pooled scratch. A pipelined window arrives in one read and its
//!   replies leave in one write, made just before the next read that
//!   could block — so a peer that stops reading stops being read.
//!   Admission control bounds the solves in flight (`Overloaded`),
//!   per-request deadlines expire stale work (`DeadlineExceeded`), a
//!   panic costs one request and a crash one connection, and shutdown
//!   answers every request already read before returning. A
//!   v1-versioned peer gets a typed `UnsupportedVersion` refusal in the
//!   legacy framing it can decode — never a desync.
//! * [`client`] — a client speaking the same codec: blocking
//!   convenience calls plus a windowed [`Client::submit`]/
//!   [`Client::recv`] pipelining API (see
//!   [`Client::solve_pipelined`]), used by the examples, the
//!   integration suite, and the `cqcs-load` binary.
//! * [`resilient`] — retry/reconnect/replay over the client: a
//!   [`RetryPolicy`] (capped exponential backoff, seeded jitter,
//!   per-request deadline budget) plus a [`ResilientClient`] that
//!   remembers registered templates, replays them on reconnect, and
//!   re-submits unacknowledged pipelined requests exactly once —
//!   solves are pure functions of `(template, instance)`, so every
//!   request is idempotent and safely retryable.
//!
//! The server's responses are pinned **bit-identical** (verdict,
//! witness, route, search stats) to direct [`cqcs_core::Session::solve`]
//! calls — the integration suite and experiments E18/E19 assert it, at
//! every pipeline depth and client count — so moving a workload behind
//! the socket changes where the work runs, not what it answers.
//!
//! ```no_run
//! use cqcs_net::{client::Client, server::{Server, ServerConfig}};
//! use cqcs_structures::generators;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let k3 = generators::complete_graph(3);
//! let id = client.register_template(&k3)?;
//! let sol = client.solve(id, &generators::undirected_cycle(4))?;
//! assert!(sol.homomorphism.is_some(), "C4 → K3 (3-colorable)");
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod codec;
pub mod pool;
pub mod registry;
pub mod resilient;
pub mod server;
pub mod transport;

pub use client::{Client, ClientConfig, ClientError};
pub use codec::{
    solutions_identical, structures_identical, DecodeError, EncodeError, ErrorCode, Request,
    Response, StatusInfo, LEGACY_VERSION, MAX_PAYLOAD, MAX_UNIVERSE, PROTOCOL_VERSION,
    RETRY_ID_BIT,
};
pub use pool::frame_buf_growths;
pub use registry::TemplateRegistry;
pub use resilient::{ResilientClient, RetryPolicy, TemplateHandle};
pub use server::{ChaosConfig, Server, ServerConfig};
pub use transport::{faults_injected, FaultConfig, FaultPlan, FaultStream, Transport};
