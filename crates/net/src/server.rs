//! The serving loop: one acceptor thread, and one thread per connection
//! that answers each request on the thread that read it.
//!
//! ```text
//!                 ┌────────────┐   accept   ┌─────────────────────────────────┐
//!  TCP clients ──▶│  acceptor  │──────────▶│ connection thread               │
//!                 └────────────┘            │  read one chunk (a pipelined    │
//!                                           │  window) into a 64 KiB buffer;  │
//!                                           │  per frame, in arrival order:   │
//!                                           │   decode → catch_unwind(admit → │
//!                                           │   solve / answer) → encode into │
//!                                           │   the output buffer;            │
//!                                           │  write the output buffer just   │
//!                                           │  before any read that may block │
//!                                           └─────────────────────────────────┘
//! ```
//!
//! * **Pipelining.** A client may keep many requests in flight. The
//!   connection thread parses them out of its chunk buffer and answers
//!   them in arrival order; each reply echoes the correlation id the
//!   client chose (protocol v2), so clients match by id and never by
//!   position. A v1-versioned frame is answered with a **v1-framed**
//!   `UnsupportedVersion` error the old peer can decode, then the
//!   connection closes — typed refusal, no desync.
//! * **One write per window.** Replies are encoded into a per-connection
//!   output buffer, and that buffer is written just before any read
//!   that could block (or once it holds 1 MiB of replies); the thread
//!   then yields its CPU once, so a client sharing that CPU sends its
//!   next window before the read. A
//!   client's pipelined window arrives in one read and its replies
//!   leave in one write. `Status` counts a write that carried solve
//!   replies as one `batches`, and `max_coalesced_jobs` is the most
//!   solve replies one write carried.
//! * **Backpressure.** Because the thread writes before it reads, a
//!   peer that stops reading its replies blocks the write, and the
//!   thread stops reading that peer's requests. Unread replies cost
//!   the server at most one output buffer per connection, never a
//!   queue.
//! * **Pooled buffers.** The chunk buffer, the payload buffer and the
//!   output buffer live as long as the connection ([`crate::pool`]); at
//!   steady state a solve round-trip allocates no frame buffers on the
//!   server at all (experiment E19 gates this via the pool's growth
//!   counter). Decoding keeps one vocabulary per connection the same
//!   way: the connection thread's
//!   [`RequestDecoder`](crate::codec::RequestDecoder) hands every
//!   instance that repeats the last vocabulary the same `Arc`.
//! * **Admission control.** At most `max_queue_depth` solves are
//!   admitted and not yet answered across all connections; a solve
//!   beyond that is answered [`ErrorCode::Overloaded`]. Requests may
//!   carry a deadline, counted from the read that delivered the frame
//!   to the start of its solve: a request pipelined behind a slow one
//!   is charged its wait, and one that waited past its `deadline_ms` is
//!   answered [`ErrorCode::DeadlineExceeded`] instead of being solved
//!   late.
//! * **Idle connections sleep.** A connection waiting for the *first*
//!   byte of a frame polls every 500 ms; only mid-frame reads and reply
//!   writes poll at [`ServerConfig::poll_interval`], so the shutdown
//!   drain grace keeps its bound. The timeout is set before
//!   each read and changes only when that read waits for something
//!   else, so frames that each arrive in one read cost no `setsockopt`.
//!   Pure idle wakeups are counted (`StatusInfo::idle_wakeups`) and
//!   pinned low by a test.
//! * **Graceful shutdown.** [`Server::shutdown`] stops the acceptor and
//!   joins every connection thread. Each one answers every request it
//!   has already read, finishes a frame it started, and writes its
//!   replies; waiting on a peer that stalls mid-frame or stops reading
//!   is bounded by [`ServerConfig::shutdown_drain_grace`].
//! * **Containment.** Every request is handled inside one
//!   `catch_unwind`: a panic costs that request a typed
//!   [`ErrorCode::Internal`] reply and bumps `panics_caught`, whatever
//!   its kind. A panic outside that boundary (a crash) unwinds the
//!   connection thread to a second `catch_unwind`, which counts
//!   `connections_crashed`; the socket closes and only that peer is
//!   affected. A resilient client reconnects and re-submits. Accept
//!   errors are split transient/fatal, and the whole failure ledger is
//!   visible in `Status`. See ARCHITECTURE.md's "Failure model".
//!   Deterministic chaos (fault-injected connections, accept-time
//!   resets, scheduled panics and crashes) is switched by
//!   [`ServerConfig::chaos`] and exercised by experiment E20.
//!
//! Registration pre-builds the template's propagation program and the
//! support index it owns **before** taking the registry lock
//! ([`CompiledTemplate::warm`]), so the first solve against a fresh
//! template pays a hash probe, not a compile.

use crate::codec::{
    legacy_error_frame, parse_header, parse_header_prefix, DecodeError, ErrorCode, Request,
    Response, StatusInfo, HEADER_LEN, LEGACY_HEADER_LEN, PROTOCOL_VERSION, RETRY_ID_BIT,
};
use crate::pool;
use crate::registry::TemplateRegistry;
use crate::transport::{FaultConfig, FaultStream, Transport};
use cqcs_core::{CompiledTemplate, Session, Solution};
use cqcs_cq::{contained_in, parse_query};
use cqcs_structures::Structure;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic fault injection for chaos runs, carried by
/// [`ServerConfig::chaos`]. `None`/zeroed fields are the production
/// path; every knob is driven by the seed so a chaos run replays
/// bit-identically.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed. The acceptor derives per-connection
    /// [`FaultConfig`] seeds and its own accept-reset schedule from it.
    pub seed: u64,
    /// Per-operation fault probability for the [`FaultStream`] wrapped
    /// around every accepted connection (0 = do not wrap).
    pub fault_rate: f64,
    /// Probability an accepted connection is reset on the spot before
    /// any byte is served (counted in `StatusInfo::accept_faults`).
    pub accept_reset_rate: f64,
    /// Every Nth admitted solve panics **inside** the per-request
    /// `catch_unwind`, holding its admission slot (0 = never):
    /// exercises panic containment — the request gets a typed
    /// `Internal` error, the slot is released, the connection lives.
    pub panic_every: u64,
    /// Every Nth solve request panics **outside** the per-request
    /// boundary (0 = never), on its connection thread: exercises crash
    /// containment — that connection drops, every other one keeps
    /// serving, and a resilient client reconnects and re-submits.
    pub crash_every: u64,
}

impl ChaosConfig {
    /// A chaos config where every probabilistic knob runs at
    /// `fault_rate` faults per op, resets at a quarter of that, and
    /// deterministic panic/crash injection stays off.
    pub fn new(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate,
            accept_reset_rate: fault_rate / 4.0,
            panic_every: 0,
            crash_every: 0,
        }
    }
}

/// Tunables for [`Server::bind`]. `Default` is sized for tests and
/// small deployments; the serve binary exposes the deployment knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum templates resident in the registry (LRU beyond this);
    /// at least 1, or [`Server::bind`] refuses the config.
    pub registry_capacity: usize,
    /// Maximum solves admitted and not yet answered, summed over all
    /// connections; beyond this new solves are refused with
    /// `Overloaded`. At least 1, or [`Server::bind`] refuses the config.
    pub max_queue_depth: usize,
    /// Granularity at which blocked reads re-check the shutdown flag
    /// once a frame has started arriving, and at which a reply write
    /// the peer is not taking re-checks it. Nonzero, or
    /// [`Server::bind`] refuses the config.
    pub poll_interval: Duration,
    /// How long, once shutdown begins, a connection keeps waiting for
    /// the rest of a frame it already started reading, or for its peer
    /// to take the replies it owes. A well-behaved client finishes
    /// within the grace; a stalled one (a partial frame then silence,
    /// or replies it never reads) is cut off so [`Server::shutdown`]
    /// cannot block on it forever.
    pub shutdown_drain_grace: Duration,
    /// Deterministic fault injection; `None` (the default) is the
    /// production path with no chaos machinery on any hot path.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry_capacity: 64,
            max_queue_depth: 1024,
            poll_interval: Duration::from_millis(25),
            shutdown_drain_grace: Duration::from_millis(1000),
            chaos: None,
        }
    }
}

/// Granularity at which a connection waiting for the *first* byte of a
/// frame re-checks the shutdown flag. Much wider than
/// [`ServerConfig::poll_interval`]: an idle connection has nothing to
/// drain, so waking it 40×/s is pure overhead. The cost is shutdown
/// noticing idle connections this much later, never correctness.
const IDLE_POLL_INTERVAL: Duration = Duration::from_millis(500);

/// Bound on a connection's pending reply bytes: once the output buffer
/// holds this much it is written at once, even if more frames are
/// already buffered, so one window's replies go out in one syscall
/// without unbounded buffering.
const MAX_WRITE_BATCH: usize = 1 << 20;

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    batches: AtomicU64,
    coalesced_jobs: AtomicU64,
    max_coalesced_jobs: AtomicU64,
    overloaded: AtomicU64,
    deadline_expired: AtomicU64,
    idle_wakeups: AtomicU64,
    panics_caught: AtomicU64,
    connections_crashed: AtomicU64,
    accept_faults: AtomicU64,
    accept_transient_errors: AtomicU64,
    accept_fatal_errors: AtomicU64,
    client_retries: AtomicU64,
    /// Events counted by the chaos schedules: solve requests
    /// (`ChaosConfig::crash_every`) and admitted solves (`panic_every`).
    chaos_crash_seq: AtomicU64,
    chaos_panic_seq: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    registry: Mutex<TemplateRegistry>,
    /// Solves admitted and not yet answered, across all connections
    /// (the admission bound).
    outstanding: AtomicUsize,
    /// Cleared when shutdown begins: the acceptor stops accepting and
    /// connections stop reading *new* requests.
    accepting: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Shared {
        Shared {
            registry: Mutex::new(TemplateRegistry::new(cfg.registry_capacity)),
            outstanding: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            counters: Counters::default(),
            cfg,
        }
    }
}

/// A running server. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (which drains in-flight work) — dropping the
/// handle shuts down the same way.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port) and starts
    /// the acceptor thread.
    ///
    /// # Errors
    /// `InvalidInput`, before anything is bound, if
    /// `cfg.registry_capacity` is 0 (a registry with no room for a
    /// template), `cfg.max_queue_depth` is 0 (every solve would be
    /// refused), or `cfg.poll_interval` is zero (`std` refuses a zero
    /// socket timeout, so reads would never wake to notice shutdown);
    /// otherwise whatever binding the listener returns.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Server> {
        let zero = [
            ("registry_capacity", cfg.registry_capacity == 0),
            ("max_queue_depth", cfg.max_queue_depth == 0),
            ("poll_interval", cfg.poll_interval.is_zero()),
        ];
        if let Some((field, _)) = zero.iter().find(|(_, is_zero)| *is_zero) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("{field} must be nonzero"),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || acceptor_loop(&listener, &shared, &connections))
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (resolves the actual port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, answers every request already read, joins all
    /// threads. Blocks until the last owed reply is written (or its
    /// peer has had the drain grace to take it).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks until the acceptor thread exits, then shuts down as
    /// [`Server::shutdown`] does. Only a panic in the acceptor ends it
    /// (shutting down needs the handle this call consumes), so in
    /// practice this serves until the process is killed: the serve
    /// binary's main loop.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // 1. Stop admitting connections and new requests.
        self.shared.accepting.store(false, Ordering::SeqCst);
        // 2. Wake the acceptor's blocking accept() with a throwaway
        //    connection and join it.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 3. Join the connection threads. Each answers the frames it
        //    has read, writes its replies, and exits at its next frame
        //    boundary.
        let conns = std::mem::take(
            &mut *self
                .connections
                .lock()
                .expect("no thread panics holding the connection list"),
        );
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Accept errors that name a moment, not a broken listener: the peer
/// aborted its half-open connection, a signal landed, or a nonblocking
/// accept had nothing ready. Retrying after `poll_interval` is correct.
/// Anything else (EMFILE, EBADF, ...) is counted as fatal — the
/// acceptor still only backs off and retries (a file-descriptor squeeze
/// can pass), but the two classes are tallied separately in `Status` so
/// an operator can tell bad weather from breakage.
fn accept_error_is_transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::WouldBlock
            | ErrorKind::TimedOut
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::Interrupted
    )
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // The accept-time chaos schedule: one reset draw per accepted
    // connection, plus a derived per-connection fault seed. Seeded off
    // the master chaos seed so the whole acceptor replays exactly.
    let mut chaos_rng = shared
        .cfg
        .chaos
        .as_ref()
        .map(|c| StdRng::seed_from_u64(c.seed ^ 0xACCE_9705));
    let mut accepted: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                // Either class must back off, never busy-spin.
                if !shared.accepting.load(Ordering::SeqCst) {
                    return;
                }
                let counter = if accept_error_is_transient(e.kind()) {
                    &shared.counters.accept_transient_errors
                } else {
                    &shared.counters.accept_fatal_errors
                };
                counter.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(shared.cfg.poll_interval);
                continue;
            }
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            // The wake-up poke (or a straggler): refuse politely.
            return;
        }
        accepted += 1;
        let transport: Box<dyn Transport> = match (&shared.cfg.chaos, &mut chaos_rng) {
            (Some(chaos), Some(rng)) => {
                if chaos.accept_reset_rate > 0.0 && rng.gen_bool(chaos.accept_reset_rate) {
                    // Injected accept-time reset: the client sees the
                    // connection die before its first byte is served.
                    shared
                        .counters
                        .accept_faults
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                if chaos.fault_rate > 0.0 {
                    let seed = chaos
                        .seed
                        .wrapping_add(accepted.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    Box::new(FaultStream::new(
                        stream,
                        FaultConfig::new(seed, chaos.fault_rate),
                    ))
                } else {
                    Box::new(stream)
                }
            }
            _ => Box::new(stream),
        };
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || connection_main(&shared, transport));
        let mut conns = connections
            .lock()
            .expect("no thread panics holding the connection list");
        // Reap threads whose connections already ended so a long-running
        // server does not accumulate one handle per connection ever made.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Whether a socket operation gave up because its timeout fired
/// (platforms report either kind).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Called when a mid-frame read or a reply write timed out: keep
/// waiting while the server accepts; once shutdown begins, wait at most
/// [`ServerConfig::shutdown_drain_grace`] more (`grace_end` starts that
/// clock). A peer that stalls mid-frame, or stops reading its replies,
/// must not pin the connection thread — and so [`Server::shutdown`],
/// which joins it — forever.
fn drain_grace_spent(shared: &Shared, grace_end: &mut Option<Instant>) -> bool {
    if shared.accepting.load(Ordering::SeqCst) {
        return false;
    }
    let end = *grace_end.get_or_insert_with(|| Instant::now() + shared.cfg.shutdown_drain_grace);
    Instant::now() >= end
}

/// Moves exactly `len` bytes through `op` — a read or a write resuming
/// at the offset it is given — on a socket whose timeout is
/// `poll_interval`. A timeout resumes the transfer where it stopped,
/// until [`drain_grace_spent`] gives up.
fn transfer_polled(
    shared: &Shared,
    len: usize,
    mut op: impl FnMut(usize) -> std::io::Result<usize>,
) -> std::io::Result<()> {
    let mut done = 0usize;
    let mut grace_end: Option<Instant> = None;
    while done < len {
        match op(done) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-transfer",
                ));
            }
            Ok(n) => done += n,
            Err(e) if timed_out(&e) => {
                if drain_grace_spent(shared, &mut grace_end) {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "peer stalled during shutdown",
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// How much a connection reads per syscall: one chunk usually carries a
/// pipelined window's worth of small frames, so the steady-state cost
/// is ~one read per window instead of three per frame.
const READ_CHUNK: usize = 64 * 1024;

/// Which read timeout is currently installed on the socket. It is set
/// right before each read, to what that read waits for: idle while no
/// byte of the frame has arrived, poll for the rest of a frame that
/// started. Tracking it makes a `setsockopt` happen only when the mode
/// changes, so a connection whose frames each arrive whole in one read
/// stays idle and pays no `setsockopt` at steady state; a frame split
/// across reads pays two (poll for its blocking mid-frame read, then
/// idle again at the next frame).
#[derive(PartialEq, Clone, Copy)]
enum TimeoutMode {
    Unset,
    Idle,
    Poll,
}

/// One connection's stream and buffers. Frames are parsed out of a
/// fixed chunk buffer allocated once per connection, and only payload
/// bytes beyond the chunk fall back to direct reads. Replies are
/// encoded into `out`, which is written just before any socket read,
/// so the thread never waits for requests while it owes replies. The
/// idle/poll timeout split lives here too: waiting for a frame's
/// *first* byte uses the wide [`IDLE_POLL_INTERVAL`]
/// (wakeups counted), anything mid-frame the tight
/// [`ServerConfig::poll_interval`] so the shutdown drain grace keeps
/// its bound.
struct Connection {
    stream: Box<dyn Transport>,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    mode: TimeoutMode,
    /// When the latest socket read returned bytes: the arrival time of
    /// every frame that read completed, which deadlines count from.
    last_read: Instant,
    /// Encoded replies not yet written.
    out: Vec<u8>,
    /// Solve replies in `out`, for the batch counters.
    solve_replies: u64,
}

impl Connection {
    fn new(stream: Box<dyn Transport>) -> Connection {
        Connection {
            stream,
            buf: vec![0u8; READ_CHUNK],
            start: 0,
            end: 0,
            mode: TimeoutMode::Unset,
            last_read: Instant::now(),
            // Sized up front so window-size jitter cannot trigger
            // mid-run growth: a window of small replies fits, and the
            // pool's growth counter stays flat in steady state.
            out: Vec::with_capacity(READ_CHUNK),
            solve_replies: 0,
        }
    }

    fn available(&self) -> usize {
        self.end - self.start
    }

    /// The next `n` buffered bytes, without consuming them.
    fn peek(&self, n: usize) -> &[u8] {
        &self.buf[self.start..self.start + n]
    }

    /// Consumes and returns the next `n` buffered bytes.
    fn take(&mut self, n: usize) -> &[u8] {
        let s = &self.buf[self.start..self.start + n];
        self.start += n;
        s
    }

    fn set_mode(&mut self, shared: &Shared, mode: TimeoutMode) {
        if self.mode != mode {
            let t = match mode {
                TimeoutMode::Idle => IDLE_POLL_INTERVAL,
                _ => shared.cfg.poll_interval,
            };
            let _ = self.stream.set_read_timeout(Some(t));
            self.mode = mode;
        }
    }

    /// Appends one encoded reply to the pending output. An oversized
    /// response is substituted with a small structured error under the
    /// same id rather than desynchronizing the stream; `encode_into`
    /// truncates its partial frame on failure, so the buffer never
    /// carries half a frame.
    fn reply(&mut self, id: u64, resp: &Response) {
        if matches!(resp, Response::Solved(_) | Response::BatchSolved(_)) {
            self.solve_replies += 1;
        }
        pool::track_growth(&mut self.out, |out| {
            if let Err(e) = resp.encode_into(id, out) {
                error_response(ErrorCode::Internal, e.to_string())
                    .encode_into(id, out)
                    .expect("error frames are small");
            }
        });
    }

    /// Writes every pending reply in one write (resumed across write
    /// timeouts, bounded by the drain grace at shutdown), counting it
    /// as one batch if it carries solve replies.
    fn flush(&mut self, shared: &Shared) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let solves = std::mem::take(&mut self.solve_replies);
        if solves > 0 {
            let c = &shared.counters;
            c.batches.fetch_add(1, Ordering::Relaxed);
            if solves > 1 {
                c.coalesced_jobs.fetch_add(solves, Ordering::Relaxed);
            }
            c.max_coalesced_jobs.fetch_max(solves, Ordering::Relaxed);
        }
        let (stream, out) = (&mut self.stream, &self.out);
        let written = transfer_polled(shared, out.len(), |at| stream.write(&out[at..]));
        self.out.clear();
        written
    }

    /// Ensures at least `need` contiguous buffered bytes, reading as
    /// much as the socket offers per syscall, after writing the pending
    /// replies. `at_boundary` marks the wait for a frame's first byte:
    /// there EOF and shutdown end the connection cleanly (`Ok(false)`)
    /// and timeouts tick the idle-wakeup counter; once any byte of a
    /// frame exists, EOF is an error and shutdown grants only the drain
    /// grace.
    fn fill(&mut self, shared: &Shared, need: usize, at_boundary: bool) -> std::io::Result<bool> {
        debug_assert!(need <= self.buf.len());
        if self.available() >= need {
            return Ok(true);
        }
        // The read below may block on the peer: answer what was read
        // first, so a window's replies leave in one write and a peer
        // that stops reading stops this thread reading too.
        self.flush(shared)?;
        // Then let a thread that shares this CPU run first: usually the
        // client those replies just woke. It takes them and sends its
        // next requests before this thread reads, so the read finds
        // them instead of sleeping until the client's writes wake it.
        // Whether client and server share a CPU is the scheduler's
        // choice and changes from run to run. Alone on its CPU, the
        // thread gets the CPU back at once.
        std::thread::yield_now();
        let mut awaiting_first = at_boundary && self.available() == 0;
        if awaiting_first && !shared.accepting.load(Ordering::SeqCst) {
            return Ok(false);
        }
        if self.start + need > self.buf.len() {
            // Compact so the frame head fits contiguously.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let mut grace_end: Option<Instant> = None;
        loop {
            self.set_mode(
                shared,
                if awaiting_first {
                    TimeoutMode::Idle
                } else {
                    TimeoutMode::Poll
                },
            );
            let dst_from = self.end;
            match self.stream.read(&mut self.buf[dst_from..]) {
                Ok(0) => {
                    return if awaiting_first {
                        Ok(false)
                    } else {
                        Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => {
                    self.end += n;
                    self.last_read = Instant::now();
                    awaiting_first = false;
                    if self.available() >= need {
                        return Ok(true);
                    }
                }
                Err(e) if timed_out(&e) => {
                    if awaiting_first {
                        // An idle wait gives up immediately at shutdown.
                        if !shared.accepting.load(Ordering::SeqCst) {
                            return Ok(false);
                        }
                        shared.counters.idle_wakeups.fetch_add(1, Ordering::Relaxed);
                    } else if drain_grace_spent(shared, &mut grace_end) {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled mid-frame during shutdown",
                        ));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads a `len`-byte payload into `payload` (pooled): whatever is
    /// already buffered is copied out, and only an overflow beyond the
    /// chunk size falls back to direct polled reads.
    fn read_payload(
        &mut self,
        shared: &Shared,
        payload: &mut Vec<u8>,
        len: usize,
    ) -> std::io::Result<()> {
        pool::reserve_payload(payload, len);
        let buffered = len.min(self.available());
        payload[..buffered].copy_from_slice(self.peek(buffered));
        self.start += buffered;
        if buffered < len {
            self.flush(shared)?;
            self.set_mode(shared, TimeoutMode::Poll);
            let (stream, rest) = (&mut self.stream, &mut payload[buffered..]);
            transfer_polled(shared, rest.len(), |at| stream.read(&mut rest[at..]))?;
            self.last_read = Instant::now();
        }
        Ok(())
    }
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// A connection thread's entry. A crash — a panic outside the
/// per-request boundary — unwinds to here: the stream drops, so the
/// peer sees a hangup, and every other connection keeps serving.
fn connection_main(shared: &Shared, stream: Box<dyn Transport>) {
    if catch_unwind(AssertUnwindSafe(|| serve_connection(shared, stream))).is_err() {
        shared
            .counters
            .connections_crashed
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn serve_connection(shared: &Shared, stream: Box<dyn Transport>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.cfg.poll_interval));
    let mut conn = Connection::new(stream);
    // Reused across every frame on this connection: steady state reads
    // allocate no frame buffers (see `crate::pool`).
    let mut payload: Vec<u8> = Vec::new();
    loop {
        // The 8-byte prefix v1 and v2 headers share: enough to vet
        // magic and version before committing to the v2 header length.
        if !matches!(conn.fill(shared, LEGACY_HEADER_LEN, true), Ok(true)) {
            break;
        }
        if let Err(e) = parse_header_prefix(
            conn.peek(LEGACY_HEADER_LEN)
                .try_into()
                .expect("peek returns the requested length"),
        ) {
            // A v1 peer (or garbage). We cannot answer in v2 framing —
            // the peer would not recognize it — so the typed refusal
            // goes out in the legacy framing both speak, then hang up.
            let code = match e {
                DecodeError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::Malformed,
            };
            conn.out
                .extend_from_slice(&legacy_error_frame(code, &e.to_string()));
            break;
        }
        if !matches!(conn.fill(shared, HEADER_LEN, false), Ok(true)) {
            break;
        }
        let header: [u8; HEADER_LEN] = conn
            .take(HEADER_LEN)
            .try_into()
            .expect("take returns the requested length");
        let (kind, id, len) = match parse_header(&header) {
            Ok(v) => v,
            Err(e) => {
                // Magic and version already passed, so this is an
                // oversized length claim: framing cannot be trusted
                // past this point. The id bytes are still well-defined,
                // so the refusal can at least name the request.
                let id = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
                conn.reply(id, &error_response(ErrorCode::Malformed, e.to_string()));
                break;
            }
        };
        if conn
            .read_payload(shared, &mut payload, len as usize)
            .is_err()
        {
            break;
        }
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if id & RETRY_ID_BIT != 0 {
            // The id is echoed verbatim either way; the flag only
            // makes client-side retry pressure visible in Status.
            shared
                .counters
                .client_retries
                .fetch_add(1, Ordering::Relaxed);
        }
        let response = match Request::decode_payload(kind, &payload) {
            Ok(request) => answer(shared, request, conn.last_read),
            // Framing held, so the stream is still in sync: answer the
            // error and keep serving this connection.
            Err(e) => error_response(ErrorCode::Malformed, e.to_string()),
        };
        conn.reply(id, &response);
        if conn.out.len() >= MAX_WRITE_BATCH && conn.flush(shared).is_err() {
            return;
        }
    }
    // Whatever ended the loop, the replies already owed still go out.
    let _ = conn.flush(shared);
}

/// Answers one decoded request inside the per-request panic boundary:
/// a panic in any request kind costs only that request an `Internal`
/// reply. `arrived` is when the read that delivered the frame returned.
fn answer(shared: &Shared, request: Request, arrived: Instant) -> Response {
    if matches!(request, Request::Solve { .. } | Request::SolveBatch { .. })
        && chaos_due(shared, |c| c.crash_every, &shared.counters.chaos_crash_seq)
    {
        // Deliberately OUTSIDE the boundary below: this kills the
        // connection thread to exercise crash containment.
        panic!("injected connection crash (chaos.crash_every)");
    }
    // The handler touches the registry (behind its mutex), atomic
    // counters and values it owns, all consistent on unwind, so
    // AssertUnwindSafe is honest.
    let handled = catch_unwind(AssertUnwindSafe(|| handle(shared, request, arrived)));
    handled.unwrap_or_else(|_| {
        shared
            .counters
            .panics_caught
            .fetch_add(1, Ordering::Relaxed);
        error_response(
            ErrorCode::Internal,
            "the request panicked; it was not completed",
        )
    })
}

fn handle(shared: &Shared, request: Request, arrived: Instant) -> Response {
    match request {
        Request::Solve {
            template_id,
            deadline_ms,
            instance,
        } => solve(
            shared,
            template_id,
            deadline_ms,
            arrived,
            std::slice::from_ref(&instance),
            |mut sols| Response::Solved(sols.pop().expect("one instance, one solution")),
        ),
        Request::SolveBatch {
            template_id,
            deadline_ms,
            instances,
        } => solve(
            shared,
            template_id,
            deadline_ms,
            arrived,
            &instances,
            Response::BatchSolved,
        ),
        Request::RegisterTemplate { template } => {
            // Compile AND pre-build the serving-path state (the
            // propagation program and its support index) before taking
            // the registry lock: the index build happens here, and
            // other connections never block on it.
            let compiled = Arc::new(CompiledTemplate::compile(&template));
            compiled.warm();
            let id = registry(shared).insert(compiled);
            Response::TemplateRegistered { id }
        }
        Request::Containment { q1, q2 } => {
            let parsed = parse_query(&q1).and_then(|p1| Ok((p1, parse_query(&q2)?)));
            match parsed.and_then(|(p1, p2)| contained_in(&p1, &p2)) {
                Ok(contained) => Response::Containment { contained },
                Err(e) => error_response(ErrorCode::InvalidQuery, e.to_string()),
            }
        }
        Request::Status => Response::Status(status(shared)),
    }
}

/// Whether a chaos schedule fires for this event: counts events on
/// `seq` and picks every Nth, N read by `every` (never with chaos off or
/// N = 0).
fn chaos_due(shared: &Shared, every: fn(&ChaosConfig) -> u64, seq: &AtomicU64) -> bool {
    shared.cfg.chaos.as_ref().is_some_and(|c| {
        let n = every(c);
        n > 0 && (seq.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(n)
    })
}

fn registry(shared: &Shared) -> std::sync::MutexGuard<'_, TemplateRegistry> {
    shared
        .registry
        .lock()
        .expect("no request panics holding the registry lock")
}

/// One admitted solve: holds a slot of `max_queue_depth` until it is
/// dropped, on return and on unwind alike.
struct Admission<'a>(&'a AtomicUsize);

impl<'a> Admission<'a> {
    fn acquire(shared: &'a Shared) -> Option<Admission<'a>> {
        let prev = shared.outstanding.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.cfg.max_queue_depth {
            shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(Admission(&shared.outstanding))
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Validates, admits and solves one solve request's instances, in
/// order, on this thread's pooled scratch, and wraps the solutions with
/// `answer` — or returns the refusal. `arrived` is when the read that
/// delivered the request returned. The slot is released before the
/// reply is encoded, so a client that sees its answer never observes
/// its own solve still outstanding.
fn solve(
    shared: &Shared,
    template_id: u64,
    deadline_ms: u32,
    arrived: Instant,
    instances: &[Structure],
    answer: impl FnOnce(Vec<Solution>) -> Response,
) -> Response {
    let Some(template) = registry(shared).get(template_id) else {
        return error_response(
            ErrorCode::UnknownTemplate,
            format!("template {template_id} is not registered (evicted or never known)"),
        );
    };
    // The solver panics on a foreign vocabulary; refuse it up front.
    if instances
        .iter()
        .any(|a| !a.same_vocabulary(template.template()))
    {
        return error_response(
            ErrorCode::VocabularyMismatch,
            "instance vocabulary differs from the template's",
        );
    }
    if deadline_ms > 0 && arrived.elapsed() > Duration::from_millis(u64::from(deadline_ms)) {
        shared
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        return error_response(
            ErrorCode::DeadlineExceeded,
            format!("deadline of {deadline_ms} ms expired before the solve started"),
        );
    }
    let Some(_slot) = Admission::acquire(shared) else {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        return error_response(
            ErrorCode::Overloaded,
            format!(
                "admission queue full ({} outstanding)",
                shared.cfg.max_queue_depth
            ),
        );
    };
    if chaos_due(shared, |c| c.panic_every, &shared.counters.chaos_panic_seq) {
        // Inside the per-request boundary, with the slot held: the
        // guard must release it on unwind.
        panic!("injected solve panic (chaos.panic_every)");
    }
    let solutions = Session::from_template(template).solve_batch(instances);
    shared
        .counters
        .solves
        .fetch_add(instances.len() as u64, Ordering::Relaxed);
    answer(solutions)
}

fn status(shared: &Shared) -> StatusInfo {
    let (templates, capacity, evictions) = {
        let reg = registry(shared);
        (reg.len() as u32, reg.capacity() as u32, reg.evictions())
    };
    let c = &shared.counters;
    StatusInfo {
        protocol_version: PROTOCOL_VERSION,
        templates,
        registry_capacity: capacity,
        evictions,
        queue_depth: shared.outstanding.load(Ordering::SeqCst) as u32,
        max_queue_depth: shared.cfg.max_queue_depth as u32,
        requests: c.requests.load(Ordering::Relaxed),
        solves: c.solves.load(Ordering::Relaxed),
        batches: c.batches.load(Ordering::Relaxed),
        coalesced_jobs: c.coalesced_jobs.load(Ordering::Relaxed),
        max_coalesced_jobs: c.max_coalesced_jobs.load(Ordering::Relaxed) as u32,
        overloaded: c.overloaded.load(Ordering::Relaxed),
        deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
        idle_wakeups: c.idle_wakeups.load(Ordering::Relaxed),
        panics_caught: c.panics_caught.load(Ordering::Relaxed),
        connections_crashed: c.connections_crashed.load(Ordering::Relaxed),
        accept_faults: c.accept_faults.load(Ordering::Relaxed),
        accept_transient_errors: c.accept_transient_errors.load(Ordering::Relaxed),
        accept_fatal_errors: c.accept_fatal_errors.load(Ordering::Relaxed),
        client_retries: c.client_retries.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Request, Response};
    use std::collections::VecDeque;
    use std::io;
    use std::net::Shutdown;

    /// An in-memory peer: each read hands out the next scripted chunk
    /// (then EOF), writes are kept, and `set_read_timeout` calls are
    /// counted.
    struct ScriptedPeer {
        reads: VecDeque<Vec<u8>>,
        written: Arc<Mutex<Vec<u8>>>,
        timeout_sets: Arc<AtomicUsize>,
    }

    impl Read for ScriptedPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.reads.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for ScriptedPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for ScriptedPeer {
        fn peek(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("the server never peeks")
        }
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            self.timeout_sets.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn set_write_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_nonblocking(&self, _: bool) -> io::Result<()> {
            Ok(())
        }
        fn set_nodelay(&self, _: bool) -> io::Result<()> {
            Ok(())
        }
        fn shutdown(&self, _: Shutdown) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `reads` on one connection; returns the `set_read_timeout`
    /// calls it made and the ids of the replies it wrote.
    fn serve_scripted(reads: Vec<Vec<u8>>) -> (usize, Vec<u64>) {
        let written = Arc::new(Mutex::new(Vec::new()));
        let timeout_sets = Arc::new(AtomicUsize::new(0));
        let peer = ScriptedPeer {
            reads: reads.into(),
            written: Arc::clone(&written),
            timeout_sets: Arc::clone(&timeout_sets),
        };
        serve_connection(&Shared::new(ServerConfig::default()), Box::new(peer));
        let written = written.lock().unwrap();
        let mut ids = Vec::new();
        let mut rest = &written[..];
        while !rest.is_empty() {
            let (_, id, len) = parse_header(rest[..HEADER_LEN].try_into().unwrap()).unwrap();
            let (frame, tail) = rest.split_at(HEADER_LEN + len as usize);
            let (id2, resp) = Response::decode(frame).unwrap();
            assert!(
                matches!(resp, Response::Status(_) | Response::Containment { .. }),
                "{resp:?}"
            );
            assert_eq!(id, id2);
            ids.push(id);
            rest = tail;
        }
        (timeout_sets.load(Ordering::Relaxed), ids)
    }

    #[test]
    fn whole_frames_cost_no_timeout_switches() {
        let frames: Vec<Vec<u8>> = (0..8u64)
            .map(|id| Request::Status.encode(id).unwrap())
            .collect();
        // Each frame arrives whole in one read: the idle timeout set
        // before the first read is the only call.
        let (sets, ids) = serve_scripted(frames.clone());
        assert_eq!(sets, 1);
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        // A frame split across two reads switches to poll for its
        // mid-frame read and back to idle at the next frame boundary,
        // wherever the cut falls: in the 8-byte prefix, in the rest of
        // the header, or in the payload.
        let containment = Request::Containment {
            q1: "Q(X) :- E(X, Y), E(Y, X).".into(),
            q2: "Q(X) :- E(X, Y).".into(),
        }
        .encode(4)
        .unwrap();
        for (frame, cut) in [
            (&frames[4], 3),
            (&frames[4], LEGACY_HEADER_LEN + 2),
            (&frames[4], HEADER_LEN - 1),
            (&containment, HEADER_LEN + 5),
        ] {
            let mut reads = frames.clone();
            reads.splice(4..5, [frame[..cut].to_vec(), frame[cut..].to_vec()]);
            let (sets, ids) = serve_scripted(reads);
            assert_eq!(sets, 3, "cut at {cut}");
            assert_eq!(ids, (0..8).collect::<Vec<_>>(), "cut at {cut}");
        }
    }

    /// `Server::bind`'s error for `cfg`, which must be a refusal naming
    /// `field`.
    fn assert_refused(cfg: ServerConfig, field: &str) {
        let Err(e) = Server::bind("127.0.0.1:0", cfg) else {
            panic!("a server with zero {field} started");
        };
        assert_eq!(e.kind(), ErrorKind::InvalidInput);
        assert!(e.to_string().starts_with(field), "{e}");
    }

    #[test]
    fn zero_registry_capacity_is_refused() {
        let cfg = ServerConfig {
            registry_capacity: 0,
            ..ServerConfig::default()
        };
        assert_refused(cfg, "registry_capacity");
    }

    #[test]
    fn zero_queue_depth_is_refused() {
        let cfg = ServerConfig {
            max_queue_depth: 0,
            ..ServerConfig::default()
        };
        assert_refused(cfg, "max_queue_depth");
    }

    #[test]
    fn zero_poll_interval_is_refused() {
        let cfg = ServerConfig {
            poll_interval: Duration::ZERO,
            ..ServerConfig::default()
        };
        assert_refused(cfg, "poll_interval");
    }

    #[test]
    fn accept_error_classes() {
        for kind in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert!(accept_error_is_transient(kind), "{kind:?} is weather");
        }
        for kind in [
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::Other,
        ] {
            assert!(!accept_error_is_transient(kind), "{kind:?} is breakage");
        }
    }
}
