//! A client for the cqcs serving protocol: blocking calls, optional
//! pipelining.
//!
//! One [`Client`] wraps one TCP connection. The convenience methods
//! ([`Client::solve`], [`Client::status`], ...) are strict
//! request/response: encode, write, read one frame, decode. Underneath
//! they ride protocol v2's correlation ids through the windowed
//! [`Client::submit`] / [`Client::recv`] pair, which callers can use
//! directly to keep up to a window of requests in flight — the server
//! answers in completion order and every response carries the id of the
//! request it belongs to. [`Client::solve_pipelined`] packages the
//! common case: a batch of single-instance solves at pipeline depth
//! `k`, results returned in submission order.
//!
//! Server-side [`Response::Error`] frames become [`ClientError::Server`]
//! on the blocking paths, with the structured [`ErrorCode`] preserved so
//! callers can distinguish "retry later" ([`ErrorCode::Overloaded`])
//! from "re-register" ([`ErrorCode::UnknownTemplate`]) without string
//! matching. On the raw [`Client::recv`] path errors come back as
//! values — a pipelined caller needs to know *which* id failed.
//!
//! The write scratch and payload read buffer are owned by the client
//! and reused across requests ([`crate::pool`]): a steady-state solve
//! round-trip allocates no frame buffers on this side either.
//!
//! Bytes move through a [`crate::transport::Transport`], so the same
//! client code runs over a plain `TcpStream` or a fault-injecting
//! [`FaultStream`] (see
//! [`ClientConfig::fault`]). With [`ClientConfig::read_timeout`] set, a
//! peer that hangs up mid-frame or goes quiet surfaces as the typed
//! [`ClientError::Timeout`] instead of blocking forever; retries,
//! backoff, and reconnect live one layer up in
//! [`crate::resilient::ResilientClient`], which drives this client's
//! [`Client::roundtrip`]/[`Client::submit_with`] with the retry-attempt
//! id bit.

use crate::codec::{
    parse_header, DecodeError, EncodeError, ErrorCode, Request, Response, StatusInfo, HEADER_LEN,
    RETRY_ID_BIT,
};
use crate::pool;
use crate::transport::{FaultConfig, FaultStream, Transport};
use cqcs_core::Solution;
use cqcs_structures::Structure;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// A configured socket timeout fired before the peer produced
    /// bytes. Framing state is unknown after a timeout (a frame may be
    /// half-read), so the connection should be considered poisoned —
    /// the resilient layer reconnects rather than reuse it.
    Timeout,
    /// The request is too large for the protocol's frame limit and was
    /// never sent.
    Encode(EncodeError),
    /// The server's bytes failed to decode.
    Decode(DecodeError),
    /// The server answered with a structured error.
    Server {
        /// The machine-readable failure class.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server answered with the wrong response kind for the
    /// request (a protocol bug, not an expected runtime condition).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Timeout => write!(f, "socket timeout"),
            ClientError::Encode(e) => write!(f, "protocol encode error: {e}"),
            ClientError::Decode(e) => write!(f, "protocol decode error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying the failed request (on a fresh connection where
    /// needed) can plausibly succeed. Solves are pure functions of
    /// `(template, instance)`, so transport trouble — I/O errors,
    /// timeouts, undecodable or out-of-protocol bytes from a corrupted
    /// stream — and the server-side codes in
    /// [`ErrorCode::is_retryable`] are all safely retryable; only
    /// errors about the request's own content are terminal.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Timeout
            | ClientError::Decode(_)
            | ClientError::Unexpected(_) => true,
            ClientError::Encode(_) => false,
            ClientError::Server { code, .. } => code.is_retryable(),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A fired socket timeout surfaces as WouldBlock or TimedOut
        // depending on platform; both mean "the peer went quiet", not
        // "the socket broke" — give them their own typed variant.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

impl From<EncodeError> for ClientError {
    fn from(e: EncodeError) -> Self {
        ClientError::Encode(e)
    }
}

/// Buffered submissions are written out once the scratch reaches this
/// size even if no receive is due — bounds client memory and keeps the
/// server busy during very deep windows.
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// Connection options for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Socket read timeout; `None` blocks forever. With a timeout set,
    /// a quiet server surfaces as [`ClientError::Timeout`] instead of a
    /// hung call.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Wrap the connection in a fault-injecting
    /// [`FaultStream`] — the client half
    /// of a chaos run. `None` is the production path.
    pub fault: Option<FaultConfig>,
}

/// A connection to a cqcs server.
pub struct Client {
    stream: Box<dyn Transport>,
    /// The next correlation id [`Client::submit`] will assign.
    next_id: u64,
    /// Reused encode scratch: submitted frames accumulate here until
    /// the next flush (see [`Client::submit`]).
    write_buf: Vec<u8>,
    /// Buffered response bytes: one read syscall usually drains a whole
    /// pipelined window of replies (the server's writer batches them
    /// into one write), and frames are parsed out of this buffer.
    read_buf: Vec<u8>,
    /// Consumed/filled cursors into `read_buf`.
    rd_start: usize,
    rd_end: usize,
    /// Reused payload read buffer.
    payload_buf: Vec<u8>,
}

impl Client {
    /// Connects to a server with no timeouts and no fault injection
    /// (the zero-config production path).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connects to a server with explicit socket timeouts and an
    /// optional client-side fault-injection layer.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(cfg.read_timeout)?;
        stream.set_write_timeout(cfg.write_timeout)?;
        let stream: Box<dyn Transport> = match &cfg.fault {
            Some(fault) => Box::new(FaultStream::new(stream, fault.clone())),
            None => Box::new(stream),
        };
        Ok(Client {
            stream,
            next_id: 1,
            write_buf: Vec::new(),
            read_buf: vec![0u8; FLUSH_THRESHOLD],
            rd_start: 0,
            rd_end: 0,
            payload_buf: Vec::new(),
        })
    }

    fn buffered(&self) -> usize {
        self.rd_end - self.rd_start
    }

    /// Blocks until at least `need` contiguous response bytes are
    /// buffered, reading as much as the socket offers per syscall.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        debug_assert!(need <= self.read_buf.len());
        while self.buffered() < need {
            if self.rd_start + need > self.read_buf.len() {
                self.read_buf.copy_within(self.rd_start..self.rd_end, 0);
                self.rd_end -= self.rd_start;
                self.rd_start = 0;
            }
            let n = self.stream.read(&mut self.read_buf[self.rd_end..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.rd_end += n;
        }
        Ok(())
    }

    /// Sends a request without waiting for its response, returning the
    /// correlation id the response will carry. Pair with
    /// [`Client::recv`]; any number of submissions may be outstanding.
    ///
    /// Submissions are **buffered**: consecutive `submit` calls append
    /// frames to the client's write scratch and go out in one write
    /// when the scratch passes a threshold, when [`Client::flush`] is
    /// called, or — automatically — when [`Client::recv`] or
    /// [`Client::try_recv`] runs. A pipelined window therefore costs
    /// one syscall, not one per request, and the flush-before-recv rule
    /// means no caller can deadlock waiting for a response to an
    /// unsent request.
    pub fn submit(&mut self, request: &Request) -> Result<u64, ClientError> {
        self.submit_with(request, false)
    }

    /// Like [`Client::submit`], with the **retry-attempt flag**: a
    /// retry send carries [`RETRY_ID_BIT`] in its correlation id, which
    /// the server echoes untouched but counts in
    /// [`StatusInfo::client_retries`]. The low bits still come from the
    /// per-connection counter, so flagged ids stay unique.
    pub fn submit_with(&mut self, request: &Request, retry: bool) -> Result<u64, ClientError> {
        let mut id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        if retry {
            id |= RETRY_ID_BIT;
        }
        let start = self.write_buf.len();
        match pool::track_growth(&mut self.write_buf, |out| request.encode_into(id, out)) {
            Ok(()) => {}
            Err(e) => {
                // The oversized frame was truncated away; earlier
                // buffered submissions are intact and still go out.
                self.write_buf.truncate(start);
                return Err(e.into());
            }
        }
        if self.write_buf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes out any buffered submissions. Called automatically by the
    /// receive paths; explicit calls only matter for callers that
    /// submit and then wait on something other than this connection.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.write_buf.is_empty() {
            self.stream.write_all(&self.write_buf)?;
            self.stream.flush()?;
            self.write_buf.clear();
        }
        Ok(())
    }

    /// Receives the next response frame in server completion order,
    /// returning it with its correlation id. [`Response::Error`] comes
    /// back as a **value** here, not an `Err` — a pipelined caller
    /// needs to know which of its outstanding requests failed and keep
    /// receiving the rest.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        self.flush()?;
        self.fill(HEADER_LEN)?;
        let header: [u8; HEADER_LEN] = self.read_buf[self.rd_start..self.rd_start + HEADER_LEN]
            .try_into()
            .expect("fill guarantees the bytes");
        self.rd_start += HEADER_LEN;
        let (kind, id, len) = parse_header(&header)?;
        let len = len as usize;
        pool::reserve_payload(&mut self.payload_buf, len);
        let from_buf = len.min(self.buffered());
        self.payload_buf[..from_buf]
            .copy_from_slice(&self.read_buf[self.rd_start..self.rd_start + from_buf]);
        self.rd_start += from_buf;
        if from_buf < len {
            // Payload larger than the chunk buffer: read the overflow
            // straight into the pooled payload buffer.
            self.stream.read_exact(&mut self.payload_buf[from_buf..])?;
        }
        let resp = Response::decode_payload(kind, &self.payload_buf)?;
        Ok((id, resp))
    }

    /// Like [`Client::recv`], but returns `Ok(None)` immediately if no
    /// response bytes have arrived yet. Probes with a nonblocking
    /// `peek` — which never consumes — so the framing cannot desync:
    /// once the first byte of a frame is visible, the read proceeds
    /// blocking as usual.
    pub fn try_recv(&mut self) -> Result<Option<(u64, Response)>, ClientError> {
        self.flush()?;
        if self.buffered() > 0 {
            // A previous fill already banked response bytes; parse from
            // the buffer without touching the socket.
            return self.recv().map(Some);
        }
        self.stream.set_nonblocking(true)?;
        let mut probe = [0u8; 1];
        let ready = match self.stream.peek(&mut probe) {
            // EOF: let the blocking path surface the clean error.
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        };
        self.stream.set_nonblocking(false)?;
        if ready? {
            self.recv().map(Some)
        } else {
            Ok(None)
        }
    }

    /// One blocking request/response exchange.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.roundtrip(request, false)
    }

    /// One blocking request/response exchange with an explicit
    /// retry-attempt flag (see [`Client::submit_with`]) — the building
    /// block [`crate::resilient::ResilientClient`] drives.
    pub fn roundtrip(&mut self, request: &Request, retry: bool) -> Result<Response, ClientError> {
        let id = self.submit_with(request, retry)?;
        let (got, resp) = self.recv()?;
        if got != id {
            // Strict request/response: nothing else can be in flight.
            return Err(ClientError::Unexpected("response id mismatch"));
        }
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Registers a template for later solves; returns its server id.
    pub fn register_template(&mut self, template: &Structure) -> Result<u64, ClientError> {
        match self.call(&Request::RegisterTemplate {
            template: template.clone(),
        })? {
            Response::TemplateRegistered { id } => Ok(id),
            _ => Err(ClientError::Unexpected("expected TemplateRegistered")),
        }
    }

    /// Solves one instance against a registered template.
    pub fn solve(
        &mut self,
        template_id: u64,
        instance: &Structure,
    ) -> Result<Solution, ClientError> {
        self.solve_deadline(template_id, instance, 0)
    }

    /// Like [`Client::solve`] with a queue deadline in milliseconds
    /// (0 = none): if the server cannot start the solve in time it
    /// answers [`ErrorCode::DeadlineExceeded`].
    pub fn solve_deadline(
        &mut self,
        template_id: u64,
        instance: &Structure,
        deadline_ms: u32,
    ) -> Result<Solution, ClientError> {
        match self.call(&Request::Solve {
            template_id,
            deadline_ms,
            instance: instance.clone(),
        })? {
            Response::Solved(sol) => Ok(sol),
            _ => Err(ClientError::Unexpected("expected Solved")),
        }
    }

    /// Solves every instance against one registered template with up to
    /// `depth` single-instance solves in flight at once, returning
    /// solutions in **submission order** (correlation ids do the
    /// reordering — the server answers in completion order).
    ///
    /// Depth 1 degrades to strict request/response; depth `k` sends
    /// the window in one write, which the server reads in one read and
    /// answers in one write, so the per-request syscall and wakeup
    /// costs are shared across the window. The first server-side error
    /// aborts with [`ClientError::Server`].
    pub fn solve_pipelined(
        &mut self,
        template_id: u64,
        instances: &[Structure],
        depth: usize,
    ) -> Result<Vec<Solution>, ClientError> {
        let depth = depth.max(1);
        let mut slots: Vec<Option<Solution>> = (0..instances.len()).map(|_| None).collect();
        let mut pending: HashMap<u64, usize> = HashMap::with_capacity(depth);
        let mut next = 0usize;
        let settle = |pending: &mut HashMap<u64, usize>,
                      slots: &mut Vec<Option<Solution>>,
                      id: u64,
                      resp: Response|
         -> Result<(), ClientError> {
            let Some(ix) = pending.remove(&id) else {
                return Err(ClientError::Unexpected("response id was never submitted"));
            };
            match resp {
                Response::Solved(sol) => {
                    slots[ix] = Some(sol);
                    Ok(())
                }
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                _ => Err(ClientError::Unexpected("expected Solved")),
            }
        };
        while next < instances.len() || !pending.is_empty() {
            // Refill the window, then block for one response (this is
            // what flushes the refills, as one write) and drain every
            // other response that came back with it. Draining before
            // the next refill is what keeps the batching self-
            // sustaining: the server reads the k submissions that went
            // out together in one read, answers them in one write, and
            // the drain turns that into the next k-frame submission.
            while next < instances.len() && pending.len() < depth {
                let id = self.submit(&Request::Solve {
                    template_id,
                    deadline_ms: 0,
                    instance: instances[next].clone(),
                })?;
                pending.insert(id, next);
                next += 1;
            }
            let (id, resp) = self.recv()?;
            settle(&mut pending, &mut slots, id, resp)?;
            while !pending.is_empty() {
                match self.try_recv()? {
                    Some((id, resp)) => settle(&mut pending, &mut slots, id, resp)?,
                    None => break,
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot answered"))
            .collect())
    }

    /// Solves a batch of instances against one registered template;
    /// solutions come back in instance order.
    pub fn solve_batch(
        &mut self,
        template_id: u64,
        instances: &[Structure],
    ) -> Result<Vec<Solution>, ClientError> {
        match self.call(&Request::SolveBatch {
            template_id,
            deadline_ms: 0,
            instances: instances.to_vec(),
        })? {
            Response::BatchSolved(sols) => Ok(sols),
            _ => Err(ClientError::Unexpected("expected BatchSolved")),
        }
    }

    /// Decides CQ containment `q1 ⊑ q2` server-side (queries in the
    /// `cqcs-cq` surface syntax).
    pub fn containment(&mut self, q1: &str, q2: &str) -> Result<bool, ClientError> {
        match self.call(&Request::Containment {
            q1: q1.to_owned(),
            q2: q2.to_owned(),
        })? {
            Response::Containment { contained } => Ok(contained),
            _ => Err(ClientError::Unexpected("expected Containment")),
        }
    }

    /// Fetches server statistics.
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        match self.call(&Request::Status)? {
            Response::Status(info) => Ok(info),
            _ => Err(ClientError::Unexpected("expected Status")),
        }
    }
}
