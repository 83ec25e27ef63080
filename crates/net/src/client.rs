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
//! Submissions are buffered and written just before a read that would
//! block, the rule the server's connection threads follow too: a
//! receive that finds a whole reply already buffered writes nothing.
//! So a caller that keeps a window in flight and submits one request
//! after each receive sends one write per drained window, not one per
//! request, and [`Client::flush`] is there for callers that need their
//! bytes on the wire now.
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
        Ok(Client::over(stream))
    }

    /// A client speaking over an already configured transport.
    pub(crate) fn over(stream: Box<dyn Transport>) -> Client {
        Client {
            stream,
            next_id: 1,
            write_buf: Vec::new(),
            read_buf: vec![0u8; FLUSH_THRESHOLD],
            rd_start: 0,
            rd_end: 0,
            payload_buf: Vec::new(),
        }
    }

    fn buffered(&self) -> usize {
        self.rd_end - self.rd_start
    }

    /// Whether a whole response frame, header and payload, is already
    /// buffered, so that receiving it reads nothing from the socket.
    fn frame_buffered(&self) -> bool {
        let Some(header) = self.read_buf[self.rd_start..self.rd_end].get(..HEADER_LEN) else {
            return false;
        };
        let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        self.buffered() - HEADER_LEN >= len as usize
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
    /// called, or — automatically — just before [`Client::recv`] or
    /// [`Client::try_recv`] would read the socket. A receive that finds
    /// a whole reply already buffered writes nothing. So a window costs
    /// one write, not one per request, even for a caller that submits
    /// one request after each receive. And because pending submissions
    /// are written before any read that would block, no caller can
    /// deadlock waiting for a response to an unsent request.
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

    /// Writes out any buffered submissions now. The receive paths call
    /// it just before they read the socket; explicit calls only matter
    /// for callers that submit and then wait on something other than
    /// this connection.
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
    ///
    /// A reply already buffered (one read usually brings a window of
    /// them) is returned without touching the socket, and pending
    /// submissions stay buffered. Otherwise they are written first,
    /// then the read blocks: write before a read that would block.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        if !self.frame_buffered() {
            self.flush()?;
        }
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
    /// blocking as usual. Pending submissions are written before the
    /// probe, so a caller polling this method never waits on requests
    /// it has not sent.
    pub fn try_recv(&mut self) -> Result<Option<(u64, Response)>, ClientError> {
        if self.buffered() > 0 {
            // A previous fill already banked response bytes: `recv`
            // parses a whole frame from the buffer, or writes and reads
            // the rest of a partial one.
            return self.recv().map(Some);
        }
        self.flush()?;
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
    /// the window in one write (the receive that blocks writes it),
    /// which the server reads in one read and answers in one write, so
    /// the per-request syscall and wakeup costs are shared across the
    /// window. The first server-side error aborts with
    /// [`ClientError::Server`].
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
            // Refill the window, then block for one response (the
            // receive writes the refills, as one write, before it reads)
            // and drain every other response that came back with it. Draining before
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{HEADER_LEN, MAX_NAME_LEN};
    use std::collections::VecDeque;
    use std::io;
    use std::net::Shutdown;
    use std::sync::{Arc, Mutex};

    /// What the client did to its transport, in order.
    #[derive(Debug, PartialEq)]
    enum Op {
        /// One `write` call, with the bytes it carried.
        Write(Vec<u8>),
        Read,
        Peek,
    }

    /// An in-memory server: each read hands out the next scripted chunk
    /// (then EOF), a peek with no chunk left would block, and every
    /// call is logged.
    struct ScriptedServer {
        replies: VecDeque<Vec<u8>>,
        log: Arc<Mutex<Vec<Op>>>,
    }

    impl Read for ScriptedServer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.log.lock().unwrap().push(Op::Read);
            let Some(chunk) = self.replies.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for ScriptedServer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.log.lock().unwrap().push(Op::Write(buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for ScriptedServer {
        fn peek(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.log.lock().unwrap().push(Op::Peek);
            match self.replies.front() {
                Some(chunk) => {
                    buf[0] = chunk[0];
                    Ok(1)
                }
                None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
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

    /// A client whose reads return `replies`, one chunk per read, and
    /// the log of what it does to its transport.
    fn scripted(replies: Vec<Vec<u8>>) -> (Client, Arc<Mutex<Vec<Op>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = ScriptedServer {
            replies: replies.into(),
            log: Arc::clone(&log),
        };
        (Client::over(Box::new(server)), log)
    }

    /// The `Containment` replies with ids `ids`, framed back to back.
    fn replies(ids: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for id in ids {
            Response::Containment { contained: true }
                .encode_into(id, &mut out)
                .unwrap();
        }
        out
    }

    /// The `Status` requests with ids `ids`, framed back to back.
    fn requests(ids: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut out = Vec::new();
        for id in ids {
            Request::Status.encode_into(id, &mut out).unwrap();
        }
        out
    }

    fn take(log: &Mutex<Vec<Op>>) -> Vec<Op> {
        std::mem::take(&mut *log.lock().unwrap())
    }

    #[test]
    fn recv_writes_the_window_once_before_it_reads() {
        let (mut client, log) = scripted(vec![replies([1, 2, 3]), replies([4])]);
        for _ in 0..3 {
            client.submit(&Request::Status).unwrap();
        }
        assert!(take(&log).is_empty(), "submit buffers");
        // Nothing is buffered, so the three submissions leave in one
        // write before the read that brings all three replies.
        assert_eq!(client.recv().unwrap().0, 1);
        assert_eq!(take(&log), [Op::Write(requests(1..=3)), Op::Read]);
        // Closed loop: one submission after each receive. Replies 2 and
        // 3 are buffered, so those receives touch nothing.
        for want in [2, 3] {
            client.submit(&Request::Status).unwrap();
            assert_eq!(client.recv().unwrap().0, want);
        }
        assert!(take(&log).is_empty(), "buffered replies write nothing");
        // The buffer is drained: the two refills leave in one write.
        assert_eq!(client.recv().unwrap().0, 4);
        assert_eq!(take(&log), [Op::Write(requests(4..=5)), Op::Read]);
    }

    #[test]
    fn a_partial_reply_is_written_for_before_the_rest_is_read() {
        let frames = replies([1, 2]);
        let cut = frames.len() - 3;
        let (mut client, log) = scripted(vec![frames[..cut].to_vec(), frames[cut..].to_vec()]);
        client.submit(&Request::Status).unwrap();
        client.submit(&Request::Status).unwrap();
        assert_eq!(client.recv().unwrap().0, 1);
        take(&log);
        client.submit(&Request::Status).unwrap();
        // Reply 2 is buffered only in part: finishing it blocks, so the
        // pending submission goes out first.
        assert_eq!(client.recv().unwrap().0, 2);
        assert_eq!(take(&log), [Op::Write(requests([3])), Op::Read]);
    }

    #[test]
    fn try_recv_writes_before_it_probes() {
        let (mut client, log) = scripted(Vec::new());
        client.submit(&Request::Status).unwrap();
        assert!(client.try_recv().unwrap().is_none());
        assert_eq!(take(&log), [Op::Write(requests([1])), Op::Peek]);
        // A buffered reply comes back without a write or a probe.
        let (mut client, log) = scripted(vec![replies([1, 2])]);
        client.submit(&Request::Status).unwrap();
        client.submit(&Request::Status).unwrap();
        assert_eq!(client.recv().unwrap().0, 1);
        take(&log);
        client.submit(&Request::Status).unwrap();
        assert_eq!(client.try_recv().unwrap().unwrap().0, 2);
        assert!(take(&log).is_empty());
    }

    #[test]
    fn submit_still_flushes_past_the_threshold() {
        let (mut client, log) = scripted(Vec::new());
        let query = "x".repeat(MAX_NAME_LEN);
        let containment = Request::Containment {
            q1: query.clone(),
            q2: query,
        };
        let frame_len = containment.encode(0).unwrap().len();
        let below = FLUSH_THRESHOLD / frame_len;
        for _ in 0..below {
            client.submit(&containment).unwrap();
        }
        assert!(take(&log).is_empty(), "below the threshold, submit buffers");
        client.submit(&containment).unwrap();
        let ops = take(&log);
        assert_eq!(ops.len(), 1, "{} ops", ops.len());
        let Op::Write(bytes) = &ops[0] else {
            panic!("expected a write, got {:?}", ops[0]);
        };
        assert_eq!(bytes.len(), (below + 1) * frame_len);
        assert!(bytes.len() >= FLUSH_THRESHOLD && frame_len > HEADER_LEN);
    }
}
