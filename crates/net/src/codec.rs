//! The wire protocol: length-prefixed binary frames with correlation
//! ids (protocol v2).
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"CQ"
//! 2       1     protocol version (currently 2)
//! 3       1     message kind (request 0x01–0x05, response 0x81–0x85, error 0xFF)
//! 4       8     request id, little-endian u64 (chosen by the client,
//!               echoed verbatim on the matching response)
//! 12      4     payload length, little-endian u32 (≤ MAX_PAYLOAD)
//! 16      len   payload
//! ```
//!
//! The **request id** is what makes pipelining possible: a connection
//! may have many requests in flight, responses come back in completion
//! order, and each response names the request it answers. The server
//! never invents ids — it echoes whatever the client chose — so id
//! allocation policy (a counter, a handle table) is the client's alone.
//!
//! Protocol v1 framed the same payloads under an 8-byte header with no
//! id field. The first 8 bytes of a v2 header deliberately share v1's
//! magic/version prefix, so a v2 server can recognize a v1 frame from
//! the version byte alone and answer a **v1-framed**
//! `UnsupportedVersion` error ([`legacy_error_frame`]) the old peer can
//! actually decode — a typed refusal, never a desync or a silent
//! hangup.
//!
//! Payload integers are little-endian and fixed-width; structures are
//! encoded as their vocabulary (symbol names + arities) followed by the
//! universe size and each relation's sorted tuple list. Decoding works
//! over a borrowed `&[u8]` with a cursor — the only allocations are the
//! decoded values themselves — and **never panics** on malformed input:
//! truncated buffers, oversized length prefixes, wrong versions, unknown
//! kinds, hostile universe claims (a tiny frame declaring billions of
//! elements, or a batch of instances whose universes add up to that —
//! see [`MAX_UNIVERSE`], a per-request cap), and semantically invalid structures
//! (bad arities, elements out of range, duplicate symbols) all surface
//! as [`DecodeError`]s. The codec property suite mutates valid frames
//! byte-by-byte to pin this. Encoding is fallible the other way: a
//! message whose payload would exceed [`MAX_PAYLOAD`] is refused with an
//! [`EncodeError`] instead of framed (the peer would reject the header
//! and desynchronize).
//!
//! Encoding is allocation-conscious: [`Request::encode_into`] /
//! [`Response::encode_into`] append a complete frame to a caller-owned
//! `Vec<u8>`, so each server connection and each client reuse one
//! scratch buffer across every frame on a connection (the owning
//! `encode` methods are thin wrappers that allocate a fresh vector).
//!
//! The `Status` reply is a fixed run of counters ([`StatusInfo`]). Its
//! layout changed once under protocol v2: the trailing per-shard list
//! (a `u16` count, then one entry per executor shard) was dropped when
//! the server stopped running executor shards, and the slot that
//! counted respawned shards now counts crashed connections. Nothing
//! outside this repository decodes `Status`, so the version byte did
//! not move.
//!
//! Solutions cross the wire losslessly: verdict, witness, route (with
//! treewidth width), and full search statistics round-trip into the very
//! [`Solution`] type the in-process [`Session`](cqcs_core::Session)
//! returns, which is what lets the integration suite and experiment E18
//! pin server responses bit-identical to direct solves.

use cqcs_core::{Route, SearchStats, Solution};
use cqcs_structures::{Element, Homomorphism, Structure, StructureBuilder, Vocabulary};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"CQ";
/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;
/// Fixed frame-header size in bytes: magic, version, kind, request id,
/// payload length.
pub const HEADER_LEN: usize = 16;
/// The retired v1 protocol version (no request-id field). A v2 server
/// recognizes it from the shared header prefix and answers a v1-framed
/// [`ErrorCode::UnsupportedVersion`] so old peers get a typed refusal.
pub const LEGACY_VERSION: u8 = 1;
/// Frame-header size of the retired v1 protocol (magic, version, kind,
/// payload length — no request id).
pub const LEGACY_HEADER_LEN: usize = 8;
/// Upper bound on a frame's payload length; longer prefixes are
/// rejected before any allocation happens.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;
/// Upper bound on an encoded relation-symbol name.
pub const MAX_NAME_LEN: usize = 4096;
/// Upper bound on the universe of a decoded request's structures,
/// summed over the request (and on a decoded witness map's length).
/// The universe is a client-claimed count, not backed byte-for-byte by
/// the payload — materializing a structure allocates per-element
/// bookkeeping (a few words per element, independent of the arities),
/// so an unbounded claim (a ~30-byte frame declaring `u32::MAX`
/// elements) would be a remote-allocation DoS. A `SolveBatch` shares
/// one allowance across its instances, so a batch cannot multiply the
/// bound by its instance count. A claim that takes the request's total
/// past this bound is rejected with [`DecodeError::Oversized`] (carrying
/// that total) before the structure is built.
pub const MAX_UNIVERSE: u32 = 1 << 20;
/// Upper bound on the `u64` words a registered template's support
/// index takes, Σ_r `arity_r · |B| · max(1, ⌈|R|/64⌉)` over its
/// relations. Compiling a template builds one support bitset per
/// (relation position, element), each `⌈|R|/64⌉` words wide, in the one
/// slab the propagation program owns, so memory grows with both the
/// universe and the tuple count: a 1 MiB frame of 131,053 binary tuples
/// over 16,384 elements would otherwise cost about half a gigabyte to
/// compile, and a 4 MiB one more than a 4 GiB address space holds.
/// `RegisterTemplate` decoding adds each relation's words as its tuple
/// count is read, before its tuples, and rejects the template once the
/// sum passes this bound with [`DecodeError::Oversized`] (carrying the
/// sum). `2^21` still admits a binary relation of at most 64 tuples
/// over [`MAX_UNIVERSE`] elements. Instances are not capped here: they
/// never build a support index.
pub const MAX_SUPPORT_WORDS: u64 = 1 << 21;
/// High bit of the correlation id, set by clients on **retry** sends of
/// an idempotent request. The server echoes ids verbatim (the bit does
/// not change routing or matching — low bits keep ids unique) but
/// counts flagged requests in [`StatusInfo::client_retries`], making
/// client-side retry pressure observable server-side.
pub const RETRY_ID_BIT: u64 = 1 << 63;

// Request kinds.
const K_REGISTER: u8 = 0x01;
const K_SOLVE: u8 = 0x02;
const K_SOLVE_BATCH: u8 = 0x03;
const K_CONTAINMENT: u8 = 0x04;
const K_STATUS: u8 = 0x05;
// Response kinds.
const K_REGISTERED: u8 = 0x81;
const K_SOLVED: u8 = 0x82;
const K_BATCH_SOLVED: u8 = 0x83;
const K_CONTAINMENT_R: u8 = 0x84;
const K_STATUS_R: u8 = 0x85;
const K_ERROR: u8 = 0xFF;

/// Structured error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame or payload failed to decode.
    Malformed = 1,
    /// The frame's protocol version is not served.
    UnsupportedVersion = 2,
    /// The referenced template id is not registered (never was, or was
    /// evicted).
    UnknownTemplate = 3,
    /// The instance's vocabulary differs from the template's.
    VocabularyMismatch = 4,
    /// The admission queue is full; retry later.
    Overloaded = 5,
    /// The request's deadline expired before it was executed.
    DeadlineExceeded = 6,
    /// A containment query failed to parse or compare.
    InvalidQuery = 7,
    /// The server failed internally.
    Internal = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownTemplate,
            4 => ErrorCode::VocabularyMismatch,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::DeadlineExceeded,
            7 => ErrorCode::InvalidQuery,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Whether a request refused with this code is worth retrying.
    ///
    /// Solves are pure functions of `(template, instance)`, so any
    /// failure that is about the *server's moment* rather than the
    /// *request's content* is safely retryable: overload and deadline
    /// pressure pass, an `Internal` panic is caught per-job and does
    /// not recur deterministically for honest inputs, and an unknown
    /// template may simply have been evicted (the resilient client
    /// re-registers and retries). Content errors — malformed frames,
    /// vocabulary mismatches, unparseable queries, wrong protocol —
    /// will fail identically forever and are terminal.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::DeadlineExceeded
                | ErrorCode::Internal
                | ErrorCode::UnknownTemplate
        )
    }
}

/// Why a buffer failed to decode. Every variant is a graceful error —
/// the decoder has no panicking path on foreign bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced content did.
    Truncated,
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`] (or an inner length
    /// exceeds its own bound).
    Oversized(u64),
    /// The payload decoded completely but bytes were left over.
    TrailingBytes(usize),
    /// A string field is not UTF-8.
    BadUtf8,
    /// The bytes parsed but describe an invalid value (bad arity,
    /// element out of range, duplicate relation symbol, …).
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("frame truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            DecodeError::Oversized(n) => write!(f, "length {n} exceeds the protocol bound"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the payload"),
            DecodeError::BadUtf8 => f.write_str("string field is not UTF-8"),
            DecodeError::Invalid(m) => write!(f, "invalid payload: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a message could not be encoded: the protocol caps frame
/// payloads at [`MAX_PAYLOAD`], and a message whose encoding exceeds
/// that (e.g. a batch response whose witness maps total more than
/// 16 MiB) must not be framed at all — the peer would reject the frame
/// header and desynchronize the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The encoded payload is this many bytes, above [`MAX_PAYLOAD`].
    OversizedPayload(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::OversizedPayload(n) => {
                write!(
                    f,
                    "encoded payload of {n} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// A client→server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile and register a template; the response names its id.
    RegisterTemplate {
        /// The template structure `B`.
        template: Structure,
    },
    /// Solve `hom(instance → template)` under the Auto strategy.
    Solve {
        /// A previously registered template id.
        template_id: u64,
        /// Per-request deadline in milliseconds (0 = none): if the
        /// request waits in the queue longer than this, the server
        /// answers [`ErrorCode::DeadlineExceeded`] instead of solving.
        deadline_ms: u32,
        /// The instance structure `A`.
        instance: Structure,
    },
    /// Solve a whole batch against one template.
    SolveBatch {
        /// A previously registered template id.
        template_id: u64,
        /// Per-request deadline in milliseconds (0 = none).
        deadline_ms: u32,
        /// The instance structures, answered in order.
        instances: Vec<Structure>,
    },
    /// Decide CQ containment `q1 ⊑ q2` (queries in the `cqcs-cq`
    /// surface syntax, parsed server-side).
    Containment {
        /// Source text of the candidate contained query.
        q1: String,
        /// Source text of the candidate containing query.
        q2: String,
    },
    /// Ask for server statistics.
    Status,
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A template was compiled and registered under this id.
    TemplateRegistered {
        /// The id to pass to later `Solve`/`SolveBatch` requests.
        id: u64,
    },
    /// The solution of a `Solve` request.
    Solved(Solution),
    /// The solutions of a `SolveBatch` request, in request order.
    BatchSolved(Vec<Solution>),
    /// The verdict of a `Containment` request.
    Containment {
        /// Whether `q1 ⊑ q2`.
        contained: bool,
    },
    /// Server statistics.
    Status(StatusInfo),
    /// The request failed; the code is machine-readable, the message
    /// human-readable.
    Error {
        /// The structured failure class.
        code: ErrorCode,
        /// Detail for humans and logs.
        message: String,
    },
}

/// A server's self-description, as carried by [`Response::Status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// The protocol version the server speaks.
    pub protocol_version: u8,
    /// Templates currently resident in the registry.
    pub templates: u32,
    /// Registry capacity (LRU eviction beyond this).
    pub registry_capacity: u32,
    /// Templates evicted since startup.
    pub evictions: u64,
    /// Solve jobs admitted but not yet answered.
    pub queue_depth: u32,
    /// Admission bound: jobs beyond this are refused with `Overloaded`.
    pub max_queue_depth: u32,
    /// Requests decoded since startup (all kinds).
    pub requests: u64,
    /// Instances solved since startup.
    pub solves: u64,
    /// Reply writes that carried at least one solve reply, since
    /// startup (a pipelined window's replies leave in one write).
    pub batches: u64,
    /// Solve replies that shared their write with at least one other
    /// solve reply.
    pub coalesced_jobs: u64,
    /// Most solve replies one write has carried.
    pub max_coalesced_jobs: u32,
    /// Requests refused at admission since startup.
    pub overloaded: u64,
    /// Requests whose deadline expired before their solve started,
    /// since startup.
    pub deadline_expired: u64,
    /// Idle read-timeout wakeups across all connections since
    /// startup — a connection with no bytes pending should barely move
    /// this (see `ServerConfig::idle_poll_interval`).
    pub idle_wakeups: u64,
    /// Request panics caught (and answered as `Internal`) since
    /// startup — each would have been a dead connection without the
    /// per-request `catch_unwind`.
    pub panics_caught: u64,
    /// Connection threads ended by a panic outside the per-request
    /// boundary since startup; each cost only its own connection.
    pub connections_crashed: u64,
    /// Accept-time connection resets injected by the chaos layer since
    /// startup.
    pub accept_faults: u64,
    /// Transient accept errors (`WouldBlock`, `ConnectionAborted`, …)
    /// absorbed by the acceptor since startup.
    pub accept_transient_errors: u64,
    /// Accept errors outside the transient class since startup.
    pub accept_fatal_errors: u64,
    /// Requests carrying the retry-attempt correlation-id bit
    /// ([`RETRY_ID_BIT`]) seen since startup — how often clients had to
    /// resend.
    pub client_retries: u64,
}

// ---------------------------------------------------------------------
// Primitive writers.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Primitive reader: a cursor over borrowed bytes; every accessor is a
// checked, panic-free slice.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_NAME_LEN.max(MAX_PAYLOAD as usize) {
            return Err(DecodeError::Oversized(len as u64));
        }
        std::str::from_utf8(self.bytes(len)?).map_err(|_| DecodeError::BadUtf8)
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------
// Structures.

fn encode_structure(out: &mut Vec<u8>, s: &Structure) {
    let voc = s.vocabulary();
    put_u16(out, voc.len() as u16);
    for (_, name, arity) in voc.symbols() {
        put_u16(out, name.len() as u16);
        out.extend_from_slice(name.as_bytes());
        put_u16(out, arity as u16);
    }
    put_u32(out, s.universe() as u32);
    for r in voc.iter() {
        let rel = s.relation(r);
        put_u32(out, rel.len() as u32);
        for t in rel.iter() {
            for &e in t {
                put_u32(out, e.0);
            }
        }
    }
}

/// Decodes one structure of a request, adding its universe to
/// `universe_total`, the request's running sum, which must stay within
/// [`MAX_UNIVERSE`]. A template (`template = true`) must also stay
/// within [`MAX_SUPPORT_WORDS`].
fn decode_structure(
    r: &mut Reader<'_>,
    universe_total: &mut u64,
    template: bool,
) -> Result<Structure, DecodeError> {
    let nrels = r.u16()? as usize;
    let mut voc = Vocabulary::new();
    for _ in 0..nrels {
        let name_len = r.u16()? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(DecodeError::Oversized(name_len as u64));
        }
        let name = std::str::from_utf8(r.bytes(name_len)?).map_err(|_| DecodeError::BadUtf8)?;
        let arity = r.u16()? as usize;
        let id = voc
            .add(name, arity)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        if id.index() + 1 != voc.len() {
            // `add` deduplicates same-name-same-arity symbols; a wire
            // vocabulary must list each symbol exactly once.
            return Err(DecodeError::Invalid(format!(
                "relation symbol `{name}` listed twice"
            )));
        }
    }
    let voc = voc.into_shared();
    let universe_claim = r.u32()?;
    *universe_total += u64::from(universe_claim);
    if *universe_total > u64::from(MAX_UNIVERSE) {
        // The universe is a bare count, not backed by payload bytes;
        // materializing it allocates per-element, so an unbounded claim
        // is a remote-allocation DoS. Reject before the builder exists.
        return Err(DecodeError::Oversized(*universe_total));
    }
    let universe = universe_claim as usize;
    let mut builder = StructureBuilder::new(std::sync::Arc::clone(&voc), universe);
    let mut tuple: Vec<Element> = Vec::new();
    let mut support_words = 0u64;
    for rel in voc.iter() {
        let ntuples = r.u32()? as usize;
        let arity = voc.arity(rel);
        if template {
            // Charge this relation's support bitsets before reading a
            // tuple: each term is below 2^62 and the sum so far within
            // the bound, so the addition cannot overflow.
            let row_words = (ntuples as u64).div_ceil(64).max(1);
            support_words += arity as u64 * u64::from(universe_claim) * row_words;
            if support_words > MAX_SUPPORT_WORDS {
                return Err(DecodeError::Oversized(support_words));
            }
        }
        for _ in 0..ntuples {
            tuple.clear();
            for _ in 0..arity {
                tuple.push(Element(r.u32()?));
            }
            builder
                .add_tuple(rel, &tuple)
                .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        }
    }
    Ok(builder.finish())
}

// ---------------------------------------------------------------------
// Solutions.

const ROUTE_SCHAEFER: u8 = 0;
const ROUTE_BOOLEANIZATION: u8 = 1;
const ROUTE_ACYCLIC: u8 = 2;
const ROUTE_ARC_REFUTED: u8 = 3;
const ROUTE_TREEWIDTH: u8 = 4;
const ROUTE_GENERIC: u8 = 5;

fn encode_solution(out: &mut Vec<u8>, sol: &Solution) {
    match &sol.homomorphism {
        Some(h) => {
            out.push(1);
            let map = h.as_slice();
            put_u32(out, map.len() as u32);
            for &e in map {
                put_u32(out, e.0);
            }
        }
        None => out.push(0),
    }
    match sol.route {
        Route::Schaefer => out.push(ROUTE_SCHAEFER),
        Route::Booleanization => out.push(ROUTE_BOOLEANIZATION),
        Route::Acyclic => out.push(ROUTE_ACYCLIC),
        Route::ArcRefuted => out.push(ROUTE_ARC_REFUTED),
        Route::Treewidth(w) => {
            out.push(ROUTE_TREEWIDTH);
            put_u32(out, w as u32);
        }
        Route::Generic => out.push(ROUTE_GENERIC),
    }
    match &sol.stats {
        Some(st) => {
            out.push(1);
            put_u64(out, st.nodes);
            put_u64(out, st.backtracks);
            put_u64(out, st.deletions);
        }
        None => out.push(0),
    }
}

fn decode_solution(r: &mut Reader<'_>) -> Result<Solution, DecodeError> {
    let homomorphism = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()? as usize;
            // A witness maps an instance's universe, so it obeys the
            // same bound decoded structures do.
            if len > MAX_UNIVERSE as usize {
                return Err(DecodeError::Oversized(len as u64));
            }
            let mut map = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                map.push(Element(r.u32()?));
            }
            Some(Homomorphism::from_map(map))
        }
        v => return Err(DecodeError::Invalid(format!("bad witness flag {v}"))),
    };
    let route = match r.u8()? {
        ROUTE_SCHAEFER => Route::Schaefer,
        ROUTE_BOOLEANIZATION => Route::Booleanization,
        ROUTE_ACYCLIC => Route::Acyclic,
        ROUTE_ARC_REFUTED => Route::ArcRefuted,
        ROUTE_TREEWIDTH => Route::Treewidth(r.u32()? as usize),
        ROUTE_GENERIC => Route::Generic,
        v => return Err(DecodeError::Invalid(format!("bad route tag {v}"))),
    };
    let stats = match r.u8()? {
        0 => None,
        1 => Some(SearchStats {
            nodes: r.u64()?,
            backtracks: r.u64()?,
            deletions: r.u64()?,
        }),
        v => return Err(DecodeError::Invalid(format!("bad stats flag {v}"))),
    };
    Ok(Solution {
        homomorphism,
        route,
        stats,
    })
}

// ---------------------------------------------------------------------
// Frames.

/// Appends a v2 frame header for request id `id` with the kind and
/// payload-length fields zeroed; returns the header's start offset for
/// [`finish_frame`] to patch once the payload is written in place.
fn begin_frame(out: &mut Vec<u8>, id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(0); // kind, patched by finish_frame
    put_u64(out, id);
    put_u32(out, 0); // payload length, patched by finish_frame
    start
}

/// Patches the kind and payload-length fields of the frame begun at
/// `start`; on an oversized payload the buffer is truncated back to
/// `start` (nothing half-framed is left behind) and encoding fails.
fn finish_frame(out: &mut Vec<u8>, start: usize, kind: u8) -> Result<(), EncodeError> {
    let payload_len = out.len() - start - HEADER_LEN;
    if payload_len > MAX_PAYLOAD as usize {
        out.truncate(start);
        return Err(EncodeError::OversizedPayload(payload_len));
    }
    out[start + 3] = kind;
    out[start + 12..start + 16].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Validates a 16-byte frame header; returns
/// `(kind, request_id, payload_len)`.
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, u64, u32), DecodeError> {
    if h[0..2] != MAGIC {
        return Err(DecodeError::BadMagic([h[0], h[1]]));
    }
    if h[2] != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion(h[2]));
    }
    let id = u64::from_le_bytes([h[4], h[5], h[6], h[7], h[8], h[9], h[10], h[11]]);
    let len = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len as u64));
    }
    Ok((h[3], id, len))
}

/// Validates the first 8 bytes of an incoming frame — the prefix v1 and
/// v2 headers share (magic, version). This is how a reader tells a v1
/// peer apart from garbage *before* committing to the v2 header length:
/// a [`DecodeError::UnsupportedVersion`] here means a well-formed frame
/// in a version this build does not speak.
pub fn parse_header_prefix(h: &[u8; LEGACY_HEADER_LEN]) -> Result<(), DecodeError> {
    if h[0..2] != MAGIC {
        return Err(DecodeError::BadMagic([h[0], h[1]]));
    }
    if h[2] != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion(h[2]));
    }
    Ok(())
}

/// Validates a retired v1 8-byte frame header; returns
/// `(kind, payload_len)`. Only used to decode the v1-framed error a v2
/// server sends to a v1 peer (and by tests impersonating one).
pub fn parse_legacy_header(h: &[u8; LEGACY_HEADER_LEN]) -> Result<(u8, u32), DecodeError> {
    if h[0..2] != MAGIC {
        return Err(DecodeError::BadMagic([h[0], h[1]]));
    }
    if h[2] != LEGACY_VERSION {
        return Err(DecodeError::UnsupportedVersion(h[2]));
    }
    let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversized(len as u64));
    }
    Ok((h[3], len))
}

/// Builds a complete **v1-framed** error frame. When a v2 server sees a
/// v1 version byte it cannot answer in v2 — the old peer would reject
/// the unfamiliar header and desynchronize — so the refusal itself is
/// sent in the peer's own framing (the error payload format is
/// identical across versions).
pub fn legacy_error_frame(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(code as u8);
    put_str(&mut p, message);
    debug_assert!(p.len() <= MAX_PAYLOAD as usize, "error frames are small");
    let mut out = Vec::with_capacity(LEGACY_HEADER_LEN + p.len());
    out.extend_from_slice(&MAGIC);
    out.push(LEGACY_VERSION);
    out.push(K_ERROR);
    put_u32(&mut out, p.len() as u32);
    out.extend_from_slice(&p);
    out
}

/// Splits a complete in-memory frame into `(kind, request_id, payload)`,
/// rejecting truncated and over-long buffers.
pub fn parse_frame(buf: &[u8]) -> Result<(u8, u64, &[u8]), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let mut h = [0u8; HEADER_LEN];
    h.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, id, len) = parse_header(&h)?;
    let expected = HEADER_LEN + len as usize;
    if buf.len() < expected {
        return Err(DecodeError::Truncated);
    }
    if buf.len() > expected {
        return Err(DecodeError::TrailingBytes(buf.len() - expected));
    }
    Ok((kind, id, &buf[HEADER_LEN..]))
}

impl Request {
    /// Appends the request as a complete frame carrying request id `id`
    /// to `out` — the zero-allocation path: the payload is encoded in
    /// place and the header patched afterwards, so a caller reusing one
    /// scratch buffer allocates nothing per frame at steady state.
    /// Fails with [`EncodeError::OversizedPayload`] (truncating `out`
    /// back to its prior length) if the encoding exceeds
    /// [`MAX_PAYLOAD`] — such a frame must never reach the wire, the
    /// peer would refuse the header and desynchronize.
    pub fn encode_into(&self, id: u64, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let start = begin_frame(out, id);
        let kind = match self {
            Request::RegisterTemplate { template } => {
                encode_structure(out, template);
                K_REGISTER
            }
            Request::Solve {
                template_id,
                deadline_ms,
                instance,
            } => {
                put_u64(out, *template_id);
                put_u32(out, *deadline_ms);
                encode_structure(out, instance);
                K_SOLVE
            }
            Request::SolveBatch {
                template_id,
                deadline_ms,
                instances,
            } => {
                put_u64(out, *template_id);
                put_u32(out, *deadline_ms);
                put_u32(out, instances.len() as u32);
                for a in instances {
                    encode_structure(out, a);
                }
                K_SOLVE_BATCH
            }
            Request::Containment { q1, q2 } => {
                put_str(out, q1);
                put_str(out, q2);
                K_CONTAINMENT
            }
            Request::Status => K_STATUS,
        };
        finish_frame(out, start, kind)
    }

    /// Encodes the request as a freshly allocated frame — a thin
    /// wrapper over [`Request::encode_into`].
    pub fn encode(&self, id: u64) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::new();
        self.encode_into(id, &mut out)?;
        Ok(out)
    }

    /// Decodes a complete frame into its request id and request.
    pub fn decode(buf: &[u8]) -> Result<(u64, Request), DecodeError> {
        let (kind, id, payload) = parse_frame(buf)?;
        Ok((id, Request::decode_payload(kind, payload)?))
    }

    /// Decodes a request payload whose frame header was already parsed.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(payload);
        let mut universe_total = 0u64;
        let req = match kind {
            K_REGISTER => Request::RegisterTemplate {
                template: decode_structure(&mut r, &mut universe_total, true)?,
            },
            K_SOLVE => Request::Solve {
                template_id: r.u64()?,
                deadline_ms: r.u32()?,
                instance: decode_structure(&mut r, &mut universe_total, false)?,
            },
            K_SOLVE_BATCH => {
                let template_id = r.u64()?;
                let deadline_ms = r.u32()?;
                let n = r.u32()? as usize;
                if n > MAX_PAYLOAD as usize {
                    return Err(DecodeError::Oversized(n as u64));
                }
                let mut instances = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    instances.push(decode_structure(&mut r, &mut universe_total, false)?);
                }
                Request::SolveBatch {
                    template_id,
                    deadline_ms,
                    instances,
                }
            }
            K_CONTAINMENT => Request::Containment {
                q1: r.str()?.to_owned(),
                q2: r.str()?.to_owned(),
            },
            K_STATUS => Request::Status,
            k => return Err(DecodeError::UnknownKind(k)),
        };
        r.done()?;
        Ok(req)
    }
}

impl Response {
    /// Appends the response as a complete frame echoing request id `id`
    /// to `out` — the zero-allocation path mirroring
    /// [`Request::encode_into`]. Fails with
    /// [`EncodeError::OversizedPayload`] (truncating `out` back to its
    /// prior length) if the encoding exceeds [`MAX_PAYLOAD`] — callers
    /// substitute a small error frame rather than desynchronize the
    /// stream.
    pub fn encode_into(&self, id: u64, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let start = begin_frame(out, id);
        let kind = match self {
            Response::TemplateRegistered { id } => {
                put_u64(out, *id);
                K_REGISTERED
            }
            Response::Solved(sol) => {
                encode_solution(out, sol);
                K_SOLVED
            }
            Response::BatchSolved(sols) => {
                put_u32(out, sols.len() as u32);
                for s in sols {
                    encode_solution(out, s);
                }
                K_BATCH_SOLVED
            }
            Response::Containment { contained } => {
                out.push(u8::from(*contained));
                K_CONTAINMENT_R
            }
            Response::Status(info) => {
                out.push(info.protocol_version);
                put_u32(out, info.templates);
                put_u32(out, info.registry_capacity);
                put_u64(out, info.evictions);
                put_u32(out, info.queue_depth);
                put_u32(out, info.max_queue_depth);
                put_u64(out, info.requests);
                put_u64(out, info.solves);
                put_u64(out, info.batches);
                put_u64(out, info.coalesced_jobs);
                put_u32(out, info.max_coalesced_jobs);
                put_u64(out, info.overloaded);
                put_u64(out, info.deadline_expired);
                put_u64(out, info.idle_wakeups);
                put_u64(out, info.panics_caught);
                put_u64(out, info.connections_crashed);
                put_u64(out, info.accept_faults);
                put_u64(out, info.accept_transient_errors);
                put_u64(out, info.accept_fatal_errors);
                put_u64(out, info.client_retries);
                K_STATUS_R
            }
            Response::Error { code, message } => {
                out.push(*code as u8);
                put_str(out, message);
                K_ERROR
            }
        };
        finish_frame(out, start, kind)
    }

    /// Encodes the response as a freshly allocated frame — a thin
    /// wrapper over [`Response::encode_into`].
    pub fn encode(&self, id: u64) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::new();
        self.encode_into(id, &mut out)?;
        Ok(out)
    }

    /// Decodes a complete frame into its request id and response.
    pub fn decode(buf: &[u8]) -> Result<(u64, Response), DecodeError> {
        let (kind, id, payload) = parse_frame(buf)?;
        Ok((id, Response::decode_payload(kind, payload)?))
    }

    /// Decodes a response payload whose frame header was already
    /// parsed.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(payload);
        let resp = match kind {
            K_REGISTERED => Response::TemplateRegistered { id: r.u64()? },
            K_SOLVED => Response::Solved(decode_solution(&mut r)?),
            K_BATCH_SOLVED => {
                let n = r.u32()? as usize;
                if n > MAX_PAYLOAD as usize {
                    return Err(DecodeError::Oversized(n as u64));
                }
                let mut sols = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    sols.push(decode_solution(&mut r)?);
                }
                Response::BatchSolved(sols)
            }
            K_CONTAINMENT_R => Response::Containment {
                contained: match r.u8()? {
                    0 => false,
                    1 => true,
                    v => return Err(DecodeError::Invalid(format!("bad bool {v}"))),
                },
            },
            K_STATUS_R => Response::Status(StatusInfo {
                protocol_version: r.u8()?,
                templates: r.u32()?,
                registry_capacity: r.u32()?,
                evictions: r.u64()?,
                queue_depth: r.u32()?,
                max_queue_depth: r.u32()?,
                requests: r.u64()?,
                solves: r.u64()?,
                batches: r.u64()?,
                coalesced_jobs: r.u64()?,
                max_coalesced_jobs: r.u32()?,
                overloaded: r.u64()?,
                deadline_expired: r.u64()?,
                idle_wakeups: r.u64()?,
                panics_caught: r.u64()?,
                connections_crashed: r.u64()?,
                accept_faults: r.u64()?,
                accept_transient_errors: r.u64()?,
                accept_fatal_errors: r.u64()?,
                client_retries: r.u64()?,
            }),
            K_ERROR => {
                let raw = r.u8()?;
                let code = ErrorCode::from_u8(raw)
                    .ok_or_else(|| DecodeError::Invalid(format!("bad error code {raw}")))?;
                Response::Error {
                    code,
                    message: r.str()?.to_owned(),
                }
            }
            k => return Err(DecodeError::UnknownKind(k)),
        };
        r.done()?;
        Ok(resp)
    }
}

/// Structural equality of two structures (same vocabulary content,
/// universe, and tuple sets) — [`Structure`] itself deliberately does
/// not implement `PartialEq`, but the codec's round-trip contract needs
/// a checkable notion of "identical".
pub fn structures_identical(a: &Structure, b: &Structure) -> bool {
    if !a.same_vocabulary(b) || a.universe() != b.universe() {
        return false;
    }
    a.vocabulary().iter().all(|r| {
        let (ra, rb) = (a.relation(r), b.relation(r));
        ra.len() == rb.len() && ra.iter().zip(rb.iter()).all(|(x, y)| x == y)
    })
}

/// Bit-level equality of two solutions (witness, route, stats) — the
/// parity predicate used by the integration suite and experiment E18.
pub fn solutions_identical(a: &Solution, b: &Solution) -> bool {
    a.homomorphism.as_ref().map(Homomorphism::as_slice)
        == b.homomorphism.as_ref().map(Homomorphism::as_slice)
        && a.route == b.route
        && a.stats == b.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;

    /// Builds a v2 frame around an already-encoded payload — the tests'
    /// stand-in for a peer hand-crafting (possibly hostile) payloads.
    fn test_frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(kind);
        put_u64(&mut out, id);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn structure_round_trip() {
        let s = generators::random_structure(5, &[1, 2, 3], 4, 7);
        let req = Request::RegisterTemplate { template: s };
        let bytes = req.encode(42).unwrap();
        let (id, back) = Request::decode(&bytes).unwrap();
        assert_eq!(id, 42, "request id echoes through the frame");
        let Request::RegisterTemplate { template } = &back else {
            panic!("wrong kind");
        };
        let Request::RegisterTemplate { template: orig } = &req else {
            unreachable!();
        };
        assert!(structures_identical(template, orig));
        assert_eq!(
            back.encode(42).unwrap(),
            bytes,
            "re-encoding is byte-stable"
        );
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        // The appending variant is the owning API byte for byte, and it
        // appends — two frames in one buffer, prior contents untouched.
        let req = Request::Solve {
            template_id: 7,
            deadline_ms: 0,
            instance: generators::undirected_cycle(4),
        };
        let a = req.encode(1).unwrap();
        let b = Request::Status.encode(2).unwrap();
        let mut buf = Vec::new();
        req.encode_into(1, &mut buf).unwrap();
        Request::Status.encode_into(2, &mut buf).unwrap();
        assert_eq!(buf.len(), a.len() + b.len());
        assert_eq!(&buf[..a.len()], &a[..]);
        assert_eq!(&buf[a.len()..], &b[..]);
    }

    #[test]
    fn correlation_id_round_trips_extremes() {
        for id in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            let bytes = Request::Status.encode(id).unwrap();
            assert_eq!(Request::decode(&bytes).unwrap().0, id);
            let bytes = Response::Containment { contained: true }
                .encode(id)
                .unwrap();
            assert_eq!(Response::decode(&bytes).unwrap().0, id);
        }
    }

    #[test]
    fn legacy_error_frame_is_v1_decodable() {
        // The frame a v2 server sends to a v1 peer must parse under the
        // v1 header rules and carry the structured code.
        let frame = legacy_error_frame(ErrorCode::UnsupportedVersion, "speak v2");
        let mut h = [0u8; LEGACY_HEADER_LEN];
        h.copy_from_slice(&frame[..LEGACY_HEADER_LEN]);
        let (kind, len) = parse_legacy_header(&h).unwrap();
        assert_eq!(len as usize, frame.len() - LEGACY_HEADER_LEN);
        let resp = Response::decode_payload(kind, &frame[LEGACY_HEADER_LEN..]).unwrap();
        let Response::Error { code, message } = resp else {
            panic!("expected an error payload");
        };
        assert_eq!(code, ErrorCode::UnsupportedVersion);
        assert_eq!(message, "speak v2");
        // And the v2 parser refuses it as the version mismatch it is.
        assert_eq!(
            parse_header_prefix(&h).unwrap_err(),
            DecodeError::UnsupportedVersion(LEGACY_VERSION)
        );
    }

    #[test]
    fn solution_round_trip_all_routes() {
        let routes = [
            Route::Schaefer,
            Route::Booleanization,
            Route::Acyclic,
            Route::ArcRefuted,
            Route::Treewidth(3),
            Route::Generic,
        ];
        for route in routes {
            for hom in [
                None,
                Some(Homomorphism::from_map(vec![Element(2), Element(0)])),
            ] {
                for stats in [
                    None,
                    Some(SearchStats {
                        nodes: 12,
                        backtracks: 3,
                        deletions: 9,
                    }),
                ] {
                    let sol = Solution {
                        homomorphism: hom.clone(),
                        route,
                        stats,
                    };
                    let bytes = Response::Solved(sol.clone()).encode(9).unwrap();
                    let (id, Response::Solved(back)) = Response::decode(&bytes).unwrap() else {
                        panic!("wrong kind");
                    };
                    assert_eq!(id, 9);
                    assert!(solutions_identical(&sol, &back));
                }
            }
        }
    }

    #[test]
    fn header_rejections() {
        let good = Request::Status.encode(5).unwrap();
        // Magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Request::decode(&bad),
            Err(DecodeError::BadMagic(_))
        ));
        // Version (including the retired v1 byte).
        for v in [9u8, LEGACY_VERSION] {
            let mut bad = good.clone();
            bad[2] = v;
            assert_eq!(
                Request::decode(&bad).unwrap_err(),
                DecodeError::UnsupportedVersion(v)
            );
        }
        // Kind.
        let mut bad = good.clone();
        bad[3] = 0x77;
        assert_eq!(
            Request::decode(&bad).unwrap_err(),
            DecodeError::UnknownKind(0x77)
        );
        // Oversized length prefix (offset 12 in the v2 header).
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Request::decode(&bad).unwrap_err(),
            DecodeError::Oversized(u64::from(MAX_PAYLOAD) + 1)
        );
        // Truncation at every prefix.
        for cut in 0..good.len() {
            assert!(
                Request::decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert_eq!(
            Request::decode(&bad).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn status_info_round_trip() {
        let info = StatusInfo {
            protocol_version: PROTOCOL_VERSION,
            templates: 3,
            registry_capacity: 64,
            evictions: 2,
            queue_depth: 1,
            max_queue_depth: 1024,
            requests: 99,
            solves: 55,
            batches: 11,
            coalesced_jobs: 8,
            max_coalesced_jobs: 4,
            overloaded: 1,
            deadline_expired: 2,
            idle_wakeups: 7,
            panics_caught: 4,
            connections_crashed: 1,
            accept_faults: 9,
            accept_transient_errors: 3,
            accept_fatal_errors: 1,
            client_retries: 12,
        };
        let bytes = Response::Status(info.clone()).encode(3).unwrap();
        let (_, Response::Status(back)) = Response::decode(&bytes).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(info, back);
    }

    #[test]
    fn decoded_structure_is_validated() {
        // An element out of range must be a decode error, not a panic:
        // universe 1 with a tuple mentioning element 5.
        let mut p = Vec::new();
        put_u16(&mut p, 1); // one relation
        put_u16(&mut p, 1);
        p.extend_from_slice(b"E");
        put_u16(&mut p, 2); // arity 2
        put_u32(&mut p, 1); // universe 1
        put_u32(&mut p, 1); // one tuple
        put_u32(&mut p, 0);
        put_u32(&mut p, 5); // out of range
        let buf = test_frame(K_REGISTER, 0, &p);
        assert!(matches!(
            Request::decode(&buf),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn unbounded_universe_claim_is_rejected_before_allocation() {
        // A tiny frame claiming a u32::MAX-element universe with zero
        // tuples must be refused up front — materializing the structure
        // would allocate per-element bookkeeping (a remote-OOM vector).
        for claim in [u32::MAX, MAX_UNIVERSE + 1] {
            let mut p = Vec::new();
            put_u16(&mut p, 1); // one relation
            put_u16(&mut p, 1);
            p.extend_from_slice(b"E");
            put_u16(&mut p, 2); // arity 2
            put_u32(&mut p, claim); // the hostile universe claim
            put_u32(&mut p, 0); // zero tuples
            let buf = test_frame(K_REGISTER, 0, &p);
            assert_eq!(
                Request::decode(&buf).unwrap_err(),
                DecodeError::Oversized(u64::from(claim))
            );
        }
        // The bound itself is still fine.
        let mut p = Vec::new();
        put_u16(&mut p, 1);
        put_u16(&mut p, 1);
        p.extend_from_slice(b"E");
        put_u16(&mut p, 2);
        put_u32(&mut p, MAX_UNIVERSE);
        put_u32(&mut p, 0);
        let buf = test_frame(K_REGISTER, 0, &p);
        let (_, Request::RegisterTemplate { template }) = Request::decode(&buf).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(template.universe(), MAX_UNIVERSE as usize);
    }

    /// A `RegisterTemplate` payload of empty relations `R0, R1, …` of
    /// the given arities over `universe` elements.
    fn empty_template_payload(arities: &[u16], universe: u32) -> Vec<u8> {
        let mut p = Vec::new();
        put_u16(&mut p, arities.len() as u16);
        for (i, &arity) in arities.iter().enumerate() {
            let name = format!("R{i}");
            put_u16(&mut p, name.len() as u16);
            p.extend_from_slice(name.as_bytes());
            put_u16(&mut p, arity);
        }
        put_u32(&mut p, universe);
        for _ in arities {
            put_u32(&mut p, 0); // zero tuples
        }
        p
    }

    #[test]
    fn template_support_words_are_capped_before_the_tuples() {
        // An empty arity-16 relation over 2^20 elements claims 2^24
        // support words: refused, carrying the count, before the
        // structure (let alone a support index) exists.
        let p = empty_template_payload(&[16], MAX_UNIVERSE);
        assert_eq!(
            Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap_err(),
            DecodeError::Oversized(16 << 20)
        );
        // The cap sums over relations: two binary relations over
        // MAX_UNIVERSE elements are one binary relation too many.
        let p = empty_template_payload(&[2, 2], MAX_UNIVERSE);
        assert_eq!(
            Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap_err(),
            DecodeError::Oversized(4 << 20)
        );
        // Exactly at the cap decodes: a binary relation plus a 0-ary
        // one over MAX_UNIVERSE elements, and arity 16 over 2^17.
        for (arities, universe) in [(&[2u16, 0][..], MAX_UNIVERSE), (&[16][..], 1 << 17)] {
            let words = arities.iter().map(|&k| u64::from(k)).sum::<u64>() * u64::from(universe);
            assert_eq!(words, MAX_SUPPORT_WORDS);
            let p = empty_template_payload(arities, universe);
            let (_, Request::RegisterTemplate { template }) =
                Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap()
            else {
                panic!("wrong kind");
            };
            assert_eq!(template.universe(), universe as usize);
        }
        // Instances are not capped: the same wide claim decodes as a
        // Solve instance.
        let p = empty_instance_payload(16, MAX_UNIVERSE);
        assert!(Request::decode(&test_frame(K_SOLVE, 0, &p)).is_ok());
    }

    /// A `RegisterTemplate` payload of one binary relation `E` over
    /// `universe` elements holding `ntuples` distinct arcs.
    fn binary_template_payload(universe: u32, ntuples: u32) -> Vec<u8> {
        let mut p = Vec::with_capacity(16 + 8 * ntuples as usize);
        put_u16(&mut p, 1);
        put_u16(&mut p, 1);
        p.extend_from_slice(b"E");
        put_u16(&mut p, 2);
        put_u32(&mut p, universe);
        put_u32(&mut p, ntuples);
        for k in 0..ntuples {
            // Arc k leaves k mod |B| and skips ahead 1 + (k / |B|)·2039,
            // distinct for the fewer than 16·|B| arcs asked of it.
            let (from, round) = (k % universe, k / universe);
            put_u32(&mut p, from);
            put_u32(&mut p, (from + 1 + round * 2039) % universe);
        }
        p
    }

    #[test]
    fn template_support_words_count_the_tuples() {
        // A 4 MiB payload: 524,174 arcs over 32,768 elements would take
        // 2 · 32,768 · 8,191 support words; refused as its tuple count
        // is read, before any tuple.
        let p = binary_template_payload(1 << 15, 524_174);
        assert_eq!(p.len().div_ceil(1 << 20), 4);
        assert_eq!(
            Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap_err(),
            DecodeError::Oversized(2 * (1 << 15) * 8_191)
        );
        // At 2^14 elements a relation fills the bound at 64 · 64 arcs
        // (64 words per bitset); one more arc needs a 65th word.
        let p = binary_template_payload(1 << 14, 64 * 64);
        let (_, Request::RegisterTemplate { template }) =
            Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap()
        else {
            panic!("wrong kind");
        };
        assert_eq!(template.total_tuples(), 64 * 64);
        let p = binary_template_payload(1 << 14, 64 * 64 + 1);
        assert_eq!(
            Request::decode(&test_frame(K_REGISTER, 0, &p)).unwrap_err(),
            DecodeError::Oversized(2 * (1 << 14) * 65)
        );
    }

    /// A `Solve` payload for template 1 whose instance has one
    /// relation `E` of `arity`, `universe` elements and no tuples.
    fn empty_instance_payload(arity: u16, universe: u32) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, 1); // template id
        put_u32(&mut p, 0); // no deadline
        put_u16(&mut p, 1); // one relation
        put_u16(&mut p, 1);
        p.extend_from_slice(b"E");
        put_u16(&mut p, arity);
        put_u32(&mut p, universe);
        put_u32(&mut p, 0); // zero tuples
        p
    }

    #[test]
    fn wide_empty_relation_decodes_without_arity_scaled_allocation() {
        // 27 payload bytes: arity 65535 over 2^20 elements, no tuples.
        // Decoding must not allocate per (position, element) pair: at
        // 24 bytes a pair that is ~1.6 TB for this frame.
        let p = empty_instance_payload(u16::MAX, MAX_UNIVERSE);
        assert_eq!(p.len(), 27);
        let (_, Request::Solve { instance, .. }) =
            Request::decode(&test_frame(K_SOLVE, 0, &p)).unwrap()
        else {
            panic!("wrong kind");
        };
        assert_eq!(instance.universe(), MAX_UNIVERSE as usize);
        let e = instance.vocabulary().lookup("E").unwrap();
        assert_eq!(instance.relation(e).arity(), usize::from(u16::MAX));
        assert!(instance.relation(e).is_empty());
    }

    /// A `SolveBatch` payload of empty-instance structures with the
    /// given universes.
    fn batch_payload(universes: &[u32]) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, 1); // template id
        put_u32(&mut p, 0); // no deadline
        put_u32(&mut p, universes.len() as u32);
        for &n in universes {
            // Each instance is a Solve payload minus its 12-byte prefix.
            p.extend_from_slice(&empty_instance_payload(2, n)[12..]);
        }
        p
    }

    #[test]
    fn batch_universe_is_capped_per_request() {
        let half = MAX_UNIVERSE / 2;
        // Each instance is within the bound; together they are not.
        let buf = test_frame(K_SOLVE_BATCH, 0, &batch_payload(&[half, half, 1]));
        assert_eq!(
            Request::decode(&buf).unwrap_err(),
            DecodeError::Oversized(u64::from(MAX_UNIVERSE) + 1)
        );
        let buf = test_frame(K_SOLVE_BATCH, 0, &batch_payload(&[MAX_UNIVERSE; 3]));
        assert_eq!(
            Request::decode(&buf).unwrap_err(),
            DecodeError::Oversized(2 * u64::from(MAX_UNIVERSE))
        );
        // Summing to exactly the bound decodes.
        let buf = test_frame(K_SOLVE_BATCH, 0, &batch_payload(&[half, half - 7, 7, 0]));
        let (_, Request::SolveBatch { instances, .. }) = Request::decode(&buf).unwrap() else {
            panic!("wrong kind");
        };
        let universes: Vec<usize> = instances.iter().map(Structure::universe).collect();
        assert_eq!(universes, [half, half - 7, 7, 0].map(|n| n as usize));
    }

    #[test]
    fn oversized_witness_claim_is_rejected() {
        let mut p = Vec::new();
        p.push(1); // has witness
        put_u32(&mut p, MAX_UNIVERSE + 1); // hostile map length
        let buf = test_frame(K_SOLVED, 0, &p);
        assert_eq!(
            Response::decode(&buf).unwrap_err(),
            DecodeError::Oversized(u64::from(MAX_UNIVERSE) + 1)
        );
    }

    #[test]
    fn over_limit_encoding_is_refused_not_framed() {
        // Five witnesses of MAX_UNIVERSE elements encode past the
        // 16 MiB frame limit; encode must fail rather than emit a frame
        // the peer's header check would reject (stream desync), and
        // rather than silently truncating the length prefix.
        let huge = Solution {
            homomorphism: Some(Homomorphism::from_map(vec![
                Element(0);
                MAX_UNIVERSE as usize
            ])),
            route: Route::Generic,
            stats: None,
        };
        let resp = Response::BatchSolved(vec![huge; 5]);
        assert!(matches!(
            resp.encode(0),
            Err(EncodeError::OversizedPayload(n)) if n > MAX_PAYLOAD as usize
        ));
        // The appending variant must leave the scratch buffer exactly
        // as it found it — no half-written frame to desynchronize on.
        let mut buf = b"prior".to_vec();
        assert!(resp.encode_into(0, &mut buf).is_err());
        assert_eq!(buf, b"prior");
    }
}
