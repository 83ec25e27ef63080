//! Property suite for the wire codec: round-trips and malformed-frame
//! fuzzing.
//!
//! Two families of properties:
//!
//! 1. **Round-trip**: any request/response built from arbitrary (valid)
//!    structures, solutions, and status snapshots survives
//!    encode → decode with identical content *and* correlation id, and
//!    re-encoding the decoded value is byte-stable. The appending
//!    `encode_into` used on the pooled hot path produces byte-identical
//!    frames to the owning `encode`.
//! 2. **Fuzz**: the decoder never panics and never accepts a damaged
//!    frame — arbitrary byte soup, truncation at every prefix length,
//!    oversized length prefixes, wrong versions (v1 included), and
//!    single-byte header corruption all come back as `Err`, not as UB
//!    or a crash. The one deliberate exception: the 8 correlation-id
//!    bytes are opaque to the codec, so corrupting them changes the id
//!    and nothing else.
//!
//! Run with `PROPTEST_CASES=5000` for the CI stress setting.

use cqcs_core::{Route, SearchStats, Solution};
use cqcs_net::codec::{
    solutions_identical, structures_identical, DecodeError, Request, Response, StatusInfo,
    HEADER_LEN, LEGACY_VERSION, MAX_PAYLOAD, MAX_UNIVERSE, PROTOCOL_VERSION,
};
use cqcs_structures::{Element, Homomorphism, Structure, StructureBuilder, Vocabulary};
use proptest::prelude::*;

/// Strategy: a small random structure over a random vocabulary of up to
/// three relations with arities 1–3.
fn structure(max_n: usize) -> impl Strategy<Value = Structure> {
    (
        1..=max_n,
        proptest::collection::vec(1usize..=3, 1..=3),
        proptest::collection::vec((0usize..3, proptest::collection::vec(0u32..16, 3)), 0..=8),
    )
        .prop_map(|(n, arities, raw_facts)| {
            let mut voc = Vocabulary::new();
            for (i, &a) in arities.iter().enumerate() {
                voc.add(&format!("R{i}"), a).expect("fresh symbol");
            }
            let voc = voc.into_shared();
            let mut b = StructureBuilder::new(std::sync::Arc::clone(&voc), n);
            for (ri, tuple) in raw_facts {
                let rels: Vec<_> = voc.iter().collect();
                let r = rels[ri % rels.len()];
                let arity = voc.arity(r);
                let t: Vec<Element> = tuple[..arity]
                    .iter()
                    .map(|&v| Element(v % n as u32))
                    .collect();
                b.add_tuple(r, &t).expect("tuple in range");
            }
            b.finish()
        })
}

/// Strategy: an arbitrary solution (any route, optional witness and
/// stats).
fn solution() -> impl Strategy<Value = Solution> {
    (
        0usize..6,
        0usize..40,
        proptest::collection::vec(0u32..64, 0..6),
        any::<bool>(),
        any::<bool>(),
        (0u64..1000, 0u64..1000, 0u64..1000),
    )
        .prop_map(
            |(route_ix, width, map, has_hom, has_stats, (n, b, d))| Solution {
                homomorphism: if has_hom {
                    Some(Homomorphism::from_map(
                        map.into_iter().map(Element).collect(),
                    ))
                } else {
                    None
                },
                route: match route_ix {
                    0 => Route::Schaefer,
                    1 => Route::Booleanization,
                    2 => Route::Acyclic,
                    3 => Route::ArcRefuted,
                    4 => Route::Treewidth(width),
                    _ => Route::Generic,
                },
                stats: if has_stats {
                    Some(SearchStats {
                        nodes: n,
                        backtracks: b,
                        deletions: d,
                    })
                } else {
                    None
                },
            },
        )
}

/// Strategy: arbitrary short text (mixed ASCII and multi-byte UTF-8)
/// for containment query fields — content is opaque to the codec.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..60).prop_map(|bytes| {
        const ALPHABET: [char; 40] = [
            'a', 'b', 'c', 'X', 'Y', 'Z', '0', '1', '(', ')', ',', '.', ':', '-', ' ', '\n', '"',
            '\\', '⊑', 'φ', 'ψ', '∃', '→', 'é', 'q', 'E', 'R', 'Q', '_', ';', '[', ']', '{', '}',
            '<', '>', '=', '!', '?', '∧',
        ];
        bytes
            .into_iter()
            .map(|b| ALPHABET[b as usize % ALPHABET.len()])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RegisterTemplate round-trips any valid structure and any
    /// correlation id, byte-stably.
    #[test]
    fn register_round_trips(rid in any::<u64>(), s in structure(6)) {
        let req = Request::RegisterTemplate { template: s.clone() };
        let bytes = req.encode(rid).unwrap();
        let (back_id, back) = Request::decode(&bytes).unwrap();
        prop_assert_eq!(back_id, rid);
        let Request::RegisterTemplate { template } = &back else {
            panic!("wrong kind back");
        };
        prop_assert!(structures_identical(template, &s));
        prop_assert_eq!(back.encode(rid).unwrap(), bytes);
    }

    /// Solve carries id, deadline, and instance faithfully.
    #[test]
    fn solve_round_trips(
        rid in any::<u64>(),
        id in any::<u64>(),
        deadline in any::<u32>(),
        s in structure(5),
    ) {
        let req = Request::Solve { template_id: id, deadline_ms: deadline, instance: s.clone() };
        let (back_id, back) = Request::decode(&req.encode(rid).unwrap()).unwrap();
        prop_assert_eq!(back_id, rid);
        let Request::Solve { template_id, deadline_ms, instance } = back else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(template_id, id);
        prop_assert_eq!(deadline_ms, deadline);
        prop_assert!(structures_identical(&instance, &s));
    }

    /// SolveBatch preserves instance count and order.
    #[test]
    fn solve_batch_round_trips(
        rid in any::<u64>(),
        id in any::<u64>(),
        batch in proptest::collection::vec(structure(4), 0..4),
    ) {
        let req = Request::SolveBatch { template_id: id, deadline_ms: 0, instances: batch.clone() };
        let (back_id, back) = Request::decode(&req.encode(rid).unwrap()).unwrap();
        prop_assert_eq!(back_id, rid);
        let Request::SolveBatch { template_id, instances, .. } = back else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(template_id, id);
        prop_assert_eq!(instances.len(), batch.len());
        for (a, b) in instances.iter().zip(batch.iter()) {
            prop_assert!(structures_identical(a, b));
        }
    }

    /// Solved responses are lossless for every route/witness/stats
    /// combination — the parity predicate sees no difference.
    #[test]
    fn solution_round_trips(rid in any::<u64>(), sol in solution()) {
        let bytes = Response::Solved(sol.clone()).encode(rid).unwrap();
        let (back_id, Response::Solved(back)) = Response::decode(&bytes).unwrap() else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(back_id, rid);
        prop_assert!(solutions_identical(&back, &sol));
        prop_assert_eq!(Response::Solved(back).encode(rid).unwrap(), bytes);
    }

    /// BatchSolved preserves order and content.
    #[test]
    fn batch_solved_round_trips(sols in proptest::collection::vec(solution(), 0..6)) {
        let bytes = Response::BatchSolved(sols.clone()).encode(3).unwrap();
        let (_, Response::BatchSolved(back)) = Response::decode(&bytes).unwrap() else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(back.len(), sols.len());
        for (a, b) in back.iter().zip(sols.iter()) {
            prop_assert!(solutions_identical(a, b));
        }
    }

    /// Containment requests survive arbitrary (UTF-8) query text.
    #[test]
    fn containment_round_trips(q1 in text(), q2 in text()) {
        let req = Request::Containment { q1: q1.clone(), q2: q2.clone() };
        let (_, back) = Request::decode(&req.encode(1).unwrap()).unwrap();
        let Request::Containment { q1: b1, q2: b2 } = back else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(b1, q1);
        prop_assert_eq!(b2, q2);
    }

    /// Status snapshots round-trip field-for-field.
    #[test]
    fn status_round_trips(
        (templates, capacity, queue, maxq, maxco) in
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (evictions, requests, solves, batches, coalesced) in
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (overloaded, expired, idle) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (panics, crashes, afaults) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (atransient, afatal, retries) in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let info = StatusInfo {
            protocol_version: PROTOCOL_VERSION,
            templates,
            registry_capacity: capacity,
            evictions,
            queue_depth: queue,
            max_queue_depth: maxq,
            requests,
            solves,
            batches,
            coalesced_jobs: coalesced,
            max_coalesced_jobs: maxco,
            overloaded,
            deadline_expired: expired,
            idle_wakeups: idle,
            panics_caught: panics,
            connections_crashed: crashes,
            accept_faults: afaults,
            accept_transient_errors: atransient,
            accept_fatal_errors: afatal,
            client_retries: retries,
        };
        let (_, Response::Status(back)) =
            Response::decode(&Response::Status(info.clone()).encode(5).unwrap()).unwrap() else {
            panic!("wrong kind back");
        };
        prop_assert_eq!(back, info);
    }

    /// The appending `encode_into` produces the exact bytes of the
    /// owning `encode`, wherever it lands in the output buffer — two
    /// frames appended back-to-back equal their concatenated owning
    /// encodes. This is what lets the pooled hot path reuse one scratch
    /// buffer without changing a single wire byte.
    #[test]
    fn encode_into_is_byte_identical_to_encode(
        rid1 in any::<u64>(),
        rid2 in any::<u64>(),
        s in structure(4),
        sol in solution(),
    ) {
        let req = Request::Solve { template_id: 7, deadline_ms: 0, instance: s };
        let resp = Response::Solved(sol);
        let mut appended = Vec::new();
        req.encode_into(rid1, &mut appended).unwrap();
        resp.encode_into(rid2, &mut appended).unwrap();
        let mut owned = req.encode(rid1).unwrap();
        owned.extend_from_slice(&resp.encode(rid2).unwrap());
        prop_assert_eq!(appended, owned);
    }

    // -----------------------------------------------------------------
    // Fuzzing: the decoder must reject, never panic.

    /// Arbitrary byte soup never panics either decoder.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Byte soup wearing a valid header still decodes gracefully: the
    /// payload is garbage but the decoder only ever errors.
    #[test]
    fn framed_soup_never_panics(
        kind in any::<u8>(),
        rid in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(b"CQ");
        buf.push(PROTOCOL_VERSION);
        buf.push(kind);
        buf.extend_from_slice(&rid.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let _ = Request::decode(&buf);
        let _ = Response::decode(&buf);
    }

    /// Every strict prefix of a valid frame is rejected as truncated —
    /// no prefix length decodes, none panics.
    #[test]
    fn truncation_always_rejected(s in structure(5), cut_seed in any::<u64>()) {
        let bytes = Request::RegisterTemplate { template: s }.encode(9).unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    /// Single-byte corruption of the header is always caught (magic,
    /// version, kind, or a length that no longer matches the buffer) —
    /// except in the correlation-id field, which is opaque by design:
    /// there the frame still decodes, just under the corrupted id.
    #[test]
    fn header_corruption_rejected(delta in 1u8..=255, pos in 0usize..HEADER_LEN) {
        let good = Request::Status.encode(11).unwrap();
        let mut bad = good.clone();
        bad[pos] = bad[pos].wrapping_add(delta);
        if (4..12).contains(&pos) {
            // The id bytes carry no structure: the decode succeeds and
            // faithfully reports the (corrupted) id.
            let (id, _) = Request::decode(&bad).unwrap();
            prop_assert_ne!(id, 11);
        } else {
            // Status has an empty payload, so any other header change is
            // visible: magic/version/kind mismatch or a length the
            // buffer can't back.
            prop_assert!(Request::decode(&bad).is_err());
        }
    }

    /// Oversized length prefixes are rejected before allocation.
    #[test]
    fn oversized_length_rejected(extra in 1u32..=1000) {
        let mut bad = Request::Status.encode(1).unwrap();
        let huge = MAX_PAYLOAD + extra;
        bad[12..16].copy_from_slice(&huge.to_le_bytes());
        prop_assert_eq!(
            Request::decode(&bad).unwrap_err(),
            DecodeError::Oversized(u64::from(huge))
        );
    }

    /// Universe claims beyond `MAX_UNIVERSE` are rejected before the
    /// structure (whose bookkeeping allocates per claimed element) is
    /// ever built — a ~30-byte frame must not buy a giant allocation.
    #[test]
    fn hostile_universe_claim_rejected(extra in 1u32..=u32::MAX - MAX_UNIVERSE) {
        let claim = MAX_UNIVERSE + extra;
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u16.to_le_bytes()); // one relation
        payload.extend_from_slice(&1u16.to_le_bytes()); // name len 1
        payload.push(b'E');
        payload.extend_from_slice(&2u16.to_le_bytes()); // arity 2
        payload.extend_from_slice(&claim.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // zero tuples
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(b"CQ");
        buf.push(PROTOCOL_VERSION);
        buf.push(0x01); // K_REGISTER
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        prop_assert_eq!(
            Request::decode(&buf).unwrap_err(),
            DecodeError::Oversized(u64::from(claim))
        );
    }

    /// Wrong protocol versions — the legacy v1 explicitly included —
    /// are rejected with the offered version echoed, so the server can
    /// send a typed `UnsupportedVersion` refusal instead of desyncing.
    #[test]
    fn wrong_version_rejected(v in any::<u8>()) {
        prop_assume!(v != PROTOCOL_VERSION);
        let mut bad = Request::Status.encode(1).unwrap();
        bad[2] = v;
        prop_assert_eq!(
            Request::decode(&bad).unwrap_err(),
            DecodeError::UnsupportedVersion(v)
        );
        // The shared 8-byte prefix alone is enough to detect it — this
        // is the check the server runs before committing to a v2-length
        // header read.
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&bad[..8]);
        prop_assert_eq!(
            cqcs_net::codec::parse_header_prefix(&prefix).unwrap_err(),
            DecodeError::UnsupportedVersion(v)
        );
        // Pin the legacy version explicitly rather than waiting for the
        // strategy to draw 1.
        let mut v1 = Request::Status.encode(1).unwrap();
        v1[2] = LEGACY_VERSION;
        prop_assert_eq!(
            Request::decode(&v1).unwrap_err(),
            DecodeError::UnsupportedVersion(LEGACY_VERSION)
        );
    }
}
