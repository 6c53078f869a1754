//! Wire-format property tests: every protocol message and serialized
//! IBLT round-trips to an equal value, and truncated or corrupted frames
//! return errors instead of panicking.

use proptest::prelude::*;
// ordering: Relaxed — single-threaded fixture setup of plain counters.
use std::sync::atomic::Ordering::Relaxed;

use peel_iblt::{Iblt, IbltConfig};
use peel_service::metrics::{
    AtomicHistogram, FollowerStats, HistogramSnapshot, Metrics, MetricsSnapshot, ReplicationStats,
    ReshardStats, Sample, Samples, ShardStats, Value, HISTOGRAM_BUCKETS, REQUEST_CLASSES,
};
use peel_service::prom::render;
use peel_service::queue::Op;
use peel_service::recorder::FlightRecord;
use peel_service::wire::{
    decode_request, decode_response, encode_request, encode_response, iblt_from_bytes,
    iblt_from_sparse_bytes, iblt_to_bytes, iblt_to_sparse_bytes, read_frame, write_frame,
    FrameDecoder, HelloInfo, Request, Response, ShardDiff, WireError, PROTOCOL_VERSION,
};

// --- Strategies -------------------------------------------------------------

fn arb_config() -> impl Strategy<Value = IbltConfig> {
    (2usize..6, 1usize..40, any::<u64>())
        .prop_map(|(hashes, cells, seed)| IbltConfig::new(hashes, cells, seed))
}

fn arb_iblt() -> impl Strategy<Value = Iblt> {
    (
        arb_config(),
        proptest::collection::vec(any::<u64>(), 0..60),
        proptest::collection::vec(any::<u64>(), 0..20),
    )
        .prop_map(|(cfg, inserts, deletes)| {
            let mut t = Iblt::new(cfg);
            for k in inserts {
                t.insert(k);
            }
            for k in deletes {
                t.delete(k);
            }
            t
        })
}

fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..200)
}

/// A replicated ingest batch: signed ops whose direction is ±1, exactly
/// as the queue seals them.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (any::<u64>(), any::<bool>()).prop_map(|(key, ins)| Op {
            key,
            dir: if ins { 1 } else { -1 },
        }),
        0..100,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello),
        arb_keys().prop_map(Request::Insert),
        arb_keys().prop_map(Request::Delete),
        Just(Request::Flush),
        (0u32..16).prop_map(|shard| Request::Digest { shard }),
        (0u32..16, arb_iblt()).prop_map(|(shard, digest)| Request::Reconcile { shard, digest }),
        Just(Request::Stats),
        Just(Request::Shutdown),
        any::<u64>().prop_map(|last_seq| Request::Subscribe { last_seq }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, seq)| Request::ReplicateAck { epoch, seq }),
        any::<u32>().prop_map(|to_shards| Request::ReshardBegin { to_shards }),
        any::<u32>().prop_map(|shard| Request::ReshardDigest { shard }),
        Just(Request::ReshardCommit),
        Just(Request::ReshardAbort),
        Just(Request::DebugDump),
        Just(Request::ReplicaStatus),
        (0u32..64, any::<u64>())
            .prop_map(|(shard, max_lag)| Request::ReadDigest { shard, max_lag }),
    ]
}

fn arb_replica_status() -> impl Strategy<Value = peel_service::ReplicaStatus> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>()),
        (any::<u64>(), any::<bool>(), any::<u32>()),
        proptest::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(a, b, primary)| peel_service::ReplicaStatus {
            node_id: a.0,
            epoch: a.1,
            leading: a.2,
            last_applied: b.0,
            converged: b.1,
            shards: b.2,
            primary: String::from_utf8_lossy(&primary).into_owned(),
        })
}

fn arb_reshard_stats() -> impl Strategy<Value = ReshardStats> {
    (
        (any::<u64>(), any::<bool>(), any::<u32>(), any::<u32>()),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(a, b)| ReshardStats {
            generation: a.0,
            resharding: a.1,
            serving_shards: a.2,
            to_shards: a.3,
            keys_moved: b.0,
            shards_verified: b.1,
            completed: b.2,
            aborted: b.3,
        })
}

fn arb_shard_diff() -> impl Strategy<Value = ShardDiff> {
    (
        (0u32..64, any::<u64>(), any::<bool>(), 0u32..1000),
        arb_keys(),
        arb_keys(),
        any::<u64>(),
    )
        .prop_map(|(a, only_local, only_remote, as_of_seq)| ShardDiff {
            shard: a.0,
            epoch: a.1,
            complete: a.2,
            subrounds: a.3,
            only_local,
            only_remote,
            as_of_seq,
        })
}

/// A wire-valid histogram snapshot: sparse buckets with strictly
/// ascending indices below [`HISTOGRAM_BUCKETS`] (the decoder rejects
/// anything else as malformed).
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::btree_map(0u32..HISTOGRAM_BUCKETS as u32, 1u64..u64::MAX, 0..12),
    )
        .prop_map(|(count, sum, buckets)| HistogramSnapshot {
            count,
            sum,
            buckets: buckets.into_iter().collect(),
        })
}

/// A flight-recorder event row. Names and field strings are arbitrary
/// UTF-8 (synthesized by lossy conversion, as for `Response::Error`).
fn arb_flight_records() -> impl Strategy<Value = Vec<FlightRecord>> {
    proptest::collection::vec(
        (
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u64>()),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(a, parent, name, fields)| FlightRecord {
                seq: a.0,
                at_us: a.1,
                kind: a.2,
                span: a.3,
                parent,
                name: String::from_utf8_lossy(&name).into_owned(),
                fields: String::from_utf8_lossy(&fields).into_owned(),
            }),
        0..10,
    )
}

/// Arbitrary UTF-8 text (the shim has no string strategies; lossy
/// conversion of arbitrary bytes yields multi-byte chars too).
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// An arbitrary `Stats` sample list: any family names and labels, each
/// value a scalar or a wire-valid histogram. The decoder is generic, so
/// names need not be registry families.
fn arb_samples() -> impl Strategy<Value = Samples> {
    let value = prop_oneof![
        any::<u64>().prop_map(Value::Scalar),
        arb_histogram().prop_map(Value::Histogram),
    ];
    let labels = proptest::collection::vec((arb_text(8), arb_text(8)), 0..3);
    proptest::collection::vec((arb_text(24), labels, value), 0..12).prop_map(|rows| {
        let rows = rows.into_iter();
        Samples(
            rows.map(|(family, labels, value)| Sample {
                family,
                labels,
                value,
            })
            .collect(),
        )
    })
}

/// An arbitrary live service state: every `Metrics` counter set, a few
/// recoveries and requests recorded, and the snapshot-time shard,
/// replication-hub, and reshard inputs.
fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    let recovery = (
        any::<bool>(),
        0u32..64,
        proptest::collection::vec((any::<u64>(), 0u64..1 << 40), 0..6),
    );
    let follower = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    );
    (
        proptest::collection::vec(any::<u64>(), 18..=18),
        proptest::collection::vec(recovery, 0..4),
        proptest::collection::vec((0usize..REQUEST_CLASSES.len() + 2, any::<u64>()), 0..16),
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
        (
            proptest::collection::vec(follower, 0..4),
            proptest::collection::vec(any::<u64>(), 0..8),
            proptest::collection::vec(any::<u64>(), 8..=8),
            any::<bool>(),
        ),
        arb_reshard_stats(),
    )
        .prop_map(
            |(c, recoveries, requests, shards, (followers, lags, hub, leading), reshard)| {
                let m = Metrics::default();
                let counters = [
                    &m.batches_applied,
                    &m.ops_applied,
                    &m.queue_stalls,
                    &m.recoveries_incomplete,
                    &m.recovery_subrounds,
                    &m.repl_applied,
                    &m.repl_skipped,
                    &m.repl_decode_errors,
                    &m.anti_entropy_rounds,
                    &m.anti_entropy_keys,
                    &m.repl_fenced,
                    &m.reshards_completed,
                    &m.reshards_aborted,
                    &m.conns_live,
                    &m.conns_accepted,
                    &m.conns_refused,
                    &m.conns_idle_reaped,
                    &m.accept_errors,
                ];
                for (counter, v) in counters.into_iter().zip(c) {
                    counter.store(v, Relaxed);
                }
                for (complete, subrounds, trace) in recoveries {
                    let (keys, ns): (Vec<u64>, Vec<u64>) = trace.into_iter().unzip();
                    m.record_recovery(complete, subrounds, &keys, &ns);
                }
                for (class, ns) in requests {
                    m.record_request(class, ns);
                    m.queue_wait.record(ns / 3);
                    m.batch_apply.record(ns / 7);
                }
                let lag = AtomicHistogram::new();
                for v in lags {
                    lag.record(v);
                }
                let hub = ReplicationStats {
                    followers: hub[0],
                    published_seq: hub[1],
                    acked_min: hub[2],
                    max_lag: hub[3],
                    batches_streamed: hub[4],
                    batches_dropped: hub[5],
                    epoch: hub[6],
                    read_lag: hub[7],
                    leading,
                    per_follower: followers
                        .into_iter()
                        .map(|(id, published, acked, lag, alive)| FollowerStats {
                            id,
                            published,
                            acked,
                            lag,
                            alive,
                        })
                        .collect(),
                    lag: lag.snapshot(),
                    ..ReplicationStats::default()
                };
                let shards = shards.into_iter();
                let shards = shards
                    .map(|(epoch, inserts, deletes)| ShardStats {
                        epoch,
                        inserts,
                        deletes,
                    })
                    .collect();
                m.snapshot(shards, hub, reshard)
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            arb_config(),
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(|(shards, router_seed, base_config, batch_size, epoch)| {
                Response::Hello(HelloInfo {
                    version: PROTOCOL_VERSION,
                    shards,
                    router_seed,
                    base_config,
                    batch_size,
                    epoch,
                })
            }),
        any::<u64>().prop_map(|accepted| Response::Ok { accepted }),
        (any::<u64>(), arb_iblt()).prop_map(|(epoch, iblt)| Response::Digest { epoch, iblt }),
        arb_shard_diff().prop_map(Response::Diff),
        arb_samples().prop_map(Response::Stats),
        (any::<u64>(), any::<u64>(), arb_ops()).prop_map(|(epoch, seq, ops)| Response::Replicate {
            epoch,
            seq,
            ops
        }),
        arb_replica_status().prop_map(Response::ReplicaStatus),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)).prop_map(
            |(lag, redirect)| Response::ReadStale {
                lag,
                redirect: String::from_utf8_lossy(&redirect).into_owned(),
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(epoch, generation, shards)| {
            Response::GenerationChange {
                epoch,
                generation,
                shards,
            }
        }),
        arb_reshard_stats().prop_map(Response::Reshard),
        (any::<u64>(), arb_iblt()).prop_map(|(epoch, iblt)| Response::DigestSparse { epoch, iblt }),
        // The shim has no string strategies; synthesize UTF-8 (including
        // multi-byte chars) from arbitrary bytes via lossy conversion.
        arb_text(40).prop_map(Response::Error),
        arb_flight_records().prop_map(Response::DebugDump),
    ]
}

// --- Properties -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decode(encode(request)) == request, and the encoding survives a
    /// framed trip through a byte buffer.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload).unwrap(), req.clone());

        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(framed);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(decode_request(&back).unwrap(), req);
    }

    /// decode(encode(response)) == response.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    /// Serialized IBLTs decode to an equal table (config, cells, and the
    /// derived item counter all agree).
    #[test]
    fn iblt_roundtrip(t in arb_iblt()) {
        let bytes = iblt_to_bytes(&t);
        let back = iblt_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.items(), t.items());
        prop_assert_eq!(back.config(), t.config());
    }

    /// Every strict prefix of an encoded message fails to decode with an
    /// error — never a panic, and never a bogus success.
    #[test]
    fn truncated_requests_error(req in arb_request(), cut in 0.0f64..1.0) {
        let payload = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let cut = (payload.len() as f64 * cut) as usize; // < len
        prop_assert!(decode_request(&payload[..cut]).is_err());
    }

    /// Same for responses.
    #[test]
    fn truncated_responses_error(resp in arb_response(), cut in 0.0f64..1.0) {
        let payload = encode_response(&resp);
        prop_assume!(!payload.is_empty());
        let cut = (payload.len() as f64 * cut) as usize;
        prop_assert!(decode_response(&payload[..cut]).is_err());
    }

    /// The sparse (skip-empty-cells) encoding decodes to the same table
    /// the dense one does, and every strict prefix of it errors instead
    /// of panicking or mis-decoding.
    #[test]
    fn sparse_iblt_roundtrip_and_truncation(t in arb_iblt(), cut in 0.0f64..1.0) {
        let sparse = iblt_to_sparse_bytes(&t);
        prop_assert_eq!(&iblt_from_sparse_bytes(&sparse).unwrap(), &t);
        // Equivalence with the dense path on the same table.
        prop_assert_eq!(&iblt_from_bytes(&iblt_to_bytes(&t)).unwrap(), &t);
        let cut = (sparse.len() as f64 * cut) as usize; // < len
        prop_assert!(iblt_from_sparse_bytes(&sparse[..cut]).is_err());
    }

    /// Arbitrary byte soup never panics the decoders (errors are fine;
    /// an accidental clean decode of random bytes is fine too).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = iblt_from_bytes(&bytes);
        let _ = iblt_from_sparse_bytes(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    /// Single-byte corruption of a valid encoding never panics, and
    /// corrupting the *tag* byte of a non-tag-colliding value errors.
    #[test]
    fn corrupted_requests_never_panic(
        req in arb_request(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut payload = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let pos = (payload.len() as f64 * pos_frac) as usize % payload.len();
        payload[pos] ^= flip;
        let _ = decode_request(&payload); // must not panic
    }

    /// Same for responses — in particular the `Replicate` stream frames,
    /// whose corruption a follower must survive (it skips the frame and
    /// lets anti-entropy heal the loss).
    #[test]
    fn corrupted_responses_never_panic(
        resp in arb_response(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut payload = encode_response(&resp);
        prop_assume!(!payload.is_empty());
        let pos = (payload.len() as f64 * pos_frac) as usize % payload.len();
        payload[pos] ^= flip;
        let _ = decode_response(&payload); // must not panic
    }

    /// Version negotiation refuses cleanly both ways on the handshake
    /// frame, for *every* v6 `Hello`: the v5 wire image (the v6 bytes
    /// minus the appended epoch tail) is an UnexpectedEof to a v6
    /// decoder, and a longer-than-v6 image (a hypothetical v7 tail) is a
    /// TrailingBytes — so a mixed-version pair always gets a clean error
    /// on the very first frame, never a mis-decoded handshake.
    #[test]
    fn hello_version_negotiation_refuses_both_ways(
        shards in any::<u32>(),
        router_seed in any::<u64>(),
        base_config in arb_config(),
        batch_size in any::<u32>(),
        epoch in any::<u64>(),
    ) {
        let hello = Response::Hello(HelloInfo {
            version: PROTOCOL_VERSION,
            shards,
            router_seed,
            base_config,
            batch_size,
            epoch,
        });
        let v6 = encode_response(&hello);
        prop_assert!(matches!(
            decode_response(&v6[..v6.len() - 8]),
            Err(WireError::UnexpectedEof)
        ));
        let mut v7ish = v6.clone();
        v7ish.extend_from_slice(&[0u8; 8]);
        prop_assert!(matches!(
            decode_response(&v7ish),
            Err(WireError::TrailingBytes(8))
        ));
    }

    /// The registry-driven `Stats` path end to end: for any service
    /// state, the snapshot's samples survive the wire unchanged, and the
    /// Prometheus text rendered from the decoded samples is the text
    /// rendered in process.
    #[test]
    fn registry_samples_roundtrip_and_render_identically(snap in arb_metrics()) {
        let samples = snap.samples();
        let resp = Response::Stats(samples.clone());
        let Response::Stats(back) = decode_response(&encode_response(&resp)).unwrap() else {
            panic!("Stats decoded to another variant");
        };
        prop_assert_eq!(&back, &samples);
        prop_assert_eq!(render(&back), render(&samples));
    }

    /// A truncated *frame* (length prefix promising more bytes than
    /// arrive) is an UnexpectedEof, not a hang or panic.
    #[test]
    fn truncated_frames_error(req in arb_request(), keep in 0.0f64..1.0) {
        let payload = encode_request(&req);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let keep = 4 + ((framed.len() - 4) as f64 * keep) as usize;
        prop_assume!(keep < framed.len());
        framed.truncate(keep);
        let mut cursor = std::io::Cursor::new(framed);
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::UnexpectedEof)
        ));
    }
}

// --- Incremental frame decoder (the reactor's reassembly path) --------------

/// Drain every currently-complete frame out of the decoder.
fn drain(dec: &mut FrameDecoder) -> Result<Vec<Vec<u8>>, WireError> {
    let mut out = Vec::new();
    while let Some(frame) = dec.next_frame()? {
        out.push(frame);
    }
    Ok(out)
}

/// Concatenate the wire encoding of a batch of requests, returning the
/// byte stream and the expected frame payloads.
fn framed_stream(reqs: &[Request]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut stream = Vec::new();
    let mut payloads = Vec::new();
    for req in reqs {
        let payload = encode_request(req);
        write_frame(&mut stream, &payload).unwrap();
        payloads.push(payload);
    }
    (stream, payloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the stream one byte at a time — every byte boundary is a
    /// push boundary — decodes the identical frame sequence to the
    /// one-shot `read_frame` path, pipelined frames included.
    #[test]
    fn decoder_byte_at_a_time_matches_one_shot(
        reqs in proptest::collection::vec(arb_request(), 1..4),
    ) {
        let (stream, payloads) = framed_stream(&reqs);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            got.extend(drain(&mut dec).unwrap());
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert!(dec.is_empty());
        // And the one-shot reference path agrees.
        let mut cursor = std::io::Cursor::new(stream);
        for payload in &payloads {
            prop_assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(payload));
        }
    }

    /// Any two-chunk split of a pipelined stream — including splits
    /// inside a length prefix and inside a payload — decodes
    /// identically to the unsplit stream.
    #[test]
    fn decoder_split_anywhere_matches(
        first in arb_request(),
        trailing in arb_request(),
        cut in 0.0f64..1.0,
    ) {
        let (stream, payloads) = framed_stream(&[first, trailing]);
        let cut = ((stream.len() as f64) * cut) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = drain(&mut dec).unwrap();
        dec.push(&stream[cut..]);
        got.extend(drain(&mut dec).unwrap());
        prop_assert_eq!(got, payloads);
        prop_assert!(dec.is_empty());
    }

    /// A truncated stream yields exactly the complete frames and then
    /// waits (Ok(None)) — no error, no panic, no partial frame.
    #[test]
    fn decoder_truncation_yields_only_complete_frames(
        reqs in proptest::collection::vec(arb_request(), 1..4),
        keep in 0.0f64..1.0,
    ) {
        let (stream, payloads) = framed_stream(&reqs);
        let keep = ((stream.len() as f64) * keep) as usize;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..keep]);
        let got = drain(&mut dec).unwrap();
        prop_assert_eq!(&got[..], &payloads[..got.len()]);
        // Everything delivered was a complete frame; the remainder (if
        // any) is still buffered, not fabricated.
        prop_assert!(got.len() <= payloads.len());
        prop_assert_eq!(dec.next_frame().unwrap(), None);
    }

    /// Arbitrary garbage never panics the decoder: every outcome is a
    /// frame, a wait, or a `FrameTooLarge` error.
    #[test]
    fn decoder_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let mut dec = FrameDecoder::new();
        'feed: for piece in bytes.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => {
                        // Whatever came out must at least decode
                        // *without panicking* (errors are fine).
                        let _ = decode_request(&frame);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        prop_assert!(matches!(e, WireError::FrameTooLarge(_)));
                        // The decoder poisons the stream after an
                        // oversized prefix; stop feeding.
                        break 'feed;
                    }
                }
            }
        }
    }

    /// A corrupted length prefix either re-frames the stream (yielding
    /// differently-sliced frames) or errors as `FrameTooLarge` — the
    /// decoder never panics and never yields a frame longer than the
    /// bytes it was given.
    #[test]
    fn decoder_corrupted_length_never_panics(
        req in arb_request(),
        flip_byte in 0usize..4,
        xor in 1u8..=255,
    ) {
        let (mut stream, _) = framed_stream(&[req]);
        stream[flip_byte] ^= xor;
        let total = stream.len();
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => prop_assert!(frame.len() <= total),
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(e, WireError::FrameTooLarge(_)));
                    break;
                }
            }
        }
    }
}

/// Hostile `Stats` payloads decode to errors: a histogram sample whose
/// buckets run out of order or past [`HISTOGRAM_BUCKETS`], an unknown
/// value tag, and label or sample counts larger than the payload
/// (refused before allocating).
#[test]
fn hostile_stats_samples_are_refused() {
    let good = encode_response(&Response::Stats(Samples(vec![Sample {
        family: "h".into(),
        labels: Vec::new(),
        value: Value::Histogram(HistogramSnapshot {
            count: 2,
            sum: 5,
            buckets: vec![(3, 1), (5, 1)],
        }),
    }])));
    assert!(decode_response(&good).is_ok());
    // Layout: tag, sample count, name (len + 1 byte), label count, value
    // tag, histogram count + sum, bucket count, then (u32, u64) pairs.
    let (samples_at, labels_at, value_tag_at, second_bucket_at) = (1, 10, 14, 47);
    for bad_index in [3u32, 2, HISTOGRAM_BUCKETS as u32, u32::MAX] {
        let mut bytes = good.clone();
        bytes[second_bucket_at..second_bucket_at + 4].copy_from_slice(&bad_index.to_le_bytes());
        assert!(
            matches!(decode_response(&bytes), Err(WireError::Malformed(_))),
            "bucket index {bad_index} after 3 must be refused"
        );
    }
    let mut bytes = good.clone();
    bytes[value_tag_at] = 2;
    assert!(matches!(decode_response(&bytes), Err(WireError::BadTag(2))));
    let mut bytes = good.clone();
    bytes[labels_at..labels_at + 4].copy_from_slice(&1000u32.to_le_bytes());
    assert!(matches!(
        decode_response(&bytes),
        Err(WireError::BadLength(1000))
    ));
    let mut bytes = good;
    bytes[samples_at..samples_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_response(&bytes),
        Err(WireError::BadLength(_))
    ));
}

/// Exhaustive split sweep: a representative pipelined stream split into
/// two pushes at *every* byte boundary decodes identically to the
/// one-shot path. (The proptest above samples arbitrary requests; this
/// nails down every boundary for one fixed stream, cheaply.)
#[test]
fn decoder_every_split_boundary_exhaustive() {
    let reqs = [
        Request::Hello,
        Request::Insert(vec![1, 2, 3, u64::MAX]),
        Request::Digest { shard: 7 },
        Request::Flush,
    ];
    let (stream, payloads) = framed_stream(&reqs);
    for cut in 0..=stream.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = drain(&mut dec).unwrap();
        dec.push(&stream[cut..]);
        got.extend(drain(&mut dec).unwrap());
        assert_eq!(got, payloads, "split at byte {cut} changed the decode");
        assert!(dec.is_empty(), "split at byte {cut} left residue");
    }
}
