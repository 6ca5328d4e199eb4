//! Property tests: the wire codec and MTU splitting never lose or corrupt
//! information, for arbitrary inputs.

use bytes::Bytes;
use clio_proto::{
    codec, read_response_fragments, split_write, ClioPacket, Perm, Pid, Reassembler, ReqHeader,
    ReqId, RequestBody, RespHeader, ResponseBody, Status, MTU_BYTES,
};
use clio_trace::TraceCtx;
use proptest::prelude::*;

fn arb_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::InvalidAddr),
        Just(Status::PermDenied),
        Just(Status::OutOfVirtualMemory),
        Just(Status::OutOfPhysicalMemory),
        Just(Status::Moved),
        Just(Status::Conflict),
        Just(Status::Unsupported),
    ]
}

fn arb_req_header() -> impl Strategy<Value = ReqHeader> {
    (any::<u64>(), any::<Option<u64>>(), any::<u64>(), any::<u16>(), 1u16..=64).prop_map(
        |(id, retry, pid, idx, cnt)| ReqHeader {
            req_id: ReqId(id),
            retry_of: retry.map(ReqId),
            pid: Pid(pid),
            pkt_index: idx % cnt,
            pkt_count: cnt,
            trace: None,
        },
    )
}

/// A header as [`arb_req_header`] draws it, with or without a trace
/// context (which the codec does not carry).
fn arb_traced_req_header() -> impl Strategy<Value = ReqHeader> {
    (arb_req_header(), any::<Option<u64>>(), any::<u32>()).prop_map(|(header, id, attempt)| {
        ReqHeader { trace: id.map(|id| TraceCtx { id, attempt }), ..header }
    })
}

/// `entry` as it decodes: the trace context does not cross the wire.
fn untraced((header, body): &(ReqHeader, RequestBody)) -> (ReqHeader, RequestBody) {
    (ReqHeader { trace: None, ..*header }, body.clone())
}

fn arb_request_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(|(va, len)| RequestBody::Read { va, len }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..1024))
            .prop_map(|(va, d)| RequestBody::WriteFrag { va, data: Bytes::from(d) }),
        (any::<u64>(), 0u8..4, any::<Option<u64>>()).prop_map(|(size, p, fixed)| {
            RequestBody::Alloc { size, perm: Perm::from_bits(p), fixed_va: fixed }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(va, size)| RequestBody::Free { va, size }),
        any::<u64>().prop_map(|va| RequestBody::AtomicTas { va }),
        (any::<u64>(), any::<u64>()).prop_map(|(va, value)| RequestBody::AtomicStore { va, value }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(va, expected, new)| RequestBody::AtomicCas { va, expected, new }),
        (any::<u64>(), any::<u64>()).prop_map(|(va, delta)| RequestBody::AtomicFaa { va, delta }),
        Just(RequestBody::Fence),
        Just(RequestBody::CreateAs),
        Just(RequestBody::DestroyAs),
        (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..512)).prop_map(
            |(o, op, a)| RequestBody::OffloadCall { offload: o, opcode: op, arg: Bytes::from(a) }
        ),
    ]
}

fn arb_response_body() -> impl Strategy<Value = ResponseBody> {
    prop_oneof![
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..1024))
            .prop_map(|(off, d)| ResponseBody::DataFrag { offset: off, data: Bytes::from(d) }),
        // A lone fragment at offset 0: the case that pays no offset.
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|d| ResponseBody::DataFrag { offset: 0, data: Bytes::from(d) }),
        Just(ResponseBody::Done),
        any::<u64>().prop_map(|va| ResponseBody::Alloced { va }),
        any::<u64>().prop_map(|old| ResponseBody::AtomicOld { old }),
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|d| ResponseBody::OffloadReply { data: Bytes::from(d) }),
    ]
}

/// A response header of either shape: half are one packet (index 0 of
/// 1), the rest a fragment of 2–64.
fn arb_resp_header() -> impl Strategy<Value = RespHeader> {
    (any::<u64>(), arb_status(), any::<bool>(), any::<u16>(), 2u16..=64).prop_map(
        |(id, status, single, idx, cnt)| {
            let lone = RespHeader::single(ReqId(id), status);
            if single {
                lone
            } else {
                RespHeader { pkt_index: idx % cnt, pkt_count: cnt, ..lone }
            }
        },
    )
}

fn arb_response() -> impl Strategy<Value = ClioPacket> {
    (
        any::<u64>(),
        arb_status(),
        prop_oneof![
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..1024))
                .prop_map(|(off, d)| ResponseBody::DataFrag { offset: off, data: Bytes::from(d) }),
            Just(ResponseBody::Done),
            any::<u64>().prop_map(|va| ResponseBody::Alloced { va }),
            any::<u64>().prop_map(|old| ResponseBody::AtomicOld { old }),
            proptest::collection::vec(any::<u8>(), 0..512)
                .prop_map(|d| ResponseBody::OffloadReply { data: Bytes::from(d) }),
        ],
    )
        .prop_map(|(id, status, body)| ClioPacket::Response {
            header: RespHeader::single(ReqId(id), status),
            body,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_codec_roundtrips(header in arb_req_header(), body in arb_request_body()) {
        let pkt = ClioPacket::Request { header, body };
        let bytes = codec::encode(&pkt);
        prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
        prop_assert_eq!(codec::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn batch_codec_roundtrips(
        entries in proptest::collection::vec((arb_req_header(), arb_request_body()), 1..24),
    ) {
        let pkt = ClioPacket::Batch { requests: entries };
        let bytes = codec::encode(&pkt);
        prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
        prop_assert_eq!(codec::decode(&bytes).unwrap(), pkt);
    }

    /// A request header's absent options cost no bytes: every request,
    /// alone and in a batch of 1–16, encodes to exactly the analytic
    /// length (`request_len` per entry, within the worst case
    /// `request_wire_len`) and decodes to itself, its trace context aside.
    #[test]
    fn request_len_matches_the_encoder_for_every_header(
        entries in proptest::collection::vec((arb_traced_req_header(), arb_request_body()), 1..17),
    ) {
        for entry in &entries {
            let (header, body) = entry.clone();
            let pkt = ClioPacket::Request { header, body };
            let bytes = codec::encode(&pkt);
            prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
            prop_assert_eq!(bytes.len(), codec::request_len(&entry.0, &entry.1));
            prop_assert!(codec::req_header_len(&entry.0) <= codec::REQ_HEADER_LEN);
            prop_assert!(bytes.len() <= codec::request_wire_len(&entry.1));
            let (header, body) = untraced(entry);
            prop_assert_eq!(codec::decode(&bytes).unwrap(), ClioPacket::Request { header, body });
        }
        let want = ClioPacket::Batch { requests: entries.iter().map(untraced).collect() };
        let pkt = ClioPacket::Batch { requests: entries };
        let bytes = codec::encode(&pkt);
        prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
        prop_assert_eq!(codec::decode(&bytes).unwrap(), want);
    }

    /// A response's inferable fields cost no bytes: every response, of
    /// either header shape and every body (a lone `DataFrag` at a non-zero
    /// offset included), encodes to exactly `response_len` and decodes to
    /// itself, alone and in a batch of 1–16; as a batch entry it costs its
    /// standalone packet minus its 1 B tag, and so does a request entry.
    #[test]
    fn response_len_matches_the_encoder_for_every_header(
        entries in proptest::collection::vec((arb_resp_header(), arb_response_body()), 1..17),
        requests in proptest::collection::vec((arb_traced_req_header(), arb_request_body()), 1..17),
    ) {
        for (header, body) in &entries {
            let pkt = ClioPacket::Response { header: *header, body: body.clone() };
            let bytes = codec::encode(&pkt);
            prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
            prop_assert_eq!(bytes.len(), codec::response_len(header, body));
            prop_assert_eq!(codec::response_entry_len(header, body), bytes.len() - 1);
            prop_assert!(bytes.len() <= codec::RESP_HEADER_LEN + 1 + 4 + 4 + body.payload_len());
            prop_assert_eq!(codec::decode(&bytes).unwrap(), pkt);
        }
        let pkt = ClioPacket::BatchResp { responses: entries.clone() };
        let bytes = codec::encode(&pkt);
        prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
        let standalone: usize = entries.iter().map(|(h, b)| codec::response_len(h, b)).sum();
        prop_assert_eq!(bytes.len(), codec::BATCH_OVERHEAD_BYTES + standalone - entries.len());
        prop_assert_eq!(codec::decode(&bytes).unwrap(), pkt);

        let pkt = ClioPacket::Batch { requests: requests.clone() };
        let standalone: usize = requests.iter().map(|(h, b)| codec::request_len(h, b)).sum();
        prop_assert_eq!(
            codec::encode(&pkt).len(),
            codec::BATCH_OVERHEAD_BYTES + standalone - requests.len()
        );
        for (header, body) in &requests {
            prop_assert_eq!(
                codec::request_entry_len(header, body),
                codec::request_len(header, body) - 1
            );
        }
    }

    #[test]
    fn batch_truncation_never_panics(
        entries in proptest::collection::vec((arb_req_header(), arb_request_body()), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = codec::encode(&ClioPacket::Batch { requests: entries });
        let cut = cut.index(bytes.len());
        let _ = codec::decode(&bytes[..cut]);
    }

    #[test]
    fn response_codec_roundtrips(pkt in arb_response()) {
        let bytes = codec::encode(&pkt);
        prop_assert_eq!(bytes.len(), codec::wire_len(&pkt));
        prop_assert_eq!(codec::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn truncation_never_panics(pkt in arb_response(), cut in any::<prop::sample::Index>()) {
        let bytes = codec::encode(&pkt);
        let cut = cut.index(bytes.len());
        // Any prefix either fails cleanly or (cut == len) succeeds.
        let _ = codec::decode(&bytes[..cut]);
    }

    #[test]
    fn split_write_reconstructs_exactly(
        va in 0u64..(1 << 40),
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let pkts = split_write(ReqId(1), None, Pid(2), va, Bytes::from(data.clone()));
        prop_assert!(!pkts.is_empty());
        let mut out = vec![0u8; data.len()];
        let mut count_seen = None;
        for pkt in &pkts {
            prop_assert!(codec::wire_len(pkt) <= MTU_BYTES);
            let ClioPacket::Request { header, body: RequestBody::WriteFrag { va: fva, data: d } } =
                pkt else { panic!("not a write frag") };
            prop_assert_eq!(*count_seen.get_or_insert(header.pkt_count), header.pkt_count);
            let off = (fva - va) as usize;
            out[off..off + d.len()].copy_from_slice(d);
        }
        prop_assert_eq!(out, data);
    }

    #[test]
    fn reassembly_is_order_independent(
        data in proptest::collection::vec(any::<u8>(), 1..20_000),
        order_seed in any::<u64>(),
    ) {
        let payload = Bytes::from(data.clone());
        let mut pkts: Vec<_> = read_response_fragments(ReqId(9), Status::Ok, payload).collect();
        // Deterministic shuffle from the seed.
        let mut s = order_seed;
        for i in (1..pkts.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            pkts.swap(i, (s as usize) % (i + 1));
        }
        let mut r = Reassembler::new();
        let mut result = None;
        for pkt in pkts {
            let ClioPacket::Response { header, body: ResponseBody::DataFrag { offset, data } } =
                pkt else { panic!("not a data frag") };
            if let Some(full) = r.accept(header, offset, data) {
                prop_assert!(result.is_none(), "completed twice");
                result = Some(full);
            }
        }
        prop_assert_eq!(&result.expect("must complete")[..], &data[..]);
        prop_assert_eq!(r.pending(), 0);
    }
}
