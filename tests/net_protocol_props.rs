//! Property tests for the wire codec: `decode ∘ encode = id` for requests,
//! responses and transported errors, and decoding never panics on
//! arbitrary or truncated bytes (the server feeds it whatever a client
//! sends).

use mad::model::MadError;
use mad::net::frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, FrameIn,
    Request, Response,
};
use proptest::prelude::*;

fn text_strategy() -> impl Strategy<Value = String> {
    (0usize..24, 0u64..1000).prop_map(|(len, salt)| {
        // statement-ish text with quotes, unicode and newlines
        let alphabet = [
            'S', 'E', 'L', ' ', '\'', ';', '\n', 'ß', '√', '-', '(', ')', '=', '0',
        ];
        (0..len)
            .map(|i| alphabet[(salt as usize + i * 11) % alphabet.len()])
            .collect()
    })
}

/// The `kind`s and `op`s the wire re-interns exactly (`intern_kind` and
/// `intern_op` in `mad_net::frame`); any other value folds to a generic
/// label and would not round-trip.
const KINDS: [&str; 9] = [
    "atom type",
    "atom type id",
    "attribute",
    "attribute index",
    "link type",
    "molecule type",
    "structure node",
    "structure node alias",
    "projection node",
];
const OPS: [&str; 12] = [
    "×", "Ω", "Δ", "Π", "Σ", "α", "δ", "μ", "ν", "σ", "ω", "closure",
];

fn error_strategy() -> impl Strategy<Value = MadError> {
    let leaf = prop_oneof![
        text_strategy().prop_map(|name| MadError::UnknownName {
            kind: "atom type",
            name
        }),
        (0usize..KINDS.len(), text_strategy()).prop_map(|(k, name)| MadError::DuplicateName {
            kind: KINDS[k],
            name
        }),
        text_strategy().prop_map(|detail| MadError::InvalidStructure { detail }),
        (0usize..OPS.len(), text_strategy()).prop_map(|(o, detail)| {
            MadError::IncompatibleOperands {
                op: OPS[o],
                detail,
            }
        }),
        text_strategy().prop_map(|detail| MadError::InvalidQualification { detail }),
        text_strategy().prop_map(|detail| MadError::Snapshot { detail }),
        text_strategy().prop_map(|detail| MadError::Recursion { detail }),
        (text_strategy(), text_strategy(), text_strategy()).prop_map(
            |(context, expected, found)| MadError::TypeMismatch {
                context,
                expected,
                found
            }
        ),
        (text_strategy(), 0usize..9, 0usize..9).prop_map(|(context, expected, found)| {
            MadError::ArityMismatch {
                context,
                expected,
                found,
            }
        }),
        text_strategy().prop_map(|detail| MadError::IntegrityViolation { detail }),
        (text_strategy(), text_strategy())
            .prop_map(|(link_type, detail)| MadError::CardinalityViolation { link_type, detail }),
        (0usize..500, text_strategy())
            .prop_map(|(offset, detail)| MadError::Parse { offset, detail }),
        text_strategy().prop_map(|detail| MadError::Analysis { detail }),
        text_strategy().prop_map(MadError::txn_conflict),
        text_strategy().prop_map(MadError::txn_state),
        text_strategy().prop_map(MadError::wal),
        text_strategy().prop_map(MadError::codec),
        text_strategy().prop_map(MadError::protocol),
        text_strategy().prop_map(MadError::io),
    ];
    (leaf, 0usize..3, text_strategy()).prop_map(|(source, index, statement)| {
        if index == 0 {
            source
        } else {
            MadError::Script {
                index,
                statement,
                source: Box::new(source),
            }
        }
    })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        text_strategy().prop_map(Response::Result),
        error_strategy().prop_map(Response::Error),
        Just(Response::Pong),
        (0u32..9, 0u64..1 << 40, 0u64..2, any::<u8>()).prop_map(
            |(protocol, commit_seq, d, encodings)| Response::Hello {
                protocol,
                commit_seq,
                durable: d == 1,
                encodings,
            }
        ),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Response::BinResult),
        any::<u8>().prop_map(Response::EncodingAck),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        text_strategy().prop_map(Request::Statement),
        Just(Request::Ping),
        any::<u8>().prop_map(Request::SetEncoding),
    ]
}

proptest! {
    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let decoded = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let decoded = decode_response(&encode_response(&resp)).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn conflict_flag_survives_transport(detail in text_strategy(), wrap in 0usize..2) {
        let err = if wrap == 1 {
            MadError::Script {
                index: 1,
                statement: "COMMIT".into(),
                source: Box::new(MadError::txn_conflict(detail)),
            }
        } else {
            MadError::txn_conflict(detail)
        };
        let Response::Error(back) =
            decode_response(&encode_response(&Response::Error(err))).unwrap()
        else {
            panic!("error response decoded as something else");
        };
        prop_assert!(back.is_conflict());
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        // Ok or Err are both fine; a panic is not
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    #[test]
    fn truncated_payloads_never_roundtrip_wrong(
        resp in response_strategy(), cut_salt in 0usize..1000
    ) {
        // any strict prefix of a valid payload must decode to an error or
        // to a *different* value — never panic, never silently truncate a
        // Result payload into the same shape with lost data
        let full = encode_response(&resp);
        if full.len() > 1 {
            let cut = 1 + cut_salt % (full.len() - 1);
            if let Ok(decoded) = decode_response(&full[..cut]) {
                prop_assert!(decoded != resp, "truncated payload decoded as the original");
            }
        }
    }

    #[test]
    fn truncated_frames_never_panic(
        resp in response_strategy(), cut_salt in 0usize..1000
    ) {
        let mut wire = Vec::new();
        mad::net::frame::write_frame(&mut wire, &encode_response(&resp)).unwrap();
        let cut = cut_salt % wire.len();
        match read_frame(&mut &wire[..cut]) {
            Ok(FrameIn::Closed) => prop_assert_eq!(cut, 0, "only EOF-at-boundary is Closed"),
            Ok(FrameIn::Payload(_)) => prop_assert!(false, "truncated frame decoded"),
            Err(e) => prop_assert!(matches!(e, MadError::Protocol { .. })),
        }
    }
}
