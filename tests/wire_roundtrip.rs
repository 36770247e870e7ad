//! Every variant of every wire enum survives encode → decode.
//!
//! The encoders are exhaustive `match`es, so the compiler already makes
//! a new variant encodable. The decoders end in a `t => Err(unknown tag)`
//! arm, which the compiler cannot see past: a missing or swapped decode
//! arm only shows at run time. Each test below holds a sample list and a
//! wildcard-free `variant_index`, so a new variant does not compile until
//! it has an index. The shared check asserts that the samples cover every
//! index and that each one decodes to the same variant and re-encodes to
//! the same bytes (the byte comparison also covers the enums without
//! structural equality).

use std::fmt::Debug;

use mad::model::bin::{BinDecode, BinEncode};
use mad::model::{
    AtomId, AtomTypeId, AttrType, LinkTypeId, MadError, Result, SchemaBuilder, Value,
};
use mad::net::frame::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use mad::repl::proto::{decode_msg, encode_msg, ReplMsg};
use mad::storage::{Database, DatabaseSnapshot};
use mad::wal::{WalOp, WalRecord};

/// `samples` cover `0..variants` under `variant_index`, and each sample
/// decodes to its own variant with the same encoding.
fn assert_round_trips<T: Debug>(
    samples: &[T],
    variants: usize,
    variant_index: fn(&T) -> usize,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T>,
) {
    let mut covered = vec![false; variants];
    for sample in samples {
        let index = variant_index(sample);
        assert!(
            index < variants,
            "{sample:?}: index {index} ≥ {variants} variants"
        );
        covered[index] = true;
        let bytes = encode(sample);
        let back = decode(&bytes).unwrap_or_else(|e| panic!("{sample:?} does not decode: {e}"));
        assert_eq!(
            variant_index(&back),
            index,
            "{sample:?} decoded as {back:?}"
        );
        assert_eq!(encode(&back), bytes, "{sample:?} decoded as {back:?}");
    }
    let missing: Vec<usize> = (0..variants).filter(|&i| !covered[i]).collect();
    assert!(
        missing.is_empty(),
        "no sample for variant index(es) {missing:?}"
    );
}

fn bin_round_trips<T: BinEncode + BinDecode + Debug>(
    samples: &[T],
    variants: usize,
    variant_index: fn(&T) -> usize,
) {
    assert_round_trips(samples, variants, variant_index, T::to_bytes, T::from_bytes);
}

fn id(ty: u32, slot: u32) -> AtomId {
    AtomId::new(AtomTypeId(ty), slot)
}

fn text(s: &str) -> String {
    s.to_string()
}

#[test]
fn mad_error_round_trips_every_variant() {
    fn variant_index(e: &MadError) -> usize {
        match e {
            MadError::UnknownName { .. } => 0,
            MadError::DuplicateName { .. } => 1,
            MadError::TypeMismatch { .. } => 2,
            MadError::ArityMismatch { .. } => 3,
            MadError::IntegrityViolation { .. } => 4,
            MadError::CardinalityViolation { .. } => 5,
            MadError::InvalidStructure { .. } => 6,
            MadError::IncompatibleOperands { .. } => 7,
            MadError::InvalidQualification { .. } => 8,
            MadError::Parse { .. } => 9,
            MadError::Analysis { .. } => 10,
            MadError::Snapshot { .. } => 11,
            MadError::Codec { .. } => 12,
            MadError::Wal { .. } => 13,
            MadError::Recursion { .. } => 14,
            MadError::TxnConflict { .. } => 15,
            MadError::TxnState { .. } => 16,
            MadError::Script { .. } => 17,
            MadError::Protocol { .. } => 18,
            MadError::Io { .. } => 19,
        }
    }
    // `kind` and `op` are re-interned on decode, so the samples use
    // values of the closed tables in `mad_net::frame`
    let samples = [
        MadError::UnknownName {
            kind: "atom type",
            name: text("state"),
        },
        MadError::DuplicateName {
            kind: "link type",
            name: text("state-area"),
        },
        MadError::TypeMismatch {
            context: text("hectare"),
            expected: text("FLOAT"),
            found: text("TEXT"),
        },
        MadError::ArityMismatch {
            context: text("insert"),
            expected: 3,
            found: 2,
        },
        MadError::IntegrityViolation {
            detail: text("dangling link"),
        },
        MadError::CardinalityViolation {
            link_type: text("area-edge"),
            detail: text("1:n"),
        },
        MadError::InvalidStructure {
            detail: text("cycle"),
        },
        MadError::IncompatibleOperands {
            op: "Ω",
            detail: text("different structures"),
        },
        MadError::InvalidQualification {
            detail: text("unbound node"),
        },
        MadError::Parse {
            offset: 17,
            detail: text("expected FROM"),
        },
        MadError::Analysis {
            detail: text("unknown attribute"),
        },
        MadError::Snapshot {
            detail: text("bad image"),
        },
        MadError::Codec {
            detail: text("truncated"),
        },
        MadError::Wal {
            detail: text("torn tail"),
        },
        MadError::Recursion {
            detail: text("depth bound"),
        },
        MadError::TxnConflict {
            detail: text("write-write on a0s0"),
        },
        MadError::TxnState {
            detail: text("no open transaction"),
        },
        MadError::Script {
            index: 2,
            statement: text("COMMIT"),
            source: Box::new(MadError::txn_conflict("overlap")),
        },
        MadError::Protocol {
            detail: text("bad frame"),
        },
        MadError::Io {
            detail: text("reset by peer"),
        },
    ];
    assert_round_trips(
        &samples,
        20,
        variant_index,
        |e| encode_response(&Response::Error(e.clone())),
        |bytes| match decode_response(bytes)? {
            Response::Error(e) => Ok(e),
            other => Err(MadError::codec(format!("not an error response: {other:?}"))),
        },
    );
}

#[test]
fn value_round_trips_every_variant() {
    fn variant_index(v: &Value) -> usize {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Id(_) => 5,
        }
    }
    let samples = [
        Value::Null,
        Value::Bool(true),
        Value::Int(-7),
        Value::Float(2.5),
        Value::Text(text("SP")),
        Value::Id(id(1, 4)),
    ];
    bin_round_trips(&samples, 6, variant_index);
}

#[test]
fn attr_type_round_trips_every_variant() {
    fn variant_index(t: &AttrType) -> usize {
        match t {
            AttrType::Bool => 0,
            AttrType::Int => 1,
            AttrType::Float => 2,
            AttrType::Text => 3,
            AttrType::Id => 4,
        }
    }
    let samples = [
        AttrType::Bool,
        AttrType::Int,
        AttrType::Float,
        AttrType::Text,
        AttrType::Id,
    ];
    bin_round_trips(&samples, 5, variant_index);
}

fn wal_op_samples() -> Vec<WalOp> {
    vec![
        WalOp::Insert {
            ty: AtomTypeId(0),
            tuple: vec![Value::Int(1), Value::Text(text("a"))],
            id: id(0, 3),
        },
        WalOp::InsertBatch {
            ty: AtomTypeId(1),
            tuples: vec![vec![Value::Null], vec![Value::Bool(false)]],
            ids: vec![id(1, 0), id(1, 1)],
        },
        WalOp::Delete { id: id(0, 2) },
        WalOp::UpdateAttr {
            id: id(0, 3),
            attr: 1,
            value: Value::Float(0.5),
        },
        WalOp::Connect {
            lt: LinkTypeId(0),
            side0: id(0, 3),
            side1: id(1, 0),
        },
        WalOp::Disconnect {
            lt: LinkTypeId(2),
            side0: id(1, 1),
            side1: id(0, 3),
        },
    ]
}

#[test]
fn wal_op_round_trips_every_variant() {
    fn variant_index(op: &WalOp) -> usize {
        match op {
            WalOp::Insert { .. } => 0,
            WalOp::InsertBatch { .. } => 1,
            WalOp::Delete { .. } => 2,
            WalOp::UpdateAttr { .. } => 3,
            WalOp::Connect { .. } => 4,
            WalOp::Disconnect { .. } => 5,
        }
    }
    bin_round_trips(&wal_op_samples(), 6, variant_index);
}

/// A bootstrap image of a two-atom database.
fn bootstrap() -> WalRecord {
    let schema = SchemaBuilder::new()
        .atom_type(
            "item",
            &[("label", AttrType::Text), ("rank", AttrType::Int)],
        )
        .build()
        .expect("static schema");
    let mut db = Database::new(schema);
    let item = db.schema().atom_type_id("item").expect("item type");
    for (label, rank) in [("x", 1), ("y", 2)] {
        db.insert_atom(item, vec![Value::from(label), Value::Int(rank)])
            .expect("insert");
    }
    WalRecord::Bootstrap {
        base_seq: 4,
        snapshot: Box::new(DatabaseSnapshot::capture(&db)),
    }
}

#[test]
fn wal_record_round_trips_every_variant() {
    fn variant_index(rec: &WalRecord) -> usize {
        match rec {
            WalRecord::Bootstrap { .. } => 0,
            WalRecord::Commit { .. } => 1,
        }
    }
    let samples = [
        bootstrap(),
        WalRecord::Commit {
            seq: 5,
            ops: wal_op_samples(),
        },
    ];
    bin_round_trips(&samples, 2, variant_index);
}

#[test]
fn request_round_trips_every_variant() {
    fn variant_index(req: &Request) -> usize {
        match req {
            Request::Statement(_) => 0,
            Request::Ping => 1,
            Request::SetEncoding(_) => 2,
        }
    }
    let samples = [
        Request::Statement(text("SELECT ALL FROM state;")),
        Request::Ping,
        Request::SetEncoding(1),
    ];
    assert_round_trips(&samples, 3, variant_index, encode_request, decode_request);
}

#[test]
fn response_round_trips_every_variant() {
    fn variant_index(resp: &Response) -> usize {
        match resp {
            Response::Result(_) => 0,
            Response::Error(_) => 1,
            Response::Pong => 2,
            Response::Hello { .. } => 3,
            Response::BinResult(_) => 4,
            Response::EncodingAck(_) => 5,
        }
    }
    let samples = [
        Response::Result(text("molecule type `result`: 0 molecule(s)\n")),
        Response::Error(MadError::txn_state("no open transaction")),
        Response::Pong,
        Response::Hello {
            protocol: 2,
            commit_seq: 42,
            durable: true,
            encodings: 0b11,
        },
        Response::BinResult(vec![0, 1, 0xff]),
        Response::EncodingAck(0),
    ];
    assert_round_trips(&samples, 6, variant_index, encode_response, decode_response);
}

#[test]
fn repl_msg_round_trips_every_variant() {
    fn variant_index(msg: &ReplMsg) -> usize {
        match msg {
            ReplMsg::StandbyHello { .. } => 0,
            ReplMsg::PrimaryHello { .. } => 1,
            ReplMsg::Record(_) => 2,
            ReplMsg::Ack { .. } => 3,
        }
    }
    let samples = [
        ReplMsg::StandbyHello {
            protocol: 1,
            have: Some(9),
        },
        ReplMsg::PrimaryHello {
            protocol: 1,
            last_seq: 12,
        },
        ReplMsg::Record(bootstrap()),
        ReplMsg::Ack { seq: 12 },
    ];
    assert_round_trips(&samples, 4, variant_index, encode_msg, decode_msg);
}
