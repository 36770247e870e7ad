//! CRC-32 differential test: the slicing-by-8 [`mad_wal::crc32`] against a
//! bitwise reference of the same polynomial. The checksum guards both the
//! WAL and the network frames, so it may not change a single output bit —
//! logs written and frames sent before the table-driven version must still
//! verify.

use mad_model::bin::BinEncode;
use mad_model::{AtomId, AttrType, SchemaBuilder, Value};
use mad_storage::{Database, DatabaseSnapshot};
use mad_wal::record::{frame, MAGIC};
use mad_wal::{crc32, FsyncPolicy, Wal, WalOp, WalRecord};

/// CRC-32/IEEE one bit at a time: reflected polynomial `0xEDB88320`,
/// initial value and final xor `0xFFFFFFFF`.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn slicing_by_8_equals_the_bitwise_reference() {
    // xorshift bytes, so every (offset, length) window holds different data
    let mut x = 0x1234_5678_9abc_def0u64;
    let data: Vec<u8> = (0..308)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[3]
        })
        .collect();
    // every length across the 8-byte block boundary, at every alignment
    for offset in 0..8 {
        for len in 0..=300 {
            let window = &data[offset..offset + len];
            assert_eq!(
                crc32(window),
                crc32_bitwise(window),
                "offset {offset}, length {len}"
            );
        }
    }
    for fill in [0x00u8, 0xff] {
        let block = vec![fill; 4099];
        assert_eq!(crc32(&block), crc32_bitwise(&block), "fill {fill:#04x}");
    }
}

#[test]
fn check_value_holds() {
    // the catalogued check value of CRC-32/IEEE
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

/// A WAL frame whose checksum comes from the bitwise reference: what a
/// log written before the table-driven CRC holds on disk.
fn frame_by_reference(record: &WalRecord) -> Vec<u8> {
    let payload = record.to_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    out.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[test]
fn a_log_framed_by_the_reference_recovers_unchanged() {
    let schema = SchemaBuilder::new()
        .atom_type(
            "state",
            &[("sname", AttrType::Text), ("hectare", AttrType::Float)],
        )
        .atom_type("area", &[("aid", AttrType::Int)])
        .link_type("state-area", "state", "area")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let state = db.schema().atom_type_id("state").unwrap();
    let area = db.schema().atom_type_id("area").unwrap();
    let sa = db.schema().link_type_id("state-area").unwrap();
    db.insert_atom(state, vec![Value::from("SP"), Value::Float(248.2)])
        .unwrap();

    let mut records = vec![WalRecord::Bootstrap {
        base_seq: 0,
        snapshot: Box::new(DatabaseSnapshot::capture(&db)),
    }];
    for seq in 1..=20u64 {
        let name = format!("S{seq}");
        let tuple = vec![Value::from(name.as_str()), Value::Float(seq as f64 * 1.25)];
        let s = db.insert_atom(state, tuple.clone()).unwrap();
        let a = db.insert_atom(area, vec![Value::Int(seq as i64)]).unwrap();
        db.connect(sa, s, a).unwrap();
        records.push(WalRecord::Commit {
            seq,
            ops: vec![
                WalOp::Insert {
                    ty: state,
                    tuple,
                    id: s,
                },
                WalOp::Insert {
                    ty: area,
                    tuple: vec![Value::Int(seq as i64)],
                    id: a,
                },
                WalOp::Connect {
                    lt: sa,
                    side0: s,
                    side1: a,
                },
            ],
        });
    }
    db.update_attr(AtomId::new(state, 0), 1, Value::Float(0.5))
        .unwrap();
    records.push(WalRecord::Commit {
        seq: 21,
        ops: vec![WalOp::UpdateAttr {
            id: AtomId::new(state, 0),
            attr: 1,
            value: Value::Float(0.5),
        }],
    });

    let mut image = MAGIC.to_vec();
    for record in &records {
        let reference = frame_by_reference(record);
        // frames written today are byte-identical to the reference's
        assert_eq!(frame(record).unwrap(), reference);
        image.extend_from_slice(&reference);
    }

    let dir = std::env::temp_dir().join(format!("mad-wal-crc-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mad.wal");
    // a pre-segmentation single-file log, migrated on recovery
    std::fs::write(&path, &image).unwrap();
    let (_, recovered, info) = Wal::recover(&path, FsyncPolicy::Never).unwrap();
    assert_eq!(info.commits_replayed, 21);
    assert_eq!(info.last_seq, 21);
    assert_eq!(info.truncated_bytes, 0, "every reference checksum verified");
    assert_eq!(
        DatabaseSnapshot::capture(&recovered).to_json_string(),
        DatabaseSnapshot::capture(&db).to_json_string()
    );
    std::fs::remove_dir_all(&dir).ok();
}
