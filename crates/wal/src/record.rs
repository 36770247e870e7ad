#![deny(clippy::as_conversions, clippy::cast_possible_truncation)]
//! The WAL record format: logged operations, record payloads, framing.
//!
//! This module is the **normative spec** of what goes on disk (see
//! `ARCHITECTURE.md` for the prose version):
//!
//! ```text
//! file   := magic frame*
//! magic  := "MADWAL1\n"                         (8 bytes)
//! frame  := len:u32le crc:u32le payload[len]    (crc = CRC-32/IEEE of payload)
//! payload:= 0x00 bootstrap | 0x01 commit
//! bootstrap := base_seq:u64le DatabaseSnapshot  (mad_model::bin encoding)
//! commit    := seq:u64le Vec<WalOp>
//! ```
//!
//! The first frame of a log is always a bootstrap (the full database image
//! the following commits apply to — written at create and rewritten by
//! checkpoint); every further frame is one committed transaction's op log
//! with **resolved** atom ids: provisional-id remapping has already
//! happened at commit publication, so replay is deterministic — inserts
//! re-land on exactly the recorded slots, which recovery verifies.

use mad_model::bin::{put_u32, put_u64, usize_of_u32, BinDecode, BinEncode, Reader};
use mad_model::{AtomId, AtomTypeId, LinkTypeId, MadError, Result, Value};
use mad_storage::{Database, DatabaseSnapshot};

/// The 8-byte file magic ("MADWAL" + format version 1 + newline).
pub const MAGIC: &[u8; 8] = b"MADWAL1\n";

/// Size of a frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// One replayable operation of a committed transaction, with all atom ids
/// **resolved** (never provisional).
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// An atom insert; `id` is the slot the insert landed on at commit,
    /// which replay re-derives and verifies.
    Insert {
        /// The atom type.
        ty: AtomTypeId,
        /// The attribute tuple.
        tuple: Vec<Value>,
        /// The committed id (replay must land here).
        id: AtomId,
    },
    /// A batched insert of several atoms of one type.
    InsertBatch {
        /// The atom type.
        ty: AtomTypeId,
        /// The attribute tuples.
        tuples: Vec<Vec<Value>>,
        /// The committed ids, parallel to `tuples`.
        ids: Vec<AtomId>,
    },
    /// An atom delete (incident links cascade, as in
    /// [`Database::delete_atom`]).
    Delete {
        /// The deleted atom.
        id: AtomId,
    },
    /// A single-attribute update.
    UpdateAttr {
        /// The updated atom.
        id: AtomId,
        /// Attribute position.
        attr: u32,
        /// The new value.
        value: Value,
    },
    /// An oriented link insert.
    Connect {
        /// The link type.
        lt: LinkTypeId,
        /// Side-0 atom.
        side0: AtomId,
        /// Side-1 atom.
        side1: AtomId,
    },
    /// An oriented link removal.
    Disconnect {
        /// The link type.
        lt: LinkTypeId,
        /// Side-0 atom.
        side0: AtomId,
        /// Side-1 atom.
        side1: AtomId,
    },
}

impl BinEncode for WalOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Insert { ty, tuple, id } => {
                out.push(0);
                ty.encode(out);
                tuple.encode(out);
                id.encode(out);
            }
            WalOp::InsertBatch { ty, tuples, ids } => {
                out.push(1);
                ty.encode(out);
                tuples.encode(out);
                ids.encode(out);
            }
            WalOp::Delete { id } => {
                out.push(2);
                id.encode(out);
            }
            WalOp::UpdateAttr { id, attr, value } => {
                out.push(3);
                id.encode(out);
                put_u32(out, *attr);
                value.encode(out);
            }
            WalOp::Connect { lt, side0, side1 } => {
                out.push(4);
                lt.encode(out);
                side0.encode(out);
                side1.encode(out);
            }
            WalOp::Disconnect { lt, side0, side1 } => {
                out.push(5);
                lt.encode(out);
                side0.encode(out);
                side1.encode(out);
            }
        }
    }
}

impl BinDecode for WalOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => WalOp::Insert {
                ty: AtomTypeId::decode(r)?,
                tuple: Vec::decode(r)?,
                id: AtomId::decode(r)?,
            },
            1 => WalOp::InsertBatch {
                ty: AtomTypeId::decode(r)?,
                tuples: Vec::decode(r)?,
                ids: Vec::decode(r)?,
            },
            2 => WalOp::Delete {
                id: AtomId::decode(r)?,
            },
            3 => WalOp::UpdateAttr {
                id: AtomId::decode(r)?,
                attr: r.u32()?,
                value: Value::decode(r)?,
            },
            4 => WalOp::Connect {
                lt: LinkTypeId::decode(r)?,
                side0: AtomId::decode(r)?,
                side1: AtomId::decode(r)?,
            },
            5 => WalOp::Disconnect {
                lt: LinkTypeId::decode(r)?,
                side0: AtomId::decode(r)?,
                side1: AtomId::decode(r)?,
            },
            t => {
                return Err(MadError::codec(format!("unknown WalOp tag {t}")))
            }
        })
    }
}

/// Apply one logged operation to a database during recovery replay,
/// verifying that inserts land on the recorded slots (slot allocation is
/// deterministic, so a divergence means the log does not belong to this
/// bootstrap image).
pub fn apply_op(db: &mut Database, op: &WalOp) -> Result<()> {
    match op {
        WalOp::Insert { ty, tuple, id } => {
            let actual = db.insert_atom(*ty, tuple.clone())?;
            if actual != *id {
                return Err(MadError::wal(format!(
                    "replay divergence: logged insert landed on {actual}, log says {id}"
                )));
            }
        }
        WalOp::InsertBatch { ty, tuples, ids } => {
            let actual = db.insert_atoms(*ty, tuples.iter().cloned())?;
            if actual != *ids {
                return Err(MadError::wal(format!(
                    "replay divergence: logged batch insert landed on {actual:?}, log says {ids:?}"
                )));
            }
        }
        WalOp::Delete { id } => {
            db.delete_atom(*id)?;
        }
        WalOp::UpdateAttr { id, attr, value } => {
            db.update_attr(*id, usize_of_u32(*attr), value.clone())?;
        }
        WalOp::Connect { lt, side0, side1 } => {
            db.connect(*lt, *side0, *side1)?;
        }
        WalOp::Disconnect { lt, side0, side1 } => {
            db.disconnect(*lt, *side0, *side1)?;
        }
    }
    Ok(())
}

/// One frame payload.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// The full database image commits after it apply to. `base_seq` is the
    /// commit sequence number the image was taken at (0 for a fresh log).
    Bootstrap {
        /// Commit sequence of the image.
        base_seq: u64,
        /// The image itself.
        snapshot: Box<DatabaseSnapshot>,
    },
    /// One committed transaction.
    Commit {
        /// The commit sequence number it published at.
        seq: u64,
        /// The resolved op log.
        ops: Vec<WalOp>,
    },
}

impl BinEncode for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Bootstrap { base_seq, snapshot } => {
                out.push(0);
                put_u64(out, *base_seq);
                snapshot.encode(out);
            }
            WalRecord::Commit { seq, ops } => {
                out.push(1);
                put_u64(out, *seq);
                ops.encode(out);
            }
        }
    }
}

impl BinDecode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => WalRecord::Bootstrap {
                base_seq: r.u64()?,
                snapshot: Box::new(DatabaseSnapshot::decode(r)?),
            },
            1 => WalRecord::Commit {
                seq: r.u64()?,
                ops: Vec::decode(r)?,
            },
            t => {
                return Err(MadError::codec(format!("unknown WalRecord tag {t}")))
            }
        })
    }
}

/// Frame a record: `len` + `crc` + payload, ready to append to the log.
/// Errors if the payload exceeds the `u32` length field — a silently
/// wrapped length would render the whole log unrecoverable.
pub fn frame(record: &WalRecord) -> Result<Vec<u8>> {
    let payload = record.to_bytes();
    let Ok(len) = u32::try_from(payload.len()) else {
        return Err(MadError::wal(format!(
            "record payload of {} bytes exceeds the 4 GiB frame limit \
             (checkpoint the database in smaller units)",
            payload.len()
        )));
    };
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, len);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Outcome of reading one frame from a buffer position.
pub enum FrameRead {
    /// A record plus the offset just past its frame.
    Ok(WalRecord, usize),
    /// The bytes from this offset on are not a complete, checksummed frame
    /// — the torn tail (or the clean end of the log when the remainder is
    /// empty). Recovery truncates here.
    Torn,
}

/// Read the frame starting at `offset`. Any failure — short header, short
/// payload, checksum mismatch, undecodable payload — classifies as
/// [`FrameRead::Torn`]: the scan stops and the file is truncated at
/// `offset`. (A checksummed frame never *follows* a torn one, because the
/// log is append-only and written through one file handle.)
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead {
    let Some(rest) = buf.get(offset..) else {
        return FrameRead::Torn;
    };
    if rest.len() < FRAME_HEADER {
        return FrameRead::Torn;
    }
    let len = usize_of_u32(u32::from_le_bytes(rest[0..4].try_into().unwrap()));
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return FrameRead::Torn;
    };
    if crc32(payload) != crc {
        return FrameRead::Torn;
    }
    match WalRecord::from_bytes(payload) {
        Ok(rec) => FrameRead::Ok(rec, offset + FRAME_HEADER + len),
        Err(_) => FrameRead::Torn,
    }
}

/// The byte offsets at which each complete, checksummed frame of a log
/// image ends — every element is a valid truncation point for simulating
/// a crash at a record boundary (element 0 is the end of the bootstrap
/// record). Scanning stops at the torn tail, like recovery does.
pub fn frame_boundaries(buf: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return out;
    }
    let mut offset = MAGIC.len();
    while let FrameRead::Ok(_, end) = read_frame(buf, offset) {
        out.push(end);
        offset = end;
    }
    out
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), computed
/// slicing-by-8: eight bytes per step through eight 256-entry tables built
/// at compile time, the tail byte-at-a-time through the first. The value
/// is the plain CRC-32 of `data` — frames checked by older peers and logs
/// written by older builds verify unchanged.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (blocks, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = crc_entry(7, c0)
            ^ crc_entry(6, c1)
            ^ crc_entry(5, c2)
            ^ crc_entry(4, c3)
            ^ crc_entry(3, b4)
            ^ crc_entry(2, b5)
            ^ crc_entry(1, b6)
            ^ crc_entry(0, b7);
    }
    for &b in tail {
        let [c0, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ crc_entry(0, c0 ^ b);
    }
    !crc
}

/// `CRC_TABLES[k][b]`: the CRC register contribution of byte `b` followed
/// by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One slicing-table entry; `k < 8` at every call site.
#[inline(always)]
fn crc_entry(k: usize, b: u8) -> u32 {
    CRC_TABLES[k][usize::from(b)] // check: allow(panic, "k is a literal below 8; a u8 indexes 256 entries")
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::as_conversions,
            clippy::cast_possible_truncation,
            reason = "const-fn loop index bounded to 0..256; u32::try_from is not const"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c; // check: allow(panic, "const evaluation: an out-of-range index fails the build")
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i]; // check: allow(panic, "const evaluation: an out-of-range index fails the build")
            #[expect(clippy::as_conversions, reason = "masked to 0..=255; usize::from is not const")]
            let low = (prev & 0xff) as usize;
            t[k][i] = (prev >> 8) ^ t[0][low]; // check: allow(panic, "const evaluation: an out-of-range index fails the build")
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder};

    #[test]
    fn crc32_known_vectors() {
        // the classic check value of CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn oversized_declared_frame_is_torn_not_allocated() {
        // a header claiming a u32::MAX-byte payload over a short buffer
        // must classify as torn via the bounds check, not allocate
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        assert!(matches!(read_frame(&buf, 0), FrameRead::Torn));
    }

    fn sample_ops() -> Vec<WalOp> {
        let ty = AtomTypeId(0);
        let lt = LinkTypeId(0);
        vec![
            WalOp::Insert {
                ty,
                tuple: vec![Value::from("SP"), Value::Null],
                id: AtomId::new(ty, 3),
            },
            WalOp::InsertBatch {
                ty,
                tuples: vec![vec![Value::from(1)], vec![Value::from(2)]],
                ids: vec![AtomId::new(ty, 4), AtomId::new(ty, 5)],
            },
            WalOp::Delete {
                id: AtomId::new(ty, 4),
            },
            WalOp::UpdateAttr {
                id: AtomId::new(ty, 3),
                attr: 1,
                value: Value::from(2.5),
            },
            WalOp::Connect {
                lt,
                side0: AtomId::new(ty, 3),
                side1: AtomId::new(ty, 5),
            },
            WalOp::Disconnect {
                lt,
                side0: AtomId::new(ty, 3),
                side1: AtomId::new(ty, 5),
            },
        ]
    }

    #[test]
    fn ops_roundtrip() {
        let ops = sample_ops();
        let bytes = ops.to_bytes();
        assert_eq!(Vec::<WalOp>::from_bytes(&bytes).unwrap(), ops);
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let rec = WalRecord::Commit {
            seq: 7,
            ops: sample_ops(),
        };
        let framed = frame(&rec).unwrap();
        match read_frame(&framed, 0) {
            FrameRead::Ok(WalRecord::Commit { seq, ops }, end) => {
                assert_eq!(seq, 7);
                assert_eq!(ops, sample_ops());
                assert_eq!(end, framed.len());
            }
            _ => panic!("expected a full frame"),
        }
        // every strict prefix is torn, never mis-decoded
        for cut in 0..framed.len() {
            assert!(matches!(read_frame(&framed[..cut], 0), FrameRead::Torn));
        }
        // a flipped payload byte breaks the checksum
        let mut corrupt = framed.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(read_frame(&corrupt, 0), FrameRead::Torn));
    }

    #[test]
    fn apply_op_verifies_insert_slot() {
        let schema = SchemaBuilder::new()
            .atom_type("a", &[("x", AttrType::Int)])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let ty = db.schema().atom_type_id("a").unwrap();
        // log says the insert landed on slot 5, but the db is empty
        let op = WalOp::Insert {
            ty,
            tuple: vec![Value::from(1)],
            id: AtomId::new(ty, 5),
        };
        let err = apply_op(&mut db, &op).unwrap_err();
        assert!(matches!(err, MadError::Wal { .. }), "got {err}");
    }
}
