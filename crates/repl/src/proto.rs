#![deny(clippy::as_conversions, clippy::cast_possible_truncation)]
//! The replication wire format.
//!
//! This module is the **normative spec** of what crosses a replication
//! connection (see `ARCHITECTURE.md` for the prose version):
//!
//! ```text
//! connection := standby-magic standby-hello primary-hello catchup live*
//! standby-magic := "MADREPL1"                  (8 bytes, standby → primary)
//! frame  := len:u32le crc:u32le payload[len]   (crc = CRC-32/IEEE, as mad_net)
//! msg    := 0x00 standby-hello
//!         | 0x01 primary-hello
//!         | 0x02 record                        (primary → standby)
//!         | 0x03 ack                           (standby → primary)
//! standby-hello := protocol:u32le flag:u8 [have:u64le]  (flag 1 = cursor present)
//! primary-hello := protocol:u32le last_seq:u64le
//! record := WalRecord                          (mad_wal encoding: bootstrap | commit)
//! ack    := seq:u64le
//! catchup := one bootstrap record, or the logged commits after `have`
//! live   := commit records in publication order, gap-free
//! ```
//!
//! The stream deliberately transports [`mad_wal::WalRecord`]s verbatim:
//! what the standby receives **is** what it appends to its own log, so
//! the byte format, the CRC discipline and the recovery machinery are
//! shared with the WAL rather than re-specified. Framing reuses
//! [`mad_net::frame`], inheriting its allocation bound and truncation
//! handling; decode never panics on arbitrary bytes.

use mad_model::bin::{put_u32, put_u64, BinDecode, BinEncode, Reader};
use mad_model::{MadError, Result};
use mad_net::frame::{read_frame, write_frame, FrameIn};
use mad_wal::WalRecord;
use std::io::{Read, Write};

/// The 8-byte connection preamble a standby must send first ("MADREPL" +
/// protocol generation 1).
pub const REPL_MAGIC: &[u8; 8] = b"MADREPL1";

/// Protocol version carried in both hellos; bumped on any incompatible
/// change to the message format.
pub const REPL_PROTOCOL_VERSION: u32 = 1;

/// One replication message.
#[derive(Clone, Debug)]
pub enum ReplMsg {
    /// First message of every connection, standby → primary: the
    /// standby's protocol version and its replication cursor — the
    /// highest commit sequence durably in its local log, or `None` for a
    /// fresh standby that needs a bootstrap image.
    StandbyHello {
        /// The standby's [`REPL_PROTOCOL_VERSION`].
        protocol: u32,
        /// The standby's durable cursor (`None` = bootstrap me).
        have: Option<u64>,
    },
    /// The primary's answer: its protocol version and current commit
    /// sequence (how far behind the standby starts).
    PrimaryHello {
        /// The primary's [`REPL_PROTOCOL_VERSION`].
        protocol: u32,
        /// The primary's commit sequence at connect time.
        last_seq: u64,
    },
    /// One WAL record, primary → standby: a bootstrap image (catch-up
    /// from scratch) or one committed transaction's resolved op log —
    /// byte-identical to what the primary's own log holds.
    Record(WalRecord),
    /// Standby → primary: every record up to and including `seq` is
    /// durably appended to the standby's local log (quorum currency).
    Ack {
        /// The standby's new durable cursor.
        seq: u64,
    },
}

/// Encode a message payload.
pub fn encode_msg(msg: &ReplMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ReplMsg::StandbyHello { protocol, have } => {
            out.push(0);
            put_u32(&mut out, *protocol);
            match have {
                Some(seq) => {
                    out.push(1);
                    put_u64(&mut out, *seq);
                }
                None => out.push(0),
            }
        }
        ReplMsg::PrimaryHello { protocol, last_seq } => {
            out.push(1);
            put_u32(&mut out, *protocol);
            put_u64(&mut out, *last_seq);
        }
        ReplMsg::Record(rec) => {
            out.push(2);
            rec.encode(&mut out);
        }
        ReplMsg::Ack { seq } => {
            out.push(3);
            put_u64(&mut out, *seq);
        }
    }
    out
}

/// Decode a message payload. Never panics; any malformed input — unknown
/// tag, truncation, trailing garbage — is a [`MadError::Protocol`].
pub fn decode_msg(payload: &[u8]) -> Result<ReplMsg> {
    let mut r = Reader::new(payload);
    let msg = match r.u8().map_err(bad_payload)? {
        0 => {
            let protocol = r.u32().map_err(bad_payload)?;
            let have = match r.u8().map_err(bad_payload)? {
                0 => None,
                1 => Some(r.u64().map_err(bad_payload)?),
                f => {
                    return Err(MadError::protocol(format!(
                        "unknown cursor flag {f} in standby hello"
                    )))
                }
            };
            ReplMsg::StandbyHello { protocol, have }
        }
        1 => ReplMsg::PrimaryHello {
            protocol: r.u32().map_err(bad_payload)?,
            last_seq: r.u64().map_err(bad_payload)?,
        },
        2 => ReplMsg::Record(WalRecord::decode(&mut r).map_err(bad_payload)?),
        3 => ReplMsg::Ack {
            seq: r.u64().map_err(bad_payload)?,
        },
        t => return Err(MadError::protocol(format!("unknown replication message tag {t}"))),
    };
    r.expect_end().map_err(bad_payload)?;
    Ok(msg)
}

fn bad_payload(e: MadError) -> MadError {
    MadError::protocol(format!("malformed replication payload: {e}"))
}

/// Write one message as a frame.
pub fn send_msg(w: &mut impl Write, msg: &ReplMsg) -> Result<()> {
    write_frame(w, &encode_msg(msg))
}

/// Read one message. `Ok(None)` is a clean close at a frame boundary.
pub fn recv_msg(r: &mut impl Read) -> Result<Option<ReplMsg>> {
    match read_frame(r)? {
        FrameIn::Payload(payload) => decode_msg(&payload).map(Some),
        FrameIn::Closed => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_and_ack_roundtrip() {
        for msg in [
            ReplMsg::StandbyHello {
                protocol: REPL_PROTOCOL_VERSION,
                have: None,
            },
            ReplMsg::StandbyHello {
                protocol: REPL_PROTOCOL_VERSION,
                have: Some(42),
            },
            ReplMsg::PrimaryHello {
                protocol: REPL_PROTOCOL_VERSION,
                last_seq: 7,
            },
            ReplMsg::Ack { seq: 99 },
        ] {
            let bytes = encode_msg(&msg);
            let back = decode_msg(&bytes).unwrap();
            // WalRecord carries no PartialEq; byte equality is the spec
            assert_eq!(encode_msg(&back), bytes, "{msg:?}");
        }
    }

    #[test]
    fn commit_record_roundtrips() {
        let msg = ReplMsg::Record(WalRecord::Commit {
            seq: 12,
            ops: Vec::new(),
        });
        let bytes = encode_msg(&msg);
        match decode_msg(&bytes).unwrap() {
            ReplMsg::Record(WalRecord::Commit { seq, ops }) => {
                assert_eq!(seq, 12);
                assert!(ops.is_empty());
            }
            other => panic!("mis-decoded: {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_error_instead_of_panicking() {
        assert!(decode_msg(&[]).is_err());
        assert!(decode_msg(&[9]).is_err()); // unknown tag
        assert!(decode_msg(&[0, 1, 0, 0, 0, 7]).is_err()); // bad cursor flag
        let good = encode_msg(&ReplMsg::Ack { seq: 5 });
        for cut in 0..good.len() {
            assert!(decode_msg(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_msg(&trailing).is_err(), "trailing garbage accepted");
    }
}
