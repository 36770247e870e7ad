#![deny(clippy::as_conversions, clippy::cast_possible_truncation)]
//! The wire format: framing, message payloads, error transport.
//!
//! This module is the **normative spec** of what crosses a connection
//! (see `ARCHITECTURE.md` for the prose version):
//!
//! ```text
//! connection := client-magic server-hello (request response)*
//! client-magic := "MADNET1\n"                       (8 bytes, client → server)
//! frame  := len:u32le crc:u32le payload[len]        (crc = CRC-32/IEEE of payload)
//! request  := 0x00 statement:str                    (one MQL statement)
//!           | 0x01                                  (ping)
//!           | 0x02 encoding:u8                      (set result encoding: 0 text, 1 binary)
//! response := 0x00 rendered:str                     (statement result text)
//!           | 0x01 error                            (statement/protocol error)
//!           | 0x02                                  (pong)
//!           | 0x03 proto:u32le seq:u64le durable:u8 encodings:u8
//!                                                   (server hello; encodings is a bitmask:
//!                                                    bit 0 text, bit 1 binary)
//!           | 0x04 bytes:blob                       (statement result, binary encoding —
//!                                                    a `mad_model::bin::BinResult` payload)
//!           | 0x05 encoding:u8                      (ack of a SetEncoding request)
//! str    := len:u32le utf8[len]
//! blob   := len:u32le bytes[len]
//! error  := tag:u8 fields…                          (structural MadError encoding)
//! ```
//!
//! Requests may be **pipelined**: a client can write any number of request
//! frames without waiting for responses, and the server answers each one
//! with exactly one response frame, in request order. A `BEGIN … COMMIT`
//! span may extend across pipelined frames; a disconnect with a
//! transaction open aborts it.
//!
//! The framing discipline mirrors the `mad_wal` log (`len` + CRC + payload)
//! and is hardened the same way: a declared length beyond
//! [`MAX_FRAME_LEN`] is rejected **before** any allocation, a short read is
//! a protocol error rather than an unbounded block on garbage, and a
//! checksum or decode failure classifies the frame as malformed — the
//! connection is closed with [`MadError::Protocol`], the shared handle is
//! never touched.

use mad_model::bin::{
    len_u32, put_blob, put_str, put_u32, put_u64, u64_of_usize, usize_of_u32, usize_of_u64, Reader,
};
use mad_model::{MadError, Result};
use mad_wal::crc32;
use std::io::{Read, Write};

/// The 8-byte connection preamble a client must send first ("MADNET" +
/// protocol generation 1 + newline).
pub const MAGIC: &[u8; 8] = b"MADNET1\n";

/// Protocol version carried in the server hello; bumped on any
/// incompatible change to the frame or payload format. Version 2 added
/// pipelining, the result-encoding negotiation
/// ([`Request::SetEncoding`] / [`Response::EncodingAck`]) and the binary
/// result payload ([`Response::BinResult`]).
pub const PROTOCOL_VERSION: u32 = 2;

/// Result-encoding selector: rendered text (the default).
pub const ENCODING_TEXT: u8 = 0;

/// Result-encoding selector: structural binary
/// (`mad_model::bin::BinResult` payloads in [`Response::BinResult`]).
pub const ENCODING_BINARY: u8 = 1;

/// Bitmask of encodings this server supports, advertised in the hello
/// (bit 0 = text, bit 1 = binary).
pub const SUPPORTED_ENCODINGS: u8 = 0b11;

/// Size of a frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Hard upper bound on a frame payload (64 MiB). A peer declaring more is
/// lying or broken; honoring the length field would let one malformed
/// header allocate attacker-controlled memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Map a socket-level failure into a [`MadError::Io`], classifying an
/// expired read/write deadline ([`std::io::ErrorKind::TimedOut`] /
/// [`std::io::ErrorKind::WouldBlock`], which is what a socket with
/// `set_read_timeout` raises on Unix) with a stable "timed out" marker
/// that [`is_timeout_error`] recognizes.
pub fn io_error(context: &str, e: &std::io::Error) -> MadError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    ) {
        MadError::io(format!("{context}: timed out waiting for the peer"))
    } else {
        MadError::io(format!("{context}: {e}"))
    }
}

/// Did this transport error stem from a socket deadline expiring (as
/// classified by [`io_error`])? Servers use it to tell an idle/half-open
/// connection from a genuinely broken one; clients to decide a retry is
/// worth it.
pub fn is_timeout_error(e: &MadError) -> bool {
    matches!(e, MadError::Io { detail } if detail.contains("timed out waiting for the peer"))
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Execute one MQL statement in the connection's session.
    Statement(String),
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// Switch the connection's result encoding ([`ENCODING_TEXT`] or
    /// [`ENCODING_BINARY`]); the server answers
    /// [`Response::EncodingAck`]. Takes effect for statements *after*
    /// this request in the pipeline.
    SetEncoding(u8),
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The statement succeeded; the rendered result text.
    Result(String),
    /// The statement (or the frame carrying it) failed. The error is
    /// transported structurally, so variant-level client logic —
    /// `is_conflict()` retry loops above all — behaves exactly as it
    /// would in-process.
    Error(MadError),
    /// Answer to [`Request::Ping`].
    Pong,
    /// First frame of every connection, server → client.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Commit sequence of the served handle at connect time.
        commit_seq: u64,
        /// Does the served handle write-ahead-log its commits?
        durable: bool,
        /// Bitmask of result encodings the server supports (bit 0 text,
        /// bit 1 binary); see [`SUPPORTED_ENCODINGS`].
        encodings: u8,
    },
    /// The statement succeeded; the result in the binary encoding — an
    /// encoded `mad_model::bin::BinResult`. Sent only after the client
    /// selected [`ENCODING_BINARY`].
    BinResult(Vec<u8>),
    /// Answer to [`Request::SetEncoding`], echoing the encoding now in
    /// effect.
    EncodingAck(u8),
}

// ---------------------------------------------------------------------
// frame I/O
// ---------------------------------------------------------------------

/// Outcome of reading one frame from a connection.
pub enum FrameIn {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
}

/// Write `payload` as one frame. Errors with [`MadError::Protocol`] if the
/// payload exceeds [`MAX_FRAME_LEN`] (nothing is written then) and
/// [`MadError::Io`] on socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(MadError::protocol(format!(
            "frame payload of {} bytes exceeds the {} byte limit",
            payload.len(),
            MAX_FRAME_LEN
        )));
    }
    let mut header = [0u8; FRAME_HEADER];
    // the MAX_FRAME_LEN guard above keeps the length well inside u32
    header[0..4].copy_from_slice(&len_u32(payload.len()).to_le_bytes());
    header[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| io_error("write frame", &e))
}

/// Read one frame. EOF **at a frame boundary** is a clean close
/// ([`FrameIn::Closed`]); EOF anywhere inside a frame is a truncated frame
/// and therefore [`MadError::Protocol`]. A declared length beyond
/// [`MAX_FRAME_LEN`] is rejected before any allocation; a checksum
/// mismatch is a protocol error.
pub fn read_frame(r: &mut impl Read) -> Result<FrameIn> {
    let mut header = [0u8; FRAME_HEADER];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(FrameIn::Closed),
        ReadOutcome::Full => {}
    }
    let len = usize_of_u32(u32::from_le_bytes(header[0..4].try_into().unwrap()));
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(MadError::protocol(format!(
            "peer declared a {len} byte frame (limit {MAX_FRAME_LEN}); refusing to allocate"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            MadError::protocol(format!(
                "truncated frame: peer closed inside a {len} byte payload"
            ))
        } else {
            io_error("read frame payload", &e)
        }
    })?;
    if crc32(&payload) != crc {
        return Err(MadError::protocol("frame checksum mismatch"));
    }
    Ok(FrameIn::Payload(payload))
}

/// Find the first complete frame at the front of `buf` — the
/// accumulation buffer of a readiness-driven reader, which sees bytes in
/// whatever chunks the socket delivers (partial frames, several coalesced
/// frames, or a frame split across sweeps). Returns `Ok(None)` while `buf`
/// holds only a partial frame, else the verified payload (borrowed from
/// `buf`) and the frame's length: the caller advances a cursor by it and
/// consumes every parsed frame in one `drain` per sweep. The same
/// hardening as [`read_frame`] applies: an oversized declared length is
/// rejected before any allocation, a checksum mismatch is a
/// [`MadError::Protocol`].
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>> {
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return Ok(None);
    };
    let mut header = Reader::new(header);
    let len = usize_of_u32(header.u32().map_err(bad_payload)?);
    let crc = header.u32().map_err(bad_payload)?;
    if len > MAX_FRAME_LEN {
        return Err(MadError::protocol(format!(
            "peer declared a {len} byte frame (limit {MAX_FRAME_LEN}); refusing to allocate"
        )));
    }
    let Some(body) = buf.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Ok(None);
    };
    if crc32(body) != crc {
        return Err(MadError::protocol("frame checksum mismatch"));
    }
    Ok(Some((body, FRAME_HEADER + len)))
}

/// Encode `resp` as one complete frame in a single buffer sized up front:
/// the payload is encoded in place behind a header slot, then checksummed.
/// A text result is therefore copied exactly once, from the rendered
/// `String` into the frame. Errors with [`MadError::Protocol`] if the
/// payload exceeds [`MAX_FRAME_LEN`], as [`write_frame`] does.
pub fn frame_response(resp: &Response) -> Result<Vec<u8>> {
    let body_hint = match resp {
        Response::Result(text) => 5 + text.len(),
        Response::BinResult(bytes) => 5 + bytes.len(),
        _ => 64,
    };
    let mut out = Vec::with_capacity(FRAME_HEADER + body_hint);
    out.extend_from_slice(&[0; FRAME_HEADER]);
    put_response(&mut out, resp);
    let len = out.len() - FRAME_HEADER;
    if len > MAX_FRAME_LEN {
        return Err(MadError::protocol(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit"
        )));
    }
    let crc = out.get(FRAME_HEADER..).map_or(0, crc32);
    // the MAX_FRAME_LEN guard above keeps the length well inside u32
    let header = len_u32(len)
        .to_le_bytes()
        .into_iter()
        .chain(crc.to_le_bytes());
    for (slot, byte) in out.iter_mut().zip(header) {
        *slot = byte;
    }
    Ok(out)
}

enum ReadOutcome {
    Full,
    Eof,
}

/// `read_exact`, except a clean EOF before the **first** byte is reported
/// as [`ReadOutcome::Eof`] instead of an error (EOF after at least one
/// byte is a truncation and errors as [`MadError::Protocol`]).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => {
                return Err(MadError::protocol(format!(
                    "truncated frame: peer closed after {filled} of {} header bytes",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error("read frame header", &e)),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------
// payload codec
// ---------------------------------------------------------------------

/// Encode a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Statement(text) => {
            out.push(0);
            put_str(&mut out, text);
        }
        Request::Ping => out.push(1),
        Request::SetEncoding(enc) => {
            out.push(2);
            out.push(*enc);
        }
    }
    out
}

/// Decode a request payload. Never panics; any malformed input — unknown
/// tag, truncation, trailing garbage — is a [`MadError::Protocol`].
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut r = Reader::new(payload);
    let req = match r.u8().map_err(bad_payload)? {
        0 => Request::Statement(r.str().map_err(bad_payload)?),
        1 => Request::Ping,
        2 => Request::SetEncoding(r.u8().map_err(bad_payload)?),
        t => return Err(MadError::protocol(format!("unknown request tag {t}"))),
    };
    r.expect_end().map_err(bad_payload)?;
    Ok(req)
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_response(&mut out, resp);
    out
}

/// Append the payload encoding of `resp` to `out`.
fn put_response(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Result(text) => {
            out.push(0);
            put_str(out, text);
        }
        Response::Error(e) => {
            out.push(1);
            put_error(out, e);
        }
        Response::Pong => out.push(2),
        Response::Hello {
            protocol,
            commit_seq,
            durable,
            encodings,
        } => {
            out.push(3);
            put_u32(out, *protocol);
            put_u64(out, *commit_seq);
            out.push(u8::from(*durable));
            out.push(*encodings);
        }
        Response::BinResult(bytes) => {
            out.push(4);
            put_blob(out, bytes);
        }
        Response::EncodingAck(enc) => {
            out.push(5);
            out.push(*enc);
        }
    }
}

/// Decode a response payload. Never panics; malformed input is a
/// [`MadError::Protocol`].
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut r = Reader::new(payload);
    let resp = match r.u8().map_err(bad_payload)? {
        0 => Response::Result(r.str().map_err(bad_payload)?),
        1 => Response::Error(read_error(&mut r, 0)?),
        2 => Response::Pong,
        3 => Response::Hello {
            protocol: r.u32().map_err(bad_payload)?,
            commit_seq: r.u64().map_err(bad_payload)?,
            durable: r.u8().map_err(bad_payload)? != 0,
            encodings: r.u8().map_err(bad_payload)?,
        },
        4 => Response::BinResult(r.blob().map_err(bad_payload)?),
        5 => Response::EncodingAck(r.u8().map_err(bad_payload)?),
        t => return Err(MadError::protocol(format!("unknown response tag {t}"))),
    };
    r.expect_end().map_err(bad_payload)?;
    Ok(resp)
}

fn bad_payload(e: MadError) -> MadError {
    MadError::protocol(format!("malformed payload: {e}"))
}

// ---------------------------------------------------------------------
// error transport
// ---------------------------------------------------------------------
//
// Errors cross the wire structurally (one tag per `MadError` variant plus
// the variant's fields), so the client reconstructs the *same* variant the
// server raised: `is_conflict()` keeps driving retry loops, `TxnState`
// still reads as a transaction-state problem, and so on. The only
// lossy corner: the `&'static str` discriminants (`kind`/`op`) are
// re-interned through a closed table, with unknown values folding to a
// generic label.

/// Nesting bound for [`MadError::Script`] sources — deeper input is
/// malformed by construction (scripts don't nest in the engine).
const MAX_ERROR_DEPTH: u8 = 4;

fn intern_kind(s: &str) -> &'static str {
    for k in [
        "atom type",
        "atom type id",
        "attribute",
        "attribute index",
        "link type",
        "molecule type",
        "structure node",
        "structure node alias",
        "projection node",
    ] {
        if s == k {
            return k;
        }
    }
    "object"
}

fn intern_op(s: &str) -> &'static str {
    for k in [
        "×", "Ω", "Δ", "Π", "Σ", "α", "δ", "μ", "ν", "σ", "ω", "closure",
    ] {
        if s == k {
            return k;
        }
    }
    "operator"
}

fn put_error(out: &mut Vec<u8>, e: &MadError) {
    match e {
        MadError::UnknownName { kind, name } => {
            out.push(0);
            put_str(out, kind);
            put_str(out, name);
        }
        MadError::DuplicateName { kind, name } => {
            out.push(1);
            put_str(out, kind);
            put_str(out, name);
        }
        MadError::TypeMismatch {
            context,
            expected,
            found,
        } => {
            out.push(2);
            put_str(out, context);
            put_str(out, expected);
            put_str(out, found);
        }
        MadError::ArityMismatch {
            context,
            expected,
            found,
        } => {
            out.push(3);
            put_str(out, context);
            put_u64(out, u64_of_usize(*expected));
            put_u64(out, u64_of_usize(*found));
        }
        MadError::IntegrityViolation { detail } => {
            out.push(4);
            put_str(out, detail);
        }
        MadError::CardinalityViolation { link_type, detail } => {
            out.push(5);
            put_str(out, link_type);
            put_str(out, detail);
        }
        MadError::InvalidStructure { detail } => {
            out.push(6);
            put_str(out, detail);
        }
        MadError::IncompatibleOperands { op, detail } => {
            out.push(7);
            put_str(out, op);
            put_str(out, detail);
        }
        MadError::InvalidQualification { detail } => {
            out.push(8);
            put_str(out, detail);
        }
        MadError::Parse { offset, detail } => {
            out.push(9);
            put_u64(out, u64_of_usize(*offset));
            put_str(out, detail);
        }
        MadError::Analysis { detail } => {
            out.push(10);
            put_str(out, detail);
        }
        MadError::Snapshot { detail } => {
            out.push(11);
            put_str(out, detail);
        }
        MadError::Codec { detail } => {
            out.push(12);
            put_str(out, detail);
        }
        MadError::Wal { detail } => {
            out.push(13);
            put_str(out, detail);
        }
        MadError::Recursion { detail } => {
            out.push(14);
            put_str(out, detail);
        }
        MadError::TxnConflict { detail } => {
            out.push(15);
            put_str(out, detail);
        }
        MadError::TxnState { detail } => {
            out.push(16);
            put_str(out, detail);
        }
        MadError::Script {
            index,
            statement,
            source,
        } => {
            out.push(17);
            put_u64(out, u64_of_usize(*index));
            put_str(out, statement);
            put_error(out, source);
        }
        MadError::Protocol { detail } => {
            out.push(18);
            put_str(out, detail);
        }
        MadError::Io { detail } => {
            out.push(19);
            put_str(out, detail);
        }
    }
}

fn read_error(r: &mut Reader<'_>, depth: u8) -> Result<MadError> {
    if depth > MAX_ERROR_DEPTH {
        return Err(MadError::protocol("error nesting exceeds the wire bound"));
    }
    let e = match r.u8().map_err(bad_payload)? {
        0 => MadError::UnknownName {
            kind: intern_kind(&r.str().map_err(bad_payload)?),
            name: r.str().map_err(bad_payload)?,
        },
        1 => MadError::DuplicateName {
            kind: intern_kind(&r.str().map_err(bad_payload)?),
            name: r.str().map_err(bad_payload)?,
        },
        2 => MadError::TypeMismatch {
            context: r.str().map_err(bad_payload)?,
            expected: r.str().map_err(bad_payload)?,
            found: r.str().map_err(bad_payload)?,
        },
        3 => MadError::ArityMismatch {
            context: r.str().map_err(bad_payload)?,
            expected: usize_of_u64(r.u64().map_err(bad_payload)?).map_err(bad_payload)?,
            found: usize_of_u64(r.u64().map_err(bad_payload)?).map_err(bad_payload)?,
        },
        4 => MadError::IntegrityViolation {
            detail: r.str().map_err(bad_payload)?,
        },
        5 => MadError::CardinalityViolation {
            link_type: r.str().map_err(bad_payload)?,
            detail: r.str().map_err(bad_payload)?,
        },
        6 => MadError::InvalidStructure {
            detail: r.str().map_err(bad_payload)?,
        },
        7 => MadError::IncompatibleOperands {
            op: intern_op(&r.str().map_err(bad_payload)?),
            detail: r.str().map_err(bad_payload)?,
        },
        8 => MadError::InvalidQualification {
            detail: r.str().map_err(bad_payload)?,
        },
        9 => MadError::Parse {
            offset: usize_of_u64(r.u64().map_err(bad_payload)?).map_err(bad_payload)?,
            detail: r.str().map_err(bad_payload)?,
        },
        10 => MadError::Analysis {
            detail: r.str().map_err(bad_payload)?,
        },
        11 => MadError::Snapshot {
            detail: r.str().map_err(bad_payload)?,
        },
        12 => MadError::Codec {
            detail: r.str().map_err(bad_payload)?,
        },
        13 => MadError::Wal {
            detail: r.str().map_err(bad_payload)?,
        },
        14 => MadError::Recursion {
            detail: r.str().map_err(bad_payload)?,
        },
        15 => MadError::TxnConflict {
            detail: r.str().map_err(bad_payload)?,
        },
        16 => MadError::TxnState {
            detail: r.str().map_err(bad_payload)?,
        },
        17 => MadError::Script {
            index: usize_of_u64(r.u64().map_err(bad_payload)?).map_err(bad_payload)?,
            statement: r.str().map_err(bad_payload)?,
            source: Box::new(read_error(r, depth + 1)?),
        },
        18 => MadError::Protocol {
            detail: r.str().map_err(bad_payload)?,
        },
        19 => MadError::Io {
            detail: r.str().map_err(bad_payload)?,
        },
        t => return Err(MadError::protocol(format!("unknown error tag {t}"))),
    };
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(resp: &Response) -> Response {
        decode_response(&encode_response(resp)).unwrap()
    }

    #[test]
    fn request_and_response_roundtrip() {
        for req in [
            Request::Statement("SELECT ALL FROM state;".into()),
            Request::Ping,
            Request::SetEncoding(ENCODING_BINARY),
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        for resp in [
            Response::Result("molecule type `result`: 2 molecule(s)\n".into()),
            Response::Pong,
            Response::Hello {
                protocol: PROTOCOL_VERSION,
                commit_seq: 42,
                durable: true,
                encodings: SUPPORTED_ENCODINGS,
            },
            Response::Error(MadError::txn_conflict("write-write conflict on atom a0s0")),
            Response::BinResult(vec![0, 1, 2, 0xff]),
            Response::EncodingAck(ENCODING_TEXT),
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn truncated_bin_result_blob_is_a_protocol_error() {
        let mut payload = encode_response(&Response::BinResult(vec![7; 16]));
        payload.truncate(payload.len() - 4);
        assert!(matches!(
            decode_response(&payload),
            Err(MadError::Protocol { .. })
        ));
    }

    #[test]
    fn conflict_survives_the_wire() {
        let Response::Error(e) =
            roundtrip_response(&Response::Error(MadError::txn_conflict("overlap")))
        else {
            panic!()
        };
        assert!(e.is_conflict(), "is_conflict() lost in transit: {e:?}");
        // wrapped in a script, too
        let script = MadError::Script {
            index: 2,
            statement: "COMMIT".into(),
            source: Box::new(MadError::txn_conflict("overlap")),
        };
        let Response::Error(e) = roundtrip_response(&Response::Error(script)) else {
            panic!()
        };
        assert!(e.is_conflict());
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let payload = encode_response(&Response::Result("ok\n".into()));
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = wire.as_slice();
        let FrameIn::Payload(read) = read_frame(&mut cursor).unwrap() else {
            panic!("expected a payload");
        };
        assert_eq!(read, payload);
        // and the stream is now at a clean boundary
        assert!(matches!(read_frame(&mut cursor).unwrap(), FrameIn::Closed));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // header declares u32::MAX bytes; decode must refuse, not allocate
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let err = match read_frame(&mut wire.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("oversized frame accepted"),
        };
        assert!(matches!(err, MadError::Protocol { .. }), "got {err}");
        // the write side refuses symmetrically
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &big),
            Err(MadError::Protocol { .. })
        ));
        assert!(sink.is_empty(), "nothing may be written before the check");
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let payload = encode_request(&Request::Ping);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let err = match read_frame(&mut &wire[..cut]) {
                Err(e) => e,
                Ok(_) => panic!("truncated frame at {cut} bytes accepted"),
            };
            assert!(matches!(err, MadError::Protocol { .. }), "cut {cut}: {err}");
        }
    }

    #[test]
    fn split_frame_handles_partial_and_coalesced_input() {
        let a = encode_request(&Request::Ping);
        let b = encode_request(&Request::Statement("SELECT ALL FROM state".into()));
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        // feed the coalesced byte stream one byte at a time: a partial
        // frame yields None, each completed frame is found exactly once
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for byte in wire {
            buf.push(byte);
            let mut at = 0;
            while let Some((p, n)) = split_frame(&buf[at..]).unwrap() {
                got.push(p.to_vec());
                at += n;
            }
            buf.drain(..at);
        }
        assert!(buf.is_empty());
        assert_eq!(got, vec![a, b]);
        // oversized length and corrupt checksum are rejected, as in read_frame
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(split_frame(&huge), Err(MadError::Protocol { .. })));
    }

    #[test]
    fn frame_response_equals_write_frame_of_the_encoding() {
        for resp in [
            Response::Result("molecule type `result`: 2 molecule(s)\n".into()),
            Response::Result(String::new()),
            Response::Pong,
            Response::Error(MadError::txn_conflict("overlap")),
            Response::BinResult(vec![0, 1, 2, 0xff]),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &encode_response(&resp)).unwrap();
            assert_eq!(frame_response(&resp).unwrap(), wire, "{resp:?}");
        }
        let big = Response::Result("x".repeat(MAX_FRAME_LEN));
        assert!(matches!(
            frame_response(&big),
            Err(MadError::Protocol { .. })
        ));
    }

    #[test]
    fn corrupt_checksum_is_a_protocol_error() {
        let payload = encode_request(&Request::Statement("SELECT".into()));
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(MadError::Protocol { .. })
        ));
    }
}
