//! The deterministic protocol-level test harness: a scripted raw-socket
//! client driving a live [`Server`] through the wire format directly —
//! no [`mad_net::Client`] in the loop — so framing edge cases the
//! high-level client never produces (partial writes, coalesced frames,
//! mid-frame disconnects, half-closes) are exercised on purpose.
//!
//! Responses are asserted **byte-exact and in request order**: for
//! idempotent statements the canonical response bytes are captured once
//! over a plain one-frame exchange, then every scripted variation
//! (byte-at-a-time writes, coalesced bursts) must produce *identical*
//! payload bytes in the scripted order.

use mad_model::{AttrType, MadError, SchemaBuilder, Value};
use mad_net::frame::{
    decode_response, encode_request, read_frame, FrameIn, Request, Response, FRAME_HEADER, MAGIC,
    PROTOCOL_VERSION, SUPPORTED_ENCODINGS,
};
use mad_net::{DbHandle, Server, ServerConfig};
use mad_storage::Database;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn geo_handle() -> DbHandle {
    let schema = SchemaBuilder::new()
        .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
        .atom_type("area", &[("aid", AttrType::Int)])
        .link_type("state-area", "state", "area")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let state = db.schema().atom_type_id("state").unwrap();
    db.insert_atom(state, vec![Value::from("SP"), Value::from(10)])
        .unwrap();
    DbHandle::new(db)
}

/// A scripted raw-socket client: every byte on the wire is explicit.
struct Script {
    stream: TcpStream,
}

impl Script {
    fn connect(server: &Server) -> Self {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Script { stream }
    }

    /// Connect and complete the magic preamble, returning the hello
    /// payload bytes exactly as they arrived.
    fn handshake(server: &Server) -> (Self, Vec<u8>) {
        let mut script = Script::connect(server);
        script.write_bytes(MAGIC);
        let hello = script.recv_payload();
        (script, hello)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
        self.stream.flush().unwrap();
    }

    /// Write `bytes` one byte per syscall, pausing every few bytes so
    /// the server's read sweeps observe genuinely partial input.
    fn trickle(&mut self, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_bytes(&[*b]);
            if i % 5 == 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// One request frame as raw wire bytes.
    fn frame(req: &Request) -> Vec<u8> {
        let mut wire = Vec::new();
        mad_net::frame::write_frame(&mut wire, &encode_request(req)).unwrap();
        wire
    }

    fn send(&mut self, req: &Request) {
        let wire = Self::frame(req);
        self.write_bytes(&wire);
    }

    /// Block until the next response frame arrives; return its payload.
    fn recv_payload(&mut self) -> Vec<u8> {
        match read_frame(&mut self.stream).unwrap() {
            FrameIn::Payload(p) => p,
            FrameIn::Closed => panic!("server closed the connection mid-script"),
        }
    }

    fn recv_response(&mut self) -> Response {
        decode_response(&self.recv_payload()).unwrap()
    }

    /// The connection must be closed (EOF or reset) — no further frame.
    fn expect_closed(&mut self) {
        match read_frame(&mut self.stream) {
            Ok(FrameIn::Closed) => {}
            Ok(FrameIn::Payload(p)) => {
                panic!("expected EOF, got a frame: {:?}", decode_response(&p))
            }
            // a reset after the server's shutdown(Both) is also "closed"
            Err(MadError::Protocol { .. }) | Err(MadError::Io { .. }) => {}
            Err(e) => panic!("expected EOF, got {e:?}"),
        }
    }
}

fn wait_until(deadline_secs: u64, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn trickled_handshake_gets_a_byte_exact_hello() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let expected = mad_net::frame::encode_response(&Response::Hello {
        protocol: PROTOCOL_VERSION,
        commit_seq: server.handle().commit_seq(),
        durable: false,
        encodings: SUPPORTED_ENCODINGS,
    });
    // the magic preamble delivered one byte per syscall must still
    // complete the handshake
    let mut script = Script::connect(&server);
    script.trickle(MAGIC);
    assert_eq!(script.recv_payload(), expected);
    server.shutdown();
}

#[test]
fn partial_writes_reassemble_into_byte_exact_responses() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let select = Request::Statement("SELECT ALL FROM state".into());

    // canonical exchange: one clean frame, one response
    let (mut canon, _) = Script::handshake(&server);
    canon.send(&select);
    let expected = canon.recv_payload();
    assert!(matches!(
        decode_response(&expected).unwrap(),
        Response::Result(_)
    ));

    // the same frame trickled byte-at-a-time must produce identical bytes
    let (mut script, _) = Script::handshake(&server);
    script.trickle(&Script::frame(&select));
    assert_eq!(script.recv_payload(), expected);

    // a frame split exactly at the header/body boundary, with a pause
    let wire = Script::frame(&select);
    script.write_bytes(&wire[..FRAME_HEADER]);
    std::thread::sleep(Duration::from_millis(5));
    script.write_bytes(&wire[FRAME_HEADER..]);
    assert_eq!(script.recv_payload(), expected);
    server.shutdown();
}

#[test]
fn coalesced_pipeline_answers_in_order_byte_exact() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let select = Request::Statement("SELECT ALL FROM state".into());

    let (mut canon, _) = Script::handshake(&server);
    canon.send(&select);
    let select_bytes = canon.recv_payload();
    canon.send(&Request::Ping);
    let pong_bytes = canon.recv_payload();

    // five requests in ONE write syscall; five responses, in order,
    // byte-identical to the canonical exchanges
    let (mut script, _) = Script::handshake(&server);
    let mut burst = Vec::new();
    let order = [&select, &Request::Ping, &select, &Request::Ping, &select];
    for req in order {
        burst.extend_from_slice(&Script::frame(req));
    }
    script.write_bytes(&burst);
    for req in order {
        let expected = if matches!(req, Request::Ping) {
            &pong_bytes
        } else {
            &select_bytes
        };
        assert_eq!(&script.recv_payload(), expected);
    }
    server.shutdown();
}

#[test]
fn ten_thousand_coalesced_pings_answer_in_order() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let select = Request::Statement("SELECT ALL FROM state".into());
    let (mut canon, _) = Script::handshake(&server);
    canon.send(&select);
    let select_bytes = canon.recv_payload();

    // 10 000 pings and a trailing statement in ONE write: the server parses
    // them all out of one read buffer (consuming it once per sweep, not
    // once per frame) and answers every one, in order
    const N: usize = 10_000;
    let (mut script, _) = Script::handshake(&server);
    let ping = Script::frame(&Request::Ping);
    let mut burst = Vec::with_capacity(N * ping.len());
    for _ in 0..N {
        burst.extend_from_slice(&ping);
    }
    burst.extend_from_slice(&Script::frame(&select));
    script.write_bytes(&burst);
    for i in 0..N {
        let resp = script.recv_response();
        assert!(matches!(resp, Response::Pong), "answer {i}: {resp:?}");
    }
    assert_eq!(script.recv_payload(), select_bytes);
    assert_eq!(server.requests_received(), 1 + N + 1);
    server.shutdown();
}

#[test]
fn pipelined_burst_with_a_failing_statement_keeps_order() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let (mut script, _) = Script::handshake(&server);
    // a burst where the middle statement fails: the error answers in
    // position and the statements after it still execute
    let reqs = [
        Request::Statement("INSERT ATOM state (sname = 'AA', pop = 1)".into()),
        Request::Statement("SELECT ALL FROM nowhere".into()),
        Request::Statement("INSERT ATOM state (sname = 'BB', pop = 2)".into()),
    ];
    let mut burst = Vec::new();
    for req in &reqs {
        burst.extend_from_slice(&Script::frame(req));
    }
    script.write_bytes(&burst);
    let Response::Result(first) = script.recv_response() else {
        panic!("first insert should succeed")
    };
    assert!(first.starts_with("inserted atom"), "got: {first}");
    let Response::Error(err) = script.recv_response() else {
        panic!("unknown name should answer in position two")
    };
    assert!(err.to_string().contains("nowhere"), "got: {err}");
    let Response::Result(third) = script.recv_response() else {
        panic!("third insert should still execute")
    };
    assert!(third.starts_with("inserted atom"), "got: {third}");
    assert_eq!(server.handle().committed().total_atoms(), 3);
    server.shutdown();
}

#[test]
fn half_close_after_a_burst_still_answers_everything() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let (mut script, _) = Script::handshake(&server);
    let mut burst = Vec::new();
    for i in 0..3 {
        burst.extend_from_slice(&Script::frame(&Request::Statement(format!(
            "INSERT ATOM state (sname = 'H{i}', pop = {i})"
        ))));
    }
    script.write_bytes(&burst);
    // close only the write side: everything already sent must still be
    // answered before the server closes its side
    script.stream.shutdown(std::net::Shutdown::Write).unwrap();
    for _ in 0..3 {
        let Response::Result(text) = script.recv_response() else {
            panic!("burst statement lost after half-close")
        };
        assert!(text.starts_with("inserted atom"), "got: {text}");
    }
    script.expect_closed();
    assert_eq!(server.handle().committed().total_atoms(), 4);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_aborts_the_open_transaction_exactly_once() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();
    let baseline_seq = server.handle().commit_seq();

    let (mut script, _) = Script::handshake(&server);
    script.send(&Request::Statement("BEGIN".into()));
    assert!(matches!(script.recv_response(), Response::Result(_)));
    script.send(&Request::Statement(
        "INSERT ATOM state (sname = 'TX', pop = 99)".into(),
    ));
    assert!(matches!(script.recv_response(), Response::Result(_)));

    // vanish mid-frame: write half a header, then drop the socket
    let wire = Script::frame(&Request::Statement("COMMIT".into()));
    script.write_bytes(&wire[..FRAME_HEADER / 2]);
    drop(script);

    // the server notices, drops the session, and the session drop aborts
    // the open transaction — exactly once, observable as: the connection
    // retires, nothing committed, and the handle is not wedged
    wait_until(10, "the connection to retire", || {
        server.active_connections() == 0
    });
    assert_eq!(server.handle().commit_seq(), baseline_seq);
    assert_eq!(server.handle().committed().total_atoms(), 1);

    // a fresh connection can run a full transaction: no leaked
    // registration pins the commit log
    let (mut fresh, _) = Script::handshake(&server);
    for stmt in [
        "BEGIN",
        "INSERT ATOM state (sname = 'OK', pop = 1)",
        "COMMIT",
    ] {
        fresh.send(&Request::Statement(stmt.into()));
        let resp = fresh.recv_response();
        assert!(matches!(resp, Response::Result(_)), "got: {resp:?}");
    }
    assert_eq!(server.handle().committed().total_atoms(), 2);
    server.shutdown();
}

#[test]
fn corrupt_and_oversized_frames_get_ordered_protocol_errors() {
    let server = Server::serve(geo_handle(), "127.0.0.1:0").unwrap();

    // a frame whose CRC lies: the statement queued BEFORE it must still
    // be answered first, then the protocol error, then EOF
    let (mut script, _) = Script::handshake(&server);
    let mut burst = Script::frame(&Request::Ping);
    let mut bad = Script::frame(&Request::Ping);
    let last = bad.len() - 1;
    bad[last] ^= 0xFF; // corrupt the body so the CRC mismatches
    burst.extend_from_slice(&bad);
    script.write_bytes(&burst);
    assert!(matches!(script.recv_response(), Response::Pong));
    let Response::Error(err) = script.recv_response() else {
        panic!("corrupt frame should produce an in-order error response")
    };
    assert!(err.to_string().contains("checksum"), "got: {err}");
    script.expect_closed();

    // a header declaring an absurd length is refused without allocating
    let (mut script, _) = Script::handshake(&server);
    let mut header = Vec::new();
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    script.write_bytes(&header);
    let Response::Error(err) = script.recv_response() else {
        panic!("oversized frame should produce an error response")
    };
    assert!(err.to_string().contains("refusing"), "got: {err}");
    script.expect_closed();

    // and a garbage preamble never reaches frame parsing at all
    let mut script = Script::connect(&server);
    script.write_bytes(b"HTTP/1.1");
    let Response::Error(err) = script.recv_response() else {
        panic!("bad magic should produce an error response")
    };
    assert!(matches!(err, MadError::Protocol { .. }), "got: {err}");
    script.expect_closed();
    server.shutdown();
}

#[test]
fn scripted_shutdown_drains_then_closes() {
    let server = Server::serve_with(
        geo_handle(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (mut script, _) = Script::handshake(&server);
    const N: usize = 16;
    let mut burst = Vec::new();
    for i in 0..N {
        burst.extend_from_slice(&Script::frame(&Request::Statement(format!(
            "INSERT ATOM state (sname = 'Z{i}', pop = {i})"
        ))));
    }
    script.write_bytes(&burst);
    wait_until(10, "the burst to be parsed", || {
        server.requests_received() >= N
    });
    let stopper = std::thread::spawn(move || server.shutdown());
    for _ in 0..N {
        let Response::Result(text) = script.recv_response() else {
            panic!("shutdown dropped a parsed statement")
        };
        assert!(text.starts_with("inserted atom"), "got: {text}");
    }
    script.expect_closed();
    stopper.join().unwrap();
}
