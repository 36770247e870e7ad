//! Byte guards on the served Fig. 2 scan. `SELECT ALL FROM
//! state-area-edge-point` over the Brazil database, served by
//! `mad_net::Server` on loopback and read with `Client::execute` (server
//! render, frame CRC, client CRC check, decode), must equal the goldens
//! byte for byte:
//!
//! * `tests/golden/brazil_scan.txt`: the server's text rendering;
//! * `tests/golden/brazil_scan_bin.txt`: the client-side rendering of the
//!   binary encoding (`render_bin_result`).
//!
//! Regenerate a golden only from a build of the parent commit, never from
//! the change under test.

use mad::net::{Client, Server, ENCODING_BINARY};
use mad::txn::DbHandle;
use mad::workload::brazil_database;

const SCAN: &str = "SELECT ALL FROM state-area-edge-point;";

fn serve_brazil() -> (Server, Client) {
    let (db, _) = brazil_database().unwrap();
    let server = Server::serve(DbHandle::new(db), "127.0.0.1:0").unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

/// Fail with the first differing byte offset unless `got == golden`.
fn assert_same_bytes(got: &str, golden: &str, name: &str) {
    if got != golden {
        let first = got
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(golden.len()));
        panic!(
            "the served scan differs from tests/golden/{name} at byte {first} \
             ({} bytes served, {} in the golden)\n--- served ---\n{got}",
            got.len(),
            golden.len()
        );
    }
}

#[test]
fn served_fig2_scan_equals_the_golden_byte_for_byte() {
    let (_server, mut client) = serve_brazil();
    let text = client.execute(SCAN).unwrap();
    assert_same_bytes(
        &text,
        include_str!("golden/brazil_scan.txt"),
        "brazil_scan.txt",
    );
}

#[test]
fn binary_fig2_scan_renders_client_side_like_the_golden() {
    let (_server, mut client) = serve_brazil();
    client.set_encoding(ENCODING_BINARY).unwrap();
    let text = client.execute(SCAN).unwrap();
    assert_same_bytes(
        &text,
        include_str!("golden/brazil_scan_bin.txt"),
        "brazil_scan_bin.txt",
    );
}
