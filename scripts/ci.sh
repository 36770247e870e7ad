#!/usr/bin/env bash
# The tier-1 gate, runnable locally and in CI:
#
#   1. release build (the profile the benches and examples use),
#   2. full test suite, then the benchmark package's own smoke tests —
#      madbench sits outside the workspace, so without this step an API
#      change in mad-txn/mad-storage can break the benchmark unnoticed,
#   3. clippy over the whole workspace with warnings promoted to errors
#      (vendored shim crates included — they are workspace members),
#   4. mad-check, the workspace's own static analyzer: lock-hierarchy
#      order against the normative ARCHITECTURE.md table, the
#      registration-lock blocking ban and the panic ratchet (see
#      crates/check). Unsafe code is forbidden by the workspace lints,
#      wire-codec casts by clippy (step 3), and crate layering and wire
#      tags are tier-1 tests (tests/crate_layering.rs,
#      tests/wire_roundtrip.rs; step 2),
#   5. rustdoc, warning-free (every crate carries `//!` module docs),
#   6. the crash-recovery scenario end to end: mixed workload over a
#      durable handle, kill at a random WAL record boundary, recovery,
#      prefix-consistency verification (examples/durability.rs),
#   7. the networked crash scenario on loopback: TCP clients against a
#      durable server, kill mid-traffic, restart, acked-prefix
#      verification (examples/network.rs),
#   8. the pipelining stress scenario on loopback: N connections with
#      whole transaction groups in flight, a deterministic forced
#      conflict answered in pipeline order, an abrupt mid-burst server
#      kill, acked-prefix verification (examples/pipelining.rs),
#   9. the replication failover scenario on loopback: sync-quorum
#      standbys under fault injection, kill the primary mid-traffic,
#      promote a standby, acked-prefix verification on the promoted
#      node (examples/failover.rs),
#  10. the observability smoke: a real `madd --bootstrap brazil
#      --slow-query-ms 0` daemon driven over TCP by `madc`, asserting
#      EXPLAIN ANALYZE renders a staged trace, SHOW STATS serves table +
#      JSON forms, and the slow-query ring buffer recorded the traffic;
#      plus the end-to-end byte guard: the Fig. 2 scan as `madc` prints it
#      (server render → frame CRC → client CRC check → decode) must equal
#      tests/golden/brazil_scan.txt byte for byte,
#  11. the paper figures: the deterministic `figures` binary (Fig. 1–5,
#      E6–E8, the B2 duplication table) must print tests/golden/figures.txt
#      byte for byte.
#
# Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace matters: the root manifest is both the workspace and the
# `mad` facade package, so a bare `cargo build` here builds only the
# facade — not the `madd`/`madc` binaries the scenario steps run.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== madbench smoke tests (the benchmark package links the crates from outside the workspace)"
cargo test --offline -q --manifest-path madbench/Cargo.toml

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== mad-check (lock order, registration-lock blocking, panic ratchet)"
cargo run --release --quiet -p mad-check

echo "== cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== crash-recovery scenario (examples/durability.rs)"
cargo run --release --quiet --example durability

echo "== networked crash scenario on loopback (examples/network.rs)"
cargo run --release --quiet --example network

echo "== pipelining stress with mid-burst kill (examples/pipelining.rs)"
cargo run --release --quiet --example pipelining

echo "== replication failover scenario under fault injection (examples/failover.rs)"
cargo run --release --quiet --example failover

echo "== observability smoke and byte guard over TCP (madd --bootstrap brazil --slow-query-ms 0 + madc)"
OBS_PORT=7879
./target/release/madd --addr "127.0.0.1:$OBS_PORT" --bootstrap brazil --slow-query-ms 0 &
MADD_PID=$!
trap 'kill "$MADD_PID" 2>/dev/null; wait "$MADD_PID" 2>/dev/null; true' EXIT
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$OBS_PORT") 2>/dev/null; then break; fi
  sleep 0.1
done
SCAN_OUT="$(mktemp)"
./target/release/madc "127.0.0.1:$OBS_PORT" -e "SELECT ALL FROM state-area-edge-point;" >"$SCAN_OUT"
SMOKE="$(./target/release/madc "127.0.0.1:$OBS_PORT" -e "
  SELECT ALL FROM state-area;
  EXPLAIN ANALYZE SELECT ALL FROM state-area;
  SHOW STATS net;
  SHOW STATS mql AS JSON;")"
kill "$MADD_PID" 2>/dev/null
wait "$MADD_PID" 2>/dev/null || true
trap - EXIT
if ! diff -u tests/golden/brazil_scan.txt "$SCAN_OUT"; then
  echo "byte guard: the served Fig. 2 scan differs from tests/golden/brazil_scan.txt"
  exit 1
fi
rm -f "$SCAN_OUT"
fail() { echo "observability smoke: $1"; printf '%s\n' "$SMOKE"; exit 1; }
grep -q '^  derive' <<<"$SMOKE" || fail "EXPLAIN ANALYZE trace has no derive stage"
grep -q '^  total' <<<"$SMOKE" || fail "EXPLAIN ANALYZE trace has no total line"
grep -q 'net\.stmt_ns' <<<"$SMOKE" || fail "SHOW STATS net lost the statement histogram"
grep -q '"mql.statements"' <<<"$SMOKE" || fail "SHOW STATS mql AS JSON lost the statement counter"
# --slow-query-ms 0 records every statement: the ring buffer must be non-empty
grep -Eq 'net\.slow\.recorded +[1-9]' <<<"$SMOKE" || fail "slow-query log recorded nothing at threshold 0"

echo "== paper figures against tests/golden/figures.txt"
cargo run --release -q -p mad-bench --bin figures | diff -u tests/golden/figures.txt -

echo "ci.sh: all green"
