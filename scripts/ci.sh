#!/usr/bin/env bash
# The tier-1 gate, runnable locally and in CI:
#
#   1. release build (the profile the benches and examples use),
#   2. full test suite (a debug build: every acquisition of a ranked
#      lock asserts the lock hierarchy, see mad_obs::rank), then the
#      benchmark package's own smoke tests — madbench sits outside the
#      workspace, so without this step an API change in
#      mad-txn/mad-storage can break the benchmark unnoticed,
#   3. clippy over the whole workspace with warnings promoted to errors
#      (vendored shim crates included — they are workspace members); an
#      `#[expect(clippy::…)]` whose lint no longer fires is an error here,
#   4. the panic ratchet (scripts/panic_ratchet.sh): clippy's panic lints
#      (unwrap_used, expect_used, panic, unreachable, todo, unimplemented,
#      indexing_slicing) over the libs and bins, counted per crate
#      directory against check_ratchet.toml, which may only decrease.
#      Unsafe code is forbidden by the workspace lints, wire-codec casts
#      by clippy (step 3), lock order by the ranked locks' debug
#      assertions, and crate layering, the lock table and wire tags are
#      tier-1 tests (tests/crate_layering.rs, tests/lock_ranks.rs,
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
#      JSON forms, and the slow-query ring buffer recorded the traffic.
#
# The byte guards are tier-1 tests (step 2): the paper figures against
# tests/golden/figures.txt (crates/bench/tests/figures_golden.rs), and the
# Fig. 2 scan served over loopback (server render → frame CRC → client
# CRC check → decode) against tests/golden/brazil_scan.txt
# (tests/served_scan_golden.rs).
#
# Any step failing fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace names the scope: the root manifest is both the workspace
# and the `mad` facade package. Its `default-members` list every member
# too, so the bare tier-1 `cargo build`/`cargo test` cover the same
# crates, including the `madd`/`madc` binaries the scenario steps run.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== madbench smoke tests (the benchmark package links the crates from outside the workspace)"
cargo test --offline -q --manifest-path madbench/Cargo.toml

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== panic ratchet: clippy's panic lints per crate against check_ratchet.toml"
scripts/panic_ratchet.sh

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

echo "== observability smoke over TCP (madd --bootstrap brazil --slow-query-ms 0 + madc)"
OBS_PORT=7879
./target/release/madd --addr "127.0.0.1:$OBS_PORT" --bootstrap brazil --slow-query-ms 0 &
MADD_PID=$!
trap 'kill "$MADD_PID" 2>/dev/null; wait "$MADD_PID" 2>/dev/null; true' EXIT
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$OBS_PORT") 2>/dev/null; then break; fi
  sleep 0.1
done
SMOKE="$(./target/release/madc "127.0.0.1:$OBS_PORT" -e "
  SELECT ALL FROM state-area;
  EXPLAIN ANALYZE SELECT ALL FROM state-area;
  SHOW STATS net;
  SHOW STATS mql AS JSON;")"
kill "$MADD_PID" 2>/dev/null
wait "$MADD_PID" 2>/dev/null || true
trap - EXIT
fail() { echo "observability smoke: $1"; printf '%s\n' "$SMOKE"; exit 1; }
grep -q '^  derive' <<<"$SMOKE" || fail "EXPLAIN ANALYZE trace has no derive stage"
grep -q '^  total' <<<"$SMOKE" || fail "EXPLAIN ANALYZE trace has no total line"
grep -q 'net\.stmt_ns' <<<"$SMOKE" || fail "SHOW STATS net lost the statement histogram"
grep -q '"mql.statements"' <<<"$SMOKE" || fail "SHOW STATS mql AS JSON lost the statement counter"
# --slow-query-ms 0 records every statement: the ring buffer must be non-empty
grep -Eq 'net\.slow\.recorded +[1-9]' <<<"$SMOKE" || fail "slow-query log recorded nothing at threshold 0"

echo "ci.sh: all green"
