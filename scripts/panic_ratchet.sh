#!/usr/bin/env bash
# The panic ratchet: clippy's panic lints over the non-test code (libs and
# bins) of every workspace member, counted per crate directory against
# the budgets in check_ratchet.toml. Fails when a crate is over budget,
# when it is under budget (write the lower count into the file), or when
# the file names a directory that is not a ratcheted member. A crate the
# file does not list has budget 0; the vendor/ shims are exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

warnings="$(cargo clippy --workspace --lib --bins --message-format=short -- -A clippy::all \
  -W clippy::unwrap_used -W clippy::expect_used -W clippy::panic -W clippy::unreachable \
  -W clippy::todo -W clippy::unimplemented -W clippy::indexing_slicing 2>&1)" ||
  { printf '%s\n' "$warnings"; exit 1; }
members="src $(awk '/^members *= *\[/ { m = 1; next } m && /^\]/ { exit }
  m { gsub(/[",[:space:]]/, ""); if ($0 !~ /^(vendor\/|$)/) print }' Cargo.toml)"

awk -v members="$members" '
  BEGIN { n = split(members, m, " "); for (i = 1; i <= n; i++) member[m[i]] = 1 }
  FNR == NR { if ($0 ~ /^"[^"]+" = [0-9]+$/) { gsub(/"/, ""); budget[$1] = $3 }; next }
  /^[^ ]+:[0-9]+:[0-9]+: warning: / { split($1, p, "/"); d = p[1] == "src" ? "src" : p[1] "/" p[2]
    count[d]++; sites[d] = sites[d] "  " $0 "\n" }
  END {
    for (d in budget) if (!(d in member)) { print "check_ratchet.toml: " d " is not a ratcheted workspace member"; bad = 1 }
    for (d in member) {
      c = count[d] + 0; b = budget[d] + 0
      if (c > b) { printf "%s%s: %d panic sites over its budget of %d\n", sites[d], d, c, b; bad = 1 }
      if (c < b) { print d ": " c " panic sites under its budget of " b "; write " c " into check_ratchet.toml"; bad = 1 }
    }
    if (!bad) print "panic ratchet: every crate at its budget"
    exit bad
  }' check_ratchet.toml - <<<"$warnings"
