#!/usr/bin/env bash
# Tier-1 CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q [CP_ROW_CACHE=0]"
# Matrix leg: the snapshot-delta row cache disabled — every library
# default oracle recomputes evicted rows and never repairs.
CP_ROW_CACHE=0 cargo test -q

echo "==> knob census"
# The library reads exactly two environment knobs. A new `CP_*` variable
# is a new configuration axis of every conformance matrix; adding one
# means changing this list on purpose.
knobs="$(grep -rhoE 'env::var(_os)?\("CP_[A-Z0-9_]*"' crates src \
    | sed -E 's/.*"(CP_[A-Z0-9_]*)"/\1/' | sort -u | tr '\n' ' ')"
if [ "$knobs" != "CP_ROW_CACHE CP_THREADS " ]; then
    echo "ci.sh: the library reads env knobs {${knobs}}, expected {CP_ROW_CACHE CP_THREADS}" >&2
    exit 1
fi

echo "==> cargo test -q -p cp-query [query conformance]"
# Query-serving leg: the differential conformance suite proves every
# Exact answer equals from-scratch BFS truth and every Bounded answer
# brackets it, plus the 8-reader concurrency stress.
cargo test -q -p cp-query

echo "==> cargo test -q [CP_THREADS=8]"
# Matrix leg: a wide persistent pool under every conformance suite —
# the executor's work-stealing schedule must be invisible in every
# result, the Brandes edge scores' last bits included (cp-graph).
CP_THREADS=8 cargo test -q -p cp-graph -p cp-core -p cp-stream

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> pipeline_baseline release smoke (CP_THREADS=2, --scale=0.1)"
smoke_out="$(mktemp -t bench_pipeline_smoke.XXXXXX.json)"
CP_THREADS=2 cargo run --release -q -p cp-bench --bin pipeline_baseline -- \
    --scale=0.1 --out="$smoke_out" > /dev/null
# The persistent executor must make threads a non-loss: no dataset's
# multi-thread rung may lose to its single-thread twin beyond the
# noise allowance.
if grep -q '"thread_regression": true' "$smoke_out"; then
    echo "ci.sh: a dataset regressed when threaded — the persistent pool is not paying off" >&2
    rm -f "$smoke_out"
    exit 1
fi
grep -q '"thread_regression": false' "$smoke_out" || {
    echo "ci.sh: thread_regression missing from the baseline JSON" >&2
    rm -f "$smoke_out"
    exit 1
}
# And work must actually migrate between lanes: the summed steal count
# over all sweeps is nonzero.
grep -q '"exec_steals": [1-9]' "$smoke_out" || {
    echo "ci.sh: no executor batch ever stole work between lanes" >&2
    rm -f "$smoke_out"
    exit 1
}
# The Δ-scan ladder must actually exercise chunk skipping somewhere:
# at least one dataset reports a nonzero scan_chunks_skipped.
grep -q '"scan_chunks_skipped": [1-9]' "$smoke_out" || {
    echo "ci.sh: no dataset skipped any Δ-scan chunks" >&2
    rm -f "$smoke_out"
    exit 1
}
# The streaming ladder must actually chain: at least one chained review
# sequence serves charged rows straight from imported donor rows.
grep -q '"donor_chain_hits": [1-9]' "$smoke_out" || {
    echo "ci.sh: no streaming review ever hit a chained donor row" >&2
    rm -f "$smoke_out"
    exit 1
}
# The query ladder must produce partial-information answers: at least
# one point query answered Bounded (not just Exact/Unknown).
grep -q '"query_bounded_answers": [1-9]' "$smoke_out" || {
    echo "ci.sh: the query ladder never produced a Bounded answer" >&2
    rm -f "$smoke_out"
    exit 1
}
# And the query path must be budget-free: the ladder's summed ledger
# difference against its reader-free twin is exactly zero.
grep -q '"query_budget_charged": 0,' "$smoke_out" || {
    echo "ci.sh: concurrent queries charged the review ledger" >&2
    rm -f "$smoke_out"
    exit 1
}
rm -f "$smoke_out"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci.sh: all green"
