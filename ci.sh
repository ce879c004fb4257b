#!/bin/sh
# Offline CI gate for the RandomCast workspace.
#
# The workspace has no external dependencies, so every step runs with
# --offline: any registry access is a regression this script catches.
#
#   ./ci.sh          # build + all tests (including doctests)
set -eu

cd "$(dirname "$0")"

echo "==> rcast lint (determinism & hygiene static analysis)"
# Runs before any build/test step so determinism regressions fail fast.
# The SARIF log is diffed against the checked-in golden: on a clean
# tree it pins the rule inventory and the output format in one shot.
# Regenerate deliberately with
# `cargo run -p rcast-lint -- --sarif > tests/golden/lint.sarif`.
# Each pass prints its own `rcast-lint: wall time <n> ms` line on stderr.
cargo build -q --offline -p rcast-lint
./target/debug/rcast-lint
./target/debug/rcast-lint --sarif > target/lint.sarif
cmp target/lint.sarif tests/golden/lint.sarif || {
    echo "FAIL: rcast-lint --sarif diverged from tests/golden/lint.sarif" >&2
    exit 1
}

echo "==> cargo clippy --offline --workspace -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "NOTICE: clippy component unavailable; skipping clippy gate"
fi

echo "==> cargo doc --offline (rustdoc warnings are errors)"
# Broken or private intra-doc links fail here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --offline (unit, integration, property, doctests)"
cargo test -q --offline --workspace

echo "==> cargo test --offline --doc (doctests, explicitly)"
cargo test -q --offline --workspace --doc

echo "==> chaos smoke: fault-injected run per scheme (offline, release)"
cargo test -q --offline --test chaos
for scheme in 802.11 psm psm-none odpm rcast; do
    ./target/release/rcast run --scheme "$scheme" \
        --nodes 25 --area 700x300 --duration 30 --flows 4 --seed 7 \
        --faults crash=0.3,downtime=10,blackouts=2,bursts=1,corrupt=0.5 \
        > /dev/null
done

echo "==> example smoke: ledger-derived per-packet and energy views (release)"
# Both examples read their views from the event ledger (ObsReport's
# per-packet histories and energy_by_interval); running them, not just
# compiling them, keeps those views exercised end to end.
cargo run -q --release --offline --example packet_forensics > /dev/null
cargo run -q --release --offline --example drain_curves > /dev/null

echo "==> bench smoke: tracked perf suite + regression check (release)"
# The checked-in BENCH_rcast.json is regenerated deliberately with
# `rcast bench --out BENCH_rcast.json`, never overwritten here.
# --check compares the smoke run's points against that baseline on the
# (workload, scheme) intersection: wall speed may not fall below 75% of
# the recorded figure (absorbing shared-host noise) and the per-interval
# allocation count may not rise at all (it is deterministic). With
# --smoke the binary additionally enforces the DESIGN.md §11 ledger
# budget: zero steady-state allocations with the ledger off AND on, and
# < 10% wall overhead when it is on.
./target/release/rcast bench --smoke --check BENCH_rcast.json > /dev/null

echo "==> scaling smoke: large-tier near-linearity gate (release)"
# The 600- and 1200-node Rcast cells at the medium workload's density.
# The binary fails this step when the 600 -> 1200 doubling grows wall
# time per interval beyond 2.5x (a reintroduced pairwise scan scores
# ~4x) or when either cell exceeds the steady-state allocation budget;
# the nodes-doubling table it prints lands in the CI log via stderr.
./target/release/rcast bench --smoke --large > /dev/null

echo "==> trace smoke: rcast-trace/v1 export matches the checked-in golden"
# The same pinned workload the determinism suite locks down at widths
# 1/2/8; here the release binary's end-to-end CLI path (config flags →
# simulation → ledger → JSONL) is diffed byte-for-byte against the
# golden. Regenerate deliberately with
# `cargo test --test determinism -- --ignored`.
trace_out=$(mktemp)
trap 'rm -f "$trace_out"' EXIT
./target/release/rcast trace \
    --nodes 12 --area 600x300 --duration 10 --flows 3 --pause 20 --seed 7 \
    --out "$trace_out" 2> /dev/null
cmp "$trace_out" tests/golden/trace_rcast_seed7.jsonl || {
    echo "FAIL: rcast trace output diverged from tests/golden/trace_rcast_seed7.jsonl" >&2
    exit 1
}
# Filters must subset, not reshape: a filtered export still parses and
# keeps the header schema line first.
./target/release/rcast trace \
    --nodes 12 --area 600x300 --duration 10 --flows 3 --pause 20 --seed 7 \
    --filter kind=span --interval-range 0..8 2> /dev/null \
    | head -1 | grep -q '"schema":"rcast-trace/v1"' || {
    echo "FAIL: filtered rcast trace lost its schema header" >&2
    exit 1
}

echo "==> sweep smoke: rcast-sweep/v1 artifacts match the checked-in goldens"
# The fig7 smoke grid (24 runs) through the release binary's --out
# path, diffed byte-for-byte against the goldens the determinism suite
# pins at widths 1/2/8. Regenerate deliberately with
# `cargo test --release --test sweep_determinism -- --ignored`.
sweep_out=$(mktemp -d)
trap 'rm -f "$trace_out"; rm -rf "$sweep_out"' EXIT
./target/release/rcast sweep --spec fig7 --smoke --threads 8 \
    --out "$sweep_out" 2> /dev/null
for ext in json csv; do
    cmp "$sweep_out/fig7-smoke.$ext" "tests/golden/fig7-smoke.$ext" || {
        echo "FAIL: rcast sweep .$ext diverged from tests/golden/fig7-smoke.$ext" >&2
        exit 1
    }
done

echo "==> front-end smoke: rcast compare, the fig5 per-node summary and the aodv-comparison variants (release)"
# `rcast compare` builds an inline sweep spec and prints the sweep
# engine's human summary; `sweep --spec fig5 --smoke` is the path that
# also prints each cell's sampled per-node energy curve and role
# numbers; `sweep --spec aodv-comparison --smoke` runs the variant axis
# and the optional metric columns, whose CSV header must carry them.
./target/release/rcast compare --nodes 20 --area 800x300 --duration 20 \
    --flows 4 --rates 0.4 --seeds 1 > /dev/null || {
    echo "FAIL: rcast compare smoke exited non-zero" >&2
    exit 1
}
./target/release/rcast sweep --spec fig5 --smoke > /dev/null || {
    echo "FAIL: rcast sweep --spec fig5 --smoke exited non-zero" >&2
    exit 1
}
./target/release/rcast sweep --spec aodv-comparison --smoke \
    --out "$sweep_out" 2> /dev/null || {
    echo "FAIL: rcast sweep --spec aodv-comparison --smoke exited non-zero" >&2
    exit 1
}
head -1 "$sweep_out/aodv-comparison-smoke.csv" | grep -q ',rreq_share_mean,' || {
    echo "FAIL: aodv-comparison CSV header lacks rreq_share_mean" >&2
    exit 1
}

echo "==> scenario round trip: an exported scenario replays its run (release)"
# One flag set that exercises every key the old hand-kept grammars lost:
# Rcast factors, --broadcast-p ahead of --factors, a seed past 2^53, a
# fault plan and a battery. `run --csv` and `scenario --csv` on the
# `export-scenario` text must print the same bytes.
rt_dir=$(mktemp -d)
trap 'rm -f "$trace_out"; rm -rf "$sweep_out" "$rt_dir"' EXIT
set -- --nodes 20 --area 800x300 --duration 20 --flows 4 \
    --broadcast-p 0.5 --factors sender-id,mobility --seed 9007199254740993 \
    --faults crash=0.3,downtime=10 --battery 500
./target/release/rcast run "$@" --csv > "$rt_dir/run.csv"
./target/release/rcast export-scenario "$@" > "$rt_dir/exported.scn"
./target/release/rcast scenario "$rt_dir/exported.scn" --csv > "$rt_dir/replay.csv"
cmp "$rt_dir/run.csv" "$rt_dir/replay.csv" || {
    echo "FAIL: rcast scenario on the export-scenario text diverged from rcast run" >&2
    exit 1
}

echo "CI gate passed."
