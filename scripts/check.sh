#!/usr/bin/env bash
# The tier-1 gate as one command: build, test, and (when the tools are
# installed) format + lint checks. Everything runs offline — the
# workspace has no external dependencies by design.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> symbol-size smoke (scripts/symbol-sizes.sh on the mseh binary against itself)"
# The script compares function sizes between two builds when a change
# must leave kernel code where it was; a binary against itself must
# print nothing, so a parse that rots fails here, not in a comparison.
moved="$(scripts/symbol-sizes.sh target/release/mseh target/release/mseh)"
if [ -n "$moved" ]; then
    echo "FAIL: symbol-sizes.sh reports functions moving between target/release/mseh and itself:"
    echo "$moved" | head -n 20
    exit 1
fi
echo "ok: symbol-sizes.sh finds no change between target/release/mseh and itself"

echo "==> cargo test -q --no-fail-fast"
# --no-fail-fast: one failing test binary must not hide the results of
# the binaries after it; the step still fails on any failure.
cargo test -q --no-fail-fast

echo "==> pinned receipts in release (a digest that moves with the optimisation level fails)"
cargo test --release -q --test receipts

echo "==> benchmark package tests (mseh-benchmark, shared target dir)"
# The benchmark of record is its own workspace on the public API; a
# change that breaks it fails here rather than in the benchmark run.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
    cargo test -q --offline --manifest-path mseh-benchmark/Cargo.toml

echo "==> benchmark of record smoke (every workload for 2 s, traced)"
# The benchmark exits 2 when a workload's own check fails: an operation
# that errs, or a traced metric that is not finite (a hit rate over zero
# lookups, say). The numbers are not gated here.
bash mseh-benchmark/run.sh --workload all --seconds 2 --trace 1 >/dev/null
echo "ok: every workload passed its own checks"

echo "==> build and run all examples"
cargo build --release --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example: $name"
    cargo run --release -q -p mseh --example "$name" >/dev/null
done

echo "==> experiments pin (the survey's tables byte for byte against crates/bench/experiments.txt)"
# The file's first line names the target it was blessed on (the last
# digits depend on the target's libm); on another target this step says
# so and skips. After a deliberate change of results, re-bless by
# overwriting the file and list the moved rows in CHANGES.md:
#   { echo "target $(uname -m) $(uname -s | tr '[:upper:]' '[:lower:]')"; \
#     ./target/release/experiments; } > crates/bench/experiments.txt
pinned=crates/bench/experiments.txt
here="target $(uname -m) $(uname -s | tr '[:upper:]' '[:lower:]')"
blessed="$(head -n 1 "$pinned")"
if [ "$blessed" != "$here" ]; then
    echo "skip: $pinned was blessed on '${blessed#target }', this is '${here#target }'"
else
    experiments_out="$(mktemp)"
    ./target/release/experiments > "$experiments_out"
    if ! diff -u <(tail -n +2 "$pinned") "$experiments_out"; then
        echo "FAIL: experiments output differs from $pinned (diff above)"
        rm -f "$experiments_out"
        exit 1
    fi
    rm -f "$experiments_out"
    echo "ok: experiments output matches $pinned"
fi

echo "==> serve smoke (release daemon on an ephemeral port, driven by the example client)"
# The daemon prints its bound address on the first stdout line; the
# client submits, streams, cancels a running fleet job, then sends the
# wire shutdown verb — the daemon must exit 0 on its own.
serve_log="$(mktemp)"
./target/release/mseh serve --addr 127.0.0.1:0 --queue 4 --workers 1 > "$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(awk '/listening on/ { print $NF; exit }' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: daemon never reported its listening address"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! cargo run --release -q -p mseh --example serve_client -- "$addr" >/dev/null; then
    echo "FAIL: serve client session failed against $addr"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The accept loop blocks until shutdown wakes it with a connection of
# its own; if that wake were lost the daemon would never exit, so give
# it 30 s and fail instead of hanging.
for _ in $(seq 1 300); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null || true
    echo "FAIL: daemon still running 30 s after wire shutdown"
    exit 1
fi
if ! wait "$serve_pid"; then
    echo "FAIL: daemon exited non-zero after wire shutdown"
    exit 1
fi
rm -f "$serve_log"
echo "ok: serve smoke — submit, stream, cancel, shutdown, clean exit"

echo "==> perf smoke (reduced budget, perf profile, writes target/BENCH_sim_quick.json)"
# The perf profile matches the committed baseline's host.profile, so the
# regression gate below compares like with like.
cargo run --profile perf -q -p mseh-bench --bin perf -- --quick

# Prints the value of KEY in JSON FILE: the first occurrence, or the
# first after the line holding ANCHOR when one is given. A key or anchor
# that is missing fails the gate, so a renamed or dropped key can never
# gate against a floor of 0.
read_key() {
    local file="$1" key="$2" anchor="${3:-}" value
    value="$(awk -F': ' -v key="\"$key\"" -v anchor="$anchor" '
        anchor != "" && !seen { if (index($0, anchor)) seen = 1; next }
        { k = $1; gsub(/^[ \t]+/, "", k) }
        k == key { v = $2; gsub(/[ ,]/, "", v); print v; exit }' "$file")"
    if [ -z "$value" ]; then
        echo "FAIL: no \"$key\" in $file${anchor:+ after $anchor}" >&2
        return 1
    fi
    echo "$value"
}

# Fails when the quick run's KEY is below FLOOR times the committed
# baseline's (both read through read_key, after ANCHOR if given).
floor_gate() {
    local label="$1" key="$2" floor="$3" anchor="${4:-}" baseline quick
    baseline="$(read_key BENCH_sim.json "$key" "$anchor")" || exit 1
    quick="$(read_key target/BENCH_sim_quick.json "$key" "$anchor")" || exit 1
    awk -v q="$quick" -v b="$baseline" -v f="$floor" -v label="$label" 'BEGIN {
        if (q + 0 < b * f) {
            printf "FAIL: %s %.1f is >%.0f%% below committed baseline %.1f (floor %.1f)\n", label, q, (1 - f) * 100, b, b * f
            exit 1
        }
        printf "ok: %s %.1f vs committed %.1f (floor %.1f)\n", label, q, b, b * f
    }'
}

echo "==> perf regression gate (quick steps/s vs committed BENCH_sim.json)"
floor_gate steps_per_sec steps_per_sec 0.8

echo "==> fleet regression gate (quick node-steps/s vs committed BENCH_sim.json)"
# The dense battery-class headline row, read by its name, so the gate
# compares the same lane at quick vs full scale. The floor is 30% (vs
# 20% for the hot loop): the quick fleet row is seconds long and its
# rate swings ~±15% with host load, while a real dense-lane regression
# (losing the shared table or the store monomorphization) costs 5-8x.
floor_gate "fleet node_steps_per_sec" node_steps_per_sec 0.7 \
    '"name": "dense solar+NiMH (battery class)"'

echo "==> dense-supercap regression gate (quick batched node-steps/s vs committed BENCH_sim.json)"
# The batched struct-of-arrays lanes' headline. Same 30% floor and
# rationale as the fleet gate above; a real regression (losing the
# batched lanes and falling back to boxed per-node stepping) costs ~10x.
floor_gate dense_supercap_node_steps_per_sec dense_supercap_node_steps_per_sec 0.7

echo "==> dense-battery regression gate (quick batched node-steps/s vs committed BENCH_sim.json)"
# The battery-store batched lane (lane-shared keep-fraction powf plus
# the uniform fast path). Same 30% floor and rationale as the gates
# above; a real regression (losing the batched gate and falling back to
# boxed per-node stepping) costs >10x.
floor_gate dense_battery_batched_node_steps_per_sec dense_battery_batched_node_steps_per_sec 0.7

echo "==> arena regression gate (quick policy-evals/s vs committed BENCH_sim.json)"
# The policy-arena throughput headline. The arena times a fixed spec
# (32 contenders, 7 days) in both modes, so quick and committed compare
# identically; same 30% floor rationale as the fleet gates — a real
# regression (losing the shared harvest table and re-solving per lane)
# costs ~6x.
floor_gate "arena policy_evals_per_sec" policy_evals_per_sec 0.7

echo "==> boxed arena regression gate (quick lane-steps/s vs committed BENCH_sim.json)"
# System B lanes settling one shared harvest per seed, the shape of the
# benchmark's arena-tournament, on the same fixed spec (2 seeds, 7 days)
# in both modes. Nearly all of its time is the store step, so losing the
# supercap's inversion memo (settle re-running Newton at the rail) costs
# ~1.5x here; same 30% floor as the arena gate above.
floor_gate "arena boxed_lane_steps_per_sec" boxed_lane_steps_per_sec 0.7

echo "==> arena amortization gate (32 lanes vs one standalone run)"
# The tentpole claim: 32 policy lanes over one shared trace must cost
# no more than 6x a single run — i.e. the shared-environment lockstep
# amortization factor (32 x single / arena) stays >= 5.
arena_amort="$(read_key target/BENCH_sim_quick.json amortization_factor)" || exit 1
awk -v a="$arena_amort" 'BEGIN {
    if (a + 0 < 5.0) {
        printf "FAIL: arena amortization factor %.2f below the 5x floor\n", a
        exit 1
    }
    printf "ok: arena amortization factor %.2f (floor 5.0)\n", a
}'

echo "==> environment sampling bit-identity smoke (batched vs per-instant rows)"
# The harness compares every preset's batched rows with its per-instant
# rows, bit for bit, before writing the flag.
grep -q '"batched_matches_per_instant": true' target/BENCH_sim_quick.json || {
    echo "FAIL: batched environment samples diverged from per-instant samples"
    exit 1
}
echo "ok: batched environment samples bit-identical to per-instant samples"

echo "==> arena bit-identity smoke (every lane vs its independent run)"
# The harness asserts full SimResult equality for all 32 lanes against
# fresh run_simulation runs before writing the flag.
grep -q '"arena_lanes_match_independent_runs": true' target/BENCH_sim_quick.json || {
    echo "FAIL: arena lanes diverged from independent runs"
    exit 1
}
echo "ok: all arena lanes bit-identical to independent runs"

echo "==> boxed arena bit-identity smoke (System B lanes on one shared harvest vs independent runs)"
grep -q '"arena_boxed_lanes_match_independent_runs": true' target/BENCH_sim_quick.json || {
    echo "FAIL: boxed arena lanes diverged from independent runs"
    exit 1
}
echo "ok: all boxed arena lanes bit-identical to independent runs"

echo "==> lane bit-identity smoke (supercap lanes vs boxed PowerUnits of the same hardware)"
# The harness asserts summary equality on every physical quantity
# (modulo the kernel-cache counters the lanes synthesize) before
# writing the flag.
grep -q '"dense_supercap_matches_boxed": true' target/BENCH_sim_quick.json || {
    echo "FAIL: batched supercap lanes diverged from the boxed PowerUnit reference"
    exit 1
}
echo "ok: batched supercap lanes bit-identical to boxed PowerUnits modulo cache counters"

echo "==> lane bit-identity smoke (battery lanes vs boxed PowerUnits of the same hardware)"
grep -q '"dense_battery_matches_boxed": true' target/BENCH_sim_quick.json || {
    echo "FAIL: batched battery lanes diverged from the boxed PowerUnit reference"
    exit 1
}
echo "ok: batched battery lanes bit-identical to boxed PowerUnits modulo cache counters"

echo "==> fleet bit-identity smoke (one-node fleet vs run_simulation)"
# The harness asserts the equality before writing the flag, alongside
# the thread x shard invariance gate.
grep -q '"one_node_matches_single_run": true' target/BENCH_sim_quick.json || {
    echo "FAIL: one-node fleet diverged from the single-run kernel"
    exit 1
}
grep -q '"thread_shard_invariant": true' target/BENCH_sim_quick.json || {
    echo "FAIL: fleet summary not invariant across threads and shard sizes"
    exit 1
}
echo "ok: one-node fleet bit-identical to run_simulation; geometry invariant"

echo "==> kernel-cache bit-identity smoke (per-window System C and A nodes vs per-step runs over held windows)"
# The memos answer only held steps. The harness asserts that each node
# of a per-window fleet equals a single per-step run over a table that
# repeats each window's snapshot, that the fleet hit its memos and that
# the per-step run replayed nothing, before writing the flag; the grep
# makes the gate visible even when the JSON came from an older run.
grep -q '"held_matches_per_step": true' target/BENCH_sim_quick.json || {
    echo "FAIL: per-window fleet nodes diverged from per-step runs over held windows"
    exit 1
}
echo "ok: per-window System C and A nodes bit-identical to per-step runs over held windows"

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> cargo doc (rustdoc warnings are errors)"
# A doc link to a deleted or private item fails here instead of
# rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> all checks passed"
