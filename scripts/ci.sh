#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the tier-1 verify.
#
# Everything here runs without network access — the workspace has no
# external dependencies, so no registry resolution ever happens.
#
# Usage: scripts/ci.sh

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Layering gate: the recording container, the lifter and the analyzer sit
# below the recorder, the driver, the runtime and the replayer, so the
# in-TEE gate's build stays small (DESIGN.md §3). Neither grt-ir nor
# grt-lint may depend, even transitively, on a crate above them.
echo "==> dependency direction: grt-ir and grt-lint stay below grt-core"
for PKG in grt-ir grt-lint; do
    if cargo tree --offline -e normal -p "$PKG" --prefix none |
        grep -E '^grt-(core|replay|driver|runtime|net|tee|attest|serve) '; then
        echo "ci: $PKG depends on a crate above the lifter (listed above)" >&2
        exit 1
    fi
done

# The client TEE holds no GPU stack (§6): grt-replay may not reach, even
# transitively, the recorder, the driver, the runtime, the network model,
# the model zoo, the analyzer (it plugs in as a RecordingGate) or the
# serving tier.
echo "==> dependency direction: grt-replay holds no GPU stack"
if cargo tree --offline -e normal -p grt-replay --prefix none |
    grep -E '^grt-(core|driver|runtime|net|ml|lint|serve) '; then
    echo "ci: grt-replay depends on a crate outside the client TEE (listed above)" >&2
    exit 1
fi

# TCB gate: the production lines of grt-replay's cone may not grow past
# scripts/tcb_lines, per crate or in total.
echo "==> TCB report: grt-replay's cone against scripts/tcb_lines"
sh scripts/tcb_report.sh

echo "==> tier-1 verify: cargo build --release"
cargo build --release

echo "==> tier-1 verify: cargo test -q"
cargo test -q

# Every other crate's unit tests, integration tests (the delta codec's
# adversarial corpus, the lint gate) and doctests. Tier-1 above already
# ran the root package's.
echo "==> workspace tests: cargo test -q --workspace --exclude gpu-replay-tz"
cargo test -q --workspace --exclude gpu-replay-tz

# The two-clock benchmark is a package of its own (empty [workspace]), so
# neither tier-1 nor --workspace reaches its unit tests.
echo "==> benchmark package unit tests"
cargo test -q --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Production line count per crate, for reporting a change's net line
# delta. Informational only: it gates nothing.
echo "==> production Rust lines per crate (informational)"
sh scripts/prod_loc.sh

echo "==> doc build: RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Recording lint gate: record the six zoo networks' golden recordings and
# run the grt-lint analyzer over them. Any Error-severity finding on a
# known-good recording is a false positive and fails CI.
echo "==> recording lint gate: record + lint the golden corpus"
GOLDEN_DIR="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_DIR"' EXIT
cargo run --release -q -p grt-bench --bin recording-lint -- --record-golden "$GOLDEN_DIR"

# Wire-format gate: the golden corpus must be byte-identical to the
# checked-in digests, so a codec or recorder rewrite that claims "same
# bytes on the wire" is checked. A change that alters the recorded bytes
# regenerates the file in the same change and says so:
#   (cd "$GOLDEN_DIR" && sha256sum *.grt) > scripts/golden_recordings.sha256
echo "==> golden corpus bytes: sha256sum -c scripts/golden_recordings.sha256"
GOLDEN_SUMS="$(pwd)/scripts/golden_recordings.sha256"
(cd "$GOLDEN_DIR" && sha256sum -c --quiet "$GOLDEN_SUMS") || {
    echo "ci: golden recordings differ from scripts/golden_recordings.sha256" >&2
    exit 1
}
cargo run --release -q -p grt-bench --bin recording-lint -- "$GOLDEN_DIR"/*.grt \
    > "$GOLDEN_DIR/lint_a.json"

# Lint verdicts are audit evidence (DESIGN.md §6): a second run over the
# same corpus must emit byte-identical JSON reports.
echo "==> lint report determinism: two identical lint runs"
cargo run --release -q -p grt-bench --bin recording-lint -- "$GOLDEN_DIR"/*.grt \
    > "$GOLDEN_DIR/lint_b.json"
cmp "$GOLDEN_DIR/lint_a.json" "$GOLDEN_DIR/lint_b.json" || {
    echo "ci: recording-lint output is nondeterministic" >&2
    exit 1
}

# Semantics-IR gate (DESIGN.md §12): the lift is deterministic, so the
# textual IR of the golden corpus must be byte-identical across runs.
echo "==> ir-dump determinism: two identical IR emissions"
cargo run --release -q -p grt-bench --bin ir-dump -- "$GOLDEN_DIR"/*.grt \
    > "$GOLDEN_DIR/ir_a.txt"
cargo run --release -q -p grt-bench --bin ir-dump -- "$GOLDEN_DIR"/*.grt \
    > "$GOLDEN_DIR/ir_b.txt"
cmp "$GOLDEN_DIR/ir_a.txt" "$GOLDEN_DIR/ir_b.txt" || {
    echo "ci: ir-dump output is nondeterministic" >&2
    exit 1
}

# Chaos gate, part 1: the 200-pinned-seed fault-plan soak (release, so
# the explicit gate stays cheap; the same tests also run in debug above).
echo "==> chaos soak: 200 pinned fault-plan seeds"
cargo test -q --release --test fault_injection chaos_soak

# Chaos gate, part 2: two back-to-back faulted serving benchmarks must
# emit byte-identical JSON — any nondeterminism in the fault schedule,
# retry ladder, checkpoint resume, or failover ordering fails CI here.
echo "==> fault-plan determinism: two identical faulted serve_bench runs"
cargo run --release -q -p grt-bench --bin serve_bench -- 120 42 --fault-plan 7 \
    > "$GOLDEN_DIR/faulted_a.json"
cargo run --release -q -p grt-bench --bin serve_bench -- 120 42 --fault-plan 7 \
    > "$GOLDEN_DIR/faulted_b.json"
cmp "$GOLDEN_DIR/faulted_a.json" "$GOLDEN_DIR/faulted_b.json" || {
    echo "ci: faulted serve_bench output is nondeterministic" >&2
    exit 1
}

# Fleet-scale gate: a thousand profiled devices serve a million Zipf
# requests through the event-indexed scheduler and sharded registry.
# The run must (a) hold a wall-clock throughput floor — the event-indexed
# scheduler plus streaming-sketch metrics is what makes this feasible at
# all; a regression to per-tick sweeps or per-request buffers blows the
# budget — and (b) emit byte-identical JSON across two back-to-back runs.
echo "==> fleet-scale gate: 1000 devices / 10^6 requests, determinism + throughput floor"
FLEET_START="$(date +%s)"
cargo run --release -q -p grt-bench --bin serve_bench -- --fleet 1000 --requests 1000000 \
    > "$GOLDEN_DIR/fleet_a.json"
FLEET_ELAPSED="$(($(date +%s) - FLEET_START))"
# Measured ~23s on the reference machine; 150s leaves slack for slow CI
# hosts while still catching an order-of-magnitude regression such as a
# return to O(devices)-per-event scanning or per-request sample buffers.
if [ "$FLEET_ELAPSED" -gt 150 ]; then
    echo "ci: fleet-scale bench too slow: ${FLEET_ELAPSED}s for 10^6 requests (floor 150s)" >&2
    exit 1
fi
echo "    fleet-scale pass: ${FLEET_ELAPSED}s for 10^6 requests over 1000 devices"
cargo run --release -q -p grt-bench --bin serve_bench -- --fleet 1000 --requests 1000000 \
    > "$GOLDEN_DIR/fleet_b.json"
cmp "$GOLDEN_DIR/fleet_a.json" "$GOLDEN_DIR/fleet_b.json" || {
    echo "ci: fleet-scale serve_bench output is nondeterministic" >&2
    exit 1
}

# Replay perf gate: two back-to-back replay benchmark runs (batched
# replay included, --batch 8) must emit byte-identical JSON (all numbers
# derive from the virtual clock), the output must equal the checked-in
# BENCH_replay.json byte for byte (a cost-model change regenerates the
# file in the same change and says so), and the compiled path's
# aggregate events/s must not regress more than 10% below it.
echo "==> replay perf gate: determinism, exact baseline, events/s regression check"
cargo run --release -q -p grt-bench --bin replay_bench -- --batch 8 > "$GOLDEN_DIR/replay_a.json"
cargo run --release -q -p grt-bench --bin replay_bench -- --batch 8 > "$GOLDEN_DIR/replay_b.json"
cmp "$GOLDEN_DIR/replay_a.json" "$GOLDEN_DIR/replay_b.json" || {
    echo "ci: replay_bench output is nondeterministic" >&2
    exit 1
}
cmp BENCH_replay.json "$GOLDEN_DIR/replay_a.json" || {
    echo "ci: replay_bench output differs from the checked-in BENCH_replay.json" >&2
    exit 1
}
extract_eps() {
    sed -n 's/.*"compiled_events_per_sec": \([0-9][0-9]*\).*/\1/p' "$1"
}
BASE_EPS="$(extract_eps BENCH_replay.json)"
NEW_EPS="$(extract_eps "$GOLDEN_DIR/replay_a.json")"
if [ -z "$BASE_EPS" ] || [ -z "$NEW_EPS" ]; then
    echo "ci: could not extract compiled_events_per_sec" >&2
    exit 1
fi
# Fail if NEW < 90% of BASE (integer math: 10*NEW < 9*BASE).
if [ "$((10 * NEW_EPS))" -lt "$((9 * BASE_EPS))" ]; then
    echo "ci: compiled replay events/s regressed >10%: $NEW_EPS vs baseline $BASE_EPS" >&2
    exit 1
fi
echo "    compiled events/s: $NEW_EPS (baseline $BASE_EPS)"

# Warm-replay throughput gate: the execution fast path (software TLB +
# page-run bulk access + blocked kernels) is what makes fleet serving
# viable, so each workload's end-to-end warm_replays_per_sec must not
# drop more than 10% below the checked-in baseline either.
echo "==> warm replay throughput gate (per workload)"
extract_wrps() {
    sed -n "s/.*\"workload\": \"$2\".*\"warm_replays_per_sec\": \([0-9.][0-9.]*\).*/\1/p" "$1"
}
for W in MNIST AlexNet MobileNet SqueezeNet ResNet12 VGG16; do
    BASE_W="$(extract_wrps BENCH_replay.json "$W")"
    NEW_W="$(extract_wrps "$GOLDEN_DIR/replay_a.json" "$W")"
    if [ -z "$BASE_W" ] || [ -z "$NEW_W" ]; then
        echo "ci: could not extract warm_replays_per_sec for $W" >&2
        exit 1
    fi
    # Fail if NEW < 90% of BASE (floats, so compare in awk).
    if awk -v n="$NEW_W" -v b="$BASE_W" 'BEGIN { exit !(10 * n < 9 * b) }'; then
        echo "ci: $W warm replays/s regressed >10%: $NEW_W vs baseline $BASE_W" >&2
        exit 1
    fi
    echo "    $W warm replays/s: $NEW_W (baseline $BASE_W)"
done

# Superinstruction-fusion gate (DESIGN.md §15): IR-driven fusion must
# hold >= 1.15x warm replays/s over the frozen pre-fusion (PR 9)
# baselines on the two largest conv nets. The baselines are literals —
# BENCH_replay.json is regenerated each PR, so it can't serve as the
# pre-fusion reference — and fused-vs-unfused bitwise identity is
# asserted inside replay_bench itself (the interpreted path never fuses)
# plus the double-run byte-identity cmp above.
echo "==> fusion speedup gate: >= 1.15x warm replays/s vs pre-fusion baseline"
check_fusion_floor() {
    W="$1"
    PRE="$2" # pre-fusion warm_replays_per_sec, frozen at PR 9
    NEW_W="$(extract_wrps "$GOLDEN_DIR/replay_a.json" "$W")"
    if [ -z "$NEW_W" ]; then
        echo "ci: could not extract warm_replays_per_sec for $W" >&2
        exit 1
    fi
    if awk -v n="$NEW_W" -v p="$PRE" 'BEGIN { exit !(n < 1.15 * p) }'; then
        echo "ci: $W fused warm replay below 1.15x floor: $NEW_W vs pre-fusion $PRE" >&2
        exit 1
    fi
    echo "    $W fused: $NEW_W warm replays/s (pre-fusion $PRE, floor 1.15x)"
}
check_fusion_floor ResNet12 26.733
check_fusion_floor VGG16 25.390

# Batched-replay gate (DESIGN.md §14): one compiled-arena pass over an
# 8-way batch must amortize the control dialog and batch-resident operand
# traffic over scalar warm replays/s on the two largest networks. Fusion
# raised the scalar baseline (the elided dialog was exactly the part
# batching amortizes best), so the ratio floor is 2x post-fusion; in
# absolute B=8 inferences/s the batched path still beats its PR 9
# numbers. The double-run byte-identity of the --batch 8 output is
# already enforced by the cmp above; lane-0 bitwise equality with the
# scalar replay is asserted inside replay_bench itself.
echo "==> batched replay gate: >= 2x warm inferences/s at B=8"
extract_wips() {
    sed -n "s/.*\"workload\": \"$2\".*\"warm_inferences_per_sec\": \([0-9.][0-9.]*\).*/\1/p" "$1"
}
for W in ResNet12 VGG16; do
    WRPS="$(extract_wrps "$GOLDEN_DIR/replay_a.json" "$W")"
    WIPS="$(extract_wips "$GOLDEN_DIR/replay_a.json" "$W")"
    if [ -z "$WRPS" ] || [ -z "$WIPS" ]; then
        echo "ci: could not extract batched throughput for $W" >&2
        exit 1
    fi
    if awk -v i="$WIPS" -v r="$WRPS" 'BEGIN { exit !(i < 2 * r) }'; then
        echo "ci: $W batched replay below 2x floor: $WIPS inferences/s vs $WRPS replays/s" >&2
        exit 1
    fi
    echo "    $W B=8: $WIPS inferences/s vs $WRPS replays/s scalar"
done

# Attestation gate: replay receipts are deterministic audit evidence.
# Emit the six-network receipt corpus twice (must be byte-identical),
# verify the first corpus offline against the registry's attestation
# export, and confirm that a tampered receipt is rejected.
echo "==> attestation gate: receipt round-trip + tamper rejection"
cargo run --release -q -p grt-bench --bin receipt-verify -- --emit "$GOLDEN_DIR/rcpt_a"
cargo run --release -q -p grt-bench --bin receipt-verify -- --emit "$GOLDEN_DIR/rcpt_b"
diff -r "$GOLDEN_DIR/rcpt_a" "$GOLDEN_DIR/rcpt_b" || {
    echo "ci: receipt emission is nondeterministic" >&2
    exit 1
}
cargo run --release -q -p grt-bench --bin receipt-verify -- \
    --export "$GOLDEN_DIR/rcpt_a/export.bin" "$GOLDEN_DIR/rcpt_a"/*.receipt
# Corrupt one signature byte: offline verification must reject it.
cp "$GOLDEN_DIR/rcpt_a/mnist.receipt" "$GOLDEN_DIR/tampered.receipt"
printf '\377' | dd of="$GOLDEN_DIR/tampered.receipt" bs=1 \
    seek="$(($(wc -c < "$GOLDEN_DIR/tampered.receipt") - 1))" \
    count=1 conv=notrunc 2>/dev/null
if cargo run --release -q -p grt-bench --bin receipt-verify -- \
    --export "$GOLDEN_DIR/rcpt_a/export.bin" "$GOLDEN_DIR/tampered.receipt" \
    >/dev/null 2>&1; then
    echo "ci: tampered receipt passed offline verification" >&2
    exit 1
fi
# Truncated receipts must also fail, with a typed error rather than a panic.
head -c 40 "$GOLDEN_DIR/rcpt_a/mnist.receipt" > "$GOLDEN_DIR/truncated.receipt"
if cargo run --release -q -p grt-bench --bin receipt-verify -- \
    --export "$GOLDEN_DIR/rcpt_a/export.bin" "$GOLDEN_DIR/truncated.receipt" \
    >/dev/null 2>&1; then
    echo "ci: truncated receipt passed offline verification" >&2
    exit 1
fi

echo "CI gate passed."
