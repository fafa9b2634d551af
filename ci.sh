#!/usr/bin/env sh
# Full local CI for the S-SLIC workspace: build, test, then static
# analysis. Fails on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> deprecation gate (the workspace carries zero deprecated items)"
# The legacy segment_* wrappers are gone — Segmenter::run and
# SegmenterSession are the only entry points — so a -D deprecated build of
# every target must pass with no #[allow(deprecated)] escape hatches left.
RUSTFLAGS="${RUSTFLAGS:-} -D deprecated" cargo build --workspace --all-targets --release

echo "==> cargo test (workspace, overflow-checks on)"
cargo test --workspace -q

echo "==> color table exactness (the RGB->Lab8 tables must equal the f64 reference on all 2^24 inputs)"
# Four precisions: the paper's 12-bit unit, 7/9/3/6, the 8-bit ablation
# and 16/16/16/16. Too slow for a debug build, so it is an ignored test
# run here in release.
cargo test --release -p sslic-color -- --ignored

echo "==> zero-allocation gate (steady-state and cold session frames must not touch the heap)"
# Runs under a counting global allocator; kept as a named gate so an
# allocation regression fails CI with this banner even if someone trims
# the workspace test sweep above.
cargo test -q --test zero_alloc

echo "==> sslic-analyze (token rules + overflow/alloc/determinism passes)"
mkdir -p results
# Run twice and byte-diff: the analyzer's own output is part of the
# workspace determinism contract. The SARIF log is archived for CI upload.
cargo run -q -p sslic-analyze -- \
    --json results/analyze-report-a.json \
    --format sarif --out results/analyze-a.sarif
cargo run -q -p sslic-analyze -- \
    --json results/analyze-report-b.json \
    --format sarif --out results/analyze-b.sarif >/dev/null
cmp results/analyze-report-a.json results/analyze-report-b.json
cmp results/analyze-a.sarif results/analyze-b.sarif
mv results/analyze-report-a.json results/analyze-report.json
mv results/analyze-a.sarif results/analyze.sarif
rm -f results/analyze-report-b.json results/analyze-b.sarif

echo "==> fault-injection smoke (determinism: two sweeps must match byte for byte)"
mkdir -p results
./target/release/fault_sweep --seed 7 --small \
    --json results/fault-sweep-a.json --md results/fault-sweep-a.md \
    --report results/fault-report-a.json >/dev/null
./target/release/fault_sweep --seed 7 --small \
    --json results/fault-sweep-b.json --md results/fault-sweep-b.md \
    --report results/fault-report-b.json >/dev/null
cmp results/fault-sweep-a.json results/fault-sweep-b.json
cmp results/fault-sweep-a.md results/fault-sweep-b.md
cmp results/fault-report-a.json results/fault-report-b.json
mv results/fault-sweep-a.json results/fault-sweep.json
mv results/fault-sweep-a.md results/fault-sweep.md
mv results/fault-report-a.json results/fault-report.json
rm -f results/fault-sweep-b.json results/fault-sweep-b.md results/fault-report-b.json

echo "==> recovery determinism (self-healing sweeps at 1 vs 4 threads must match modulo the threads field)"
# With a retry budget armed, the guard/rollback/escalation ladder must
# reproduce bit-for-bit across thread counts. The RunReport legitimately
# records its thread count, so that one field is normalised before the diff.
./target/release/fault_sweep --seed 7 --small --threads 1 --recovery 2 \
    --json results/recovery-sweep-1t.json \
    --report results/recovery-report-1t.json >/dev/null
./target/release/fault_sweep --seed 7 --small --threads 4 --recovery 2 \
    --json results/recovery-sweep-4t.json \
    --report results/recovery-report-4t.json >/dev/null
cmp results/recovery-sweep-1t.json results/recovery-sweep-4t.json
sed 's/"threads":[0-9]*/"threads":X/' results/recovery-report-1t.json \
    > results/recovery-report-1t.norm.json
sed 's/"threads":[0-9]*/"threads":X/' results/recovery-report-4t.json \
    > results/recovery-report-4t.norm.json
cmp results/recovery-report-1t.norm.json results/recovery-report-4t.norm.json
mv results/recovery-sweep-1t.json results/recovery-sweep.json
mv results/recovery-report-1t.json results/recovery-report.json
rm -f results/recovery-sweep-4t.json results/recovery-report-4t.json \
    results/recovery-report-1t.norm.json results/recovery-report-4t.norm.json

echo "==> trace determinism (JSONL + Chrome traces must be byte-identical across repeats and 1 vs 4 threads)"
# The RunReport legitimately records its thread count, so that one field
# is normalised before the 1 vs 4 thread report diff.
./target/release/sslic dataset results/trace-ds --count 1 --width 160 --height 120 >/dev/null
trace_seg() {
    ./target/release/sslic segment results/trace-ds/000.ppm \
        --superpixels 150 --iterations 3 --algo hw8 --threads "$1" \
        --out "results/trace-ds/seg-$2" \
        --trace "results/trace-$2.jsonl" \
        --chrome-trace "results/trace-$2.chrome.json" \
        --report "results/trace-report-$2.json" >/dev/null
}
trace_seg 1 1a
trace_seg 1 1b
trace_seg 4 4t
cmp results/trace-1a.jsonl results/trace-1b.jsonl
cmp results/trace-1a.jsonl results/trace-4t.jsonl
cmp results/trace-1a.chrome.json results/trace-4t.chrome.json
sed 's/"threads":[0-9]*/"threads":X/' results/trace-report-1a.json \
    > results/trace-report-1a.norm.json
sed 's/"threads":[0-9]*/"threads":X/' results/trace-report-4t.json \
    > results/trace-report-4t.norm.json
cmp results/trace-report-1a.norm.json results/trace-report-4t.norm.json

echo "==> insight determinism (trace analysis at 1 vs 4 threads must match byte for byte)"
# The analyzer reads only logical clocks and counters, so its attribution
# tables and collapsed stacks carry no thread-dependent byte at all — no
# normalisation, plain cmp.
./target/release/sslic insight results/trace-1a.jsonl \
    --out results/insight-1t.txt --collapsed results/insight-1t.collapsed 2>/dev/null
./target/release/sslic insight results/trace-4t.jsonl \
    --out results/insight-4t.txt --collapsed results/insight-4t.collapsed 2>/dev/null
cmp results/insight-1t.txt results/insight-4t.txt
cmp results/insight-1t.collapsed results/insight-4t.collapsed
mv results/insight-1t.txt results/insight.txt
mv results/insight-1t.collapsed results/insight.collapsed
rm -f results/insight-4t.txt results/insight-4t.collapsed

mv results/trace-1a.jsonl results/trace.jsonl
mv results/trace-1a.chrome.json results/trace.chrome.json
rm -rf results/trace-ds results/trace-1b.jsonl results/trace-1b.chrome.json \
    results/trace-4t.jsonl results/trace-4t.chrome.json results/trace-report-*.json

echo "==> fleet determinism (serve RunReport stream at 1 vs 4 threads must match modulo the threads field)"
# A multi-stream wire session — two interleaved streams, a close, and a
# rebind — pumped through `sslic serve` at two engine thread counts. The
# emitted report lines legitimately record the thread count; that one
# field is normalised before the diff, everything else (per-stream label
# checksums, counters, admission tallies, queue events) must be
# byte-identical.
./target/release/sslic dataset results/fleet-ds --count 3 --width 160 --height 120 >/dev/null
./target/release/sslic framepack --out results/fleet-stream.bin \
    0:results/fleet-ds/000.ppm 1:results/fleet-ds/001.ppm \
    0:results/fleet-ds/002.ppm close:0 0:results/fleet-ds/000.ppm stats
fleet_serve() {
    ./target/release/sslic serve --superpixels 150 --iterations 3 --algo hw8 \
        --threads "$1" --slots 2 --heartbeat 2 \
        --metrics-file "results/fleet-metrics-$1t.prom" \
        < results/fleet-stream.bin \
        2>/dev/null > "results/fleet-serve-$1t.jsonl"
}
fleet_serve 1
fleet_serve 4
sed 's/"threads":[0-9]*/"threads":X/' results/fleet-serve-1t.jsonl \
    > results/fleet-serve-1t.norm.jsonl
sed 's/"threads":[0-9]*/"threads":X/' results/fleet-serve-4t.jsonl \
    > results/fleet-serve-4t.norm.jsonl
cmp results/fleet-serve-1t.norm.jsonl results/fleet-serve-4t.norm.jsonl

echo "==> telemetry determinism (Prometheus exposition and serve analysis must match byte for byte, no normalisation)"
# Stats replies, heartbeats, the summary, and the metrics file carry no
# thread-dependent field; neither does the insight analysis of the serve
# stream (it never reads the threads field) — so all of these are plain
# cmp, a stronger pin than the sed-normalised report diff above.
cmp results/fleet-metrics-1t.prom results/fleet-metrics-4t.prom
grep sslic_fleet_frame_latency_bucket results/fleet-metrics-1t.prom >/dev/null
./target/release/sslic insight results/fleet-serve-1t.jsonl \
    --out results/fleet-insight-1t.txt 2>/dev/null
./target/release/sslic insight results/fleet-serve-4t.jsonl \
    --out results/fleet-insight-4t.txt 2>/dev/null
cmp results/fleet-insight-1t.txt results/fleet-insight-4t.txt
mv results/fleet-metrics-1t.prom results/fleet-metrics.prom
mv results/fleet-insight-1t.txt results/fleet-insight.txt
mv results/fleet-serve-1t.jsonl results/fleet-serve.jsonl
rm -rf results/fleet-ds results/fleet-stream.bin results/fleet-serve-4t.jsonl \
    results/fleet-serve-1t.norm.jsonl results/fleet-serve-4t.norm.jsonl \
    results/fleet-metrics-4t.prom results/fleet-insight-4t.txt

echo "==> kernel identity (scalar and SWAR assign kernels must emit byte-identical labels)"
# The packed fixed-point assign kernel is bit-identical to the scalar
# reference loop by contract. Segment one frame with each kernel forced
# and byte-diff the 16-bit label maps — any divergence fails CI here
# before the pinned-checksum suites even run.
./target/release/sslic dataset results/kernel-ds --count 1 --width 160 --height 120 >/dev/null
kernel_seg() {
    ./target/release/sslic segment results/kernel-ds/000.ppm \
        --superpixels 150 --iterations 3 --algo hw8 --kernel "$1" \
        --out "results/kernel-ds/seg-$1" >/dev/null
}
kernel_seg scalar
kernel_seg swar
cmp results/kernel-ds/seg-scalar.labels.pgm results/kernel-ds/seg-swar.labels.pgm
rm -rf results/kernel-ds

echo "==> benchmark build (the wall-clock benchmark must compile against the current API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
