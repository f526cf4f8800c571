#!/bin/sh
# Offline CI: release build, full test suite, and lint gate.
#
# The workspace has no network dependencies — rand/proptest/criterion
# are vendored as in-tree path crates under vendor/ — so everything
# runs with --offline and the committed Cargo.lock.
set -eu
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline --locked --workspace

echo "==> cargo test"
cargo test -q --offline --locked --workspace

echo "==> cargo test --release: codec and container kernels"
# The CRC-32 folding path is unsafe SIMD chosen at run time, and the
# stream codec runs wrapping arithmetic; the debug-profile run above
# does not build either the way the release binaries do.
cargo test --release -q --offline --locked -p wet-core -p wet-stream

echo "==> perfbench: build and unit tests"
# perfbench is its own workspace, so the workspace build above never
# compiles it; it calls the query and store API directly. .bench_build/
# is gitignored.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> wet-cli --profile=json emits valid JSON"
# Two separate commands (not a pipeline): under `set -eu` a pipeline
# only propagates the last command's status, which would mask a CLI
# failure. The JSON doc goes to stdout; the human report to stderr.
profile_json=$(mktemp)
fsck_dir=$(mktemp -d)
trap 'rm -f "$profile_json"; rm -rf "$fsck_dir"' EXIT
cargo run -q --release --offline --locked -p wet-cli -- \
    compress examples/data/collatz.wet --inputs 27 --profile=json > "$profile_json"
cargo run -q --release --offline --locked -p wet-obs --bin jsonv < "$profile_json"

echo "==> fsck gate: integrity verdicts and exit codes"
cargo run -q --release --offline --locked -p wet-cli -- \
    trace examples/data/collatz.wet --inputs 27 --save "$fsck_dir/fresh.wetz" > /dev/null
# A fresh trace is clean (exit 0); its metrics JSON must validate and
# carry the fsck/salvage counters.
cargo run -q --release --offline --locked -p wet-cli -- \
    fsck "$fsck_dir/fresh.wetz" --profile=json > "$fsck_dir/fsck.json"
cargo run -q --release --offline --locked -p wet-obs --bin jsonv < "$fsck_dir/fsck.json"
grep -q 'fsck.sections_checked' "$fsck_dir/fsck.json"
grep -q 'salvage.seqs_recovered' "$fsck_dir/fsck.json"
# A truncated trace must be rejected with the documented exit code 3.
head -c 512 "$fsck_dir/fresh.wetz" > "$fsck_dir/truncated.wetz"
fsck_status=0
cargo run -q --release --offline --locked -p wet-cli -- \
    fsck "$fsck_dir/truncated.wetz" > /dev/null 2>&1 || fsck_status=$?
if [ "$fsck_status" -ne 3 ]; then
    echo "fsck on a truncated trace: expected exit 3, got $fsck_status" >&2
    exit 1
fi

echo "==> crash-recovery gate: capture under a simulated crash, resume, seal, fsck"
cap_dir="$fsck_dir/cap.wetz.seg"
# Uninterrupted capture -> seal: the reference bytes.
cargo run -q --release --offline --locked -p wet-cli -- \
    capture examples/data/collatz.wet --inputs 27 --dir "$fsck_dir/ref.wetz.seg" --interval 16 > /dev/null
cargo run -q --release --offline --locked -p wet-cli -- \
    seal "$fsck_dir/ref.wetz.seg" -o "$fsck_dir/ref-sealed.wetz" > /dev/null
# The sealed capture must be byte-identical to the plain trace.
cmp "$fsck_dir/fresh.wetz" "$fsck_dir/ref-sealed.wetz"
# Crash at the third durable write (torn tail): exit 4, then resume,
# seal, and verify the log and the merged container.
crash_status=0
WET_CRASH_AT=3 WET_CRASH_MODE=torn:7 \
    cargo run -q --release --offline --locked -p wet-cli -- \
    capture examples/data/collatz.wet --inputs 27 --dir "$cap_dir" --interval 16 > /dev/null 2>&1 \
    || crash_status=$?
if [ "$crash_status" -ne 4 ]; then
    echo "capture under simulated crash: expected exit 4, got $crash_status" >&2
    exit 1
fi
cargo run -q --release --offline --locked -p wet-cli -- \
    capture examples/data/collatz.wet --dir "$cap_dir" > /dev/null
cargo run -q --release --offline --locked -p wet-cli -- fsck "$cap_dir" > /dev/null
cargo run -q --release --offline --locked -p wet-cli -- \
    seal "$cap_dir" -o "$fsck_dir/resumed.wetz" > /dev/null
cmp "$fsck_dir/fresh.wetz" "$fsck_dir/resumed.wetz"
cargo run -q --release --offline --locked -p wet-cli -- fsck "$fsck_dir/resumed.wetz" > /dev/null
# Budget shedding keeps the capture usable end-to-end: the sealed
# container still passes fsck (shed streams are explicit, not damage).
cargo run -q --release --offline --locked -p wet-cli -- \
    capture examples/data/collatz.wet --inputs 27 --dir "$fsck_dir/shed.wetz.seg" --budget 2048 > /dev/null
cargo run -q --release --offline --locked -p wet-cli -- \
    seal "$fsck_dir/shed.wetz.seg" -o "$fsck_dir/shed.wetz" > /dev/null
cargo run -q --release --offline --locked -p wet-cli -- fsck "$fsck_dir/shed.wetz" > /dev/null

echo "==> replay gate: golden corpus, NDET divergence, torn-record resume"
wet=./target/release/wet
# Every checked-in golden recording must replay byte-identically —
# sealed trace bytes and observable stdout — across engine thread
# counts 1/2/4/8.
"$wet" replay golden --check
# Flipping one recorded NDET value is a *divergence*: typed, reported
# with the first divergent timestamp, documented exit code 6 — never
# a panic.
flip_status=0
"$wet" replay golden/envgate --flip-ndet 0 > /dev/null 2>&1 || flip_status=$?
if [ "$flip_status" -ne 6 ]; then
    echo "replay with a flipped NDET value: expected exit 6, got $flip_status" >&2
    exit 1
fi
# Mutating the recording on disk is *corrupt* (exit 3): the strict
# container read rejects the damaged NDET stream before any diffing.
replay_dir="$fsck_dir/replay"
mkdir -p "$replay_dir"
cp -r golden/envgate "$replay_dir/mut"
sz=$(wc -c < "$replay_dir/mut/trace.wetz")
printf '\125' | dd of="$replay_dir/mut/trace.wetz" bs=1 seek=$((sz / 2)) conv=notrunc 2> /dev/null
mut_status=0
"$wet" replay "$replay_dir/mut" > /dev/null 2>&1 || mut_status=$?
if [ "$mut_status" -ne 3 ]; then
    echo "replay of a mutated recording: expected exit 3, got $mut_status" >&2
    exit 1
fi
# Torn capture mid-record (exit 4), resume by rerunning the same
# command, then replay: the re-recorded trace and stdout must be
# byte-identical to the checked-in fixture.
torn_status=0
WET_CRASH_AT=2 WET_CRASH_MODE=torn:41 \
    "$wet" record envgate --dir "$replay_dir/torn" --seed 1229 --interval 16 \
    > /dev/null 2>&1 || torn_status=$?
if [ "$torn_status" -ne 4 ]; then
    echo "record under simulated crash: expected exit 4, got $torn_status" >&2
    exit 1
fi
"$wet" record envgate --dir "$replay_dir/torn" --seed 1229 --interval 16 > /dev/null
"$wet" replay "$replay_dir/torn" > /dev/null
cmp golden/envgate/trace.wetz "$replay_dir/torn/trace.wetz"
cmp golden/envgate/stdout "$replay_dir/torn/stdout"

echo "==> serve gate: daemon lifecycle, typed errors, fault drill, SIGTERM drain"
wet=./target/release/wet
serve_dir="$fsck_dir/serve"
mkdir -p "$serve_dir"
sock="$serve_dir/wet.sock"
# Serve the collatz trace with its program so the full op surface
# (value/address traces, slices) is reachable; a deliberately tiny
# cache budget forces the engine LRU to evict under the query load.
rm -f "$sock"
"$wet" serve "$fsck_dir/fresh.wetz" --program examples/data/collatz.wet \
    --listen "$sock" --cache-budget 2048 --profile=json \
    > "$serve_dir/metrics.json" 2> /dev/null &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "server never bound $sock" >&2; exit 1; fi
    sleep 0.1
done
"$wet" query ping --remote "$sock" > /dev/null
for s in 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do
    "$wet" query address_trace --stmt "$s" --remote "$sock" > /dev/null 2>&1 || true
done
# Strict cf_trace (both directions) and slices run under the trace's
# shared read lock: run at once, each answers byte for byte what it
# answers alone.
"$wet" query cf_trace --remote "$sock" > "$serve_dir/fwd.serial"
"$wet" query cf_trace --backward --remote "$sock" > "$serve_dir/bwd.serial"
"$wet" query slice --node 1 --stmt 17 --k 60 --remote "$sock" > "$serve_dir/slice.serial"
"$wet" query cf_trace --remote "$sock" > "$serve_dir/fwd.concurrent" &
fwd_pid=$!
"$wet" query cf_trace --backward --remote "$sock" > "$serve_dir/bwd.concurrent" &
bwd_pid=$!
"$wet" query slice --node 1 --stmt 17 --k 60 --remote "$sock" > "$serve_dir/slice.concurrent" &
slice_pid=$!
wait "$fwd_pid"
wait "$bwd_pid"
wait "$slice_pid"
for q in fwd bwd slice; do
    cmp "$serve_dir/$q.serial" "$serve_dir/$q.concurrent"
done
# An impossible deadline must come back as a typed retriable error
# with the documented exit code 5 — never a hang or a dropped socket.
deadline_status=0
"$wet" query cf_trace --deadline-ms 0 --remote "$sock" > /dev/null 2>&1 || deadline_status=$?
if [ "$deadline_status" -ne 5 ]; then
    echo "deadline-0 query: expected exit 5, got $deadline_status" >&2
    exit 1
fi
# The seeded misbehaving-client drill (slow-loris, mid-frame cuts,
# garbage frames, hostile lengths, deadline storms, cancel races):
# exit 0 means the server answered a health probe afterwards.
"$wet" drill --remote "$sock" --seed 1229 --count 24 --idle 150 > /dev/null
"$wet" query ping --remote "$sock" > /dev/null
# Graceful drain: SIGTERM finishes in-flight work and exits 0.
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "SIGTERM drain: expected exit 0, got $drain_status" >&2
    exit 1
fi
# The profile document is a valid wet-obs/1 report carrying the serve
# counters, the admission-queue gauge, and the cache eviction counter.
cargo run -q --release --offline --locked -p wet-obs --bin jsonv < "$serve_dir/metrics.json"
grep -q 'serve.requests_ok' "$serve_dir/metrics.json"
grep -q 'serve.requests_deadline' "$serve_dir/metrics.json"
grep -q 'serve.queue_depth' "$serve_dir/metrics.json"
grep -q 'query.cache.evictions' "$serve_dir/metrics.json"

echo "==> serve gate: corrupt trace -> typed Corrupt, degraded fallback, repair, re-serve"
# A larger workload trace; a mid-file bit flip lands in a value
# section, so control flow salvages while value queries degrade.
"$wet" workload gzip-like --target 60000 --save "$serve_dir/t.wetz" > /dev/null
cp "$serve_dir/t.wetz" "$serve_dir/flip.wetz"
sz=$(wc -c < "$serve_dir/t.wetz")
printf '\125' | dd of="$serve_dir/flip.wetz" bs=1 seek=$((sz / 2)) conv=notrunc 2> /dev/null
# The damaged container is refused outright by the strict loader...
flip_status=0
"$wet" serve "$serve_dir/flip.wetz" --listen "$sock" > /dev/null 2>&1 || flip_status=$?
if [ "$flip_status" -ne 3 ]; then
    echo "serving a corrupt trace: expected exit 3, got $flip_status" >&2
    exit 1
fi
# ...and fsck --repair salvages every intact section (exit 3 records
# that the input was damaged; the salvaged copy is what gets served).
repair_status=0
"$wet" fsck "$serve_dir/flip.wetz" --repair "$serve_dir/salvaged.wetz" > /dev/null 2>&1 \
    || repair_status=$?
if [ "$repair_status" -ne 3 ]; then
    echo "fsck --repair on a corrupt trace: expected exit 3, got $repair_status" >&2
    exit 1
fi
rm -f "$sock"
"$wet" serve "$serve_dir/salvaged.wetz" --listen "$sock" > /dev/null 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "salvaged server never bound $sock" >&2; exit 1; fi
    sleep 0.1
done
# Strict queries over the salvaged trace answer normally or with the
# typed Corrupt error (exit 3) — never a panic, never exit 1 — and at
# least one query must actually hit the damage.
corrupt_seen=0
for s in 1 2 3 5 8; do
    q_status=0
    "$wet" query value_trace --stmt "$s" --remote "$sock" > /dev/null 2>&1 || q_status=$?
    case "$q_status" in
        0) ;;
        3) corrupt_seen=1 ;;
        *) echo "strict value_trace --stmt $s on salvaged trace: exit $q_status" >&2; exit 1 ;;
    esac
done
if [ "$corrupt_seen" -ne 1 ]; then
    echo "no strict query surfaced the damage as Corrupt" >&2
    exit 1
fi
# Control flow never touched the damaged section: strict CF works,
# and the degraded value trace stays total on the same server.
"$wet" query cf_trace --remote "$sock" > /dev/null
"$wet" query value_trace --stmt 8 --degraded --remote "$sock" > /dev/null
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "salvaged-server drain: expected exit 0, got $drain_status" >&2
    exit 1
fi

echo "==> store gate: multi-tenant lazy serving under a byte budget"
store_dir="$fsck_dir/store"
mkdir -p "$store_dir"
store_sock="$store_dir/wet.sock"
# Four distinct workload traces in the store root; the budget is sized
# from the largest container so one trace always fits (the store only
# overshoots when everything is pinned) but all four cannot.
largest=0
for w in gzip-like mcf-like go-like twolf-like; do
    "$wet" workload "$w" --target 60000 --save "$store_dir/$w.wetz" > /dev/null
    sz=$(wc -c < "$store_dir/$w.wetz")
    if [ "$sz" -gt "$largest" ]; then largest=$sz; fi
done
store_budget=$((largest * 2))
rm -f "$store_sock"
"$wet" serve --store-root "$store_dir" --store-budget "$store_budget" \
    --listen "$store_sock" --profile=json \
    > "$store_dir/metrics.json" 2> /dev/null &
serve_pid=$!
i=0
while [ ! -S "$store_sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "store server never bound $store_sock" >&2; exit 1; fi
    sleep 0.1
done
for w in gzip-like mcf-like go-like twolf-like; do
    "$wet" query open --path "$w.wetz" --trace "$w" --tenant ci --remote "$store_sock" > /dev/null
done
"$wet" query list --remote "$store_sock" > /dev/null
# A path escaping the store root is refused before admission with the
# typed forbidden error (exit 2).
esc_status=0
"$wet" query open --path ../escape.wetz --remote "$store_sock" > /dev/null 2>&1 || esc_status=$?
if [ "$esc_status" -ne 2 ]; then
    echo "open outside store root: expected exit 2, got $esc_status" >&2
    exit 1
fi
# Query every open trace twice so lazy per-stream decodes and LRU
# evictions churn while at least four traces stay open.
for round in 1 2; do
    for w in gzip-like mcf-like go-like twolf-like; do
        "$wet" query cf_trace --trace "$w" --remote "$store_sock" > /dev/null
        "$wet" query value_trace --stmt 3 --trace "$w" --remote "$store_sock" > /dev/null 2>&1 || true
    done
done
"$wet" query close --trace twolf-like --remote "$store_sock" > /dev/null
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "store-server drain: expected exit 0, got $drain_status" >&2
    exit 1
fi
cargo run -q --release --offline --locked -p wet-obs --bin jsonv < "$store_dir/metrics.json"
grep -q 'store.cold_opens' "$store_dir/metrics.json"
grep -q 'store.lazy_decodes' "$store_dir/metrics.json"
# The peak resident-bytes gauge must respect the budget: extract the
# "peak"-labelled gauge from the metrics document and compare.
peak=$(sed -n 's/.*"name": "store.resident_bytes", "label": "peak", "value": \([0-9][0-9]*\).*/\1/p' \
    "$store_dir/metrics.json" | head -n 1)
if [ -z "$peak" ]; then
    echo "store.resident_bytes peak gauge missing from metrics" >&2
    exit 1
fi
if [ "$peak" -gt "$store_budget" ]; then
    echo "store.resident_bytes peak $peak exceeds budget $store_budget" >&2
    exit 1
fi

echo "==> observability gate: scrape endpoint, request logs, flight recorder, ledger"
jsonv=./target/release/jsonv
obs_dir="$fsck_dir/obs"
mkdir -p "$obs_dir"
obs_sock="$obs_dir/wet.sock"
obs_http=127.0.0.1:19741
rm -f "$obs_sock"
"$wet" serve "$fsck_dir/fresh.wetz" --program examples/data/collatz.wet \
    --listen "$obs_sock" --metrics-listen "$obs_http" \
    --access-log "$obs_dir/access.log" \
    --slow-ms 0 --slow-log "$obs_dir/slow.log" \
    --flight-dump "$obs_dir/flight.json" --debug-ops \
    > /dev/null 2> /dev/null &
serve_pid=$!
i=0
while [ ! -S "$obs_sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "obs server never bound $obs_sock" >&2; exit 1; fi
    sleep 0.1
done
# Some traffic so every surface has data to show.
"$wet" query ping --remote "$obs_sock" > /dev/null
"$wet" query cf_trace --remote "$obs_sock" > /dev/null
"$wet" query value_trace --stmt 3 --remote "$obs_sock" > /dev/null
# The scrape endpoint: Prometheus text on /metrics, liveness on
# /healthz, 404 elsewhere (wet scrape exits 5 on any non-200).
"$wet" scrape "$obs_http" /metrics > "$obs_dir/metrics.prom"
grep -q '^# TYPE' "$obs_dir/metrics.prom"
grep -q 'serve_requests' "$obs_dir/metrics.prom"
grep -q 'serve_op_latency_us' "$obs_dir/metrics.prom"
"$wet" scrape "$obs_http" /healthz > /dev/null
nf_status=0
"$wet" scrape "$obs_http" /nope > /dev/null 2>&1 || nf_status=$?
if [ "$nf_status" -ne 5 ]; then
    echo "scrape of an unknown path: expected exit 5, got $nf_status" >&2
    exit 1
fi
# Fault injection: debug_panic answers a typed panic error (exit 5)
# and must leave the panicking request in the flight-recorder dump.
panic_status=0
"$wet" query debug_panic --remote "$obs_sock" > /dev/null 2>&1 || panic_status=$?
if [ "$panic_status" -ne 5 ]; then
    echo "debug_panic: expected exit 5, got $panic_status" >&2
    exit 1
fi
head -n 1 "$obs_dir/flight.json" | "$jsonv"
grep -q 'req_panic' "$obs_dir/flight.json"
# The dump-flight op returns the same document over the wire.
"$wet" query dump-flight --remote "$obs_sock" > "$obs_dir/dump.json"
"$jsonv" < "$obs_dir/dump.json"
grep -q 'wet-flight/1' "$obs_dir/dump.json"
# The drill, with the ledger audit: every completed request must
# appear in the access log exactly once.
"$wet" drill --remote "$obs_sock" --seed 1229 --count 24 \
    --access-log "$obs_dir/access.log" > /dev/null
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "obs-server drain: expected exit 0, got $drain_status" >&2
    exit 1
fi
# Every access-log and slow-log line is a single valid JSON document
# (jsonv validates exactly one document per invocation), and
# --slow-ms 0 must have produced slow-log lines with span events.
if [ ! -s "$obs_dir/slow.log" ]; then
    echo "slow log empty under --slow-ms 0" >&2
    exit 1
fi
grep -q 'wet-slow/1' "$obs_dir/slow.log"
# Slow-log events carry the engine phase names --profile prints.
grep -q '"name":"query.cf_trace_forward"' "$obs_dir/slow.log"
grep -q '"name":"query.value_trace"' "$obs_dir/slow.log"
grep -q 'wet-access/1' "$obs_dir/access.log"
while IFS= read -r line; do
    printf '%s\n' "$line" | "$jsonv"
done < "$obs_dir/access.log"
while IFS= read -r line; do
    printf '%s\n' "$line" | "$jsonv"
done < "$obs_dir/slow.log"

echo "==> chaos gate: seeded fault schedule, live ENOSPC capture, self-healing store"
chaos_dir="$fsck_dir/chaos"
mkdir -p "$chaos_dir"
# The in-process chaos schedule: every fault kind injected into a live
# capture must fail typed and reseal byte-identical after recovery, a
# corrupted container must ride quarantine -> repair -> re-admit, and
# log rotation must survive a torn rename. The profile document must
# validate and carry the injection and repair ledgers.
"$wet" drill --chaos --seed 42 --profile=json > "$chaos_dir/metrics.json" 2> /dev/null
"$jsonv" < "$chaos_dir/metrics.json"
grep -q 'io.faults_injected' "$chaos_dir/metrics.json"
grep -q 'store.quarantines' "$chaos_dir/metrics.json"
grep -q 'store.repairs_ok' "$chaos_dir/metrics.json"
# Live ENOSPC at the second durable write: the capture exits typed (4)
# and leaves the durable pressure marker; a rerun clears the marker,
# resumes, and seals byte-identical to the fault-free reference.
enospc_status=0
WET_FAULT_AT=2 WET_FAULT_KIND=enospc \
    "$wet" capture examples/data/collatz.wet --inputs 27 \
    --dir "$chaos_dir/cap.wetz.seg" --interval 16 > /dev/null 2>&1 || enospc_status=$?
if [ "$enospc_status" -ne 4 ]; then
    echo "capture under ENOSPC: expected exit 4, got $enospc_status" >&2
    exit 1
fi
if [ ! -f "$chaos_dir/cap.wetz.seg/capture.pressure" ]; then
    echo "ENOSPC stop left no capture.pressure marker" >&2
    exit 1
fi
"$wet" capture examples/data/collatz.wet --dir "$chaos_dir/cap.wetz.seg" > /dev/null
if [ -f "$chaos_dir/cap.wetz.seg/capture.pressure" ]; then
    echo "resume did not clear the pressure marker" >&2
    exit 1
fi
"$wet" seal "$chaos_dir/cap.wetz.seg" -o "$chaos_dir/cap.wetz" > /dev/null
cmp "$fsck_dir/fresh.wetz" "$chaos_dir/cap.wetz"
# Self-healing store under serve: corrupting a value section and
# cycling the trace quarantines it — the strict query answers the
# typed retriable `repairing` error (exit 5) and `list` shows the
# transition health. Once the disk heals, a client on --retries rides
# through the repair window and the post-repair answer must be
# byte-identical to the fault-free baseline.
heal_dir="$chaos_dir/heal"
mkdir -p "$heal_dir"
cp "$serve_dir/t.wetz" "$heal_dir/t.wetz"
heal_sock="$chaos_dir/heal.sock"
rm -f "$heal_sock"
"$wet" serve --store-root "$heal_dir" --listen "$heal_sock" > /dev/null 2> /dev/null &
serve_pid=$!
i=0
while [ ! -S "$heal_sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "heal server never bound $heal_sock" >&2; exit 1; fi
    sleep 0.1
done
"$wet" query open --path t.wetz --trace t --remote "$heal_sock" > /dev/null
"$wet" query value_trace --stmt 3 --trace t --remote "$heal_sock" > "$chaos_dir/base_vt.txt"
sz=$(wc -c < "$heal_dir/t.wetz")
printf '\125' | dd of="$heal_dir/t.wetz" bs=1 seek=$((sz / 2)) conv=notrunc 2> /dev/null
"$wet" query close --trace t --remote "$heal_sock" > /dev/null
"$wet" query open --path t.wetz --trace t --remote "$heal_sock" > /dev/null
heal_status=0
"$wet" query value_trace --stmt 3 --trace t --remote "$heal_sock" > /dev/null 2>&1 \
    || heal_status=$?
if [ "$heal_status" -ne 5 ]; then
    echo "query on a quarantined trace: expected exit 5, got $heal_status" >&2
    exit 1
fi
"$wet" query list --remote "$heal_sock" | grep -Eq '"health":"(quarantined|repairing)"'
# Heal the disk promptly — the repair worker is already backing off
# against the damaged file (its final attempt would install a
# degraded resident copy instead).
cp "$serve_dir/t.wetz" "$heal_dir/t.wetz"
i=0
heal_status=5
while [ "$i" -lt 40 ]; do
    heal_status=0
    "$wet" query value_trace --stmt 3 --trace t --remote "$heal_sock" --retries 4 \
        > "$chaos_dir/healed_vt.txt" 2> /dev/null || heal_status=$?
    if [ "$heal_status" -eq 0 ]; then break; fi
    if [ "$heal_status" -ne 5 ]; then
        echo "riding through repair: unexpected exit $heal_status" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
if [ "$heal_status" -ne 0 ]; then
    echo "repair never re-admitted the trace" >&2
    exit 1
fi
cmp "$chaos_dir/base_vt.txt" "$chaos_dir/healed_vt.txt"
"$wet" query list --remote "$heal_sock" | grep -q '"health":"ok"'
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
    echo "heal-server drain: expected exit 0, got $drain_status" >&2
    exit 1
fi

echo "==> overload gate: brownout storm drill, budget-degraded queries, typed drops"
ov_dir="$fsck_dir/overload"
mkdir -p "$ov_dir"
# The seeded in-process storm: 4x sustained capacity across competing
# tenants. Exit 0 asserts the whole overload contract (zero panics,
# typed + hinted rejections, brownout, fairness, bounded latency,
# recovery to nominal, byte-deterministic degraded answers). The
# profile document must validate and carry the pressure metrics.
"$wet" drill --overload --seed 42 --profile=json > "$ov_dir/metrics.json" 2> /dev/null
"$jsonv" < "$ov_dir/metrics.json"
grep -q 'serve.pressure' "$ov_dir/metrics.json"
grep -q 'serve.brownouts' "$ov_dir/metrics.json"
grep -q 'serve.queue_delay_us' "$ov_dir/metrics.json"
# Budget exhaustion is degraded, not an error: exit 0 and the answer
# says so, with the gap report. The same query un-budgeted answers
# quality full. A budget on a slice is a usage error (exit 2), and a
# doomed request still drops with the documented retriable exit 5.
ov_sock="$ov_dir/ov.sock"
rm -f "$ov_sock"
"$wet" serve "$serve_dir/t.wetz" --listen "$ov_sock" > /dev/null 2> /dev/null &
ov_pid=$!
i=0
while [ ! -S "$ov_sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then echo "overload server never bound $ov_sock" >&2; exit 1; fi
    sleep 0.1
done
"$wet" query cf_trace --remote "$ov_sock" --budget-bytes 64 > "$ov_dir/budgeted.json"
grep -q '"quality":"degraded"' "$ov_dir/budgeted.json"
grep -q '"steps_missing":' "$ov_dir/budgeted.json"
"$wet" query cf_trace --remote "$ov_sock" > "$ov_dir/full.json"
grep -q '"quality":"full"' "$ov_dir/full.json"
# Identical budgeted queries answer byte-identically (deterministic
# coverage planning), and the budget is honored: bytes_spent <= budget.
"$wet" query cf_trace --remote "$ov_sock" --budget-bytes 64 > "$ov_dir/budgeted2.json"
cmp "$ov_dir/budgeted.json" "$ov_dir/budgeted2.json"
slice_status=0
"$wet" query slice --stmt 3 --node 0 --remote "$ov_sock" --budget-bytes 64 \
    > /dev/null 2>&1 || slice_status=$?
if [ "$slice_status" -ne 2 ]; then
    echo "budgeted slice: expected exit 2, got $slice_status" >&2
    exit 1
fi
drop_status=0
"$wet" query cf_trace --remote "$ov_sock" --deadline-ms 0 > /dev/null 2>&1 || drop_status=$?
if [ "$drop_status" -ne 5 ]; then
    echo "doomed query: expected exit 5, got $drop_status" >&2
    exit 1
fi
kill -TERM "$ov_pid"
ov_drain=0
wait "$ov_pid" || ov_drain=$?
if [ "$ov_drain" -ne 0 ]; then
    echo "overload-gate server drain: expected exit 0, got $ov_drain" >&2
    exit 1
fi

echo "==> cargo clippy -D warnings"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "CI OK"
