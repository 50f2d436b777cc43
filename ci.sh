#!/usr/bin/env sh
# Repository gate: build, tests, lints, formatting.
set -eu

# --locked: a Cargo.lock that resolution would have to rewrite, here or
# in perfbench/, fails the gate instead of being silently rewritten.
cargo build --release --workspace --locked
# --locked still accepts a lock with an orphaned entry (a package no
# manifest names any more), so the root lock must also be a fixed point
# of resolution: resolve a copy of the tree and compare.
lockscratch=$(mktemp -d)
tar --exclude=./.git --exclude=./target --exclude=./perfbench/target \
    --exclude=./.bench_build --exclude=./.bench_out -cf - . | tar -xf - -C "$lockscratch"
cargo update --offline --workspace --quiet --manifest-path "$lockscratch/Cargo.toml"
if ! cmp -s Cargo.lock "$lockscratch/Cargo.lock"; then
    echo "Cargo.lock differs from what 'cargo update --offline --workspace' resolves:"
    diff Cargo.lock "$lockscratch/Cargo.lock" || true
    rm -rf "$lockscratch"
    exit 1
fi
rm -rf "$lockscratch"
# The benchmark of record (BENCHMARK.json) is a standalone package over
# the serve, fleet and core APIs: an API change that breaks it fails here.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
# Its self-test runs every workload briefly and checks served payloads
# against `reference_payload` and controller answers against the full
# model: the end-to-end bit-identity of the reduced and cached paths.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
cargo test -q --workspace
# Compiler-enforced invariants (DESIGN.md §13). clippy.toml bans raw
# `std::thread::spawn` everywhere (use the oftec-parallel scoped
# executor) and `Instant::now`/`SystemTime::now` outside the crates that
# carry their own clippy.toml (telemetry, serve, bench); every
# clippy.toml bans `HashMap`/`HashSet` (per-process iteration order).
# The solver libraries deny `cast_possible_truncation` in their lib.rs.
# Every exemption is `#[expect(lint, reason = "...")]`: a bare or
# reason-less `#[allow]` is an error. Dropping a solver `Result` is
# rustc's `unused_must_use`, denied by `-D warnings`.
BASE_LINTS="-D warnings -D clippy::allow_attributes -D clippy::allow_attributes_without_reason"
# No unwrap/expect outside tests in libs, bins and examples: a surprise
# on a solve or serving path must become a typed error, not an abort.
# (--lib/--bins/--examples skip #[cfg(test)] modules.)
NO_ABORT_LINTS="-D clippy::unwrap_used -D clippy::expect_used"
# Library code only: no exact float compares (exact-zero tests are
# exempt by design), telemetry instead of printing, typed errors instead
# of naked panics.
LIB_LINTS="-D clippy::float_cmp -D clippy::print_stdout -D clippy::print_stderr
    -D clippy::dbg_macro -D clippy::panic -D clippy::todo -D clippy::unimplemented
    -D clippy::unreachable"
# The lint lists are word-split on purpose below.
# shellcheck disable=SC2086
cargo clippy --workspace --all-targets -- $BASE_LINTS
# shellcheck disable=SC2086
cargo clippy --workspace --bins --examples -- $BASE_LINTS $NO_ABORT_LINTS
# shellcheck disable=SC2086
cargo clippy --workspace --lib -- $BASE_LINTS $NO_ABORT_LINTS $LIB_LINTS
cargo fmt --all --check
# The compiler gates must actually bite: a scratch crate under the
# workspace clippy.toml, seeded with one violation per lint, must fail
# the library run and report every expected lint code.
clippyscratch=$(mktemp -d)
mkdir -p "$clippyscratch/src"
cp clippy.toml "$clippyscratch/"
printf '[package]\nname = "seeded"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n' \
    > "$clippyscratch/Cargo.toml"
cat > "$clippyscratch/src/lib.rs" <<'RS'
#![deny(clippy::cast_possible_truncation)]
pub fn unwrap(x: Option<u32>) -> u32 { x.unwrap() }
pub fn expect(x: Option<u32>) -> u32 { x.expect("seeded") }
pub fn spawn() { let _ = std::thread::spawn(|| {}); }
pub fn clock() -> std::time::Instant { std::time::Instant::now() }
pub fn wall() -> std::time::SystemTime { std::time::SystemTime::now() }
pub fn same(x: f64, y: f64) -> bool { x == y }
pub fn out() { println!("seeded"); }
pub fn err() { eprintln!("seeded"); }
pub fn debug(x: u32) -> u32 { dbg!(x) }
pub fn boom() { panic!("seeded"); }
pub fn later() { todo!() }
pub fn never() { unimplemented!() }
pub fn gone() { unreachable!() }
pub fn keyed() -> std::collections::HashMap<u32, u32> { Default::default() }
pub fn quantize(x: f64) -> u32 { x as u32 }
#[allow(clippy::needless_return)]
pub fn bare() { return; }
RS
# shellcheck disable=SC2086
if cargo clippy --offline --quiet --manifest-path "$clippyscratch/Cargo.toml" --lib \
    --message-format json -- $BASE_LINTS $NO_ABORT_LINTS $LIB_LINTS \
    > "$clippyscratch/report.jsonl" 2> /dev/null; then
    echo "clippy failed to flag the seeded violations"
    rm -rf "$clippyscratch"
    exit 1
fi
python3 - "$clippyscratch/report.jsonl" <<'PY'
import json, sys
fired = set()
for line in open(sys.argv[1]):
    msg = json.loads(line)
    if msg.get("reason") == "compiler-message" and msg["message"].get("code"):
        fired.add(msg["message"]["code"]["code"])
expected = {"clippy::" + lint for lint in (
    "unwrap_used", "expect_used", "disallowed_methods", "float_cmp",
    "print_stdout", "print_stderr", "dbg_macro", "panic", "todo",
    "unimplemented", "unreachable", "allow_attributes",
    "allow_attributes_without_reason", "disallowed_types",
    "cast_possible_truncation")}
missing = expected - fired
assert not missing, f"seeded violations not detected: {sorted(missing)}"
print("clippy seeded smoke ok:", len(expected), "lints fired")
PY
rm -rf "$clippyscratch"

# Fault-injection smoke: the no-panic robustness suite must hold on the
# serial path and on a parallel one (worker panics cross the scoped-
# thread executor differently than caller-thread panics).
OFTEC_THREADS=1 cargo test -q -p oftec --test fault_injection
OFTEC_THREADS=8 cargo test -q -p oftec --test fault_injection

# Telemetry smoke: the CLI must emit a parseable registry snapshot with
# real solver activity, including SQP traces for both optimization phases
# (qsort at 1.05× power is infeasible at the start point, so Algorithm 1
# runs Optimization 2 and then Optimization 1).
snap=$(mktemp)
redbench=$(mktemp)
obsport=$(mktemp)
obssnap=$(mktemp)
obsdump=$(mktemp)
# On exit, reap any smoke server still running (a failed assert would
# otherwise orphan it holding our stdout pipe) before removing temp files.
trap 'if [ -n "${obssrv:-}" ]; then kill "$obssrv" 2> /dev/null || true; fi
    rm -f "$snap" "$redbench" "$obsport" "$obssnap" "$obsdump"' EXIT
./target/release/oftec-cli optimize qsort --scale 1.05 --telemetry-json "$snap" > /dev/null
python3 - "$snap" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = snap["counters"]
assert counters.get("thermal.solves", 0) > 0, "no thermal solves recorded"
assert counters.get("sqp.iterations", 0) > 0, "no SQP iterations recorded"
for trace in ("sqp.opt1", "sqp.opt2"):
    assert snap["traces"].get(trace), f"missing convergence trace {trace}"
print("telemetry smoke ok:",
      counters["thermal.solves"], "thermal solves,",
      counters["sqp.iterations"], "SQP iterations")
PY

# Observability smoke: boot the CLI server on an ephemeral port with
# fault injection (every solve errors), drive the solver-error SLO monitor
# to a breach, confirm the flight recorder retains the failing traces and
# dumps them on the breach edge, and check a graceful drain exits 0 with
# its final telemetry snapshot written.
: > "$obsport"
./target/release/oftec-cli serve --addr 127.0.0.1:0 --coarse \
    --fault-kind err --fault-every 1 --flight-dump "$obsdump" \
    --port-file "$obsport" --telemetry-json "$obssnap" 2> /dev/null &
obssrv=$!
tries=0
while [ ! -s "$obsport" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "obs server never published its port"; kill "$obssrv"; exit 1; }
    sleep 0.1
done
python3 - "127.0.0.1:$(cat "$obsport")" <<'PY'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")
def rpc(line):
    f.write(line + "\n"); f.flush()
    return json.loads(f.readline())

# Every solve faults: drive the solver-error SLO monitor to a breach.
for i in range(10):
    resp = rpc(json.dumps({"cmd": "steady", "id": i, "benchmark": "qsort",
                           "rpm": 2400 + 10 * i, "amps": 1.0, "no_cache": True}))
    assert not resp["ok"] and resp["error"]["kind"] == "thermal", resp
    assert resp["trace"]["outcome"] == "solver", resp
slo = {m["name"]: m for m in rpc('{"cmd":"slo"}')["result"]["monitors"]}
solver = slo["serve.slo.solver_error_rate"]
assert solver["breached"] and solver["breaches"] >= 1, solver
# The flight recorder kept the failures.
trace = rpc('{"cmd":"trace","limit":16}')["result"]
assert trace["recorded"] >= 10, trace
assert any(not e["ok"] and e["outcome"] == "solver" for e in trace["entries"]), trace
rpc('{"cmd":"shutdown"}')
print("observability smoke ok:", trace["recorded"], "traces,",
      solver["breaches"], "solver-SLO breaches")
PY
wait "$obssrv"
python3 - "$obssnap" "$obsdump" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("slo.breaches.solver_error_rate", 0) >= 1, \
    "breach counter missing from the final snapshot"
assert counters.get("serve.probes", 0) > 0, "slo/trace/shutdown probes not counted"
assert counters.get("serve.panics", 0) == 0, "server panicked on faulting solves"
dump = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert dump and any(not e["ok"] for e in dump), \
    "SLO breach did not dump the flight recorder"
print("flight dump ok:", len(dump), "records")
PY

# Reduced-order solve smoke (DESIGN.md §14): build the POD basis on the
# coarse DAC'14 package, sweep an operating-point grid, and assert the
# reduced path actually ran (reduction.solves > 0), stayed inside the
# 0.1 K die-temperature accuracy budget against the full CG reference,
# and accepted every point: the grid (0.3–1.0·ω_max) is all feasible, so
# a fallback means the residual certificate rejected a good point.
./target/release/reduction_accuracy --smoke --out "$redbench" > /dev/null
python3 - "$redbench" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["grid"]["compared"] > 0, "no comparable grid points"
assert bench["grid"]["disagreements"] == 0, "reduced/full solvability disagreement"
assert bench["max_abs_error_k"] < 0.1, \
    f"reduced solve error {bench['max_abs_error_k']} K exceeds 0.1 K budget"
assert bench["counters"]["reduction.solves"] > 0, "reduced path never engaged"
assert bench["counters"].get("reduction.fallbacks", 0) == 0, \
    f"{bench['counters']['reduction.fallbacks']} fallbacks on an all-feasible grid"
print("reduction smoke ok:",
      bench["grid"]["compared"], "points,",
      "max err %.2e K," % bench["max_abs_error_k"],
      "speedup %.1fx" % bench["latency"]["speedup"])
PY

# Fleet smoke (DESIGN.md §17): a small sharded sweep of the seeded
# scenario population. Asserts the verdict partition sums to the scenario
# count with zero out-of-tolerance discrepancies, that a run killed
# mid-shard (with a torn tail past its checkpoint) resumes to the exact
# bytes of an uninterrupted run, and that a seeded fault injection exits
# nonzero with a reproducer that replays.
fleetdir=$(mktemp -d)
FLEET_SEED=20260808
./target/release/oftec-fleet run --seed "$FLEET_SEED" --shards 2 --per-shard 200 \
    --out "$fleetdir/full" --cross-check-divisor 16 > "$fleetdir/summary.json"
python3 - "$fleetdir/summary.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
v = s["verdicts"]
total = sum(v[k] for k in ("feasible", "fan_only", "tec_required",
                           "runaway", "solver_error"))
assert s["scenarios"] == 400, f"expected 400 scenarios, got {s['scenarios']}"
assert total == s["scenarios"], "verdict partition does not sum to scenario count"
assert s["cross_checks"] > 0, "subsample selected no cross-checks"
assert s["discrepancies"] == 0, f"{s['discrepancies']} solver discrepancies"
assert not s["stopped_early"]
print("fleet sweep ok:", s["scenarios"], "scenarios,",
      s["cross_checks"], "cross-checked,", v["tec_required"], "tec_required")
PY
# Kill-then-resume: stop mid-shard, corrupt the tail past the checkpoint,
# resume, and compare the concatenated verdict stream byte for byte.
./target/release/oftec-fleet run --seed "$FLEET_SEED" --shards 2 --per-shard 200 \
    --out "$fleetdir/resumed" --cross-check-divisor 16 --stop-after 130 > /dev/null
printf '{"torn":' >> "$fleetdir/resumed/shard-0000.jsonl"
./target/release/oftec-fleet run --seed "$FLEET_SEED" --shards 2 --per-shard 200 \
    --out "$fleetdir/resumed" --cross-check-divisor 16 > /dev/null
cat "$fleetdir/full"/shard-*.jsonl > "$fleetdir/full.cat"
cat "$fleetdir/resumed"/shard-*.jsonl > "$fleetdir/resumed.cat"
cmp "$fleetdir/full.cat" "$fleetdir/resumed.cat" \
    || { echo "resumed fleet stream differs from uninterrupted run"; rm -rf "$fleetdir"; exit 1; }
echo "fleet resume ok: $(wc -c < "$fleetdir/full.cat") bytes identical"
# The differential gate must bite: a seeded NaN fault in the SQP path
# (seed 9000's scenario 0/0 is comfortably feasible, so the poisoned
# solver visibly diverges from the grid oracle) exits 3 and leaves a
# minimized reproducer that replays with exit 0.
if ./target/release/oftec-fleet run --seed 9000 --shards 1 --per-shard 1 \
    --out "$fleetdir/fault" --fault 0:0:sqp:non_finite:0 > /dev/null 2>&1; then
    echo "fleet gate failed to flag a seeded solver fault"
    rm -rf "$fleetdir"
    exit 1
fi
./target/release/oftec-fleet repro "$fleetdir/fault"/repro_*.json > /dev/null \
    || { echo "fleet reproducer did not replay"; rm -rf "$fleetdir"; exit 1; }
echo "fleet fault gate ok: seeded discrepancy caught, minimized and replayed"
rm -rf "$fleetdir"
