#!/usr/bin/env sh
# Repository gate: build, tests, lints, formatting.
set -eu

cargo build --release --workspace
# The benchmark of record (BENCHMARK.json) is a standalone package over
# the serve, fleet and core APIs: an API change that breaks it fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --workspace
# Compiler-enforced invariants (DESIGN.md §13). clippy.toml bans raw
# `std::thread::spawn` everywhere (use the oftec-parallel scoped
# executor) and `Instant::now`/`SystemTime::now` outside the crates that
# carry their own clippy.toml (lint, telemetry, serve, bench). Every
# exemption is `#[expect(lint, reason = "...")]`: a bare or reason-less
# `#[allow]` is an error. Dropping a solver `Result` is rustc's
# `unused_must_use`, denied by `-D warnings`.
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
    "allow_attributes_without_reason")}
missing = expected - fired
assert not missing, f"seeded violations not detected: {sorted(missing)}"
print("clippy seeded smoke ok:", len(expected), "lints fired")
PY
rm -rf "$clippyscratch"

# Workspace semantic analysis (oftec-lint, DESIGN.md §13 + §18): the
# invariants that need dataflow across a function or a crate —
# determinism taint (L008), relaxed-publication atomics (L009),
# lock-order cycles (L010), blocking-under-lock on serve hot paths
# (L011), lossy solver casts (L012), hot-path allocations (L013). Walks
# the workspace members (crates/*, src/, examples/). Hard gate: any
# active finding fails the build; the JSONL report is kept.
./target/release/oftec-lint --format json > target/oftec-lint-report.jsonl
python3 - target/oftec-lint-report.jsonl <<'PY'
import json, sys
records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
summaries = [r for r in records if r["type"] == "summary"]
assert len(summaries) == 1, "report must end with exactly one summary record"
s = summaries[0]
assert s["files_scanned"] > 0, "lint scanned no files"
assert s["active"] == 0, f"{s['active']} active findings"
print("lint gate ok:", s["files_scanned"], "files,", s["suppressed"], "suppressed")
PY
# Rule ids and DESIGN.md must agree in both directions: every id the
# binary knows is documented, and every documented table row is a rule
# the binary knows.
./target/release/oftec-lint --list-rules | awk '/^L[0-9]/ {print $1}' | sort -u \
    > target/oftec-lint-rules.txt
while read -r id; do
    grep -q "$id" DESIGN.md || { echo "rule $id missing from DESIGN.md"; exit 1; }
done < target/oftec-lint-rules.txt
grep -hoE '^\| L[0-9]{3} ' DESIGN.md | awk '{print $2}' | sort -u | while read -r id; do
    grep -q "^$id\$" target/oftec-lint-rules.txt \
        || { echo "DESIGN.md documents $id but the binary does not know it"; exit 1; }
done
# The gate must actually bite: a seeded violation per semantic rule
# (L008–L013) must all be detected in one scratch workspace, and the run
# must exit non-zero.
scratch=$(mktemp -d)
mkdir -p "$scratch/crates/core/src" "$scratch/crates/serve/src" "$scratch/crates/thermal/src"
cat > "$scratch/crates/core/src/seeded_l008.rs" <<'EOF'
use std::collections::HashMap;
pub struct Registry { map: HashMap<u32, u32> }
impl Registry {
    pub fn snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (_k, v) in self.map.iter() { out.push(*v); }
        out
    }
}
EOF
cat > "$scratch/crates/core/src/seeded_l009.rs" <<'EOF'
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Flag { ready: AtomicU64, data: AtomicU64 }
impl Flag {
    pub fn publish(&self, v: u64) {
        self.data.store(v, Ordering::Relaxed);
        self.ready.store(1, Ordering::Relaxed);
    }
    pub fn consume(&self) -> u64 {
        if self.ready.load(Ordering::Relaxed) == 1 {
            return self.data.load(Ordering::Relaxed);
        }
        0
    }
}
EOF
cat > "$scratch/crates/core/src/seeded_l010.rs" <<'EOF'
use std::sync::Mutex;
pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }
impl Pair {
    pub fn ab(&self) {
        let Ok(ga) = self.a.lock() else { return };
        let Ok(gb) = self.b.lock() else { return };
        let _ = (ga, gb);
    }
    pub fn ba(&self) {
        let Ok(gb) = self.b.lock() else { return };
        let Ok(ga) = self.a.lock() else { return };
        let _ = (ga, gb);
    }
}
EOF
cat > "$scratch/crates/serve/src/seeded_l011.rs" <<'EOF'
use std::sync::Mutex;
pub struct Shard { state: Mutex<u32> }
impl Shard {
    pub fn stall(&self) {
        let Ok(g) = self.state.lock() else { return };
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _ = g;
    }
}
EOF
printf 'pub fn quantize(x: f64) -> u32 { x as u32 }\n' \
    > "$scratch/crates/thermal/src/seeded_l012.rs"
cat > "$scratch/crates/core/src/seeded_l013.rs" <<'EOF'
// oftec-lint: hot
pub fn hot_entry(n: usize) -> usize { helper(n) }
fn helper(n: usize) -> usize {
    let v: Vec<usize> = Vec::new();
    let _ = v;
    n
}
EOF
if ./target/release/oftec-lint --root "$scratch" --format json > "$scratch/report.jsonl"; then
    echo "oftec-lint failed to flag the seeded violations"
    rm -rf "$scratch"
    exit 1
fi
python3 - "$scratch/report.jsonl" <<'PY'
import json, sys
records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
fired = {r["rule"] for r in records
         if r["type"] == "finding" and r["status"] == "active"}
missing = {"L008", "L009", "L010", "L011", "L012", "L013"} - fired
assert not missing, f"seeded violations not detected: {sorted(missing)}"
print("seeded-violation smoke ok:", len(fired), "rules fired")
PY
rm -rf "$scratch"

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
portfile=$(mktemp)
servesnap=$(mktemp)
servebench=$(mktemp)
redbench=$(mktemp)
obsport=$(mktemp)
obssnap=$(mktemp)
obsdump=$(mktemp)
burstport=$(mktemp)
burstsnap=$(mktemp)
burstbench=$(mktemp)
# On exit, reap any smoke server still running (a failed assert would
# otherwise orphan it holding our stdout pipe) before removing temp files.
trap 'for p in "${srv:-}" "${obssrv:-}" "${burstsrv:-}"; do
        if [ -n "$p" ]; then kill "$p" 2> /dev/null || true; fi
    done
    rm -f "$snap" "$portfile" "$servesnap" "$servebench" "$redbench" \
    "$obsport" "$obssnap" "$obsdump" "$burstport" "$burstsnap" "$burstbench"' EXIT
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

# Serve smoke: boot the cooling-control service on an ephemeral loopback
# port, drive it with the load generator's mixed traffic (valid, invalid,
# and repeated requests), then check the server-side counters and that a
# graceful drain exits 0.
: > "$portfile"
./target/release/oftec-cli serve --addr 127.0.0.1:0 --coarse \
    --port-file "$portfile" --telemetry-json "$servesnap" 2> /dev/null &
srv=$!
tries=0
while [ ! -s "$portfile" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "server never published its port"; kill "$srv"; exit 1; }
    sleep 0.1
done
addr="127.0.0.1:$(cat "$portfile")"
./target/release/oftec-loadgen --addr "$addr" --connections 32 --requests 20 \
    --key-reuse 0.6 --mix mixed --seed 7 --out "$servebench" --shutdown > /dev/null
wait "$srv"  # graceful drain: stop accepting, answer in-flight, exit 0
python3 - "$servesnap" "$servebench" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("serve.requests", 0) > 0, "no requests recorded"
assert counters.get("serve.cache.hits", 0) > 0, "no cache hits under 60% key reuse"
assert counters.get("serve.panics", 0) == 0, "server panicked under mixed load"
assert counters.get("serve.responses_err", 0) > 0, "mixed traffic must produce typed errors"
assert counters.get("serve.probes", 0) > 0, "health/shutdown probes not counted"
bench = json.load(open(sys.argv[2]))
assert bench["requests"] > 0 and bench["ok"] > 0, "loadgen recorded no traffic"
assert bench["latency"]["overall"]["p50_us"] > 0, "no latency percentiles"
# Errors are split by cause and the classes partition the error count.
# Mixed traffic's injected malformed requests are `rejected` (the server
# refusing them is correct behavior); `failed` — solver errors, panics,
# internal faults — must be zero on a healthy server.
split = (bench["shed"] + bench["deadline_exceeded"]
         + bench["rejected"] + bench["failed"])
assert split == bench["errors"], "error split does not partition errors"
assert bench["failed"] == 0, f"{bench['failed']} unexplained failures"
assert sum(bench["error_causes"].values()) == bench["errors"], \
    "per-kind causes do not partition errors"
# The client's ok count and the server's must agree exactly: probes
# (health/metrics scrapes) never touch the response counters.
assert bench["ok"] == counters["serve.responses_ok"], \
    "client/server ok counts disagree"
# Typed per-cause server counters partition serve.responses_err.
err_causes = sum(v for k, v in counters.items()
                 if k.startswith("serve.errors."))
assert err_causes == counters["serve.responses_err"], \
    "typed error counters do not partition responses_err"
# Per-stage latency breakdown from the response trace metadata.
for stage in ("parse", "queue", "batch", "cache", "solve"):
    assert bench["stages"][stage]["count"] > 0, f"no {stage} stage samples"
# The loadgen's live Prometheus scraper ran against the server mid-run.
assert bench["live_scrapes"]["scrapes"] > 0, "no live metrics scrapes"
assert bench["live_scrapes"]["last_serve_requests"] > 0, \
    "scraped exposition never showed serve_requests"
print("serve smoke ok:",
      counters["serve.requests"], "requests,",
      counters["serve.cache.hits"], "cache hits,",
      bench["live_scrapes"]["scrapes"], "live scrapes,",
      counters["serve.panics"], "panics")
PY

# Observability smoke: boot a fault-injected server (every solve errors),
# check the metrics endpoint's JSON and Prometheus forms agree, drive the
# solver-error SLO monitor to a breach, and confirm the flight recorder
# retains the failing traces and dumps them on the breach edge.
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

# The JSON and Prometheus metric forms must expose the same counters.
js = rpc('{"cmd":"metrics"}')["result"]["counters"]
prom = rpc('{"cmd":"metrics","format":"prometheus"}')["result"]
exposed = {}
for line in prom.splitlines():
    if line and not line.startswith("#") and "{" not in line:
        name, value = line.rsplit(" ", 1)
        exposed[name] = float(value)
for name, value in js.items():
    prom_name = name.replace(".", "_")
    # serve.probes moves between the two scrapes: each scrape is itself
    # a probe.
    if name == "serve.probes":
        continue
    assert exposed.get(prom_name) == value, \
        f"{name}: prometheus says {exposed.get(prom_name)}, json says {value}"

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
dump = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert dump and any(not e["ok"] for e in dump), \
    "SLO breach did not dump the flight recorder"
print("flight dump ok:", len(dump), "records")
PY

# Scale smoke (DESIGN.md §16): open-loop burst traffic at 32 connections.
# Asserts the sustained/burst report blocks, a bounded shed rate, zero
# unexplained failures, and exact client/server counter agreement.
: > "$burstport"
./target/release/oftec-cli serve --addr 127.0.0.1:0 --coarse --prewarm qsort \
    --port-file "$burstport" --telemetry-json "$burstsnap" 2> /dev/null &
burstsrv=$!
tries=0
while [ ! -s "$burstport" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "burst server never published its port"; kill "$burstsrv"; exit 1; }
    sleep 0.1
done
./target/release/oftec-loadgen --addr "127.0.0.1:$(cat "$burstport")" \
    --connections 32 --requests 25 --open-rps 120 --burst-requests 10 \
    --burst-mult 3 --key-reuse 0.8 --mix mixed --seed 11 \
    --out "$burstbench" --shutdown > /dev/null
wait "$burstsrv"
python3 - "$burstsnap" "$burstbench" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
bench = json.load(open(sys.argv[2]))
# Every injected request was answered: the open loop ran to completion.
assert bench["requests"] == 32 * 35, f"lost requests: {bench['requests']}"
assert bench["failed"] == 0, f"{bench['failed']} unexplained failures"
assert bench["failed_connections"] == 0, "connections died mid-run"
# Sustained and burst phases are reported separately, with tail latency.
sus, burst = bench["sustained"], bench["burst"]
assert sus["requests"] == 32 * 25 and burst["requests"] == 32 * 10
assert sus["achieved_rps"] > 0 and burst["achieved_rps"] > 0
assert sus["shed_rate"] < 0.2, f"sustained shed rate {sus['shed_rate']}"
assert bench["latency"]["overall"]["p999_us"] >= bench["latency"]["overall"]["p99_us"]
# Client and server agree exactly: no silent drops.
assert bench["ok"] == counters["serve.responses_ok"], \
    f"client ok {bench['ok']} != server {counters['serve.responses_ok']}"
assert counters.get("serve.panics", 0) == 0, "server panicked under burst load"
assert counters.get("serve.requests", 0) >= bench["requests"], \
    f"serve.requests = {counters.get('serve.requests', 0)} missed workload messages"
print("burst smoke ok:",
      int(sus["achieved_rps"]), "rps sustained,",
      int(burst["achieved_rps"]), "rps burst,",
      f"shed {sus['shed_rate']:.3f}")
PY

# Reduced-order solve smoke (DESIGN.md §14): build the POD basis on the
# coarse DAC'14 package, sweep an operating-point grid, and assert the
# reduced path actually ran (reduction.solves > 0) and stayed inside the
# 0.1 K die-temperature accuracy budget against the full CG reference.
./target/release/reduction_accuracy --smoke --out "$redbench" > /dev/null
python3 - "$redbench" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["grid"]["compared"] > 0, "no comparable grid points"
assert bench["grid"]["disagreements"] == 0, "reduced/full solvability disagreement"
assert bench["max_abs_error_k"] < 0.1, \
    f"reduced solve error {bench['max_abs_error_k']} K exceeds 0.1 K budget"
assert bench["counters"]["reduction.solves"] > 0, "reduced path never engaged"
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
