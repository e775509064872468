#!/usr/bin/env sh
# Tier-1 gate for pi3d (see DESIGN.md §9). Everything runs offline; the
# workspace has zero external dependencies.
set -eu

cd "$(dirname "$0")"

# Every scratch file of this run lives under one directory, removed on
# exit whether the run passes or fails.
tmp="$(mktemp -d /tmp/pi3d-ci.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --offline --all-targets -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --no-deps (rustdoc warnings are errors)"
# Catches doc links to items that no longer exist. `--lib` skips the bin
# targets, whose `pi3d` output name collides with the facade library's.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> examples (release)"
# Each example must run to completion, not only compile; render_layout
# writes its SVGs under target/artifacts.
cargo build --release --offline --examples
for example in quickstart ir_heatmap policy_explorer co_optimize supply_noise render_layout; do
    ./target/release/examples/"$example" > /dev/null
done
echo "examples OK"

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> paper's 200,000-read stream: event loop vs reference stepper"
# The one ignored test: too slow for every `cargo test`, but the only
# run of both loops on the paper's full stream.
cargo test -q --offline --test end_to_end -- --ignored

echo "==> serve_chaos test binary x20 (stops at the first failing run)"
# The chaos pipeline races four workers against one fault plan, so one
# passing run proves little; a schedule-dependent failure shows up here.
chaos_bin="$(cargo test --offline -p pi3d-core --test serve_chaos --no-run 2>&1 |
    sed -n 's/^ *Executable .*(\(.*\))$/\1/p')"
[ -x "$chaos_bin" ] || { echo "serve_chaos test binary not found" >&2; exit 1; }
chaos_log="$tmp/chaos-test.log"
for run in $(seq 20); do
    if ! "$chaos_bin" -q > "$chaos_log" 2>&1; then
        cat "$chaos_log"
        echo "serve_chaos failed on run $run of 20" >&2
        exit 1
    fi
done
echo "serve_chaos OK: 20 runs"

echo "==> paper tables vs tables_output.txt (wall-clock lines dropped)"
# EXPERIMENTS.md quotes tables_output.txt, so a change that moves any
# printed number must regenerate both. Only the timing lines may differ:
# each section's "(<name> finished in ...)" line and fig4's "runtime".
tables_dir="$tmp/tables"
mkdir "$tables_dir"
./target/release/pi3d tables --threads 2 > "$tables_dir/now.txt"
drop_clock='^\(.* finished in .*\)$|^  runtime +:'
grep -Ev "$drop_clock" tables_output.txt > "$tables_dir/want.txt"
grep -Ev "$drop_clock" "$tables_dir/now.txt" > "$tables_dir/got.txt"
if ! diff -u "$tables_dir/want.txt" "$tables_dir/got.txt"; then
    echo "FAIL: tables output differs from tables_output.txt; regenerate it" \
        "and the EXPERIMENTS.md rows that quote it" >&2
    exit 1
fi
tables_lines=$(wc -l < "$tables_dir/got.txt")
echo "tables OK: $tables_lines lines match tables_output.txt"

echo "==> CLI smoke run with --metrics-out"
report="$tmp/report.json"
cfg="$tmp/design.cfg"
printf 'benchmark = ddr3-off\n' > "$cfg"
./target/release/pi3d analyze "$cfg" --grid 10 --threads 2 \
    --log-level info --metrics-out "$report"

# The report must be valid JSON with the documented schema marker and a
# non-empty convergence trace. Python is only used here, in CI, to check
# the output of the dependency-free JSON writer against an independent
# parser; fall back to a grep check where python3 is unavailable.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$report" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "pi3d.run_report.v1", r["schema"]
assert r["phases"], "no phase timings"
assert r["convergence"] and r["convergence"][0]["residuals"], "no CG trace"
assert r["mesh"][0]["nodes"] > 0, "no mesh stats"
print("run report OK:", len(r["phases"]), "phases,",
      r["convergence"][0]["iterations"], "CG iterations")
PY
else
    grep -q '"schema": "pi3d.run_report.v1"' "$report"
    grep -q '"residuals"' "$report"
    echo "run report OK (grep check)"
fi

echo "==> memsim smoke run (--policy all fan-out)"
# Event-loop/reference bit-equivalence is pinned by the workspace tests
# above; this exercises the CLI fan-out path end to end.
./target/release/pi3d simulate "$cfg" --policy all --reads 2000 \
    --threads 2 --grid 10

echo "==> fault-sweep smoke run"
# Thread-count determinism of the sweep itself is pinned by a core test;
# this exercises the CLI path and the fault_sweep report section.
fault_report="$tmp/faults.json"
dead_cfg="$tmp/dead.cfg"
./target/release/pi3d faults "$cfg" --trials 8 --threads 2 --grid 8 \
    --reads 0 --metrics-out "$fault_report"
if command -v python3 > /dev/null 2>&1; then
    python3 - "$fault_report" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
rows = r["fault_sweep"]
assert rows, "no fault_sweep rows"
for row in rows:
    assert row["trials"] == 8, row
    assert 0 <= row["survived"] <= row["trials"], row
print("fault sweep OK:", len(rows), "severity levels")
PY
else
    grep -q '"fault_sweep"' "$fault_report"
    echo "fault sweep OK (grep check)"
fi

echo "==> fault-sweep negative test (fully-severed supply)"
# Opening every TSV severs the upper dies; at severity 1.0 no trial can
# survive and the CLI must exit non-zero with the typed degraded-supply
# diagnosis — no panic, no backtrace.
printf 'benchmark = ddr3-off\nfault_tsv_open = 1.0\n' > "$dead_cfg"
fault_err="$tmp/faults-err.log"
if ./target/release/pi3d faults "$dead_cfg" --levels 1.0 --trials 2 \
    --grid 8 --reads 0 2> "$fault_err"; then
    echo "FAIL: dead config exited zero" >&2
    exit 1
fi
grep -q 'degraded supply' "$fault_err"
if grep -qi 'panicked\|backtrace' "$fault_err"; then
    echo "FAIL: dead config panicked" >&2
    cat "$fault_err" >&2
    exit 1
fi
echo "negative test OK: $(grep -o 'degraded supply[^;]*' "$fault_err" | head -1)"

echo "==> kill-and-resume smoke (journaled fault sweep, SIGINT mid-sweep)"
jobdir="$tmp/jobs"
mkdir "$jobdir"
# Enough trials that the sweep cannot finish before the interrupt lands.
sweep_flags="--levels 0.5,1.0 --trials 120 --grid 12 --reads 0"
./target/release/pi3d faults "$cfg" $sweep_flags --threads 2 \
    --journal "$jobdir/sweep.journal" --metrics-out "$jobdir/cancel.json" \
    > "$jobdir/cancelled.out" 2> "$jobdir/cancelled.err" &
sweep_pid=$!
# Wait for the journal to hold the header plus at least two fsync'd
# records, then interrupt the worker mid-sweep.
i=0
while [ "$( (wc -l < "$jobdir/sweep.journal") 2>/dev/null || echo 0)" -lt 3 ]; do
    i=$((i+1))
    if [ "$i" -gt 1200 ]; then
        echo "FAIL: journal never reached two records" >&2
        kill "$sweep_pid" 2>/dev/null || true
        exit 1
    fi
    if ! kill -0 "$sweep_pid" 2>/dev/null; then
        echo "FAIL: sweep finished before the interrupt" >&2
        exit 1
    fi
    sleep 0.05
done
kill -INT "$sweep_pid"
sweep_status=0
wait "$sweep_pid" || sweep_status=$?
if [ "$sweep_status" -ne 130 ]; then
    echo "FAIL: cancelled sweep exited $sweep_status, expected 130" >&2
    cat "$jobdir/cancelled.err" >&2
    exit 1
fi
grep -q 'cancelled' "$jobdir/cancelled.err"
# The partial run report must be valid JSON whose outcome block records
# the cooperative cancellation (not a truncated or missing file).
if command -v python3 > /dev/null 2>&1; then
    python3 - "$jobdir/cancel.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "pi3d.run_report.v1", r["schema"]
o = r["outcome"]
assert o["status"] == "cancelled", o
assert o["exit_code"] == 130, o
assert o["stage"] == "faults", o
assert "resume" in o["error"], o
print("partial report OK:", o["error"])
PY
else
    grep -q '"status": "cancelled"' "$jobdir/cancel.json"
    grep -q '"exit_code": 130' "$jobdir/cancel.json"
    echo "partial report OK (grep check)"
fi
grep -q '"journal":"pi3d.jobs.v1"' "$jobdir/sweep.journal"
# Resume at two thread counts (from identical copies of the interrupted
# journal) and run once clean; all three reports must be byte-identical.
interrupted_units=$(( $(wc -l < "$jobdir/sweep.journal") - 1 ))
cp "$jobdir/sweep.journal" "$jobdir/sweep8.journal"
./target/release/pi3d faults "$cfg" $sweep_flags --threads 2 \
    --resume "$jobdir/sweep.journal" > "$jobdir/resumed2.out"
./target/release/pi3d faults "$cfg" $sweep_flags --threads 8 \
    --resume "$jobdir/sweep8.journal" > "$jobdir/resumed8.out"
./target/release/pi3d faults "$cfg" $sweep_flags --threads 4 \
    > "$jobdir/clean.out"
diff "$jobdir/clean.out" "$jobdir/resumed2.out"
diff "$jobdir/clean.out" "$jobdir/resumed8.out"
echo "kill-and-resume OK: interrupted after $interrupted_units units, resumed reports byte-identical"

echo "==> SIGTERM drain smoke (journaled fault sweep, TERM mid-sweep)"
# Same shape as the SIGINT smoke above, but via SIGTERM: the shim latches
# the signal, the sweep drains cooperatively, the exit code is 143, and
# the partial report's outcome block says "terminated" (DESIGN.md §18).
./target/release/pi3d faults "$cfg" $sweep_flags --threads 2 \
    --journal "$jobdir/term.journal" --metrics-out "$jobdir/term.json" \
    > "$jobdir/term.out" 2> "$jobdir/term.err" &
term_pid=$!
i=0
while [ "$( (wc -l < "$jobdir/term.journal") 2>/dev/null || echo 0)" -lt 3 ]; do
    i=$((i+1))
    if [ "$i" -gt 1200 ]; then
        echo "FAIL: journal never reached two records" >&2
        kill "$term_pid" 2>/dev/null || true
        exit 1
    fi
    if ! kill -0 "$term_pid" 2>/dev/null; then
        echo "FAIL: sweep finished before SIGTERM" >&2
        exit 1
    fi
    sleep 0.05
done
kill -TERM "$term_pid"
term_status=0
wait "$term_pid" || term_status=$?
if [ "$term_status" -ne 143 ]; then
    echo "FAIL: terminated sweep exited $term_status, expected 143" >&2
    cat "$jobdir/term.err" >&2
    exit 1
fi
if command -v python3 > /dev/null 2>&1; then
    python3 - "$jobdir/term.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "pi3d.run_report.v1", r["schema"]
o = r["outcome"]
assert o["status"] == "terminated", o
assert o["exit_code"] == 143, o
assert o["stage"] == "faults", o
print("SIGTERM partial report OK:", o["error"])
PY
else
    grep -q '"status": "terminated"' "$jobdir/term.json"
    grep -q '"exit_code": 143' "$jobdir/term.json"
    echo "SIGTERM partial report OK (grep check)"
fi
echo "SIGTERM drain OK: exit 143, partial report terminated"

echo "==> shard smoke (--shards 3, SIGKILL a worker mid-sweep, byte-identical merge)"
shard_dir="$tmp/shard"
mkdir "$shard_dir"
shard_flags="--levels 0.5,1.0 --trials 30 --grid 12 --reads 0"
# Clean --shards 1 run: the reference report.
./target/release/pi3d faults "$cfg" $shard_flags --threads 2 \
    --shards 1 --journal "$shard_dir/one.journal" > "$shard_dir/one.out"
# Three shards with one worker SIGKILLed mid-sweep: the supervisor must
# reclaim its lease, respawn it (resuming from the shard journal), and
# still merge a report byte-identical to the clean run (DESIGN.md §19).
./target/release/pi3d faults "$cfg" $shard_flags --threads 2 \
    --shards 3 --journal "$shard_dir/three.journal" \
    > "$shard_dir/three.out" 2> "$shard_dir/three.err" &
shard_pid=$!
worker_pid=""
i=0
while [ -z "$worker_pid" ]; do
    i=$((i+1))
    if [ "$i" -gt 1200 ]; then
        echo "FAIL: no worker lease appeared" >&2
        kill "$shard_pid" 2>/dev/null || true
        exit 1
    fi
    if ! kill -0 "$shard_pid" 2>/dev/null; then
        echo "FAIL: sharded sweep finished before the SIGKILL" >&2
        exit 1
    fi
    for lease in "$shard_dir"/three.journal.shard*.lease; do
        [ -e "$lease" ] || continue
        worker_pid="$(sed -n 's/.*"pid":\([0-9]*\).*/\1/p' "$lease" | head -1)"
        [ -n "$worker_pid" ] && break
    done
    sleep 0.01
done
kill -9 "$worker_pid" 2>/dev/null || true
shard_status=0
wait "$shard_pid" || shard_status=$?
if [ "$shard_status" -ne 0 ]; then
    echo "FAIL: sharded sweep exited $shard_status" >&2
    cat "$shard_dir/three.err" >&2
    exit 1
fi
grep -q 'respawn' "$shard_dir/three.err"
diff "$shard_dir/one.out" "$shard_dir/three.out"
# The merged journals match byte for byte too (shard journals record
# units in completion order, so only the merged files are compared).
cmp "$shard_dir/one.journal" "$shard_dir/three.journal"
echo "shard smoke OK: worker $worker_pid SIGKILLed, respawned, reports and merged journals byte-identical"

echo "==> quarantine smoke (poison unit kills its worker repeatedly, exit 75)"
# The seeded chaos hook panics the worker that owns unit 5; after K
# deaths the unit is quarantined and every healthy unit still completes.
# Each run writes $1.out and $1.err and must exit 75 with 7 records.
poisoned_sweep() {
    poison_status=0
    PI3D_CHAOS_PANIC_UNITS="fault_sweep:5" \
        ./target/release/pi3d faults "$cfg" --levels 0.5 --trials 8 --grid 8 \
        --reads 0 --threads 2 --shards 2 --journal "$shard_dir/poison.journal" \
        > "$shard_dir/$1.out" 2> "$shard_dir/$1.err" || poison_status=$?
    if [ "$poison_status" -ne 75 ]; then
        echo "FAIL: poisoned sweep ($1) exited $poison_status, expected 75" >&2
        cat "$shard_dir/$1.err" >&2
        exit 1
    fi
    grep -q 'quarantined units' "$shard_dir/$1.err"
    records=$(( $(wc -l < "$shard_dir/poison.journal") - 1 ))
    if [ "$records" -ne 7 ]; then
        echo "FAIL: merged journal ($1) has $records healthy records, expected 7" >&2
        exit 1
    fi
}
poisoned_sweep poison
# A supervisor killed mid-append leaves a torn fragment in the quarantine
# sidecar; the rerun drops it and ends exactly as the first run did.
printf '{"unit":6,"ke' >> "$shard_dir/poison.journal.quarantine"
poisoned_sweep torn
diff "$shard_dir/poison.out" "$shard_dir/torn.out"
echo "quarantine smoke OK: unit 5 quarantined (exit 75), 7 healthy units merged, torn sidecar tolerated"

echo "==> trace smoke run (--trace-out + --progress on the optimize path)"
trace_out="$tmp/trace.json"
trace_err="$tmp/trace-err.log"
./target/release/pi3d optimize ddr3-off --threads 2 \
    --trace-out "$trace_out" --progress 2> "$trace_err"
grep -q '\[characterize\].*(100%)' "$trace_err"
grep -q 'wrote trace to' "$trace_err"
# The trace must be valid Chrome trace-event JSON carrying the expected
# phase slices, per-unit work slices, and thread-name metadata.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$trace_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
assert t["otherData"]["schema"] == "pi3d.trace.v1", t["otherData"]
events = t["traceEvents"]
names = {e["name"] for e in events if e.get("ph") == "X"}
assert "cmd:optimize" in names, sorted(names)[:20]
assert "characterize" in names, sorted(names)[:20]
assert any(n.startswith("characterize[") for n in names), sorted(names)[:20]
assert any(e.get("ph") == "M" and e["name"] == "thread_name" for e in events)
tids = {e["tid"] for e in events
        if e.get("ph") == "X" and e["name"].startswith("characterize[")}
assert len(tids) >= 2, f"work units all on one thread: {tids}"
print("trace OK:", len(events), "events,", len(names), "span names,",
      t["otherData"]["dropped_events"], "dropped")
PY
else
    grep -q '"pi3d.trace.v1"' "$trace_out"
    grep -q '"cmd:optimize"' "$trace_out"
    grep -q '"thread_name"' "$trace_out"
    echo "trace OK (grep check)"
fi
./target/release/pi3d trace "$trace_out" --top 8 | grep -q 'hottest spans by self time'
echo "trace analyzer OK"

echo "==> multigrid smoke run (optimize --precond mg vs jacobi)"
mg_dir="$tmp/mg"
mkdir "$mg_dir"
./target/release/pi3d optimize ddr3-off --threads 2 --precond mg \
    --metrics-out "$mg_dir/mg.json" > "$mg_dir/mg.out"
./target/release/pi3d optimize ddr3-off --threads 2 --precond jacobi \
    --metrics-out "$mg_dir/jacobi.json" > "$mg_dir/jacobi.out"
# The MG run must actually exercise the V-cycle (solver.mg.* telemetry),
# the Jacobi run must not, and the two must agree on the co-optimization
# answer: same design point, verified IR within solver tolerance.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$mg_dir" <<'PY'
import json, sys
d = sys.argv[1]
with open(f"{d}/mg.json") as f:
    mg = json.load(f)
with open(f"{d}/jacobi.json") as f:
    jac = json.load(f)
counters = mg["counters"]
assert float(counters.get("solver.mg.builds", 0)) > 0, counters
assert float(counters.get("solver.mg.cycles", 0)) > 0, counters
assert float(mg["gauges"]["solver.mg.levels"]) >= 2, mg["gauges"]
assert "solver.mg.cycles" not in jac["counters"], "jacobi run used MG?"

def result(path):
    with open(path) as f:
        lines = f.read().splitlines()
    best = next(l for l in lines if l.startswith("best at"))
    ir = next(float(l.split(":")[1].split()[0]) for l in lines
              if l.startswith("verified IR"))
    return best, ir
best_mg, ir_mg = result(f"{d}/mg.out")
best_jac, ir_jac = result(f"{d}/jacobi.out")
assert best_mg == best_jac, f"{best_mg!r} vs {best_jac!r}"
assert abs(ir_mg - ir_jac) < 0.05, f"IR mismatch: {ir_mg} vs {ir_jac} mV"
print(f"mg smoke OK: {int(float(counters['solver.mg.cycles']))} V-cycles,",
      f"verified IR {ir_mg} mV (jacobi {ir_jac} mV)")
PY
else
    grep -q '"solver.mg.cycles"' "$mg_dir/mg.json"
    diff "$mg_dir/mg.out" "$mg_dir/jacobi.out" > /dev/null
    echo "mg smoke OK (grep check)"
fi

echo "==> solver answers vs the benchmark's golden file (seed 7919)"
# Short runs of three benchmark workloads: every answer must match
# perfbench/golden.txt (1e-6 relative) and every solve repeat its
# iteration count, or the run reports incorrect. fine-mg solves the
# 8,192-node mesh with multigrid (IC(0) only as its smoother);
# serve-mixed builds IC(0) LUTs on default meshes and answers warm
# solves; dse solves all 4,320 coarse design points with IC(0), one
# cycle of about 20 s.
if command -v python3 > /dev/null 2>&1; then
    golden_out="$tmp/golden.log"
    for workload in fine-mg serve-mixed dse; do
        python3 perfbench/run.py --workload "$workload" --seed 7919 --seconds 2 \
            --trace 0 > "$golden_out"
        tail -n 1 "$golden_out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True and r["failed"] == 0, {k: r[k] for k in r if k != "metrics"}
print(sys.argv[1], "golden OK:", r["attempted"], "ops, 0 failed")
' "$workload"
    done
    # The short runs above time a sample of the golden keys; recompute
    # every answer with the perfbench binary run.py built (about 20 s)
    # and compare each key by perfbench's rule: integers exact, floats
    # within 1e-6 relative.
    "${CARGO_TARGET_DIR:-.bench_build}/release/perfbench" golden \
        --out "$tmp/golden.txt" 2> "$tmp/golden_all.log"
    python3 - perfbench/golden.txt "$tmp/golden.txt" <<'EOF'
import sys

def load(path):
    answers = {}
    for line in open(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        key, vals = line.split("\t", 1)
        answers[key] = [(v[0], int(v[2:]) if v[0] == "i" else float(v[2:]))
                        for v in vals.split(" ")]
    return answers

def agree(w, g):
    if len(w) != len(g):
        return False
    for (wk, wv), (gk, gv) in zip(w, g):
        if wk != gk:
            return False
        if wk == "i" and wv != gv:
            return False
        if wk == "f" and not (wv == gv or (wv != wv and gv != gv)
                              or abs(wv - gv) <= 1e-6 * max(abs(wv), abs(gv))):
            return False
    return True

want, got = load(sys.argv[1]), load(sys.argv[2])
bad = [k for k in sorted(set(want) | set(got))
       if k not in want or k not in got or not agree(want[k], got[k])]
assert not bad, f"{len(bad)} golden keys differ, first: {bad[:5]}"
same = open(sys.argv[1], "rb").read() == open(sys.argv[2], "rb").read()
print(f"golden OK: all {len(want)} keys agree;",
      "byte-identical to perfbench/golden.txt:", "yes" if same else "no")
EOF
else
    echo "golden check skipped (needs python3)"
fi

echo "==> serve smoke (warm-cache daemon, mixed batch twice, SIGINT drain)"
serve_dir="$tmp/serve"
mkdir "$serve_dir"
sock="$serve_dir/serve.sock"
./target/release/pi3d serve --listen "unix:$sock" --grid 8 --workers 2 \
    > "$serve_dir/serve.out" 2> "$serve_dir/serve.err" &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
    i=$((i+1))
    if [ "$i" -gt 1200 ]; then
        echo "FAIL: daemon never bound $sock" >&2
        cat "$serve_dir/serve.err" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "FAIL: daemon exited before binding" >&2
        cat "$serve_dir/serve.err" >&2
        exit 1
    fi
    sleep 0.05
done
# A mixed batch (solve + simulate), sent twice over separate
# connections. The second pass must be byte-identical — served from the
# warm cache — and the stats must show the hits.
mixed_batch() {
    ./target/release/pi3d call "unix:$sock" \
        '{"cmd":"solve","config":"benchmark = ddr3-off\n","state":"0-0-0-2"}' \
        '{"cmd":"simulate","config":"benchmark = ddr3-off\n","policy":"distr","reads":200}'
}
mixed_batch > "$serve_dir/cold.out"
mixed_batch > "$serve_dir/warm.out"
diff "$serve_dir/cold.out" "$serve_dir/warm.out"
./target/release/pi3d call "unix:$sock" '{"cmd":"stats"}' > "$serve_dir/stats.out"
if command -v python3 > /dev/null 2>&1; then
    python3 - "$serve_dir/stats.out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.loads(f.read())
assert r["outcome"]["status"] == "ok", r["outcome"]
cache = r["result"]["cache"]
assert int(cache["hits"]) > 0, f"no warm hits on second pass: {cache}"
assert int(cache["misses"]) > 0, cache
print("serve stats OK:", cache["hits"], "hits,", cache["misses"],
      "misses,", cache["bytes"], "cached bytes")
PY
else
    grep -q '"hits":"[1-9]' "$serve_dir/stats.out"
    echo "serve stats OK (grep check)"
fi
# SIGINT drains in-flight work and exits with the cancellation code.
kill -INT "$serve_pid"
serve_status=0
wait "$serve_pid" || serve_status=$?
if [ "$serve_status" -ne 130 ]; then
    echo "FAIL: interrupted daemon exited $serve_status, expected 130" >&2
    cat "$serve_dir/serve.err" >&2
    exit 1
fi
if [ -S "$sock" ]; then
    echo "FAIL: socket file left behind after SIGINT" >&2
    exit 1
fi
echo "serve smoke OK: warm batch byte-identical, SIGINT exit 130"

echo "==> serve chaos smoke (frame cap, health, call retries, SIGTERM drain)"
chaos_dir="$tmp/chaos"
mkdir "$chaos_dir"
chaos_sock="$chaos_dir/serve.sock"
./target/release/pi3d serve --listen "unix:$chaos_sock" --grid 8 \
    --workers 2 --max-frame-bytes 4096 \
    > "$chaos_dir/serve.out" 2> "$chaos_dir/serve.err" &
chaos_pid=$!
# No sleep-and-hope socket polling here: `pi3d call --retries` owns the
# race with seeded jittered backoff and connects once the daemon binds.
pad="xxxxxxxx"
for _ in 1 2 3 4 5 6 7 8 9 10; do pad="$pad$pad"; done # 8 KiB of padding
if ./target/release/pi3d call "unix:$chaos_sock" --retries 10 \
    "{\"cmd\":\"ping\",\"pad\":\"$pad\"}" \
    > "$chaos_dir/big.out" 2> "$chaos_dir/big.err"; then
    echo "FAIL: oversized frame was accepted past --max-frame-bytes" >&2
    exit 1
fi
grep -q '"stage":"frame"' "$chaos_dir/big.out"
grep -q '"exit_code":1' "$chaos_dir/big.out"
# The oversized frame killed that connection, not the server: a fresh
# connection still gets answers, and health reports ready.
./target/release/pi3d call "unix:$chaos_sock" --retries 5 \
    '{"cmd":"ping"}' '{"cmd":"health"}' > "$chaos_dir/health.out"
grep -q '"status":"ok"' "$chaos_dir/health.out"
grep -q '"state":"ready"' "$chaos_dir/health.out"
./target/release/pi3d call "unix:$chaos_sock" '{"cmd":"stats"}' \
    > "$chaos_dir/cstats.out"
if command -v python3 > /dev/null 2>&1; then
    python3 - "$chaos_dir/cstats.out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    r = json.loads(f.read())
assert r["outcome"]["status"] == "ok", r["outcome"]
result = r["result"]
breaker = result["breaker"]
assert int(breaker["opens"]) == 0, breaker
assert breaker["open_now"] == 0, breaker
shed = result["shed"]
assert shed["shedding"] is False, shed
assert int(result["panics_caught"]) == 0, result
print("chaos stats OK: breaker", breaker, "shed", shed)
PY
else
    grep -q '"breaker"' "$chaos_dir/cstats.out"
    grep -q '"shed"' "$chaos_dir/cstats.out"
    echo "chaos stats OK (grep check)"
fi
# SIGTERM mirrors the SIGINT drain but exits 143.
kill -TERM "$chaos_pid"
chaos_status=0
wait "$chaos_pid" || chaos_status=$?
if [ "$chaos_status" -ne 143 ]; then
    echo "FAIL: terminated daemon exited $chaos_status, expected 143" >&2
    cat "$chaos_dir/serve.err" >&2
    exit 1
fi
if [ -S "$chaos_sock" ]; then
    echo "FAIL: socket file left behind after SIGTERM" >&2
    exit 1
fi
echo "serve chaos smoke OK: frame cap enforced, server survived, SIGTERM exit 143"

echo "==> ci.sh passed"
