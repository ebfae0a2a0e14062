#!/bin/sh
# ci/check.sh — the repository's full static + test gate. Run from the
# repository root (or via `make check` once a Makefile exists):
#
#   ./ci/check.sh
#
# Steps, in order: formatting, vet, build, the full test suite, the
# race detector over the packages with real concurrency exposure, CLI
# smokes, a grep guard against second copies of the machine builder,
# the chain-name parser and the splitmix64 step, a check that the fault
# schedule imports no module package, a cross-check of `ildpvm -timing`
# against Fig. 8, the docs gate (EXPERIMENTS.md's generated block must
# match the committed report), the scale-2 report pin, and small-scale
# smokes of the JSON and text report paths.
set -eu

cd "$(dirname "$0")/.."

# The one server the script is running, if any. The EXIT trap kills it,
# so a failing step never leaves a server behind.
srv_pid=""
trap '[ -z "$srv_pid" ] || kill "$srv_pid" 2>/dev/null || true' EXIT
trap 'exit 1' INT TERM

# start_server OUT LOG PREFIX CMD... runs CMD in the background with its
# stdout in OUT and stderr in LOG, sets srv_pid, and sets port once OUT
# holds the line "PREFIX http://127.0.0.1:PORT". port stays empty if no
# such line appears within 5 s. The shell makes the redirect in the
# forked child, so OUT may not exist yet when the first poll runs.
start_server() {
    out=$1 log=$2 prefix=$3
    shift 3
    "$@" > "$out" 2> "$log" &
    srv_pid=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n "s#^$prefix *http://127\\.0\\.0\\.1:##p" "$out" 2>/dev/null || true)
        [ -n "$port" ] && return 0
        sleep 0.1
    done
}

# stop_server SIGNAL sends SIGNAL to the running server, reaps it and
# returns its exit status.
stop_server() {
    pid=$srv_pid
    srv_pid=""
    kill -"$1" "$pid"
    wait "$pid"
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== ildpanalyze (project linters)"
# The repository's own analyzers (internal/lint): sentinel errors flow
# through errors.Is / errors.As, and nil-safe metrics/prof hooks are
# called directly rather than behind redundant nil guards.
go run ./cmd/ildpanalyze ./internal/... ./cmd/...
# The opt-in godoc gate: every exported symbol of the cache surface
# (the per-VM cache and the shared persistent store), the stream
# envelope, the telemetry plane, the serving scheduler, the VM and its
# checkpoint, flight-bundle and metrics surfaces, and the experiment
# drivers and their report, and the shared fault schedule carries a doc
# comment.
go run ./cmd/ildpanalyze -select exporteddoc ./internal/tcache ./internal/fragstore \
    ./internal/codec ./internal/telemetry ./internal/serve \
    ./internal/vm ./internal/flight ./internal/checkpoint ./internal/metrics \
    ./internal/report ./internal/experiments ./internal/faultinject

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (vm, tcache, fragstore, metrics, telemetry, serve, mem, emu, iofs, trace, uarch)"
# mem and emu are here because mem.Memory holds mutable state on its
# read path (the last-page cache); iofs because Faulty promises to be
# safe for concurrent use (DESIGN.md §15.1); trace and uarch because a
# timed run feeds its model through trace.Pipe on a second goroutine.
go test -race ./internal/vm/... ./internal/tcache/... ./internal/fragstore/... \
    ./internal/metrics/... ./internal/telemetry/... ./internal/serve/... \
    ./internal/mem/... ./internal/emu/... ./internal/iofs/... \
    ./internal/trace/... ./internal/uarch/...

echo "== record pipe (timed runs against the synchronous path, under the race detector)"
# Piped and synchronous timed runs must give equal Outcomes, and a
# panic or error on either side must reach the caller and leave no
# goroutine behind (DESIGN.md §19).
go test -race -short -run 'TestPipe' ./internal/experiments/

echo "== warm translated-execution benchmark smoke (one iteration)"
# BenchmarkWarmExecution fails if the warm store misses; one iteration
# keeps the benchmark building and running.
go test -run '^$' -bench '^BenchmarkWarmExecution$' -benchtime 1x .

echo "== interpreter benchmark smoke (one iteration)"
# BenchmarkInterpreter is the interpreter's ns-per-V-instruction row;
# one iteration keeps it building and running.
go test -run '^$' -bench '^BenchmarkInterpreter$' -benchtime 1x .

echo "== interpreter inlining (fetch, memo and data-slot hit paths)"
# The interpreter's speed rests on the fetch slot's hit path
# (mem.FetchHit) and the decode memo's (emu.decodedHit) inlining into
# Step and FetchDecode, and both executors' quadword loads and stores
# on the data slot's (mem.Hit64, mem.PutHit64) inlining into execMemory
# and LoadMem/StoreMem. Losing any is silent: the build and every test
# still pass, only slower. The compiler's -m report names each inlined
# call.
inl=$(go build -gcflags=-m ./internal/emu 2>&1)
for call in 'mem.(*Memory).FetchHit' '(*CPU).decodedHit' \
    'mem.(*Memory).Hit64' 'mem.(*Memory).PutHit64'; do
    if ! printf '%s\n' "$inl" | grep -qF "inlining call to $call"; then
        echo "ci: $call is no longer inlined into internal/emu" >&2
        exit 1
    fi
done

echo "== executor inlining (visit-end count)"
# Translated code ends every fragment visit with one counter increment
# (tcache.Fragment.End), inlined into the executor's leave.
inl=$(go build -gcflags=-m ./internal/vm 2>&1)
if ! printf '%s\n' "$inl" | grep -qF 'inlining call to tcache.(*Fragment).End'; then
    echo "ci: tcache.(*Fragment).End is no longer inlined into internal/vm" >&2
    exit 1
fi

echo "== timing-model benchmark smoke (one iteration each)"
# BenchmarkTimingModelILDP and BenchmarkTimingModelOoO are the timed
# runs' ns-per-record rows (gzip on the ILDP and Original machines);
# one iteration keeps them building and running.
go test -run '^$' -bench '^BenchmarkTimingModel(ILDP|OoO)$' -benchtime 1x .

echo "== chaos smoke (short soak under the race detector)"
# A fixed-seed slice of the differential chaos oracle: fault-injected
# runs must stay bit-identical to the pure interpreter with the race
# detector watching the recovery paths. The full 50-seed sweep is
# `make chaos`; -short keeps this slice to a few seconds.
go test -race -short -run 'TestChaos|TestSelfHeal' ./internal/experiments/ ./internal/vm/
go run ./cmd/ildpchaos -seeds 4 -seed-base 1001 -machines ildp-modified

echo "== kill-and-resume smoke (short sweep under the race detector)"
# Fixed-seed kill-and-resume runs: preempt, checkpoint, restore into a
# fresh VM, and finish bit-identical to the uninterrupted oracle; and
# repeated preemptions of one resident VM, which must leave its Stats
# equal to an uninterrupted run's. The full 50-seed sweep is
# `make killresume`.
go test -race -short -run 'TestKillResume|TestStopHook|TestBudgetIs|TestResumeFrom|TestWatchdog|TestPreemptionInvisible' \
    ./internal/experiments/ ./internal/vm/
go run ./cmd/ildpchaos -kill -seeds 4 -seed-base 5001 -machines ildp-modified

echo "== ildpchaos -serve smoke (endless sweep with the telemetry plane)"
# An endless sweep (-seeds 0) serving the telemetry plane must expose
# nonzero vm_interp_insts samples, then stop on SIGTERM with exit 0 and
# its summary line. Serving must not change a finite sweep's stdout
# beyond the serving line.
mon_dir=$(mktemp -d)
go build -o "$mon_dir/ildpchaos" ./cmd/ildpchaos
start_server "$mon_dir/sweep.txt" "$mon_dir/sweep.log" 'telemetry: *serving on' \
    "$mon_dir/ildpchaos" -serve 127.0.0.1:0 -seeds 0
[ -n "$port" ] || {
    echo "ildpchaos -serve never reported its address:" >&2
    cat "$mon_dir/sweep.txt" "$mon_dir/sweep.log" >&2
    exit 1
}
mon_ok=0
for _ in $(seq 1 50); do
    metrics_out=$(curl -fsS "http://127.0.0.1:$port/metrics")
    if echo "$metrics_out" | awk '/^vm_interp_insts\{/ { if ($NF + 0 > 0) ok = 1 } END { exit ok ? 0 : 1 }'; then
        mon_ok=1
        break
    fi
    sleep 0.1
done
[ "$mon_ok" -eq 1 ] || {
    echo "ildpchaos -serve never exposed nonzero vm_interp_insts samples:" >&2
    echo "$metrics_out" >&2
    exit 1
}
stop_server TERM || {
    echo "ildpchaos -serve exited nonzero on SIGTERM:" >&2
    cat "$mon_dir/sweep.txt" "$mon_dir/sweep.log" >&2
    exit 1
}
grep -q "^chaos: [0-9]*/[0-9]* runs green on gzip" "$mon_dir/sweep.txt" || {
    echo "interrupted ildpchaos -serve printed no summary line:" >&2
    cat "$mon_dir/sweep.txt" >&2
    exit 1
}
"$mon_dir/ildpchaos" -seeds 4 -v > "$mon_dir/plain.txt"
"$mon_dir/ildpchaos" -seeds 4 -v -serve 127.0.0.1:0 2> /dev/null \
    | grep -v '^telemetry: *serving on ' > "$mon_dir/served.txt"
cmp "$mon_dir/plain.txt" "$mon_dir/served.txt" || {
    echo "ildpchaos -serve changed the sweep's output:" >&2
    diff "$mon_dir/plain.txt" "$mon_dir/served.txt" >&2 || true
    exit 1
}
rm -rf "$mon_dir"

echo "== instruction decoder fuzz (5s)"
# Every word either decodes to an operation whose canonical re-encoding
# decodes back to the same instruction and is a fixed point, or decodes
# to OpInvalid/OpUnsupported and is refused by the encoder.
go test -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/alpha/

echo "== checkpoint decoder fuzz (5s)"
# The fuzz invariant: arbitrary bytes either decode to a state whose
# re-encoding is byte-identical, or fail with a typed error — never a
# panic or a half-restored state.
go test -run='^$' -fuzz=FuzzCheckpointDecode -fuzztime=5s ./internal/checkpoint/

echo "== fragstore decoder fuzz (5s)"
# Arbitrary bytes either decode to a store whose re-encoding is
# byte-identical (when nothing was dropped), or fail with a typed
# error — never a panic, and survivors always re-load drop-free.
go test -run='^$' -fuzz=FuzzFragstoreDecode -fuzztime=5s ./internal/fragstore/

echo "== flight bundle decoder fuzz (5s)"
# Arbitrary bytes either decode to a bundle whose re-encoding is
# byte-identical, or fail with a typed *codec.Error — never a panic.
go test -run='^$' -fuzz=FuzzFlightDecode -fuzztime=5s ./internal/flight/

echo "== stream envelope fuzz (5s)"
# Sealed, damaged and scripted streams through codec.Open and the
# sticky Reader: the latched error is always the first failure in
# stream order, checked against an independent model.
go test -run='^$' -fuzz=FuzzOpen -fuzztime=5s ./internal/codec/

echo "== semcheck fuzz (5s)"
# Arbitrary decodable superblocks through the real translator
# (straightening included) must all prove semantically equivalent.
go test -run='^$' -fuzz=FuzzSemCheck -fuzztime=5s ./internal/semcheck/

echo "== translate/iverify fuzz (5s)"
# Arbitrary decodable instruction sequences through the translator:
# every translation that succeeds must pass the static verifier.
go test -run='^$' -fuzz=FuzzTranslate -fuzztime=5s ./internal/iverify/

echo "== ildplint -sem smoke (reconstruct + prove installed fragments)"
sem_out=$(go run ./cmd/ildplint -workload gzip -form modified -sem)
echo "$sem_out" | grep -q " fragments proved, 0 with counterexamples" || {
    echo "ildplint -sem did not prove the gzip cache clean:" >&2
    echo "$sem_out" >&2
    exit 1
}

echo "== ildpvm checkpoint/resume round trip"
# A budget-preempted run (exit status 3) checkpoints its state; the
# resumed run must report the same final exit status and console as an
# uninterrupted run of the same workload.
ckpt_dir=$(mktemp -d)
go build -o "$ckpt_dir/ildpvm" ./cmd/ildpvm
rc=0
"$ckpt_dir/ildpvm" -workload gzip -max 100000 \
    -checkpoint "$ckpt_dir/state.ckpt" > "$ckpt_dir/seg1.txt" || rc=$?
[ "$rc" -eq 3 ] || {
    echo "preempted ildpvm run exited $rc, want the distinct status 3" >&2
    exit 1
}
grep -q "^preempted: *budget at V-PC" "$ckpt_dir/seg1.txt" || {
    echo "preempted run did not report the budget preemption:" >&2
    cat "$ckpt_dir/seg1.txt" >&2
    exit 1
}
"$ckpt_dir/ildpvm" -resume "$ckpt_dir/state.ckpt" > "$ckpt_dir/seg2.txt"
"$ckpt_dir/ildpvm" -workload gzip > "$ckpt_dir/full.txt"
resumed=$(grep '^exit status' "$ckpt_dir/seg2.txt")
full=$(grep '^exit status' "$ckpt_dir/full.txt")
if [ "$resumed" != "$full" ]; then
    echo "resumed final state differs from uninterrupted run:" >&2
    echo "  resumed: $resumed" >&2
    echo "  full:    $full" >&2
    exit 1
fi
echo "== ildpvm cache save -> reload -> re-verify round trip"
# A cold run saves the fragment store; the warm run must load it, put
# every fragment back through the verifier and the symbolic prover,
# and then retranslate nothing ("translation cost: 0 work units").
"$ckpt_dir/ildpvm" -workload gzip -cachefile "$ckpt_dir/gzip.fs" \
    -cache-stats > "$ckpt_dir/cold.txt"
grep -q "^cache file: " "$ckpt_dir/cold.txt" || {
    echo "cold run did not save a cache file:" >&2
    cat "$ckpt_dir/cold.txt" >&2
    exit 1
}
"$ckpt_dir/ildpvm" -workload gzip -cachefile "$ckpt_dir/gzip.fs" \
    -cache-stats -cache-prove > "$ckpt_dir/warm.txt"
grep -q "0 dropped (crc 0, key 0, malformed 0, verify 0, prove 0)" "$ckpt_dir/warm.txt" || {
    echo "warm run dropped loaded fragments:" >&2
    cat "$ckpt_dir/warm.txt" >&2
    exit 1
}
grep -q "^translation cost: *0 work units" "$ckpt_dir/warm.txt" || {
    echo "warm run retranslated instead of hitting the loaded store:" >&2
    cat "$ckpt_dir/warm.txt" >&2
    exit 1
}
warm_exit=$(grep '^exit status' "$ckpt_dir/warm.txt")
full_exit=$(grep '^exit status' "$ckpt_dir/full.txt")
if [ "$warm_exit" != "$full_exit" ]; then
    echo "warm-cache final state differs from the store-less run:" >&2
    echo "  warm: $warm_exit" >&2
    echo "  full: $full_exit" >&2
    exit 1
fi
echo "== ildpvm straightened cache save -> reload -> re-prove round trip"
# The structural rules skip straightened code, so with -cache-prove the
# prover is the check every loaded straightened entry meets: the warm
# load must prove as many entries as it loads, more than zero, and drop
# none.
"$ckpt_dir/ildpvm" -workload gzip -form straighten \
    -cachefile "$ckpt_dir/gzip-straight.fs" -cache-stats > "$ckpt_dir/cold-straight.txt"
"$ckpt_dir/ildpvm" -workload gzip -form straighten \
    -cachefile "$ckpt_dir/gzip-straight.fs" -cache-stats -cache-prove > "$ckpt_dir/warm-straight.txt"
grep '^cache load:' "$ckpt_dir/warm-straight.txt" | awk '{
    for (i = 2; i <= NF; i++) {
        if ($i == "loaded") loaded = $(i - 1) + 0
        if ($i == "proved),") proved = $(i - 1) + 0
        if ($i == "dropped") dropped = $(i - 1) + 0
    }
    ok = loaded > 0 && proved == loaded && dropped == 0
} END { exit ok ? 0 : 1 }' || {
    echo "warm straightened load did not prove every entry:" >&2
    cat "$ckpt_dir/warm-straight.txt" >&2
    exit 1
}
echo "== ildpvm serve smoke (telemetry plane over HTTP)"
# A serving run must report its address on stdout, answer the health
# probes, expose live nonzero vm.* samples in Prometheus text format,
# and replay at least one SSE metrics event — then shut down cleanly on
# SIGTERM.
start_server "$ckpt_dir/serve.txt" "$ckpt_dir/serve.log" 'telemetry: *serving on' \
    "$ckpt_dir/ildpvm" -workload gzip -serve 127.0.0.1:0
[ -n "$port" ] || {
    echo "serving ildpvm never reported its address:" >&2
    cat "$ckpt_dir/serve.txt" "$ckpt_dir/serve.log" >&2
    exit 1
}
curl -fsS "http://127.0.0.1:$port/healthz" > /dev/null
curl -fsS "http://127.0.0.1:$port/readyz" > /dev/null
serve_ok=0
for _ in $(seq 1 50); do
    metrics_out=$(curl -fsS "http://127.0.0.1:$port/metrics?wait=100")
    if echo "$metrics_out" | awk '/^vm_interp_insts\{/ { if ($NF + 0 > 0) ok = 1 } END { exit ok ? 0 : 1 }'; then
        serve_ok=1
        break
    fi
    sleep 0.1
done
[ "$serve_ok" -eq 1 ] || {
    echo "serving ildpvm never exposed nonzero vm_interp_insts samples:" >&2
    echo "$metrics_out" >&2
    exit 1
}
sse_out=$(curl -sN -m 2 "http://127.0.0.1:$port/events?replay=4" || true)
echo "$sse_out" | grep -q "^event: metrics" || {
    echo "SSE replay returned no metrics events:" >&2
    echo "$sse_out" >&2
    exit 1
}
stop_server TERM 2>/dev/null || true
rm -rf "$ckpt_dir"

echo "== ildpserve smoke (submit two guests, drain mid-run, resume)"
# The serving scheduler end to end over real HTTP and real signals:
# two guests submitted to a fresh server must finish with exit status
# and total retired V-instruction count identical to uninterrupted
# ildpvm runs; a long guest still in flight when SIGTERM lands must be
# preempted at a V-instruction boundary, checkpointed into the spill
# directory, re-admitted by a successor server via -resume-dir, and
# still finish identical to its uninterrupted run.
srv_dir=$(mktemp -d)
go build -o "$srv_dir/ildpserve" ./cmd/ildpserve
go build -o "$srv_dir/ildpvm" ./cmd/ildpvm
go build -o "$srv_dir/ildpload" ./cmd/ildpload

# jfield FILE KEY -> value of the first `"KEY": value` in indented JSON.
jfield() {
    sed -n 's/^ *"'"$2"'": "\{0,1\}\([^",]*\)"\{0,1\},\{0,1\}$/\1/p' "$1" | head -n 1
}
# vmline WORKLOAD SCALE -> "exitstatus vinsts" from an uninterrupted run.
vmline() {
    "$srv_dir/ildpvm" -workload "$1" -scale "$2" | awk '
        /^exit status:/ { sub(",", "", $3); ex = $3 }
        /^V-insts total:/ { v = $3 }
        END { print ex, v }'
}

start_server "$srv_dir/srv1.txt" "$srv_dir/srv1.log" 'serving:' \
    "$srv_dir/ildpserve" -addr 127.0.0.1:0 -quantum 20000 -spill "$srv_dir/spill"
[ -n "$port" ] || {
    echo "ildpserve never reported its address:" >&2
    cat "$srv_dir/srv1.txt" "$srv_dir/srv1.log" >&2
    exit 1
}
surl="http://127.0.0.1:$port"

for w in gap mcf; do
    curl -fsS -X POST "$surl/sessions?workload=$w" > "$srv_dir/sub.json"
    sid=$(jfield "$srv_dir/sub.json" id)
    for _ in $(seq 1 100); do
        curl -fsS "$surl/sessions/$sid?wait=2000" > "$srv_dir/view.json"
        st=$(jfield "$srv_dir/view.json" state)
        case "$st" in queued|running|ready) continue ;; esac
        break
    done
    [ "$st" = "done" ] || {
        echo "served $w session ended in state $st:" >&2
        cat "$srv_dir/view.json" >&2
        exit 1
    }
    got="$(jfield "$srv_dir/view.json" exit_status) $(jfield "$srv_dir/view.json" v_insts)"
    want=$(vmline "$w" 1)
    if [ "$got" != "$want" ]; then
        echo "served $w diverged from uninterrupted ildpvm run:" >&2
        echo "  served (exit v-insts): $got" >&2
        echo "  ildpvm (exit v-insts): $want" >&2
        exit 1
    fi
    # One identity per guest: /vms/{id} is the same guest as /sessions/{id}.
    curl -fsS "$surl/vms/$sid" > "$srv_dir/vm.json"
    if [ "$(jfield "$srv_dir/vm.json" id)" != "$sid" ] ||
        [ "$(jfield "$srv_dir/vm.json" workload)" != "$(jfield "$srv_dir/view.json" name)" ]; then
        echo "/vms/$sid does not name the guest /sessions/$sid names:" >&2
        cat "$srv_dir/vm.json" "$srv_dir/view.json" >&2
        exit 1
    fi
done
# The scheduler's series are process-level: unlabelled, and no
# pseudo-session stands in for them on /vms.
curl -fsS "$surl/metrics" > "$srv_dir/metrics.txt"
curl -fsS "$surl/vms" > "$srv_dir/vms.json"
if ! grep -q '^serve_admitted ' "$srv_dir/metrics.txt" || grep -q '"scheduler"' "$srv_dir/vms.json"; then
    echo "scheduler series labelled or a scheduler VM listed:" >&2
    grep '^serve_admitted' "$srv_dir/metrics.txt" >&2
    cat "$srv_dir/vms.json" >&2
    exit 1
fi

# A long guest: SIGTERM must land while it is still mid-run.
curl -fsS -X POST "$surl/sessions?workload=vpr&scale=50" > "$srv_dir/sub.json"
vid=$(jfield "$srv_dir/sub.json" id)
started=0
for _ in $(seq 1 100); do
    curl -fsS "$surl/sessions/$vid" > "$srv_dir/view.json"
    if [ "$(jfield "$srv_dir/view.json" quanta)" -ge 1 ] 2>/dev/null; then
        started=1
        break
    fi
    sleep 0.05
done
[ "$started" -eq 1 ] || {
    echo "vpr session never started a quantum" >&2
    exit 1
}
stop_server TERM || {
    echo "draining ildpserve exited nonzero:" >&2
    cat "$srv_dir/srv1.txt" "$srv_dir/srv1.log" >&2
    exit 1
}
grep -q "^drained: *1 sessions spilled" "$srv_dir/srv1.txt" || {
    echo "drain did not spill the in-flight session:" >&2
    cat "$srv_dir/srv1.txt" >&2
    exit 1
}

# Successor: re-admit the spilled session and run it to completion.
start_server "$srv_dir/srv2.txt" "$srv_dir/srv2.log" 'serving:' \
    "$srv_dir/ildpserve" -addr 127.0.0.1:0 -quantum 20000 -spill "$srv_dir/spill" \
    -resume-dir "$srv_dir/spill"
[ -n "$port" ] || {
    echo "successor ildpserve never reported its address:" >&2
    cat "$srv_dir/srv2.txt" "$srv_dir/srv2.log" >&2
    exit 1
}
surl="http://127.0.0.1:$port"
grep -q "^resumed: *1 sessions (0 corrupt)" "$srv_dir/srv2.txt" || {
    echo "successor did not resume the spilled session:" >&2
    cat "$srv_dir/srv2.txt" >&2
    exit 1
}
curl -fsS "$surl/sessions" > "$srv_dir/list.json"
rid=$(jfield "$srv_dir/list.json" id)
for _ in $(seq 1 200); do
    curl -fsS "$surl/sessions/$rid?wait=2000" > "$srv_dir/view.json"
    st=$(jfield "$srv_dir/view.json" state)
    case "$st" in queued|running|ready) continue ;; esac
    break
done
[ "$st" = "done" ] || {
    echo "resumed session ended in state $st:" >&2
    cat "$srv_dir/view.json" >&2
    exit 1
}
got="$(jfield "$srv_dir/view.json" exit_status) $(jfield "$srv_dir/view.json" v_insts)"
want=$(vmline vpr 50)
if [ "$got" != "$want" ]; then
    echo "drained+resumed vpr diverged from uninterrupted ildpvm run:" >&2
    echo "  served (exit v-insts): $got" >&2
    echo "  ildpvm (exit v-insts): $want" >&2
    exit 1
fi
# A verified load drive through the successor: 24 sessions over 8
# clients, every 8th final checkpoint compared against the interpreter
# oracle (ildpload exits nonzero on any divergence).
"$srv_dir/ildpload" -addr "127.0.0.1:$port" -sessions 24 -clients 8 -verify 8 \
    > "$srv_dir/load.txt" || {
    echo "ildpload against the successor ildpserve failed:" >&2
    cat "$srv_dir/load.txt" >&2
    exit 1
}
grep -q "^verified: *3 of 24 final states" "$srv_dir/load.txt" || {
    echo "ildpload did not verify its sampled sessions:" >&2
    cat "$srv_dir/load.txt" >&2
    exit 1
}
# Retention: the successor has finished 25 guests. The plane keeps only
# the last 8 finished on /vms, while /sessions still answers for all.
curl -fsS "$surl/vms" > "$srv_dir/vms.json"
curl -fsS "$surl/sessions" > "$srv_dir/list.json"
nvms=$(grep -c '"id":' "$srv_dir/vms.json" || true)
nsess=$(grep -c '"id":' "$srv_dir/list.json" || true)
if [ "$nvms" -gt 8 ] || [ "$nsess" -ne 25 ]; then
    echo "retention: /vms lists $nvms guests (want at most 8), /sessions $nsess (want 25)" >&2
    exit 1
fi
stop_server TERM 2>/dev/null || true
rm -rf "$srv_dir"

echo "== disk-chaos smoke (ildpserve under injected ENOSPC on the spill path)"
# Every spill write fails with injected ENOSPC (-io-chaos rate 1).
# The server must keep serving healthy guests bit-identical to their
# uninterrupted runs, degrade each failed persistence operation into a
# typed, logged fault, and still complete a SIGTERM drain with exit 0
# — the in-flight session becomes a typed failure, not a hang and not
# a torn file.
chaos_dir=$(mktemp -d)
go build -o "$chaos_dir/ildpserve" ./cmd/ildpserve
go build -o "$chaos_dir/ildpvm" ./cmd/ildpvm
go build -o "$chaos_dir/ildpchaos" ./cmd/ildpchaos
vmline() {
    "$chaos_dir/ildpvm" -workload "$1" -scale "$2" | awk '
        /^exit status:/ { sub(",", "", $3); ex = $3 }
        /^V-insts total:/ { v = $3 }
        END { print ex, v }'
}
start_server "$chaos_dir/srv.txt" "$chaos_dir/srv.log" 'serving:' \
    "$chaos_dir/ildpserve" -addr 127.0.0.1:0 -quantum 20000 -max-resident 1 \
    -spill "$chaos_dir/spill" -io-chaos 7 -io-chaos-rate 1 -io-chaos-kinds enospc
[ -n "$port" ] || {
    echo "chaos ildpserve never reported its address:" >&2
    cat "$chaos_dir/srv.txt" "$chaos_dir/srv.log" >&2
    exit 1
}
surl="http://127.0.0.1:$port"
# A long guest to be mid-flight at SIGTERM...
curl -fsS -X POST "$surl/sessions?workload=vpr&scale=50" > "$chaos_dir/sub.json"
vid=$(jfield "$chaos_dir/sub.json" id)
for _ in $(seq 1 100); do
    curl -fsS "$surl/sessions/$vid" > "$chaos_dir/view.json"
    [ "$(jfield "$chaos_dir/view.json" quanta)" -ge 1 ] 2>/dev/null && break
    sleep 0.05
done
# ...and a healthy sibling that must finish exactly despite the chaos.
curl -fsS -X POST "$surl/sessions?workload=mcf" > "$chaos_dir/sub.json"
sid=$(jfield "$chaos_dir/sub.json" id)
for _ in $(seq 1 100); do
    curl -fsS "$surl/sessions/$sid?wait=2000" > "$chaos_dir/view.json"
    st=$(jfield "$chaos_dir/view.json" state)
    case "$st" in queued|running|ready) continue ;; esac
    break
done
[ "$st" = "done" ] || {
    echo "healthy mcf session under disk chaos ended in state $st:" >&2
    cat "$chaos_dir/view.json" "$chaos_dir/srv.log" >&2
    exit 1
}
got="$(jfield "$chaos_dir/view.json" exit_status) $(jfield "$chaos_dir/view.json" v_insts)"
want=$(vmline mcf 1)
if [ "$got" != "$want" ]; then
    echo "mcf under disk chaos diverged from uninterrupted ildpvm run:" >&2
    echo "  served (exit v-insts): $got" >&2
    echo "  ildpvm (exit v-insts): $want" >&2
    exit 1
fi
stop_server TERM || {
    echo "draining chaos ildpserve exited nonzero:" >&2
    cat "$chaos_dir/srv.txt" "$chaos_dir/srv.log" >&2
    exit 1
}
grep -q "^drained: *0 sessions spilled" "$chaos_dir/srv.txt" || {
    echo "full-ENOSPC drain claimed to spill sessions:" >&2
    cat "$chaos_dir/srv.txt" >&2
    exit 1
}
grep -q 'persistence fault.*drain spill' "$chaos_dir/srv.log" || {
    echo "drain under ENOSPC logged no typed persistence fault:" >&2
    cat "$chaos_dir/srv.log" >&2
    exit 1
}

echo "== memory-bomb smoke (typed resource kill, sibling bit-identical, bundle replay)"
# The membomb guest strides stores across fresh pages; under -max-pages
# it must die with a precise typed resource trap (exit status 2), its
# failure must be recorded as a flight bundle, and ildpchaos -replay
# must re-execute that bundle to the bit-identical failure.
rc=0
"$chaos_dir/ildpvm" -workload membomb -max-pages 64 \
    -bundle "$chaos_dir/bomb.bundle" \
    > "$chaos_dir/bomb.txt" 2> "$chaos_dir/bomb.log" || rc=$?
[ "$rc" -eq 2 ] || {
    echo "governed membomb exited $rc, want the trap status 2" >&2
    cat "$chaos_dir/bomb.txt" "$chaos_dir/bomb.log" >&2
    exit 1
}
grep -q "memory resource fault" "$chaos_dir/bomb.log" || {
    echo "governed membomb died without a typed resource fault:" >&2
    cat "$chaos_dir/bomb.log" >&2
    exit 1
}
"$chaos_dir/ildpchaos" -replay "$chaos_dir/bomb.bundle" > "$chaos_dir/replay.txt" || {
    echo "bundle replay diverged from the recorded failure:" >&2
    cat "$chaos_dir/replay.txt" >&2
    exit 1
}
grep -q "reproduced the resource failure bit-identically" "$chaos_dir/replay.txt" || {
    echo "bundle replay did not report the bit-identical verdict:" >&2
    cat "$chaos_dir/replay.txt" >&2
    exit 1
}
# The served flavour: the bomb is killed typed while a sibling tenant's
# guest finishes bit-identical to its oracle, and the server records a
# replayable bundle for the kill.
start_server "$chaos_dir/gov.txt" "$chaos_dir/gov.log" 'serving:' \
    "$chaos_dir/ildpserve" -addr 127.0.0.1:0 -quantum 10000 -max-pages 64 \
    -bundle-dir "$chaos_dir/bundles"
[ -n "$port" ] || {
    echo "governed ildpserve never reported its address:" >&2
    cat "$chaos_dir/gov.txt" "$chaos_dir/gov.log" >&2
    exit 1
}
surl="http://127.0.0.1:$port"
curl -fsS -X POST "$surl/sessions?workload=membomb&tenant=bomber" > "$chaos_dir/sub.json"
bid=$(jfield "$chaos_dir/sub.json" id)
curl -fsS -X POST "$surl/sessions?workload=gap&tenant=calm" > "$chaos_dir/sub.json"
gid=$(jfield "$chaos_dir/sub.json" id)
for _ in $(seq 1 100); do
    curl -fsS "$surl/sessions/$bid?wait=2000" > "$chaos_dir/bomb.json"
    st=$(jfield "$chaos_dir/bomb.json" state)
    case "$st" in queued|running|ready) continue ;; esac
    break
done
[ "$st" = "failed" ] || {
    echo "served membomb ended in state $st, want failed:" >&2
    cat "$chaos_dir/bomb.json" >&2
    exit 1
}
grep -q '"error": "resource:' "$chaos_dir/bomb.json" || {
    echo "served membomb failure is not a typed resource kill:" >&2
    cat "$chaos_dir/bomb.json" >&2
    exit 1
}
for _ in $(seq 1 100); do
    curl -fsS "$surl/sessions/$gid?wait=2000" > "$chaos_dir/gap.json"
    st=$(jfield "$chaos_dir/gap.json" state)
    case "$st" in queued|running|ready) continue ;; esac
    break
done
[ "$st" = "done" ] || {
    echo "sibling gap session ended in state $st:" >&2
    cat "$chaos_dir/gap.json" >&2
    exit 1
}
got="$(jfield "$chaos_dir/gap.json" exit_status) $(jfield "$chaos_dir/gap.json" v_insts)"
want=$(vmline gap 1)
if [ "$got" != "$want" ]; then
    echo "sibling gap diverged from uninterrupted ildpvm run:" >&2
    echo "  served (exit v-insts): $got" >&2
    echo "  ildpvm (exit v-insts): $want" >&2
    exit 1
fi
[ -f "$chaos_dir/bundles/$bid.bundle" ] || {
    echo "governed server recorded no bundle for the resource kill" >&2
    exit 1
}
"$chaos_dir/ildpchaos" -replay "$chaos_dir/bundles/$bid.bundle" > "$chaos_dir/replay2.txt" || {
    echo "served kill's bundle replay diverged:" >&2
    cat "$chaos_dir/replay2.txt" >&2
    exit 1
}
stop_server TERM 2>/dev/null || true
rm -rf "$chaos_dir"

echo "== one home per run decision (grep guard)"
# The timing models are built only by the machine builder in
# internal/experiments (the public facade, the examples and the
# benchmark drive them directly), chaining-mode names are parsed only
# in internal/translate, and the splitmix64 step behind every fault and
# kill schedule is faultinject.Rand. A copy anywhere else fails the gate.
model_copies=$(grep -rn --include='*.go' -E 'uarch\.New(OoO|ILDP)\(' . | grep -v '_test\.go:' \
    | grep -v -E '^\./(internal/experiments/|accdbt\.go:|examples/|bench/|\.bench_build/)' || true)
chain_copies=$(grep -rn --include='*.go' 'case "sw_pred' . | grep -v '_test\.go:' \
    | grep -v -E '^\./(internal/translate/|\.bench_build/)' || true)
rng_copies=$(grep -rn --include='*.go' -E '\+= 0x9E3779B97F4A7C15' . | grep -v '_test\.go:' \
    | grep -v -E '^\./(internal/faultinject/schedule\.go:|bench/|\.bench_build/)' || true)
if [ -n "$model_copies$chain_copies$rng_copies" ]; then
    echo "timing models, chain names or the splitmix64 step handled outside their one home:" >&2
    printf '%s\n%s\n%s\n' "$model_copies" "$chain_copies" "$rng_copies" >&2
    exit 1
fi

echo "== the fault schedule stands alone (faultinject imports no module package)"
# internal/faultinject is the one seeded fault schedule both chaos
# planes draw from; iofs imports it, so it must not pull in the VM or
# any other package of this module.
fi_deps=$(go list -deps ./internal/faultinject | grep '^github.com/ildp/accdbt/' \
    | grep -v -x 'github.com/ildp/accdbt/internal/faultinject' || true)
if [ -n "$fi_deps" ]; then
    echo "internal/faultinject imports module packages:" >&2
    echo "$fi_deps" >&2
    exit 1
fi

echo "== ildpvm -timing agrees with Fig. 8, and reports no NaN"
# ildpvm builds its timing models with the same machine builder as the
# paper tables, so at scale 1 its gzip IPCs must equal Fig. 8's
# gzip row: straightened V-IPC for -form straighten, ILDP-modified
# V-IPC and native I-ISA IPC for the default form. A run preempted
# before it retires anything must still print numbers, not NaN.
vm_dir=$(mktemp -d)
go build -o "$vm_dir/ildpvm" ./cmd/ildpvm
go build -o "$vm_dir/ildpbench" ./cmd/ildpbench
fig8_gzip=$("$vm_dir/ildpbench" -experiment=fig8 -scale=1 | awk '$1 == "gzip"')
want_straight=$(echo "$fig8_gzip" | awk '{ print $3 }')
want_modified=$(echo "$fig8_gzip" | awk '{ print $5, $6 }')
# vm_ipc ARGS... -> "V-IPC native-IPC" from ildpvm -workload gzip -timing.
vm_ipc() {
    "$vm_dir/ildpvm" -workload gzip -timing "$@" \
        | sed -n 's/^  cycles [0-9]*, V-IPC \([0-9.]*\), native IPC \([0-9.]*\)$/\1 \2/p'
}
got_modified=$(vm_ipc)
got_straight=$(vm_ipc -form straighten | cut -d' ' -f1)
if [ -z "$want_modified" ] || [ "$got_modified" != "$want_modified" ] \
    || [ "$got_straight" != "$want_straight" ]; then
    echo "ildpvm -timing disagrees with ildpbench -experiment=fig8 on gzip:" >&2
    echo "  modified (V-IPC native): ildpvm '$got_modified', fig8 '$want_modified'" >&2
    echo "  straightened V-IPC:      ildpvm '$got_straight', fig8 '$want_straight'" >&2
    exit 1
fi
nan_out=$("$vm_dir/ildpvm" -workload gzip -deadline 1ns) || true
case "$nan_out" in
*NaN*)
    echo "ildpvm -deadline 1ns printed NaN:" >&2
    echo "$nan_out" >&2
    exit 1
    ;;
esac
rm -rf "$vm_dir"

echo "== docs gate (ildpreport -check)"
go run ./cmd/ildpreport -check

echo "== scale-2 report pin (ildpbench -experiment=all -scale=2)"
# The committed report must regenerate byte-identically, apart from its
# wall-clock "timings" block, which is cut from both sides.
pin_dir=$(mktemp -d)
go run ./cmd/ildpbench -experiment=all -scale=2 -json > "$pin_dir/scale2.json"
sed '/"timings"/,$d' reports/experiments-scale2.json > "$pin_dir/want.json"
sed '/"timings"/,$d' "$pin_dir/scale2.json" > "$pin_dir/got.json"
diff "$pin_dir/want.json" "$pin_dir/got.json" || {
    echo "ildpbench -experiment=all -scale=2 no longer matches reports/experiments-scale2.json" >&2
    exit 1
}
rm -rf "$pin_dir"

echo "== json report smoke (scale-1 table2)"
go run ./cmd/ildpbench -experiment=table2 -scale=1 -json \
    | go run ./cmd/ildpreport -validate -in -

echo "== text report smoke (scale-1 fig5, unknown experiment)"
# Text mode renders the same report as -json: a titled table with its
# aggregate row. An unknown experiment is a usage error (exit 2).
bench_dir=$(mktemp -d)
go build -o "$bench_dir/ildpbench" ./cmd/ildpbench
fig5_out=$("$bench_dir/ildpbench" -experiment=fig5 -scale=1)
echo "$fig5_out" | grep -q "^Figure 5\." && echo "$fig5_out" | grep -q "^Avg\." || {
    echo "ildpbench text mode lost the Figure 5 title or its Avg. row:" >&2
    echo "$fig5_out" >&2
    exit 1
}
rc=0
"$bench_dir/ildpbench" -experiment=bogus 2> /dev/null || rc=$?
[ "$rc" -eq 2 ] || {
    echo "ildpbench -experiment=bogus exited $rc, want the usage status 2" >&2
    exit 1
}
rm -rf "$bench_dir"

echo "== profiler smoke (ildpprof selfcheck + trace schema)"
# -selfcheck verifies cycle conservation against the timing model, that
# the hot table is sorted, and that the exported Perfetto JSON passes
# schema validation (non-empty spans, balanced flows).
prof_out=$(go run ./cmd/ildpprof -workload gzip -selfcheck -top 5)
echo "$prof_out" | grep -q "selfcheck: cycle conservation and trace schema OK" || {
    echo "ildpprof selfcheck failed:" >&2
    echo "$prof_out" >&2
    exit 1
}
echo "$prof_out" | awk '/^ *[0-9]+ +0x/ { rows++ } END { exit rows > 0 ? 0 : 1 }' || {
    echo "ildpprof hot-fragment table is empty:" >&2
    echo "$prof_out" >&2
    exit 1
}

echo "check: all clean"
