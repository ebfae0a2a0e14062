# Convenience targets; ci/check.sh is the canonical gate.

.PHONY: build test check lint-example semcheck experiments profile chaos killresume fragstore telemetry monitor serve

build:
	go build ./...

test:
	go test ./...

check:
	./ci/check.sh

# Demonstrate the fragment linter on a workload (exit 0 = all invariants hold).
lint-example:
	go run ./cmd/ildplint -workload gzip -form basic -chain sw_pred.ras

# Prove every fragment the 12 workloads translate (all three machine
# forms) equivalent to its source superblock, then run the repository's
# own Go linters over the tree.
semcheck:
	go test -run 'TestWorkloadsProveAll|TestSemanticMutationsRejected' ./internal/semcheck/
	go run ./cmd/ildpanalyze ./internal/... ./cmd/...

# Regenerate the committed experiment report, EXPERIMENTS.md's generated
# block, and the BENCH_experiments.json trajectory (~12s of simulation).
experiments:
	go run ./cmd/ildpbench -experiment=all -scale=2 -json > reports/experiments-scale2.json
	go run ./cmd/ildpreport -write

# Profile a workload end to end: hot-fragment table on stdout, Perfetto
# timeline and folded flamegraph stacks under reports/.
profile:
	go run ./cmd/ildpprof -workload gzip -selfcheck -top 20 \
		-trace reports/gzip-trace.json -folded reports/gzip.folded

# Sweep the differential chaos oracle: 50 seeded fault schedules across
# all four machines, each run compared bit-for-bit against the pure
# interpreter. Exit 0 means every fault was recovered transparently.
chaos:
	go run ./cmd/ildpchaos -seeds 50

# Sweep the kill-and-resume harness: 50 seeded runs across all four
# machines, each preempted at seed-chosen points, checkpointed through
# the full encode/decode path, and resumed in a fresh VM. Exit 0 means
# every resumed run finished bit-identical to the uninterrupted oracle.
killresume:
	go run ./cmd/ildpchaos -kill -seeds 50

# Exercise the telemetry plane end to end: the package test suite (race
# detector on — fan-out, slow-consumer shedding, zero-perturbation
# equivalence, the soak) plus the attach-cost benchmark recorded in
# EXPERIMENTS.md note 13.
telemetry:
	go test -race ./internal/telemetry/ -count 1
	go test -run '^$$' -bench BenchmarkTelemetryOverhead -benchtime 10x ./internal/telemetry/

# Run the live soak monitor: a chaos sweep with the telemetry plane on
# http://127.0.0.1:9844, one session per run (interrupt to stop).
monitor:
	go run ./cmd/ildpchaos -serve 127.0.0.1:9844 -seeds 0

# Exercise the serving plane end to end: the scheduler test suite
# (race detector on — admission, quotas, kill, crash barrier, spill,
# drain/resume, and the 200-session differential soak) plus a verified
# load drive through the real HTTP surface of a fresh ildpserve.
serve:
	go test -race ./internal/serve/ -count 1
	@tmp=$$(mktemp -d); \
	go build -o "$$tmp/ildpserve" ./cmd/ildpserve && go build -o "$$tmp/ildpload" ./cmd/ildpload || exit 1; \
	"$$tmp/ildpserve" -addr 127.0.0.1:0 > "$$tmp/srv.txt" 2> "$$tmp/srv.log" & pid=$$!; \
	trap 'kill $$pid; rm -rf "$$tmp"' EXIT; \
	for _ in $$(seq 1 50); do \
	    addr=$$(sed -n 's#^serving: *http://##p' "$$tmp/srv.txt"); [ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	"$$tmp/ildpload" -addr "$$addr" -sessions 60 -clients 16 -verify 10

# Exercise the persistent fragment store end to end: the store and VM
# test suites (race detector on), a decoder fuzz slice, and a cold ->
# warm ildpvm run through the on-disk format (docs/FORMAT.md) with
# every loaded fragment re-verified and re-proved.
fragstore:
	go test -race ./internal/fragstore/ -run 'Test' -count 1
	go test -race ./internal/vm/ -run 'TestStore' -count 1
	go test -run='^$$' -fuzz=FuzzFragstoreDecode -fuzztime=5s ./internal/fragstore/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/ildpvm" ./cmd/ildpvm; \
	"$$tmp/ildpvm" -workload gzip -cachefile "$$tmp/gzip.fs" -cache-stats | grep '^cache'; \
	"$$tmp/ildpvm" -workload gzip -cachefile "$$tmp/gzip.fs" -cache-stats -cache-prove \
	    | tee /dev/stderr | grep -q '^translation cost: *0 work units' \
	    || { echo "warm run retranslated"; exit 1; }
