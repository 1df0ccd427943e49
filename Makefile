# Convenience targets; everything is plain `go` underneath.

GO ?= go
# Extra flags for the benchmark targets, e.g. BENCHFLAGS=-benchtime=1x
# for a quick smoke run.
BENCHFLAGS ?=

.PHONY: all help build test race check chaos cluster-soak crash-smoke bench bench-json bench-smoke bench-compare bench-compare-wal bench-stochastic bench-lazy docs-check fuzz fuzz-smoke experiments paper-runs soak-smoke results serve clean

all: build test

help:
	@echo "Targets:"
	@echo "  build        compile and vet every package"
	@echo "  test         go test ./..."
	@echo "  race         go test -race ./..."
	@echo "  check        vet + full race-detector test run"
	@echo "  chaos        chaos soak: placemond behind the fault injector, race detector on"
	@echo "  cluster-soak 3-node cluster soak: chaos timeline through a non-owner plus a live mid-soak migration (CI)"
	@echo "  crash-smoke  WAL crash-injection matrix: kill writes mid-append/rotate/compact, assert exact recovery (CI)"
	@echo "  bench        one benchmark run per table/figure plus ablations"
	@echo "  bench-json   machine-readable benchmark snapshot (BENCH_<date>.json)"
	@echo "  bench-smoke  single-iteration benchmark compile-and-run gate (CI)"
	@echo "  bench-compare  registry-overhead run gated against the archived seed baseline (CI)"
	@echo "  bench-compare-wal  WAL append/recovery run gated against the archived WAL baseline (CI)"
	@echo "  bench-stochastic  stochastic-frontier smoke gated against the archived frontier snapshot (CI)"
	@echo "  bench-lazy   placement-engine timing (BenchmarkLazyPlacement) gated against the archived Gain snapshot (CI)"
	@echo "  docs-check   documentation lint: godoc coverage, markdown links, flag-name drift (CI)"
	@echo "  fuzz         short fuzz session over the edge-list parser"
	@echo "  fuzz-smoke   ~10s of every fuzz target (CI)"
	@echo "  experiments  regenerate every evaluation artifact into results/"
	@echo "  paper-runs   execute the experiments.json grid into paper_runs/<ts>/ and validate vs results/"
	@echo "  soak-smoke   ≤30s open-loop load against an in-process placemond, gated by slo.json (CI)"
	@echo "  results      archive test + benchmark logs"
	@echo "  serve        compute a placement and run placemond on :8080"
	@echo "  clean        remove archived logs"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full static + concurrency gate: vet everything, then run every test
# under the race detector (the serving layer, worker pool, and metrics
# registry are exercised concurrently by their tests).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# Chaos soak: drive a real placemond through the seeded fault injector
# (drops, duplicates, resets, 5xx flaps, reorders) and require the event
# stream to match a fault-free run exactly. CHAOSFLAGS=-short for the
# one-cycle smoke variant CI uses.
CHAOSFLAGS ?=
chaos:
	$(GO) test -race -run TestChaosSoak -v $(CHAOSFLAGS) .

# Cluster soak: the same seeded chaos timeline driven at a 3-node
# WAL-backed cluster through a deliberately wrong node, with a live
# scenario migration fired mid-soak. The merged redirect-following event
# stream must match a single-node fault-free run exactly, the audit
# splice must pin the source's fence record, and every node's log must
# fsck clean. CHAOSFLAGS=-short for the one-cycle smoke variant CI uses.
cluster-soak:
	$(GO) test -race -run TestClusterSoak -v $(CHAOSFLAGS) .

# WAL crash-injection matrix: the fault-point filesystem kills writes at
# seeded byte offsets mid-append, mid-rotation, and mid-compaction (log
# layer) and mid-serving (HTTP layer); every recovered state must be
# byte-identical to a never-crashed reference, and a retried pre-crash
# batch must replay its original ack.
crash-smoke:
	$(GO) test -race -run 'TestCrashMatrix|TestCrashServerMatrix|TestTorn' -v ./internal/wal/ ./internal/server/

# One benchmark run per table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Single-iteration smoke over a cheap benchmark: proves the benchmark
# harness still compiles and runs without paying for a real measurement.
bench-smoke:
	$(GO) test -run NONE -bench='TableI|RegistryOverhead' -benchtime=1x .

# Multi-tenant serving overhead, gated twice from one measurement run:
# ns/op against the archived pre-refactor seed baseline (>10% fails) and
# allocs/op against the zero-alloc streaming snapshot (>10% fails), so
# neither latency nor the allocation work can silently backslide. ns/op
# is not gated against the streaming snapshot — wall-clock swings too
# much run-to-run on shared CPUs for a freshly-tightened bound — but
# allocs/op is deterministic, so there the tight gate holds. The bare
# snapshot names resolve via benchjson's archive fallback to
# results/bench/, where the BENCH_*.json snapshots live.
bench-compare:
	$(GO) test -run NONE -bench=RegistryOverhead -benchmem -benchtime=2000x . > /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-06_registry_seed.json -fail-over 10 < /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_streaming.json -fail-allocs-over 10 < /tmp/bench_registry.txt

# Stochastic-frontier smoke: the small generated hierarchy (fixed seed)
# through exact greedy, every ε row, and the warm-start re-placement
# path, one iteration each — proof the frontier harness still compiles
# and the sampled engine still terminates, then a ns/op gate against
# the archived frontier snapshot. The margin is wide (200%) because a
# single iteration on a shared runner is noisy; the deterministic
# counters (evaluations/op, value-ratio, eval-saving) are what the
# archived snapshot is really for. The 10k-node scale is excluded here:
# each of its instance constructions is a tens-of-seconds measurement,
# archived in BENCH_2026-08-08_stochastic.json by a full run, not
# re-paid per push.
bench-stochastic:
	$(GO) test -run NONE -bench='StochasticFrontier/small' -benchtime=1x . > /tmp/bench_stochastic.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_stochastic.json -fail-over 200 < /tmp/bench_stochastic.txt

# Placement-engine timing: BenchmarkLazyPlacement (eager, lazy and
# lazy-parallel greedy on the Fig. 4 topologies, GD objective) gated on
# ns/op against the snapshot archived when candidates began to be
# scored with the read-only evaluator Gain instead of clone-add-value.
# The margin is 150%: back-to-back runs on one 2-vCPU VM already differ
# by up to ~40% per row, and a shared runner adds a different CPU on
# top. Clone-based scoring, the regression this gate exists for, is
# 4–9× slower on every greedy and lazy row (+320% to +800%), so it
# still trips the gate. evaluations/op is printed by the comparison
# and must not move at all.
bench-lazy:
	$(GO) test -run NONE -bench='LazyPlacement' -benchmem . > /tmp/bench_lazy.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-10-17_gain.json -fail-over 150 < /tmp/bench_lazy.txt

# WAL hot paths (append fsync cost per sync mode, boot recovery) gated
# against the snapshot archived when the log landed. fsync-bound ns/op
# swings ±2x run-to-run on shared disks at small iteration counts, so
# the gate averages over 1000 iterations and allows a 100% margin: it
# catches order-of-magnitude regressions (an accidental fsync per record
# in group mode, a quadratic recovery scan), not microsecond drift.
bench-compare-wal:
	$(GO) test -run NONE -bench='WALAppend|Recovery' -benchmem -benchtime=1000x ./internal/wal/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_wal.json -fail-over 100

# Documentation lint (cmd/docscheck): every package and exported
# package-level identifier has a godoc comment, every relative link in
# the user-facing markdown resolves, and every `-flag` the docs mention
# is actually declared by a cmd/ binary.
docs-check:
	$(GO) run ./cmd/docscheck

# Machine-readable benchmark snapshot for the perf trajectory: runs the
# root benchmarks and archives them under results/bench/.
bench-json:
	$(GO) test -run NONE -bench=. -benchmem $(BENCHFLAGS) . | $(GO) run ./cmd/benchjson > results/bench/BENCH_$(shell date +%F).json

# Compute a placement and serve it with the monitoring daemon.
serve:
	$(GO) run ./cmd/placemon place -topology Tiscali -services 3 -alpha 0.6 -o /tmp/placement.json
	$(GO) run ./cmd/placemond -placement /tmp/placement.json -addr :8080

# Short fuzz session over the edge-list parser.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 30s ./internal/graph/

# Smoke every fuzz target briefly: enough to catch a freshly broken
# invariant or panic without a dedicated fuzz farm. FUZZTIME=5s for an
# even quicker local pass.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzObservations -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run NONE -fuzz FuzzMembershipParse -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run NONE -fuzz FuzzGreedyLazyEquivalence -fuzztime $(FUZZTIME) ./internal/placement/
	$(GO) test -run NONE -fuzz FuzzLoadPlacement -fuzztime $(FUZZTIME) .

# Regenerate every evaluation artifact (text + CSV) into results/.
experiments:
	$(GO) run ./cmd/experiments -out results | tee results/all.txt

# Execute the declared experiment grid (experiments.json: placement runs
# plus loadgen profiles) into a timestamped paper_runs/<ts>/ tree and
# validate every regenerated CSV against the goldens in results/.
paper-runs:
	$(GO) run ./cmd/experiments -grid experiments.json -runs-dir paper_runs -goldens results

# Open-loop load smoke: ≤30s of sustained traffic against an in-process
# placemond, reconciled against the server's own histograms and gated by
# the repo's declared SLO (slo.json). Non-zero exit on violation.
soak-smoke:
	$(GO) run ./cmd/placemon loadgen -rps 150 -duration 20s -scenarios 4 -slo slo.json

# The final deliverable logs.
results:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
