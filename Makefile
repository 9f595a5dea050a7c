GO ?= go

.PHONY: build test verify golden loc smoke-daemon smoke-cluster smoke-security chaos bench-batch bench-pairs bench-all profile clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The verify tier: static analysis plus the full suite under the race
# detector. Slower than `make test`; run before merging.
verify: build
	$(GO) vet ./...
	$(GO) test -race ./...

# Golden drift gate: the fingerprint fixtures must match the simulator bit
# for bit. Regenerate them (the -update-golden flow) and fail if that
# changed anything: a drifted fixture means the simulator's observable
# results changed. The core-config fixtures cover the timing core on
# configurations other than Table 2's. CI runs this as its golden drift
# step.
golden:
	$(GO) test ./internal/sim -run TestGoldenFingerprints -count=1
	$(GO) test ./internal/sim -run TestGoldenFingerprints -count=1 -update-golden
	git diff --exit-code -- internal/sim/testdata/golden
	$(GO) test ./internal/cpu -run TestCoreConfigFingerprints -count=1
	$(GO) test ./internal/cpu -run TestCoreConfigFingerprints -count=1 -update-golden
	git diff --exit-code -- internal/cpu/testdata/coreconfig
	$(GO) test ./internal/attack -run TestGoldenSmokeMetrics -count=1
	$(GO) test ./internal/attack -run TestGoldenSmokeMetrics -count=1 -update-golden
	git diff --exit-code -- internal/attack/testdata/golden

# Lines of Go outside bench/, non-test and test: the counts a
# simplification quotes in CHANGES.md. CI prints them; they gate nothing.
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l | awk '{print "non-test Go lines: " $$1}'
	@find . -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l | awk '{print "test Go lines:     " $$1}'

# End-to-end daemon smoke: start leakd on a temp store, run a sweep over
# HTTP, require the warm resubmit to be 100% store hits, SIGTERM-drain.
smoke-daemon:
	./scripts/daemon_smoke.sh

# End-to-end cluster smoke: three workers plus a coordinator, kill -9 one
# worker mid-sweep and require completion with zero lost cells, then
# restart the dead worker with -peer and require a federated store hit.
# See DESIGN.md §13.
smoke-cluster:
	./scripts/cluster_smoke.sh

# End-to-end security smoke: run a tiny attack sweep (prime+probe channel
# cells) through a real leakd, require drowsy to leak strictly more than
# gated-Vss, the warm resubmit to be 100% store hits, and leakbench
# -attack -remote to report the same metric values. See DESIGN.md §14.
smoke-security:
	./scripts/security_smoke.sh

# Chaos tier: fault-injected store/server suites under the race detector,
# the attempt loop's fault tests (internal/sim: injected faults, lane
# isolation, retries, deadlines, cancellation) three times over under it,
# then the black-box chaos smoke (real leakd under an armed fault plane,
# kill -9 mid-sweep, restart-recovery, GC reclamation, bit-identical
# results vs a fault-free reference). See DESIGN.md §11 and §12.
chaos:
	$(GO) test -race -run 'TestChaos|TestCrash|TestFault|TestGC|TestQuarantine|TestHub|TestSSE|TestPanic|TestSweepWatchdog|TestDegraded|TestHealthz|TestBreaker|TestRetry' ./internal/store/ ./internal/server/... ./internal/harness/faultinject/
	$(GO) test -race -count=3 -run 'TestInjected|TestBatchFault|TestBatchDeferred|TestNaN|TestRunTimeout|TestLaneDeadline|TestSuiteCancellation|TestPanickingCell|TestBackoff' ./internal/sim/
	./scripts/chaos_smoke.sh

# Batched-vs-one-lane regression guard: fail if sharing one front per
# benchmark group is slower than running every cell as a group of one
# lane (median of 3 samples each). The
# variants are paired — SuiteSweep runs them inside the same iteration —
# so host drift cancels out of the ratio. CI runs this as its bench
# smoke; it is deliberately cheap (~1 min) rather than statistically
# deep — bench/ is the end-to-end record.
bench-batch:
	$(GO) test -run '^$$' -bench=SuiteSweep -benchtime=1x -count=3 . > bench_batch.tmp || { cat bench_batch.tmp; rm -f bench_batch.tmp; exit 1; }
	cat bench_batch.tmp
	awk ' \
	  /^BenchmarkSuiteSweep/ { \
	    for (i = 2; i <= NF; i++) if ($$i ~ /:instr\/s$$/) { \
	      name = $$i; sub(/:instr\/s$$/, "", name); \
	      c[name]++; v[name, c[name]] = $$(i-1); \
	    } \
	  } \
	  function med(name,   n, a, b, t, i, j) { \
	    n = c[name]; \
	    for (i = 1; i <= n; i++) a[i] = v[name, i] + 0; \
	    for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) \
	      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t } \
	    return a[int((n + 1) / 2)]; \
	  } \
	  END { \
	    f = med("full"); s = med("onelane"); \
	    printf "batched (full) median: %.0f instr/s\none-lane median:       %.0f instr/s\nratio: %.2fx\n", f, s, f / s; \
	    if (f < s) { print "FAIL: batched sweep is slower than one lane per group"; exit 1 } \
	  }' bench_batch.tmp || { rm -f bench_batch.tmp; exit 1; }
	rm -f bench_batch.tmp

# Paired end-to-end recording of the working tree against PARENT (a git
# revision, exported outside the repository): PAIRS alternating pairs of
# bench/run.sh runs of WORKLOAD at SEED, then bench -compare. The JSON
# files stay under results/pairs/. Example:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=frontier
SEED ?= 1
PAIRS ?= 10
bench-pairs:
	./scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

# CPU and heap profiles of the core backend benchmark (BenchmarkCoreRun:
# steady-state Core.Run over a pre-filled front, in ns per instruction),
# written under the gitignored results/profiles/ for pprof analysis
# (recipe in EXPERIMENTS.md, "Profiling the backend").
profile:
	mkdir -p results/profiles
	$(GO) test -run '^$$' -bench=CoreRun -count=5 \
	  -o results/profiles/bench.test \
	  -cpuprofile=results/profiles/cpu.pprof -memprofile=results/profiles/mem.pprof ./internal/cpu
	$(GO) tool pprof -top -nodecount=15 results/profiles/cpu.pprof

# Every benchmark (figures, tables, ablations) at minimal iteration count.
bench-all:
	$(GO) test -bench=. -benchtime=1x -v .

clean:
	$(GO) clean ./...
	rm -f results/*.json
