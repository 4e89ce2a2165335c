# BENCH is the djvmbench JSON artifact path; override per PR:
#   make bench BENCH=BENCH_2.json
BENCH ?= BENCH_current.json
# SCALE divides the paper datasets (1 = paper scale, 8 = CI-friendly).
SCALE ?= 8

.PHONY: verify build fmtcheck vet test test-race test-chaos test-serve test-overload test-profile test-dispatch bench bench-seq bench-check demo-closedloop demo-serve loc clean

verify: build fmtcheck vet test

build:
	go build ./...

# fmtcheck fails when gofmt would reformat any Go file.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

# test-race reruns the suite under the race detector (CI's second job);
# it also re-executes the golden-trace determinism tests.
test-race:
	go test -race ./...

# test-chaos is the failure-injection gauntlet: the golden determinism
# suite under the crash/flaky/partition presets with and without the
# recovery layer (same-seed runs must stay byte-identical under failure
# injection), the injection-off byte-identity gate (reports unchanged when
# no failure events are configured), and the Figure R resilience assertion
# (recovery must strictly beat no-recovery and one-shot placement on every
# crash schedule) — all with the race detector on the test half.
test-chaos:
	go test -race -count=1 -run 'Chaos|InjectionDisabled|GoldenTrace|FigR|Failure|Flush|Lease|Heartbeat|Fuzz|Crash|Intercept|Shaper' . ./internal/gos/ ./internal/experiments/ ./internal/scenario/ ./internal/network/ ./internal/dispatch/
	go run ./cmd/djvmbench -figR -scale $(SCALE)

# test-dispatch is the distributed-dispatcher gauntlet: the wire-codec
# round-trip and typed-error tests, the lease-fencing and failure-injection
# suite (hung worker, restarted worker, corrupt results, fleet death), the
# loopback identity gate (a dispatched batch must be byte-identical to the
# sequential baseline), and the SIGKILL chaos test over real worker
# processes — all under the race detector — then a djvmbench -workers smoke
# against two local djvmworker processes with output byte-compared to the
# local run.
test-dispatch:
	go test -race -count=1 ./internal/dispatch/
	go build -o /tmp/j2_djvmworker ./cmd/djvmworker
	set -e; \
	/tmp/j2_djvmworker -listen 127.0.0.1:0 -quiet > /tmp/j2_w1.addr & P1=$$!; \
	/tmp/j2_djvmworker -listen 127.0.0.1:0 -quiet > /tmp/j2_w2.addr & P2=$$!; \
	trap "kill $$P1 $$P2 2>/dev/null" EXIT; \
	sleep 1; \
	W1=$$(sed 's/djvmworker listening on //' /tmp/j2_w1.addr); \
	W2=$$(sed 's/djvmworker listening on //' /tmp/j2_w2.addr); \
	go run ./cmd/djvmbench -table 2 -scale $(SCALE) -workers "$$W1,$$W2" | grep -v '^-- regenerated' > /tmp/j2_dist.txt; \
	go run ./cmd/djvmbench -table 2 -scale $(SCALE) | grep -v '^-- regenerated' > /tmp/j2_local.txt; \
	diff -u /tmp/j2_dist.txt /tmp/j2_local.txt && echo "dispatch identity: OK"
	rm -f /tmp/j2_djvmworker /tmp/j2_w1.addr /tmp/j2_w2.addr /tmp/j2_dist.txt /tmp/j2_local.txt

# test-serve is the open-loop traffic gauntlet: ServeMix golden determinism
# and arrival-stream property tests under the race detector, plus the
# Figure T assertion (closed-loop placement must strictly beat nop and
# one-shot on P99 on every arrival schedule; non-zero exit otherwise).
test-serve:
	go test -race -count=1 -run 'ServeMix|Arrivals|FigT|Controller' . ./internal/workload/ ./internal/scenario/ ./internal/experiments/ ./internal/sampling/
	go run ./cmd/djvmbench -figT -scale $(SCALE)

# test-overload is the serving-robustness gauntlet: the preset × protection
# determinism grid and the robust-off golden gate (Snapshot.Serve must be
# byte-identical to the pre-layer golden when the layer is off), the robust
# dispatcher and lock-failover suites — all under the race detector — then
# the Figure G assertion (the full protection stack must strictly beat
# no-protection and shed-only on SLO goodput AND P99 on every failure
# schedule; non-zero exit otherwise) and the `-recover -app serve`
# end-to-end smoke.
test-overload:
	go test -race -count=1 -run 'Overload|FigG|Robust|ServeMix|LockManager|LockReclaim|Protect|RecoverServe' . ./internal/workload/ ./internal/gos/ ./internal/experiments/ ./cmd/djvmrun/
	go run ./cmd/djvmbench -figG -scale $(SCALE)
	go run ./cmd/djvmrun -app serve -scenario crash+burst -recover -nodes 4 -threads 8 -rate off -tcm=false

# test-profile is the profile-store gauntlet: the codec round-trip,
# corruption and fuzz-corpus tests, the warm-start policy and session
# integration suite (fingerprint mismatch, Save-armed golden identity),
# and the Figure W assertion (warm start must strictly cut convergence
# epochs and profiling charge with quality inside the epsilons; non-zero
# exit otherwise) — race detector on the test half, then a djvmrun
# -profile-out -> -profile-in round trip through a scratch file.
test-profile:
	go test -race -count=1 -run 'Profile|WarmStart|FigW|Divergence|SeedMap|FixedCells' . ./internal/profile/ ./internal/session/ ./internal/tcm/ ./internal/experiments/ ./cmd/djvmrun/ ./cmd/tcmviz/
	go run ./cmd/djvmbench -figW -scale $(SCALE)
	go run ./cmd/djvmrun -app kv -scenario phased -policy rebalance -epoch 10ms -tcm=false -profile-out /tmp/j2_ci_kv.j2pf
	go run ./cmd/djvmrun -app kv -scenario phased -policy warmstart -epoch 10ms -tcm=false -profile-in /tmp/j2_ci_kv.j2pf
	go run ./cmd/tcmviz -profile /tmp/j2_ci_kv.j2pf
	rm -f /tmp/j2_ci_kv.j2pf

# bench runs the Go benchmarks (allocs/op is the regression metric; see
# EXPERIMENTS.md) and writes the machine-readable djvmbench report. The
# experiment regenerations fan out over the parallel runner (GOMAXPROCS
# workers); results are byte-identical to sequential, only wall-clock moves.
bench:
	go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/djvmbench -benchjson $(BENCH) -scale $(SCALE)

# bench-seq is the single-threaded escape hatch: perf artifacts captured on
# the classic sequential path (one worker, runs one after another), for
# baselines and for machines where fan-out would only add scheduler noise.
bench-seq:
	JESSICA2_PARALLEL=1 go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/djvmbench -benchjson $(BENCH) -scale $(SCALE) -parallel 1

# bench-check vets and tests the repository benchmark, which is a Go module
# of its own that the root `go test ./...` never builds, then runs a 1 s pass
# of each workload listed in testdata/bench_allocs.txt. A pass exits 1 if
# any output check fails: the same-seed digest, request conservation or a
# codec round-trip. Each line of that file holds a workload's seed-42
# baselines for allocs_per_iter and alloc_mb_per_iter; a gate fails when a
# pass's value, read from its last JSON line, exceeds 1.10x the baseline:
# BENCHMARK.json's 10% bound. The count gate catches new small objects, the
# MB gate large buffers and tables that add few objects but many bytes.
bench-check:
	cd bench && go vet ./... && go test ./...
	@mkdir -p .bench_build; fail=0; \
	while read -r name allocs mb; do \
		out=.bench_build/bench-check-$$name.out; \
		status=0; bash bench/run.sh -workload $$name -seconds 1 < /dev/null > $$out || status=$$?; \
		cat $$out; \
		[ $$status = 0 ] || { echo "$$name: pass failed (exit $$status)"; fail=1; }; \
		for gate in allocs_per_iter=$$allocs alloc_mb_per_iter=$$mb; do \
			metric=$${gate%%=*}; base=$${gate#*=}; \
			if [ -z "$$base" ]; then echo "$$name: no $$metric baseline in testdata/bench_allocs.txt"; fail=1; continue; fi; \
			got=$$(tail -n 1 $$out | sed -n "s/.*\"$$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p"); \
			if [ -z "$$got" ]; then echo "$$name: no $$metric in the pass's last line"; fail=1; continue; fi; \
			verdict=$$(awk -v got="$$got" -v base="$$base" 'BEGIN { print (got <= 1.10 * base ? "ok" : "FAIL") }'); \
			printf '%-17s gate %-15s baseline %10s measured %12s limit 1.10x: %s\n' $$metric $$name $$base $$got $$verdict; \
			[ $$verdict = ok ] || fail=1; \
		done; \
	done < testdata/bench_allocs.txt; \
	exit $$fail

# demo-closedloop runs the closed-loop session demo: KVMix under the phased
# scenario, rebalance policy over 8 epochs, baseline vs closed-loop exec
# times printed head to head (see EXPERIMENTS.md, Figure CL).
demo-closedloop:
	go run ./cmd/djvmrun -app kv -scenario phased -policy rebalance -epochs 8 -tcm=false

# demo-serve runs the open-loop serving demo: ServeMix under the diurnal
# arrival schedule, rebalance policy at 125 ms epochs, goodput and
# P50/P95/P99 tail latency in the report (see EXPERIMENTS.md, Figure T).
demo-serve:
	go run ./cmd/djvmrun -app serve -nodes 4 -scenario diurnal -policy rebalance -epoch 125ms -tcm=false

# loc prints the line counts a PR reports as its net size: code lines
# (non-blank, not comment-only) and gross lines, for non-test Go outside
# bench/ and for test Go outside bench/.
loc:
	@for kind in non-test test; do \
		if [ $$kind = test ]; then not=; else not='!'; fi; \
		files=$$(find . \( -path ./bench -o -path './.*' \) -prune -o -type f -name '*.go' $$not -name '*_test.go' -print); \
		code=$$(cat /dev/null $$files | grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$$'); \
		gross=$$(cat /dev/null $$files | wc -l); \
		printf '%-8s Go: %6d code lines, %6d gross\n' $$kind $$code $$gross; \
	done

clean:
	rm -f BENCH_current.json
