# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race short bench bench-alloc perf perf-test chaos tcp-smoke trace-smoke race-smoke kv-smoke metrics-smoke experiments examples fmt vet clean

all: build test

build:
	$(GO) build ./...

# Default test gate: vet, the full suite, the chaos/reliability and
# transport packages again under the race detector (their concurrency
# is the newest and the most delicate), the allocation-regression
# gate, the multi-process TCP smoke run, the tracing smoke run,
# the race-checker smoke run, and the repository benchmark's own tests.
test: vet tcp-smoke trace-smoke race-smoke kv-smoke metrics-smoke bench-alloc perf-test
	$(GO) test ./... -timeout 1200s
	$(GO) test -race -timeout 900s ./internal/chaos ./internal/nodecore ./internal/simnet ./internal/transport/tcp ./internal/cluster ./internal/trace

# Allocation regression gate. The thresholds are checked into the
# tests themselves: the ZeroAlloc tests assert 0 allocs/op in steady
# state for the pooled encode/frame/diff paths (testing.AllocsPerRun
# with GC parked) and for the tracing layer both disabled (nil tracer,
# nil histograms — the default hot path) and enabled (ring emit,
# histogram observe), and for the software-MMU hit: every typed
# accessor and ReadAt/WriteAt on a resident page under sc-fixed and
# lrc. The benchmarks print current numbers, including the paths that
# clone by design (receive-side decode).
bench-alloc:
	$(GO) test -run ZeroAlloc -count=1 ./internal/wire/ ./internal/mem/ ./internal/trace/ ./internal/kv/ ./internal/metrics/ ./internal/core/
	$(GO) test -run '^$$' -bench 'Encode|DecodeInto|PackBatch|AppendDiff|ApplyDiff|FrameRoundTrip|EmitDisabled|EmitEnabled|AccessEmit|HistObserve|KVOpRecord|SampleOnce|PromWrite|HitRead|HitWrite' \
		-benchtime 1000x -benchmem -timeout 300s ./internal/wire/ ./internal/mem/ ./internal/transport/tcp/ ./internal/trace/ ./internal/kv/ ./internal/metrics/ ./internal/core/

# Repository benchmark (BENCHMARK.json, perfbench/): builds the
# benchmark from source and runs one workload, printing every
# end-to-end metric (TRACE=0) or the per-layer ones (TRACE=1).
#   make perf W=kv-write SEED=2 SECONDS=20 TRACE=1
W ?= sor-lrc
SEED ?= 1
SECONDS ?= 10
TRACE ?= 0

perf:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

# The benchmark's own tests (metric names, tiny runs of every
# workload, checksum checks), in the Go environment perfbench/run.sh
# builds with, so the build cache stays under .bench_build/.
BENCH_OUT = $(CURDIR)/.bench_build
perf-test:
	mkdir -p $(BENCH_OUT)/tmp $(BENCH_OUT)/config
	cd perfbench && GOCACHE=$(BENCH_OUT)/gocache GOPATH=$(BENCH_OUT)/gopath GOTMPDIR=$(BENCH_OUT)/tmp \
		XDG_CONFIG_HOME=$(BENCH_OUT)/config GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off \
		$(GO) test -count=1 -timeout 600s .

short:
	$(GO) test ./... -short -timeout 600s

race:
	$(GO) test ./... -race -short -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem -timeout 1800s ./...

# Run the fault-injection correctness matrix under the race detector.
chaos:
	$(GO) test -race -run TestChaos -v -timeout 900s ./internal/chaos

# Multi-process smoke run: a 3-process cluster over TCP loopback
# computes SOR under sequential and lazy release consistency; node 0
# diffs the shared result against the sequential reference
# (verify=ok, or the run exits nonzero).
tcp-smoke:
	$(GO) run ./cmd/dsmrun -transport tcp -nodes 3 -app sor -proto sc-fixed
	$(GO) run ./cmd/dsmrun -transport tcp -nodes 3 -app sor -proto lrc

# Tracing acceptance gate: a 4-node SOR with tracing on emits causally
# consistent streams from every node whose Chrome export parses, an
# identically seeded untraced run produces identical traffic counters
# (observation-only), and chaos injections land in the stream.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestTracingIsObservationOnly|TestTraceChaos' -count=1 ./internal/trace/

# Race-checker acceptance gate: the seeded positives must be flagged
# (page-granularity races under EC, false sharing under LRC, the
# BreakCoherence SC violation even under chaos) and a data-race-free
# kernel must come back clean under a correct SC engine.
race-smoke:
	$(GO) run ./cmd/dsmtrace -races -scenario falseshare -proto ec -expect race
	$(GO) run ./cmd/dsmtrace -races -scenario falseshare -proto lrc -expect sharing
	$(GO) run ./cmd/dsmtrace -races -scenario sor -proto sc-fixed -expect clean
	$(GO) run ./cmd/dsmtrace -races -scenario kvstore -proto lrc -expect clean
	$(GO) run ./cmd/dsmtrace -races -scenario broken -proto sc-fixed -chaos -expect violation

# Serving-workload acceptance gate: the kvstore regression test runs
# the same configuration on the simulator and a real TCP loopback
# cluster and requires bit-identical checksums plus a nonzero op
# p99 (the SLO pipeline is live on both transports), and the paced
# open-loop run cannot finish ahead of its schedule.
kv-smoke:
	$(GO) test -run 'TestKVSmoke|TestKVOpenLoopPacing' -count=1 ./internal/kv/

# Metrics acceptance gate: scrape /metrics from a live TCP loopback
# cluster frozen at a quiesced instant and require the exposition to
# parse as Prometheus text format with every counter sample exactly
# equal to the node's /stats counters; then induce a watchdog stall
# with the flight recorder armed and require a bundle whose rendered
# report names the stalled peer.
metrics-smoke:
	$(GO) test -run 'TestMetricsSmoke|TestFlightOnStall' -count=1 ./internal/metrics/

# Regenerate every experiment table and figure (EXPERIMENTS.md data).
experiments:
	$(GO) run ./cmd/dsmbench | tee bench_output_reference.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sor -rows 48 -cols 48 -iters 4
	$(GO) run ./examples/taskqueue -tasks 60 -work 500
	$(GO) run ./examples/tsp -cities 7
	$(GO) run ./examples/pipeline

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
