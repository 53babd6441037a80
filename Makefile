# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test lint race chaos fuzz bench bench-raw cover sysbench-test

all: build test lint race chaos fuzz

build:
	go build ./...

test:
	go test ./...

# lint fails when gofmt would change any tracked Go file, then runs
# standard go vet plus the repository's own analyzer suite (floatcmp,
# globalrand, policyreg, maprange, wallclock, hotalloc, ctxpoll,
# atomicfield, metricname — see internal/analysis and DESIGN.md §12),
# both as a cmd/go vet backend (per-package, cached) and standalone
# (whole-module, per-analyzer summary, `-json` for the CI findings
# artifact). Suppress a finding only with a justified
# //rtdvs:ignore <analyzer> <reason> on the flagged line.
lint:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	go vet ./...
	go install ./cmd/rtdvs-vet
	go vet -vettool=$(GOBIN)/rtdvs-vet ./...
	go run ./cmd/rtdvs-vet ./...

# race exercises the packages with real concurrency: the experiment
# panels' one worker pool, the RTOS kernel, and the HTTP serving layer
# (including the soak-smoke load test and its clean-drain assertion).
# CI's race step runs this target.
race:
	go test -race ./internal/experiment/... ./internal/rtos/... ./internal/serve/... ./cmd/rtdvs-serve/...

# chaos soaks the distributed sweep fabric under the race detector:
# seeded fault-injecting transports (drop / 500 / dup / truncate /
# delay), worker-kill-mid-shard recovery, straggler hedging, all-workers
# -ejected degradation, and the bit-identity table across chaos seeds
# (DESIGN.md §13). Bounded wall clock via -timeout.
chaos:
	go test -race -timeout 5m ./internal/fabric/... ./cmd/rtdvs-sweep/...

# fuzz gives the kernel op interpreter, the HTTP API's decode+
# validate+run path, the demand samplers, the shared release order and
# run queue (against a sorted reference) and the simulator's use of it a
# short coverage-guided budget on every run; raise
# -fuzztime locally when hunting for real bugs. A simulator input runs
# up to 140 tasks five times, so its minimization is capped to leave the
# budget for new inputs. CI's fuzz step runs this target.
fuzz:
	go test ./internal/rtos/ -run='^$$' -fuzz=FuzzKernelOps -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzSimulateRequest -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzSimulateBatchRequest -fuzztime=20s
	go test ./internal/task/ -run='^$$' -fuzz=FuzzDistributionSampler -fuzztime=20s
	go test ./internal/task/ -run='^$$' -fuzz=FuzzBetaQuantileBitIdentical -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzMultiCoreConfig -fuzztime=20s
	go test ./internal/sim/ -run='^$$' -fuzz=FuzzSimulatorQueues -fuzztime=20s -fuzzminimizetime=5s
	go test ./internal/sched/ -run='^$$' -fuzz=FuzzOrder -fuzztime=20s

# bench runs the suite through cmd/rtdvs-bench: it parses ns/op, B/op
# and allocs/op, writes the JSON report (BENCH_OUT), and fails if a
# simulator/kernel throughput benchmark regressed more than 15% in
# ns/op against the newest prior committed BENCH_*.json baseline. The
# default report is the untracked bench-local.json; record a new
# baseline with `make bench BENCH_OUT=BENCH_PR<n>.json`.
BENCH_OUT ?= bench-local.json
bench:
	go run ./cmd/rtdvs-bench -out $(BENCH_OUT)

# bench-raw is plain `go test -bench` without the report or the gate.
bench-raw:
	go test -bench=. -benchmem

# cover runs the suite with a coverage profile, gates per-package
# statement coverage against the floors in COVERAGE.floors (see
# cmd/rtdvs-cover), and renders the browsable HTML report.
COVER_OUT ?= cover.out
cover:
	go test -coverprofile=$(COVER_OUT) ./...
	go run ./cmd/rtdvs-cover -profile $(COVER_OUT) -floors COVERAGE.floors
	go tool cover -html=$(COVER_OUT) -o cover.html

# sysbench-test vets and short-tests the system benchmark (bench/). It
# is its own Go module, so the root `go test ./...` never builds it and
# an internal API change could otherwise break it unnoticed.
sysbench-test:
	go -C bench vet ./...
	go -C bench test -short ./...
