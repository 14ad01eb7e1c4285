GO ?= go

# The benchmark selection shared by `make bench` and `make bench-json`.
BENCH_PATTERN := MulAddSlice|MulSlice|MulAddMulti|Encode|Reconstruct|Verify|DecodeErrors

.PHONY: all build build-cross test test-durability test-reconfig vet lint bench bench-smoke bench-json bench-soda-json bench-soda-smoke race fuzz

all: vet lint build test race

build:
	$(GO) build ./...

# build-cross keeps the portable (noasm) kernel path buildable: a
# non-amd64 cross-compile plus the purego tag on the host arch.
build-cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	$(GO) build -tags purego ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

# test-durability is the fault-injection lane: the WAL/snapshot/
# recovery battery (power cuts at every byte offset, torn records,
# fsync-mode loss semantics, the kill-recover-rejoin soak) under the
# race detector.
test-durability:
	$(GO) test -race -run 'WAL|Snapshot|Recover|PowerCut|Fsync|Torn|Durable' ./internal/soda/

# test-reconfig is the online-reconfiguration lane: epoch admission,
# cross-epoch quorum rejection, live grow/shrink migration, the WAL'd
# epoch state surviving power cuts, and the grow-then-shrink soak with
# concurrent epoch-following writers/readers — under the race detector.
test-reconfig:
	$(GO) test -race -run 'Reconfig|Epoch' ./internal/soda/

race:
	$(GO) test -race ./...

# vet fails when any file needs gofmt, listing the offenders.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

# lint runs sodavet — the project's own stdlib-only analyzer suite
# (atomicmix, lockhold, errwrap, epochframe, poolsafe) — over every
# package, then the analyzers' golden-fixture tests. Suppress a
# finding with `//lint:ignore <rule> <reason>`; the reason is
# mandatory and reviewed like code.
lint:
	$(GO) run ./cmd/sodavet ./...
	$(GO) test ./internal/lint/

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./internal/gf256/ ./internal/rs/

# bench-smoke compiles and runs every codec benchmark a fixed 10
# iterations on both the SIMD and purego kernel ladders, plus the soda
# read-path layer benchmark (selected by pattern, so the durable-put
# benchmarks stay out): a CI-friendly check that the benchmark suite
# itself stays healthy, with no performance gating.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -tags purego -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -run '^$$' -bench ReadErr -benchtime=10x ./internal/soda/

# bench-json reruns the bench suite and regenerates BENCH_rs.json in one
# deterministic format (sorted keys, tool-computed derived ratios), so
# perf-trajectory entries are produced, not hand-edited. The narrative
# "notes" field of the existing file is preserved.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_rs.json -- \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 300ms -benchmem ./internal/gf256/ ./internal/rs/

# bench-soda-json reruns the open-loop load suite and regenerates
# BENCH_soda.json deterministically (sorted keys, fixed schema,
# tool-computed derived ratios; the "notes" field of the existing file
# is preserved). Numbers are machine-dependent; the schema is not.
bench-soda-json:
	$(GO) run ./cmd/sodaload -suite -out BENCH_soda.json

# bench-soda-smoke runs the suite twice at a tiny rate/duration and
# checks both regenerations produce the committed BENCH_soda.json
# schema: a CI-friendly determinism check on the harness and its
# output shape, with no performance gating.
bench-soda-smoke:
	$(GO) run ./cmd/sodaload -suite -rate 2000 -duration 300ms -keys 256 -out /tmp/bench_soda_a.json
	$(GO) run ./cmd/sodaload -suite -rate 2000 -duration 300ms -keys 256 -seed 2 -out /tmp/bench_soda_b.json
	$(GO) run ./cmd/sodaload -compare-schema /tmp/bench_soda_a.json /tmp/bench_soda_b.json
	$(GO) run ./cmd/sodaload -compare-schema /tmp/bench_soda_a.json BENCH_soda.json

# fuzz runs each fuzz target briefly; lengthen with FUZZTIME=5m etc.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/rs/ -fuzz FuzzDecodeErrors -fuzztime $(FUZZTIME)
