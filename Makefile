# Developer entry points. Everything here is plain go tooling — no
# external dependencies.

GO ?= go

.PHONY: build test test-race bench bench-quick bench-large vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# bench runs the reproducible performance harness on the full windows
# and writes bench-report.json (schema tdmnoc-bench/v5; see README for
# how to read it). -strict makes it a gate: nonzero exit on hot-path
# allocations (miniatures and every budgeted scaling row), a digest
# mismatch at any checked worker count, traced overhead/ring drops, or
# a missing 2x speedup at 16x16 on machines with the cores to show one.
# -baseline additionally fails on a >15% serial Fig. 4 ns/cycle
# regression against the committed PR8 report.
bench:
	$(GO) run ./cmd/bench -strict -o bench-report.json -baseline BENCH_PR8.json

# bench-quick is the CI smoke variant: shorter windows, same gates
# (above 16x16 the scaling matrix runs 32x32 only).
bench-quick:
	$(GO) run ./cmd/bench -quick -strict -o bench-report.json -baseline BENCH_PR8.json

# bench-large adds the 128x128 row to the scaling matrix: ~16k
# routers, minutes of runtime and gigabytes of heap. This is the
# configuration the committed BENCH_PR10.json was generated with.
bench-large:
	$(GO) run ./cmd/bench -strict -large -o bench-report.json -baseline BENCH_PR8.json
