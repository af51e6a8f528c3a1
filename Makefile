GO ?= go

.PHONY: all build test race vet bench bench-cache bench-backend bench-trend clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Full benchmark suite (paper figures + pipeline microbenchmarks).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Paired cached/uncached study benchmark (golden-run memoization);
# see scripts/bench-cache.sh for knobs (INPUTS, COUNT, MIN_SPEEDUP...).
bench-cache:
	scripts/bench-cache.sh

# Paired tree/vm backend benchmark; MIN_SPEEDUP=auto gates against the
# committed BENCH_7.json floor (see scripts/bench-backend.sh for knobs).
bench-backend:
	scripts/bench-backend.sh

# Render the committed BENCH_*.json series into one exp/s trend table
# (text + bench-out/bench-trend.csv). Pure rendering, runs no benchmarks.
bench-trend:
	scripts/bench-trend.sh

clean:
	$(GO) clean ./...
