# Common dev entry points. The module is stdlib-only: every target runs
# with a bare Go toolchain and no network.

GO ?= go

.PHONY: build test race vet lint loc bench-gate cache-sanity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/epvet ./...

# loc prints the line counts of the tracked Go files outside bench/,
# non-test and test: the size figure each change reports.
loc:
	@printf 'non-test %s\n' "$$(git ls-files '*.go' ':!:bench/' ':!:*_test.go' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(git ls-files '*_test.go' ':!:bench/' | xargs cat | wc -l)"

# bench-gate runs the whole benchmark suite once (one iteration per
# benchmark keeps it fast; allocs/op is iteration-count independent),
# converts it to JSON via cmd/benchjson, and enforces the committed
# allocs/op budgets in BENCH_BUDGET.json — the deterministic benchmark
# metric.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson > /tmp/bench-current.json
	$(GO) run ./cmd/benchjson -gate BENCH_BUDGET.json /tmp/bench-current.json

# cache-sanity runs the timing-gated warm-vs-cold memoization guard
# (skipped by default because it is wall-clock based).
cache-sanity:
	EP_CACHE_SANITY=1 $(GO) test -run TestWarmCacheFasterThanCold -v ./internal/campaign/
