# Common dev entry points. The module is stdlib-only: every target runs
# with a bare Go toolchain and no network.

GO ?= go

.PHONY: build test race vet lint loc bench-baseline bench-gate cache-sanity

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

# bench-baseline snapshots the whole benchmark suite (one iteration per
# benchmark keeps it fast; allocs/op is iteration-count independent) as
# BENCH_2.json via cmd/benchjson. BENCH_0.json and BENCH_1.json are the
# previous committed baselines and stay frozen, so `benchjson -diff
# BENCH_1.json BENCH_2.json` shows the intentional movement between the
# two newest committed snapshots (here: the zero-alloc hot-path work).
# Commit the refreshed BENCH_2.json when a PR intentionally moves a hot
# path; CI re-emits the current run as an artifact so any drift is
# visible in review, and `benchjson -gate BENCH_BUDGET.json` holds the
# headline benchmarks to explicit allocs/op budgets.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson > BENCH_2.json

# bench-gate replays the suite and enforces the committed allocs/op
# budgets — the deterministic benchmark metric — without touching the
# committed baselines.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson > /tmp/bench-current.json
	$(GO) run ./cmd/benchjson -gate BENCH_BUDGET.json /tmp/bench-current.json

# cache-sanity runs the timing-gated warm-vs-cold memoization guard
# (skipped by default because it is wall-clock based).
cache-sanity:
	EP_CACHE_SANITY=1 $(GO) test -run TestWarmCacheFasterThanCold -v ./internal/campaign/
