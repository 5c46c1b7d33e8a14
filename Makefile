# Build/test entry points. CI (.github/workflows/ci.yml) runs exactly these
# targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: all build test race bench bench-json benchdiff bench-e2e fuzz cover lint fmt vet staticcheck vuln smoke smoke-cluster apicheck loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the concurrency tests in
# internal/core/parallel_test.go, internal/core/coalesce_test.go,
# internal/core/incremental_test.go, internal/core/partial_test.go and
# internal/server (subscribe_test.go and the router/shard fan-out suite in
# cluster_test.go) are the interesting part here.
race:
	$(GO) test -race -timeout 30m ./...

# Benchmark smoke: every benchmark once, no test re-runs. Use
#   go test -bench BenchmarkTopKWorkers -benchtime 3x .
# for a real parallel-vs-sequential comparison (needs multiple cores).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Benchmark artifact: 3 iterations per benchmark, parsed into bench.json by
# cmd/benchjson. CI archives this as BENCH_<sha>.json per commit. Two steps
# (no pipe) so a benchmark failure fails the target.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 3x ./... > bench.txt
	$(GO) run ./cmd/benchjson -out bench.json < bench.txt
	@echo "wrote bench.json (raw output in bench.txt)"

# Benchmark regression gate: compare a bench-json artifact against the
# committed rolling baseline (bench/baseline.json, refreshed by CI on main
# pushes) and fail on any per-benchmark ns/op or allocs/op regression above
# BENCH_THRESHOLD (a fraction; 0.50 = 50% — roomy because shared runners
# are noisy; allocs/op regressions have no noise excuse). CI runs this as a
# required step. Local loop:
#   make bench-json && make benchdiff
BENCH_OLD ?= bench/baseline.json
BENCH_NEW ?= bench.json
BENCH_THRESHOLD ?= 0.50
benchdiff:
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)

# Fuzz smoke: the on-disk-format fuzzers (partition files, WAL segments,
# binary and CSV IUPT files), the wire-format fuzzer (the shard's /v2/partial body),
# the query-body fuzzer (/v2/query's refusals and the queries it accepts),
# the table-read fuzzer (a backed table's range reads against a flat
# table's), the ingest-batch fuzzer (Ingest's batch checks against the
# map-based reference they replaced) and the door matrix (every way to ask
# the engine against one reference; DESIGN.md §4), a short budget each on top of their
# seeds (f.Add, plus testdata/fuzz/ where committed). CI runs this on every push; leave a
# crasher running overnight with FUZZTIME=8h. New crash inputs land in the
# package's testdata/fuzz/ directory — commit them, they become regression
# tests.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionOpen$$' -fuzztime $(FUZZTIME) ./internal/parts
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/iupt
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/iupt
	$(GO) test -run '^$$' -fuzz '^FuzzTableRead$$' -fuzztime $(FUZZTIME) ./internal/iupt
	$(GO) test -run '^$$' -fuzz '^FuzzPartialDecode$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzQueryRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzIngestBatch$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDoors$$' -fuzztime $(FUZZTIME) ./internal/core

# Coverage artifact: atomic-mode profile across every package, plus the
# per-function summary CI posts into the job summary. Open the HTML view
# with: go tool cover -html=cover.out
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

lint: fmt vet staticcheck vuln

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck and govulncheck run when installed (CI installs them; locally
# they are optional so a bare toolchain can still run `make ci`):
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# End-to-end server smoke: gendata generates a dataset, tkplqd serves it,
# curl+jq assert well-formed responses.
smoke:
	./scripts/server_smoke.sh

# End-to-end cluster smoke: 2 shard daemons + a router vs a standalone
# daemon over the same dataset — byte-identical answers, routed ingest,
# kill -9 degradation with the structured 503, WAL recovery.
smoke-cluster:
	./scripts/cluster_smoke.sh

# Public-API drift gate: the exported surface of package tkplq must match
# the golden snapshot in testdata/api.txt. After an intentional API change:
#   go test -run TestPublicAPIGolden . -update-api
apicheck:
	$(GO) test -run TestPublicAPIGolden .

# The experiments have a golden of the same kind, checked by `make test`:
# every cell of the Small-scale sweep that is not a wall-clock time must
# match internal/experiments/testdata/small.golden. After an intentional
# change to a printed number:
#   go test -run TestAllExperimentsRun ./internal/experiments -update-experiments

# The serving benchmark (bench/e2e, contract in BENCHMARK.json) is its own
# module, so `go build ./... && go test ./...` here cannot see a root API
# change that stops it compiling. This vets it and runs its unit tests
# against the working tree (~2 s); `bash bench/e2e/run.sh` is the benchmark
# itself.
bench-e2e:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

# The headline number of ROADMAP item 3 (non-test Go lines outside bench/e2e,
# with exactly the command ROADMAP quotes), the test lines beside it, plus
# the packages the deletions come from. Reported, not gated: reviewers judge
# it.
loc:
	@printf 'non-test Go lines (excluding bench/e2e): '; \
	find . -name '*.go' -not -name '*_test.go' -not -path './bench/e2e/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'test Go lines (excluding bench/e2e): '; \
	find . -name '*_test.go' -not -path './bench/e2e/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@for p in internal/core internal/iupt internal/rtree internal/server internal/experiments cmd/tkplqd; do \
		printf '  %-20s ' $$p; find ./$$p -name '*.go' -not -name '*_test.go' | xargs cat | wc -l; \
	done

ci: lint build apicheck bench-e2e race bench smoke smoke-cluster
