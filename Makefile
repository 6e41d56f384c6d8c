# Tier-1 checks plus the race/bench gates the parallel evaluation engine
# relies on. `make check` is what CI should run on every PR.

GO ?= go

.PHONY: all build vet test race stress bench cover fuzz chaos serve-smoke staticcheck check

all: check

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would rewrite (hidden directories,
# such as the benchmark's build cache, are skipped).
vet: build
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' -not -path './.*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test: vet
	$(GO) test ./...

# The determinism tests (internal/experiments, internal/ga, parallel_test.go
# files) only prove anything when the race detector watches the fan-out.
# internal/experiments runs ~9.5 minutes under -race on a loaded builder,
# which brushes against the Go test binary's default 600s per-package
# timeout — set it explicitly so the suite fails on real hangs, not load.
race: vet
	$(GO) test -race -timeout 30m ./...

# Concurrency stress: the serve job-lifecycle tests and the cluster
# dispatch tests, 50 times each under the race detector. A concurrency test
# is trusted only once it passes every one of these runs.
stress: vet
	$(GO) test -race -count=50 ./internal/serve \
		-run 'TestCancelPickupRace|TestCancel$$|TestConcurrentSubmitters|TestQueueFullRejects|TestDrain|TestJobTimeout|TestPanickingJobFailsNotTheDaemon'
	$(GO) test -race -count=50 -run 'TestCluster|TestChaos' ./internal/cluster

# Short-mode benchmarks: one iteration each at smoke scale, enough to catch
# a benchmark that no longer compiles or panics without paying full cost.
bench:
	GIPPR_SCALE=smoke $(GO) test -short -bench=. -benchtime=1x ./...

# Coverage gate: short-mode statement coverage must stay at or above the
# floor measured when the gate was introduced (75.6% total). The one-pass
# stack-distance engine, the batched replay kernel, and the policy-diff
# explain engine carry their own per-package floors on top — they are the
# exactness anchors of the sweep, replay, and why-report paths, so their
# differential batteries must keep covering them. Raise the floors when
# coverage durably improves; never lower them to make a PR pass.
COVER_MIN ?= 75.0
STACKDIST_COVER_MIN ?= 85.0
BATCHREPLAY_COVER_MIN ?= 85.0
EXPLAIN_COVER_MIN ?= 85.0
COVERPROFILE ?= cover.out
cover: vet
	$(GO) test -short -count=1 -coverprofile=$(COVERPROFILE) ./...
	@$(GO) tool cover -func=$(COVERPROFILE) | tail -n 1
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %.1f%% gate\n", t, min; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% gate\n", t, min }'
	@for pair in internal/stackdist:$(STACKDIST_COVER_MIN) internal/batchreplay:$(BATCHREPLAY_COVER_MIN) \
		internal/explain:$(EXPLAIN_COVER_MIN); do \
		pkg=$${pair%%:*}; min=$${pair#*:}; \
		pct=$$($(GO) test -short -count=1 -cover ./$$pkg | awk '{ for (i=1;i<=NF;i++) if ($$i ~ /%/) { gsub("%","",$$i); print $$i } }'); \
		awk -v t=$$pct -v min=$$min -v pkg=$$pkg 'BEGIN { \
			if (t+0 < min+0) { printf "%s coverage %.1f%% is below the %.1f%% gate\n", pkg, t, min; exit 1 } \
			printf "%s coverage %.1f%% meets the %.1f%% gate\n", pkg, t, min }' || exit 1; \
	done

# End-to-end daemon smoke: build gippr-serve, drive the v1 job API with
# curl against an ephemeral port, and require SIGTERM to drain with exit 0.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Deprecation hygiene. The grep half needs no tooling: every Deprecated
# marker must be a well-formed godoc paragraph ("// Deprecated: ") naming a
# replacement, so the notes render and SA1019 can see them. The staticcheck
# half then enforces that nothing in-tree calls a deprecated symbol; it is
# skipped with a notice
# when the binary is not installed (CI installs it; we add no deps here).
staticcheck:
	@bad=$$(grep -rn "Deprecated:" --include='*.go' --exclude-dir=testdata . \
		| grep -v "// Deprecated: [a-zA-Z]" || true); \
	if [ -n "$$bad" ]; then \
		echo "malformed deprecation annotations (want '// Deprecated: <use X instead>'):"; \
		echo "$$bad"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Fuzz smoke: a few seconds per target over the external-input boundaries
# (binary trace reader, IPV parser), the single-pass multi-model replay
# kernel, and the batched branch-free replay kernel's scalar equivalence in
# stream order and set-grouped.
# Long campaigns run these by hand with a bigger -fuzztime.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzParseVector -fuzztime=$(FUZZTIME) ./internal/ipv
	$(GO) test -run=^$$ -fuzz=FuzzMultiRunConsistency -fuzztime=$(FUZZTIME) ./internal/cpu
	$(GO) test -run=^$$ -fuzz=FuzzBatchedReplayConsistency -fuzztime=$(FUZZTIME) ./internal/batchreplay
	$(GO) test -run=^$$ -fuzz=FuzzGroupedReplayConsistency -fuzztime=$(FUZZTIME) ./internal/batchreplay
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzOnePassConsistency -fuzztime=$(FUZZTIME) ./internal/stackdist
	$(GO) test -run=^$$ -fuzz=FuzzExplainDecomposition -fuzztime=$(FUZZTIME) ./internal/explain

# Fault-injection suite under the race detector: torn streams, dropped
# connections, dead/slow/flaky peers, breaker transitions — every scenario
# must end with a manifest byte-identical to a single node's.
chaos: vet
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/cluster

check: race stress fuzz chaos staticcheck serve-smoke
