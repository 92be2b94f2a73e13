# Development targets. `make check` is the default verify flow: vet plus the
# full test suite under the race detector — mandatory now that the execution
# engine makes the codebase concurrent. `make ci` mirrors
# .github/workflows/ci.yml exactly, so a green local run predicts a green PR.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test vet race bench bench-core bench-shard bench-scale bench-hier check fmt-check regress regress-shard golden-update fuzz-smoke bench-module serve-smoke serve-golden-update cache-smoke crash-smoke coord-smoke hier-smoke hier-golden-update ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Hot-path throughput ledger: run the controller over the same binary trace
# materialized and streamed, verify identical results, append the pair to
# BENCH_core.json. A ratio drifting below 1.0 is a streaming-path regression.
bench-core:
	$(GO) run ./cmd/benchcore

# Same ledger plus the set-sharded driver over the same decode: appends a
# sharded entry (RMW, 4 shards) to BENCH_core.json. ShardedRatio > 1 means
# parallel replay wins; expect < 1 on single-core hosts.
bench-shard:
	$(GO) run ./cmd/benchcore -shards 4

# Shard-scaling sweep: streamed serial baseline plus the sharded driver at
# 1/2/4/8 shards, every point verified byte-identical to the baseline before
# its throughput is recorded. The entry carries gomaxprocs/num_cpu so
# sub-1.0 ratios on single-core hosts read as expected overhead, not
# regressions. CI runs this at a reduced N as a non-gating artifact
# (identity-checked, never speed-gated); the committed BENCH_core.json is
# appended to deliberately, at full N, on developer machines.
SCALE_N ?= 1000000
SCALE_OUT ?= BENCH_core.json
bench-scale:
	$(GO) run ./cmd/benchcore -scale 1,2,4,8 -n $(SCALE_N) -out $(SCALE_OUT)

# Two-level hierarchy throughput: the hier driver (WG L1 + bridge + RMW L2)
# over the same trace materialized and streamed, identity-verified, appended
# as a "hier"-tagged entry to BENCH_core.json.
bench-hier:
	$(GO) run ./cmd/benchcore -hier

check: build vet race

# The benchmark is its own Go module (bench/go.mod), so `go build ./...` at
# the root never compiles it. Vet and test it on its own, so an API change
# that breaks `bash bench/run.sh` fails here rather than at benchmark time.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Golden-result regression: re-run the paper's experiment matrix and diff
# against golden/*.json. Non-zero exit + per-metric diff table on drift.
regress:
	$(GO) run ./cmd/regress

# The same matrix set-sharded: goldens are shard-agnostic, so any drift here
# is a sharding-equivalence bug, not a numbers change.
regress-shard:
	$(GO) run ./cmd/regress -shards 4

# Regenerate the goldens after an intentional change to the reproduced
# numbers. Review the golden/ diff and commit it with the change that caused
# it (policy in README "Reproducing the paper").
golden-update:
	$(GO) run ./cmd/regress -update

fuzz-smoke:
	$(GO) test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) -run='^$$' ./internal/trace
	$(GO) test -fuzz=FuzzBatcher -fuzztime=$(FUZZTIME) -run='^$$' ./internal/trace
	$(GO) test -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) -run='^$$' ./internal/pinlite
	$(GO) test -fuzz=FuzzJobSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/server
	$(GO) test -fuzz=FuzzJournal -fuzztime=$(FUZZTIME) -run='^$$' ./internal/server
	$(GO) test -fuzz=FuzzDisk -fuzztime=$(FUZZTIME) -run='^$$' ./internal/rescache
	$(GO) test -fuzz=FuzzSweepSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/coord

# End-to-end service gate: build sramd, start it on an ephemeral port,
# submit the pinned golden workload over HTTP, verify the returned artifact
# byte-for-byte against an in-process serial run AND against
# golden/serve.json, then SIGTERM the daemon and require a clean exit.
serve-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -smoke -sramd "$$tmp/sramd"

# Regenerate golden/serve.json after an intentional change to the service
# artifact (same review-and-commit policy as golden-update).
serve-golden-update:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -smoke -update -sramd "$$tmp/sramd"

# Result-cache gate: start sramd with a fresh disk CAS, submit the golden
# workload twice, and require miss-then-hit with byte-identical artifacts —
# hit ≡ miss ≡ in-process serial run ≡ golden/serve.json — plus /metrics
# counters that reflect exactly one miss and one memory-tier hit.
cache-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -cache-smoke -sramd "$$tmp/sramd" -cache-dir "$$tmp/cas"

# Crash-recovery gate: start a journaled sramd, submit the golden workload
# with per-batch checkpointing, kill -9 mid-job, restart on the same journal
# dir, and require the job to survive under its id, resume from a
# checkpoint, and finish byte-identical to golden/serve.json. Also checks
# stale-lock takeover and the live-twin fail-fast.
crash-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -crash-smoke -sramd "$$tmp/sramd" -journal-dir "$$tmp/journal"

# Distributed-mode chaos gate: 1 coordinator + 3 workers on ephemeral ports,
# a 12-point sweep embedding the golden workload, kill -9 one worker
# mid-sweep, and require redispatch, a merged ledger byte-identical to the
# serial in-process run, and the golden point matching golden/serve.json.
coord-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -coord-smoke -sramd "$$tmp/sramd"

# Multi-level gate: start sramd, submit a hierarchy job (WG L1 over the
# default 256 KB RMW L2), verify the returned artifact byte-for-byte against
# an in-process serial hierarchy run AND against golden/hier-serve.json,
# then SIGTERM the daemon and require a clean exit.
hier-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -hier-smoke -sramd "$$tmp/sramd"

# Regenerate golden/hier-serve.json after an intentional change to the
# hierarchy artifact (same review-and-commit policy as golden-update).
hier-golden-update:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) build -o "$$tmp/sramd" ./cmd/sramd && \
		$(GO) run ./cmd/sramload -hier-smoke -update -sramd "$$tmp/sramd"

ci: build vet fmt-check race bench-module regress regress-shard serve-smoke cache-smoke crash-smoke coord-smoke hier-smoke fuzz-smoke
