GO ?= go
FUZZTIME ?= 15s

# Pinned lint-tool versions (make lint). Installed on demand with
# `make lint-tools`; lint skips gracefully when they are absent so the
# target stays usable on network-less machines.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: ci vet vet-report mgspvet lint lint-tools build test ledger-test ledger ledger-compare race torture fuzz bench cover bench-json bench-smoke serve-smoke

ci: vet vet-report build test ledger-test race serve-smoke ## everything CI runs

# Static analysis gate: stock go vet plus the project's own interprocedural
# analyzers (the mgspsummary effect-summary engine feeding persistorder,
# lockorder, seqlockver, twostore, atomicfield, checksumpub, staleannot)
# through the vet -vettool protocol. Must exit 0 on the tree; see
# DESIGN.md §15 for each invariant and the //mgsp: annotation grammar.
vet: mgspvet
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath bin/mgspvet) ./...

# The vettool rebuild is keyed on a content hash of the analyzer sources, so
# `make vet` on an unchanged tree skips even the no-op `go build` invocation.
MGSPVET_HASH := $(shell find cmd/mgspvet internal/analysis -name '*.go' -not -path '*/testdata/*' -print0 | LC_ALL=C sort -z | xargs -0 cat go.mod | cksum | cut -d' ' -f1)
MGSPVET_STAMP := bin/.mgspvet-$(MGSPVET_HASH)

mgspvet: $(MGSPVET_STAMP)

$(MGSPVET_STAMP):
	$(GO) build -o bin/mgspvet ./cmd/mgspvet
	@rm -f $(filter-out $(MGSPVET_STAMP),$(wildcard bin/.mgspvet-*))
	@touch $@

# Machine-readable findings artifact: every mgspvet diagnostic — including
# the ones an //mgsp: annotation suppresses — as deduped, deterministically
# sorted JSONL in VET_REPORT.jsonl. The fresh -mgspsummary.stamp value busts
# go vet's per-package result cache so the append sink sees every package on
# every run; scripts/vetreport merges the raw interleaved stream.
vet-report: mgspvet
	@rm -f VET_raw.jsonl
	$(GO) vet -vettool=$(abspath bin/mgspvet) \
		-mgspsummary.report=$(abspath VET_raw.jsonl) \
		-mgspsummary.stamp=$$(date +%s%N) ./...
	$(GO) run ./scripts/vetreport -in VET_raw.jsonl -out VET_REPORT.jsonl
	@rm -f VET_raw.jsonl
	@echo "vet-report: $$(wc -l < VET_REPORT.jsonl) finding(s) -> VET_REPORT.jsonl"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark ledger is its own module (benchmark/go.mod), so `go test ./...`
# at the root never reaches it. Its tests compile against the packages it
# measures (internal/cache's Pool among them) and keep identifiers of deleted
# options out of the ledger.
ledger-test:
	cd benchmark && $(GO) test .

# The benchmark ledger (benchmark/README.md): all six workloads untraced,
# then traced for the per-layer metrics. Results land in LEDGER.json and
# LEDGER_trace.json for ledger-compare.
ledger:
	bash benchmark/run.sh -json LEDGER.json
	bash benchmark/run.sh -trace 1 -json LEDGER_trace.json

# Compare two ledger result files, e.g. a parent's LEDGER.json against this
# checkout's: one ok / regressed / unresolved row per workload x metric.
ledger-compare:
	@test -n "$(PARENT)" -a -n "$(CHANGE)" || { echo "usage: make ledger-compare PARENT=parent.json CHANGE=change.json"; exit 2; }
	bash benchmark/run.sh -compare $(PARENT) $(CHANGE)

# Optional deep lint: staticcheck + govulncheck at pinned versions. Both
# tools need a one-time network install (`make lint-tools`); when they are
# not on PATH the target prints how to get them and succeeds, so `make lint`
# never breaks an offline checkout.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; run 'make lint-tools' (network required)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; run 'make lint-tools' (network required)"; \
	fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The full race gate: every package, race detector on, test order shuffled
# so inter-test state dependencies cannot hide. This is the documented CI
# gate for concurrency changes — `make race` must be green before merging
# anything that touches locking, the metadata log, or recovery. It starts
# with `make vet` because lockorder catches lock-order inversions that the
# race detector cannot (a deadlock needs the unlucky interleaving). The
# bench smoke ride-along proves the measurement harness end to end (runs
# every experiment briefly and schema-validates the emitted JSON).
race: vet bench-smoke
	$(GO) test -race -shuffle=on ./...

# A seconds-long slice of every experiment with -json output, validated
# against the mgsp-bench/v1 schema by mgspstat. Catches harness or schema
# rot before it reaches a real (minutes-long) bench run.
bench-smoke:
	$(GO) run ./cmd/mgspbench -exp all -scale smoke -json BENCH_smoke.json >/dev/null
	$(GO) run ./cmd/mgspstat -validate BENCH_smoke.json

# End-to-end smoke of the mgspd server path: real process, real TCP, KV +
# ingest workloads through the protocol, live obs fetch, SIGTERM drain, and
# an fsck of the image the shutdown saved. See scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# The instrumented core + mixed + many-core ladder experiments at quick
# scale, emitting the full obs payload (throughput, latency quantiles, WA
# ratio, contention counters, cache-tier hit/miss/eviction counters, fig10s
# scalability ladder to 4*MaxThreads workers). mgspstat -validate enforces
# the fig10s disjoint-writer try-fail budget (<= 0.05/op).
bench-json:
	$(GO) run ./cmd/mgspbench -exp core,mixed,fig10s -json BENCH_core.json
	$(GO) run ./cmd/mgspstat -validate BENCH_core.json

# The crash harness on its own, race detector on: ~200 sampled (seed,
# crash-index) power cuts with 4 racing writers per run under the region
# oracle, plus the scripted single-writer sweeps (MGSP, NOVA, Libnvmmio,
# snapshot lifecycle) cutting power at every stride-th media op under the
# prefix oracle. Each oracle judges the durable image frozen at the cut.
# Torture violations print a deterministic
# `go test -run TestTortureReplay -torture.*` repro line.
torture:
	$(GO) test -race -count=1 ./internal/torture

# Native fuzzing of the metadata log: corrupted op entries and per-worker
# area cursors must be rejected by checksum, never replayed, never panic,
# and any op-slot list must survive encode -> decode across chain splits.
# Then the mgspd wire protocol: arbitrary request frames after a valid HELLO
# must never panic the server, every reply must parse, and Close must return.
# Go runs one fuzz target per invocation, so the budget is spent once per
# target. Short budget by default; raise with e.g. `make fuzz FUZZTIME=5m`.
fuzz:
	$(GO) test -run='^$$' -fuzz='FuzzDecodeEntry$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='FuzzDecodeCursor$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='FuzzOpEntryRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='FuzzServeConn$$' -fuzztime=$(FUZZTIME) ./internal/server

# Coverage over the crash-consistency core. Keep internal/core above ~80%:
# uncovered lines there are usually recovery/commit paths that only a new
# fail-point sweep would exercise — add the sweep, not an exclusion.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/core,./internal/alloc,./internal/snapshot ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...
