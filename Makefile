# Development and CI entry points. CI runs `make ci`; every target is safe
# to run locally with a stock Go toolchain (no external dependencies).

GO ?= go

.PHONY: build test race bench bench-json bench-harness serve-smoke test-tenants test-shares test-spec test-cluster test-telemetry test-device test-scenario cover fuzz-smoke fmt vet fmt-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark in the root harness and
# the serving subsystem, enough to catch bit-rot without waiting for stable
# numbers.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/serve

# Machine-readable benchmarks: run the root and serving benchmarks with
# -benchmem, keep the raw text for benchstat (BENCH_<date>.txt) and render a
# JSON trajectory point next to it (BENCH_<date>.json) via cmd/benchjson.
# Override BENCHTIME (e.g. BENCHTIME=5x) for steadier numbers.
BENCHTIME ?= 1x
BENCHSTAMP := $(shell date +%Y%m%d)
bench-json:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem -run='^$$' . ./internal/serve \
		| tee BENCH_$(BENCHSTAMP).txt \
		| $(GO) run ./cmd/benchjson > BENCH_$(BENCHSTAMP).json
	@echo "wrote BENCH_$(BENCHSTAMP).txt and BENCH_$(BENCHSTAMP).json"

# Benchmark-harness check: cmd/icgmm-bench is its own module (its go.mod
# points repro at the repository root), so the root `go test ./...` never
# builds it. Vet and test it here, so an API change in a package it calls
# fails CI instead of the next benchmark run.
bench-harness:
	cd cmd/icgmm-bench && $(GO) vet . && $(GO) test .

# Serving smoke: a short icgmm-serve run under the race detector, exercising
# ingest, batched admission, a drift-triggered sync refresh, and JSONL
# metrics end to end.
serve-smoke:
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-smoke.json \
		-out /dev/null

# Multi-tenant suite: the tenant/controller/golden-determinism tests plus a
# 3-tenant icgmm-serve smoke (per-tenant QoS, capacity shares, adaptive
# controller) under the race detector.
test-tenants:
	$(GO) test ./internal/serve -run 'Tenant|Golden|ValidateWarmup|ParseTenantSpecs' -race
	$(GO) test ./internal/workload -run 'Mux' -race
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-tenants.json \
		-out /dev/null

# Elastic-share suite: the share-adaptation unit/property/golden tests plus a
# 3-tenant icgmm-serve smoke whose mid-run working-set growth drives the
# controller's capacity lever (share transfers + block migration) under the
# race detector.
test-shares:
	$(GO) test ./internal/serve -run 'Share|Controller|ResidencyAudit|Golden' -race
	$(GO) test ./internal/cache -run 'EvictAt|Victim' -race
	$(GO) test ./internal/workload -run 'ShiftTo' -race
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-elastic.json \
		-shards 4 -out /dev/null

# Spec & Session suite: declarative-spec validation, round-trip and
# field-path strictness tests, the checkpoint/resume golden (byte-identical
# across a pause at shards 1/2/8) and every-batch-boundary property tests,
# workload stream-state round trips — all under the race detector — plus an
# icgmm-serve run driven entirely by the committed spec file.
test-spec:
	$(GO) test ./internal/serve -run 'Spec|Session|Checkpoint|Resume|RateDerived|RateFloor' -race
	$(GO) test ./internal/workload -run 'State' -race
	$(GO) test ./cmd/icgmm-serve -race
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-elastic.json \
		-shards 4 -out /dev/null

# Cluster suite: the coordinator/worker/protocol tests (golden byte-identity
# across forced migration and forced kill+replay at shards 1/2/8) under the
# race detector, then the icgmm-cluster binary driving the sample spec with
# real spawned worker processes — one live migration, one SIGKILL'd worker —
# and -verify byte-comparing every committed stream against an uninterrupted
# in-process rerun.
test-cluster:
	$(GO) test ./internal/cluster ./internal/strictjson -race
	$(GO) test ./cmd/icgmm-cluster -race
	$(GO) run -race ./cmd/icgmm-cluster -spec cmd/icgmm-cluster/testdata/cluster-sample.json \
		-merged /dev/null -verify -v

# Telemetry suite: the registry/trace/debug-server unit tests, the golden
# determinism-equivalence tests (telemetry on, scraped live, must emit the
# telemetry-off byte stream — serve at shards 1/2/8, cluster across faults),
# and the CLI test that scrapes /metrics + /status from a live spec-driven
# run mid-flight — all under the race detector.
test-telemetry:
	$(GO) test ./internal/telemetry -race
	$(GO) test ./internal/serve -run 'MetricsSink' -race
	$(GO) test ./internal/cluster -run 'Telemetry|WorkerDebug' -race
	$(GO) test ./cmd/icgmm-serve -run 'TelemetryLiveScrape' -race

# Device-timing suite: the fpga timeline / device model / cxl link unit
# tests, the serve-path dataflow tests (committed golden at shards 1/2/8
# with a mid-run checkpoint/resume, queue-depth QoS lever regression,
# congestion events, flat-default byte-compatibility) under the race
# detector, then an icgmm-serve smoke driven by the committed dataflow spec.
test-device:
	$(GO) test ./internal/fpga ./internal/device ./internal/cxl -race
	$(GO) test ./internal/serve -run 'Dataflow|Device|QueueDepth|TimingKind' -race
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-dataflow.json \
		-shards 4 -out /dev/null

# Scenario suite: the timeline/event-engine unit tests, the closed-loop
# client tests, the scenario golden (tenant churn + diurnal rates + phase
# swap + shadow LSTM, byte-identical at shards 1/2/8 across a checkpoint
# that straddles a leave and a join), the shadow no-live-effect and
# closed-loop feedback tests, and the EWMA donor-headroom regression — all
# under the race detector — then an icgmm-serve smoke driven by the
# committed scenario spec.
test-scenario:
	$(GO) test ./internal/scenario -race
	$(GO) test ./internal/lstm -race
	$(GO) test ./internal/workload -run 'ClosedLoop|Mux' -race
	$(GO) test ./internal/serve -run 'Scenario|Shadow|ClosedLoop|EWMA' -race
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-scenario.json \
		-out /dev/null

# Ratcheted coverage floors for the packages the test subsystem hardens.
# Raise a floor when coverage grows; never lower one.
COVER_FLOORS := ./internal/serve:91 ./internal/stats:95 ./internal/workload:95 ./internal/cluster:75 ./internal/strictjson:95 ./internal/telemetry:85 ./internal/fpga:80 ./internal/cxl:80 ./internal/device:90 ./internal/scenario:95 ./internal/lstm:95
cover:
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; min=$${spec##*:}; \
		if ! $(GO) test -coverprofile=cover.tmp.out $$pkg > cover.tmp.log 2>&1; then \
			cat cover.tmp.log; rm -f cover.tmp.out cover.tmp.log; exit 1; \
		fi; \
		pct=$$($(GO) tool cover -func=cover.tmp.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $$min%)"; \
		if [ "$$(awk -v p=$$pct -v m=$$min 'BEGIN {print (p >= m) ? 1 : 0}')" != 1 ]; then \
			echo "FAIL: coverage for $$pkg fell below the ratcheted floor"; fail=1; \
		fi; \
	done; \
	rm -f cover.tmp.out cover.tmp.log; exit $$fail

# Fuzz smoke: 20 seconds per target against the trace CSV parser, the
# -tenants JSON spec parser, the declarative run-spec wire format, the spec's
# device-timing block, the scenario/clients/shadow blocks, the Q16.16
# quantizer's batch/scalar parity contract, and the checkpoint's histogram
# state decoder. -run='^$$' skips the unit tests so the time budget goes
# entirely to fuzzing.
fuzz-smoke:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzParseRecord -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzTenantSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzServeSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDeviceSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=20s
	$(GO) test ./internal/gmm -run='^$$' -fuzz=FuzzQuantizeRoundTrip -fuzztime=20s
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzHistogramState -fuzztime=20s

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet build race cover bench bench-harness serve-smoke test-tenants test-shares test-spec test-cluster test-telemetry test-device test-scenario fuzz-smoke
