# Development and CI entry points. CI runs `make ci`; every target is safe
# to run locally with a stock Go toolchain (no external dependencies).

GO ?= go

.PHONY: build test race bench bench-json bench-harness smoke cover fuzz-smoke fmt vet fmt-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark in the root harness, the
# serving subsystem, the GMM scoring kernels (including the fitted-model
# ones) and the shadow LSTM's inference, enough to catch bit-rot without
# waiting for stable numbers.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/serve ./internal/gmm ./internal/lstm

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

# CLI smokes under the race detector: the committed icgmm-serve specs end to
# end — ingest, admission, a drift-triggered sync refresh and JSONL metrics
# (spec-smoke); three QoS tenants with capacity shares and the adaptive
# controller (spec-tenants); mid-run working-set growth driving share
# transfers and block migration (spec-elastic); host routing, the cxl link and
# the fpga timeline (spec-dataflow); tenant churn, diurnal rates, a phase swap
# and the shadow LSTM (spec-scenario) — then icgmm-cluster on the sample spec
# with real spawned worker processes (one live migration, one SIGKILL'd
# worker), -verify byte-comparing every committed stream against an
# uninterrupted in-process rerun. The package tests behind these surfaces
# (goldens at shards 1/2/8, checkpoint/resume, telemetry equivalence) all run
# in `make race`.
smoke:
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-smoke.json -out /dev/null
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-tenants.json -out /dev/null
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-elastic.json -shards 4 -out /dev/null
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-dataflow.json -shards 4 -out /dev/null
	$(GO) run -race ./cmd/icgmm-serve -spec cmd/icgmm-serve/testdata/spec-scenario.json -out /dev/null
	$(GO) run -race ./cmd/icgmm-cluster -spec cmd/icgmm-cluster/testdata/cluster-sample.json \
		-merged /dev/null -verify -v

# Ratcheted coverage floors for the packages the test subsystem hardens.
# Raise a floor when coverage grows; never lower one.
COVER_FLOORS := ./internal/gmm:90 ./internal/serve:92 ./internal/stats:95 ./internal/workload:95 ./internal/cluster:75 ./internal/strictjson:95 ./internal/telemetry:85 ./internal/fpga:80 ./internal/cxl:100 ./internal/device:97 ./internal/scenario:95 ./internal/lstm:99 ./internal/linalg:98 ./internal/policy:88 ./internal/core:89 ./internal/trace:93 ./internal/hbm:100 ./internal/ssd:100
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

# Fuzz smoke: 20 seconds per target against the trace CSV record parser,
# the whole-file CSV reader's write/read round trip, the spec's tenant
# list, the declarative run-spec wire format, the spec's device-timing
# block, the scenario/clients/shadow blocks, the Q16.16 quantizer's
# batch/scalar parity contract, the sparse log-sum-exp's bit-identity with
# the dense sum, the candidate-grid kernel's bit-identity with the dense
# sum over every component, and the checkpoint's histogram state decoder. -run='^$$' skips the unit tests so the time budget goes
# entirely to fuzzing.
fuzz-smoke:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzParseRecord -fuzztime=20s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReadCSV -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzTenantSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzServeSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDeviceSpec -fuzztime=20s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzScenarioSpec -fuzztime=20s
	$(GO) test ./internal/gmm -run='^$$' -fuzz=FuzzQuantizeRoundTrip -fuzztime=20s
	$(GO) test ./internal/gmm -run='^$$' -fuzz=FuzzLogSumExp -fuzztime=20s
	$(GO) test ./internal/gmm -run='^$$' -fuzz=FuzzCandidateScore -fuzztime=20s
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

ci: fmt-check vet build race cover bench bench-harness smoke fuzz-smoke
