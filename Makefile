GO ?= go

.PHONY: all build test race flake fuzz-smoke vet lint fmt-check loc bench report-diff prof-determinism telemetry-determinism bench-smoke serve-smoke cluster-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake reruns the concurrency-heavy wall-tier packages twenty times, so a
# test that passes only on a lucky schedule fails here instead of at random.
flake:
	$(GO) test -count=20 ./internal/serve ./internal/cluster ./internal/runlog

# fuzz-smoke runs every Fuzz target for 5 s each, on two fuzzing
# workers: long enough to catch a parser that panics on the first odd
# input, short enough for every CI run. go test -fuzz takes one target
# per invocation, hence one line each. For a longer run, call
# go test -fuzz directly.
fuzz-smoke:
	$(GO) test -run '^$$' -parallel 2 -fuzztime 5s -fuzz '^FuzzReadAll$$' ./internal/runlog
	$(GO) test -run '^$$' -parallel 2 -fuzztime 5s -fuzz '^FuzzS2MapWalk$$' ./internal/mem
	$(GO) test -run '^$$' -parallel 2 -fuzztime 5s -fuzz '^FuzzTLBConsistency$$' ./internal/mem
	$(GO) test -run '^$$' -parallel 2 -fuzztime 5s -fuzz '^FuzzDiskHeader$$' ./internal/cluster

vet:
	$(GO) vet ./...

# lint runs go vet as the baseline plus armvirt-vet, the repo's own
# seven-analyzer suite (determinism, instrumentation, and cross-package
# invariants; see DESIGN.md §9 and §14). -timing prints the per-analyzer
# cost and -budget fails the target if the whole suite ever gets slow
# enough to tempt people into skipping it.
LINT_BUDGET ?= 60s
lint: vet
	$(GO) build -o /tmp/armvirt-vet ./cmd/armvirt-vet
	/tmp/armvirt-vet -timing -budget $(LINT_BUDGET) ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc prints the non-test Go line count (perfbench and analyzer fixtures
# excluded), the figure each change reports its delta against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' | xargs cat | wc -l

bench:
	$(GO) test -bench=. -benchmem ./...

report-diff:
	$(GO) build -o /tmp/armvirt-report ./cmd/armvirt-report
	/tmp/armvirt-report -j 1 > /tmp/report-serial.txt
	/tmp/armvirt-report -j 4 > /tmp/report-parallel.txt
	diff -u /tmp/report-serial.txt /tmp/report-parallel.txt

prof-determinism:
	$(GO) build -o /tmp/armvirt-prof ./cmd/armvirt-prof
	/tmp/armvirt-prof -j 1 -folded > /tmp/prof-serial.folded
	/tmp/armvirt-prof -j 4 -folded > /tmp/prof-parallel.folded
	diff -u /tmp/prof-serial.folded /tmp/prof-parallel.folded

# telemetry-determinism checks the in-sim sampler's byte-identity
# contract: the full PD1 fleet time series (per-PCPU utilization, steal,
# run-queue depth, exits, IRQ latency) rendered by armvirt-top must not
# change one byte between two separate processes, one of them confined
# to a single OS thread (GOMAXPROCS=1). CI archives the CSV and JSON.
telemetry-determinism:
	$(GO) build -o /tmp/armvirt-top ./cmd/armvirt-top
	/tmp/armvirt-top -exp PD1 -format csv > /tmp/telemetry-a.csv
	GOMAXPROCS=1 /tmp/armvirt-top -exp PD1 -format csv > /tmp/telemetry-b.csv
	diff -u /tmp/telemetry-a.csv /tmp/telemetry-b.csv
	/tmp/armvirt-top -exp PD1 -format json > /tmp/telemetry-a.json
	GOMAXPROCS=1 /tmp/armvirt-top -exp PD1 -format json > /tmp/telemetry-b.json
	diff -u /tmp/telemetry-a.json /tmp/telemetry-b.json
	@grep -q ',steal,' /tmp/telemetry-a.csv || { echo "no steal series in PD1 telemetry"; exit 1; }
	@echo "telemetry-determinism: OK (PD1 series byte-identical across processes and GOMAXPROCS)"

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkProcSwitch|BenchmarkProcHandoff|BenchmarkSleepQueued|BenchmarkQueueSendRecv' -benchmem -benchtime 100ms ./internal/sim

# serve-smoke boots the armvirt-serve daemon, waits for /healthz, then
# checks the cache-correctness contract end to end: a cold (fresh-run)
# response, a warm (cache-hit) response, and armvirt-report -json output
# must be byte-identical, and /metrics must report the hit. It then
# exercises the run ledger: /v1/runs must list the experiment run, its
# Chrome trace must be schema-valid JSON (kept at /tmp/serve-trace.json
# for CI to archive), and armvirt-runs must query the ledger file after
# the server exits. SIGTERM must drain and exit 0.
serve-smoke:
	$(GO) build -o /tmp/armvirt-serve ./cmd/armvirt-serve
	$(GO) build -o /tmp/armvirt-report ./cmd/armvirt-report
	$(GO) build -o /tmp/armvirt-runs ./cmd/armvirt-runs
	@set -e; \
	rm -f /tmp/serve-ledger.jsonl /tmp/serve-ledger.jsonl.1; \
	/tmp/armvirt-serve -addr 127.0.0.1:18080 -ledger /tmp/serve-ledger.jsonl & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS http://127.0.0.1:18080/healthz >/dev/null; \
	curl -fsS http://127.0.0.1:18080/readyz >/dev/null; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/T2?format=json" > /tmp/serve-cold.json; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/T2?format=json" > /tmp/serve-warm.json; \
	diff -u /tmp/serve-cold.json /tmp/serve-warm.json; \
	/tmp/armvirt-report -only T2 -json > /tmp/serve-direct.json; \
	diff -u /tmp/serve-cold.json /tmp/serve-direct.json; \
	curl -fsS "http://127.0.0.1:18080/v1/profile/kvm-arm/hypercall?format=folded" >/dev/null; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_cache_hits_total 1'; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_stage_latency_us{stage="engine"'; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/PD1/timeseries?format=csv" > /tmp/serve-ts-cold.csv; \
	curl -fsS "http://127.0.0.1:18080/v1/experiments/PD1/timeseries?format=csv" > /tmp/serve-ts-warm.csv; \
	diff -u /tmp/serve-ts-cold.csv /tmp/serve-ts-warm.csv; \
	grep -q ',steal,' /tmp/serve-ts-cold.csv; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q 'armvirt_build_info{go_version='; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -Eq 'armvirt_telemetry_series_total [1-9]'; \
	run=$$(curl -fsS "http://127.0.0.1:18080/v1/runs?experiment=T2&outcome=miss&format=json" | jq -re '.[0].id'); \
	curl -fsS "http://127.0.0.1:18080/v1/runs/$$run" | jq -e '.target == "T2" and .outcome == "miss" and .engine.cycles > 0' >/dev/null; \
	curl -fsS "http://127.0.0.1:18080/v1/runs/$$run/trace" > /tmp/serve-trace.json; \
	jq -e 'type == "array" and (map(select(.ph == "X" or .ph == "M" or .ph == "C")) | length) == length and ([.[].pid] | unique | contains([1, 2]))' /tmp/serve-trace.json >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	/tmp/armvirt-runs -experiment T2 -status 200 /tmp/serve-ledger.jsonl | grep -q "$$run"; \
	echo "serve-smoke: OK (cached == fresh == armvirt-report -json; run ledger + trace valid; graceful drain)"

# cluster-smoke is the end-to-end acceptance for the cluster tier
# (DESIGN.md §13): it boots a 3-replica consistent-hash cluster on
# loopback (per-replica disk tiers) and checks, in order —
#   1. byte identity: the same experiment fetched via each replica
#      returns identical bytes, with exactly one engine run cluster-wide
#      (armvirt_engine_runs_total summed across the three /metrics);
#   2. a cold armvirt-loadgen pass runs each cold path exactly once
#      cluster-wide, and a warm pass adds zero engine runs and zero
#      errors (reports kept at /tmp/loadgen-{cold,warm}.json for CI);
#   3. rolling drain: SIGTERM one replica mid-load — its /readyz flips
#      to 503 while /healthz stays 200 and the listener drains, the
#      load generator observes the flip (unready polls) and finishes
#      with zero non-429 errors;
#   4. restart warmth: the owner replica restarted onto its disk
#      directory answers from the disk tier (X-Cache: disk), engine
#      runs stay 0, bytes identical to the original compute.
cluster-smoke:
	$(GO) build -o /tmp/armvirt-serve ./cmd/armvirt-serve
	$(GO) build -o /tmp/armvirt-loadgen ./cmd/armvirt-loadgen
	@set -e; \
	PEERS='r1=http://127.0.0.1:18181,r2=http://127.0.0.1:18182,r3=http://127.0.0.1:18183'; \
	TARGETS='http://127.0.0.1:18181,http://127.0.0.1:18182,http://127.0.0.1:18183'; \
	D=/tmp/armvirt-cluster; rm -rf $$D; mkdir -p $$D/d1 $$D/d2 $$D/d3; \
	/tmp/armvirt-serve -addr 127.0.0.1:18181 -name r1 -peers "$$PEERS" -disk $$D/d1 -drain-delay 2s & p1=$$!; \
	/tmp/armvirt-serve -addr 127.0.0.1:18182 -name r2 -peers "$$PEERS" -disk $$D/d2 -drain-delay 2s & p2=$$!; \
	/tmp/armvirt-serve -addr 127.0.0.1:18183 -name r3 -peers "$$PEERS" -disk $$D/d3 -drain-delay 2s & p3=$$!; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true' EXIT; \
	for port in 18181 18182 18183; do \
	  for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:$$port/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	  curl -fsS http://127.0.0.1:$$port/readyz >/dev/null; \
	done; \
	curl -fsS -D $$D/h1.txt "http://127.0.0.1:18181/v1/experiments/T2?format=json" > $$D/b1.json; \
	curl -fsS "http://127.0.0.1:18182/v1/experiments/T2?format=json" > $$D/b2.json; \
	curl -fsS "http://127.0.0.1:18183/v1/experiments/T2?format=json" > $$D/b3.json; \
	diff $$D/b1.json $$D/b2.json; diff $$D/b1.json $$D/b3.json; \
	runs=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs" = 1 ] || { echo "cluster-smoke: engine runs after one experiment = $$runs, want exactly 1"; exit 1; }; \
	owner=$$(grep -i '^x-armvirt-peer:' $$D/h1.txt | awk '{print $$2}' | tr -d '\r'); \
	[ -n "$$owner" ] || owner=r1; \
	case $$owner in r2) oport=18182; odisk=d2;; r3) oport=18183; odisk=d3;; *) oport=18181; odisk=d1;; esac; \
	echo "cluster-smoke: T2 owned by $$owner (port $$oport)"; \
	LGPATHS='/v1/experiments/T1?format=json,/v1/experiments/T3?format=json,/v1/profile/kvm-arm/hypercall?format=folded'; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 30 -duration 3s -json > /tmp/loadgen-cold.json; \
	jq -e '.errors == 0 and .ok > 0' /tmp/loadgen-cold.json >/dev/null; \
	runs=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs" = 4 ] || { echo "cluster-smoke: engine runs after cold loadgen = $$runs, want 4 (T2 + 3 cold paths, each exactly once)"; exit 1; }; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 30 -duration 3s -json > /tmp/loadgen-warm.json; \
	jq -e '.errors == 0 and (.outcomes.hit // 0) > 0' /tmp/loadgen-warm.json >/dev/null; \
	runs2=$$(for port in 18181 18182 18183; do curl -fsS http://127.0.0.1:$$port/metrics | grep '^armvirt_engine_runs_total'; done | awk '{s+=$$2} END{print s}'); \
	[ "$$runs2" = "$$runs" ] || { echo "cluster-smoke: warm loadgen added engine runs ($$runs -> $$runs2)"; exit 1; }; \
	/tmp/armvirt-loadgen -targets "$$TARGETS" -paths "$$LGPATHS" -rps 20 -duration 6s -json > /tmp/loadgen-drain.json & lg=$$!; \
	sleep 1; kill -TERM $$p2; sleep 0.5; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18182/readyz); \
	[ "$$code" = 503 ] || { echo "cluster-smoke: draining replica /readyz = $$code, want 503"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18182/healthz); \
	[ "$$code" = 200 ] || { echo "cluster-smoke: draining replica /healthz = $$code, want 200 (liveness-only)"; exit 1; }; \
	wait $$lg; wait $$p2; \
	jq -e '.errors == 0' /tmp/loadgen-drain.json >/dev/null || { echo "cluster-smoke: non-429 errors during rolling drain"; cat /tmp/loadgen-drain.json; exit 1; }; \
	jq -e '(.unready["http://127.0.0.1:18182"] // 0) > 0' /tmp/loadgen-drain.json >/dev/null || { echo "cluster-smoke: loadgen never observed the /readyz flip"; exit 1; }; \
	kill -TERM $$p1 $$p3; wait $$p1 $$p3; \
	/tmp/armvirt-serve -addr 127.0.0.1:$$oport -disk $$D/$$odisk & p4=$$!; \
	trap 'kill $$p4 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:$$oport/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS -D $$D/h4.txt "http://127.0.0.1:$$oport/v1/experiments/T2?format=json" > $$D/b4.json; \
	grep -iq '^x-cache: disk' $$D/h4.txt || { echo "cluster-smoke: restarted replica did not answer from the disk tier"; cat $$D/h4.txt; exit 1; }; \
	diff $$D/b1.json $$D/b4.json; \
	curl -fsS http://127.0.0.1:$$oport/metrics | grep -q '^armvirt_engine_runs_total 0' || { echo "cluster-smoke: restarted replica re-ran the engine"; exit 1; }; \
	kill -TERM $$p4; wait $$p4; \
	echo "cluster-smoke: OK (exactly-once cold, byte identity, rolling drain with zero errors, disk-tier warm restart)"

ci: fmt-check lint build race flake fuzz-smoke report-diff prof-determinism telemetry-determinism bench-smoke serve-smoke cluster-smoke
