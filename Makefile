GO ?= go

.PHONY: all build test race soak hwbench-test fleet-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs internal/chaos alone, after every other package, so the chaos
# soak's wall budget counts the soak rather than other packages' tests.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/chaos$$')
	$(GO) test -race ./internal/chaos

# hwbench-test vets and tests the benchmark harness. bench/ is a module of
# its own (BENCHMARK.json runs it through bench/run.sh), so `build` and
# `test` above never compile it: a change to a signature the harness pins
# (Table.Cap, Table.Snapshot, DB.Select, hwdb.Parse, ...) passes them and
# breaks the benchmark. Offline, ~15 s.
hwbench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# soak runs the time-compressed chaos soak gate under the race detector:
# two simulated days of scheduled faults over a 16-home fleet with the
# health/remediation loop live, bounded wall clock — once on the default
# single-shard fleet and once across four shard engines (the TestChaosSoak
# prefix matches both), so the federated telemetry accounting is gated
# under churn too. The failing seed is printed by the test; reproduce with
#   go test -race -run TestChaosSoak ./internal/chaos
soak:
	$(GO) test -race -run TestChaosSoak -v -timeout 8m ./internal/chaos

# fleet-smoke runs hwfleetd end to end twice: a 4-home fleet in process,
# then the same scenario over two workers on fixed loopback ports. Both
# runs print the same report and exit 1 when its books fail to reconcile.
# The workers are waited on until they serve, and stopped whatever the
# coordinator's exit.
fleet-smoke:
	$(GO) build -o .fleet-smoke/hwfleetd ./cmd/hwfleetd
	.fleet-smoke/hwfleetd -homes 4 -hosts 2 -duration 2 -q
	@set -e; bin=.fleet-smoke/hwfleetd; \
	$$bin -worker -listen 127.0.0.1:7701 -shard-index 0 > .fleet-smoke/w0.log 2>&1 & w0=$$!; \
	$$bin -worker -listen 127.0.0.1:7702 -shard-index 1 > .fleet-smoke/w1.log 2>&1 & w1=$$!; \
	trap 'kill $$w0 $$w1 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do \
		grep -q serving .fleet-smoke/w0.log && grep -q serving .fleet-smoke/w1.log && break; \
		sleep 0.1; \
	done; \
	$$bin -workers 127.0.0.1:7701,127.0.0.1:7702 -homes 4 -hosts 2 -duration 2 -q; \
	wait $$w0 $$w1
