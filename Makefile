GO ?= go

.PHONY: all build test race soak hwbench-test

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
