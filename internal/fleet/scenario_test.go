package fleet

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
)

// startWorkers serves n loopback shard workers that populate their homes
// with s.SetupHome, as `hwfleetd -worker` does, and returns their
// addresses.
func startWorkers(t *testing.T, s Scenario, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		clk := clock.NewSimulated()
		eng := engine.New(engine.Config{Index: i, Clock: clk, Seed: s.Seed, OnAssign: s.SetupHome})
		t.Cleanup(eng.Close)
		srv := shardrpc.NewServer(shardrpc.Config{Backend: eng, Hub: eng.Hub(), Clock: clk})
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	return addrs
}

// runScenario runs s to completion through one runner and returns its
// report.
func runScenario(t *testing.T, s Scenario, workers []string) *Report {
	t.Helper()
	r, err := NewRunner(s, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScenarioRunIsTransportInvisible runs one churn-free scenario twice
// in process and once over two loopback workers: the three reports must
// agree on every traffic total and on the busiest homes. Only Hosts
// differs by design — a remote home's network is not visible here.
func TestScenarioRunIsTransportInvisible(t *testing.T) {
	s := DefaultScenario()
	s.Homes, s.Shards, s.ChurnPerMin = 6, 2, 0

	traffic := func(rep *Report) FleetTotals {
		tot := rep.Totals
		tot.Hosts = 0
		return tot
	}
	want := runScenario(t, s, nil)
	if want.Steps != 40 || want.Totals.Flows == 0 || want.Totals.Links == 0 || len(want.TopHomes) != 5 {
		t.Fatalf("in-process run: %d steps, totals %+v, top homes %v", want.Steps, want.Totals, want.TopHomes)
	}
	for _, mode := range []struct {
		name    string
		workers []string
	}{
		{"in-process again", nil},
		{"remote", startWorkers(t, s, s.Shards)},
	} {
		got := runScenario(t, s, mode.workers)
		if traffic(got) != traffic(want) {
			t.Errorf("%s: totals %+v, want %+v", mode.name, got.Totals, want.Totals)
		}
		if !reflect.DeepEqual(got.TopHomes, want.TopHomes) {
			t.Errorf("%s: top homes %v, want %v", mode.name, got.TopHomes, want.TopHomes)
		}
		if got.Steps != want.Steps || got.Homes != want.Homes || got.Shards != want.Shards {
			t.Errorf("%s: %d homes on %d shards over %d steps, want %d on %d over %d", mode.name,
				got.Homes, got.Shards, got.Steps, want.Homes, want.Shards, want.Steps)
		}
	}
}

// TestScenarioStepsRoundInBothModes: 4.8 s at 0.1 s steps is 47.999... in
// float64, and both modes must run 48 steps, not truncate to 47.
func TestScenarioStepsRoundInBothModes(t *testing.T) {
	s := DefaultScenario()
	s.Homes, s.HostsPerHome, s.Shards = 1, 0, 1
	s.DurationSec, s.StepSec = 4.8, 0.1
	for name, workers := range map[string][]string{
		"in-process": nil,
		"remote":     startWorkers(t, s, 1),
	} {
		if rep := runScenario(t, s, workers); rep.Steps != 48 {
			t.Errorf("%s: %d steps, want 48", name, rep.Steps)
		}
	}
}
