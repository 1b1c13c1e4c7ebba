package fleet

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestRemoveReAddSameIDNoWatchLeak churns one home ID through repeated
// RestartHome cycles (the remediation loop's restart path: a drain, then
// a re-add of the same ID) and checks the telemetry watch state stays
// exact: the hub's source count drops by one home's tables between the
// drain and the re-add and returns to baseline after it, every retired
// incarnation's rows stay accounted, and the re-added home's tables
// stream rows again.
func TestRemoveReAddSameIDNoWatchLeak(t *testing.T) {
	var f *Coordinator
	// The re-add configures the new incarnation before it watches its
	// tables: the hub's sources then are what the drain left.
	restarting, between := false, -1
	f = New(Config{Clock: clock.NewSimulated(), Seed: 5, HomeConfig: func(uint64, *core.Config) {
		if restarting {
			between = f.Hub().Stats().Sources
		}
	}})
	t.Cleanup(f.Stop)
	homes, err := f.AddHomes(2)
	if err != nil {
		t.Fatal(err)
	}
	id := homes[0].ID
	baseline := f.Hub().Stats().Sources
	if want := 2 * len(watchedTables); baseline != want {
		t.Fatalf("baseline sources = %d, want %d", baseline, want)
	}

	join := func(h *Home) {
		t.Helper()
		host, err := h.Join("", false, netsim.Pos{X: 2})
		if err != nil {
			t.Fatal(err)
		}
		host.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 60_000))
	}
	join(homes[0])

	// Rows from every incarnation ever retired, captured after its stop
	// (counters final, final drain already delivered to the hub).
	var retired uint64
	insertsOf := func(h *Home) uint64 {
		var n uint64
		for _, name := range watchedTables {
			if tbl, ok := h.Router.DB.Table(name); ok {
				ins, _ := tbl.Stats()
				n += ins
			}
		}
		return n
	}

	h := homes[0]
	for cycle := 0; cycle < 3; cycle++ {
		if err := f.Step(0.25); err != nil {
			t.Fatalf("cycle %d step: %v", cycle, err)
		}
		old := h
		restarting, between = true, -1
		h, err = f.RestartHome(id)
		restarting = false
		if err != nil {
			t.Fatalf("cycle %d restart: %v", cycle, err)
		}
		retired += insertsOf(old)
		if between != baseline-len(watchedTables) {
			t.Fatalf("cycle %d: %d sources after the drain, want %d (watch state leaked)",
				cycle, between, baseline-len(watchedTables))
		}
		if h.ID != id {
			t.Fatalf("cycle %d: re-added as %d, want %d", cycle, h.ID, id)
		}
		if got := f.Hub().Stats().Sources; got != baseline {
			t.Fatalf("cycle %d: %d sources after re-add, want %d", cycle, got, baseline)
		}
		join(h)
	}

	// The final incarnation still streams: step, then check the books
	// across every incarnation that ever lived.
	if err := f.Step(0.25); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	if got := insertsOf(h); got == 0 {
		t.Error("re-added home inserted no rows")
	}
	inserts := retired + insertsOf(h) + insertsOf(homes[1])
	hub := f.Hub().Stats()
	if hub.Delivered+hub.Lost != inserts {
		t.Errorf("unaccounted rows across re-add churn: delivered %d + lost %d != %d inserts",
			hub.Delivered, hub.Lost, inserts)
	}
}
