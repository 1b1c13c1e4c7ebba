package fleet

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/telemetry"
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

// TestRestartAccountsWrappedRows: a home whose rings wrapped since the last
// sync and is then restarted leaves every row its old incarnation inserted
// on the books, read or wrapped out: its shard hub's and the federation's
// delivered + lost equal the inserts of every incarnation.
func TestRestartAccountsWrappedRows(t *testing.T) {
	f := New(Config{Clock: clock.NewSimulated(), Seed: 5, Shards: 2,
		HomeConfig: func(_ uint64, cfg *core.Config) { cfg.RingSize = 4 }})
	t.Cleanup(f.Stop)
	homes, err := f.AddHomes(2)
	if err != nil {
		t.Fatal(err)
	}
	old := homes[0]
	host, err := old.Join("", false, netsim.Pos{X: 2})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 60_000))
	for i := 0; i < 2; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}
	// Rows after the step's sync, more than the ring holds.
	for i := 0; i < 10; i++ {
		if err := old.Router.DB.InsertLease("upd", host.MAC, host.IP(), "renamed"); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := f.RestartHome(old.ID)
	if err != nil {
		t.Fatal(err)
	}
	f.Sync()

	var inserts uint64
	for _, h := range []*Home{old, fresh, homes[1]} {
		for _, name := range watchedTables {
			if tbl, ok := h.Router.DB.Table(name); ok {
				ins, _ := tbl.Stats()
				inserts += ins
			}
		}
	}
	if leases, _ := old.Router.DB.Table(hwdb.TableLeases); leases.Len() != 4 {
		t.Fatalf("the old Leases ring holds %d rows, want 4: the 10 rows since the sync did not wrap it", leases.Len())
	}
	var shards telemetry.HubStats
	for _, st := range f.ShardStats() {
		shards.Delivered += st.Hub.Delivered
		shards.Lost += st.Hub.Lost
	}
	for name, st := range map[string]telemetry.HubStats{"shard hubs": shards, "federation": f.Hub().Stats()} {
		if st.Delivered+st.Lost != inserts {
			t.Errorf("%s: delivered %d + lost %d, want the %d inserts", name, st.Delivered, st.Lost, inserts)
		}
	}
}
