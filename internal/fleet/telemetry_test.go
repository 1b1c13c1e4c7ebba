package fleet

import (
	"testing"

	"repro/internal/netsim"
)

// sumInserts totals the hwdb inserts across the fleet-watched tables of
// the given homes — the ground truth the live telemetry must account for.
func sumInserts(homes []*Home) uint64 {
	var total uint64
	for _, h := range homes {
		for _, name := range watchedTables {
			if t, ok := h.Router.DB.Table(name); ok {
				ins, _ := t.Stats()
				total += ins
			}
		}
	}
	return total
}

// TestLiveStatsReflectEveryStep is the determinism acceptance gate at 8
// homes: immediately after each Step, with no fold pass, the live totals
// account for exactly the rows that step's measurement plane inserted,
// and a re-run from the same seed reproduces the identical FleetStats
// view byte for byte.
func TestLiveStatsReflectEveryStep(t *testing.T) {
	run := func() (*Coordinator, string) {
		f := newTestFleet(t, 8, 4, nil)
		for _, h := range f.Homes() {
			registerZones(h)
			if h.ID%2 != 0 {
				continue // odd homes stay idle
			}
			host, err := h.Join("", h.ID%4 == 0, netsim.Pos{X: 2})
			if err != nil {
				t.Fatal(err)
			}
			host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 60_000))
		}
		for i := 0; i < 6; i++ {
			if err := f.Step(0.25); err != nil {
				t.Fatal(err)
			}
			// Read immediately after the step: no extra Sync, no fold.
			tot := f.Totals()
			want := sumInserts(f.Homes())
			hub := f.Hub().Stats()
			if hub.Delivered+hub.Lost != want {
				t.Fatalf("step %d: hub delivered %d + lost %d != %d inserts",
					i, hub.Delivered, hub.Lost, want)
			}
			if got := f.Telemetry().Totals().Rows; got+hub.Lost != want {
				t.Fatalf("step %d: folder consumed %d of %d rows", i, got, want)
			}
			if i >= 2 && (tot.Flows == 0 || tot.Bytes == 0) {
				t.Fatalf("step %d: live totals empty: %+v", i, tot)
			}
		}
		res, err := f.DB().Query("SELECT home, devices, flows, packets, bytes, links FROM FleetStats")
		if err != nil {
			t.Fatal(err)
		}
		return f, res.Text()
	}

	f1, view1 := run()
	f2, view2 := run()
	if view1 != view2 {
		t.Fatalf("FleetStats view not reproducible:\n--- run 1:\n%s\n--- run 2:\n%s", view1, view2)
	}
	if t1, t2 := f1.Totals(), f2.Totals(); t1 != t2 {
		t.Fatalf("totals not reproducible: %+v vs %+v", t1, t2)
	}

	// The idle homes never contributed a view row.
	res, err := f1.DB().Query("SELECT home, sum(flows) FROM FleetStats GROUP BY home")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].Int%2 != 0 {
			t.Fatalf("idle home %d has view rows", row[0].Int)
		}
	}

	// FlowPerf folded through the hub, and at least one rule install's
	// latency survived to a row. A fresh rule shows zero counters on its
	// install step's poll (the trigger packet leaves via packet-out), so
	// this pins the install latency deferring to the flow's first
	// *active* observation instead of being dropped on the idle one.
	ft := f1.Telemetry().Totals()
	if ft.PerfRows == 0 || ft.TxPkts == 0 {
		t.Fatalf("no FlowPerf rows folded: %+v", ft)
	}
	if ft.Installs == 0 {
		t.Fatalf("no rule-install latency reached FlowPerf: %+v", ft)
	}
}

// TestLiveRatesAfterSteps: the fleet-scale bandwidth display reads —
// per-home and per-device windowed rates — are live after stepping.
func TestLiveRatesAfterSteps(t *testing.T) {
	f := newTestFleet(t, 2, 2, nil)
	h, _ := f.Home(0)
	registerZones(h)
	host, err := h.Join("rated-host", true, netsim.Pos{X: 3})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppVideo, zoneFor("video"), 200_000))
	for i := 0; i < 8; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}
	tel := f.Telemetry()
	if r := tel.HomeRate(0); r.BytesPerSec <= 0 || r.PacketsPerSec <= 0 {
		t.Fatalf("home 0 rate = %+v", r)
	}
	if r := tel.FleetRate(); r.BytesPerSec <= 0 {
		t.Fatalf("fleet rate = %+v", r)
	}
	dr := tel.DeviceRates(0)
	if len(dr) != 1 || dr[0].MAC != host.MAC || dr[0].BytesPerSec <= 0 {
		t.Fatalf("device rates = %+v", dr)
	}
	if r := tel.HomeRate(1); r.BytesPerSec != 0 {
		t.Fatalf("idle home 1 rate = %+v", r)
	}
}
