package fleet

import (
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestFleetConcurrency32Homes drives a 32-home fleet across 8 shards
// with live traffic while syncs and view queries, a counting delta
// consumer and home churn run concurrently with stepping — the
// acceptance gate for `go test -race`: every home's datapath, controller
// and hwdb plus the telemetry hub and folder working at once. At the end,
// every hwdb row any watched table ever held must be delivered or
// explicitly accounted as lost: zero rows go silently missing.
func TestFleetConcurrency32Homes(t *testing.T) {
	if testing.Short() {
		t.Skip("32-home bring-up in -short mode")
	}
	const homes, shards = 32, 8
	f := New(Config{Shards: shards, Clock: clock.NewSimulated(), Seed: 3})
	t.Cleanup(f.Stop)
	if _, err := f.AddHomes(homes); err != nil {
		t.Fatal(err)
	}
	// Every 4th home gets a real traffic source so folds have work.
	for _, h := range f.Homes() {
		if h.ID%4 != 0 {
			continue
		}
		registerZones(h)
		host, err := h.Join("", h.ID%8 == 0, netsim.Pos{X: 2})
		if err != nil {
			t.Fatal(err)
		}
		host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 60_000))
	}

	// A consumer of its own counts every row it is handed or told was
	// lost, inside the drain passes the concurrent syncs race.
	var seen atomic.Uint64
	f.Hub().SubscribeFunc(func(d telemetry.Delta) { seen.Add(uint64(len(d.Rows)) + d.Lost) })

	// track the tables of every home that ever existed, including ones
	// churned away mid-run, for the final accounting.
	tracked := make(map[uint64]*Home)
	for _, h := range f.Homes() {
		tracked[h.ID] = h
	}

	// Sync and query the view concurrently with stepping: the flushes race
	// the homes' measurement planes and the steps race each other across
	// shards.
	aggDone := make(chan struct{})
	go func() {
		defer close(aggDone)
		for i := 0; i < 6; i++ {
			f.Sync()
			if _, err := f.DB().Query("SELECT home, sum(bytes) FROM FleetStats GROUP BY home"); err != nil {
				t.Error(err)
			}
		}
	}()
	// Read the fleet-merged trace summaries concurrently with the punts
	// the steps generate: snapshot reads race every home's span stamps.
	traceDone := make(chan struct{})
	traceStop := make(chan struct{})
	go func() {
		defer close(traceDone)
		for {
			select {
			case <-traceStop:
				return
			default:
				f.TraceStats()
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
		// Churn a home mid-run: remove one, add one, while shards step.
		if i == 2 {
			if !f.RemoveHome(1) {
				t.Fatal("remove failed")
			}
			h, err := f.AddHome()
			if err != nil {
				t.Fatal(err)
			}
			tracked[h.ID] = h
		}
	}
	<-aggDone
	close(traceStop)
	<-traceDone

	// The traced control plane did real work: punts were spanned end to
	// end and the merged summaries expose non-zero stage counts.
	stats := f.TraceStats()
	if len(stats) == 0 {
		t.Error("TraceStats returned no stages")
	}
	var spanned uint64
	for _, st := range stats {
		spanned += st.Count
	}
	if spanned == 0 {
		t.Errorf("no spans recorded across the fleet: %+v", stats)
	}

	f.Sync()
	if got := f.Totals().Homes; got != homes {
		t.Errorf("homes = %d, want %d", got, homes)
	}
	if f.Totals().Flows == 0 || f.Totals().Bytes == 0 {
		t.Errorf("no traffic folded across the fleet: %+v", f.Totals())
	}
	if f.Steps() != 6 {
		t.Errorf("steps = %d", f.Steps())
	}

	// Exact accounting: across every table ever watched — including the
	// churned-away home's, drained when it was unwatched — delivered plus
	// explicitly-lost equals total inserts.
	var inserts uint64
	for _, h := range tracked {
		for _, name := range watchedTables {
			if tbl, ok := h.Router.DB.Table(name); ok {
				ins, _ := tbl.Stats()
				inserts += ins
			}
		}
	}
	hub := f.Hub().Stats()
	if hub.Delivered+hub.Lost != inserts {
		t.Errorf("unaccounted rows: delivered %d + lost %d != %d inserts",
			hub.Delivered, hub.Lost, inserts)
	}
	if folder := f.Telemetry().Totals(); folder.Rows != hub.Delivered || folder.Lost != hub.Lost {
		t.Errorf("folder saw %d rows (lost %d), hub delivered %d (lost %d)",
			folder.Rows, folder.Lost, hub.Delivered, hub.Lost)
	}

	// The consumer's count, kept apart from the hub's books, agrees.
	if got := seen.Load(); got != inserts {
		t.Errorf("consumer counted %d of %d rows", got, inserts)
	}
}
