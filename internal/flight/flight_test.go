package flight_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// testTarget is a literal upstream IP so app traffic needs no DNS zones.
const testTarget = "203.0.113.10"

// addTraffic joins one IoT host to every nth home so folds have work.
func addTraffic(t *testing.T, f *fleet.Coordinator, nth uint64) {
	t.Helper()
	for _, h := range f.Homes() {
		if h.ID%nth != 0 {
			continue
		}
		host, err := h.Join("", h.ID%2 == 0, netsim.Pos{X: 2})
		if err != nil {
			t.Fatal(err)
		}
		host.AddApp(netsim.NewApp(netsim.AppIoT, testTarget, 600))
	}
}

// TestRecorderRetentionBooks drives deltas through a hub into a recorder
// with aggressive compaction and checks the exact-accounting invariant:
// every delivered row is stored or compacted, never silently gone.
func TestRecorderRetentionBooks(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.New(clk)
	tbl, err := db.CreateTable("T", hwdb.NewSchema(hwdb.Column{Name: "n", Type: hwdb.TInt}), 64)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	hub.Watch(telemetry.SourceID{Home: 1, Table: "T"}, tbl)

	rec := flight.NewRecorder(flight.RecorderConfig{
		Window:    time.Second,
		Retention: 3 * time.Second, // keep ~3 windows
		Schema: func(table string) *hwdb.Schema {
			if table == "T" {
				return tbl.Schema()
			}
			return nil
		},
	})
	rec.Attach(hub)

	for i := 0; i < 20; i++ {
		if err := db.Insert("T", hwdb.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		hub.Flush()
		clk.Advance(time.Second)
	}
	st := rec.Stats()
	if st.Delivered != 20 {
		t.Fatalf("delivered = %d, want 20", st.Delivered)
	}
	if st.Compacted == 0 {
		t.Fatal("retention never compacted anything")
	}
	if st.Delivered+st.ViewRows != st.Stored+st.Compacted {
		t.Fatalf("books: %d delivered + %d view != %d stored + %d compacted",
			st.Delivered, st.ViewRows, st.Stored, st.Compacted)
	}
	// The retained tail is the newest rows, oldest-first.
	rows := rec.Rows(1, "T", time.Time{}, time.Time{})
	if len(rows) != int(st.Stored) {
		t.Fatalf("Rows = %d, stored = %d", len(rows), st.Stored)
	}
	if rows[len(rows)-1].Int(0) != 19 {
		t.Fatalf("newest retained row = %v", rows[len(rows)-1])
	}
	// Replay projects a timestamp column ahead of the schema.
	res, err := rec.Replay(1, "T", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "timestamp" || res.Cols[1] != "n" {
		t.Fatalf("Replay cols = %v", res.Cols)
	}
	if _, err := rec.Replay(99, "T", time.Time{}, time.Time{}); err == nil {
		t.Error("Replay of unrecorded home succeeded")
	}
}

// TestRecorderMaxWindowsRingCompaction checks the ring-cap eviction path.
func TestRecorderMaxWindowsRingCompaction(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.New(clk)
	tbl, err := db.CreateTable("T", hwdb.NewSchema(hwdb.Column{Name: "n", Type: hwdb.TInt}), 64)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	hub.Watch(telemetry.SourceID{Home: 1, Table: "T"}, tbl)

	rec := flight.NewRecorder(flight.RecorderConfig{
		Window:     time.Second,
		Retention:  -1, // age never evicts
		MaxWindows: 4,
	})
	rec.Attach(hub)
	for i := 0; i < 10; i++ {
		if err := db.Insert("T", hwdb.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		hub.Flush()
		clk.Advance(time.Second)
	}
	st := rec.Stats()
	if st.Windows != 4 {
		t.Fatalf("windows = %d, want ring cap 4", st.Windows)
	}
	if st.Stored != 4 || st.Compacted != 6 {
		t.Fatalf("stored/compacted = %d/%d, want 4/6", st.Stored, st.Compacted)
	}
}

// TestRecorderInsertHotPathZeroAllocs pins the acceptance bound: a flight
// recorder attached at the subscriber seam adds zero allocations to a
// watched table's insert path (the recorder only works at drain time).
func TestRecorderInsertHotPathZeroAllocs(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.New(clk)
	tbl, err := db.CreateTable("T", hwdb.NewSchema(hwdb.Column{Name: "n", Type: hwdb.TInt}), 4096)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	hub.Watch(telemetry.SourceID{Home: 1, Table: "T"}, tbl)
	rec := flight.NewRecorder(flight.RecorderConfig{})
	rec.Attach(hub)

	vals := []hwdb.Value{hwdb.Int64(7)}
	ts := clk.Now()
	if n := testing.AllocsPerRun(1000, func() {
		if err := tbl.Insert(ts, vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("recorded insert allocates %.1f per op, want 0", n)
	}
}

// TestRecorderChurnFleet32 is the -race gate: a recorder attached to a
// 32-home fleet with live traffic, home churn and concurrent AS OF
// queries racing the steps. At the end the recorder's books reconcile
// exactly with the federation's, and the insert hot path of a live
// home's watched table is still allocation-free.
func TestRecorderChurnFleet32(t *testing.T) {
	if testing.Short() {
		t.Skip("32-home bring-up in -short mode")
	}
	const homes, shards = 32, 8
	sim := clock.NewSimulated()
	f := fleet.New(fleet.Config{Shards: shards, Clock: sim, Seed: 3})
	t.Cleanup(f.Stop)

	rec := flight.NewRecorder(flight.RecorderConfig{Window: time.Second})
	rec.Attach(f.Hub())
	if err := rec.AttachView(f.DB(), telemetry.ViewTable); err != nil {
		t.Fatal(err)
	}

	if _, err := f.AddHomes(homes); err != nil {
		t.Fatal(err)
	}
	addTraffic(t, f, 4)

	// AS OF queries race the steps: the recorder's windows are read
	// while hub drains append to them and churn retires streams.
	qDone := make(chan struct{})
	qStop := make(chan struct{})
	go func() {
		defer close(qDone)
		for {
			select {
			case <-qStop:
				return
			default:
				cql := fmt.Sprintf("SELECT * FROM %s AS OF @%d",
					telemetry.ViewTable, sim.Now().UnixNano())
				if _, err := f.DB().Query(cql); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// Churn mid-run: the removed home's final drain retires into
			// the hub's books and stays in the recorder's.
			if !f.RemoveHome(1) {
				t.Fatal("remove failed")
			}
			if _, err := f.AddHome(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(qStop)
	<-qDone
	f.Sync()

	st := rec.Stats()
	fed := f.Hub().Stats()
	if st.Delivered != fed.Delivered || st.Lost != fed.Lost {
		t.Fatalf("recorder saw %d delivered / %d lost, federation books %d / %d",
			st.Delivered, st.Lost, fed.Delivered, fed.Lost)
	}
	if st.Delivered+st.ViewRows != st.Stored+st.Compacted {
		t.Fatalf("books: %d delivered + %d view != %d stored + %d compacted",
			st.Delivered, st.ViewRows, st.Stored, st.Compacted)
	}
	if st.Delivered == 0 || st.ViewRows == 0 {
		t.Fatalf("recorder idle: %+v", st)
	}

	// The insert hot path stays allocation-free with the recorder live.
	h := f.Homes()[0]
	tbl, ok := h.Router.DB.Table(hwdb.TableLinks)
	if !ok {
		t.Fatal("no Links table")
	}
	vals := []hwdb.Value{
		hwdb.MACVal(packet.MAC{2, 0xaa, 0, 0, 0, 1}),
		hwdb.Int64(-40), hwdb.Int64(0), hwdb.Float(54),
	}
	ts := sim.Now()
	if n := testing.AllocsPerRun(1000, func() {
		if err := tbl.Insert(ts, vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("fleet insert with recorder attached allocates %.1f per op, want 0", n)
	}
}

// runSeededFleet brings up an 8-home fleet with a recorder, steps it,
// and returns the live FleetStats text and the AS OF reconstruction at
// every flushed tick.
func runSeededFleet(t *testing.T, seed int64, steps int) (live, asof []string) {
	t.Helper()
	sim := clock.NewSimulated()
	f := fleet.New(fleet.Config{Shards: 2, Clock: sim, Seed: seed})
	t.Cleanup(f.Stop)

	rec := flight.NewRecorder(flight.RecorderConfig{Window: time.Second})
	rec.Attach(f.Hub())
	if err := rec.AttachView(f.DB(), telemetry.ViewTable); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddHomes(8); err != nil {
		t.Fatal(err)
	}
	addTraffic(t, f, 2)

	var ticks []time.Time
	for i := 0; i < steps; i++ {
		if err := f.Step(1.0); err != nil {
			t.Fatal(err)
		}
		// Step synced and committed: snapshot the live view as of now.
		res, err := f.DB().Query("SELECT * FROM " + telemetry.ViewTable)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res.Text())
		ticks = append(ticks, sim.Now())
	}
	f.Sync()

	for _, ts := range ticks {
		res, err := f.DB().Query(fmt.Sprintf("SELECT * FROM %s AS OF @%d",
			telemetry.ViewTable, ts.UnixNano()))
		if err != nil {
			t.Fatal(err)
		}
		asof = append(asof, res.Text())
	}
	return live, asof
}

// TestAsOfReplayDeterminism is the acceptance gate: for a seeded 8-home
// run, FleetStats reconstructed AS OF every flushed tick is byte-identical
// to the live snapshot taken at that tick, and the reconstruction is
// identical across reruns of the same seed.
func TestAsOfReplayDeterminism(t *testing.T) {
	const seed, steps = 42, 10
	live, asof := runSeededFleet(t, seed, steps)
	if len(live) != steps || len(asof) != steps {
		t.Fatalf("captured %d live / %d as-of snapshots, want %d", len(live), len(asof), steps)
	}
	for i := range live {
		if live[i] != asof[i] {
			t.Fatalf("tick %d: AS OF reconstruction differs from live snapshot\nlive:\n%s\nas of:\n%s",
				i, live[i], asof[i])
		}
	}
	if asof[steps-1] == asof[0] {
		t.Fatal("view never advanced across the run")
	}

	_, rerun := runSeededFleet(t, seed, steps)
	for i := range asof {
		if asof[i] != rerun[i] {
			t.Fatalf("tick %d: seeded rerun diverged\nfirst:\n%s\nrerun:\n%s", i, asof[i], rerun[i])
		}
	}
}

// TestIncidentsBundle checks the incident recorder end to end without a
// fleet: synthetic verdicts and actions produce bundles, audit rows and
// files, and recovery verdicts do not.
func TestIncidentsBundle(t *testing.T) {
	clk := clock.NewSimulated()
	rec := flight.NewRecorder(flight.RecorderConfig{})
	dir := t.TempDir()
	inc, err := flight.NewIncidents(flight.IncidentConfig{
		Clock:    clk,
		Recorder: rec,
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	inc.OnVerdict(health.VerdictEvent{Home: 7, From: health.Healthy, To: health.Sick, Reason: "loss 40%"})
	inc.OnVerdict(health.VerdictEvent{Home: 7, From: health.Sick, To: health.Cordoned, Reason: "still sick"})
	inc.OnVerdict(health.VerdictEvent{Home: 7, From: health.Cordoned, To: health.Healthy}) // recovery: no bundle
	inc.OnAction(health.ActionEvent{Home: 7, Action: "restart", OK: true})
	if got := inc.Bundles(); got != 3 {
		t.Fatalf("bundles = %d, want 3", got)
	}
	it, ok := inc.DB().Table(flight.TableIncidents)
	if !ok {
		t.Fatal("no Incidents table")
	}
	ins, _ := it.Stats()
	if ins != 3 {
		t.Fatalf("incident rows = %d, want 3", ins)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("incident files = %d, want 3", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	var b flight.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.Home != 7 || b.Kind == "" {
		t.Fatalf("bundle = %+v", b)
	}
}
