package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hwdb"
	"repro/internal/netsim"
)

// tableInserts returns one home's insert count for a single hwdb table.
func tableInserts(h *Home, name string) uint64 {
	if t, ok := h.Router.DB.Table(name); ok {
		ins, _ := t.Stats()
		return ins
	}
	return 0
}

// placedOn is the shard the coordinator has placed a live home on.
func placedOn(f *Coordinator, id uint64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.place[id]
}

// placements copies the coordinator's placement log, oldest first.
func placements(f *Coordinator) []PlacementEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.history)
}

// TestMigrateHomeAcrossShards drains a home from shard 0 mid-traffic and
// re-places it on shard 1, with concurrent telemetry readers running (the
// -race half of the gate). The books must stay exact across the
// migration: federated delivered+lost equals the inserts of every
// incarnation, each shard's hub accounts exactly for the homes it hosted
// (the migrated home's first incarnation stays retired on the source
// shard), and FlowPerf rows from both incarnations survive with no
// double-count.
func TestMigrateHomeAcrossShards(t *testing.T) {
	f := newTestFleet(t, 4, 2, func(c *Config) { c.Seed = 9 })

	// shard 0 = {0, 2}, shard 1 = {1, 3} by the modulo policy.
	for _, id := range []uint64{0, 1, 2, 3} {
		if s := placedOn(f, id); s != int(id%2) {
			t.Fatalf("home %d placed on shard %d", id, s)
		}
	}
	for _, h := range f.Homes() {
		registerZones(h)
		host, err := h.Join("", true, netsim.Pos{X: 2})
		if err != nil {
			t.Fatal(err)
		}
		host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 60_000))
	}

	// Concurrent readers across the whole churn: the race detector checks
	// that migration never tears the telemetry surfaces.
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				_ = f.Totals()
				_ = f.TraceStats()
				_ = f.Hub().Stats()
			}
		}
	}()

	for i := 0; i < 4; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}

	old0, ok := f.Home(0)
	if !ok {
		t.Fatal("home 0 not live")
	}
	new0, err := f.Migrate(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if new0 == old0 {
		t.Fatal("migrate returned the old incarnation")
	}
	if s := placedOn(f, 0); s != 1 {
		t.Fatalf("home 0 on shard %d after migrate", s)
	}
	// The old incarnation is stopped; its tables are frozen, so its insert
	// counts are now ground truth for the retired half of the books.
	retired := sumInserts([]*Home{old0})
	retiredPerf := tableInserts(old0, hwdb.TableFlowPerf)

	// Fresh incarnation: re-join a host and put traffic back on it.
	registerZones(new0)
	host, err := new0.Join("", true, netsim.Pos{X: 2})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 60_000))

	for i := 0; i < 4; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-readerDone

	live := f.Homes()
	if len(live) != 4 {
		t.Fatalf("fleet lists %d homes, want 4", len(live))
	}

	// Federated accounting: delivered+lost == inserts across both hubs and
	// both incarnations of home 0.
	want := retired + sumInserts(live)
	st := f.Hub().Stats()
	if st.Delivered+st.Lost != want {
		t.Fatalf("federated delivered %d + lost %d != %d inserts", st.Delivered, st.Lost, want)
	}
	if st.Lost != 0 {
		t.Fatalf("unexpected loss during migration: %+v", st)
	}

	// Per-shard books: the source shard keeps the retired incarnation's
	// rows plus its remaining home; the target shard accounts its original
	// homes plus the new incarnation.
	home1, _ := f.Home(1)
	home2, _ := f.Home(2)
	home3, _ := f.Home(3)
	ss := f.ShardStats()
	if ss[0].Homes != 1 || ss[1].Homes != 3 {
		t.Fatalf("shard home counts = %d/%d, want 1/3", ss[0].Homes, ss[1].Homes)
	}
	if got, want := ss[0].Hub.Delivered+ss[0].Hub.Lost, retired+sumInserts([]*Home{home2}); got != want {
		t.Fatalf("shard 0 books %d != %d", got, want)
	}
	if got, want := ss[1].Hub.Delivered+ss[1].Hub.Lost, sumInserts([]*Home{new0, home1, home3}); got != want {
		t.Fatalf("shard 1 books %d != %d", got, want)
	}

	// FlowPerf rows from both incarnations folded exactly once.
	perfWant := retiredPerf
	for _, h := range live {
		perfWant += tableInserts(h, hwdb.TableFlowPerf)
	}
	if got := f.Telemetry().Totals().PerfRows; got != perfWant {
		t.Fatalf("folded %d FlowPerf rows, want %d", got, perfWant)
	}
	if perfWant == 0 {
		t.Fatal("no FlowPerf rows generated — test exercised nothing")
	}

	// The transition is on the placement record.
	var migrated bool
	for _, ev := range placements(f) {
		if ev.Op == OpMigrate {
			if ev.Home != 0 || ev.From != 0 || ev.To != 1 {
				t.Fatalf("unexpected migrate event %+v", ev)
			}
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("no migrate event in placement history")
	}
}

// TestPlacementDeterminism: the same seed and scenario produce an
// identical placement history — spawn order, IDs, shards, steps and
// sequence numbers all reproduce. This is the audit property the
// coordinator's event log exists for.
func TestPlacementDeterminism(t *testing.T) {
	run := func() string {
		f := newTestFleet(t, 6, 3, func(c *Config) { c.Seed = 21 })
		ids := make([]uint64, 0, 8)
		for _, h := range f.Homes() {
			ids = append(ids, h.ID)
		}
		rng := rand.New(rand.NewSource(21))
		for op := 0; op < 10; op++ {
			i := rng.Intn(len(ids))
			id := ids[i]
			switch rng.Intn(3) {
			case 0:
				if _, err := f.RestartHome(id); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := f.Migrate(id, rng.Intn(f.Shards())); err != nil {
					t.Fatal(err)
				}
			case 2:
				h, err := f.ReplaceHome(id)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = h.ID
			}
			if err := f.Step(0.25); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprint(placements(f))
	}

	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("placement history not reproducible:\n--- run 1:\n%s\n--- run 2:\n%s", h1, h2)
	}

	// The concurrent bring-up burst still records spawns in ascending ID
	// order: event k is the spawn of home k on its modulo shard.
	f := newTestFleet(t, 6, 3, nil)
	for i, ev := range placements(f)[:6] {
		if ev.Op != OpSpawn || ev.Home != uint64(i) || ev.To != i%3 || ev.From != -1 {
			t.Fatalf("spawn event %d = %+v", i, ev)
		}
	}
}
