package fleet

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestRemoteFleetConcurrency32Homes is the remote-shard variant of the
// 32-home churn gate: the same coordinator workload — concurrent syncs
// and view queries, trace reads, home churn — but driven over real
// loopback TCP against four worker engines in their own goroutines, with
// one worker's connections severed mid-run. The final assertion is the
// federated exact-accounting invariant across the process boundary:
// delivered plus explicitly-lost equals every row any watched table ever
// took, worker kill and reconnect included.
func TestRemoteFleetConcurrency32Homes(t *testing.T) {
	if testing.Short() {
		t.Skip("32-home remote bring-up in -short mode")
	}
	const homes, shards = 32, 4
	const seed = 3

	// Workers: each engine owns its clock (advanced via SYNC) and
	// populates every 4th assigned home with a live traffic source.
	var trackMu sync.Mutex
	var tracked []*Home
	onAssign := func(h *Home) error {
		trackMu.Lock()
		tracked = append(tracked, h)
		trackMu.Unlock()
		if h.ID%4 != 0 {
			return nil
		}
		registerZones(h)
		host, err := h.Join("", h.ID%8 == 0, netsim.Pos{X: 2})
		if err != nil {
			return err
		}
		host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 60_000))
		return nil
	}
	servers := make([]*shardrpc.Server, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		wclk := clock.NewSimulated()
		eng := engine.New(engine.Config{Index: i, Clock: wclk, Seed: seed, OnAssign: onAssign})
		t.Cleanup(eng.Close)
		srv := shardrpc.NewServer(shardrpc.Config{Backend: eng, Hub: eng.Hub(), Clock: wclk})
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[i], addrs[i] = srv, srv.Addr()
	}

	f := New(Config{WorkerAddrs: addrs, Clock: clock.NewSimulated(), Seed: seed})
	t.Cleanup(f.Stop)
	if _, err := f.AddHomes(homes); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if f.Size() != homes {
		t.Fatalf("seed %d: size = %d, want %d", seed, f.Size(), homes)
	}

	// A consumer of its own counts every row the relay hubs ingest or are
	// told was lost in-band, inside the ingests the concurrent syncs race.
	var seen atomic.Uint64
	f.Hub().SubscribeFunc(func(d telemetry.Delta) { seen.Add(uint64(len(d.Rows)) + d.Lost) })

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
			t.Fatalf("seed %d: step %d: %v", seed, i, err)
		}
		if i == 2 {
			// Churn while connections are healthy: a remote drain that
			// fails on transport reports false and would abort the test.
			if !f.RemoveHome(1) {
				t.Fatalf("seed %d: remove failed", seed)
			}
			if _, err := f.AddHome(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if i == 3 {
			// Kill one worker's connections between steps; the client must
			// redial, RESYNC its books and carry on. A concurrent Sync
			// may lose its batch mid-flight — that loss must be
			// accounted, not silent.
			servers[1].DropConns()
		}
	}
	<-aggDone
	close(traceStop)
	<-traceDone

	stats := f.TraceStats()
	if len(stats) == 0 {
		t.Errorf("seed %d: TraceStats returned no stages", seed)
	}
	var spanned uint64
	for _, st := range stats {
		spanned += st.Count
	}
	if spanned == 0 {
		t.Errorf("seed %d: no spans recorded across the remote fleet", seed)
	}

	if got := f.Totals().Homes; got != homes {
		t.Errorf("seed %d: homes = %d, want %d", seed, got, homes)
	}
	if f.Totals().Flows == 0 || f.Totals().Bytes == 0 {
		t.Errorf("seed %d: no traffic folded across the remote fleet: %+v", seed, f.Totals())
	}
	if f.Steps() != 6 {
		t.Errorf("seed %d: steps = %d", seed, f.Steps())
	}
	if servers[1].Accepted() < 2 {
		t.Errorf("seed %d: killed worker accepted %d conns, want >= 2 (a real reconnect)", seed, servers[1].Accepted())
	}

	// One more fleet-wide sync so any batch buffered across the reconnect
	// is carried out before the books are audited.
	f.Sync()

	// Exact accounting across the process boundary: every row any watched
	// table ever took — including the churned-away home's and any rows in
	// flight when the connections died — is delivered into a relay or
	// explicitly accounted lost.
	var inserts uint64
	trackMu.Lock()
	for _, h := range tracked {
		for _, name := range watchedTables {
			if tbl, ok := h.Router.DB.Table(name); ok {
				ins, _ := tbl.Stats()
				inserts += ins
			}
		}
	}
	trackMu.Unlock()
	if inserts == 0 {
		t.Fatalf("seed %d: no rows inserted", seed)
	}
	fed := f.Hub().Stats()
	if fed.Delivered+fed.Lost != inserts {
		t.Errorf("seed %d: unaccounted rows across the wire: delivered %d + lost %d != %d inserts",
			seed, fed.Delivered, fed.Lost, inserts)
	}

	// The folder consumed exactly the delivered rows (wire-lost rows never
	// reach it — they are books, not data).
	folder := f.Telemetry().Totals()
	if folder.Rows != fed.Delivered {
		t.Errorf("seed %d: folder saw %d rows, federation delivered %d", seed, folder.Rows, fed.Delivered)
	}

	// The consumer's count, kept apart from the hub's books, balances
	// against everything actually ingested into the relays: delivered
	// plus in-band lost.
	if got, want := seen.Load(), fed.Delivered+folder.Lost; got != want {
		t.Errorf("seed %d: consumer counted %d of %d ingested rows", seed, got, want)
	}
}
