package chaos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
)

// TestChaosSoakRemote is the control-plane half of the soak gate: the
// same exact-accounting invariant the in-process soaks assert, but with
// the coordinator driving four worker engines over real loopback TCP —
// including steady home churn at the coordinator and two mid-soak
// connection kills that force redial + book reconciliation. The
// health/remediation loop is out of scope here (vitals need in-process
// handles); what this soak proves is that no telemetry row ever goes
// silently missing across the wire, across worker-connection death,
// across home incarnations. `make soak` runs it via the TestChaosSoak
// prefix. Failures print the seed — the trajectory reproduces from it.
func TestChaosSoakRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote soak in -short mode")
	}
	const (
		homes  = 16
		shards = 4
		seed   = 1
		steps  = 80
		dt     = 1.0
	)
	start := time.Now()

	scn := fleet.Scenario{
		HostsPerHome: 2,
		AppMix: []fleet.AppMix{
			{App: "web", RateBps: 40_000, Weight: 3},
			{App: "iot", RateBps: 2_000, Weight: 1},
		},
		WirelessFrac: 0.5,
	}
	var trackMu sync.Mutex
	var tracked []*fleet.Home
	onAssign := func(h *fleet.Home) error {
		trackMu.Lock()
		tracked = append(tracked, h)
		trackMu.Unlock()
		return scn.SetupHome(h)
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

	f := fleet.New(fleet.Config{
		WorkerAddrs: addrs,
		Clock:       clock.NewSimulated(),
		Seed:        seed,
		StepTimeout: 60 * time.Second,
	})
	t.Cleanup(f.Stop)
	if _, err := f.AddHomes(homes); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	var churns, kills int
	for i := 0; i < steps; i++ {
		if err := f.Step(dt); err != nil {
			t.Fatalf("seed %d: step %d: %v", seed, i, err)
		}
		// Steady coordinator-level churn: every 10th step the oldest home
		// is torn down (its final rows ride the drain batch) and a fresh
		// one is placed. IDs are handed out in ascending order from 0 and
		// only this loop removes homes, so the oldest is the churns-th.
		if i%10 == 9 {
			if oldest := uint64(churns); !f.RemoveHome(oldest) {
				t.Fatalf("seed %d: step %d: remove home %d failed", seed, i, oldest)
			}
			if _, err := f.AddHome(); err != nil {
				t.Fatalf("seed %d: step %d: %v", seed, i, err)
			}
			churns++
		}
		// Two mid-soak worker kills: sever every connection of one worker
		// and let the clients redial and reconcile their books.
		if i == steps/3 || i == 2*steps/3 {
			servers[kills%shards].DropConns()
			kills++
		}
	}
	// One extra fleet-wide sync so batches buffered across the last
	// reconnect are carried out before the audit.
	f.Sync()

	for k := 0; k < kills; k++ {
		if servers[k%shards].Accepted() < 2 {
			t.Errorf("seed %d: killed worker %d accepted %d conns, want >= 2 (a real reconnect)",
				seed, k%shards, servers[k%shards].Accepted())
		}
	}
	if f.Size() != homes {
		t.Errorf("seed %d: fleet size %d after churn, want %d", seed, f.Size(), homes)
	}
	if f.Totals().Flows == 0 || f.Totals().Bytes == 0 {
		t.Errorf("seed %d: no traffic folded across the remote fleet: %+v", seed, f.Totals())
	}

	// The invariant: every row any incarnation's watched table ever took
	// is delivered into a relay or explicitly accounted lost — across
	// churn, across both connection kills.
	var inserts uint64
	trackMu.Lock()
	incarnations := len(tracked)
	for _, h := range tracked {
		for _, name := range fleet.WatchedTables() {
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
	if folder := f.Telemetry().Totals(); folder.Rows != fed.Delivered {
		t.Errorf("seed %d: folder saw %d rows, federation delivered %d", seed, folder.Rows, fed.Delivered)
	}

	wall := time.Since(start)
	t.Logf("remote soak seed %d: %d homes / %d workers, %d steps (%s simulated), %d churns, %d kills, %d incarnations, wall %v",
		seed, homes, shards, steps, time.Duration(float64(steps)*dt*float64(time.Second)), churns, kills, incarnations, wall)
	t.Logf("telemetry: %d delivered + %d lost = %d inserts", fed.Delivered, fed.Lost, inserts)
	if wall > 60*time.Second {
		t.Fatalf("remote soak blew the wall budget: %v > 60s (seed %d)", wall, seed)
	}
}
