package chaos

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestChaosChurn32Homes is the chaos extension of the fleet's 32-home
// `-race` gate: the same sharded stepping, concurrent syncs and view
// queries, trace readers and home churn — now with every fault class live
// at once (wedge, dropped/delayed flow-mods, link flap, interference, DHCP
// storm) plus an in-place restart of a home mid-run. Wedged homes surface
// core.ErrWedged from Step instead of hanging, and at the end every hwdb
// row any incarnation ever held must be delivered or explicitly accounted
// as lost — by the hub's books and by a consumer's own count.
func TestChaosChurn32Homes(t *testing.T) {
	if testing.Short() {
		t.Skip("32-home bring-up in -short mode")
	}
	const homes, shards = 32, 8
	eng := newEngine()
	fl := fleet.New(fleet.Config{
		Shards: shards,
		Clock:  clock.NewSimulated(),
		Seed:   11,
		HomeConfig: func(id uint64, c *core.Config) {
			c.WrapTransport = eng.faultsFor(id).wrap
		},
	})
	t.Cleanup(fl.Stop)
	eng.Bind(fl)
	if _, err := fl.AddHomes(homes); err != nil {
		t.Fatal(err)
	}

	// Track every router incarnation ever created — including churned-away
	// and restarted ones — for the final row accounting.
	var incarnations []*fleet.Home
	incarnations = append(incarnations, fl.Homes()...)

	// Every 4th home gets a traffic source so folds and punts have work.
	for _, h := range fl.Homes() {
		if h.ID%4 != 0 {
			continue
		}
		host, err := h.Join("", h.ID%8 == 0, netsim.Pos{X: 2})
		if err != nil {
			t.Fatal(err)
		}
		host.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 60_000))
	}

	// Every fault class live inside the 8-step (2 simulated seconds) run.
	eng.setSchedule([]Episode{
		{Kind: Wedge, Home: 24, At: 0, For: 500 * time.Millisecond},
		{Kind: DropMods, Home: 4, At: 0, For: time.Second},
		{Kind: DelayMods, Home: 8, At: 250 * time.Millisecond, For: time.Second},
		{Kind: LinkFlap, Home: 12, At: 0, For: time.Second, Mag: 0.6},
		{Kind: Interference, Home: 16, At: 0, For: time.Second, Mag: 54},
		{Kind: DHCPStorm, Home: 20, At: 500 * time.Millisecond, For: time.Second},
	})

	// A consumer of its own counts every row it is handed or told was
	// lost, inside the drain passes the concurrent syncs race.
	var seen atomic.Uint64
	fl.Hub().SubscribeFunc(func(d telemetry.Delta) { seen.Add(uint64(len(d.Rows)) + d.Lost) })

	aggDone := make(chan struct{})
	go func() {
		defer close(aggDone)
		for i := 0; i < 6; i++ {
			fl.Sync()
			if _, err := fl.DB().Query("SELECT home, sum(bytes) FROM FleetStats GROUP BY home"); err != nil {
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
				fl.TraceStats()
			}
		}
	}()

	step := func(i int) {
		if err := fl.Step(0.25); err != nil && !errors.Is(err, core.ErrWedged) {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	simNow := time.Duration(0)
	for i := 0; i < 8; i++ {
		eng.tick(simNow)
		step(i)
		simNow += 250 * time.Millisecond
		switch i {
		case 2:
			// Churn: one home out, a fresh one (new ID) in, while shards step.
			if !fl.RemoveHome(1) {
				t.Fatal("remove failed")
			}
			h, err := fl.AddHome()
			if err != nil {
				t.Fatal(err)
			}
			incarnations = append(incarnations, h)
		case 4:
			// Restart in place: same ID, fresh incarnation, faults re-armed.
			h, err := fl.RestartHome(3)
			if err != nil {
				t.Fatal(err)
			}
			incarnations = append(incarnations, h)
			eng.reapply(3)
		}
	}
	eng.finish()
	// Post-fault drain: released punts and flow-mods land, wedged homes
	// settle again.
	step(8)
	step(9)
	fl.Sync()
	<-aggDone
	close(traceStop)
	<-traceDone

	// The wedge actually held and released punts, and the lossy faults
	// actually dropped frames — the run exercised what it claims.
	if st := eng.faultsFor(24).Stats(); st.ReleasedPunts == 0 && st.LostPunts == 0 {
		t.Errorf("wedge on home 24 held nothing: %+v", st)
	}
	if st := eng.faultsFor(4).Stats(); st.DroppedMods == 0 {
		t.Errorf("drop-mods on home 4 dropped nothing: %+v", st)
	}

	// Exact accounting across every incarnation ever live: delivered plus
	// explicitly-lost equals total inserts.
	var inserts uint64
	for _, h := range incarnations {
		inserts += dbInserts(h.Router.DB)
	}
	hub := fl.Hub().Stats()
	if hub.Delivered+hub.Lost != inserts {
		t.Errorf("unaccounted rows: delivered %d + lost %d != %d inserts",
			hub.Delivered, hub.Lost, inserts)
	}
	// The consumer's count, kept apart from the hub's books, agrees.
	if got := seen.Load(); got != inserts {
		t.Errorf("consumer counted %d of %d rows", got, inserts)
	}
}
