package fleet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hwdb"
	"repro/internal/netsim"
)

// TestShardAssignment table-drives the shard function: coverage of every
// shard, stability under churn, and bounds.
func TestShardAssignment(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		homes  []uint64
		want   []int
	}{
		{"single-shard", 1, []uint64{0, 1, 2, 3}, []int{0, 0, 0, 0}},
		{"modulo", 4, []uint64{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 0, 1, 2, 3}},
		{"more-shards-than-homes", 8, []uint64{0, 1, 2}, []int{0, 1, 2}},
		{"sparse-ids-after-churn", 3, []uint64{0, 4, 5, 9}, []int{0, 1, 2, 0}},
		{"large-ids", 5, []uint64{1_000_003, 1_000_004}, []int{3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, id := range tc.homes {
				if got := shardOf(id, tc.shards); got != tc.want[i] {
					t.Errorf("shardOf(%d, %d) = %d, want %d", id, tc.shards, got, tc.want[i])
				}
				if got := shardOf(id, tc.shards); got < 0 || got >= tc.shards {
					t.Errorf("shardOf(%d, %d) = %d out of range", id, tc.shards, got)
				}
			}
		})
	}

	// Stability: removing any home never changes any other home's shard.
	for shards := 1; shards <= 7; shards++ {
		before := map[uint64]int{}
		for id := uint64(0); id < 40; id++ {
			before[id] = shardOf(id, shards)
		}
		// "Remove" arbitrary homes: the remaining assignments are pure
		// functions of (id, shards) and must not move.
		for id := uint64(0); id < 40; id += 3 {
			delete(before, id)
		}
		for id, want := range before {
			if got := shardOf(id, shards); got != want {
				t.Fatalf("shards=%d: home %d moved from %d to %d", shards, id, want, got)
			}
		}
	}
}

// newTestFleet brings up a fleet of empty homes on a simulated clock.
func newTestFleet(t testing.TB, homes, shards int, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{Shards: shards, Clock: clock.NewSimulated(), Seed: 7}
	if mutate != nil {
		mutate(&cfg)
	}
	f := New(cfg)
	t.Cleanup(f.Stop)
	if _, err := f.AddHomes(homes); err != nil {
		t.Fatal(err)
	}
	return f
}

// stepTrace records scheduler activity per shard.
type stepTrace struct {
	mu      sync.Mutex
	byShard map[int][]uint64 // home IDs in observed step order
}

func (tr *stepTrace) hook(shard int, home uint64, step uint64) {
	tr.mu.Lock()
	tr.byShard[shard] = append(tr.byShard[shard], home)
	tr.mu.Unlock()
}

func (tr *stepTrace) reset() {
	tr.mu.Lock()
	tr.byShard = make(map[int][]uint64)
	tr.mu.Unlock()
}

// TestDeterministicStepping checks that each shard steps exactly its own
// homes, in ascending ID order, every step, across repeated steps.
func TestDeterministicStepping(t *testing.T) {
	const homes, shards = 9, 3
	tr := &stepTrace{byShard: make(map[int][]uint64)}
	f := newTestFleet(t, homes, shards, func(c *Config) { c.onStep = tr.hook })

	for step := 0; step < 3; step++ {
		tr.reset()
		if err := f.Step(0.1); err != nil {
			t.Fatal(err)
		}
		tr.mu.Lock()
		for shard := 0; shard < shards; shard++ {
			var want []uint64
			for id := uint64(0); id < homes; id++ {
				if shardOf(id, shards) == shard {
					want = append(want, id)
				}
			}
			got := tr.byShard[shard]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("step %d shard %d stepped %v, want %v", step, shard, got, want)
			}
		}
		tr.mu.Unlock()
	}
	if got := f.Steps(); got != 3 {
		t.Errorf("fleet steps = %d, want 3", got)
	}
	for _, h := range f.Homes() {
		if h.Steps() != 3 {
			t.Errorf("home %d stepped %d times, want 3", h.ID, h.Steps())
		}
	}
}

// TestHomeChurn adds and removes homes between steps: removed homes stop
// stepping, survivors keep their shard and order, and re-added capacity
// gets fresh IDs.
func TestHomeChurn(t *testing.T) {
	tr := &stepTrace{byShard: make(map[int][]uint64)}
	f := newTestFleet(t, 6, 2, func(c *Config) { c.onStep = tr.hook })

	if !f.RemoveHome(2) || !f.RemoveHome(5) {
		t.Fatal("remove failed")
	}
	if f.RemoveHome(2) {
		t.Fatal("double remove succeeded")
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d, want 4", f.Size())
	}

	tr.reset()
	if err := f.Step(0.1); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	if got, want := fmt.Sprint(tr.byShard[0]), fmt.Sprint([]uint64{0, 4}); got != want {
		t.Errorf("shard 0 stepped %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(tr.byShard[1]), fmt.Sprint([]uint64{1, 3}); got != want {
		t.Errorf("shard 1 stepped %s, want %s", got, want)
	}
	tr.mu.Unlock()

	// A new home continues the ID sequence and lands on the right shard.
	h, err := f.AddHome()
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 6 {
		t.Errorf("new home ID = %d, want 6", h.ID)
	}
	tr.reset()
	if err := f.Step(0.1); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	if got, want := fmt.Sprint(tr.byShard[0]), fmt.Sprint([]uint64{0, 4, 6}); got != want {
		t.Errorf("shard 0 stepped %s, want %s", got, want)
	}
	tr.mu.Unlock()

	// Removed homes kept none of their state in the fleet.
	if _, ok := f.Home(2); ok {
		t.Error("removed home still present")
	}
}

// TestAggregatorFoldsHomeTraffic drives one home with real traffic and
// checks the FleetStats view and the live totals tell the same story:
// the busy home's flows, bytes and links, one device in every commit,
// no row for the idle home, and nothing re-read by a sync with no new
// rows.
func TestAggregatorFoldsHomeTraffic(t *testing.T) {
	f := newTestFleet(t, 2, 2, nil)
	h, _ := f.Home(0)
	registerZones(h)
	host, err := h.Join("traffic-host", true, netsim.Pos{X: 3})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppWeb, zoneFor("web"), 80_000))

	for i := 0; i < 8; i++ {
		if err := f.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT home, count(*), sum(flows), sum(bytes), sum(links) FROM FleetStats GROUP BY home"
	res, err := f.DB().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 0 {
		t.Fatalf("fleet view rows = %v, want home 0 only", res.Rows)
	}
	row := res.Rows[0]
	flows, bytes, links := uint64(row[2].AsFloat()), uint64(row[3].AsFloat()), uint64(row[4].AsFloat())
	if flows == 0 || bytes == 0 {
		t.Fatalf("home 0 folded nothing: %v", row)
	}
	if links == 0 {
		t.Error("wireless host produced no link observations")
	}
	// A commit with flows saw the one device; one with links only, none.
	dev, err := f.DB().Query("SELECT min(devices), max(devices) FROM FleetStats WHERE flows > 0")
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := dev.Rows[0][0].AsFloat(), dev.Rows[0][1].AsFloat(); lo != 1 || hi != 1 {
		t.Errorf("devices per commit with flows in [%v, %v], want 1", lo, hi)
	}
	tot := f.Totals()
	if tot.Homes != 2 || tot.Hosts != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.Flows != flows || tot.Bytes != bytes || tot.Links != links {
		t.Errorf("totals %+v disagree with the view's %d flows, %d bytes, %d links", tot, flows, bytes, links)
	}

	// Nothing new since the last sync: the cursors must not re-read.
	f.Sync()
	again, err := f.DB().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text() != res.Text() || f.Totals() != tot {
		t.Errorf("a sync with no new rows re-read some: view %v -> %v, totals %+v -> %+v",
			res.Rows, again.Rows, tot, f.Totals())
	}
}

// TestTailCursor covers the hwdb batched-read primitive the aggregator
// leans on, including ring-wrap loss accounting.
func TestTailCursor(t *testing.T) {
	clk := clock.NewSimulated()
	tbl := hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), 4)
	insert := func(v int64) {
		if err := tbl.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(v)}); err != nil {
			t.Fatal(err)
		}
	}

	rows, cur, lost := tbl.Tail(0)
	if len(rows) != 0 || cur != 0 || lost != 0 {
		t.Fatalf("empty tail = %d rows, cur %d, lost %d", len(rows), cur, lost)
	}
	for v := int64(1); v <= 3; v++ {
		insert(v)
	}
	rows, cur, lost = tbl.Tail(0)
	if len(rows) != 3 || cur != 3 || lost != 0 {
		t.Fatalf("tail = %d rows, cur %d, lost %d", len(rows), cur, lost)
	}
	if rows[0].Int(0) != 1 || rows[2].Int(0) != 3 {
		t.Fatalf("rows out of order: %v", rows)
	}
	// No new rows: same cursor returns nothing.
	if rows, _, _ := tbl.Tail(cur); len(rows) != 0 {
		t.Fatalf("re-read %d rows", len(rows))
	}
	// Wrap the ring far past the cursor: 6 more inserts into cap 4.
	for v := int64(4); v <= 9; v++ {
		insert(v)
	}
	rows, cur2, lost := tbl.Tail(cur)
	if len(rows) != 4 || cur2 != 9 || lost != 2 {
		t.Fatalf("wrapped tail = %d rows, cur %d, lost %d; want 4, 9, 2", len(rows), cur2, lost)
	}
	if rows[0].Int(0) != 6 || rows[3].Int(0) != 9 {
		t.Fatalf("wrapped rows = %v", rows)
	}
}

// TestScenarioValidate table-drives scenario validation.
func TestScenarioValidate(t *testing.T) {
	ok := DefaultScenario()
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr bool
	}{
		{"default", func(s *Scenario) {}, false},
		{"no-homes", func(s *Scenario) { s.Homes = 0 }, true},
		{"bad-step", func(s *Scenario) { s.StepSec = 0 }, true},
		{"short-duration", func(s *Scenario) { s.DurationSec = s.StepSec / 2 }, true},
		{"bad-app", func(s *Scenario) { s.AppMix = []AppMix{{App: "warez", Weight: 1}} }, true},
		{"negative-weight", func(s *Scenario) { s.AppMix[0].Weight = -1 }, true},
		{"wireless-frac", func(s *Scenario) { s.WirelessFrac = 1.5 }, true},
		{"negative-churn", func(s *Scenario) { s.ChurnPerMin = -1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			s.AppMix = append([]AppMix(nil), ok.AppMix...)
			tc.mutate(&s)
			if err := s.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestScenarioRun executes a miniature scenario end-to-end: homes come
// up, traffic flows, churn replaces hosts, and the report accounts it.
func TestScenarioRun(t *testing.T) {
	s := DefaultScenario()
	s.Name = "mini"
	s.Homes = 3
	s.HostsPerHome = 2
	s.DurationSec = 3
	s.StepSec = 0.25
	s.ChurnPerMin = 60 // aggressive: expect churn within 3 sim-seconds
	s.Seed = 11

	r, err := NewRunner(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep.Homes != 3 || rep.Steps != 12 {
		t.Errorf("report homes=%d steps=%d", rep.Homes, rep.Steps)
	}
	if rep.Totals.Flows == 0 || rep.Totals.Bytes == 0 {
		t.Errorf("no traffic folded: %+v", rep.Totals)
	}
	if rep.Churned == 0 {
		t.Error("no churn at 60 events/home/min over 3s")
	}
	if len(rep.TopHomes) == 0 {
		t.Error("no top homes in report")
	}
	// The fleet survives the run for post-hoc queries.
	if _, err := r.Fleet().DB().Query("SELECT count(*) FROM FleetStats"); err != nil {
		t.Errorf("post-run query: %v", err)
	}
}

// TestDrawMix pins the weighted draw.
func TestDrawMix(t *testing.T) {
	mix := []AppMix{{App: "web", Weight: 1}, {App: "iot", Weight: 3}}
	if m, ok := drawMix(mix, 0.0); !ok || m.App != "web" {
		t.Errorf("u=0 -> %v", m)
	}
	if m, ok := drawMix(mix, 0.3); !ok || m.App != "iot" {
		t.Errorf("u=0.3 -> %v", m)
	}
	if m, ok := drawMix(mix, 0.99); !ok || m.App != "iot" {
		t.Errorf("u=0.99 -> %v", m)
	}
	if _, ok := drawMix(nil, 0.5); ok {
		t.Error("empty mix drew")
	}
	if _, ok := drawMix([]AppMix{{App: "web", Weight: 0}}, 0.5); ok {
		t.Error("zero-weight mix drew")
	}
}

// TestFleetDefaultsInProcessTransport asserts fleet homes ride the
// in-process control transport by default — no per-home TCP socket —
// while HomeConfig can still opt a home back onto the wire.
func TestFleetDefaultsInProcessTransport(t *testing.T) {
	f := New(Config{Clock: clock.NewSimulated()})
	defer f.Stop()
	h, err := f.AddHome()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Router.Config.Transport; got != core.TransportInProcess {
		t.Fatalf("fleet home transport = %q, want %q", got, core.TransportInProcess)
	}
	if addr := h.Router.Controller.Addr(); addr != "" {
		t.Errorf("fleet home bound a TCP control listener at %s", addr)
	}

	f2 := New(Config{
		Clock:      clock.NewSimulated(),
		HomeConfig: func(id uint64, cfg *core.Config) { cfg.Transport = core.TransportTCP },
	})
	defer f2.Stop()
	h2, err := f2.AddHome()
	if err != nil {
		t.Fatal(err)
	}
	if addr := h2.Router.Controller.Addr(); addr == "" {
		t.Error("HomeConfig TCP override did not bind a listener")
	}
}
