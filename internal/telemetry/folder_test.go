package telemetry

import (
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
)

// rig is a two-home telemetry stack over real Homework databases.
type rig struct {
	clk    *clock.Simulated
	hub    *Hub
	folder *Folder
	dbs    map[uint64]*hwdb.DB
}

func newRig(t *testing.T, homes ...uint64) *rig {
	t.Helper()
	clk := clock.NewSimulated()
	hub := NewHub(HubConfig{})
	t.Cleanup(hub.Close)
	r := &rig{
		clk:    clk,
		hub:    hub,
		folder: NewFolder(hub, FolderConfig{Clock: clk, RateWindow: 10 * time.Second}),
		dbs:    make(map[uint64]*hwdb.DB),
	}
	for i, id := range homes {
		db := hwdb.NewHomework(clk, 1024)
		r.dbs[id] = db
		hosts := i + 1 // home k reports k+1 hosts
		r.folder.AddHome(id, func() int { return hosts })
		for _, name := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases} {
			tbl, _ := db.Table(name)
			hub.Watch(SourceID{Home: id, Table: name}, tbl)
		}
	}
	return r
}

func (r *rig) flow(t *testing.T, home uint64, dev byte, packets, bytes uint64) {
	t.Helper()
	err := r.dbs[home].InsertFlow(packet.MAC{2, dev}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}, packets, bytes)
	if err != nil {
		t.Fatal(err)
	}
}

// TestFolderLiveTotals: after a flush, totals and per-home counters
// reflect every insert with no fold pass, and the idle home stays zero.
func TestFolderLiveTotals(t *testing.T) {
	r := newRig(t, 0, 1)
	r.flow(t, 0, 1, 10, 1500)
	r.flow(t, 0, 2, 4, 600)
	_ = r.dbs[0].InsertLink(packet.MAC{2, 1}, -40, 0, 54)
	_ = r.dbs[0].InsertLease("add", packet.MAC{2, 1}, packet.IP4{192, 168, 1, 2}, "dev")
	r.hub.Flush()

	tot := r.folder.Totals()
	if tot.Homes != 2 || tot.Hosts != 3 {
		t.Fatalf("homes=%d hosts=%d, want 2, 3", tot.Homes, tot.Hosts)
	}
	if tot.Flows != 2 || tot.Packets != 14 || tot.Bytes != 2100 || tot.Links != 1 || tot.Leases != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Lost != 0 || tot.Rows != 4 {
		t.Fatalf("accounting = %+v", tot)
	}

	hts := r.folder.HomeTotals()
	if len(hts) != 2 || hts[0].Home != 0 || hts[1].Home != 1 {
		t.Fatalf("home totals = %+v", hts)
	}
	if hts[0].Flows != 2 || hts[0].Bytes != 2100 || hts[0].Links != 1 || hts[0].Leases != 1 {
		t.Fatalf("home 0 = %+v", hts[0])
	}
	if hts[1].Flows != 0 || hts[1].Bytes != 0 {
		t.Fatalf("idle home 1 = %+v", hts[1])
	}
}

// TestFolderCommitViewRows: Commit writes one delta row per active home
// (its hosts, distinct devices and mean RSSI included) and nothing for
// idle periods, and the view answers the fleet CQL.
func TestFolderCommitViewRows(t *testing.T) {
	r := newRig(t, 0, 1)
	r.flow(t, 0, 1, 10, 1500)
	_ = r.dbs[0].InsertLink(packet.MAC{2, 1}, -40, 0, 54)
	_ = r.dbs[0].InsertLink(packet.MAC{2, 2}, -60, 0, 54)
	r.hub.Flush()
	if rows := r.folder.Commit(); rows != 1 {
		t.Fatalf("first commit wrote %d rows, want 1", rows)
	}
	first, err := r.folder.View().Query("SELECT home, hosts, devices, links, rssi FROM FleetStats")
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Text(); got != "home\thosts\tdevices\tlinks\trssi\n0\t1\t1\t2\t-50\n" {
		t.Fatalf("first commit's view row = %q", got)
	}
	// Idle commit: no new rows at all.
	if rows := r.folder.Commit(); rows != 0 {
		t.Fatalf("idle commit wrote %d rows", rows)
	}
	r.flow(t, 0, 1, 2, 300)
	r.flow(t, 1, 9, 1, 100)
	r.hub.Flush()
	if rows := r.folder.Commit(); rows != 2 {
		t.Fatalf("third commit wrote %d rows, want 2", rows)
	}

	res, err := r.folder.View().Query("SELECT home, sum(bytes) AS b FROM FleetStats GROUP BY home")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("view rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int != 0 || res.Rows[0][1].AsFloat() != 1800 {
		t.Fatalf("home 0 view = %v", res.Rows[0])
	}
	if res.Rows[1][0].Int != 1 || res.Rows[1][1].AsFloat() != 100 {
		t.Fatalf("home 1 view = %v", res.Rows[1])
	}
}

// TestFolderRates: windowed rates track row timestamps under a simulated
// clock and age out once the window slides past.
func TestFolderRates(t *testing.T) {
	r := newRig(t, 0)
	// 10 KB across the current second, two devices.
	r.flow(t, 0, 1, 10, 8000)
	r.flow(t, 0, 2, 2, 2000)
	r.hub.Flush()

	// Window is 10s: 10 KB over it = 1000 B/s.
	if got := r.folder.HomeRate(0); got.BytesPerSec != 1000 || got.PacketsPerSec != 1.2 {
		t.Fatalf("home rate = %+v", got)
	}
	if got := r.folder.FleetRate(); got.BytesPerSec != 1000 {
		t.Fatalf("fleet rate = %+v", got)
	}
	dr := r.folder.DeviceRates(0)
	if len(dr) != 2 {
		t.Fatalf("device rates = %+v", dr)
	}
	if dr[0].MAC != (packet.MAC{2, 1}) || dr[0].BytesPerSec != 800 {
		t.Fatalf("device 1 rate = %+v", dr[0])
	}
	if dr[1].MAC != (packet.MAC{2, 2}) || dr[1].BytesPerSec != 200 {
		t.Fatalf("device 2 rate = %+v", dr[1])
	}

	// Slide the window past the samples: the rate decays to zero.
	r.clk.Advance(11 * time.Second)
	if got := r.folder.HomeRate(0); got.BytesPerSec != 0 {
		t.Fatalf("rate after window slide = %+v", got)
	}
}

// TestFolderRemoveHomeKeepsFleetTotals: removing a home drops its
// per-home state but not its contribution to the cumulative counters.
func TestFolderRemoveHomeKeepsFleetTotals(t *testing.T) {
	r := newRig(t, 0, 1)
	r.flow(t, 0, 1, 5, 500)
	r.hub.Flush()
	r.folder.RemoveHome(0)

	tot := r.folder.Totals()
	if tot.Homes != 1 || tot.Flows != 1 || tot.Bytes != 500 {
		t.Fatalf("totals after removal = %+v", tot)
	}
	if hr := r.folder.HomeRate(0); hr.BytesPerSec != 0 {
		t.Fatalf("removed home still has a rate: %+v", hr)
	}
	if hts := r.folder.HomeTotals(); len(hts) != 1 || hts[0].Home != 1 {
		t.Fatalf("home totals after removal = %+v", hts)
	}
}

// TestFolderCommitWalksHomesInOrderWithoutAllocating: the folder keeps its
// home IDs sorted as homes come and go (AddHome, RemoveHome and the
// implicit add of a delta's unknown home), so a warm Commit over 8 active
// homes allocates nothing, and every ordered read still walks ascending IDs.
func TestFolderCommitWalksHomesInOrderWithoutAllocating(t *testing.T) {
	homes := []uint64{7, 3, 12, 0, 5, 9, 1, 4}
	r := newRig(t, homes...)
	var deltas []Delta
	r.hub.SubscribeFunc(func(d Delta) {
		if d.Source.Table == hwdb.TableFlows {
			deltas = append(deltas, d)
		}
	})
	for _, id := range homes {
		r.flow(t, id, 1, 10, 1500)
	}
	r.hub.Flush()
	if len(deltas) != len(homes) {
		t.Fatalf("%d flow deltas, want %d", len(deltas), len(homes))
	}
	// A delta of a home never added tracks it; a removed home leaves.
	r.folder.consume(Delta{Source: SourceID{Home: 10, Table: hwdb.TableFlows}, Rows: deltas[0].Rows})
	r.folder.RemoveHome(5)
	r.folder.AddHome(2, nil)
	want := []uint64{0, 1, 2, 3, 4, 7, 9, 10, 12}
	var got []uint64
	for _, ht := range r.folder.HomeTotals() {
		got = append(got, ht.Home)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("HomeTotals walks homes %v, want %v", got, want)
	}
	r.folder.RemoveHome(2)
	r.folder.RemoveHome(10)
	r.folder.AddHome(5, nil)

	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	commit := func() {
		for _, d := range deltas {
			r.folder.consume(d)
		}
		if n := r.folder.Commit(); n != len(homes) {
			t.Fatalf("Commit wrote %d rows, want %d", n, len(homes))
		}
	}
	commit() // warm: every home has seen its device
	if n := testing.AllocsPerRun(100, commit); n != 0 {
		t.Errorf("a warm Commit over %d homes allocates %.1f times, want 0", len(homes), n)
	}
}
