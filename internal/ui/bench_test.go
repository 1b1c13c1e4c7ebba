package ui

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// displayTick builds the read half of hwbench's home_ui workload without
// the router under it — one home whose Flows, Links and FlowPerf rings
// have filled and aged, four devices (two of them wireless) whose
// measurement rows keep arriving on a simulated clock — and returns one
// tick of it: a poll's rows, then what the displays read each 250 ms — the
// Figure-1 statement as a client sends it (as text, to DB.Query), the
// bandwidth view's rows and one step of the artifact in signal mode.
func displayTick(tb testing.TB) func() {
	const figure1 = "SELECT mac, proto, dport, sport, sum(bytes) AS bytes FROM Flows [RANGE 10 SECONDS] GROUP BY mac, proto, dport, sport"
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, hwdb.DefaultRingSize)
	type device struct {
		mac      packet.MAC
		ip       packet.IP4
		wireless bool
		dport    uint16
	}
	devices := []device{
		{packet.MAC{2, 0xaa, 0, 0, 0, 1}, packet.IP4{192, 168, 1, 10}, false, 80},
		{packet.MAC{2, 0xaa, 0, 0, 0, 2}, packet.IP4{192, 168, 1, 11}, true, 443},
		{packet.MAC{2, 0xaa, 0, 0, 0, 3}, packet.IP4{192, 168, 1, 12}, true, 5060},
		{packet.MAC{2, 0xaa, 0, 0, 0, 4}, packet.IP4{192, 168, 1, 13}, false, 8883},
	}
	for i, d := range devices {
		if err := db.InsertLease("add", d.mac, d.ip, []string{"laptop", "tv", "phone", "sensor"}[i]); err != nil {
			tb.Fatal(err)
		}
	}
	// observe writes what one measurement poll writes: every device's
	// long-lived flow out and back, the laptop's current web connection (a
	// new source port every third poll, as a 0.75 s flow churn gives) and a
	// link sample per wireless station.
	poll := 0
	observe := func() {
		for i, d := range devices {
			ft := packet.FiveTuple{Src: d.ip, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: d.dport}
			if i == 0 {
				ft.SrcPort = uint16(40001 + poll/3%4096)
			}
			back := packet.FiveTuple{Src: ft.Dst, Dst: ft.Src, Proto: ft.Proto, SrcPort: ft.DstPort, DstPort: ft.SrcPort}
			for _, ft := range []packet.FiveTuple{ft, back} {
				_ = db.InsertFlow(d.mac, ft, 10, 12000)
				_ = db.InsertFlowPerf(d.mac, ft, 10, 12000, 10, 12000, 0, 384000, 0)
			}
			if d.wireless {
				_ = db.InsertLink(d.mac, -45-poll%7, poll%3, 54)
			}
		}
		poll++
		clk.Advance(250 * time.Millisecond)
	}
	// A home that has been up for days: every ring at capacity, then 40
	// polls so the displays' windows hold only fresh rows.
	flows, _ := db.Table(hwdb.TableFlows)
	links, _ := db.Table(hwdb.TableLinks)
	for flows.Len() < flows.Cap() || links.Len() < links.Cap() {
		observe()
	}
	clk.Advance(time.Minute)
	for i := 0; i < 40; i++ {
		observe()
	}
	view := NewBandwidthView(db)
	art := NewArtifact(db, devices[1].mac)
	art.SetMode(ModeSignal)

	return func() {
		observe()
		res, err := db.Query(figure1)
		if err != nil || len(res.Rows) < 2*len(devices) {
			tb.Fatalf("Figure-1 query: %v, %v", res, err)
		}
		rows, err := view.Rows()
		if err != nil || len(rows) != len(devices) {
			tb.Fatalf("bandwidth view: %d rows, %v", len(rows), err)
		}
		if leds := art.Step(250 * time.Millisecond); len(leds) != art.NumLEDs {
			tb.Fatalf("artifact: %d LEDs, want %d", len(leds), art.NumLEDs)
		}
	}
}

// BenchmarkDisplayReads runs displayTick per op. A warm tick allocates
// what the displays hand on, 5 times and ~8 KB: the Figure-1 query's
// result (Result, one block of cells, the row headers — its Cols are the
// statement's, and the working set it was built in is pooled), the
// bandwidth rows and the LED strip.
// The view and the artifact read their selects in place with
// DB.SelectFunc, the Figure-1 text is parsed once, on the first tick, and
// the Leases select runs only on a tick after a lease was written;
// TestDisplayReadsAllocations pins it.
//
//	go test -run '^$' -bench DisplayReads -benchtime 2000x -memprofile mem.out ./internal/ui
//
// gives the read path's allocation profile per tick (pprof
// -sample_index=alloc_space or alloc_objects): the counterpart of
// BenchmarkChurnHomeStep in internal/core for the control path.
func BenchmarkDisplayReads(b *testing.B) {
	tick := displayTick(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// TestDisplayReadsAllocations pins a display tick: 5 allocations once the
// selects' working sets are pooled, the displays read their selects in
// place, the bandwidth view keeps its maps, a repeated text is not parsed
// again and an unchanged Leases table is not selected again — the
// Figure-1 query's result of 3, the bandwidth rows and the LED strip. A
// parse would cost 5 more, a display's select copied out as a Result 3
// more, a select that threw its working set away again several more each,
// and a view rebuilding its maps three more.
func TestDisplayReadsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	tick := displayTick(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	if got := testing.AllocsPerRun(200, tick); got > 5 {
		t.Errorf("a display tick allocates %.0f times, want at most 5", got)
	}
}

// A refresh with no lease written since the last does not select Leases.
// With the view's Leases statement swapped for one that names no device,
// refreshes keep showing the hostnames the first one read, and each
// allocates only the rows it returns; a lease written brings the select
// back, and with it the swapped statement's empty names.
func TestRefreshWithoutNewLeaseSkipsLeases(t *testing.T) {
	db := seededDB(clock.NewSimulated())
	v := NewBandwidthView(db)
	byMAC := func() (named, unnamed int) {
		t.Helper()
		rows, err := v.Rows()
		if err != nil || len(rows) == 0 {
			t.Fatalf("refresh: %d rows, %v", len(rows), err)
		}
		for _, r := range rows {
			if r.Device == r.MAC.String() {
				unnamed++
			} else {
				named++
			}
		}
		return named, unnamed
	}
	if _, unnamed := byMAC(); unnamed != 0 {
		t.Fatalf("first refresh shows %d rows by MAC, want every device named", unnamed)
	}
	defer func(sel *hwdb.SelectStmt) { leaseNames = sel }(leaseNames)
	leaseNames = mustSelect("SELECT mac, hostname, action FROM Leases WHERE action = 'none'")
	for i := 0; i < 3; i++ {
		if _, unnamed := byMAC(); unnamed != 0 {
			t.Fatalf("refresh %d with no new lease shows %d rows by MAC: it selected Leases again", i+1, unnamed)
		}
	}
	if !raceEnabled { // sync.Pool drops a quarter of its puts under the race detector
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
		if allocs := testing.AllocsPerRun(100, func() { _, _ = v.Rows() }); allocs != 1 {
			t.Errorf("a refresh with no new lease allocates %.0f times, want 1: its rows", allocs)
		}
	}
	if err := db.InsertLease("add", phoneMAC, packet.MustIP4("192.168.1.11"), "kids-phone"); err != nil {
		t.Fatal(err)
	}
	if named, _ := byMAC(); named != 0 {
		t.Errorf("a refresh after a lease shows %d named rows: it did not select Leases again", named)
	}
}
