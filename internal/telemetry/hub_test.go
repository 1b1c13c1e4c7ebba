package telemetry

import (
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/hwdb"
)

func testTable(t *testing.T, ring int) (*hwdb.Table, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated()
	tbl := hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), ring)
	return tbl, clk
}

func insertN(t *testing.T, tbl *hwdb.Table, clk *clock.Simulated, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(int64(from + i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// collect registers a consumer on src that keeps every delta it is handed,
// with a copy of its rows: they are lent for the call.
func collect(src Source) *[]Delta {
	var got []Delta
	var rows hwdb.RowBuilder
	src.SubscribeFunc(func(d Delta) {
		d.Rows = rows.Copy(d.Rows)
		got = append(got, d)
	})
	return &got
}

// TestHubDeliversBatchedDeltas covers the core contract: inserts batch
// into one delta per source per drain, oldest-first, and a second flush
// with nothing new delivers nothing.
func TestHubDeliversBatchedDeltas(t *testing.T) {
	tbl, clk := testTable(t, 64)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	got := collect(hub)
	id := SourceID{Home: 3, Table: "T"}
	hub.Watch(id, tbl)

	insertN(t, tbl, clk, 0, 5)
	hub.Flush()
	if len(*got) != 1 {
		t.Fatalf("%d deltas after flush, want 1", len(*got))
	}
	d := (*got)[0]
	if d.Source != id || len(d.Rows) != 5 || d.Lost != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Rows[0].Int(0) != 0 || d.Rows[4].Int(0) != 4 {
		t.Fatalf("rows out of order: %v", d.Rows)
	}

	hub.Flush()
	if len(*got) != 1 {
		t.Fatalf("unexpected delta %+v after idle flush", (*got)[1])
	}

	st := hub.Stats()
	if st.Sources != 1 || st.Delivered != 5 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHubInsertHotPathZeroAllocs pins the acceptance bound: watching a
// table adds zero allocations per insert.
func TestHubInsertHotPathZeroAllocs(t *testing.T) {
	tbl, clk := testTable(t, 4096)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	hub.Watch(SourceID{Home: 1, Table: "T"}, tbl)

	vals := []hwdb.Value{hwdb.Int64(7)}
	ts := clk.Now()
	if n := testing.AllocsPerRun(1000, func() {
		if err := tbl.Insert(ts, vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("watched insert allocates %.1f per op, want 0", n)
	}
}

// TestHubRingWrapLost checks explicit loss accounting when the hub's
// cursor falls further behind than the ring holds.
func TestHubRingWrapLost(t *testing.T) {
	tbl, clk := testTable(t, 4)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	got := collect(hub)
	hub.Watch(SourceID{Home: 0, Table: "T"}, tbl)

	insertN(t, tbl, clk, 0, 10) // 6 of these wrap out before any drain
	hub.Flush()
	if len(*got) != 1 {
		t.Fatalf("%d deltas after flush, want 1", len(*got))
	}
	d := (*got)[0]
	if len(d.Rows) != 4 || d.Lost != 6 {
		t.Fatalf("delta rows=%d lost=%d, want 4 lost 6", len(d.Rows), d.Lost)
	}
	if d.Rows[0].Int(0) != 6 || d.Rows[3].Int(0) != 9 {
		t.Fatalf("surviving rows = %v", d.Rows)
	}
	st := hub.Stats()
	if st.Delivered != 4 || st.Lost != 6 {
		t.Fatalf("stats = %+v", st)
	}
	ins, _ := tbl.Stats()
	if st.Delivered+st.Lost != ins {
		t.Fatalf("accounting: delivered %d + lost %d != inserts %d", st.Delivered, st.Lost, ins)
	}
}

// TestHubUnwatchFinalDrain checks Unwatch delivers what the table still
// held and retires the source's accounting into the hub totals.
func TestHubUnwatchFinalDrain(t *testing.T) {
	tbl, clk := testTable(t, 64)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	var got int
	hub.SubscribeFunc(func(d Delta) { got += len(d.Rows) })
	hub.Watch(SourceID{Home: 0, Table: "T"}, tbl)

	insertN(t, tbl, clk, 0, 7)
	hub.Unwatch(SourceID{Home: 0, Table: "T"}) // no Flush ran
	if got != 7 {
		t.Fatalf("final drain delivered %d rows, want 7", got)
	}
	st := hub.Stats()
	if st.Sources != 0 || st.Delivered != 7 {
		t.Fatalf("stats = %+v", st)
	}
	// The insert hook is inert now: new rows neither deliver nor panic.
	insertN(t, tbl, clk, 7, 2)
	hub.Flush()
	if got != 7 {
		t.Fatalf("unwatched source delivered: got %d", got)
	}
}

// TestHubWatchSeesRetainedRows: rows inserted before Watch are delivered
// on the first drain (the cursor starts at zero).
func TestHubWatchSeesRetainedRows(t *testing.T) {
	tbl, clk := testTable(t, 64)
	insertN(t, tbl, clk, 0, 3)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	var got int
	hub.SubscribeFunc(func(d Delta) { got += len(d.Rows) })
	hub.Watch(SourceID{Home: 0, Table: "T"}, tbl)
	hub.Flush()
	if got != 3 {
		t.Fatalf("pre-existing rows delivered = %d, want 3", got)
	}
}

// TestHubDeterministicFanoutOrder: deltas fan out in (home, table) order
// regardless of registration order.
func TestHubDeterministicFanoutOrder(t *testing.T) {
	clk := clock.NewSimulated()
	hub := NewHub(HubConfig{})
	defer hub.Close()
	var order []SourceID
	hub.SubscribeFunc(func(d Delta) { order = append(order, d.Source) })

	mk := func() *hwdb.Table {
		return hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), 16)
	}
	tblB, tblA, tblA2 := mk(), mk(), mk()
	hub.Watch(SourceID{Home: 2, Table: "Links"}, tblB)
	hub.Watch(SourceID{Home: 1, Table: "Links"}, tblA)
	hub.Watch(SourceID{Home: 1, Table: "Flows"}, tblA2)
	for _, tbl := range []*hwdb.Table{tblB, tblA, tblA2} {
		if err := tbl.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	hub.Flush()
	want := []SourceID{{1, "Flows"}, {1, "Links"}, {2, "Links"}}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
}

// TestHubStartsNoGoroutine: a hub drains only when it is flushed, so
// building, watching, inserting into, flushing and closing one leaves the
// goroutine count where it was. Other tests' goroutines can only wind
// down meanwhile, so the count is held to at most its starting value.
func TestHubStartsNoGoroutine(t *testing.T) {
	tbl, clk := testTable(t, 64)
	before := runtime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines, %d before the hub", when, n, before)
		}
	}
	hub := NewHub(HubConfig{})
	check("after NewHub")
	got := collect(hub)
	hub.Watch(SourceID{Home: 0, Table: "T"}, tbl)
	insertN(t, tbl, clk, 0, 2)
	check("after inserts")
	hub.Flush()
	if len(*got) != 1 || len((*got)[0].Rows) != 2 {
		t.Fatalf("flush delivered %d deltas, want one of 2 rows", len(*got))
	}
	check("after Flush")
	hub.Close()
	check("after Close")
}
