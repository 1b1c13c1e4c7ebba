package hwdb

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// TestFullFlowsRingRetainsItsCells pins the memory contract of a ring of
// packed pages: a Flows table filled to 4 096 slots retains its sixteen
// pages of 256 packed rows and next to nothing else — their headers.
func TestFullFlowsRingRetainsItsCells(t *testing.T) {
	const slots = 4096
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first may only have queued what finalizers and pools let go of
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	proto, _ := NewHomework(clock.NewSimulated(), 1).Table(TableFlows)
	schema := proto.Schema()
	vals := []Value{MACVal(packet.MAC{2, 1}), IPVal(packet.IP4{192, 168, 1, 10}), IPVal(packet.IP4{93, 184, 216, 34}),
		Int64(6), Int64(40000), Int64(443), Int64(10), Int64(15000)}
	before := heap()
	flows := NewTable(TableFlows, schema, slots)
	for i := 0; i < slots+slots/2; i++ {
		if err := flows.Insert(time.Unix(int64(i), 0), vals); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if flows.Len() != slots {
		t.Fatalf("Flows holds %d rows, want a full ring of %d", flows.Len(), slots)
	}
	// A row is 43 B — the time, a MAC, two IPv4 addresses, a one-byte
	// protocol, two two-byte ports and two counters — and needs no slack, so
	// a page is 11 008 B, which the allocator serves from its 12 288 B class.
	if sh := schema.shape; sh.stride != 43 || sh.slack != 0 {
		t.Fatalf("a Flows row packs into %d B with %d B of slack, want 43 and 0", sh.stride, sh.slack)
	}
	want := uint64(slots / pageRows * 12288)
	got := after - before
	t.Logf("a full %d-slot Flows ring retains %d B; its pages are %d B", slots, got, want)
	if got < want || got > want+want/10 {
		t.Errorf("retained %d B, want within 10%% above the %d B of pages", got, want)
	}
	runtime.KeepAlive(flows)
}

// TestReadsAllocatePerCallNotPerRow: Tail, Snapshot and rowsBetween copy
// their rows out as one block — the row views, the cells and, for a table
// with string columns, the strings — plus the block's header.
func TestReadsAllocatePerCallNotPerRow(t *testing.T) {
	clk := clock.NewSimulated()
	db := NewHomework(clk, 4096)
	for i := 0; i < 3000; i++ {
		clk.Advance(time.Millisecond)
		mac := packet.MAC{2, 0, 0, 0, byte(i >> 8), byte(i)}
		if err := db.InsertLink(mac, -40, i, 54); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertLease("add", mac, packet.IP4{10, 0, byte(i >> 8), byte(i)}, "host"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		table string
		max   float64
	}{{TableLinks, 3}, {TableLeases, 4}} {
		tbl, _ := db.Table(tc.table)
		from := clk.Now().Add(-2 * time.Second)
		for name, read := range map[string]func() int{
			"Tail(10)":    func() int { rows, _, _ := tbl.Tail(10); return len(rows) },
			"Tail(2990)":  func() int { rows, _, _ := tbl.Tail(2990); return len(rows) },
			"Snapshot":    func() int { return len(tbl.Snapshot()) },
			"rowsBetween": func() int { return len(tbl.rowsBetween(from, time.Time{})) },
		} {
			rows := read()
			if n := testing.AllocsPerRun(20, func() { read() }); n > tc.max || rows == 0 {
				t.Errorf("%s %s: %.0f allocations for %d rows, want at most %.0f", tc.table, name, n, rows, tc.max)
			}
		}
	}
}

// TestHookRowsNeverAliasTheRing is the -race gate for hook rows: on a
// table of capacity one, where every insert overwrites the slot the last
// one wrote, two concurrent inserters' hooks each read the row they were
// handed — after the lock has dropped — and find their own insert in it.
func TestHookRowsNeverAliasTheRing(t *testing.T) {
	const perWriter = 2000
	tbl := NewTable("T", NewSchema(Column{"who", TString}, Column{"n", TInt}, Column{"twice", TInt}), 1)
	var mu sync.Mutex
	seen := map[string]int64{}
	var kept []Row
	tbl.OnInsert(func(r Row) {
		who, n, twice := r.Str(0), r.Int(1), r.Int(2)
		mu.Lock()
		defer mu.Unlock()
		if twice != 2*n || (who != "a" && who != "b") {
			t.Errorf("hook read a torn row: %q %d %d", who, n, twice)
		}
		seen[who] += n
		if n%500 == 0 {
			kept = append(kept, r)
		}
	})
	var wg sync.WaitGroup
	for _, who := range []string{"a", "b"} {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			for n := int64(1); n <= perWriter; n++ {
				if err := tbl.Insert(time.Unix(n, 0), []Value{Str(who), Int64(n), Int64(2 * n)}); err != nil {
					t.Error(err)
					return
				}
				if n%64 == 0 {
					tbl.Snapshot() // a reader between them
				}
			}
		}(who)
	}
	wg.Wait()
	if want := int64(perWriter * (perWriter + 1) / 2); seen["a"] != want || seen["b"] != want {
		t.Errorf("hooks saw sums %v, want %d from each writer", seen, want)
	}
	for _, r := range kept { // retained rows are still the insert they were
		if r.Int(1)%500 != 0 || r.Int(2) != 2*r.Int(1) || r.Time() != time.Unix(r.Int(1), 0) {
			t.Errorf("retained hook row changed: %q %d %d @%v", r.Str(0), r.Int(1), r.Int(2), r.Time())
		}
	}
}
