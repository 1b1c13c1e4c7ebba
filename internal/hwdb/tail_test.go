package hwdb

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// newTailTable builds a small ring with a single int column and returns
// an insert helper stamping rows from a simulated clock.
func newTailTable(t *testing.T, cap int) (*Table, func(v int64)) {
	t.Helper()
	clk := clock.NewSimulated()
	tbl := NewTable("T", NewSchema(Column{Name: "v", Type: TInt}), cap)
	return tbl, func(v int64) {
		if err := tbl.Insert(clk.Now(), []Value{Int64(v)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTailWrapExactLoss table-drives the cursor contract around ring
// wrap: lost must equal exactly the rows that wrapped out unread, the
// returned inserts cursor must always advance to the table total, and
// the surviving rows must be the newest Cap() rows oldest-first.
func TestTailWrapExactLoss(t *testing.T) {
	const cap = 4
	cases := []struct {
		name      string
		inserts   int    // total rows inserted before the read
		after     uint64 // cursor position of the read
		wantRows  int
		wantLost  uint64
		wantFirst int64 // value of the first returned row
	}{
		{"caught-up", 3, 3, 0, 0, 0},
		{"within-ring", 4, 1, 3, 0, 2},
		{"exactly-full-ring-behind", 4, 0, 4, 0, 1},
		{"one-past-ring", 5, 0, 4, 1, 2},
		{"cursor-far-behind", 12, 2, 4, 6, 9},
		{"cursor-more-than-cap-behind", 100, 10, 4, 86, 97},
		{"never-read", 25, 0, 4, 21, 22},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, insert := newTailTable(t, cap)
			for v := int64(1); v <= int64(tc.inserts); v++ {
				insert(v)
			}
			rows, inserts, lost := tbl.Tail(tc.after)
			if len(rows) != tc.wantRows || lost != tc.wantLost {
				t.Fatalf("Tail(%d) = %d rows, lost %d; want %d rows, lost %d",
					tc.after, len(rows), lost, tc.wantRows, tc.wantLost)
			}
			if inserts != uint64(tc.inserts) {
				t.Fatalf("inserts cursor = %d, want %d", inserts, tc.inserts)
			}
			if tc.wantRows > 0 {
				if got := rows[0].Int(0); got != tc.wantFirst {
					t.Fatalf("first surviving row = %d, want %d", got, tc.wantFirst)
				}
				last := rows[len(rows)-1].Int(0)
				if want := int64(tc.inserts); last != want {
					t.Fatalf("last surviving row = %d, want %d", last, want)
				}
			}
			// The lost accounting must exactly complement the rows read:
			// cursor delta = rows + lost, with nothing double-counted.
			if uint64(len(rows))+lost != inserts-tc.after {
				t.Fatalf("rows %d + lost %d != cursor delta %d",
					len(rows), lost, inserts-tc.after)
			}
		})
	}
}

// TestTailCursorContractAcrossWraps drives a reader across many full
// ring generations: as long as the reader keeps up, no rows are ever
// lost and every row is seen exactly once; the moment it stalls for more
// than a ring's worth, the loss is reported exactly once and the cursor
// still lands on the table total.
func TestTailCursorContractAcrossWraps(t *testing.T) {
	const cap = 8
	tbl, insert := newTailTable(t, cap)

	// Phase 1: 10 generations of the ring, read in odd-sized batches so
	// reads straddle wrap boundaries.
	var cursor uint64
	var seen []int64
	next := int64(1)
	for gen := 0; gen < 10; gen++ {
		for i := 0; i < 5; i++ {
			insert(next)
			next++
		}
		rows, cur, lost := tbl.Tail(cursor)
		if lost != 0 {
			t.Fatalf("gen %d: lost %d rows while keeping up", gen, lost)
		}
		if cur != cursor+uint64(len(rows)) {
			t.Fatalf("gen %d: cursor %d -> %d with %d rows", gen, cursor, cur, len(rows))
		}
		cursor = cur
		for _, r := range rows {
			seen = append(seen, r.Int(0))
		}
	}
	if len(seen) != 50 {
		t.Fatalf("saw %d rows, want 50", len(seen))
	}
	for i, v := range seen {
		if v != int64(i+1) {
			t.Fatalf("row %d = %d: rows re-ordered or duplicated across wraps", i, v)
		}
	}

	// Phase 2: stall for three full ring generations plus a remainder.
	stall := 3*cap + 3
	for i := 0; i < stall; i++ {
		insert(next)
		next++
	}
	rows, cur, lost := tbl.Tail(cursor)
	if len(rows) != cap {
		t.Fatalf("post-stall read = %d rows, want the full ring %d", len(rows), cap)
	}
	if wantLost := uint64(stall - cap); lost != wantLost {
		t.Fatalf("post-stall lost = %d, want %d", lost, wantLost)
	}
	if cur != uint64(next-1) {
		t.Fatalf("post-stall cursor = %d, want %d", cur, next-1)
	}
	if rows[len(rows)-1].Int(0) != next-1 {
		t.Fatalf("newest row = %d, want %d", rows[len(rows)-1].Int(0), next-1)
	}
	// Once caught up again, the loss is not re-reported.
	if rows, _, lost := tbl.Tail(cur); len(rows) != 0 || lost != 0 {
		t.Fatalf("caught-up re-read = %d rows, lost %d", len(rows), lost)
	}

	// Stats agree with the cursor contract: dropped counts overwritten
	// rows (ring-full inserts), independent of any reader's losses.
	inserts, dropped := tbl.Stats()
	if inserts != uint64(next-1) {
		t.Fatalf("stats inserts = %d, want %d", inserts, next-1)
	}
	if want := uint64(next-1) - cap; dropped != want {
		t.Fatalf("stats dropped = %d, want %d", dropped, want)
	}
}

// TestRPCSubscribeIdleSkips: a subscription over a quiet table generates
// no datagrams — not on an empty table, and not once the result stops
// changing — but pushes as soon as data (re)appears. Satellite of the
// telemetry PR: idle fleets must not pay per-subscription wakeup traffic.
func TestRPCSubscribeIdleSkips(t *testing.T) {
	clk := clock.Real{} // subscription ticks need a real clock
	db := NewHomework(clk, 1024)
	srv := NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	id, err := cli.Subscribe("SUBSCRIBE SELECT mac, rssi FROM Links [ROWS 5] EVERY 0.01 SECONDS")
	if err != nil {
		t.Fatal(err)
	}

	// Empty table: many periods elapse, zero pushes.
	if p, err := cli.WaitPush(150 * time.Millisecond); err == nil {
		t.Fatalf("idle subscription pushed %+v", p)
	}

	// First row: exactly one push (the result then stops changing).
	if err := db.InsertLink(packet.MustMAC("02:00:00:00:00:01"), -42, 0, 54.0); err != nil {
		t.Fatal(err)
	}
	push, err := cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.SubID != id || len(push.Result.Rows) != 1 {
		t.Fatalf("push = %+v", push)
	}
	if p, err := cli.WaitPush(150 * time.Millisecond); err == nil {
		t.Fatalf("unchanged result re-pushed: %+v", p)
	}

	// New data changes the result: pushed again.
	if err := db.InsertLink(packet.MustMAC("02:00:00:00:00:02"), -60, 1, 54.0); err != nil {
		t.Fatal(err)
	}
	push, err = cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(push.Result.Rows) != 2 {
		t.Fatalf("second push rows = %d, want 2", len(push.Result.Rows))
	}

	if err := cli.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
}

// TestRPCSubscribeRangeWindowAges: a RANGE-window subscription must
// still notice rows ageing out with no inserts — the empty-result push
// that tells the display the device went quiet.
func TestRPCSubscribeRangeWindowAges(t *testing.T) {
	clk := clock.Real{}
	db := NewHomework(clk, 1024)
	srv := NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Subscribe(
		"SUBSCRIBE SELECT mac FROM Links [RANGE 0.2 SECONDS] EVERY 0.02 SECONDS"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertLink(packet.MustMAC("02:00:00:00:00:01"), -42, 0, 54.0); err != nil {
		t.Fatal(err)
	}
	push, err := cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(push.Result.Rows) != 1 {
		t.Fatalf("first push rows = %v", push.Result.Rows)
	}
	// The row ages out of the 0.2s window: one empty push announces it,
	// then the (now stably empty) subscription goes quiet.
	push, err = cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatalf("no push after window aged out: %v", err)
	}
	if len(push.Result.Rows) != 0 {
		t.Fatalf("aged-out push rows = %v", push.Result.Rows)
	}
	if p, err := cli.WaitPush(150 * time.Millisecond); err == nil {
		t.Fatalf("stably-empty subscription pushed %+v", p)
	}
}

// TestTailZeroAndNilSafety pins edge cases: reads at cursor zero on an
// empty table, a cursor beyond the insert count, and a cap-1 ring.
func TestTailZeroAndNilSafety(t *testing.T) {
	tbl, insert := newTailTable(t, 1)
	if rows, cur, lost := tbl.Tail(0); len(rows) != 0 || cur != 0 || lost != 0 {
		t.Fatalf("empty tail = %d rows, cur %d, lost %d", len(rows), cur, lost)
	}
	// A cursor "from the future" (stale table handle) reads nothing.
	if rows, cur, lost := tbl.Tail(99); len(rows) != 0 || cur != 0 || lost != 0 {
		t.Fatalf("future-cursor tail = %d rows, cur %d, lost %d", len(rows), cur, lost)
	}
	for v := int64(1); v <= 7; v++ {
		insert(v)
	}
	rows, cur, lost := tbl.Tail(0)
	if len(rows) != 1 || cur != 7 || lost != 6 {
		t.Fatalf("cap-1 tail = %d rows, cur %d, lost %d", len(rows), cur, lost)
	}
	if rows[0].Int(0) != 7 {
		t.Fatalf("cap-1 survivor = %v", rows[0])
	}
}
