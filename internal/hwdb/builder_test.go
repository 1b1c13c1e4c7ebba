package hwdb

import (
	"fmt"
	"testing"
	"time"
)

// TestBuilderTailStopsAtItsCount: a builder's Tail copies up to the insert
// count its ReserveTail read, so rows inserted in between wait for the
// next read, and rows that wrapped out of the ring in between are counted
// lost, never copied past the reservation.
func TestBuilderTailStopsAtItsCount(t *testing.T) {
	tbl := NewTable("T", NewSchema(Column{"v", TInt}), 8)
	insert := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := tbl.Insert(time.Unix(int64(i), 0), []Value{Int64(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	values := func(rows []Row) []int64 {
		var out []int64
		for _, r := range rows {
			out = append(out, r.Int(0))
		}
		return out
	}
	cases := []struct {
		name          string
		cursor        uint64
		before, since int // inserts before ReserveTail, and between it and Tail
		want          []int64
		lost          uint64
		unused        int // reserved rows that wrapped out before Tail
	}{
		{"inserts since wait", 0, 5, 3, []int64{0, 1, 2, 3, 4}, 0, 0},
		{"still retained", 5, 8, 4, []int64{5, 6, 7}, 0, 0},
		{"partly wrapped since", 5, 8, 7, []int64{7}, 2, 2},
		{"wholly wrapped since", 5, 8, 11, nil, 3, 3},
		{"cursor fell off before", 0, 10, 0, []int64{2, 3, 4, 5, 6, 7, 8, 9}, 2, 0},
		{"nothing new", 4, 4, 3, nil, 0, 0},
	}
	for _, tc := range cases {
		tbl = NewTable("T", NewSchema(Column{"v", TInt}), 8)
		insert(0, tc.before)
		var b RowBuilder
		upto := b.ReserveTail(tbl, tc.cursor, maxKeptArray)
		if upto != uint64(tc.before) {
			t.Fatalf("%s: ReserveTail returned %d, want %d", tc.name, upto, tc.before)
		}
		insert(tc.before, tc.since)
		rows, lost := b.Tail(tbl, tc.cursor, upto)
		if got := values(rows); lost != tc.lost || len(got) != len(tc.want) {
			t.Fatalf("%s: rows %v lost %d, want %v lost %d", tc.name, got, lost, tc.want, tc.lost)
		}
		for i, v := range values(rows) {
			if v != tc.want[i] {
				t.Fatalf("%s: rows %v, want %v", tc.name, values(rows), tc.want)
			}
		}
		if left := b.Left(); left.Rows != tc.unused {
			t.Fatalf("%s: %+v left of the reservation, want %d rows", tc.name, left, tc.unused)
		}
	}
}

// TestBuilderLaysRunsSideBySide: the tails of tables of different shapes
// go into one builder's arrays, each a run of its own, and a row of one
// stays what it was when the tables and the later runs move on.
func TestBuilderLaysRunsSideBySide(t *testing.T) {
	db := NewHomework(nil, 16)
	for i := 0; i < 3; i++ {
		if err := db.InsertLink([6]byte{2, byte(i)}, -40-i, i, 1.5*float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertLease("add", [6]byte{2, byte(i)}, [4]byte{10, 0, 0, byte(i)}, []string{"a", "", "c"}[i]); err != nil {
			t.Fatal(err)
		}
	}
	links, _ := db.Table(TableLinks)
	leases, _ := db.Table(TableLeases)
	var b RowBuilder
	uLinks, uLeases := b.ReserveTail(links, 1, maxKeptArray), b.ReserveTail(leases, 0, maxKeptArray)
	if want := (Room{Rows: 5, Cells: 2*5 + 3*5, Strs: 3 * 2, Runs: 2}); b.Left() != want {
		t.Fatalf("reserved %+v, want %+v", b.Left(), want)
	}
	lr, _ := b.Tail(links, 1, uLinks)
	sr, _ := b.Tail(leases, 0, uLeases)
	if b.Left() != (Room{}) {
		t.Fatalf("%+v left after both tails", b.Left())
	}
	if err := db.InsertLease("del", [6]byte{2}, [4]byte{}, "z"); err != nil {
		t.Fatal(err)
	}
	if len(lr) != 2 || lr[1].Real(3) != 3 || lr[0].Int(1) != -41 {
		t.Errorf("links rows = %v", lr)
	}
	if len(sr) != 3 || sr[0].Str(3) != "a" || sr[1].Str(3) != "" || sr[2].Str(0) != "add" {
		t.Errorf("lease rows = %v", sr)
	}
}

// TestBuilderResetKeepsItsArrays: a builder filled, reset and filled again
// with as many rows carves the second fill from the first fill's arrays and
// allocates nothing; Reset zeroes the views it handed out; and a fill whose
// arrays outgrow maxKeptArray leaves none of them behind.
func TestBuilderResetKeepsItsArrays(t *testing.T) {
	tbl := NewTable("T", NewSchema(Column{"a", TInt}, Column{"s", TString}), 8192)
	for i := range 8192 {
		if err := tbl.Insert(time.Unix(int64(i), 0), []Value{Int64(int64(i)), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	var b RowBuilder
	fill := func(after, n uint64) []Row {
		b.Reset()
		b.Reserve(runRoom(tbl.schema.shape, int(n)))
		rows, _ := b.Tail(tbl, after, after+n)
		return rows
	}
	first := fill(0, 17)
	cells := &first[0].b.cells[0]
	if first[16].Int(0) != 16 || first[16].Str(1) != "x" {
		t.Fatalf("first fill's last row reads %d %q", first[16].Int(0), first[16].Str(1))
	}
	var second []Row
	if n := testing.AllocsPerRun(20, func() { second = fill(100, 17) }); n != 0 && !raceEnabled {
		t.Errorf("a warm fill allocates %.1f times, want 0", n)
	}
	if &second[0].b.cells[0] != cells || second[0].Int(0) != 100 {
		t.Fatalf("the refill's row %d is not carved from the first fill's cells", second[0].Int(0))
	}
	b.Reset()
	if first[0] != (Row{}) || b.strs.buf[0] != "" {
		t.Fatal("Reset left the views or the strings it handed out in place")
	}
	big := fill(0, 8192) // 8192 × 2 cells, strings and views: 128 KB each
	if len(big) != 8192 || big[8191].Int(0) != 8191 {
		t.Fatalf("the large fill gave %d rows", len(big))
	}
	b.Reset()
	if b.cells.buf != nil || b.strs.buf != nil || b.rows.buf != nil {
		t.Fatalf("Reset kept %d cells, %d strings and %d views past maxKeptArray", len(b.cells.buf), len(b.strs.buf), len(b.rows.buf))
	}
	if b.runs.buf == nil {
		t.Fatal("Reset dropped the run headers, which are under maxKeptArray")
	}
}

// TestBuilderCopyOutlivesItsSource: Copy copies rows of several shapes —
// two tables' runs, strings and the zero row among them — into a builder
// of the caller's, so the copies read as the originals did after the
// builder the originals were carved from is reset and refilled.
func TestBuilderCopyOutlivesItsSource(t *testing.T) {
	db := NewHomework(nil, 16)
	for i := 0; i < 3; i++ {
		if err := db.InsertLink([6]byte{2, byte(i)}, -40-i, i, 1.5*float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertLease("add", [6]byte{2, byte(i)}, [4]byte{10, 0, 0, byte(i)}, []string{"a", "", "c"}[i]); err != nil {
			t.Fatal(err)
		}
	}
	links, _ := db.Table(TableLinks)
	leases, _ := db.Table(TableLeases)
	var src RowBuilder
	lr, _ := src.Tail(links, 0, src.ReserveTail(links, 0, maxKeptArray))
	sr, _ := src.Tail(leases, 0, src.ReserveTail(leases, 0, maxKeptArray))
	orig := append(append(append([]Row(nil), lr...), Row{}), sr...)
	want := make([]string, len(orig))
	for i, r := range orig {
		want[i] = rowText(r)
	}
	var kept RowBuilder
	kept.Copy(lr[:1]) // a run taken before the next copy reserves
	copies := kept.Copy(orig)
	if got := RoomFor(copies); got != RoomFor(orig) {
		t.Fatalf("copies take %+v, originals %+v", got, RoomFor(orig))
	}
	src.Reset()
	src.Tail(links, 0, src.ReserveTail(links, 0, maxKeptArray))
	for i, r := range copies {
		if got := rowText(r); got != want[i] {
			t.Fatalf("copy %d reads %s, want %s", i, got, want[i])
		}
	}
	if kept.Copy(nil) != nil {
		t.Fatal("copying no rows gave rows")
	}
}

// rowText renders a row's time and cells, or "-" for a row of no columns
// (the zero row, whose copy reads time 0 as its wire form does).
func rowText(r Row) string {
	if r.NumCols() == 0 {
		return "-"
	}
	s := fmt.Sprint(r.Time().UnixNano())
	for c := 0; c < r.NumCols(); c++ {
		s += "\t" + r.Value(c).Text()
	}
	return s
}
