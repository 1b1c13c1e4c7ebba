package hwdb

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// modelRow is a row as the model keeps it: the timestamp and the cells a
// read must return. It is written against the contract, not the layout —
// nothing here knows about cells, strides or blocks.
type modelRow struct {
	ts   time.Time
	vals []Value
}

// ringModel is the reference every ring shortcut is compared against: all
// rows ever inserted, in a plain slice, of which a table of capacity cap
// retains the last cap.
type ringModel struct {
	cap  int
	rows []modelRow
}

// insert records what a table holds after Insert(ts, vals) under schema:
// the values as given, except that an integer in a real column is the
// real it widened to.
func (m *ringModel) insert(schema *Schema, ts time.Time, vals []Value) {
	kept := make([]Value, len(vals))
	for i, v := range vals {
		if schema.Cols[i].Type == TReal && v.Type == TInt {
			v = Float(float64(v.Int))
		}
		kept[i] = v
	}
	m.rows = append(m.rows, modelRow{ts, kept})
}

func (m *ringModel) held() []modelRow { return m.rows[max(0, len(m.rows)-m.cap):] }

// tail is Table.Tail's contract written out over the model.
func (m *ringModel) tail(after uint64) (rows []modelRow, inserts, lost uint64) {
	inserts = uint64(len(m.rows))
	if after >= inserts {
		return nil, inserts, 0
	}
	held := m.held()
	if first := inserts - uint64(len(held)); after < first {
		return held, inserts, first - after
	}
	return m.rows[after:], inserts, 0
}

// rowsBetweenRef is rowsBetween as it was defined before it searched the
// ring: two binary searches over a copy of every retained row.
func rowsBetweenRef(rows []modelRow, from, to time.Time) []modelRow {
	if !from.IsZero() {
		i := sort.Search(len(rows), func(i int) bool { return !rows[i].ts.Before(from) })
		rows = rows[i:]
	}
	if !to.IsZero() {
		i := sort.Search(len(rows), func(i int) bool { return rows[i].ts.After(to) })
		rows = rows[:i]
	}
	return rows
}

// windowRef is a window specification applied to everything retained.
func windowRef(rows []modelRow, w Window, now time.Time) []modelRow {
	switch w.Kind {
	case WindowRows:
		return rows[max(0, len(rows)-w.N):]
	case WindowRange:
		cutoff := now.Add(-w.Dur)
		return rows[sort.Search(len(rows), func(i int) bool { return !rows[i].ts.Before(cutoff) }):]
	case WindowNow:
		return rows[max(0, len(rows)-1):]
	}
	return rows
}

// sameCell reports whether two cells agree in every field, the sign of a
// zero included.
func sameCell(a, b Value) bool {
	return a.Type == b.Type && a.Int == b.Int && math.Float64bits(a.Real) == math.Float64bits(b.Real) && a.Str == b.Str
}

// sameRows compares rows a table handed out with the model's, cell by
// cell, through Value and through the typed accessors.
func sameRows(got []Row, want []modelRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if !r.Time().Equal(w.ts) || r.NumCols() != len(w.vals) {
			return fmt.Errorf("row %d = %d cells @%v, want %d @%v", i, r.NumCols(), r.Time(), len(w.vals), w.ts)
		}
		for c, wv := range w.vals {
			if !sameCell(r.Value(c), wv) {
				return fmt.Errorf("row %d cell %d = %v, want %v", i, c, r.Value(c), wv)
			}
			ok := r.Real(c) == wv.AsFloat() || wv.Type == TString
			switch wv.Type {
			case TString:
				ok = ok && r.Str(c) == wv.Str
			case TReal:
				ok = ok && r.Str(c) == ""
			default:
				ok = ok && r.Int(c) == wv.Int && r.Str(c) == ""
			}
			if !ok {
				return fmt.Errorf("row %d cell %d: Int %d Real %v Str %q, want %v", i, c, r.Int(c), r.Real(c), r.Str(c), wv)
			}
		}
	}
	return nil
}

// copyOut turns the views a scan hands its callback into model rows while
// they are still good.
func copyOut(r Row) modelRow {
	m := modelRow{ts: r.Time(), vals: make([]Value, r.NumCols())}
	for c := range m.vals {
		m.vals[c] = r.Value(c)
	}
	return m
}

// sameModel compares two runs of model rows.
func sameModel(got, want []modelRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].ts.Equal(want[i].ts) || len(got[i].vals) != len(want[i].vals) {
			return fmt.Errorf("row %d @%v, want @%v", i, got[i].ts, want[i].ts)
		}
		for c := range got[i].vals {
			if !sameCell(got[i].vals[c], want[i].vals[c]) {
				return fmt.Errorf("row %d cell %d = %v, want %v", i, c, got[i].vals[c], want[i].vals[c])
			}
		}
	}
	return nil
}

// scanned is what Table.scan feeds a select for window w.
func scanned(t *testing.T, tbl *Table, w Window, now time.Time) []modelRow {
	t.Helper()
	var out []modelRow
	if err := tbl.scan(w, now, func(r Row) error { out = append(out, copyOut(r)); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// A tableShape is a schema the differentials run over and a generator of
// rows for it; vals(rng, n) is the n-th row ever inserted.
type tableShape struct {
	name   string
	schema func(t *testing.T) *Schema
	vals   func(rng *rand.Rand, n int) []Value
}

var hostnames = []string{"", "laptop", "tv", "it's-a-phone", "printer|2"}

var tableShapes = []tableShape{
	{"one integer", func(*testing.T) *Schema { return NewSchema(Column{Name: "v", Type: TInt}) },
		func(_ *rand.Rand, n int) []Value { return []Value{Int64(int64(n))} }},
	{"Leases", func(*testing.T) *Schema {
		tbl, _ := NewHomework(clock.NewSimulated(), 1).Table(TableLeases)
		return tbl.Schema()
	}, func(rng *rand.Rand, n int) []Value {
		return []Value{Str([]string{"add", "del", "upd"}[rng.Intn(3)]), MACVal(packet.MAC{2, 0, 0, byte(n >> 16), byte(n >> 8), byte(n)}),
			IPVal(packet.IP4{192, 168, byte(n >> 8), byte(n)}), Str(hostnames[rng.Intn(len(hostnames))])}
	}},
	{"CREATE TABLE with varchars", func(t *testing.T) *Schema {
		st, err := Parse("CREATE TABLE Notes (who varchar, n integer, score real, note varchar, ok boolean, at timestamp)")
		if err != nil {
			t.Fatal(err)
		}
		return st.(*CreateStmt).Schema
	}, func(rng *rand.Rand, n int) []Value {
		score := Float(float64(rng.Intn(7)) - 2.5)
		if rng.Intn(2) == 0 {
			score = Int64(int64(rng.Intn(7) - 3)) // an integer into the real column
		}
		return []Value{Str(hostnames[rng.Intn(len(hostnames))]), Int64(int64(n)), score,
			Str(strings.Repeat("x", rng.Intn(4))), Bool(rng.Intn(2) == 0), TimeVal(time.Unix(int64(n), 0))}
	}},
}

// fillRandom inserts n rows into tbl and the model, the simulated clock
// standing still for about a third of them so several rows share a
// timestamp.
func fillRandom(t *testing.T, rng *rand.Rand, clk *clock.Simulated, tbl *Table, m *ringModel, shape tableShape, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			clk.Advance(time.Duration(1+rng.Intn(900)) * time.Millisecond)
		}
		vals := shape.vals(rng, len(m.rows))
		if err := tbl.Insert(clk.Now(), vals); err != nil {
			t.Fatal(err)
		}
		m.insert(tbl.Schema(), clk.Now(), vals)
	}
}

// TestWindowReadMatchesSnapshotThenWindow is the differential test for
// window-first reads: over every ring state a table passes through and
// every window kind, the range resolved on the ring equals the window
// applied to everything retained, rowsBetween equals its old definition,
// and Snapshot itself equals the model.
func TestWindowReadMatchesSnapshotThenWindow(t *testing.T) {
	const capacity = 600 // not a multiple of a page: pages of 256, 256 and 88 rows
	states := []struct {
		name    string
		inserts int
	}{
		{"empty", 0},
		{"part-filled", 100},
		{"first page exactly full", pageRows},
		{"one row into the second page", pageRows + 1},
		{"mid-growth", 300},
		{"exactly full", capacity},
		{"short last page, wrapped", capacity + 2*pageRows + 40},
		{"wrapped once", capacity + 217},
		{"wrapped many times", 5*capacity + 37},
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, st := range states {
			shape := tableShapes[int(seed)%len(tableShapes)]
			rng := rand.New(rand.NewSource(seed))
			clk := clock.NewSimulated()
			tbl := NewTable("T", shape.schema(t), capacity)
			m := &ringModel{cap: capacity}
			fillRandom(t, rng, clk, tbl, m, shape, st.inserts)
			clk.Advance(time.Duration(rng.Intn(3)) * time.Second)
			now, held := clk.Now(), m.held()
			fail := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("seed %d, %s, %s, %s: %v", seed, shape.name, st.name, what, err)
				}
			}
			fail("Snapshot", sameRows(tbl.Snapshot(), held))

			// Instants the bounds are drawn from: before, on and after the
			// held span, on timestamps inside it (shared ones included:
			// a third of the rows repeat their predecessor's) and between.
			instants := []time.Time{now, now.Add(time.Hour), now.Add(-24 * time.Hour)}
			if n := len(held); n > 0 {
				instants = append(instants, held[0].ts, held[0].ts.Add(-time.Nanosecond), held[n-1].ts, held[n-1].ts.Add(time.Nanosecond))
				for i := 0; i < 12; i++ {
					ts := held[rng.Intn(n)].ts
					instants = append(instants, ts, ts.Add(time.Nanosecond), ts.Add(-time.Nanosecond))
				}
			}

			n := len(held)
			windows := []Window{{Kind: WindowAll}, {Kind: WindowNow}}
			for _, k := range []int{0, 1, n / 2, n - 1, n, n + 1, 10 * capacity} {
				if k >= 0 {
					windows = append(windows, Window{Kind: WindowRows, N: k})
				}
			}
			for _, ts := range instants {
				if d := now.Sub(ts); d >= 0 {
					windows = append(windows, Window{Kind: WindowRange, Dur: d})
				}
			}
			for _, w := range windows {
				fail(w.String(), sameModel(scanned(t, tbl, w, now), windowRef(held, w, now)))
			}

			instants = append(instants, time.Time{})
			for _, from := range instants {
				for _, to := range instants {
					fail(fmt.Sprintf("rowsBetween(%v, %v)", from, to),
						sameRows(tbl.rowsBetween(from, to), rowsBetweenRef(held, from, to)))
				}
			}
		}
	}
}

// TestFlatRingRandomOps drives a table and the model through random
// sequences of inserts, cursor reads, snapshots, time-range reads and
// windowed selects, across growth and several wraps, over every table
// shape: at no point can a caller tell the flat ring from a slice of rows.
// Rows read early are checked again at the end, after the ring has moved
// on under them.
func TestFlatRingRandomOps(t *testing.T) {
	for _, shape := range tableShapes {
		for seed := int64(1); seed <= 4; seed++ {
			capacity := []int{1, 3, 300, 700}[seed-1]
			rng := rand.New(rand.NewSource(seed))
			clk := clock.NewSimulated()
			db := New(clk)
			tbl, err := db.CreateTable("T", shape.schema(t), capacity)
			if err != nil {
				t.Fatal(err)
			}
			m := &ringModel{cap: capacity}
			type kept struct {
				what string
				got  []Row
				want []modelRow
			}
			var retained []kept
			check := func(what string, got []Row, want []modelRow) {
				t.Helper()
				if err := sameRows(got, want); err != nil {
					t.Fatalf("%s, seed %d, %d inserts, %s: %v", shape.name, seed, len(m.rows), what, err)
				}
				if len(got) > 0 && len(retained) < 200 {
					retained = append(retained, kept{what, got, append([]modelRow(nil), want...)})
				}
			}
			instant := func() time.Time {
				if held := m.held(); len(held) > 0 && rng.Intn(4) > 0 {
					return held[rng.Intn(len(held))].ts.Add(time.Duration(rng.Intn(3)-1) * time.Nanosecond)
				}
				if rng.Intn(3) == 0 {
					return time.Time{}
				}
				return clk.Now().Add(time.Duration(rng.Intn(7)-3) * time.Second)
			}
			for len(m.rows) < 3*capacity+600 {
				switch op := rng.Intn(10); {
				case op < 4:
					fillRandom(t, rng, clk, tbl, m, shape, 1+rng.Intn(40))
				case op < 6:
					after := uint64(rng.Intn(len(m.rows) + 2))
					rows, inserts, lost := tbl.Tail(after)
					wantRows, wantInserts, wantLost := m.tail(after)
					if inserts != wantInserts || lost != wantLost {
						t.Fatalf("%s, seed %d: Tail(%d) = _, %d, %d, want %d, %d", shape.name, seed, after, inserts, lost, wantInserts, wantLost)
					}
					check(fmt.Sprintf("Tail(%d)", after), rows, wantRows)
				case op < 7:
					check("Snapshot", tbl.Snapshot(), m.held())
				case op < 8:
					from, to := instant(), instant()
					check(fmt.Sprintf("rowsBetween(%v, %v)", from, to), tbl.rowsBetween(from, to), rowsBetweenRef(m.held(), from, to))
				default:
					w := []Window{{Kind: WindowAll}, {Kind: WindowNow}, {Kind: WindowRows, N: rng.Intn(2 * capacity)},
						{Kind: WindowRange, Dur: time.Duration(rng.Intn(20000)) * time.Millisecond}}[rng.Intn(4)]
					res, err := db.Select(&SelectStmt{Items: []SelectItem{{Col: "*"}}, Table: "t", Win: w})
					if err != nil {
						t.Fatal(err)
					}
					want := windowRef(m.held(), w, clk.Now())
					got := make([]modelRow, len(res.Rows))
					for i, cells := range res.Rows {
						got[i] = modelRow{cells[0].Time(), cells[1:]}
					}
					if err := sameModel(got, want); err != nil {
						t.Fatalf("%s, seed %d, %d inserts, SELECT * %v: %v", shape.name, seed, len(m.rows), w, err)
					}
				}
			}
			for _, k := range retained {
				if err := sameRows(k.got, k.want); err != nil {
					t.Fatalf("%s, seed %d: rows from %s changed once the ring moved on: %v", shape.name, seed, k.what, err)
				}
			}
		}
	}
}

// TestTailRowsSurviveTwoWraps: rows a cursor read handed out are the
// caller's — the ring wrapping twice past them changes nothing in them.
func TestTailRowsSurviveTwoWraps(t *testing.T) {
	for _, shape := range tableShapes {
		const capacity = 64
		rng := rand.New(rand.NewSource(7))
		clk := clock.NewSimulated()
		tbl := NewTable("T", shape.schema(t), capacity)
		m := &ringModel{cap: capacity}
		fillRandom(t, rng, clk, tbl, m, shape, capacity+capacity/2) // wrapped already
		rows, _, _ := tbl.Tail(uint64(capacity))
		want, _, _ := m.tail(uint64(capacity))
		want = append([]modelRow(nil), want...)
		if err := sameRows(rows, want); err != nil || len(rows) != capacity/2 {
			t.Fatalf("%s: Tail: %d rows, %v", shape.name, len(rows), err)
		}
		fillRandom(t, rng, clk, tbl, m, shape, 2*capacity+1)
		if _, dropped := tbl.Stats(); dropped < 2*capacity {
			t.Fatalf("%s: ring dropped %d rows, want two wraps", shape.name, dropped)
		}
		if err := sameRows(rows, want); err != nil {
			t.Errorf("%s: Tail rows after two more wraps: %v", shape.name, err)
		}
	}
}

// TestIntegerInRealColumn: an integer inserted into a real column is
// stored as the real it equals, and reads, renders, groups and orders as
// that number, beside the reals around it.
func TestIntegerInRealColumn(t *testing.T) {
	clk := clock.NewSimulated()
	db := New(clk)
	if _, err := db.CreateTable("T", NewSchema(Column{"k", TString}, Column{"r", TReal}), 16); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{Int64(3), Float(3), Float(2.5), Int64(-3), Int64(0), Float(3), Int64(54), Int64(999999)} {
		if err := db.Insert("T", Str("k"), v); err != nil {
			t.Fatal(err)
		}
	}
	text := func(cql string) string {
		t.Helper()
		res, err := db.Query(cql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Text()
	}
	if got, want := text("SELECT r FROM T"), "r\n3\n3\n2.5\n-3\n0\n3\n54\n999999\n"; got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}
	if got, want := text("SELECT r, count(*) AS n FROM T GROUP BY r"), "r\tn\n3\t3\n2.5\t1\n-3\t1\n0\t1\n54\t1\n999999\t1\n"; got != want {
		t.Errorf("grouped %q, want %q", got, want)
	}
	if got, want := text("SELECT r FROM T WHERE r >= 3 ORDER BY r DESC LIMIT 3"), "r\n999999\n54\n3\n"; got != want {
		t.Errorf("ordered %q, want %q", got, want)
	}
	if got, want := text("SELECT min(r) AS lo, max(r) AS hi, sum(r) AS s FROM T WHERE r < 100"), "lo\thi\ts\n-3\t54\t62.5\n"; got != want {
		t.Errorf("aggregated %q, want %q", got, want)
	}
	tbl, _ := db.Table("T")
	for i, r := range tbl.Snapshot() {
		if v := r.Value(1); v.Type != TReal {
			t.Errorf("row %d holds %v of type %v in the real column", i, v, v.Type)
		}
	}
}

// wantSlots is the memory contract: min(rows inserted, capacity) slots
// rounded up to the first page's firstRows until that many rows have been
// inserted and to a page after, and never more than the capacity.
func wantSlots(inserted, capacity int) int {
	if inserted <= firstRows {
		return min((inserted+firstRows-1)/firstRows*firstRows, capacity)
	}
	return min((inserted+pageRows-1)/pageRows*pageRows, capacity)
}

// TestRingGrowthMatchesPresizedRing drives a growing table and the model
// of a ring that had its capacity from the start through every page
// boundary and two wraps: nothing a caller can observe differs, and the
// slots held follow the memory contract — every page but a short last one
// holds pageRows slots.
func TestRingGrowthMatchesPresizedRing(t *testing.T) {
	for ci, capacity := range []int{1, 2, 255, 256, 257, 511, 512, 513, 600, 1000, 1024, 2048} {
		shape := tableShapes[ci%len(tableShapes)]
		rng := rand.New(rand.NewSource(int64(capacity)))
		clk := clock.NewSimulated()
		tbl := NewTable("T", shape.schema(t), capacity)
		m := &ringModel{cap: capacity}
		var hooked []Row
		tbl.OnInsert(func(r Row) { hooked = append(hooked, r) })
		// slots counts what the pages hold, failing unless each page's
		// strings match its cells and only the last page is short.
		slots := func() int {
			n := 0
			for p, page := range tbl.pages {
				rows := len(page.cells) / page.shape.stride
				if len(page.strs) != rows*page.shape.nstr || (rows != pageRows && p != len(tbl.pages)-1) {
					t.Fatalf("cap %d: page %d of %d holds %d rows and %d strings", capacity, p, len(tbl.pages), rows, len(page.strs))
				}
				n += rows
			}
			return n
		}
		if got := slots(); got != wantSlots(0, capacity) {
			t.Fatalf("cap %d: %d slots before the first insert, want %d", capacity, got, wantSlots(0, capacity))
		}
		cursor := uint64(0) // a reader that catches up every 97 inserts
		for i := 1; i <= 2*capacity+3; i++ {
			clk.Advance(time.Millisecond)
			fillRandom(t, rng, clk, tbl, m, shape, 1)

			if tbl.Cap() != capacity {
				t.Fatalf("cap %d: Cap() = %d after %d inserts", capacity, tbl.Cap(), i)
			}
			if got := slots(); got != wantSlots(i, capacity) || got != tbl.slots {
				t.Fatalf("cap %d: %d slots after %d inserts, want %d", capacity, got, i, wantSlots(i, capacity))
			}
			if got := tbl.Len(); got != len(m.held()) {
				t.Fatalf("cap %d: Len() = %d after %d inserts, want %d", capacity, got, i, len(m.held()))
			}
			ins, dropped := tbl.Stats()
			if ins != uint64(i) || dropped != uint64(max(0, i-capacity)) {
				t.Fatalf("cap %d: Stats() = %d, %d after %d inserts, want %d, %d", capacity, ins, dropped, i, i, max(0, i-capacity))
			}
			cursors := []uint64{0, cursor, uint64(i - 1), uint64(i)}
			if i%97 == 0 || wantSlots(i, capacity) != wantSlots(i-1, capacity) {
				// Also on the insert that grew the ring.
				for _, after := range cursors {
					rows, inserts, lost := tbl.Tail(after)
					wantRows, wantInserts, wantLost := m.tail(after)
					if err := sameRows(rows, wantRows); err != nil || inserts != wantInserts || lost != wantLost {
						t.Fatalf("cap %d: Tail(%d) after %d inserts = %d rows, %d, %d (%v), want %d rows, %d, %d",
							capacity, after, i, len(rows), inserts, lost, err, len(wantRows), wantInserts, wantLost)
					}
				}
				cursor = uint64(i)
			}
		}
		if err := sameRows(tbl.Snapshot(), m.held()); err != nil {
			t.Errorf("cap %d: Snapshot: %v", capacity, err)
		}
		if err := sameRows(hooked, m.rows); err != nil {
			t.Errorf("cap %d: OnInsert: %v", capacity, err)
		}
	}
}

// TestNewHomeworkRingOfOne: telemetry, flight and health build their
// databases with a one-row ring.
func TestNewHomeworkRingOfOne(t *testing.T) {
	db := NewHomework(clock.NewSimulated(), 1)
	for i := 0; i < 3; i++ {
		if err := db.InsertLink(packet.MAC{2}, -50-i, 0, 54); err != nil {
			t.Fatal(err)
		}
	}
	links, _ := db.Table(TableLinks)
	if ins, dropped := links.Stats(); links.Cap() != 1 || links.Len() != 1 || ins != 3 || dropped != 2 {
		t.Fatalf("Cap %d Len %d inserts %d dropped %d, want 1 1 3 2", links.Cap(), links.Len(), ins, dropped)
	}
	res, err := db.Query("SELECT rssi FROM Links [ROWS 5]")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != -52 {
		t.Fatalf("query = %v, %v; want the one row -52", res, err)
	}
}

// groupByRef is a grouped select as it was keyed before, written as plainly
// as it can be: one rendered string per row — Value.String of every group
// cell joined with '|' — into a Go map, each group the slice of its rows,
// every aggregate folded from that slice afterwards, then ORDER BY and
// LIMIT. It shares nothing with the executor's index, arena or slab.
func groupByRef(t *testing.T, schema *Schema, sel *SelectStmt, rows []modelRow) [][]Value {
	t.Helper()
	col := func(name string) int {
		i, ok := schema.Index(name)
		if !ok {
			t.Fatalf("reference: no column %q", name)
		}
		return i
	}
	groups := map[string][]modelRow{}
	var order []string
	for _, r := range rows {
		var sb strings.Builder
		for _, g := range sel.GroupBy {
			sb.WriteString(r.vals[col(g)].String())
			sb.WriteByte('|')
		}
		if _, seen := groups[sb.String()]; !seen {
			order = append(order, sb.String())
		}
		groups[sb.String()] = append(groups[sb.String()], r)
	}
	if len(order) == 0 && len(sel.GroupBy) == 0 {
		order = []string{""} // a bare aggregate over nothing is one row
	}
	var out [][]Value
	for _, ks := range order {
		members := groups[ks]
		cells := make([]Value, len(sel.Items))
		for i, it := range sel.Items {
			var sum float64
			var lo, hi Value
			for j, r := range members {
				if it.Col == "*" {
					break
				}
				v := r.vals[col(it.Col)]
				sum += v.AsFloat()
				if j == 0 || v.less(lo) {
					lo = v
				}
				if j == 0 || hi.less(v) {
					hi = v
				}
			}
			switch it.Agg {
			case AggNone:
				cells[i] = members[0].vals[col(it.Col)]
			case AggCount:
				cells[i] = Int64(int64(len(members)))
			case AggSum:
				cells[i] = Float(sum)
			case AggAvg:
				cells[i] = Float(0)
				if len(members) > 0 {
					cells[i] = Float(sum / float64(len(members)))
				}
			case AggMin:
				cells[i] = lo
			case AggMax:
				cells[i] = hi
			}
		}
		out = append(out, cells)
	}
	if len(sel.Order) > 0 {
		sort.SliceStable(out, func(a, b int) bool {
			for _, ob := range sel.Order {
				c := -1
				for i, it := range sel.Items {
					if strings.EqualFold(it.Name, ob.Col) {
						c = i
						break
					}
				}
				if va, vb := out[a][c], out[b][c]; !va.equal(vb) {
					return va.less(vb) != ob.Desc
				}
			}
			return false
		})
	}
	if sel.Limit > 0 && len(out) > sel.Limit {
		out = out[:sel.Limit]
	}
	return out
}

// sameResult compares result rows with the reference's, cell by cell.
func sameResult(got, want [][]Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d cell %d = %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// groupSchema has a column of every kind a key can be made of, a column to
// fold (n) and one that fixes how many groups there are (g).
var groupSchema = NewSchema(
	Column{"s", TString}, Column{"u", TString}, Column{"r", TReal}, Column{"i", TInt},
	Column{"m", TMAC}, Column{"b", TBool}, Column{"n", TInt}, Column{"g", TInt})

// groupTable fills a table and the model with rows over the cells that
// could tell a byte key from a rendered one — '|', quotes, NULs and the
// empty string; integers in the real column beside the equal reals, and
// both zeros — with g running over exactly groups values, each seen early.
func groupTable(t *testing.T, seed int64, rows, groups int) (*DB, *clock.Simulated, *ringModel) {
	t.Helper()
	strs := []string{"", "|", "a", "a|", "|a", "''|''", "a'|'b", "A", "\x00", "a\x00", "\x00|\x00a"}
	reals := []Value{Float(0), Float(math.Copysign(0, -1)), Float(3), Int64(3), Float(2.5), Int64(0), Float(-3), Int64(-3)}
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSimulated()
	db := New(clk)
	tbl, err := db.CreateTable("T", groupSchema, rows)
	if err != nil {
		t.Fatal(err)
	}
	m := &ringModel{cap: rows}
	for i := 0; i < rows; i++ {
		g := i
		if i >= groups {
			g = rng.Intn(groups)
		}
		vals := []Value{
			Str(strs[rng.Intn(len(strs))]), Str(strs[rng.Intn(len(strs))]), reals[rng.Intn(len(reals))],
			Int64(int64(rng.Intn(3) - 1)), MACVal(packet.MAC{2, byte(rng.Intn(2)), byte(rng.Intn(3))}), Bool(rng.Intn(2) == 0),
			Int64(int64(rng.Intn(1000))), Int64(int64(g)),
		}
		clk.Advance(time.Millisecond)
		if err := tbl.Insert(clk.Now(), vals); err != nil {
			t.Fatal(err)
		}
		m.insert(groupSchema, clk.Now(), vals)
	}
	return db, clk, m
}

// groupedSelects are the statements the differentials run: both ends of
// group size, every aggregate, min and max over MAC, string and real
// columns, GROUP BY columns the select list leaves out, and ORDER BY ...
// LIMIT on top.
var groupedSelects = []string{
	"SELECT s, u, r, i, m, b, count(*), sum(n) FROM T GROUP BY s, u, r, i, m, b",
	"SELECT r, count(*), sum(n) FROM T GROUP BY r",
	"SELECT s, u, count(*), sum(n) FROM T GROUP BY s, u",
	"SELECT g, count(*), count(s), sum(n), avg(n), min(n), max(n) FROM T GROUP BY g",
	"SELECT s, min(m), max(m), min(u), max(u), min(r), max(r), avg(r) FROM T GROUP BY s",
	"SELECT count(*), sum(n) FROM T GROUP BY s, b",
	"SELECT b, max(s), count(*) FROM T GROUP BY u, b, i",
	"SELECT s, u, sum(n) AS total, count(*) AS c FROM T GROUP BY s, u ORDER BY total DESC, s LIMIT 7",
	"SELECT g, min(r) AS lo FROM T GROUP BY g ORDER BY lo, g DESC LIMIT 40",
	"SELECT count(*), sum(r), avg(n), min(s), max(m) FROM T",
}

// TestGroupByMatchesStringKeyedReference: the indexed grouping forms the
// groups the rendered-string key formed, in the same first-seen order with
// the same first-seen key cells and the same aggregates, at one group, at
// every slab chunk boundary and one row either side of it, and at 5 000
// groups, several index doublings on. Each select runs twice — two hash
// seeds — and must give the reference's order both times.
func TestGroupByMatchesStringKeyedReference(t *testing.T) {
	s := getSelectSet()
	seed := s.agg.idx.seed
	s.put()
	if s = getSelectSet(); s.agg.idx.seed == seed {
		t.Fatal("two selects hash with one seed: running each twice would prove nothing about order")
	}
	s.put()
	sizes := []int{1, 2, 5007}
	for k, end := 0, 0; k < 4; k++ {
		end += 1 << (slabShift + k) // 4, 12, 28, 60
		sizes = append(sizes, end-1, end, end+1)
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, groups := range sizes {
			db, _, m := groupTable(t, seed, 2*groups+400, groups)
			for _, cql := range groupedSelects {
				sel := mustSelect(t, cql)
				want := groupByRef(t, groupSchema, sel, m.rows)
				if strings.Contains(cql, "GROUP BY g") && sel.Limit == 0 && len(want) != groups {
					t.Fatalf("reference formed %d groups, want %d", len(want), groups)
				}
				for run := 0; run < 2; run++ {
					res, err := db.Select(sel)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(res.Rows, want); err != nil {
						t.Fatalf("seed %d, %d groups of g, run %d, %s: %v", seed, groups, run, cql, err)
					}
				}
			}
		}
	}
}

// TestGroupByEqualityIsByKeyBytes narrows the hash to three bits, so that
// hundreds of groups share eight home slots and every probe walks past
// keys that are not its own: the groups still come out as the reference's.
func TestGroupByEqualityIsByKeyBytes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db, _, m := groupTable(t, seed, 1500, 300)
		tbl, _ := db.Table("T")
		for _, cql := range groupedSelects {
			sel := mustSelect(t, cql)
			if len(sel.Order) > 0 {
				continue // ordering is Select's, not the sink's
			}
			s := getSelectSet()
			a, err := s.aggregate(groupSchema, sel)
			if err != nil {
				t.Fatal(err)
			}
			a.idx.hashMask = 7
			for _, row := range tbl.Snapshot() {
				a.add(row)
			}
			rows, err := s.finish(a, groupSchema, sel)
			if err != nil {
				t.Fatal(err)
			}
			res := s.result(rows, groupSchema, sel)
			if err := sameResult(res.Rows, groupByRef(t, groupSchema, sel, m.rows)); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, cql, err)
			}
		}
	}
}

// TestAggregateOverEmptyWindow: a bare aggregate over no rows is one row
// of zero counts and sums and null extremes; a grouped one is no rows.
func TestAggregateOverEmptyWindow(t *testing.T) {
	db, clk, _ := groupTable(t, 1, 50, 5)
	clk.Advance(time.Hour)
	for _, cql := range []string{
		"SELECT count(*), count(s), sum(n), avg(n), min(s), max(m) FROM T [RANGE 1 SECONDS]",
		"SELECT g, count(*), min(n) FROM T [RANGE 1 SECONDS] GROUP BY g",
		"SELECT count(*), min(n) FROM T [RANGE 1 SECONDS] GROUP BY g",
	} {
		sel := mustSelect(t, cql)
		res, err := db.Select(sel)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(res.Rows, groupByRef(t, groupSchema, sel, nil)); err != nil {
			t.Errorf("%s: %v", cql, err)
		}
	}
}

// TestResultRowsDoNotAlias: the rows of a result share a block — or, for
// a result too big to pool, its chunks — but not cells. Appending to one
// row leaves the next intact, and a result stays what it was once three
// other selects have built theirs, in the working set it was built in
// when that went back to the pool.
func TestResultRowsDoNotAlias(t *testing.T) {
	db, _, _ := groupTable(t, 3, 700, 70)
	stmts := []string{"SELECT * FROM T", "SELECT s, n FROM T WHERE b = true", groupedSelects[3], groupedSelects[0]}
	for k, cql := range stmts {
		sel := mustSelect(t, cql)
		res, err := db.Select(sel)
		if err != nil || len(res.Rows) < 2<<slabShift {
			t.Fatalf("%s: %d rows, %v", cql, len(res.Rows), err)
		}
		want := make([][]Value, len(res.Rows))
		for i, row := range res.Rows {
			want[i] = append([]Value(nil), row...)
		}
		for i, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has %d cells and room for %d", cql, i, len(row), cap(row))
			}
			grown := append(row, Str("appended"))
			grown[0] = Str("overwritten") // the copy's cell, not the result's
		}
		for j := 1; j <= 3; j++ {
			if _, err := db.Query(stmts[(k+j)%len(stmts)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameResult(res.Rows, want); err != nil {
			t.Errorf("%s: result changed under appends and later selects: %v", cql, err)
		}
	}
}

// freshAggregate runs rows through the aggregation of a new working set,
// not one from the pool: what a select pays whose set was dropped for its
// size, or that is the first on its processor.
func freshAggregate(schema *Schema, sel *SelectStmt, rows []Row) (*Result, error) {
	s := selectSets.New().(*selectSet)
	s.agg.idx.seed = maphash.MakeSeed()
	a, err := s.aggregate(schema, sel)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		a.add(row)
	}
	out, err := s.finish(a, schema, sel)
	if err != nil {
		return nil, err
	}
	return s.result(out, schema, sel), nil
}

func mustSelect(t testing.TB, cql string) *SelectStmt {
	t.Helper()
	st, err := Parse(cql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*SelectStmt)
}

// figure1Query is the bandwidth display's read (the paper's Figure 1).
const figure1Query = "SELECT mac, proto, dport, sport, sum(bytes) AS bytes FROM Flows [RANGE 10 SECONDS] GROUP BY mac, proto, dport, sport"

// observeFlows inserts what the measurement plane writes: 6 devices x 5
// flows every 600 ms of simulated time, for the given number of polls.
func observeFlows(db *DB, clk *clock.Simulated, polls int) { observeDevices(db, clk, polls, 6) }

// observeDevices is observeFlows for a home of any number of devices.
func observeDevices(db *DB, clk *clock.Simulated, polls, devices int) {
	for p := 0; p < polls; p++ {
		for d := 0; d < devices; d++ {
			for f := 0; f < 5; f++ {
				_ = db.InsertFlow(packet.MAC{2, byte(d >> 8), byte(d)},
					packet.FiveTuple{Src: packet.IP4{192, 168, byte(1 + d>>8), byte(10 + d)}, Dst: packet.IP4{93, 184, 216, 34},
						Proto: packet.ProtoTCP, SrcPort: uint16(40000 + f), DstPort: uint16(80 + f)}, 10, 15000)
			}
		}
		clk.Advance(600 * time.Millisecond)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestWindowedSelectBytesIndependentOfRingFill pins the read-cost
// contract: the Figure-1 select over a full default ring allocates within
// 2x of what it allocates over a ring that holds nothing but its window.
func TestWindowedSelectBytesIndependentOfRingFill(t *testing.T) {
	sel := mustSelect(t, figure1Query)
	selectBytes := func(polls int) uint64 {
		clk := clock.NewSimulated()
		db := NewHomework(clk, DefaultRingSize)
		observeFlows(db, clk, polls)
		return bytesPerRun(20, func() {
			if res, err := db.Select(sel); err != nil || len(res.Rows) != 30 {
				t.Fatalf("select: %v, %v", res, err)
			}
		})
	}
	windowOnly := selectBytes(16)               // 9.6 s of history: all of it inside the window
	full := selectBytes(DefaultRingSize/30 + 1) // the ring wrapped
	t.Logf("Figure-1 select: %d B on a ring holding only the window, %d B on a full %d-row ring", windowOnly, full, DefaultRingSize)
	if full > 2*windowOnly {
		t.Errorf("select on a full ring allocates %d B, more than 2x the %d B on a ring holding only its window", full, windowOnly)
	}
}

// TestAggregateAllocsFollowGroupsNotRows pins what GROUP BY allocates in a
// fresh working set, the shape of every select too big to pool: ten times
// the rows in the same 30 groups allocate no more, and a hundred times the
// groups cost one allocation per doubling of each of the three things that
// grow with them — the row slab, the index table and the key arena — not
// one per group.
func TestAggregateAllocsFollowGroupsNotRows(t *testing.T) {
	sel := mustSelect(t, figure1Query)
	aggAllocs := func(polls, devices int) float64 {
		clk := clock.NewSimulated()
		db := NewHomework(clk, DefaultRingSize)
		observeDevices(db, clk, polls, devices)
		flows, _ := db.Table(TableFlows)
		rows := flows.Snapshot()
		return testing.AllocsPerRun(20, func() {
			if res, err := freshAggregate(flows.Schema(), sel, rows); err != nil || len(res.Rows) != 5*devices {
				t.Fatalf("aggregate: %v, %v", res, err)
			}
		})
	}
	few, many, wide := aggAllocs(10, 6), aggAllocs(100, 6), aggAllocs(2, 600)
	t.Logf("aggregate: %.0f allocs for 30 groups of 300 rows, %.0f of 3000 rows; %.0f for 3000 groups", few, many, wide)
	if many > few {
		t.Errorf("aggregate allocates %.0f times over 3000 rows but %.0f over 300: it should follow the 30 groups", many, few)
	}
	if few > 30 {
		t.Errorf("aggregate allocates %.0f times for 30 groups, want fewer allocations than groups", few)
	}
	// AllocsPerRun counts the whole process: the 3000-group run is large
	// enough to start a collection, whose own bookkeeping allocates once
	// or twice under the race detector.
	if doublings := math.Ceil(math.Log2(100)); wide-few > 3*doublings+2 {
		t.Errorf("3000 groups cost %.0f allocations more than 30, want %.0f: three per doubling", wide-few, 3*doublings)
	}
}

// TestFigure1SelectAllocatesItsResult pins what a warm select allocates:
// its result and nothing else — Result, one block of exactly 30 × 5 cells
// and the 30 row headers, about 6 960 B. Its Cols are the statement's,
// fixed by the parser. The sink, the index, the key buffer and the
// accumulator come from a pooled working set.
func TestFigure1SelectAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	sel := mustSelect(t, figure1Query)
	clk := clock.NewSimulated()
	db := NewHomework(clk, DefaultRingSize)
	observeFlows(db, clk, 16)
	run := func() {
		if res, err := db.Select(sel); err != nil || len(res.Rows) != 30 {
			t.Fatalf("select: %v, %v", res, err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(100, run), bytesPerRun(100, run)
	t.Logf("Figure-1 select: %.0f allocations, %d B", allocs, bytes)
	if allocs > 3 || bytes > 7500 {
		t.Errorf("Figure-1 select allocates %.0f times and %d B, want at most 3 and 7 500 B: its result", allocs, bytes)
	}
}

// TestFigure1SelectFuncAllocatesNothing pins what a warm SelectFunc
// allocates: nothing. The same 30 rows Select copies out are visited in
// the pooled working set they were built in, and no column name is made.
func TestFigure1SelectFuncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	sel := mustSelect(t, figure1Query)
	clk := clock.NewSimulated()
	db := NewHomework(clk, DefaultRingSize)
	observeFlows(db, clk, 16)
	var total float64
	run := func() {
		n := 0
		if err := db.SelectFunc(sel, func(row []Value) { n, total = n+1, total+row[4].Real }); err != nil || n != 30 {
			t.Fatalf("SelectFunc: %d rows, %v", n, err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(100, run), bytesPerRun(100, run)
	t.Logf("Figure-1 SelectFunc: %.0f allocations, %d B", allocs, bytes)
	if allocs != 0 || bytes != 0 {
		t.Errorf("Figure-1 SelectFunc allocates %.0f times and %d B, want 0 and 0", allocs, bytes)
	}
}

// TestParseAllocs pins what parsing the Figure-1 statement allocates: the
// token slice, the statement and its two lists, each sized once.
func TestParseAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(figure1Query); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("Parse(figure1Query) allocates %.0f times, want at most 5", allocs)
	}
}
