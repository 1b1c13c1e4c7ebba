package hwdb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// ringModel is the reference every ring shortcut is compared against: all
// rows ever inserted, in a plain slice, of which a table of capacity cap
// retains the last cap.
type ringModel struct {
	cap  int
	rows []Row
}

func (m *ringModel) held() []Row { return m.rows[max(0, len(m.rows)-m.cap):] }

// tail is Table.Tail's contract written out over the model.
func (m *ringModel) tail(after uint64) (rows []Row, inserts, lost uint64) {
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

// rowsBetweenRef is RowsBetween as it was defined before it searched the
// ring: two binary searches over a copy of every retained row.
func rowsBetweenRef(rows []Row, from, to time.Time) []Row {
	if !from.IsZero() {
		i := sort.Search(len(rows), func(i int) bool { return !rows[i].TS.Before(from) })
		rows = rows[i:]
	}
	if !to.IsZero() {
		i := sort.Search(len(rows), func(i int) bool { return rows[i].TS.After(to) })
		rows = rows[:i]
	}
	return rows
}

func sameRows(got, want []Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].TS.Equal(want[i].TS) || got[i].Vals[0] != want[i].Vals[0] {
			return fmt.Errorf("row %d = %v@%v, want %v@%v", i, got[i].Vals[0], got[i].TS, want[i].Vals[0], want[i].TS)
		}
	}
	return nil
}

// fillRandom inserts n rows (value = insert ordinal) into tbl and the
// model, the simulated clock standing still for about a third of them so
// several rows share a timestamp.
func fillRandom(t *testing.T, rng *rand.Rand, clk *clock.Simulated, tbl *Table, m *ringModel, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			clk.Advance(time.Duration(1+rng.Intn(900)) * time.Millisecond)
		}
		vals := []Value{Int64(int64(len(m.rows)))}
		if err := tbl.Insert(clk.Now(), vals); err != nil {
			t.Fatal(err)
		}
		m.rows = append(m.rows, Row{TS: clk.Now(), Vals: vals})
	}
}

// TestWindowReadMatchesSnapshotThenWindow is the differential test for
// window-first reads: over every ring state a table passes through and
// every window kind, the range resolved on the ring equals
// applyWindow over a copy of everything retained, RowsBetween equals its
// old definition, and Snapshot itself equals the model.
func TestWindowReadMatchesSnapshotThenWindow(t *testing.T) {
	const capacity = 600 // not a power of two: the ring grows 256 -> 512 -> 600
	states := []struct {
		name    string
		inserts int
	}{
		{"empty", 0},
		{"part-filled", 100},
		{"initial slots exactly full", initialRingSlots},
		{"mid-growth", 300},
		{"exactly full", capacity},
		{"wrapped once", capacity + 217},
		{"wrapped many times", 5*capacity + 37},
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, st := range states {
			rng := rand.New(rand.NewSource(seed))
			clk := clock.NewSimulated()
			tbl := NewTable("T", NewSchema(Column{Name: "v", Type: TInt}), capacity)
			m := &ringModel{cap: capacity}
			fillRandom(t, rng, clk, tbl, m, st.inserts)
			clk.Advance(time.Duration(rng.Intn(3)) * time.Second)
			now, held := clk.Now(), m.held()
			fail := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("seed %d, %s, %s: %v", seed, st.name, what, err)
				}
			}
			fail("Snapshot", sameRows(tbl.Snapshot(), held))

			// Instants the bounds are drawn from: before, on and after the
			// held span, on timestamps inside it (shared ones included:
			// a third of the rows repeat their predecessor's) and between.
			instants := []time.Time{now, now.Add(time.Hour), now.Add(-24 * time.Hour)}
			if n := len(held); n > 0 {
				instants = append(instants, held[0].TS, held[0].TS.Add(-time.Nanosecond), held[n-1].TS, held[n-1].TS.Add(time.Nanosecond))
				for i := 0; i < 12; i++ {
					ts := held[rng.Intn(n)].TS
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
				fail(w.String(), sameRows(tbl.window(w, now), applyWindow(held, w, now)))
			}

			instants = append(instants, time.Time{})
			for _, from := range instants {
				for _, to := range instants {
					fail(fmt.Sprintf("RowsBetween(%v, %v)", from, to),
						sameRows(tbl.RowsBetween(from, to), rowsBetweenRef(held, from, to)))
				}
			}
		}
	}
}

// wantSlots is the memory contract: min(rows inserted, capacity) slots
// rounded up to a power of two, no fewer than the initial allocation and
// no more than the capacity.
func wantSlots(inserted, capacity int) int {
	slots := initialRingSlots
	for slots < inserted {
		slots *= 2
	}
	return min(slots, capacity)
}

// TestRingGrowthMatchesPresizedRing drives a growing table and the model
// of a ring that had its capacity from the start through every doubling
// boundary and two wraps: nothing a caller can observe differs, and the
// slots held follow the memory contract.
func TestRingGrowthMatchesPresizedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 255, 256, 257, 600, 1000, 1024, 2048} {
		clk := clock.NewSimulated()
		tbl := NewTable("T", NewSchema(Column{Name: "v", Type: TInt}), capacity)
		m := &ringModel{cap: capacity}
		var hooked []Row
		tbl.OnInsert(func(r Row) { hooked = append(hooked, r) })
		if got := len(tbl.ring); got != wantSlots(0, capacity) {
			t.Fatalf("cap %d: %d slots before the first insert, want %d", capacity, got, wantSlots(0, capacity))
		}
		cursor := uint64(0) // a reader that catches up every 97 inserts
		for i := 1; i <= 2*capacity+3; i++ {
			clk.Advance(time.Millisecond)
			vals := []Value{Int64(int64(i))}
			if err := tbl.Insert(clk.Now(), vals); err != nil {
				t.Fatal(err)
			}
			m.rows = append(m.rows, Row{TS: clk.Now(), Vals: vals})

			if tbl.Cap() != capacity {
				t.Fatalf("cap %d: Cap() = %d after %d inserts", capacity, tbl.Cap(), i)
			}
			if got := len(tbl.ring); got != wantSlots(i, capacity) {
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

// groupByRef is GROUP BY as it was keyed before: one rendered string per
// row, Value.String of every group cell joined with '|'. It returns, in
// first-seen order, each group's first-seen key cells, row count and sum
// of column sumCol.
func groupByRef(rows []Row, groupIdx []int, sumCol int) [][]Value {
	type group struct {
		key   []Value
		count int64
		sum   float64
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		var sb strings.Builder
		key := make([]Value, len(groupIdx))
		for i, gi := range groupIdx {
			key[i] = r.Vals[gi]
			sb.WriteString(key[i].String())
			sb.WriteByte('|')
		}
		g := groups[sb.String()]
		if g == nil {
			g = &group{key: key}
			groups[sb.String()] = g
			order = append(order, sb.String())
		}
		g.count++
		g.sum += r.Vals[sumCol].AsFloat()
	}
	var out [][]Value
	for _, ks := range order {
		g := groups[ks]
		out = append(out, append(append([]Value(nil), g.key...), Int64(g.count), Float(g.sum)))
	}
	return out
}

// cellID renders a cell so that cells differing in any field, the sign of
// a zero included, differ.
func cellID(v Value) string {
	return fmt.Sprintf("%d/%d/%x/%q", v.Type, v.Int, math.Float64bits(v.Real), v.Str)
}

// TestGroupByMatchesStringKeyedReference: the byte-keyed grouping forms
// the groups the rendered-string key formed, in the same first-seen order
// with the same first-seen key cells, over the cells that could tell the
// two apart.
func TestGroupByMatchesStringKeyedReference(t *testing.T) {
	schema := NewSchema(
		Column{"s", TString}, Column{"u", TString}, Column{"r", TReal},
		Column{"i", TInt}, Column{"m", TMAC}, Column{"b", TBool}, Column{"n", TInt})
	strs := []string{"", "|", "a", "a|", "|a", "''|''", "a'|'b", "A"}
	reals := []Value{Float(0), Float(math.Copysign(0, -1)), Float(3), Int64(3), Float(2.5), Int64(0), Float(-3), Int64(-3)}
	sel := mustSelect(t, "SELECT s, u, r, i, m, b, count(*), sum(n) FROM T GROUP BY s, u, r, i, m, b")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Row, 400)
		for i := range rows {
			vals := []Value{
				Str(strs[rng.Intn(len(strs))]), Str(strs[rng.Intn(len(strs))]), reals[rng.Intn(len(reals))],
				Int64(int64(rng.Intn(3) - 1)), MACVal(packet.MAC{2, byte(rng.Intn(2))}), Bool(rng.Intn(2) == 0),
				Int64(int64(rng.Intn(1000))),
			}
			if err := schema.Validate(vals); err != nil {
				t.Fatal(err)
			}
			rows[i] = Row{Vals: vals}
		}
		// Fewer grouping columns make bigger groups: both ends matter.
		for _, s := range []*SelectStmt{sel, mustSelect(t, "SELECT r, count(*), sum(n) FROM T GROUP BY r"),
			mustSelect(t, "SELECT s, u, count(*), sum(n) FROM T GROUP BY s, u")} {
			var groupIdx []int
			for _, g := range s.GroupBy {
				gi, _ := schema.Index(g)
				groupIdx = append(groupIdx, gi)
			}
			res, err := aggregate(schema, s, rows)
			if err != nil {
				t.Fatal(err)
			}
			want := groupByRef(rows, groupIdx, 6)
			if len(res.Rows) != len(want) {
				t.Fatalf("seed %d, %v: %d groups, want %d", seed, s.GroupBy, len(res.Rows), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if cellID(res.Rows[i][j]) != cellID(want[i][j]) {
						t.Fatalf("seed %d, %v: group %d cell %d = %v, want %v", seed, s.GroupBy, i, j, res.Rows[i][j], want[i][j])
					}
				}
			}
		}
	}
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
func observeFlows(db *DB, clk *clock.Simulated, polls int) {
	for p := 0; p < polls; p++ {
		for d := 0; d < 6; d++ {
			for f := 0; f < 5; f++ {
				_ = db.InsertFlow(packet.MAC{2, byte(d)},
					packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(10 + d)}, Dst: packet.IP4{93, 184, 216, 34},
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

// TestAggregateAllocsFollowGroupsNotRows pins GROUP BY at O(groups)
// allocations: ten times the rows in the same 30 groups allocate no more.
func TestAggregateAllocsFollowGroupsNotRows(t *testing.T) {
	sel := mustSelect(t, figure1Query)
	aggAllocs := func(polls int) float64 {
		clk := clock.NewSimulated()
		db := NewHomework(clk, DefaultRingSize)
		observeFlows(db, clk, polls)
		flows, _ := db.Table(TableFlows)
		rows := flows.Snapshot()
		return testing.AllocsPerRun(20, func() {
			if res, err := aggregate(flows.Schema(), sel, rows); err != nil || len(res.Rows) != 30 {
				t.Fatalf("aggregate: %v, %v", res, err)
			}
		})
	}
	few, many := aggAllocs(10), aggAllocs(100)
	t.Logf("aggregate into 30 groups: %.0f allocs over 300 rows, %.0f over 3000", few, many)
	if many > few {
		t.Errorf("aggregate allocates %.0f times over 3000 rows but %.0f over 300: it should follow the 30 groups", many, few)
	}
	if few > 6*30 {
		t.Errorf("aggregate allocates %.0f times for 30 groups, want a small constant per group", few)
	}
}
