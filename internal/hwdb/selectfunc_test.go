package hwdb

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
)

// visited runs sel through SelectFunc and returns a copy of every row it
// handed fn, in order, and how many calls it made.
func visited(db *DB, sel *SelectStmt) (rows [][]Value, calls int, err error) {
	err = db.SelectFunc(sel, func(row []Value) {
		rows = append(rows, slices.Clone(row))
		calls++
	})
	return rows, calls, err
}

// selectBothWays runs sel through Select and through SelectFunc, fails t
// unless SelectFunc visits exactly Select's rows in Select's order — or
// fails as Select does, without calling fn — and returns Select's answer.
func selectBothWays(t testing.TB, db *DB, sel *SelectStmt) ([][]Value, error) {
	t.Helper()
	res, err := db.Select(sel)
	rows, calls, ferr := visited(db, sel)
	if fmt.Sprint(err) != fmt.Sprint(ferr) {
		t.Fatalf("%v: Select failed with %v, SelectFunc with %v", sel.Items, err, ferr)
	}
	if err != nil {
		if calls != 0 {
			t.Fatalf("%v: SelectFunc failed with %v after %d calls", sel.Items, ferr, calls)
		}
		return nil, err
	}
	if err := sameResult(rows, res.Rows); err != nil {
		t.Fatalf("%v: SelectFunc visited other rows than Select returned: %v", sel.Items, err)
	}
	return res.Rows, nil
}

// historyDB holds m's rows in a ring of 64 with a HistorySource that kept
// every one of them, so AS OF and HISTORY read beyond the ring.
func historyDB(t *testing.T, m *ringModel) *DB {
	t.Helper()
	db := New(clock.NewSimulated())
	tbl, err := db.CreateTable("T", groupSchema, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := &wideHistory{table: "T"}
	tbl.OnInsert(func(r Row) { src.rows = append(src.rows, r) })
	db.SetHistory(src)
	for _, r := range m.rows {
		if err := tbl.Insert(r.ts, r.vals); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSelectFuncMatchesSelect: SelectFunc visits exactly the rows Select
// returns, in the same order, and both are the references' — over the
// differentials' grouped and projected statements, ROWS, RANGE and NOW
// windows, bare aggregates over an empty window, AS OF and HISTORY through
// a HistorySource, and a set too big to pool. Where Select fails,
// SelectFunc fails with the same error and calls fn not once.
func TestSelectFuncMatchesSelect(t *testing.T) {
	const rows = 900
	db, clk, m := groupTable(t, 7, rows, 60)
	check := func(cql string, want [][]Value) {
		t.Helper()
		got, err := selectBothWays(t, db, mustSelect(t, cql))
		if err == nil {
			err = sameResult(got, want)
		}
		if err != nil {
			t.Errorf("%s: %v", cql, err)
		}
	}
	for _, cql := range groupedSelects {
		check(cql, groupByRef(t, groupSchema, mustSelect(t, cql), m.rows))
	}
	for _, p := range projectedSelects {
		check(p.cql, p.ref(m))
	}

	now := clk.Now()
	for _, cql := range []string{
		"SELECT g, n FROM T [ROWS 75] WHERE n > 300",
		"SELECT * FROM T [RANGE 0.2 SECONDS]",
		"SELECT s, g FROM T [NOW]",
		"SELECT g, count(*), sum(n), max(s) FROM T [RANGE 0.5 SECONDS] WHERE b = false GROUP BY g ORDER BY g DESC LIMIT 12",
		"SELECT count(*), avg(n), min(m) FROM T [ROWS 40]",
	} {
		sel := mustSelect(t, cql)
		in := windowRef(m.rows, sel.Win, now)
		switch {
		case sel.aggregates():
			var kept []modelRow
			for _, r := range in {
				if sel.Where == nil || r.vals[5].Int == 0 {
					kept = append(kept, r)
				}
			}
			check(cql, groupByRef(t, groupSchema, sel, kept))
		case sel.Where != nil:
			check(cql, projectRef(in, func(r modelRow) bool { return r.vals[6].Int > 300 }, 7, 6))
		case sel.Items[0].Col == "*":
			check(cql, projectRef(in, all, -1, 0, 1, 2, 3, 4, 5, 6, 7))
		default:
			check(cql, projectRef(in, all, 0, 7))
		}
	}

	// Every cell of a window-less SELECT * outgrows the pool bound: the
	// set is dropped, not pooled, after either way out.
	if cells := rows * (1 + len(groupSchema.Cols)); cells*int(unsafe.Sizeof(Value{})) <= maxPooledSet {
		t.Fatalf("%d cells fit the pool bound: the unpooled case is not covered", cells)
	}
	check("SELECT * FROM T", projectRef(m.rows, all, -1, 0, 1, 2, 3, 4, 5, 6, 7))

	// AS OF and HISTORY through a source holding every row, with the ring
	// holding 64 of the 900.
	hdb := historyDB(t, m)
	at, from := m.rows[rows/2].ts, m.rows[rows/5].ts
	for _, c := range []struct {
		cql  string
		want func(sel *SelectStmt) [][]Value
	}{
		{fmt.Sprintf("SELECT g, n FROM T AS OF @%d", at.UnixNano()), func(*SelectStmt) [][]Value {
			return projectRef(rowsBetweenRef(m.rows, time.Time{}, at), all, 7, 6)
		}},
		{fmt.Sprintf("SELECT s, n FROM T [RANGE 0.1 SECONDS] AS OF @%d", at.UnixNano()), func(*SelectStmt) [][]Value {
			return projectRef(rowsBetweenRef(m.rows, at.Add(-100*time.Millisecond), at), all, 0, 6)
		}},
		{fmt.Sprintf("SELECT g, count(*), sum(n) FROM T HISTORY @%d @%d GROUP BY g", from.UnixNano(), at.UnixNano()), func(sel *SelectStmt) [][]Value {
			return groupByRef(t, groupSchema, sel, rowsBetweenRef(m.rows, from, at))
		}},
	} {
		sel := mustSelect(t, c.cql)
		got, err := selectBothWays(t, hdb, sel)
		if err == nil {
			err = sameResult(got, c.want(sel))
		}
		if err == nil && len(got) <= 64 && !sel.aggregates() {
			err = fmt.Errorf("%d rows: the ring's, not the source's", len(got))
		}
		if err != nil {
			t.Errorf("%s: %v", c.cql, err)
		}
	}

	// A bare aggregate over an empty window is one row either way; a
	// grouped one none.
	clk.Advance(time.Hour)
	for _, cql := range []string{
		"SELECT count(*), count(s), sum(n), avg(n), min(s), max(m) FROM T [RANGE 1 SECONDS]",
		"SELECT g, count(*), min(n) FROM T [RANGE 1 SECONDS] GROUP BY g",
	} {
		check(cql, groupByRef(t, groupSchema, mustSelect(t, cql), nil))
	}

	// Every way a select fails: before the scan, during it, after it.
	for _, cql := range []string{
		"SELECT n FROM Nope",
		"SELECT n FROM T WHERE nope = 1",
		"SELECT nope FROM T",
		"SELECT g, count(*) FROM T GROUP BY nope",
		"SELECT s, count(*) FROM T GROUP BY g",
		"SELECT g, sum(nope) FROM T GROUP BY g",
		"SELECT g, n FROM T ORDER BY nope",
		"SELECT g, count(*) AS c FROM T GROUP BY g ORDER BY n",
	} {
		if _, err := selectBothWays(t, db, mustSelect(t, cql)); err == nil {
			t.Errorf("%s: no error", cql)
		}
	}
	failing := func() *SelectStmt { // a WHERE counts its rows: one per run
		bad := *mustSelect(t, "SELECT g, count(*) FROM T [ROWS 600] GROUP BY g")
		bad.Where = &failOn{n: 400}
		return &bad
	}
	_, err := db.Select(failing())
	_, calls, ferr := visited(db, failing())
	if err == nil || fmt.Sprint(err) != fmt.Sprint(ferr) || calls != 0 {
		t.Errorf("a WHERE failing on row 400: Select failed with %v, SelectFunc with %v after %d calls", err, ferr, calls)
	}
}
