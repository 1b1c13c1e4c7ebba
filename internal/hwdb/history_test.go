package hwdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// histDB builds a DB with one table "Ticks"(n integer) and five rows at
// one-second intervals starting at the simulated clock's origin.
func histDB(t *testing.T) (*DB, *Table, []time.Time) {
	t.Helper()
	clk := clock.NewSimulated()
	db := New(clk)
	tbl, err := db.CreateTable("Ticks", NewSchema(Column{Name: "n", Type: TInt}), 16)
	if err != nil {
		t.Fatal(err)
	}
	var stamps []time.Time
	for i := 0; i < 5; i++ {
		stamps = append(stamps, clk.Now())
		if err := db.Insert("Ticks", Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	return db, tbl, stamps
}

func TestParseAsOfAndHistory(t *testing.T) {
	st, err := Parse("SELECT * FROM Ticks AS OF @1234")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if !sel.HasAsOf || sel.AsOf.UnixNano() != 1234 {
		t.Fatalf("AS OF parse = %+v", sel)
	}

	st, err = Parse("SELECT n FROM Ticks [RANGE 2 SECONDS] HISTORY @100 @200")
	if err != nil {
		t.Fatal(err)
	}
	sel = st.(*SelectStmt)
	if !sel.HasHist || sel.HistFrom.UnixNano() != 100 || sel.HistTo.UnixNano() != 200 {
		t.Fatalf("HISTORY parse = %+v", sel)
	}
	if sel.Win.Kind != WindowRange {
		t.Fatalf("window lost: %+v", sel.Win)
	}

	for _, bad := range []string{
		"SELECT * FROM Ticks AS OF 1234",        // missing @
		"SELECT * FROM Ticks AS @1",             // AS without OF
		"SELECT * FROM Ticks HISTORY @200 @100", // reversed range
		"SELECT * FROM Ticks HISTORY @100",      // missing upper bound
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestRowsBetween(t *testing.T) {
	_, tbl, stamps := histDB(t)
	if got := len(tbl.rowsBetween(time.Time{}, time.Time{})); got != 5 {
		t.Fatalf("open bounds rows = %d, want 5", got)
	}
	// Inclusive on both ends.
	rows := tbl.rowsBetween(stamps[1], stamps[3])
	if len(rows) != 3 || rows[0].Int(0) != 1 || rows[2].Int(0) != 3 {
		t.Fatalf("rowsBetween[1,3] = %v", rows)
	}
	if got := len(tbl.rowsBetween(stamps[4].Add(time.Hour), time.Time{})); got != 0 {
		t.Fatalf("future from rows = %d, want 0", got)
	}
}

func TestSelectAsOfRingFallback(t *testing.T) {
	db, _, stamps := histDB(t)
	// Without a HistorySource, AS OF falls back to whatever the ring holds.
	res, err := db.Query(fmt.Sprintf("SELECT n FROM Ticks AS OF @%d", stamps[2].UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("AS OF rows = %d, want 3", len(res.Rows))
	}
	// RANGE windows anchor at the AS OF instant, not the live clock: one
	// second back from stamps[2] covers rows 1 and 2 only.
	res, err = db.Query(fmt.Sprintf("SELECT n FROM Ticks [RANGE 1 SECONDS] AS OF @%d", stamps[2].UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 1 {
		t.Fatalf("RANGE AS OF rows = %v", res.Rows)
	}
}

func TestSelectHistoryAndConvenience(t *testing.T) {
	db, _, stamps := histDB(t)
	res, err := db.Query(fmt.Sprintf("SELECT n FROM Ticks HISTORY @%d @%d",
		stamps[1].UnixNano(), stamps[3].UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("HISTORY rows = %d, want 3", len(res.Rows))
	}

	hist, err := db.History("Ticks", stamps[0], stamps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rows) != 2 || hist.Cols[0] != "timestamp" {
		t.Fatalf("History() = cols %v rows %v", hist.Cols, hist.Rows)
	}
	if _, err := db.History("NoSuch", time.Time{}, time.Time{}); err == nil {
		t.Error("History on missing table succeeded")
	}
}

// wideHistory is a HistorySource that remembers every row ever inserted
// into one table, beyond the ring.
type wideHistory struct {
	table string
	rows  []Row
}

func (w *wideHistory) HistoryRows(table string, from, to time.Time) ([]Row, bool) {
	if table != w.table {
		return nil, false
	}
	var out []Row
	for _, r := range w.rows {
		if !from.IsZero() && r.Time().Before(from) {
			continue
		}
		if !to.IsZero() && r.Time().After(to) {
			continue
		}
		out = append(out, r)
	}
	return out, true
}

func TestHistorySourceWidensRing(t *testing.T) {
	clk := clock.NewSimulated()
	db := New(clk)
	tbl, err := db.CreateTable("Ticks", NewSchema(Column{Name: "n", Type: TInt}), 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &wideHistory{table: "Ticks"}
	tbl.OnInsert(func(r Row) { src.rows = append(src.rows, r) })
	db.SetHistory(src)

	start := clk.Now()
	for i := 0; i < 6; i++ {
		if err := db.Insert("Ticks", Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	// Ring kept only the last 2 rows, but AS OF sees all six through the
	// attached source.
	res, err := db.Query(fmt.Sprintf("SELECT n FROM Ticks AS OF @%d", clk.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("AS OF via source rows = %d, want 6", len(res.Rows))
	}
	// A table the source declines still falls back to its ring.
	if _, err := db.CreateTable("Other", NewSchema(Column{Name: "n", Type: TInt}), 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Other", Int64(7)); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(fmt.Sprintf("SELECT n FROM Other AS OF @%d", clk.Now().UnixNano()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("fallback rows = %d, want 1", len(res.Rows))
	}
	if clk.Now().Before(start) {
		t.Fatal("clock went backwards")
	}
}
