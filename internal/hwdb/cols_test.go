package hwdb

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
)

// A result's Cols are the names appendCols spells out for its statement,
// whether the parser fixed them, the schema's * supplied them or the
// select spelled them out, for every shape of statement. Results of one
// statement share their Cols, so a caller that appends to one result's
// must not change the next's.
func TestResultColsMatchAppendCols(t *testing.T) {
	clk := clock.NewSimulated()
	db := NewHomework(clk, DefaultRingSize)
	observeFlows(db, clk, 4)
	hist := func(q string) string {
		return q + " HISTORY @0 @" + strconv.FormatInt(clk.Now().Add(time.Hour).UnixNano(), 10)
	}
	stmts := map[string]*SelectStmt{}
	for _, q := range []string{
		"SELECT mac, bytes FROM Flows",
		"SELECT mac AS device, proto FROM Flows [ROWS 10]",
		"SELECT sum(bytes) AS total, count(*), max(packets) FROM Flows",
		"SELECT mac, sum(bytes), count(*) AS n FROM Flows [RANGE 10 SECONDS] GROUP BY mac",
		"SELECT mac, proto FROM Flows GROUP BY mac, proto",
		"SELECT * FROM Flows",
		"SELECT * FROM Flows [NOW]",
		"SELECT *, mac FROM Flows",
		"SELECT mac, *, bytes AS b FROM Flows ORDER BY b DESC",
		"SELECT mac, bytes FROM Flows ORDER BY bytes DESC LIMIT 3",
		"SELECT mac, sum(bytes) AS bytes FROM Flows GROUP BY mac ORDER BY bytes",
		"SELECT * FROM Flows ORDER BY bytes LIMIT 5",
		hist("SELECT * FROM Flows"),
		hist("SELECT mac, bytes FROM Flows"),
	} {
		stmts[q] = mustSelect(t, q)
	}
	stmts["hand-built: explicit columns"] = &SelectStmt{Table: "Flows",
		Items: []SelectItem{{Col: "mac", Name: "mac"}, {Col: "bytes", Name: "b"}}}
	stmts["hand-built: *"] = &SelectStmt{Table: "Flows", Items: []SelectItem{{Col: "*"}}}
	stmts["hand-built: * mixed"] = &SelectStmt{Table: "Flows",
		Items: []SelectItem{{Col: "mac", Name: "mac"}, {Col: "*"}}}
	stmts["hand-built: aggregate"] = &SelectStmt{Table: "Flows", GroupBy: []string{"mac"},
		Items: []SelectItem{{Col: "mac", Name: "mac"}, {Agg: AggSum, Col: "bytes", Name: "sum(bytes)"}}}

	flows, _ := db.Table("Flows")
	schema := flows.Schema()
	for q, sel := range stmts {
		want := appendCols(nil, schema, sel)
		first, err := db.Select(sel)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !slices.Equal(first.Cols, want) {
			t.Errorf("%s: Cols %q, want %q", q, first.Cols, want)
		}
		if cap(first.Cols) != len(first.Cols) {
			t.Errorf("%s: Cols has room for %d names beyond its %d: an append would write where other results read", q, cap(first.Cols)-len(first.Cols), len(first.Cols))
		}
		_ = append(first.Cols, "appended")
		next, err := db.Select(sel)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !slices.Equal(next.Cols, want) {
			t.Errorf("%s: after appending to a result's Cols the next reads %q, want %q", q, next.Cols, want)
		}
	}

	hr, err := db.History("Flows", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if want := appendCols(nil, schema, &SelectStmt{Items: []SelectItem{{Col: "*"}}}); !slices.Equal(hr.Cols, want) {
		t.Errorf("History: Cols %q, want %q", hr.Cols, want)
	}
}
