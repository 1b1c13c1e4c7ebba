package hwdb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// aggSchema has a group column, an integer and a real to fold, and a real
// whose only values are the two zeros.
var aggSchema = NewSchema(Column{"g", TInt}, Column{"i", TInt}, Column{"r", TReal}, Column{"z", TReal})

// aggTable fills a ring of 256 rows with 400, 10 ms apart, so it has
// wrapped: the integers run negative and positive, and the reals are
// negative and positive fractions, magnitudes far enough apart that the
// order of a sum shows in its bits, and both zeros.
func aggTable(t *testing.T, seed int64) (*DB, *clock.Simulated, *ringModel) {
	t.Helper()
	reals := []float64{0, math.Copysign(0, -1), -1.5, 2.25, -1e-3, 0.1, 1e15, -7}
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSimulated()
	db := New(clk)
	tbl, err := db.CreateTable("A", aggSchema, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := &ringModel{cap: 256}
	for n := 0; n < 400; n++ {
		vals := []Value{
			Int64(int64(rng.Intn(5))), Int64(int64(rng.Intn(2001) - 1000)),
			Float(reals[rng.Intn(len(reals))]), Float(reals[rng.Intn(2)]),
		}
		clk.Advance(10 * time.Millisecond)
		if err := tbl.Insert(clk.Now(), vals); err != nil {
			t.Fatal(err)
		}
		m.insert(aggSchema, clk.Now(), vals)
	}
	return db, clk, m
}

// aggSelects fold A's integer and real columns with every aggregate, bare
// and grouped — avg alone, beside other aggregates, and twice in one row —
// grouped by the zeros, and ordered by an avg.
var aggSelects = []string{
	"SELECT count(*), sum(i), avg(i), min(i), max(i), sum(r), avg(r), min(r), max(r) FROM A",
	"SELECT g, count(*), sum(i), avg(i), min(i), max(i), sum(r), avg(r), min(r), max(r) FROM A GROUP BY g",
	"SELECT avg(r) FROM A",
	"SELECT z, avg(r), count(*), avg(i) FROM A GROUP BY z",
	"SELECT min(z), max(z), sum(z), avg(z) FROM A",
	"SELECT g, avg(r) AS a FROM A GROUP BY g ORDER BY a DESC LIMIT 3",
}

// TestAggregatesMatchReference holds Select and SelectFunc to groupByRef,
// which folds every aggregate from the rows of the window, over A's
// statements in several windows and, once the clock has moved on, in an
// empty one: there a bare aggregate is one row of count and sum 0, avg 0,
// and min and max null, and a grouped one no row at all.
func TestAggregatesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db, clk, m := aggTable(t, seed)
		check := func(cql string) [][]Value {
			t.Helper()
			sel := mustSelect(t, cql)
			want := groupByRef(t, aggSchema, sel, windowRef(m.held(), sel.Win, clk.Now()))
			got, err := selectBothWays(t, db, sel)
			if err == nil {
				err = sameResult(got, want)
			}
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, cql, err)
			}
			return got
		}
		for _, win := range []string{"", "[ROWS 1]", "[ROWS 7]", "[NOW]", "[RANGE 0.3 SECONDS]"} {
			for _, cql := range aggSelects {
				check(strings.Replace(cql, "FROM A", "FROM A "+win, 1))
			}
		}
		clk.Advance(time.Minute)
		for _, cql := range aggSelects {
			check(strings.Replace(cql, "FROM A", "FROM A [RANGE 1 SECONDS]", 1))
		}
		empty := []Value{Int64(0), Float(0), Float(0), {}, {}, Float(0), Float(0), {}, {}}
		if err := sameResult(check("SELECT count(*), sum(i), avg(i), min(i), max(i), sum(r), avg(r), min(r), max(r) FROM A [RANGE 1 SECONDS]"), [][]Value{empty}); err != nil {
			t.Fatalf("seed %d: bare aggregates over an empty window: %v", seed, err)
		}
	}
}
