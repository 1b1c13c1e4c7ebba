package hwdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// projectRef is a projection over the model, written out plainly: the
// cells of cols (-1 the timestamp) of every row keep admits.
func projectRef(rows []modelRow, keep func(modelRow) bool, cols ...int) [][]Value {
	var out [][]Value
	for _, r := range rows {
		if !keep(r) {
			continue
		}
		cells := make([]Value, len(cols))
		for i, c := range cols {
			if c < 0 {
				cells[i] = TimeVal(r.ts)
			} else {
				cells[i] = r.vals[c]
			}
		}
		out = append(out, cells)
	}
	return out
}

func all(modelRow) bool { return true }

// projectedSelects are projections over groupTable's T with their
// references: a WHERE, a window with the timestamp, and ORDER BY ... LIMIT.
var projectedSelects = []struct {
	cql string
	ref func(m *ringModel) [][]Value
}{
	{"SELECT s, n FROM T WHERE b = true", func(m *ringModel) [][]Value {
		return projectRef(m.rows, func(r modelRow) bool { return r.vals[5].Int == 1 }, 0, 6)
	}},
	{"SELECT * FROM T [ROWS 50]", func(m *ringModel) [][]Value {
		return projectRef(m.rows[len(m.rows)-50:], all, -1, 0, 1, 2, 3, 4, 5, 6, 7)
	}},
	{"SELECT g, n FROM T WHERE n < 500 ORDER BY n DESC, g LIMIT 20", func(m *ringModel) [][]Value {
		out := projectRef(m.rows, func(r modelRow) bool { return r.vals[6].Int < 500 }, 7, 6)
		sort.SliceStable(out, func(a, b int) bool {
			if na, nb := out[a][1].Int, out[b][1].Int; na != nb {
				return na > nb
			}
			return out[a][0].Int < out[b][0].Int
		})
		return out[:20]
	}},
}

// TestConcurrentSelectsShareThePool: goroutines, each over a table of its
// own, run grouped, projected, ORDER BY ... LIMIT and bare-aggregate
// selects at once, every one taking its working set from the one pool and
// giving it back, through Select and SelectFunc in turn; every result is
// the reference's. A SelectFunc's first call runs a nested Select of the
// next statement, which must take a set of its own, and each round ends
// with a SelectFunc whose call inserts into the table it reads, which
// would deadlock on a lock still held. The race detector watches that no
// set is used by two selects at a time.
func TestConcurrentSelectsShareThePool(t *testing.T) {
	type stmt struct {
		sel  *SelectStmt
		want [][]Value
	}
	counter := mustSelect(t, "SELECT n FROM Counter [NOW]")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		db, _, m := groupTable(t, int64(10+w), 600, 20+40*w)
		if _, err := db.CreateTable("Counter", NewSchema(Column{"n", TInt}), 4); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("Counter", Int64(0)); err != nil {
			t.Fatal(err)
		}
		var stmts []stmt
		for _, cql := range groupedSelects {
			sel := mustSelect(t, cql)
			stmts = append(stmts, stmt{sel, groupByRef(t, groupSchema, sel, m.rows)})
		}
		for _, p := range projectedSelects {
			stmts = append(stmts, stmt{mustSelect(t, p.cql), p.ref(m)})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(round int, what string, sel *SelectStmt, err error) {
				t.Errorf("goroutine %d, round %d, %s %v: %v", w, round, what, sel.Items, err)
			}
			for round := 0; round < 15; round++ {
				for i, st := range stmts {
					if (round+i)%2 == 0 {
						res, err := db.Select(st.sel)
						if err == nil {
							err = sameResult(res.Rows, st.want)
						}
						if err != nil {
							fail(round, "Select", st.sel, err)
							return
						}
						continue
					}
					inner := stmts[(i+1)%len(stmts)]
					var got [][]Value
					var innerErr error
					err := db.SelectFunc(st.sel, func(row []Value) {
						if got == nil {
							res, err := db.Select(inner.sel)
							if err == nil {
								err = sameResult(res.Rows, inner.want)
							}
							innerErr = err
						}
						got = append(got, slices.Clone(row))
					})
					if err == nil {
						err = sameResult(got, st.want)
					}
					if err != nil {
						fail(round, "SelectFunc", st.sel, err)
						return
					}
					if innerErr != nil {
						fail(round, "Select nested in SelectFunc", inner.sel, innerErr)
						return
					}
				}
				var seen []int64
				err := db.SelectFunc(counter, func(row []Value) {
					seen = append(seen, row[0].Int)
					_ = db.Insert("Counter", Int64(row[0].Int+1))
				})
				if err == nil && (len(seen) != 1 || seen[0] != int64(round)) {
					err = fmt.Errorf("visited %v, want [%d]", seen, round)
				}
				if err != nil {
					fail(round, "inserting SelectFunc", counter, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failOn is a WHERE that admits rows until the nth, and fails on it.
type failOn struct{ n, seen int }

func (f *failOn) Eval(*Schema, Row) (bool, error) {
	if f.seen++; f.seen == f.n {
		return false, errors.New("hwdb test: WHERE failed")
	}
	return true, nil
}

// TestSelectFailingMidScanLeavesNoTrace: a select whose WHERE fails once
// its working set holds groups, strings and half-built aggregates gives
// the set back clean, and the select after it — on this goroutine, most
// likely in that very set — is the reference's.
func TestSelectFailingMidScanLeavesNoTrace(t *testing.T) {
	db, _, m := groupTable(t, 2, 600, 90)
	check := func(sel *SelectStmt, want [][]Value) {
		t.Helper()
		bad := *sel
		bad.Where = &failOn{n: 400}
		if res, err := db.Select(&bad); err == nil {
			t.Fatalf("%v: a WHERE failing on row 400 gave %d rows and no error", sel.Items, len(res.Rows))
		}
		res, err := db.Select(sel)
		if err == nil {
			err = sameResult(res.Rows, want)
		}
		if err != nil {
			t.Errorf("%v after a failed select: %v", sel.Items, err)
		}
	}
	for _, cql := range groupedSelects {
		sel := mustSelect(t, cql)
		check(sel, groupByRef(t, groupSchema, sel, m.rows))
	}
	sel := mustSelect(t, "SELECT s, u, n FROM T")
	check(sel, projectRef(m.rows, all, 0, 1, 6))
}

// TestPooledSetsHoldNoStrings: a working set goes back to the pool with
// every cell zero — a string left in one would keep the ring's strings
// alive, a lease's hostname among them — its row headers nil, its index
// empty and its hash un-narrowed. The set a select gave back is the one
// the next get on its processor takes; the race detector's pool sometimes
// drops it instead, so the test asks only that some were inspected.
func TestPooledSetsHoldNoStrings(t *testing.T) {
	db, _, _ := groupTable(t, 4, 300, 30)
	stmts := []string{
		"SELECT s, u FROM T",
		"SELECT s, min(u), max(u), count(*) FROM T GROUP BY s",
		"SELECT u, s FROM T ORDER BY u LIMIT 9",
		"SELECT min(s), max(u) FROM T",
	}
	inspected := 0
	for round := 0; round < 10; round++ {
		for _, cql := range stmts {
			s := getSelectSet()
			s.agg.idx.hashMask = 7 // as TestGroupByEqualityIsByKeyBytes leaves it
			s.put()
			if _, err := db.Query(cql); err != nil {
				t.Fatal(err)
			}
			s = getSelectSet()
			if cap(s.acc.chunks) > 0 {
				inspected++
				for k, c := range s.acc.chunks[:cap(s.acc.chunks)] {
					for i, v := range c[:cap(c)] {
						if v != (Value{}) {
							t.Fatalf("after %s: pooled chunk %d cell %d holds %#v", cql, k, i, v)
						}
					}
				}
				for i, h := range s.heads[:cap(s.heads)] {
					if h != nil {
						t.Fatalf("after %s: pooled row header %d still points at %d cells", cql, i, len(h))
					}
				}
				x := &s.agg.idx
				if s.acc.n != 0 || len(s.acc.chunks) != 0 || len(x.ends) != 0 || len(x.keys) != 0 || x.hashMask != ^uint64(0) || s.agg.sel != nil {
					t.Fatalf("after %s: pooled set not emptied: %d rows, %d chunks, %d groups, %d key bytes, mask %#x, statement %v",
						cql, s.acc.n, len(s.acc.chunks), len(x.ends), len(x.keys), x.hashMask, s.agg.sel)
				}
				for _, slot := range x.slots {
					if slot != 0 {
						t.Fatalf("after %s: pooled index has an occupied slot", cql)
					}
				}
			}
			s.put()
		}
	}
	if inspected == 0 {
		t.Fatal("no select's working set came back from the pool")
	}
}
