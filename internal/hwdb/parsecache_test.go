package hwdb

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// fixtureDB is a small home on a simulated clock: a few rows in each of
// its tables, all inside a 2-second window, and a FleetStats table shaped
// like the fleet view's.
func fixtureDB(tb testing.TB) *DB {
	tb.Helper()
	clk := clock.NewSimulated()
	db := NewHomework(clk, 16)
	if _, err := db.CreateTable("FleetStats", NewSchema(
		Column{"home", TInt}, Column{"bytes", TInt}, Column{"flows", TInt}), 16); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mac := packet.MAC{2, 0, 0, 0, 0, byte(1 + i%3)}
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(10 + i%3)}, Dst: packet.IP4{93, 184, 216, 34},
			Proto: packet.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: []uint16{53, 80, 443}[i%3]}
		for _, err := range []error{
			db.InsertFlow(mac, ft, uint64(1+i), uint64(1500*(i+1))),
			db.InsertFlowPerf(mac, ft, 1, 100, 1, 100, 0, 800, int64(10*i)),
			db.InsertLink(mac, -40-i, i%2, 54),
			db.InsertLease("add", mac, ft.Src, []string{"laptop", "it's-a-phone", ""}[i%3]),
			db.Insert("FleetStats", Int64(int64(i%2)), Int64(int64(1000*i)), Int64(1)),
		} {
			if err != nil {
				tb.Fatal(err)
			}
		}
		clk.Advance(250 * time.Millisecond)
	}
	return db
}

// answer renders what a query gave, a result or an error, for comparison.
func answer(res *Result, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	return res.Text()
}

// resetParseCache empties the parse cache, so the next query of any text
// is a cold one.
func resetParseCache() {
	parsed.Lock()
	clear(parsed.selects)
	parsed.Unlock()
}

// cachedTexts is how many texts the parse cache holds, and whether it
// holds cql.
func cachedTexts(cql string) (int, bool) {
	parsed.Lock()
	defer parsed.Unlock()
	_, ok := parsed.selects[cql]
	return len(parsed.selects), ok
}

// selectAnswer is what the statement-holding path gives for cql: parse it,
// then select it.
func selectAnswer(db *DB, cql string) string {
	sel, err := ParseSelect(cql)
	if err != nil {
		return answer(nil, err)
	}
	return answer(db.Select(sel))
}

// A text's answer is the same whether it is parsed for the call, taken
// from the parse cache, or parsed by the caller and selected: for every
// statement of the fuzz corpus, which holds the displays' and the
// benchmark's, and for what does not parse. Only a SELECT that parsed is
// cached.
func TestQueryAnswersAsSelectDoes(t *testing.T) {
	db := fixtureDB(t)
	for _, cql := range cqlSeeds {
		resetParseCache()
		want := selectAnswer(db, cql)
		cold := answer(db.Query(cql))
		warm := answer(db.Query(cql))
		if cold != want || warm != want {
			t.Errorf("%q:\ncold Query: %s\nwarm Query: %s\nSelect: %s", cql, cold, warm, want)
		}
		_, err := ParseSelect(cql)
		if _, ok := cachedTexts(cql); ok != (err == nil) {
			t.Errorf("%q: cached %v, parse error %v", cql, ok, err)
		}
		// Exec answers a cached SELECT as a fresh parse would.
		if st, err := Parse(cql); err == nil {
			if _, isSelect := st.(*SelectStmt); isSelect {
				if got := answer(db.Exec(cql)); got != want {
					t.Errorf("%q: Exec answered %s, want %s", cql, got, want)
				}
			}
		}
	}
	// Exec parses every other statement as it comes, and caches none.
	resetParseCache()
	for _, cql := range []string{
		"INSERT INTO Links VALUES (02:00:00:00:00:01, -40, 0, 54)",
		"CREATE TABLE Notes (who varchar, n integer)",
		"SUBSCRIBE SELECT count(*) FROM Flows EVERY 1 SECONDS",
	} {
		_, _ = db.Exec(cql)
		if n, _ := cachedTexts(cql); n != 0 {
			t.Errorf("%q: Exec cached %d texts", cql, n)
		}
	}
}

// The cache holds at most maxCachedSelects texts and is emptied when
// another would join a full one; a text longer than maxCachedText is
// parsed every time. Either way, every answer is the Select answer.
func TestParseCacheIsBounded(t *testing.T) {
	db := fixtureDB(t)
	resetParseCache()
	cleared := false
	for i := 0; i < 3*maxCachedSelects; i++ {
		cql := fmt.Sprintf("SELECT count(*) FROM Flows [ROWS %d]", i+1)
		if got, want := answer(db.Query(cql)), selectAnswer(db, cql); got != want {
			t.Fatalf("%q: Query answered %s, want %s", cql, got, want)
		}
		n, ok := cachedTexts(cql)
		if !ok || n > maxCachedSelects {
			t.Fatalf("%q: cached %v, %d texts held", cql, ok, n)
		}
		if n == 1 && i > 0 {
			cleared = true
		}
	}
	if !cleared {
		t.Errorf("%d distinct texts never emptied a %d-text cache", 3*maxCachedSelects, maxCachedSelects)
	}

	long := "SELECT mac FROM Flows WHERE dport = 1" + strings.Repeat(" OR dport = 443", maxCachedText/15)
	if len(long) <= maxCachedText {
		t.Fatalf("the long text is only %d bytes", len(long))
	}
	for i := 0; i < 2; i++ {
		if got, want := answer(db.Query(long)), selectAnswer(db, long); got != want {
			t.Fatalf("long text: Query answered %s, want %s", got, want)
		}
	}
	if _, ok := cachedTexts(long); ok {
		t.Errorf("a %d-byte text was cached", len(long))
	}
}

// Eight goroutines query at once, over texts they all send and texts only
// each sends — more distinct texts than the cache holds, so it is emptied
// while others read it — and every answer is the Select answer. Run it
// under -race.
func TestParseCacheConcurrentQueries(t *testing.T) {
	db := fixtureDB(t)
	resetParseCache()
	const goroutines = 8
	var shared []string
	for _, cql := range cqlSeeds {
		if _, err := ParseSelect(cql); err == nil {
			shared = append(shared, cql)
		}
	}
	want := map[string]string{}
	texts := make([][]string, goroutines)
	for g := range texts {
		texts[g] = append(texts[g], shared...)
		for i := 0; i < maxCachedSelects/4; i++ {
			texts[g] = append(texts[g], fmt.Sprintf("SELECT sum(bytes) FROM Flows [ROWS %d] WHERE dport <> %d", i+1, g))
		}
		for _, cql := range texts[g] {
			want[cql] = selectAnswer(db, cql)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(texts []string) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for _, cql := range texts {
					if got := answer(db.Query(cql)); got != want[cql] {
						t.Errorf("%q: Query answered %s, want %s", cql, got, want[cql])
						return
					}
				}
			}
		}(texts[g])
	}
	wg.Wait()
}

// A warm Query or Exec of a SELECT allocates exactly what Select of the
// same statement does: the lookup itself allocates nothing.
func TestWarmQueryAllocatesWhatSelectDoes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	db := fixtureDB(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	for _, cql := range []string{
		figure1Query,
		"SELECT home, sum(bytes) FROM FleetStats GROUP BY home",
		"SELECT mac, hostname, action FROM Leases",
		"SELECT rssi FROM Links [ROWS 200] WHERE mac = 02:00:00:00:00:01",
	} {
		sel, err := ParseSelect(cql)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = db.Query(cql)
		selects := testing.AllocsPerRun(100, func() { _, _ = db.Select(sel) })
		queries := testing.AllocsPerRun(100, func() { _, _ = db.Query(cql) })
		execs := testing.AllocsPerRun(100, func() { _, _ = db.Exec(cql) })
		if queries != selects || execs != selects {
			t.Errorf("%q: a warm Query allocates %.0f times and Exec %.0f, Select %.0f", cql, queries, execs, selects)
		}
	}
}
