package telemetry

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/hwdb"
)

// fullHome returns a home whose Flows, FlowPerf and Links rings are full,
// watched by a fresh hub under home 1: the state a home that has run for
// days is in when a hub first reads it.
func fullHome(t testing.TB) (*Hub, *hwdb.DB) {
	t.Helper()
	db := hwdb.NewHomework(clock.NewSimulated(), hwdb.DefaultRingSize)
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{hwdb.TableFlows, hwdb.TableFlowPerf, hwdb.TableLinks} {
		insertRandom(t, rng, db, name, hwdb.DefaultRingSize)
	}
	return watchHome(db), db
}

// watchHome returns a fresh hub watching db's tables under home 1.
func watchHome(db *hwdb.DB) *Hub {
	hub := NewHub(HubConfig{})
	for _, name := range watchedTables {
		tbl, _ := db.Table(name)
		hub.Watch(SourceID{Home: 1, Table: name}, tbl)
	}
	return hub
}

// builderArrays returns the sizes, in bytes, of the arrays the hub's row
// builder holds, read by reflection: they are the builder's own.
func builderArrays(hub *Hub) []int {
	var sizes []int
	b := reflect.ValueOf(&hub.rows).Elem()
	for i := range b.NumField() {
		if f := b.Field(i); f.Kind() == reflect.Struct {
			if buf := f.FieldByName("buf"); buf.IsValid() {
				sizes = append(sizes, buf.Cap()*int(buf.Type().Elem().Size()))
			}
		}
	}
	if len(sizes) == 0 {
		panic("hwdb.RowBuilder holds no arena with a buf")
	}
	return sizes
}

// TestCatchUpDrainsInBoundedPasses: a home whose 65 536-row Flows, FlowPerf
// and Links rings are full drains in one Flush, in passes: every source's
// rows arrive in order, in (home, table) order, cut into several deltas,
// and are the rows an unbounded Table.Tail read gives. During the drain no
// builder array is larger than a pass may fill; afterwards none is kept.
func TestCatchUpDrainsInBoundedPasses(t *testing.T) {
	hub, db := fullHome(t)
	var want []hwdb.Row
	for _, name := range watchedTables {
		tbl, _ := db.Table(name)
		rows, _, _ := tbl.Tail(0)
		want = append(want, rows...)
	}
	var got []hwdb.Row
	var kept hwdb.RowBuilder // the rows are lent for the call: compare copies
	var order []string
	largest, deltas := 0, 0
	hub.SubscribeFunc(func(d Delta) {
		deltas++
		for _, size := range builderArrays(hub) {
			largest = max(largest, size)
		}
		if d.Lost != 0 {
			t.Errorf("%s: %d rows lost, and nothing wrapped", d.Source.Table, d.Lost)
		}
		if n := len(order); n == 0 || order[n-1] != d.Source.Table {
			order = append(order, d.Source.Table)
		}
		got = append(got, kept.Copy(d.Rows)...)
	})
	hub.Flush()
	if diff := sameRows(got, want); diff != "" {
		t.Fatalf("the drained rows differ from an unbounded read: %s", diff)
	}
	if wantOrder := []string{hwdb.TableFlowPerf, hwdb.TableFlows, hwdb.TableLinks}; !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("sources drained in order %v, want %v", order, wantOrder)
	}
	if deltas <= len(order) {
		t.Errorf("%d deltas for %d sources: a catch-up is not cut into passes", deltas, len(order))
	}
	if largest > passBytes {
		t.Errorf("a builder array reached %d bytes during the drain, over a pass's %d", largest, passBytes)
	}
	if sizes := builderArrays(hub); sum(sizes) != 0 {
		t.Errorf("the builder keeps arrays of %v bytes after a catch-up", sizes)
	}
	st := hub.Stats()
	if st.Delivered != 3*hwdb.DefaultRingSize || st.Lost != 0 {
		t.Errorf("one flush delivered %d rows and lost %d, want %d and 0", st.Delivered, st.Lost, 3*hwdb.DefaultRingSize)
	}
}

// sum sums sizes.
func sum(sizes []int) (n int) {
	for _, s := range sizes {
		n += s
	}
	return n
}

// TestCatchUpBooksRowsWrappedBetweenPasses: rows inserted while a catch-up
// is between passes wrap the Links ring past rows no pass has read yet.
// Those rows are booked lost, the rows inserted wait for the next flush,
// and delivered + lost equals every row inserted.
func TestCatchUpBooksRowsWrappedBetweenPasses(t *testing.T) {
	hub, db := fullHome(t)
	const wrap = 20000 // more than one pass reads of Links
	rng := rand.New(rand.NewSource(2))
	var linksRead, linksLost, firstRead uint64
	hub.SubscribeFunc(func(d Delta) {
		if d.Source.Table != hwdb.TableLinks {
			return
		}
		if linksRead == 0 {
			// Links is part read: wrap its ring past the rest of a pass's worth.
			firstRead = uint64(len(d.Rows))
			insertRandom(t, rng, db, hwdb.TableLinks, wrap)
		}
		linksRead += uint64(len(d.Rows))
		linksLost += d.Lost
	})
	hub.Flush()
	if want := wrap - firstRead; linksLost != want {
		t.Fatalf("the catch-up read %d Links rows, then %d wrapped the ring: it booked %d lost, want %d", firstRead, wrap, linksLost, want)
	}
	hub.Flush()
	var inserted uint64
	for _, name := range watchedTables {
		tbl, _ := db.Table(name)
		n, _ := tbl.Stats()
		inserted += n
	}
	st := hub.Stats()
	if st.Delivered+st.Lost != inserted {
		t.Fatalf("delivered %d + lost %d = %d, want every row inserted, %d", st.Delivered, st.Lost, st.Delivered+st.Lost, inserted)
	}
	if linksRead+linksLost != hwdb.DefaultRingSize+wrap {
		t.Errorf("Links: read %d + lost %d, want %d", linksRead, linksLost, hwdb.DefaultRingSize+wrap)
	}
}

// BenchmarkHubCatchUp times a hub's first Flush of a home whose Flows,
// FlowPerf and Links rings are full — 196 608 rows — to a consumer that
// reads nothing: the drain alone, as a fleet's first sync runs it on a
// home with pre-filled rings.
func BenchmarkHubCatchUp(b *testing.B) {
	_, db := fullHome(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		hub := watchHome(db)
		hub.SubscribeFunc(func(Delta) {})
		hub.Flush()
		hub.Close()
	}
}
