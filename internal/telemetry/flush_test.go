package telemetry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// watchedTables are the tables a fleet home's hub watches, in the order a
// drain pass reads them.
var watchedTables = []string{hwdb.TableFlowPerf, hwdb.TableFlows, hwdb.TableLeases, hwdb.TableLinks}

// insertRandom puts n rows of random content into one of a home's tables.
func insertRandom(t *testing.T, rng *rand.Rand, db *hwdb.DB, table string, n int) {
	t.Helper()
	for range n {
		mac := packet.MAC{2, 0, 0, 0, 0, byte(rng.Intn(8))}
		ft := packet.FiveTuple{Src: packet.IP4{10, 0, 0, byte(rng.Intn(256))}, Dst: packet.IP4{93, 184, 216, 34},
			Proto: packet.ProtoTCP, SrcPort: uint16(rng.Intn(65536)), DstPort: 443}
		var err error
		switch table {
		case hwdb.TableFlows:
			err = db.InsertFlow(mac, ft, uint64(rng.Intn(100)), uint64(rng.Intn(1e6)))
		case hwdb.TableFlowPerf:
			err = db.InsertFlowPerf(mac, ft, 10, 15000, 9, 13500, 1, rng.Float64()*1e7, int64(rng.Intn(500)))
		case hwdb.TableLinks:
			err = db.InsertLink(mac, -rng.Intn(90), rng.Intn(5), rng.NormFloat64()*54)
		case hwdb.TableLeases:
			host := fmt.Sprintf("host-%03d", rng.Intn(1000))
			err = db.InsertLease([]string{"add", "upd", "del"}[rng.Intn(3)], mac, ft.Src, host[:rng.Intn(len(host)+1)])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameRows reports the first way two row sequences differ, cell for cell
// and string for string, or "" when they do not.
func sameRows(got, want []hwdb.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Time().Equal(want[i].Time()) || got[i].NumCols() != want[i].NumCols() {
			return fmt.Sprintf("row %d: time %v/%d columns, want %v/%d", i, got[i].Time(), got[i].NumCols(), want[i].Time(), want[i].NumCols())
		}
		for c := 0; c < got[i].NumCols(); c++ {
			g, w := got[i].Value(c), want[i].Value(c)
			if g != w {
				return fmt.Sprintf("row %d column %d: %+v, want %+v", i, c, g, w)
			}
		}
	}
	return ""
}

// TestFlushMatchesPerSourceTail: over seeded insert sequences, a flush,
// which copies every dirty source into one row builder, hands out exactly
// the deltas a per-source Table.Tail read gives — the same sources in the
// same order, the same Lost, the same rows cell for cell. The sequences
// wrap small rings past their cursors, leave sources idle and dirty them
// again, and cover Leases strings and Links reals; one home is watched
// with nothing in it, dirty on its first flush with no row to give.
func TestFlushMatchesPerSourceTail(t *testing.T) {
	const homes, ring = 5, 8
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewSimulated()
		hub := NewHub(HubConfig{})
		var got []Delta
		var kept hwdb.RowBuilder // the rows are lent for the call: compare copies
		hub.SubscribeFunc(func(d Delta) {
			d.Rows = kept.Copy(d.Rows)
			got = append(got, d)
		})
		dbs := make([]*hwdb.DB, homes)
		cursors := map[SourceID]uint64{}
		for h := range dbs {
			dbs[h] = hwdb.NewHomework(clk, ring)
			for _, name := range watchedTables {
				tbl, _ := dbs[h].Table(name)
				hub.Watch(SourceID{Home: uint64(h), Table: name}, tbl)
			}
		}
		var inserted uint64
		for step := 0; step < 40; step++ {
			clk.Advance(250 * time.Millisecond)
			for h := 1; h < homes; h++ { // home 0 stays empty
				for _, name := range watchedTables {
					if rng.Intn(3) == 0 {
						n := rng.Intn(3 * ring)
						insertRandom(t, rng, dbs[h], name, n)
						inserted += uint64(n)
					}
				}
			}
			// The reference: every source read on its own, in (Home, Table)
			// order, before the flush moves anything.
			var want []Delta
			for h := range dbs {
				for _, name := range watchedTables {
					id := SourceID{Home: uint64(h), Table: name}
					tbl, _ := dbs[h].Table(name)
					rows, ins, lost := tbl.Tail(cursors[id])
					cursors[id] = ins
					if len(rows) > 0 || lost > 0 {
						want = append(want, Delta{Source: id, Rows: rows, Lost: lost})
					}
				}
			}
			got = got[:0]
			kept.Reset()
			hub.Flush()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d deltas, want %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if got[i].Source != want[i].Source || got[i].Lost != want[i].Lost {
					t.Fatalf("seed %d step %d delta %d: %v lost %d, want %v lost %d",
						seed, step, i, got[i].Source, got[i].Lost, want[i].Source, want[i].Lost)
				}
				if diff := sameRows(got[i].Rows, want[i].Rows); diff != "" {
					t.Fatalf("seed %d step %d delta %d (%v): %s", seed, step, i, got[i].Source, diff)
				}
			}
		}
		if st := hub.Stats(); st.Delivered+st.Lost != inserted || st.Lost == 0 {
			t.Fatalf("seed %d: delivered %d + lost %d, want %d inserts with some lost", seed, st.Delivered, st.Lost, inserted)
		}
		hub.Close()
	}
}

// TestFlushAllocatesPerFlush: a flush copies every dirty source into the
// one row builder the hub keeps, and resets it once the deltas are fanned
// out, so a warm flush of one home's or of 16 homes' Flows and FlowPerf
// rows allocates nothing. Reading each source on its own cost three
// allocations a source, and a fresh builder per flush up to three a flush.
func TestFlushAllocatesPerFlush(t *testing.T) {
	if raceEnabled {
		t.Skip("a builder's arrays allocate twice under the race detector")
	}
	flush := func(homes int) float64 {
		clk := clock.NewSimulated()
		hub := NewHub(HubConfig{})
		defer hub.Close()
		var rows int
		hub.SubscribeFunc(func(d Delta) { rows += len(d.Rows) })
		dbs := make([]*hwdb.DB, homes)
		for h := range dbs {
			dbs[h] = hwdb.NewHomework(clk, 1024)
			for _, name := range []string{hwdb.TableFlows, hwdb.TableFlowPerf} {
				tbl, _ := dbs[h].Table(name)
				hub.Watch(SourceID{Home: uint64(h), Table: name}, tbl)
			}
		}
		mac := packet.MAC{2, 0, 0, 0, 0, 1}
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, 10}, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: 443}
		step := func() {
			for _, db := range dbs {
				for range 4 {
					if err := db.InsertFlow(mac, ft, 10, 15000); err != nil {
						t.Fatal(err)
					}
					if err := db.InsertFlowPerf(mac, ft, 10, 15000, 9, 13500, 1, 1.2e6, 180); err != nil {
						t.Fatal(err)
					}
				}
			}
			hub.Flush()
		}
		step() // the first flush sizes the pass's scratch
		rows = 0
		n := testing.AllocsPerRun(50, step)
		if want := (1 + 50) * homes * 8; rows != want { // AllocsPerRun warms up with one run
			t.Fatalf("%d homes: %d rows delivered, want %d", homes, rows, want)
		}
		return n
	}
	one, sixteen := flush(1), flush(16)
	if one != 0 || sixteen != 0 {
		t.Errorf("a flush of 1 home allocates %.1f times, of 16 homes %.1f: want 0 for either", one, sixteen)
	}
}

// TestPumpedRowsStayPut: with a second goroutine flushing the hub while a
// table takes inserts, a consumer copies each delta's rows inside the call
// — they are lent for it — and hands the copies to a channel, and a
// goroutine of its own reads them there while later passes reuse the
// hub's arrays. Every row arrives once, in order, and still reads what it
// did when it arrived after the last pass: under -race, no pass writes a
// cell a copy views, and a consumer that kept the lent rows instead would
// read cells later passes write.
func TestPumpedRowsStayPut(t *testing.T) {
	const n = 5000
	tbl := hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}, hwdb.Column{Name: "s", Type: hwdb.TString}), 1<<16)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	deltas := make(chan Delta, n)
	var copies hwdb.RowBuilder // never reset: the copies live as long as the test
	hub.SubscribeFunc(func(d Delta) {
		d.Rows = copies.Copy(d.Rows)
		deltas <- d
	})
	hub.Watch(SourceID{Home: 1, Table: "T"}, tbl)
	done := make(chan []hwdb.Row)
	go func() {
		var kept []hwdb.Row
		for len(kept) < n {
			d := <-deltas
			for _, r := range d.Rows {
				if r.Int(0) != int64(len(kept)) {
					t.Errorf("row %d arrived as %d", len(kept), r.Int(0))
				}
				kept = append(kept, r)
			}
		}
		done <- kept
	}()
	stop, flushed := make(chan struct{}), make(chan int)
	go func() {
		passes := 0
		for {
			select {
			case <-stop:
				flushed <- passes
				return
			default:
			}
			hub.Flush()
			passes++
		}
	}()
	clk := clock.NewSimulated()
	for i := range n {
		if err := tbl.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(int64(i)), hwdb.Str(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	t.Logf("%d flushes raced the inserts", <-flushed)
	hub.Flush()
	var kept []hwdb.Row
	select {
	case kept = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the flushes did not deliver every row")
	}
	hub.Flush()
	for i, r := range kept {
		if r.Int(0) != int64(i) || r.Str(1) != fmt.Sprint(i) {
			t.Fatalf("row %d now reads %d %q", i, r.Int(0), r.Str(1))
		}
	}
}
