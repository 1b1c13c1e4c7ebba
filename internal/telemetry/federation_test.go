package telemetry

import (
	"testing"

	"repro/internal/hwdb"
)

// TestFederationFoldsMemberHubs: one federation over two shard hubs
// folds both delta streams into a single global folder, sums the
// members' delivered/lost books, and a federated consumer receives from
// every member — the exact-accounting invariant composes across shards.
func TestFederationFoldsMemberHubs(t *testing.T) {
	tblA, clk := testTable(t, 64)
	tblB := hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), 64)
	hubA := NewHub(HubConfig{})
	defer hubA.Close()
	hubB := NewHub(HubConfig{})
	defer hubB.Close()

	fed := NewFederation(FolderConfig{Clock: clk}, hubA, hubB)
	got := collect(fed)

	// Fleet-unique home IDs across shards: home 1 on shard A, home 2 on B.
	fed.Folder().AddHome(1, nil)
	fed.Folder().AddHome(2, nil)
	hubA.Watch(SourceID{Home: 1, Table: "T"}, tblA)
	hubB.Watch(SourceID{Home: 2, Table: "T"}, tblB)

	insertN(t, tblA, clk, 0, 5)
	for i := 0; i < 3; i++ {
		if err := tblB.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	hubA.Flush()
	hubB.Flush()

	if got := fed.Folder().Totals().Rows; got != 8 {
		t.Fatalf("global folder consumed %d of 8 rows", got)
	}
	st := fed.Stats()
	if st.Sources != 2 || st.Delivered != 8 || st.Lost != 0 {
		t.Fatalf("federated stats = %+v", st)
	}

	// The one consumer saw both shards' deltas.
	var rows uint64
	seen := map[uint64]bool{}
	for _, d := range *got {
		rows += uint64(len(d.Rows))
		seen[d.Source.Home] = true
	}
	if rows != 8 || !seen[1] || !seen[2] {
		t.Fatalf("consumer saw %d rows from homes %v", rows, seen)
	}

	// Retiring a member's source moves its books into the retired
	// accounting, still summed by the federation.
	hubA.Unwatch(SourceID{Home: 1, Table: "T"})
	fed.Folder().RemoveHome(1)
	st = fed.Stats()
	if st.Sources != 1 || st.Delivered != 8 {
		t.Fatalf("post-retire stats = %+v", st)
	}
	if tot := fed.Folder().Totals(); tot.Homes != 1 || tot.Rows != 8 {
		t.Fatalf("post-retire totals = %+v", tot)
	}
}

// TestFolderAddHomeUpgradesImplicitAcc: a delta arriving before AddHome
// creates an implicit accumulator (accounting stays exact under churn);
// a later AddHome must attach the hosts callback to it rather than
// silently dropping it.
func TestFolderAddHomeUpgradesImplicitAcc(t *testing.T) {
	tbl, clk := testTable(t, 64)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	f := NewFolder(hub, FolderConfig{Clock: clk})
	hub.Watch(SourceID{Home: 9, Table: "T"}, tbl)
	insertN(t, tbl, clk, 0, 2)
	hub.Flush() // consume creates home 9 implicitly
	if tot := f.Totals(); tot.Homes != 1 || tot.Hosts != 0 {
		t.Fatalf("pre-AddHome totals = %+v", tot)
	}
	f.AddHome(9, func() int { return 4 })
	if tot := f.Totals(); tot.Hosts != 4 || tot.Rows != 2 {
		t.Fatalf("post-AddHome totals = %+v", tot)
	}
}

// TestRetiredWrappedSourceIsAccounted: a source whose ring wrapped since
// the last flush and is then unwatched keeps every row it ever took on the
// books — the final drain's delivered rows and its wrapped-out ones, in
// the hub's, the federation's and the folder's accounting alike.
func TestRetiredWrappedSourceIsAccounted(t *testing.T) {
	tbl, clk := testTable(t, 4)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	fed := NewFederation(FolderConfig{Clock: clk}, hub)
	id := SourceID{Home: 1, Table: "T"}
	hub.Watch(id, tbl)

	insertN(t, tbl, clk, 0, 3)
	hub.Flush() // the cursor is past the first 3 rows
	insertN(t, tbl, clk, 3, 10)
	hub.Unwatch(id) // 10 rows since the flush, 4 still in the ring

	ins, _ := tbl.Stats()
	for name, st := range map[string]HubStats{"hub": hub.Stats(), "federation": fed.Stats()} {
		if st.Delivered != 7 || st.Lost != 6 || st.Delivered+st.Lost != ins {
			t.Errorf("%s books delivered %d + lost %d, want 7 + 6 = the %d inserts", name, st.Delivered, st.Lost, ins)
		}
	}
	if tot := fed.Folder().Totals(); tot.Rows+tot.Lost != ins {
		t.Errorf("folder took %d rows + %d lost, want the %d inserts", tot.Rows, tot.Lost, ins)
	}
}
