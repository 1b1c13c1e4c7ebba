package telemetry

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
)

func relayDelta(home uint64, n int, lost uint64) Delta {
	rows := make([]hwdb.Row, n)
	for i := range rows {
		rows[i] = hwdb.NewRow(time.Date(2011, 8, 15, 9, 0, i, 0, time.UTC), hwdb.Int64(int64(i)))
	}
	return Delta{Source: SourceID{Home: home, Table: "T"}, Rows: rows, Lost: lost}
}

// TestRelayBooks: on a hub fed from outside (the coordinator's relay of
// a remote worker's hub), Ingest counts rows and in-band loss and
// AccountLost adds wire loss — the same ledger a hub keeps for the tables
// it watches, maintained for deltas that crossed a socket. The hub
// watches nothing, so it reports no sources however many streams it
// ingests.
func TestRelayBooks(t *testing.T) {
	r := NewHub(HubConfig{})
	if st := r.Stats(); st != (HubStats{}) {
		t.Fatalf("fresh relay stats = %+v", st)
	}
	r.Ingest(relayDelta(1, 4, 0))
	r.Ingest(relayDelta(1, 2, 1))
	r.Ingest(relayDelta(2, 3, 0))
	if st := r.Stats(); st.Sources != 0 || st.Delivered != 9 || st.Lost != 1 {
		t.Fatalf("stats = %+v, want 0 sources, 9 delivered, 1 lost", st)
	}
	r.AccountLost(0) // no-op
	r.AccountLost(5)
	if st := r.Stats(); st.Delivered != 9 || st.Lost != 6 {
		t.Fatalf("stats after AccountLost = %+v, want 9 delivered, 6 lost", st)
	}
}

// TestRelayFanout: synchronous handlers and channel subscriptions both
// see every ingested delta, and closing a subscription detaches it.
func TestRelayFanout(t *testing.T) {
	r := NewHub(HubConfig{})
	var fnRows int
	r.SubscribeFunc(func(d Delta) { fnRows += len(d.Rows) })

	sub := r.Subscribe(8)

	r.Ingest(relayDelta(1, 3, 0))
	r.Ingest(relayDelta(2, 2, 0))
	if fnRows != 5 {
		t.Errorf("handler saw %d rows, want 5", fnRows)
	}
	var subRows int
	for len(sub.C()) > 0 {
		subRows += len((<-sub.C()).Rows)
	}
	if subRows != 5 {
		t.Errorf("subscription saw %d rows, want 5", subRows)
	}

	sub.Close()
	r.Ingest(relayDelta(1, 1, 0))
	if len(sub.C()) != 0 {
		t.Error("closed subscription still receiving")
	}
	if fnRows != 6 {
		t.Errorf("handler saw %d rows after sub close, want 6", fnRows)
	}
}

// TestFederationMixesHubAndRelay: a federation spanning one hub watching
// in-process tables and one fed by Ingest (standing in for a remote
// worker) folds both delta streams into the global folder, sums both
// books, and a federated subscription receives from both members —
// remote shards are indistinguishable from local ones above the hub.
func TestFederationMixesHubAndRelay(t *testing.T) {
	clk := clock.NewSimulated()
	tbl := hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), 64)
	hub := NewHub(HubConfig{})
	defer hub.Close()
	relay := NewHub(HubConfig{})

	fed := NewFederation(FolderConfig{Clock: clk})
	fed.Attach(hub)
	fed.Attach(relay)
	if fed.Members() != 2 {
		t.Fatalf("members = %d, want 2", fed.Members())
	}
	sub := fed.Subscribe(8)
	defer sub.Close()

	fed.AddHome(1, nil)
	fed.AddHome(2, nil)
	hub.Watch(SourceID{Home: 1, Table: "T"}, tbl)

	insertN(t, tbl, clk, 0, 5)
	hub.Flush()
	relay.Ingest(relayDelta(2, 3, 0))

	if got := fed.Folder().Totals().Rows; got != 8 {
		t.Fatalf("global folder consumed %d of 8 rows", got)
	}
	st := fed.Stats()
	if st.Delivered != 8 || st.Lost != 0 {
		t.Fatalf("federated stats = %+v, want 8 delivered", st)
	}

	var rows int
	seen := map[uint64]bool{}
	for len(sub.C()) > 0 {
		d := <-sub.C()
		rows += len(d.Rows)
		seen[d.Source.Home] = true
	}
	if rows != 8 || !seen[1] || !seen[2] {
		t.Fatalf("subscription saw %d rows from homes %v, want 8 from both", rows, seen)
	}

	// Wire loss accounted on the relay hub stays visible federation-wide:
	// the invariant delivered+lost == fanned-out survives the mix.
	relay.AccountLost(4)
	if st := fed.Stats(); st.Delivered != 8 || st.Lost != 4 {
		t.Fatalf("federated stats after wire loss = %+v, want 8/4", st)
	}
}

// TestFederationSubscribeFuncSpansRelay: a handler registered on the
// federation fires for ingested deltas from members attached before and
// after the registration.
func TestFederationSubscribeFuncSpansRelay(t *testing.T) {
	fed := NewFederation(FolderConfig{})
	early := NewHub(HubConfig{})
	fed.Attach(early)

	var rows int
	fed.SubscribeFunc(func(d Delta) { rows += len(d.Rows) })

	late := NewHub(HubConfig{})
	fed.Attach(late)

	early.Ingest(relayDelta(1, 2, 0))
	late.Ingest(relayDelta(2, 3, 0))
	if rows != 5 {
		t.Fatalf("handler saw %d rows, want 5 (2 early + 3 late)", rows)
	}
}
