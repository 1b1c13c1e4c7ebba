package shardrpc

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// scriptConn is the connection a response is written to: it fails every
// write while fail is set, and keeps the last frame written otherwise.
type scriptConn struct {
	net.Conn
	fail  bool
	frame []byte
}

func (c *scriptConn) Write(b []byte) (int, error) {
	if c.fail {
		return 0, errors.New("connection reset")
	}
	c.frame = append(c.frame[:0], b...)
	return len(b), nil
}

func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestServerRecarriesWhatAFailedWriteHeld: the hub lends a delta's rows
// for the call, and its next flush writes over the arrays they view, so
// the server's pending buffer keeps copies of its own. A batch whose write
// fails stays pending, and the next batch-bearing response carries its
// rows with their original values — strings included — beside the rows
// of the flush that came after.
func TestServerRecarriesWhatAFailedWriteHeld(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.New(clk)
	tbl, err := db.CreateTable("T", hwdb.NewSchema(hwdb.Column{Name: "n", Type: hwdb.TInt}, hwdb.Column{Name: "s", Type: hwdb.TString}), 64)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	hub.Watch(telemetry.SourceID{Home: 1, Table: "T"}, tbl)
	srv := NewServer(Config{Backend: newFakeBackend(), Hub: hub})
	flush := func(from int) {
		for n := from; n < from+5; n++ {
			if err := tbl.Insert(clk.Now(), []hwdb.Value{hwdb.Int64(int64(n)), hwdb.Str(fmt.Sprint("row-", n))}); err != nil {
				t.Fatal(err)
			}
		}
		hub.Flush()
	}
	conn := &scriptConn{fail: true}
	flush(0)
	if _, err := srv.writeWithBatch(conn, &Response{Seq: 1, Verb: VerbSync}, nil); err == nil {
		t.Fatal("the first write did not fail")
	}
	flush(10)
	conn.fail = false
	if _, err := srv.writeWithBatch(conn, &Response{Seq: 2, Verb: VerbSync}, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(conn.frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range resp.Batch.Deltas {
		for _, r := range d.Rows {
			got = append(got, fmt.Sprint(r.Int(0), " ", r.Str(1)))
		}
	}
	want := "[0 row-0 1 row-1 2 row-2 3 row-3 4 row-4 10 row-10 11 row-11 12 row-12 13 row-13 14 row-14]"
	if fmt.Sprint(got) != want || resp.Batch.Seq != 1 || resp.Batch.SentRows != 10 {
		t.Fatalf("batch %d (%d rows sent) carries %v, want seq 1 with %s", resp.Batch.Seq, resp.Batch.SentRows, got, want)
	}
}

// TestSyncRoundTripAllocations pins what one warm SYNC carrying rows costs,
// the client's call and the server's handling of it together: each
// flush's eight Flows rows are copied into the server's pending builder
// and decoded into the client's kept one, and neither allocates once
// warm. The request the server decodes, the response the client decodes
// and the batch each side builds are kept too (a request per connection,
// the server's batch under its batch lock, the client's response and
// batch beside its builder), so nothing is left: 0. With those four fresh
// per call it took 4, and decoding each batch into a fresh builder and
// deltas slice as well, 11.
func TestSyncRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a builder's arrays allocate twice under the race detector")
	}
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 64)
	flows, _ := db.Table(hwdb.TableFlows)
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	hub.Watch(telemetry.SourceID{Home: 1, Table: hwdb.TableFlows}, flows)
	ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, 10}, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: 443}
	fb := newFakeBackend()
	fb.onSync = func() {
		for range 8 {
			if err := db.InsertFlow(packet.MAC{2, 0, 0, 0, 0, 1}, ft, 10, 15000); err != nil {
				t.Error(err)
			}
		}
		hub.Flush()
	}
	srv := startServer(t, Config{Backend: fb, Hub: hub})
	relay := telemetry.NewHub(telemetry.HubConfig{})
	var rows int
	relay.SubscribeFunc(func(d telemetry.Delta) { rows += len(d.Rows) })
	c := Dial(ClientConfig{Addr: srv.Addr(), Relay: relay})
	defer c.Close()
	for range 10 { // dial, RESYNC, wrap the ring and grow the buffers
		c.Sync()
	}
	const want = 0
	n := testing.AllocsPerRun(200, c.Sync)
	if rows != 8*(10+1+200) { // AllocsPerRun warms up with one run
		t.Fatalf("the relay saw %d rows, want %d", rows, 8*211)
	}
	if n > want {
		t.Errorf("a SYNC round trip carrying 8 rows allocates %.1f times, want at most %d", n, want)
	}
}
