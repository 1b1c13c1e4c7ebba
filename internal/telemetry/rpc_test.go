package telemetry

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/trace"
)

// serverRig is a one-home telemetry stack behind a live UDP endpoint,
// driven by the unmodified hwdb client (the endpoint speaks HWDB/1).
type serverRig struct {
	hub    *Hub
	folder *Folder
	db     *hwdb.DB
	srv    *Server
	cli    *hwdb.Client
}

func newServerRig(t *testing.T) *serverRig {
	t.Helper()
	clk := clock.Real{} // subscription ticks need a real clock here
	hub := NewHub(HubConfig{})
	t.Cleanup(hub.Close)
	folder := NewFolder(hub, FolderConfig{Clock: clk})
	db := hwdb.NewHomework(clk, 1024)
	folder.AddHome(7, func() int { return 2 })
	for _, name := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases} {
		tbl, _ := db.Table(name)
		hub.Watch(SourceID{Home: 7, Table: name}, tbl)
	}
	srv := NewServer(folder)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := hwdb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return &serverRig{hub: hub, folder: folder, db: db, srv: srv, cli: cli}
}

func (r *serverRig) traffic(t *testing.T, n int, bytes uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := r.db.InsertFlow(packet.MAC{2, 1}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 80}, 1, bytes)
		if err != nil {
			t.Fatal(err)
		}
	}
	r.hub.Flush()
}

// TestServerExecQueriesView: EXEC runs CQL against the live FleetStats
// view through the standard hwdb client.
func TestServerExecQueriesView(t *testing.T) {
	r := newServerRig(t)
	if err := r.cli.Ping(); err != nil {
		t.Fatal(err)
	}
	r.traffic(t, 3, 1000)
	r.folder.Commit()

	res, err := r.cli.Exec("SELECT home, sum(bytes) AS b FROM FleetStats GROUP BY home")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "7" || res.Rows[0][1].Str != "3000" {
		t.Fatalf("view over RPC = %v", res.Rows)
	}
	// Non-SELECT statements are rejected: the view is read-only remotely.
	if _, err := r.cli.Exec("INSERT INTO FleetStats VALUES (1,1,1,1,1,1,1,1.0,1.0)"); err == nil {
		t.Fatal("remote INSERT into the view was accepted")
	}
}

// TestServerStatsVerb exercises the STATS verb over a raw datagram (the
// generic client has no STATS helper).
func TestServerStatsVerb(t *testing.T) {
	r := newServerRig(t)
	r.traffic(t, 2, 500)

	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HWDB/1 1 STATS\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.HasPrefix(got, "HWDB/1 1 OK 1\n") {
		t.Fatalf("stats reply = %q", got)
	}
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	idx := func(col string) int {
		for i, c := range res.Cols {
			if c == col {
				return i
			}
		}
		t.Fatalf("no %s column in %v", col, res.Cols)
		return -1
	}
	row := res.Rows[0]
	if row[idx("homes")].Str != "1" || row[idx("hosts")].Str != "2" ||
		row[idx("flows")].Str != "2" || row[idx("bytes")].Str != "1000" {
		t.Fatalf("stats row = %v (cols %v)", row, res.Cols)
	}
}

// TestServerTraceVerb: TRACE renders the installed trace source's stage
// summaries as a tabular result (one row per transition, µs units); a
// server without a source answers with an empty table, not an error.
func TestServerTraceVerb(t *testing.T) {
	r := newServerRig(t)
	r.srv.SetTraceSource(func() []trace.StageStats {
		return []trace.StageStats{
			{Stage: "punt->dispatch", Count: 42, P50NS: 1500, P99NS: 9000, MaxNS: 12000, MeanNS: 2000},
			{Stage: "punt->barrier", Count: 42, P50NS: 8000, P99NS: 64000, MaxNS: 90000, MeanNS: 11000},
		}
	})

	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HWDB/1 1 TRACE\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.HasPrefix(got, "HWDB/1 1 OK 2\n") {
		t.Fatalf("trace reply = %q", got)
	}
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"stage", "count", "p50_us", "p99_us", "max_us", "mean_us"}
	if strings.Join(res.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("trace cols = %v", res.Cols)
	}
	if res.Rows[0][0].Str != "punt->dispatch" || res.Rows[0][1].Str != "42" {
		t.Fatalf("trace row 0 = %v", res.Rows[0])
	}
	if res.Rows[0][2].Str != "1.5" { // 1500ns = 1.5µs
		t.Fatalf("p50_us = %q", res.Rows[0][2].Str)
	}

	// No source installed: empty table, OK status.
	srv2 := NewServer(r.folder)
	if err := srv2.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	conn2, err := net.Dial("udp", srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("HWDB/1 9 TRACE\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err = conn2.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); !strings.HasPrefix(got, "HWDB/1 9 OK 0\n") {
		t.Fatalf("sourceless trace reply = %q", got)
	}
}

// TestServerSubscribeDeltaPushes: a FLEET subscription pushes per-home
// deltas only when counters move — idle ticks send no datagram at all.
func TestServerSubscribeDeltaPushes(t *testing.T) {
	r := newServerRig(t)
	id, err := r.cli.Subscribe("FLEET EVERY 0.02 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	if r.srv.Subscriptions() != 1 {
		t.Fatalf("subscriptions = %d", r.srv.Subscriptions())
	}

	// Idle fleet: several periods elapse, no push arrives.
	if p, err := r.cli.WaitPush(200 * time.Millisecond); err == nil {
		t.Fatalf("idle fleet pushed %+v", p)
	}

	r.traffic(t, 4, 250)
	push, err := r.cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.SubID != id || len(push.Result.Rows) != 1 {
		t.Fatalf("push = %+v", push)
	}
	row := push.Result.Rows[0]
	if row[0].Str != "7" || row[2].Str != "4" || row[4].Str != "1000" {
		t.Fatalf("delta row = %v (cols %v)", row, push.Result.Cols)
	}

	// Idle again: the subscriber has seen everything; no more datagrams.
	if p, err := r.cli.WaitPush(200 * time.Millisecond); err == nil {
		t.Fatalf("caught-up subscriber pushed %+v", p)
	}

	// New activity pushes only the delta past the last push.
	r.traffic(t, 1, 100)
	push, err = r.cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	row = push.Result.Rows[0]
	if row[2].Str != "1" || row[4].Str != "100" {
		t.Fatalf("second delta row = %v", row)
	}

	if err := r.cli.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if r.srv.Subscriptions() != 0 {
		t.Fatalf("subscriptions after unsubscribe = %d", r.srv.Subscriptions())
	}
}

// TestDeltaLineMatchesResultText pins the push row rendering to the
// hwdb tabular wire format, so ParseText on the client keeps working.
func TestDeltaLineMatchesResultText(t *testing.T) {
	ht := HomeTotals{
		Home: 5, Hosts: 3, Flows: 10, Links: 4, Packets: 100, Bytes: 9000,
		Lost: 2, Rate: Rate{BytesPerSec: 4500.5, PacketsPerSec: 50},
	}
	m := homeMark{flows: 4, links: 1, packets: 40, bytes: 2000, lost: 1}
	res := &hwdb.Result{Cols: pushCols, Rows: [][]hwdb.Value{{
		hwdb.Int64(5), hwdb.Int64(3), hwdb.Int64(6), hwdb.Int64(60),
		hwdb.Int64(7000), hwdb.Int64(3), hwdb.Int64(1),
		hwdb.Float(4500.5), hwdb.Float(50),
	}}}
	want := res.Text()
	got := strings.Join(pushCols, "\t") + "\n" + deltaLine(ht, m)
	if got != want {
		t.Fatalf("delta line diverges from Result.Text:\ngot  %q\nwant %q", got, want)
	}
}

// TestServerCloseWithoutServe: Close on a never-served server is a safe
// no-op (the idiomatic defer-before-error-check pattern must not panic).
func TestServerCloseWithoutServe(t *testing.T) {
	hub := NewHub(HubConfig{})
	defer hub.Close()
	srv := NewServer(NewFolder(hub, FolderConfig{Clock: clock.Real{}}))
	if err := srv.Close(); err != nil {
		t.Fatalf("close without serve: %v", err)
	}
}

// TestServerReplayVerb: REPLAY routes the parsed home/table/bounds to the
// installed replay source and errors when none is attached.
func TestServerReplayVerb(t *testing.T) {
	r := newServerRig(t)

	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 65536)
	ask := func(seq, body string) string {
		t.Helper()
		if _, err := conn.Write([]byte("HWDB/1 " + seq + " REPLAY\n" + body)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}

	// No source installed yet: ERR mentioning the flight recorder.
	if got := ask("1", "7 Flows"); !strings.HasPrefix(got, "HWDB/1 1 ERR no replay source") {
		t.Fatalf("sourceless replay reply = %q", got)
	}

	// The source runs on the server's datagram goroutine; the UDP reply
	// is not a synchronization edge, so the captures need a lock.
	var mu sync.Mutex
	var gotHome uint64
	var gotTable string
	var gotFrom, gotTo time.Time
	r.srv.SetReplaySource(func(home uint64, table string, from, to time.Time) (*hwdb.Result, error) {
		mu.Lock()
		gotHome, gotTable, gotFrom, gotTo = home, table, from, to
		mu.Unlock()
		return &hwdb.Result{
			Cols: []string{"timestamp", "n"},
			Rows: [][]hwdb.Value{{hwdb.TimeVal(time.Unix(0, 5)), hwdb.Int64(1)}},
		}, nil
	})

	got := ask("2", "7 Flows @100 @200")
	if !strings.HasPrefix(got, "HWDB/1 2 OK 1\n") {
		t.Fatalf("replay reply = %q", got)
	}
	mu.Lock()
	if gotHome != 7 || gotTable != "Flows" || gotFrom.UnixNano() != 100 || gotTo.UnixNano() != 200 {
		t.Fatalf("source called with home=%d table=%q from=%d to=%d",
			gotHome, gotTable, gotFrom.UnixNano(), gotTo.UnixNano())
	}
	mu.Unlock()
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Cols[0] != "timestamp" {
		t.Fatalf("replay result = %+v", res)
	}

	// Bounds are optional: two-field body passes zero times through.
	if got := ask("3", "7 Links"); !strings.HasPrefix(got, "HWDB/1 3 OK 1\n") {
		t.Fatalf("replay reply = %q", got)
	}
	mu.Lock()
	if gotTable != "Links" || !gotFrom.IsZero() || !gotTo.IsZero() {
		t.Fatalf("open-bounds call: table=%q from=%v to=%v", gotTable, gotFrom, gotTo)
	}
	mu.Unlock()

	for i, bad := range []string{"", "7", "x Flows", "7 Flows @x", "7 Flows @1 @2 @3"} {
		seq := fmt.Sprintf("%d", 10+i)
		if got := ask(seq, bad); !strings.HasPrefix(got, "HWDB/1 "+seq+" ERR") {
			t.Errorf("REPLAY %q reply = %q, want ERR", bad, got)
		}
	}
}
