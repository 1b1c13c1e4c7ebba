package telemetry

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/trace"
)

// fixedClock stands still for timestamps and rates, so replies are
// byte-stable, but lets subscription periods elapse in real time.
type fixedClock struct{}

var fixedNow = time.Date(2011, time.August, 15, 9, 0, 0, 0, time.UTC)

func (fixedClock) Now() time.Time                         { return fixedNow }
func (fixedClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// exchange is one request datagram and the exact reply it must draw.
type exchange struct{ req, want string }

// endpoint is a raw UDP conversation with one HWDB/1 server.
type endpoint struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
}

func dialEndpoint(t *testing.T, addr string) *endpoint {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &endpoint{t: t, conn: conn, buf: make([]byte, 65536)}
}

// ask sends req and returns the next datagram to arrive.
func (e *endpoint) ask(req string) string {
	e.t.Helper()
	if _, err := e.conn.Write([]byte(req)); err != nil {
		e.t.Fatal(err)
	}
	return e.next()
}

func (e *endpoint) next() string {
	e.t.Helper()
	_ = e.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := e.conn.Read(e.buf)
	if err != nil {
		e.t.Fatal(err)
	}
	return string(e.buf[:n])
}

func (e *endpoint) run(script []exchange) {
	e.t.Helper()
	for _, x := range script {
		if got := e.ask(x.req); got != x.want {
			e.t.Errorf("%q\n got  %q\n want %q", x.req, got, x.want)
		}
	}
}

// truncated EXECs query, whose result overflows one datagram, and wants
// the reference cut: the header, then whole lines of the result while
// they fit in hwdb.MaxDatagram with room for the trailer, then
// "TRUNCATED\n".
func (e *endpoint) truncated(seq int, db *hwdb.DB, query string) {
	e.t.Helper()
	res, err := db.Query(query)
	if err != nil {
		e.t.Fatal(err)
	}
	header := fmt.Sprintf("HWDB/1 %d OK %d\n", seq, len(res.Rows))
	keep := res.Text()[:hwdb.MaxDatagram-len(header)-len("TRUNCATED\n")]
	want := header + keep[:strings.LastIndexByte(keep, '\n')+1] + "TRUNCATED\n"
	if got := e.ask(fmt.Sprintf("HWDB/1 %d EXEC\n%s", seq, query)); got != want {
		e.t.Errorf("oversize reply: %d bytes, want %d; tail %q", len(got), len(want), got[max(0, len(got)-60):])
	}
}

// TestHomeEndpointTranscript pins the per-home HWDB/1 endpoint's replies
// byte for byte: every verb, every error, subscription ids, truncation and
// a push's framing.
func TestHomeEndpointTranscript(t *testing.T) {
	db := hwdb.NewHomework(fixedClock{}, 4096)
	if err := db.InsertLink(packet.MAC{2, 0, 0, 0, 0, 1}, -42, 0, 54); err != nil {
		t.Fatal(err)
	}
	srv := hwdb.NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	e := dialEndpoint(t, srv.Addr())

	e.run([]exchange{
		{"HWDB/1 1 PING\n", "HWDB/1 1 OK pong\n"},
		{"HWDB/1 2 ping", "HWDB/1 2 OK pong\n"},
		{"HWDB/1 3 EXEC\nSELECT mac, rssi FROM Links", "HWDB/1 3 OK 1\nmac\trssi\n02:00:00:00:00:01\t-42\n"},
		{"HWDB/1 4 EXEC\nSELECT * FROM Nope", "HWDB/1 4 ERR hwdb: no such table Nope\n"},
		{"HWDB/1 5 EXEC\nINSERT INTO Links VALUES (02:00:00:00:00:02, -60, 1, 54.0)", "HWDB/1 5 OK 0\n"},
		{"HWDB/1 6 EXEC\nSELECT count(*) AS n FROM Links", "HWDB/1 6 OK 1\nn\n2\n"},
		{"HWDB/1 7 EXEC\nSELEKT", "HWDB/1 7 ERR hwdb: expected SELECT, INSERT, CREATE or SUBSCRIBE, found \"SELEKT\"\n"},
		{"HWDB/1 8 STATS\n", "HWDB/1 8 ERR unknown verb STATS\n"},
		{"HWDB/1 9 TRACE\n", "HWDB/1 9 ERR unknown verb TRACE\n"},
		{"HWDB/1 10 REPLAY\n7 Flows", "HWDB/1 10 ERR unknown verb REPLAY\n"},
		{"HWDB/1 11 SUBSCRIBE\nSUBSCRIBE SELECT mac FROM Links [ROWS 5] EVERY 10 SECONDS", "HWDB/1 11 OK 1\n"},
		{"HWDB/1 12 SUBSCRIBE\nSUBSCRIBE SELECT mac FROM Links EVERY 1 MINUTE", "HWDB/1 12 OK 2\n"},
		{"HWDB/1 13 SUBSCRIBE\nSELECT mac FROM Links", "HWDB/1 13 ERR body must be a SUBSCRIBE statement\n"},
		{"HWDB/1 14 SUBSCRIBE\nFLEET EVERY 1 SECONDS", "HWDB/1 14 ERR hwdb: expected SELECT, INSERT, CREATE or SUBSCRIBE, found \"FLEET\"\n"},
		{"HWDB/1 15 SUBSCRIBE\nSUBSCRIBE SELECT mac FROM Links EVERY 0 SECONDS", "HWDB/1 15 ERR hwdb: bad EVERY interval \"0\"\n"},
		{"HWDB/1 16 SUBSCRIBE\nSUBSCRIBE SELECT mac FROM Links EVERY 1 FORTNIGHTS", "HWDB/1 16 ERR hwdb: unknown time unit \"FORTNIGHTS\"\n"},
		{"HWDB/1 17 UNSUBSCRIBE\n1", "HWDB/1 17 OK\n"},
		{"HWDB/1 18 UNSUBSCRIBE\n1", "HWDB/1 18 ERR no such subscription\n"},
		{"HWDB/1 19 UNSUBSCRIBE\nx", "HWDB/1 19 ERR bad subscription id\n"},
		{"HWDB/1 20 UNSUBSCRIBE\n 2 ", "HWDB/1 20 OK\n"},
		{"HWDB/1 21 FROB\n", "HWDB/1 21 ERR unknown verb FROB\n"},
		{"HELLO", "HWDB/1 0 ERR bad request header\n"},
		{"HWDB/1 x PING\n", "HWDB/1 0 ERR bad sequence number\n"},
		{"HWDB/1 22\n", "HWDB/1 0 ERR bad request header\n"},
		{"HWDB/2 23 PING\n", "HWDB/1 0 ERR bad request header\n"},
	})
	if n := srv.Subscriptions(); n != 0 {
		t.Errorf("subscriptions after the script = %d", n)
	}

	// A push: header, then the select's columns.
	if got := e.ask("HWDB/1 30 SUBSCRIBE\nSUBSCRIBE SELECT mac, rssi FROM Links [ROWS 1] EVERY 0.1 SECONDS"); got != "HWDB/1 30 OK 3\n" {
		t.Fatalf("subscribe = %q", got)
	}
	if got := e.next(); !strings.HasPrefix(got, "HWDB/1 0 PUSH 3\nmac\trssi\n") {
		t.Fatalf("push = %q", got)
	}
	if got := e.ask("HWDB/1 31 UNSUBSCRIBE\n3"); got != "HWDB/1 31 OK\n" {
		t.Fatalf("unsubscribe = %q", got)
	}

	// An oversize result is cut at a line and flagged.
	for i := 0; i < 3000; i++ {
		err := db.InsertLease("add", packet.MAC{2, byte(i >> 8), byte(i)}, packet.IP4{10, 0, byte(i >> 8), byte(i)},
			fmt.Sprintf("very-long-hostname-for-device-number-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	e.truncated(40, db, "SELECT * FROM Leases")
}

// TestFleetEndpointTranscript pins the fleet telemetry endpoint's replies
// byte for byte, the same way.
func TestFleetEndpointTranscript(t *testing.T) {
	hub := NewHub(HubConfig{Manual: true})
	t.Cleanup(hub.Close)
	folder := NewFolder(hub, FolderConfig{Clock: fixedClock{}})
	home := hwdb.NewHomework(fixedClock{}, 1024)
	folder.AddHome(7, func() int { return 2 })
	for _, name := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases} {
		tbl, _ := home.Table(name)
		hub.Watch(SourceID{Home: 7, Table: name}, tbl)
	}
	for i := 0; i < 3; i++ {
		if err := home.InsertFlow(packet.MAC{2, 1}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 80}, 2, 1000); err != nil {
			t.Fatal(err)
		}
	}
	hub.Flush()
	folder.Commit()

	srv := NewServer(folder)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	e := dialEndpoint(t, srv.Addr())

	e.run([]exchange{
		{"HWDB/1 1 PING\n", "HWDB/1 1 OK pong\n"},
		{"HWDB/1 2 EXEC\nSELECT home, sum(bytes) AS b FROM FleetStats GROUP BY home", "HWDB/1 2 OK 1\nhome\tb\n7\t3000\n"},
		{"HWDB/1 3 EXEC\nSELECT * FROM Nope", "HWDB/1 3 ERR hwdb: no such table Nope\n"},
		{"HWDB/1 4 EXEC\nINSERT INTO FleetStats VALUES (1,1,1,1,1,1,1,1.0,1.0,1)", "HWDB/1 4 ERR hwdb: not a SELECT: INSERT INTO FleetStats VALUES (1,1,1,1,1,1,1,1.0,1.0,1)\n"},
		{"HWDB/1 5 STATS\n", "HWDB/1 5 OK 1\nhomes\thosts\tflows\tlinks\tleases\tpackets\tbytes\tlost\tbytes_s\tpkts_s\n1\t2\t3\t0\t0\t6\t3000\t0\t300\t0.6\n"},
		{"HWDB/1 6 TRACE\n", "HWDB/1 6 OK 0\nstage\tcount\tp50_us\tp99_us\tmax_us\tmean_us\n"},
		{"HWDB/1 7 REPLAY\n7 Flows", "HWDB/1 7 ERR no replay source (flight recorder not attached)\n"},
	})

	srv.SetTraceSource(func() []trace.StageStats {
		return []trace.StageStats{
			{Stage: "punt->dispatch", Count: 42, P50NS: 1500, P99NS: 9000, MaxNS: 12000, MeanNS: 2000},
			{Stage: "punt->barrier", Count: 42, P50NS: 8000, P99NS: 64000, MaxNS: 90000, MeanNS: 11000},
		}
	})
	srv.SetReplaySource(func(home uint64, table string, from, to time.Time) (*hwdb.Result, error) {
		if table != "Flows" {
			return nil, fmt.Errorf("no table %q", table)
		}
		return &hwdb.Result{
			Cols: []string{"home", "from", "to"},
			Rows: [][]hwdb.Value{{hwdb.Int64(int64(home)), hwdb.Int64(from.UnixNano()), hwdb.Int64(to.UnixNano())}},
		}, nil
	})
	e.run([]exchange{
		{"HWDB/1 10 TRACE\n", "HWDB/1 10 OK 2\nstage\tcount\tp50_us\tp99_us\tmax_us\tmean_us\npunt->dispatch\t42\t1.5\t9\t12\t2\npunt->barrier\t42\t8\t64\t90\t11\n"},
		{"HWDB/1 11 REPLAY\n7 Flows @100 @200", "HWDB/1 11 OK 1\nhome\tfrom\tto\n7\t100\t200\n"},
		{"HWDB/1 12 REPLAY\n7 Flows 100", "HWDB/1 12 OK 1\nhome\tfrom\tto\n7\t100\t-6795364578871345152\n"},
		{"HWDB/1 13 REPLAY\n7 Links", "HWDB/1 13 ERR no table \"Links\"\n"},
		{"HWDB/1 14 REPLAY\n", "HWDB/1 14 ERR body must be <home> <table> [<from> [<to>]]\n"},
		{"HWDB/1 15 REPLAY\n7", "HWDB/1 15 ERR body must be <home> <table> [<from> [<to>]]\n"},
		{"HWDB/1 16 REPLAY\nx Flows", "HWDB/1 16 ERR bad home id \"x\"\n"},
		{"HWDB/1 17 REPLAY\n7 Flows @x", "HWDB/1 17 ERR bad timestamp \"@x\"\n"},
		{"HWDB/1 18 REPLAY\n7 Flows @1 @y", "HWDB/1 18 ERR bad timestamp \"@y\"\n"},
		{"HWDB/1 19 REPLAY\n7 Flows @1 @2 @3", "HWDB/1 19 ERR body must be <home> <table> [<from> [<to>]]\n"},
		{"HWDB/1 20 SUBSCRIBE\nFLEET EVERY 10 SECONDS", "HWDB/1 20 OK 1\n"},
		{"HWDB/1 21 SUBSCRIBE\nsubscribe fleet every 1 m", "HWDB/1 21 OK 2\n"},
		{"HWDB/1 22 SUBSCRIBE\nSUBSCRIBE SELECT * FROM FleetStats EVERY 1 SECONDS", "HWDB/1 22 ERR body must be [SUBSCRIBE] FLEET EVERY <n> <unit>\n"},
		{"HWDB/1 23 SUBSCRIBE\nFLEET EVERY 0 SECONDS", "HWDB/1 23 ERR bad period \"0\"\n"},
		{"HWDB/1 24 SUBSCRIBE\nFLEET EVERY 1 FORTNIGHTS", "HWDB/1 24 ERR bad unit \"FORTNIGHTS\"\n"},
		{"HWDB/1 25 SUBSCRIBE\nFLEET EVERY 1", "HWDB/1 25 ERR body must be [SUBSCRIBE] FLEET EVERY <n> <unit>\n"},
		{"HWDB/1 26 UNSUBSCRIBE\n1", "HWDB/1 26 OK\n"},
		{"HWDB/1 27 UNSUBSCRIBE\n1", "HWDB/1 27 ERR no such subscription\n"},
		{"HWDB/1 28 UNSUBSCRIBE\nx", "HWDB/1 28 ERR bad subscription id\n"},
		{"HWDB/1 29 UNSUBSCRIBE\n2", "HWDB/1 29 OK\n"},
		{"HWDB/1 30 FROB\n", "HWDB/1 30 ERR unknown verb FROB\n"},
		{"HELLO", "HWDB/1 0 ERR bad request header\n"},
		{"HWDB/1 x PING\n", "HWDB/1 0 ERR bad sequence number\n"},
	})
	if n := srv.Subscriptions(); n != 0 {
		t.Errorf("subscriptions after the script = %d", n)
	}

	// A push: header, then the fleet delta columns.
	if got := e.ask("HWDB/1 40 SUBSCRIBE\nFLEET EVERY 0.1 SECONDS"); got != "HWDB/1 40 OK 3\n" {
		t.Fatalf("subscribe = %q", got)
	}
	if got := e.next(); !strings.HasPrefix(got, "HWDB/1 0 PUSH 3\nhome\thosts\tflows\tpackets\tbytes\tlinks\tlost\tbytes_s\tpkts_s\n") {
		t.Fatalf("push = %q", got)
	}
	if got := e.ask("HWDB/1 41 UNSUBSCRIBE\n3"); got != "HWDB/1 41 OK\n" {
		t.Fatalf("unsubscribe = %q", got)
	}

	// An oversize result is cut at a line and flagged.
	view := folder.View()
	for i := 0; i < 3000; i++ {
		err := view.Insert(ViewTable, hwdb.Int64(int64(i)), hwdb.Int64(1), hwdb.Int64(1), hwdb.Int64(1),
			hwdb.Int64(1), hwdb.Int64(1e9), hwdb.Int64(1), hwdb.Float(-40.5), hwdb.Float(1e6), hwdb.Int64(0))
		if err != nil {
			t.Fatal(err)
		}
	}
	e.truncated(50, view, "SELECT * FROM FleetStats")
}

// TestSubscribeRacingCloseNeverHangs: SUBSCRIBE datagrams still in flight
// when Close runs must not start a subscription Close has already swept —
// over an idle source such a subscription never writes, so it would never
// notice the closed socket and Close would wait for it forever.
func TestSubscribeRacingCloseNeverHangs(t *testing.T) {
	hub := NewHub(HubConfig{Manual: true})
	t.Cleanup(hub.Close)
	folder := NewFolder(hub, FolderConfig{})
	for _, tc := range []struct {
		name, body string
		serve      func() (addr string, close func() error)
	}{
		{"cql", "SUBSCRIBE SELECT mac FROM Links EVERY 1 SECONDS", func() (string, func() error) {
			srv := hwdb.NewServer(hwdb.NewHomework(nil, 16))
			if err := srv.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return srv.Addr(), srv.Close
		}},
		{"fleet", "FLEET EVERY 1 SECONDS", func() (string, func() error) {
			srv := NewServer(folder)
			if err := srv.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			return srv.Addr(), srv.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				addr, closeSrv := tc.serve()
				conn, err := net.Dial("udp", addr)
				if err != nil {
					t.Fatal(err)
				}
				// Close lands mid-burst, while the server is dispatching.
				done := make(chan error, 1)
				for seq := 1; seq <= 20; seq++ {
					if seq == 10 {
						go func() { done <- closeSrv() }()
					}
					_, _ = conn.Write([]byte(fmt.Sprintf("HWDB/1 %d SUBSCRIBE\n%s", seq, tc.body)))
				}
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("iteration %d: close: %v", i, err)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("iteration %d: Close still waiting after 2s", i)
				}
				_ = conn.Close()
			}
		})
	}
}
