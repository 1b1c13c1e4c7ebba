package hwdb

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/clock"
)

// cqlSeeds are the statements the tree itself issues: the displays', the
// benchmark's, the fleet view's and the time travel forms, with the other
// verbs and some that do not parse.
var cqlSeeds = []string{
	figure1Query,
	"SELECT mac, hostname, action FROM Leases",
	"SELECT action, mac, hostname FROM Leases",
	"SELECT sum(bytes) AS b FROM Flows [RANGE 2 SECONDS]",
	"SELECT avg(retries) AS r FROM Links [ROWS 20]",
	"SELECT rssi FROM Links [ROWS 200] WHERE mac = 02:00:00:00:00:01",
	"SELECT install_us FROM FlowPerf WHERE install_us > 0",
	"SELECT home, sum(bytes) FROM FleetStats GROUP BY home",
	"SELECT home, sum(bytes), sum(flows) FROM FleetStats GROUP BY home",
	"SELECT mac, daddr, dport, sum(bytes) AS bytes FROM Flows GROUP BY mac, daddr, dport ORDER BY bytes DESC LIMIT 5",
	"SELECT count(*), min(rssi), max(rssi) FROM Links [NOW]",
	"SELECT * FROM Flows [ROWS 10] WHERE saddr = 192.168.1.10 AND NOT (dport = 53 OR proto <> 6)",
	"SELECT * FROM Leases WHERE hostname = 'it''s-a-phone' AND timestamp >= @1234",
	"SELECT * FROM Flows AS OF @1234",
	"SELECT mac, sum(bytes) FROM Flows [RANGE 2 SECONDS] AS OF @5000000000 GROUP BY mac",
	"SELECT bytes FROM Flows [RANGE 2 SECONDS] HISTORY @100 @200 WHERE bytes > 1.5e3",
	"SUBSCRIBE SELECT mac, sum(bytes) AS bytes FROM Flows [RANGE 5 SECONDS] GROUP BY mac EVERY 0.5 SECONDS",
	"INSERT INTO Links VALUES (02:00:00:00:00:01, -40, 0, 54)",
	"CREATE TABLE Notes (who varchar, n integer, score real, ok boolean, at timestamp)",
	"SELECT sum(*) FROM Flows",
	"SELECT mac FROM Flows GROUP BY",
	"",
}

// FuzzParse: the CQL parser reads statements off the network (the HWDB/1
// server hands it request bodies), so any input parses or errors and never
// panics, and a SELECT that parsed runs against a small home the same way
// — a result or an error — whether it is selected as parsed, visited in
// place with SelectFunc, or sent as text twice, the second time from the
// parse cache.
func FuzzParse(f *testing.F) {
	for _, cql := range cqlSeeds {
		f.Add(cql)
	}
	db := fixtureDB(f)
	f.Fuzz(func(t *testing.T, cql string) {
		st, err := Parse(cql)
		if err != nil {
			return
		}
		switch s := st.(type) {
		case *SelectStmt:
			_, _ = selectBothWays(t, db, s)
			want := answer(db.Select(s))
			for i := 0; i < 2; i++ {
				if got := answer(db.Query(cql)); got != want {
					t.Fatalf("%q: Query %d answered\n%s\nSelect answered\n%s", cql, i+1, got, want)
				}
			}
		case *SubscribeStmt:
			_, _ = db.Select(s.Query)
		}
	})
}

// FuzzHWDB1: every HWDB/1 datagram parser reads network bytes — the
// server's request parser, the client's reply and push parser, and
// ParseText under both — so any input parses or errors and never panics.
// A request that parses re-renders, the way Client sends one, to bytes
// that parse the same. And the dispatcher, called with no socket, answers
// any request with one reply of at most MaxDatagram bytes that the client
// reads back under the request's sequence number. The seeds are the
// requests the tree sends and the replies and pushes it answers them with.
func FuzzHWDB1(f *testing.F) {
	for _, s := range []string{
		"HWDB/1 1 PING\n",
		"HWDB/1 2 EXEC\n" + figure1Query,
		"HWDB/1 3 EXEC\nINSERT INTO Links VALUES (02:00:00:00:00:01, -40, 0, 54)",
		"HWDB/1 4 EXEC\nSELECT home, sum(bytes) FROM FleetStats GROUP BY home",
		"HWDB/1 5 SUBSCRIBE\nSUBSCRIBE SELECT mac, sum(bytes) AS bytes FROM Flows [RANGE 5 SECONDS] GROUP BY mac EVERY 0.5 SECONDS",
		"HWDB/1 6 SUBSCRIBE\nSUBSCRIBE SELECT count(*) FROM Flows EVERY 1e-30 SECONDS",
		"HWDB/1 7 SUBSCRIBE\nFLEET EVERY 1 SECONDS",
		"HWDB/1 8 UNSUBSCRIBE\n1",
		"HWDB/1 9 STATS\n",
		"HWDB/1 10 TRACE\n",
		"HWDB/1 11 REPLAY\n7 Flows @100 @200",
		"HWDB/1 12 ping",
		"HWDB/1 x PING\n",
		"HELLO",
		"",
		"HWDB/1 1 OK pong\n",
		"HWDB/1 2 OK 1\nmac\trssi\n02:00:00:00:00:01\t-42\n",
		"HWDB/1 3 ERR hwdb: no such table Nope\n",
		"HWDB/1 0 PUSH 3\nhome\thosts\tflows\tpackets\tbytes\tlinks\tlost\tbytes_s\tpkts_s\n7\t2\t3\t6\t3000\t0\t0\t300\t0.6\n",
		"HWDB/1 4 OK 3000\nmac\tip\n02:00:00:00:00:01\t10.0.0.1\nTRUNCATED\n",
	} {
		f.Add(s)
	}
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	f.Fuzz(func(t *testing.T, s string) {
		seq, verb, body, err := parseRequest(s)
		if err == nil {
			again := fmt.Sprintf("%s %d %s\n%s", rpcMagic, seq, verb, body)
			seq2, verb2, body2, err := parseRequest(again)
			if err != nil || seq2 != seq || verb2 != verb || body2 != body {
				t.Fatalf("%q re-rendered as %q parses to (%d, %q, %q, %v)", s, again, seq2, verb2, body2, err)
			}
		}
		cli := &Client{pushCh: make(chan Push, 1)}
		_, _, _, _ = cli.parseResponse(s)
		_, _ = ParseText(s)

		// A fresh server per input: INSERT and CREATE do not leak between
		// inputs, and on a simulated clock no subscription ever ticks.
		srv := NewServer(NewHomework(clock.NewSimulated(), 16))
		defer srv.Close()
		reply := srv.answer(addr, s)
		if len(reply) > MaxDatagram {
			t.Fatalf("%q drew a %d-byte reply", s, len(reply))
		}
		gotSeq, _, pushed, perr := cli.parseResponse(string(reply))
		if perr != nil || pushed || gotSeq != seq {
			t.Fatalf("%q drew %q: seq %d pushed %v err %v, want seq %d", s, reply, gotSeq, pushed, perr, seq)
		}
	})
}
