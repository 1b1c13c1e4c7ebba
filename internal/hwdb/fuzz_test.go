package hwdb

import (
	"testing"

	"repro/internal/clock"
)

// FuzzParse: the CQL parser reads statements off the network (both HWDB/1
// servers hand it request bodies), so any input parses or errors and never
// panics, and a SELECT that parsed runs against an empty home the same way
// — a result or an error. The seeds are the statements the tree itself
// issues: the displays', the benchmark's, the fleet view's, and the time
// travel forms.
func FuzzParse(f *testing.F) {
	for _, cql := range []string{
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
	} {
		f.Add(cql)
	}
	db := NewHomework(clock.NewSimulated(), 16)
	f.Fuzz(func(t *testing.T, cql string) {
		st, err := Parse(cql)
		if err != nil {
			return
		}
		switch s := st.(type) {
		case *SelectStmt:
			_, _ = db.Select(s)
		case *SubscribeStmt:
			_, _ = db.Select(s.Query)
		}
	})
}
