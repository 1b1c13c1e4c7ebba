package hwdb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

func testDB(t *testing.T) (*DB, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated()
	return NewHomework(clk, 1024), clk
}

// TestHomeworkSchemaLaysOutTheStandardTables: a standard table's schema
// is the one its NewHomework table has, by any case of its name, one
// shared value on every call; any other name has none.
func TestHomeworkSchemaLaysOutTheStandardTables(t *testing.T) {
	db, _ := testDB(t)
	for _, name := range []string{TableFlows, TableLinks, TableLeases, TableFlowPerf} {
		tbl, ok := db.Table(name)
		if !ok {
			t.Fatalf("NewHomework has no %s table", name)
		}
		want := fmt.Sprint(tbl.Schema().Cols)
		for _, spelled := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if got := HomeworkSchema(spelled); got == nil || fmt.Sprint(got.Cols) != want {
				t.Errorf("HomeworkSchema(%q) = %v, want %s", spelled, got, want)
			}
		}
		if HomeworkSchema(name) != tbl.Schema() {
			t.Errorf("HomeworkSchema(%q) is not the schema its table shares", name)
		}
	}
	if s := HomeworkSchema("Health"); s != nil {
		t.Errorf("HomeworkSchema(Health) = %v, want nil", s)
	}
}

// Two homes' standard tables share one schema each, built once per
// process: a home carries no copy of a column list or its * expansion.
func TestHomesShareTheStandardSchemas(t *testing.T) {
	a, _ := testDB(t)
	b, _ := testDB(t)
	for _, name := range []string{TableFlows, TableLinks, TableLeases, TableFlowPerf} {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		if ta.Schema() != tb.Schema() {
			t.Errorf("two homes' %s tables have schemas %p and %p, want one", name, ta.Schema(), tb.Schema())
		}
	}
}

func TestValueRoundTrips(t *testing.T) {
	mac := packet.MustMAC("00:1c:b3:09:85:15")
	if MACVal(mac).MAC() != mac {
		t.Error("MAC round trip failed")
	}
	ip := packet.MustIP4("192.168.1.254")
	if IPVal(ip).IP() != ip {
		t.Error("IP round trip failed")
	}
	now := time.Unix(1313398800, 12345)
	if !TimeVal(now).Time().Equal(now) {
		t.Error("Time round trip failed")
	}
	if !Bool(true).equal(Int64(1)) || Bool(false).equal(Int64(1)) {
		t.Error("Bool comparisons wrong")
	}
}

func TestValueOrdering(t *testing.T) {
	if !Int64(1).less(Int64(2)) || Int64(2).less(Int64(1)) {
		t.Error("int ordering wrong")
	}
	if !Float(1.5).less(Int64(2)) {
		t.Error("mixed numeric ordering wrong")
	}
	if !Str("a").less(Str("b")) {
		t.Error("string ordering wrong")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema(Column{"a", TInt}, Column{"b", TString})
	if err := s.Validate([]Value{Int64(1), Str("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate([]Value{Int64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.Validate([]Value{Str("x"), Str("y")}); err == nil {
		t.Error("type mismatch accepted")
	}
	r := NewSchema(Column{"v", TReal})
	if err := r.Validate([]Value{Int64(3)}); err != nil {
		t.Errorf("int should widen to real: %v", err)
	}
}

func TestRingBufferEviction(t *testing.T) {
	tbl := NewTable("t", NewSchema(Column{"n", TInt}), 4)
	now := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(now.Add(time.Duration(i)*time.Second), []Value{Int64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tbl.Len())
	}
	ins, drop := tbl.Stats()
	if ins != 10 || drop != 6 {
		t.Errorf("stats = %d inserts, %d dropped", ins, drop)
	}
	rows := tbl.Snapshot()
	for i, r := range rows {
		if want := int64(6 + i); r.Int(0) != want {
			t.Errorf("row %d = %d, want %d (oldest-first after wrap)", i, r.Int(0), want)
		}
	}
}

func TestOnInsertSubscription(t *testing.T) {
	tbl := NewTable("t", NewSchema(Column{"n", TInt}), 8)
	var got []int64
	tbl.OnInsert(func(r Row) { got = append(got, r.Int(0)) })
	for i := 0; i < 3; i++ {
		_ = tbl.Insert(time.Now(), []Value{Int64(int64(i))})
	}
	if len(got) != 3 || got[2] != 2 {
		t.Errorf("got %v", got)
	}
}

func TestHomeworkTables(t *testing.T) {
	db, _ := testDB(t)
	names := db.TableNames()
	if len(names) != 4 {
		t.Fatalf("tables = %v", names)
	}
	mac := packet.MustMAC("02:00:00:00:00:01")
	ft := packet.FiveTuple{
		Src: packet.MustIP4("192.168.1.10"), Dst: packet.MustIP4("8.8.8.8"),
		Proto: packet.ProtoUDP, SrcPort: 5000, DstPort: 53,
	}
	if err := db.InsertFlow(mac, ft, 10, 1200); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertLink(mac, -47, 2, 54.0); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertLease("add", mac, packet.MustIP4("192.168.1.10"), "toms-mac-air"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{TableFlows, TableLinks, TableLeases} {
		tbl, _ := db.Table(name)
		if tbl.Len() != 1 {
			t.Errorf("%s has %d rows", name, tbl.Len())
		}
	}
}

func TestSelectStar(t *testing.T) {
	db, _ := testDB(t)
	mac := packet.MustMAC("02:00:00:00:00:01")
	_ = db.InsertLink(mac, -50, 0, 54)
	res, err := db.Query("SELECT * FROM Links")
	if err != nil {
		t.Fatal(err)
	}
	// * expands to timestamp + schema columns.
	want := []string{"timestamp", "mac", "rssi", "retries", "rate"}
	if strings.Join(res.Cols, ",") != strings.Join(want, ",") {
		t.Errorf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 1 || res.Rows[0][2].Int != -50 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectWhere(t *testing.T) {
	db, _ := testDB(t)
	m1 := packet.MustMAC("02:00:00:00:00:01")
	m2 := packet.MustMAC("02:00:00:00:00:02")
	_ = db.InsertLink(m1, -40, 0, 54)
	_ = db.InsertLink(m2, -80, 5, 6)
	_ = db.InsertLink(m1, -45, 1, 48)

	res, err := db.Query("SELECT rssi FROM Links WHERE mac = 02:00:00:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}

	res, err = db.Query("SELECT mac FROM Links WHERE rssi < -60 AND retries > 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MAC() != m2 {
		t.Errorf("rows = %v", res.Rows)
	}

	res, err = db.Query("SELECT mac FROM Links WHERE rssi < -60 OR rate >= 54")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("OR query rows = %d", len(res.Rows))
	}

	res, err = db.Query("SELECT mac FROM Links WHERE NOT (rssi < -60)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("NOT query rows = %d", len(res.Rows))
	}
}

func TestSelectWindowRows(t *testing.T) {
	db, _ := testDB(t)
	for i := 0; i < 10; i++ {
		_ = db.InsertLink(packet.MAC{byte(i)}, -40-i, 0, 54)
	}
	res, err := db.Query("SELECT rssi FROM Links [ROWS 3]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int != -47 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectWindowRange(t *testing.T) {
	db, clk := testDB(t)
	_ = db.InsertLink(packet.MAC{1}, -40, 0, 54)
	clk.Advance(10 * time.Second)
	_ = db.InsertLink(packet.MAC{2}, -50, 0, 54)
	clk.Advance(2 * time.Second)
	_ = db.InsertLink(packet.MAC{3}, -60, 0, 54)

	res, err := db.Query("SELECT mac FROM Links [RANGE 5 SECONDS]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("RANGE 5s rows = %d, want 2", len(res.Rows))
	}

	res, err = db.Query("SELECT mac FROM Links [RANGE 1 MINUTES]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("RANGE 1m rows = %d, want 3", len(res.Rows))
	}

	res, err = db.Query("SELECT mac FROM Links [NOW]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MAC() != (packet.MAC{3}) {
		t.Errorf("NOW rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db, _ := testDB(t)
	mac := packet.MustMAC("02:00:00:00:00:01")
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 80}
	_ = db.InsertFlow(mac, ft, 10, 1000)
	_ = db.InsertFlow(mac, ft, 20, 3000)
	_ = db.InsertFlow(mac, ft, 30, 5000)

	res, err := db.Query("SELECT count(*), sum(bytes), avg(bytes), min(bytes), max(bytes) FROM Flows")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Int != 3 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].AsFloat() != 9000 || row[2].AsFloat() != 3000 {
		t.Errorf("sum/avg = %v/%v", row[1], row[2])
	}
	if row[3].Int != 1000 || row[4].Int != 5000 {
		t.Errorf("min/max = %v/%v", row[3], row[4])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db, _ := testDB(t)
	res, err := db.Query("SELECT count(*) FROM Flows")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 0 {
		t.Errorf("count over empty = %v", res.Rows)
	}
}

func TestGroupBy(t *testing.T) {
	db, _ := testDB(t)
	m1 := packet.MustMAC("02:00:00:00:00:01")
	m2 := packet.MustMAC("02:00:00:00:00:02")
	web := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 80}
	dns := packet.FiveTuple{Proto: packet.ProtoUDP, DstPort: 53}
	_ = db.InsertFlow(m1, web, 1, 100)
	_ = db.InsertFlow(m1, web, 1, 200)
	_ = db.InsertFlow(m1, dns, 1, 50)
	_ = db.InsertFlow(m2, web, 1, 1000)

	// The Figure-1 query: per-device per-protocol bandwidth.
	res, err := db.Query("SELECT mac, dport, sum(bytes) AS total FROM Flows GROUP BY mac, dport ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].MAC() != m2 || res.Rows[0][2].AsFloat() != 1000 {
		t.Errorf("top group = %v", res.Rows[0])
	}
	if res.Cols[2] != "total" {
		t.Errorf("alias not applied: %v", res.Cols)
	}
}

func TestGroupByRejectsBareColumn(t *testing.T) {
	db, _ := testDB(t)
	if _, err := db.Query("SELECT mac, sum(bytes) FROM Flows GROUP BY dport"); err == nil {
		t.Error("non-grouped bare column accepted")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db, _ := testDB(t)
	for i := 0; i < 5; i++ {
		_ = db.InsertLink(packet.MAC{byte(i)}, -40-i, i, 54)
	}
	res, err := db.Query("SELECT mac, rssi FROM Links ORDER BY rssi DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Int != -40 || res.Rows[1][1].Int != -41 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestInsertStatement(t *testing.T) {
	db, _ := testDB(t)
	_, err := db.Exec("INSERT INTO Links VALUES (02:00:00:00:00:07, -55, 3, 24.5)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT retries, rate FROM Links WHERE mac = 02:00:00:00:00:07")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 3 || res.Rows[0][1].AsFloat() != 24.5 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCreateTableStatement(t *testing.T) {
	db, _ := testDB(t)
	_, err := db.Exec("CREATE TABLE Probes (name varchar, level integer) RING 16")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO Probes VALUES ('kitchen', 4)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT name, level FROM Probes")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "kitchen" {
		t.Errorf("rows = %v", res.Rows)
	}
	tbl, _ := db.Table("probes")
	if tbl.Cap() != 16 {
		t.Errorf("ring size = %d", tbl.Cap())
	}
	if _, err := db.Exec("CREATE TABLE Probes (x integer)"); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestIPAndStringLiterals(t *testing.T) {
	db, _ := testDB(t)
	_ = db.InsertLease("add", packet.MAC{1}, packet.MustIP4("192.168.1.10"), "it's toms")
	res, err := db.Query("SELECT hostname FROM Leases WHERE ip = 192.168.1.10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "it's toms" {
		t.Errorf("rows = %v", res.Rows)
	}
	res, err = db.Query("SELECT ip FROM Leases WHERE hostname = 'it''s toms'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("quoted string match failed: %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM Flows",
		"SELECT FROM Flows",
		"SELECT * FROM",
		"SELECT * FROM Flows [ROWS]",
		"SELECT * FROM Flows [RANGE 5]",
		"SELECT * FROM Flows [RANGE 5 fortnights]",
		"SELECT * FROM Flows WHERE",
		"SELECT * FROM Flows WHERE mac ==",
		"SELECT sum(*) FROM Flows",
		"INSERT INTO Flows (1,2)",
		"SELECT * FROM Flows LIMIT -1",
		"SELECT 'unterminated FROM Flows",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", q)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := testDB(t)
	cases := []string{
		"SELECT * FROM NoSuchTable",
		"SELECT nosuchcol FROM Flows",
		"SELECT * FROM Flows WHERE nosuchcol = 1",
		"SELECT mac FROM Flows ORDER BY bytes", // bytes not projected
	}
	for _, q := range cases {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) unexpectedly succeeded", q)
		}
	}
}

func TestTimestampPseudoColumn(t *testing.T) {
	db, clk := testDB(t)
	_ = db.InsertLink(packet.MAC{1}, -40, 0, 54)
	cut := clk.Now().UnixNano()
	clk.Advance(time.Second)
	_ = db.InsertLink(packet.MAC{2}, -50, 0, 54)

	res, err := db.Query(fmt.Sprintf("SELECT mac FROM Links WHERE timestamp > @%d", cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MAC() != (packet.MAC{2}) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestResultText(t *testing.T) {
	db, _ := testDB(t)
	_ = db.InsertLink(packet.MustMAC("02:00:00:00:00:01"), -40, 0, 54)
	res, err := db.Query("SELECT mac, rssi FROM Links")
	if err != nil {
		t.Fatal(err)
	}
	text := res.Text()
	if !strings.HasPrefix(text, "mac\trssi\n") {
		t.Errorf("text = %q", text)
	}
	if !strings.Contains(text, "02:00:00:00:00:01\t-40\n") {
		t.Errorf("text = %q", text)
	}
	back, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0][0].Str != "02:00:00:00:00:01" {
		t.Errorf("ParseText = %v", back.Rows)
	}
}

func TestParserNeverPanicsQuick(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: after N inserts into a ring of size K, Len == min(N, K) and
// snapshot rows are the most recent, in order.
func TestRingInvariantQuick(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		size := int(k%64) + 1
		tbl := NewTable("t", NewSchema(Column{"n", TInt}), size)
		total := int(n)
		for i := 0; i < total; i++ {
			if err := tbl.Insert(time.Unix(int64(i), 0), []Value{Int64(int64(i))}); err != nil {
				return false
			}
		}
		want := total
		if want > size {
			want = size
		}
		rows := tbl.Snapshot()
		if len(rows) != want {
			return false
		}
		for i, r := range rows {
			if r.Int(0) != int64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRPCExecAndQuery(t *testing.T) {
	db, _ := testDB(t)
	srv := NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if status, _, err := cli.call("PING", ""); err != nil || status != "OK pong" {
		t.Fatalf("ping: %q, %v", status, err)
	}
	if _, err := cli.Exec("INSERT INTO Links VALUES (02:00:00:00:00:01, -42, 0, 54.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Exec("SELECT mac, rssi FROM Links")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "-42" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := cli.Exec("SELECT * FROM Nope"); err == nil {
		t.Error("server error not propagated")
	}
}

func TestRPCSubscribePush(t *testing.T) {
	clk := clock.Real{} // subscriptions need a real clock for this test
	db := NewHomework(clk, 1024)
	srv := NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_ = db.InsertLink(packet.MustMAC("02:00:00:00:00:01"), -42, 0, 54.0)
	id, err := cli.Subscribe("SUBSCRIBE SELECT mac, rssi FROM Links [ROWS 5] EVERY 0.02 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Subscriptions() != 1 {
		t.Errorf("subscriptions = %d", srv.Subscriptions())
	}
	push, err := cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.SubID != id || len(push.Result.Rows) != 1 {
		t.Errorf("push = %+v", push)
	}
	if err := cli.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if srv.Subscriptions() != 0 {
		t.Errorf("subscriptions after unsubscribe = %d", srv.Subscriptions())
	}
}

func TestRPCTruncation(t *testing.T) {
	db, _ := testDB(t)
	// Insert enough rows that the text form exceeds MaxDatagram.
	for i := 0; i < 3000; i++ {
		_ = db.InsertLease("add", packet.MAC{byte(i), byte(i >> 8)}, packet.IP4{10, 0, byte(i >> 8), byte(i)},
			fmt.Sprintf("very-long-hostname-for-device-number-%06d", i))
	}
	srv := NewServer(db)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Exec("SELECT * FROM Leases")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) >= 3000 {
		t.Errorf("expected truncated result, got %d rows", len(res.Rows))
	}
}

func BenchmarkInsertFlow(b *testing.B) {
	db := NewHomework(clock.Real{}, DefaultRingSize)
	mac := packet.MAC{2}
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = db.InsertFlow(mac, ft, 1, 1500)
	}
}

func BenchmarkGroupByQuery(b *testing.B) {
	db := NewHomework(clock.Real{}, DefaultRingSize)
	for i := 0; i < 10000; i++ {
		_ = db.InsertFlow(packet.MAC{byte(i % 6)}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: uint16(i % 5)}, 1, 1000)
	}
	sel, err := Parse("SELECT mac, dport, sum(bytes) FROM Flows GROUP BY mac, dport")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Select(sel.(*SelectStmt)); err != nil {
			b.Fatal(err)
		}
	}
}
