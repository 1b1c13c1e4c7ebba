package hwdb

import (
	"bytes"
	"runtime/debug"
	"testing"
	"time"
)

// TestServerCloseWithoutServe: Close on a never-served server is a safe
// no-op (the idiomatic defer-before-error-check pattern must not panic).
func TestServerCloseWithoutServe(t *testing.T) {
	if err := NewServer(New(nil)).Close(); err != nil {
		t.Fatalf("close without serve: %v", err)
	}
}

// TestParseFleetSubscribe table-drives the named-source subscription
// grammar as the fleet endpoint's FLEET source uses it.
func TestParseFleetSubscribe(t *testing.T) {
	cases := []struct {
		body    string
		want    time.Duration
		wantErr bool
	}{
		{"FLEET EVERY 1 SECONDS", time.Second, false},
		{"SUBSCRIBE FLEET EVERY 0.5 SECONDS", 500 * time.Millisecond, false},
		{"fleet every 20 ms", 20 * time.Millisecond, false},
		{"FLEET EVERY 2 MINUTES", 2 * time.Minute, false},
		{"FLEET EVERY 0 SECONDS", 0, true},
		{"FLEET EVERY x SECONDS", 0, true},
		{"FLEET EVERY 1 FORTNIGHTS", 0, true},
		{"SELECT * FROM Flows", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := parseEvery("FLEET", tc.body)
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err = %v, wantErr %v", tc.body, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%q = %v, want %v", tc.body, got, tc.want)
		}
	}
}

// TestEveryUnitsOfBothGrammars: the CQL SUBSCRIBE statement and a named
// source share one unit table, so each accepts every unit either accepted
// before they shared it, with the same meaning.
func TestEveryUnitsOfBothGrammars(t *testing.T) {
	for unit, want := range map[string]time.Duration{
		"milliseconds": time.Millisecond, "millisecond": time.Millisecond, "ms": time.Millisecond, "mss": time.Millisecond,
		"seconds": time.Second, "second": time.Second, "secs": time.Second, "sec": time.Second, "s": time.Second,
		"minutes": time.Minute, "minute": time.Minute, "mins": time.Minute, "min": time.Minute, "m": time.Minute,
		"hours": time.Hour, "hour": time.Hour, "hrs": time.Hour, "hr": time.Hour,
		"days": 24 * time.Hour, "day": 24 * time.Hour,
	} {
		if got, err := parseEvery("FLEET", "FLEET EVERY 2 "+unit); err != nil || got != 2*want {
			t.Errorf("FLEET EVERY 2 %s = %v, %v; want %v", unit, got, err, 2*want)
		}
		st, err := Parse("SUBSCRIBE SELECT mac FROM Links EVERY 2 " + unit)
		if err != nil {
			t.Errorf("CQL EVERY 2 %s: %v", unit, err)
			continue
		}
		if got := st.(*SubscribeStmt).Every; got != 2*want {
			t.Errorf("CQL EVERY 2 %s = %v, want %v", unit, got, 2*want)
		}
	}
}

// TestWarmPushAssemblyAllocatesNothing: a push writes its header and body
// into the one buffer its subscription keeps, cutting a body too long for
// a datagram at its last whole line, in place, as a reply's is cut. Once
// the buffer has grown, assembling a datagram allocates nothing.
func TestWarmPushAssemblyAllocatesNothing(t *testing.T) {
	const header = "HWDB/1 0 PUSH 1\n"
	short := []byte("a\tb\n1\t2\n")
	long := bytes.Repeat([]byte("0123456789\t0123456789\n"), MaxDatagram/20)
	var dgram []byte
	push := func(body []byte) []byte {
		dgram = appendBody(append(dgram[:0], header...), body)
		return dgram
	}
	if got := string(push(short)); got != header+string(short) {
		t.Fatalf("short push %q", got)
	}
	got := push(long)
	keep := len(got) - len(header) - len(truncated)
	if len(got) > MaxDatagram || !bytes.HasSuffix(got, []byte("\n"+truncated)) ||
		!bytes.Equal(got[len(header):len(header)+keep], long[:keep]) || len(got)+22 <= MaxDatagram {
		t.Fatalf("long push: %d bytes, ending %q", len(got), got[max(0, len(got)-40):])
	}
	if reply := appendBody([]byte(header), string(long)); !bytes.Equal(reply, got) {
		t.Fatal("a push body is cut unlike a reply body")
	}
	if n := testing.AllocsPerRun(100, func() { push(short); push(long) }); n != 0 {
		t.Errorf("a warm push assembles in %.0f allocations, want 0", n)
	}
}

// TestUnchangedSubscriptionTickAllocatesNothing: a subscription tick that
// runs its select again — a RANGE window is re-evaluated every period —
// and finds the result it pushed last renders it into the bytes it keeps,
// finds them equal and sends nothing: it allocates nothing. Its first push
// is the text a query of the same select answers.
func TestUnchangedSubscriptionTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	const cql = "SELECT * FROM Links [RANGE 5 SECONDS]"
	db := fixtureDB(t)
	tick := NewServer(db).selectTick(mustSelect(t, cql))
	if got, want := string(tick()), answer(db.Query(cql)); got != want {
		t.Fatalf("first push %q, want the query's %q", got, want)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	allocs := testing.AllocsPerRun(100, func() {
		if body := tick(); len(body) != 0 {
			t.Fatalf("an unchanged result pushed again: %q", body)
		}
	})
	if allocs > 0 {
		t.Errorf("an unchanged subscription tick allocates %.0f times, want 0", allocs)
	}
}
