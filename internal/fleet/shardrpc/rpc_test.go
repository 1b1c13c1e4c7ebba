package shardrpc

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fakeBackend counts calls and lets tests wedge Step on demand.
type fakeBackend struct {
	assigned map[uint64]bool
	steps    atomic.Uint64
	syncs    atomic.Uint64
	closes   atomic.Uint64
	stall    chan struct{} // non-nil: Step blocks until it closes
	onSync   func()
	stats    engine.Stats
	snap     trace.Snapshot
}

func newFakeBackend() *fakeBackend { return &fakeBackend{assigned: make(map[uint64]bool)} }

func (f *fakeBackend) Assign(id uint64) error {
	if f.assigned[id] {
		return errors.New("already live")
	}
	f.assigned[id] = true
	return nil
}
func (f *fakeBackend) Drain(id uint64) bool {
	ok := f.assigned[id]
	delete(f.assigned, id)
	return ok
}
func (f *fakeBackend) Cordon(id uint64) bool   { return f.assigned[id] }
func (f *fakeBackend) Uncordon(id uint64) bool { return f.assigned[id] }
func (f *fakeBackend) Step(dt float64) error {
	f.steps.Add(1)
	if f.stall != nil {
		<-f.stall
	}
	return nil
}
func (f *fakeBackend) Sync() {
	f.syncs.Add(1)
	if f.onSync != nil {
		f.onSync()
	}
}
func (f *fakeBackend) Stats() engine.Stats           { return f.stats }
func (f *fakeBackend) TraceSnapshot() trace.Snapshot { return f.snap }
func (f *fakeBackend) Close()                        { f.closes.Add(1) }

// startServer serves a backend on loopback and returns a connected-ready
// client config factory.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := NewServer(cfg)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestClientServerContract(t *testing.T) {
	fb := newFakeBackend()
	fb.stats = *sampleStats()
	fb.snap = *sampleSnapshot()
	srv := startServer(t, Config{Backend: fb})
	c := Dial(ClientConfig{Addr: srv.Addr()})
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Assign(7); err != nil {
		t.Fatalf("assign: %v", err)
	}
	if err := c.Assign(7); err == nil || !strings.Contains(err.Error(), "already live") {
		t.Fatalf("double assign: got %v, want remote 'already live' error", err)
	}
	if !c.Cordon(7) || !c.Uncordon(7) {
		t.Error("cordon/uncordon of a live home reported false")
	}
	if c.Cordon(99) {
		t.Error("cordon of an absent home reported true")
	}
	if err := c.Step(0.25); err != nil {
		t.Fatalf("step: %v", err)
	}
	c.Sync()
	if got := fb.syncs.Load(); got != 1 {
		t.Errorf("syncs = %d, want 1", got)
	}
	if got := c.Stats(); !reflect.DeepEqual(got, fb.stats) {
		t.Errorf("stats round trip:\n got %+v\nwant %+v", got, fb.stats)
	}
	if got := c.TraceSnapshot(); !reflect.DeepEqual(got, fb.snap) {
		t.Errorf("trace snapshot round trip mismatch")
	}
	if !c.Drain(7) {
		t.Error("drain of a live home reported false")
	}
	if c.Drain(7) {
		t.Error("second drain reported true")
	}
	c.Close()
	c.Close() // idempotent
	if got := fb.closes.Load(); got != 1 {
		t.Errorf("closes = %d, want 1", got)
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close: %v, want ErrClosed", err)
	}
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Second):
		t.Error("server Done not closed after CLOSE verb")
	}
}

// TestStepRoundTripAllocations pins what one warm STEP costs, the client's
// call and the server's handling of it together: the request and response
// values each side decodes, and nothing for the header lines, which both
// parse in place. The HWSH/1 codec, splitting its header lines into
// strings, took 6.
func TestStepRoundTripAllocations(t *testing.T) {
	srv := startServer(t, Config{Backend: newFakeBackend()})
	c := Dial(ClientConfig{Addr: srv.Addr()})
	defer c.Close()
	if err := c.Step(0.25); err != nil { // dial, RESYNC and grow the frame buffers
		t.Fatal(err)
	}
	const want = 2
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Step(0.25); err != nil {
			t.Fatal(err)
		}
	}); n > want {
		t.Errorf("a STEP round trip allocates %.1f times, want at most %d", n, want)
	}
}

// TestStepTimeoutStalledWorker wedges the backend's Step and proves the
// client's deadline fails the call promptly instead of hanging, and that
// the client heals on the next call over a fresh connection.
func TestStepTimeoutStalledWorker(t *testing.T) {
	fb := newFakeBackend()
	fb.stall = make(chan struct{})
	srv := startServer(t, Config{Backend: fb})
	c := Dial(ClientConfig{Addr: srv.Addr(), StepTimeout: 150 * time.Millisecond})
	defer c.Close()

	start := time.Now()
	err := c.Step(0.25)
	if err == nil {
		t.Fatal("step against a wedged worker returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("step took %v to fail; deadline did not bite", elapsed)
	}
	// Un-wedge: the abandoned server goroutine finishes, and any later
	// Step sails through the closed channel. (Nilling the field here
	// would race with that goroutine's read of it.)
	close(fb.stall)
	if err := c.Ping(); err != nil {
		t.Fatalf("client did not heal after a step timeout: %v", err)
	}
	if got := fb.steps.Load(); got == 0 {
		t.Error("backend never saw the step")
	}
}

// hubBackend is a fake backend with a real telemetry hub over one table:
// Sync flushes the hub exactly as an engine would.
type hubBackend struct {
	*fakeBackend
	hub *telemetry.Hub
	tbl *hwdb.Table
}

func newHubBackend() *hubBackend {
	hb := &hubBackend{
		fakeBackend: newFakeBackend(),
		hub:         telemetry.NewHub(telemetry.HubConfig{}),
		tbl:         hwdb.NewTable("T", hwdb.NewSchema(hwdb.Column{Name: "v", Type: hwdb.TInt}), 64),
	}
	hb.hub.Watch(telemetry.SourceID{Home: 1, Table: "T"}, hb.tbl)
	hb.fakeBackend.onSync = hb.hub.Flush
	return hb
}

func (hb *hubBackend) insert(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := time.Date(2011, 8, 15, 9, 0, i, 0, time.UTC)
		if err := hb.tbl.Insert(ts, []hwdb.Value{hwdb.Int64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryRelayAcrossReconnect drives rows through SYNC batches,
// severs the connection mid-stream, and proves the relay's books balance:
// rows flushed while disconnected arrive on the next SYNC after the
// automatic redial, nothing double-counts, delivered+lost == inserts.
func TestTelemetryRelayAcrossReconnect(t *testing.T) {
	hb := newHubBackend()
	srv := startServer(t, Config{Backend: hb.fakeBackend, Hub: hb.hub})
	relay := telemetry.NewHub(telemetry.HubConfig{})
	c := Dial(ClientConfig{Addr: srv.Addr(), Relay: relay})
	defer c.Close()

	hb.insert(t, 5)
	c.Sync()
	if st := relay.Stats(); st.Delivered != 5 || st.Lost != 0 {
		t.Fatalf("after first sync: %+v, want 5 delivered", st)
	}

	// Sever the connection; flush server-side while no client is attached
	// (the worker buffers the deltas — they are pending, not committed).
	srv.DropConns()
	hb.insert(t, 3)
	hb.hub.Flush()

	// The next Sync redials (RESYNC finds the books aligned — nothing was
	// committed while we were away) and its batch carries the buffered 3
	// rows plus this flush's 0.
	c.Sync()
	if st := relay.Stats(); st.Delivered != 8 || st.Lost != 0 {
		t.Fatalf("after reconnect sync: %+v, want 8 delivered 0 lost", st)
	}
	if hub := hb.hub.Stats(); hub.Delivered != 8 {
		t.Fatalf("hub delivered %d, want 8", hub.Delivered)
	}
	if srv.Accepted() < 2 {
		t.Errorf("accepted %d conns, want >= 2 (a real reconnect)", srv.Accepted())
	}
}

// TestReconnectAccountsWireLoss proves the lost half of the invariant: a
// batch the worker committed but a second client never saw is accounted
// as lost on that client's relay at RESYNC — total delivered+lost equals
// the worker's books even though the rows are gone.
func TestReconnectAccountsWireLoss(t *testing.T) {
	hb := newHubBackend()
	srv := startServer(t, Config{Backend: hb.fakeBackend, Hub: hb.hub})

	relayA := telemetry.NewHub(telemetry.HubConfig{})
	a := Dial(ClientConfig{Addr: srv.Addr(), Relay: relayA})
	hb.insert(t, 6)
	a.Sync() // worker commits batch 1 (6 rows) to client A
	if st := relayA.Stats(); st.Delivered != 6 {
		t.Fatalf("client A delivered %d, want 6", st.Delivered)
	}
	a.Close()

	// A fresh client (a restarted coordinator) has empty books. RESYNC
	// tells it the worker committed 6 rows it never saw: accounted lost.
	relayB := telemetry.NewHub(telemetry.HubConfig{})
	b := Dial(ClientConfig{Addr: srv.Addr(), Relay: relayB})
	defer b.Close()
	if err := b.Ping(); err != nil {
		t.Fatal(err)
	}
	if st := relayB.Stats(); st.Delivered != 0 || st.Lost != 6 {
		t.Fatalf("client B books %+v, want 0 delivered / 6 lost", st)
	}

	// New rows flow normally: the gap does not poison later accounting.
	hb.insert(t, 2)
	b.Sync()
	if st := relayB.Stats(); st.Delivered != 2 || st.Lost != 6 {
		t.Fatalf("client B books %+v, want 2 delivered / 6 lost", st)
	}
	hub, st := hb.hub.Stats(), relayB.Stats()
	if st.Delivered+st.Lost != hub.Delivered+hub.Lost {
		t.Fatalf("books diverge: relay %+v vs hub %+v", st, hub)
	}
}

// TestRemoteEngineAgainstServer runs a real engine behind the server and
// checks the remote client observes the same stats the engine reports —
// the minimal integration the fleet-level conformance suite expands on.
func TestRemoteEngineAgainstServer(t *testing.T) {
	clk := clock.NewSimulated()
	eng := engine.New(engine.Config{Clock: clk, Seed: 5})
	srv := startServer(t, Config{Backend: eng, Hub: eng.Hub(), Clock: clk})
	c := Dial(ClientConfig{Addr: srv.Addr(), Clock: clk})
	defer c.Close()

	if err := c.Assign(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(0.25); err != nil {
		t.Fatal(err)
	}
	clk.Advance(250 * time.Millisecond)
	c.Sync()
	remote, local := c.Stats(), eng.Stats()
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("remote stats diverge:\n remote %+v\n local  %+v", remote, local)
	}
	if remote.Homes != 1 || remote.Steps != 1 {
		t.Errorf("stats = %+v, want 1 home 1 step", remote)
	}
	if !reflect.DeepEqual(c.TraceSnapshot(), eng.TraceSnapshot()) {
		t.Error("remote trace snapshot diverges from engine's")
	}
}
