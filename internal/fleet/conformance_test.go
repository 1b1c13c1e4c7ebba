package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
)

// The shardrpc.Backend conformance suite: one table of contract assertions
// run identically against the in-process engine and the remote shardrpc
// client over loopback TCP. Anything the coordinator may assume about a
// shard must hold for both — a behavioural gap between the two
// implementations is a bug here before it is a flaky fleet.

// conformKit is one shardrpc.Backend implementation under test plus the
// engine actually backing it (for remote kits, behind a server), and the
// telemetry hub the coordinator would federate for it: the engine's own
// hub in process, the client's relay hub across the wire.
type conformKit struct {
	client shardrpc.Backend
	eng    *engine.Engine
	clk    *clock.Simulated
	deltas *telemetry.Hub
}

// conformScenario populates one web host per home at web_churn's rate so
// steps generate rows; small and fixed so cross-implementation runs are
// comparable.
var conformScenario = Scenario{
	HostsPerHome: 1,
	AppMix:       []AppMix{{App: "web", RateBps: 40_000, Weight: 1}},
}

func newConformEngine() (*engine.Engine, *clock.Simulated) {
	clk := clock.NewSimulated()
	eng := engine.New(engine.Config{
		Clock:    clk,
		Seed:     11,
		OnAssign: conformScenario.SetupHome,
	})
	return eng, clk
}

var conformImpls = []struct {
	name string
	make func(t *testing.T) conformKit
}{
	{"engine", func(t *testing.T) conformKit {
		eng, clk := newConformEngine()
		t.Cleanup(eng.Close)
		return conformKit{client: eng, eng: eng, clk: clk, deltas: eng.Hub()}
	}},
	{"shardrpc", func(t *testing.T) conformKit {
		eng, clk := newConformEngine()
		srv := shardrpc.NewServer(shardrpc.Config{Backend: eng, Hub: eng.Hub(), Clock: clk})
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		relay := telemetry.NewHub(telemetry.HubConfig{})
		c := shardrpc.Dial(shardrpc.ClientConfig{Addr: srv.Addr(), Clock: clk, Relay: relay})
		t.Cleanup(c.Close)
		return conformKit{client: c, eng: eng, clk: clk, deltas: relay}
	}},
}

// tick advances one kit the way the coordinator does: step, move the
// shared simulated clock, flush telemetry.
func (k conformKit) tick(t *testing.T, dt float64) {
	t.Helper()
	if err := k.client.Step(dt); err != nil {
		t.Fatal(err)
	}
	k.clk.Advance(time.Duration(dt * float64(time.Second)))
	k.client.Sync()
}

// TestShardClientConformance runs every contract assertion against both
// implementations.
func TestShardClientConformance(t *testing.T) {
	for _, impl := range conformImpls {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			t.Run("AssignLiveIDErrors", func(t *testing.T) {
				k := impl.make(t)
				if err := k.client.Assign(1); err != nil {
					t.Fatal(err)
				}
				if err := k.client.Assign(1); err == nil {
					t.Fatal("assigning a live home ID succeeded")
				}
			})
			t.Run("DrainThenAssignRestarts", func(t *testing.T) {
				k := impl.make(t)
				if err := k.client.Assign(2); err != nil {
					t.Fatal(err)
				}
				if !k.client.Drain(2) {
					t.Fatal("drain of a live home reported false")
				}
				if k.client.Drain(2) {
					t.Fatal("second drain of the same home reported true")
				}
				if err := k.client.Assign(2); err != nil {
					t.Fatalf("re-assign after drain: %v", err)
				}
				if st := k.client.Stats(); st.Homes != 1 {
					t.Fatalf("homes = %d after restart, want 1", st.Homes)
				}
			})
			t.Run("CordonAbsentFalse", func(t *testing.T) {
				k := impl.make(t)
				if k.client.Cordon(9) || k.client.Uncordon(9) {
					t.Fatal("cordon/uncordon of an absent home reported true")
				}
				if err := k.client.Assign(9); err != nil {
					t.Fatal(err)
				}
				if !k.client.Cordon(9) || !k.client.Uncordon(9) {
					t.Fatal("cordon/uncordon of a live home reported false")
				}
			})
			t.Run("StepPurity", func(t *testing.T) {
				// Step must not move the shared clock (the coordinator
				// owns time) and must not flush telemetry (Sync owns the
				// delta barrier).
				k := impl.make(t)
				if err := k.client.Assign(3); err != nil {
					t.Fatal(err)
				}
				before := k.clk.Now()
				if err := k.client.Step(0.25); err != nil {
					t.Fatal(err)
				}
				if !k.clk.Now().Equal(before) {
					t.Fatalf("step moved the shared clock %v -> %v", before, k.clk.Now())
				}
				if st := k.client.Stats(); st.Hub.Delivered != 0 {
					t.Fatalf("step flushed telemetry: %d rows delivered before Sync", st.Hub.Delivered)
				}
				k.clk.Advance(250 * time.Millisecond)
				k.client.Sync()
				if st := k.client.Stats(); st.Hub.Delivered == 0 {
					t.Fatal("no rows delivered after step+sync of a populated home")
				}
			})
			t.Run("SyncDeterminism", func(t *testing.T) {
				// The same scripted lifecycle on two fresh instances of
				// the same implementation produces identical stats.
				a, b := impl.make(t), impl.make(t)
				for _, k := range []conformKit{a, b} {
					if err := k.client.Assign(4); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 3; i++ {
						k.tick(t, 0.25)
					}
				}
				sa, sb := a.client.Stats(), b.client.Stats()
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("same script, diverging stats:\n a %+v\n b %+v", sa, sb)
				}
			})
			t.Run("StatsBooksReconcile", func(t *testing.T) {
				k := impl.make(t)
				for id := uint64(1); id <= 3; id++ {
					if err := k.client.Assign(id); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 4; i++ {
					k.tick(t, 0.25)
				}
				// Count inserts via the backing engine's homes: hub books
				// must cover every row the watched tables ever took.
				var inserts uint64
				for _, h := range k.eng.Homes() {
					for _, name := range watchedTables {
						if tbl, ok := h.Router.DB.Table(name); ok {
							ins, _ := tbl.Stats()
							inserts += ins
						}
					}
				}
				if inserts == 0 {
					t.Fatal("scripted run inserted no rows")
				}
				st := k.client.Stats()
				if st.Hub.Delivered+st.Hub.Lost != inserts {
					t.Fatalf("books do not reconcile: delivered %d + lost %d != %d inserts",
						st.Hub.Delivered, st.Hub.Lost, inserts)
				}
			})
			t.Run("TraceSnapshotMatchesBackend", func(t *testing.T) {
				k := impl.make(t)
				if err := k.client.Assign(6); err != nil {
					t.Fatal(err)
				}
				k.tick(t, 0.25)
				if got, want := k.client.TraceSnapshot(), k.eng.TraceSnapshot(); !reflect.DeepEqual(got, want) {
					t.Fatal("client trace snapshot diverges from the backing engine's")
				}
				if got, want := k.client.Stats(), k.eng.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("client stats diverge from the backing engine's:\n got %+v\nwant %+v", got, want)
				}
			})
			t.Run("CloseIdempotent", func(t *testing.T) {
				k := impl.make(t)
				if err := k.client.Assign(8); err != nil {
					t.Fatal(err)
				}
				k.client.Close()
				k.client.Close() // must not panic or double-teardown
				if err := k.client.Assign(10); err == nil {
					t.Fatal("assign succeeded after Close")
				}
				if k.client.Drain(8) {
					t.Fatal("drain reported true after Close")
				}
			})
		})
	}
}

// TestConformanceCrossImplementation scripts the same lifecycle against
// the in-process engine and the remote client and demands identical
// engine-level stats, and identical telemetry: the deltas the engine's hub
// fans out and the deltas the client's relay hub ingests off the wire
// agree delta by delta, in order, cell for cell. The transport must be
// invisible to simulation results.
func TestConformanceCrossImplementation(t *testing.T) {
	kits := make(map[string]conformKit, len(conformImpls))
	seen := make(map[string][]string, len(conformImpls))
	// Each kit's hub federated the way the coordinator federates its
	// shards, so the script can be checked against the coordinator's
	// Totals.
	feds := make(map[string]*telemetry.Federation, len(conformImpls))
	for _, impl := range conformImpls {
		k := impl.make(t)
		k.deltas.SubscribeFunc(func(d telemetry.Delta) { seen[impl.name] = append(seen[impl.name], deltaText(d)...) })
		feds[impl.name] = telemetry.NewFederation(telemetry.FolderConfig{Clock: k.clk}, k.deltas)
		kits[impl.name] = k
	}
	for _, k := range kits {
		for _, id := range []uint64{1, 2} {
			if err := k.client.Assign(id); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			k.tick(t, 0.25)
		}
		if !k.client.Drain(2) {
			t.Fatal("drain failed")
		}
		k.tick(t, 0.25)
	}
	local, remote := kits["engine"].client.Stats(), kits["shardrpc"].client.Stats()
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("transport changed the simulation:\n engine   %+v\n shardrpc %+v", local, remote)
	}
	t.Logf("both transports: %+v", local)
	if local.Homes != 1 || local.Steps != 5 || local.Hub.Delivered == 0 {
		t.Fatalf("script sanity: %+v, want 1 home, 5 steps and delivered rows", local)
	}
	for name, fed := range feds {
		if tot := fed.Folder().Totals(); tot.Flows == 0 || tot.Bytes == 0 {
			t.Fatalf("script sanity: %s federation totals %+v, want measured traffic", name, tot)
		}
	}
	a, b := seen["engine"], seen["shardrpc"]
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			t.Fatalf("telemetry line %d differs:\n engine   %s\n shardrpc %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("engine hub fanned out %d telemetry lines, shardrpc relay ingested %d", len(a), len(b))
	}
}

// deltaText renders a delta as lines: its source and loss, then each row's
// time and cells, exactly — but for FlowPerf's install latency, which is
// measured in wall-clock microseconds even under a simulated clock.
func deltaText(d telemetry.Delta) []string {
	out := []string{fmt.Sprintf("%d/%s: %d rows, %d lost", d.Source.Home, d.Source.Table, len(d.Rows), d.Lost)}
	for _, r := range d.Rows {
		var line strings.Builder
		fmt.Fprintf(&line, "  @%d", r.Time().UnixNano())
		for c := 0; c < r.NumCols(); c++ {
			v := r.Value(c)
			if d.Source.Table == hwdb.TableFlowPerf && c == r.NumCols()-1 { // install_us
				v.Int = 0
			}
			fmt.Fprintf(&line, " %d:%d:%q", v.Type, v.Int, v.Str)
		}
		out = append(out, line.String())
	}
	return out
}
