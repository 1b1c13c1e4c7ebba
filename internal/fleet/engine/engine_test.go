package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// engineInserts totals an engine's homes' inserts across the watched
// tables — the ground truth its hub books must account for.
func engineInserts(homes []*Home) uint64 {
	var total uint64
	for _, h := range homes {
		for _, name := range watchedTables {
			if t, ok := h.Router.DB.Table(name); ok {
				ins, _ := t.Stats()
				total += ins
			}
		}
	}
	return total
}

// TestEngineLifecycle drives the full ShardClient contract on one engine
// in isolation — assign, duplicate-assign rejection, step, sync, stats,
// drain, retired accounting, close — with no coordinator above it.
func TestEngineLifecycle(t *testing.T) {
	clk := clock.NewSimulated()
	e := New(Config{Index: 2, Clock: clk, Seed: 7})
	defer e.Close()
	// A consumer of the hub, as the coordinator's federation is: the rows
	// it is handed are the rows the hub counts delivered.
	var consumed uint64
	e.Hub().SubscribeFunc(func(d telemetry.Delta) { consumed += uint64(len(d.Rows)) })

	if err := e.Assign(7); err != nil {
		t.Fatal(err)
	}
	if err := e.Assign(7); err == nil || !strings.Contains(err.Error(), "already live") {
		t.Fatalf("duplicate assign error = %v", err)
	}
	h, ok := e.Home(7)
	if !ok {
		t.Fatal("home 7 not registered")
	}
	host, err := h.Join("", true, netsim.Pos{X: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Router.Upstream.AddZone("svc.example", packet.IP4{203, 0, 113, 9})
	host.AddApp(netsim.NewApp(netsim.AppWeb, "svc.example", 60_000))

	for i := 0; i < 3; i++ {
		if err := e.Step(0.25); err != nil {
			t.Fatal(err)
		}
		// The coordinator owns the shared clock and the sync; emulate it.
		clk.Advance(250 * time.Millisecond)
		e.Sync()
	}

	st := e.Stats()
	if st.Shard != 2 || st.Homes != 1 || st.Steps != 3 {
		t.Fatalf("stats = %+v", st)
	}
	want := engineInserts(e.Homes())
	if want == 0 {
		t.Fatal("stepping inserted nothing — test exercised nothing")
	}
	if st.Hub.Delivered+st.Hub.Lost != want {
		t.Fatalf("hub delivered %d + lost %d != %d inserts", st.Hub.Delivered, st.Hub.Lost, want)
	}
	if consumed != st.Hub.Delivered || consumed+st.Hub.Lost != want {
		t.Fatalf("hub consumer was handed %d rows, delivered %d + lost %d of %d inserts",
			consumed, st.Hub.Delivered, st.Hub.Lost, want)
	}

	// Drain: frozen tables become the retired ground truth; the books
	// still balance after the per-home state drops.
	retired := engineInserts([]*Home{h})
	if !e.Drain(7) {
		t.Fatal("drain returned false for a live home")
	}
	if e.Drain(7) {
		t.Fatal("second drain returned true")
	}
	if e.Size() != 0 {
		t.Fatalf("engine still holds %d homes", e.Size())
	}
	st = e.Stats()
	if st.Hub.Sources != 0 || st.Hub.Delivered+st.Hub.Lost != retired {
		t.Fatalf("post-drain books = %+v, want %d retired rows", st.Hub, retired)
	}
	if consumed != st.Hub.Delivered {
		t.Fatalf("post-drain: hub consumer was handed %d rows, hub delivered %d", consumed, st.Hub.Delivered)
	}

	e.Close()
	if err := e.Assign(8); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("assign on closed engine = %v", err)
	}
	if err := e.Step(0.25); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("step on closed engine = %v", err)
	}
}

// TestEngineCordonSkipsStepping pins that a cordoned home is skipped by
// the step plan but stays live and inspectable, and rejoins rotation on
// uncordon.
func TestEngineCordonSkipsStepping(t *testing.T) {
	clk := clock.NewSimulated()
	var stepped []uint64
	e := New(Config{Clock: clk, Seed: 7, OnStep: func(_ int, home uint64, _ uint64) {
		stepped = append(stepped, home)
	}})
	defer e.Close()
	for id := uint64(0); id < 2; id++ {
		if err := e.Assign(id); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Cordon(1) {
		t.Fatal("cordon returned false")
	}
	if err := e.Step(0.25); err != nil {
		t.Fatal(err)
	}
	if len(stepped) != 1 || stepped[0] != 0 {
		t.Fatalf("stepped %v with home 1 cordoned", stepped)
	}
	h, ok := e.Home(1)
	if !ok || !h.Cordoned() {
		t.Fatal("cordoned home not inspectable")
	}
	if !e.Uncordon(1) {
		t.Fatal("uncordon returned false")
	}
	stepped = nil
	if err := e.Step(0.25); err != nil {
		t.Fatal(err)
	}
	if len(stepped) != 2 {
		t.Fatalf("stepped %v after uncordon", stepped)
	}
	if e.Cordon(99) || e.Uncordon(99) {
		t.Fatal("cordon/uncordon of unknown home returned true")
	}
}

// TestEngineStepsOnTheCaller pins that an engine owns no goroutine and
// that Step runs each home on the goroutine that calls it: after warm
// steps the goroutine count is what it was before New, and a warm Step
// allocates exactly what stepping each home directly does.
func TestEngineStepsOnTheCaller(t *testing.T) {
	before := settledGoroutines()
	clk := clock.NewSimulated()
	e := New(Config{Clock: clk, Seed: 7})
	defer e.Close()
	for id := uint64(0); id < 4; id++ {
		if err := e.Assign(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := e.Step(0.25); err != nil {
			t.Fatal(err)
		}
		clk.Advance(250 * time.Millisecond)
		e.Sync()
	}
	if n := settledGoroutines(); n != before {
		t.Fatalf("%d goroutines after 20 steps, %d before New", n, before)
	}

	homes := e.Homes()
	direct := testing.AllocsPerRun(20, func() {
		for _, h := range homes {
			if err := h.step(0.25); err != nil {
				t.Fatal(err)
			}
		}
	})
	viaEngine := testing.AllocsPerRun(20, func() {
		if err := e.Step(0.25); err != nil {
			t.Fatal(err)
		}
	})
	if viaEngine != direct {
		t.Fatalf("Engine.Step allocates %v times, stepping its homes directly %v", viaEngine, direct)
	}
}

// settledGoroutines counts goroutines once the count holds still, so a
// goroutine an earlier test left exiting is not counted against this one.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
