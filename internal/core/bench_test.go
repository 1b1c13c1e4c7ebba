package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// homeStep is what the fleet engine does to a home per tick: traffic,
// settle, measurement poll, then the clock moves.
func homeStep(tb testing.TB, r *Router, clk *clock.Simulated) {
	r.Net.Step(0.25)
	if err := r.Settle(); err != nil {
		tb.Fatal(err)
	}
	r.PollMeasure()
	clk.Advance(250 * time.Millisecond)
}

// churnHomeStep returns BenchmarkChurnHomeStep's home, warmed into steady
// state, and its home-step.
func churnHomeStep(tb testing.TB) (*Router, func()) {
	clk := clock.NewSimulated()
	r := startRouter(tb, func(c *Config) {
		c.Clock = clk
		c.DisableRPC = true
	})
	step := func() { homeStep(tb, r, clk) }
	for i := 0; i < 3; i++ {
		h := join(tb, r, fmt.Sprint("browser", i), fmt.Sprintf("02:aa:00:00:01:%02x", i), false, netsim.Pos{})
		app := netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000)
		app.SetFlowChurn(0.75)
		h.AddApp(app)
		step()
	}
	// Idle timeouts start removing flows as fast as they arrive after 60
	// simulated seconds; warm up past that so the table is in steady state.
	for i := 0; i < 260; i++ {
		step()
	}
	return r, step
}

// BenchmarkChurnHomeStep is one home-step of hwbench's web_churn workload
// without the fleet around it: three wired hosts each browsing at 40 kB/s
// and opening a new connection every 0.75 s, one tick apart, so every step
// sets up exactly one new flow, out and back, in a flow table of some 250
// entries of which a handful moved. The step's measurement poll reads the
// datapath's counters in place and pays for those few, not for the table.
// What a step allocates is what outlives it: the new flow's two entries,
// one each way, carved from one pair (TestChurnHomeStepAllocations holds
// it to one). The punt buffers come off the datapath's free list, and the
// packet-ins, flow-mods and flow-removeds from openflow's pools. The
// settle allocates nothing: it drains and checks, with no barrier.
//
//	go test -run '^$' -bench ChurnHomeStep -benchtime 2000x -memprofile mem.out ./internal/core
//
// gives the control path's allocation profile per home-step (pprof
// -sample_index=alloc_objects or alloc_space); -cpuprofile gives where its
// time goes, settle against poll.
func BenchmarkChurnHomeStep(b *testing.B) {
	r, step := churnHomeStep(b)
	punts := r.Datapath.PuntCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if punts = r.Datapath.PuntCount() - punts; punts != 2*uint64(b.N) {
		b.Fatalf("%d steps punted %d times, want one new flow out and back per step", b.N, punts)
	}
}

// bulkHomeStep returns BenchmarkBulkHomeStep's home, warmed past its flow
// setup, its home-step, and the payload bytes its apps have sent so far.
func bulkHomeStep(tb testing.TB) (*Router, func(), func() uint64) {
	clk := clock.NewSimulated()
	r := startRouter(tb, func(c *Config) {
		c.Clock = clk
		c.DisableRPC = true
	})
	step := func() { homeStep(tb, r, clk) }
	var apps []*netsim.App
	for i := 0; i < 2; i++ {
		h := join(tb, r, fmt.Sprint("tv", i), fmt.Sprintf("02:aa:00:00:02:%02x", i), false, netsim.Pos{})
		app := netsim.NewApp(netsim.AppVideo, "203.0.113.10", 1_000_000)
		h.AddApp(app)
		apps = append(apps, app)
	}
	for i := 0; i < 20; i++ {
		step()
	}
	sent := func() (n uint64) {
		for _, a := range apps {
			n += a.SentBytes()
		}
		return n
	}
	return r, step, sent
}

// BenchmarkBulkHomeStep is one home-step of hwbench's bulk_stream workload
// without the fleet around it: two wired hosts each streaming video at
// 1 MB/s over one long-lived flow, which the upstream answers twenty bytes
// for one — some 7 500 frames built, forwarded and delivered per step, and a
// control path with nothing to do. MB/s is the payload the two apps emit.
//
//	go test -run '^$' -bench BulkHomeStep -benchtime 300x -cpuprofile cpu.out ./internal/core
//
// gives the data plane's CPU profile per home-step, which is how the
// per-frame work worth removing is found.
func BenchmarkBulkHomeStep(b *testing.B) {
	r, step, sent := bulkHomeStep(b)
	punts, sent0 := r.Datapath.PuntCount(), sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.SetBytes(int64(sent()-sent0) / int64(b.N))
	if punts = r.Datapath.PuntCount() - punts; punts != 0 {
		b.Fatalf("%d steps punted %d times, want every frame on an installed flow", b.N, punts)
	}
}
