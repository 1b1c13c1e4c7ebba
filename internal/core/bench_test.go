package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// BenchmarkChurnHomeStep is one home-step of hwbench's web_churn workload
// without the fleet around it: three wired hosts each browsing at 40 kB/s
// and opening a new connection every 0.75 s, one tick apart, so every step
// sets up exactly one new flow, out and back. A step is what the fleet
// engine does to a home per tick: traffic, settle, measurement poll.
//
//	go test -run '^$' -bench ChurnHomeStep -benchtime 2000x -memprofile mem.out ./internal/core
//
// gives the control path's allocation profile per home-step (pprof
// -sample_index=alloc_space), which is how the buffers worth recycling are
// found.
func BenchmarkChurnHomeStep(b *testing.B) {
	clk := clock.NewSimulated()
	r := startRouter(b, func(c *Config) {
		c.Clock = clk
		c.DisableRPC = true
	})
	step := func() {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			b.Fatal(err)
		}
		r.PollMeasure()
		clk.Advance(250 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		h := join(b, r, fmt.Sprint("browser", i), fmt.Sprintf("02:aa:00:00:01:%02x", i), false, netsim.Pos{})
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
