package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// TestRetainedHeapPerHome pins the heap an in-process home keeps once it
// is warm: eight homes, each with three wired hosts browsing, stepped
// through 20 ticks as the fleet workloads warm up, then collected. A home
// reserves nothing it has not used — its span ring holds the spans in
// flight, its rings' first pages the rows they got, and its REST routes and
// radio generator wait for first use — and reads ~80 KB; with the span
// ring, the Leases page, the routes and the generator made up front it read
// ~160 KB.
func TestRetainedHeapPerHome(t *testing.T) {
	const homes, limit = 8, 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	routers := make([]*Router, homes)
	for i := range routers {
		clk := clock.NewSimulated()
		r := startRouter(t, func(c *Config) {
			c.Clock = clk
			c.DisableRPC = true
			c.Seed = int64(i + 1)
		})
		for j := 0; j < 3; j++ {
			h := join(t, r, fmt.Sprint("browser", j), fmt.Sprintf("02:aa:00:00:%02x:%02x", i, j), false, netsim.Pos{})
			h.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000))
		}
		for k := 0; k < 20; k++ {
			homeStep(t, r, clk)
		}
		routers[i] = r
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(routers)
	per := (after.HeapAlloc - before.HeapAlloc) / homes
	t.Logf("%d B retained per home", per)
	if per > limit {
		t.Errorf("a warm in-process home retains %d B, want at most %d", per, limit)
	}
}
