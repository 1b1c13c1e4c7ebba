package datapath_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/netsim"
)

// No port sink re-enters the datapath: a sink that answers — the upstream
// replying to every frame it is sent, a host to DHCP, ARP and DNS — hands
// its frames in, and they wait for the call that executes frames. So every
// sink of a seeded home, with wired and wireless hosts joining over DHCP and
// browsing by name, runs while exactly one call is in the datapath.
func TestNoSinkReentersTheDatapath(t *testing.T) {
	clk := clock.NewSimulated()
	cfg := core.DefaultConfig()
	cfg.AutoPermit, cfg.Clock, cfg.DisableRPC, cfg.Seed = true, clk, true, 3
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	dp := r.Datapath

	seen := map[uint16]int{}   // frames each port's sink was handed
	nested := map[uint16]int{} // of them, handed with more than one call in progress
	watched := map[*datapath.Port]bool{}
	watch := func() {
		for _, p := range dp.Ports() {
			if watched[p] {
				continue
			}
			watched[p] = true
			out, no := p.Out, p.No
			p.SetOut(func(f []byte) {
				seen[no]++
				if n := datapath.CallsInProgress(dp); n != 1 {
					if nested[no] == 0 {
						t.Errorf("port %d's sink was handed a frame with %d calls in the datapath", no, n)
					}
					nested[no]++
				}
				out(f)
			})
		}
	}
	watch()
	targets := []string{"www.example.com", "www.bbc.co.uk", "youtube.com"}
	for i, name := range targets {
		h, err := r.AddHost(fmt.Sprint("device", i), fmt.Sprintf("02:aa:00:00:05:%02x", i), i == 1, netsim.Pos{X: 3})
		if err != nil {
			t.Fatal(err)
		}
		watch()
		if err := r.JoinHost(h); err != nil {
			t.Fatal(err)
		}
		if !h.Bound() {
			t.Fatalf("%s did not bind", h)
		}
		app := netsim.NewApp(netsim.AppWeb, name, 40_000)
		app.SetFlowChurn(0.5)
		h.AddApp(app)
	}
	for step := 0; step < 40; step++ {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
		r.PollMeasure()
		clk.Advance(250 * time.Millisecond)
	}
	if _, _, queries := r.Upstream.Counters(); queries == 0 {
		t.Error("no host asked the upstream for a name")
	}
	for _, p := range dp.Ports() {
		if seen[p.No] == 0 {
			t.Errorf("port %d's sink was never handed a frame", p.No)
		}
	}
	if len(nested) > 0 {
		t.Errorf("frames handed to sinks with other calls in the datapath, by port: %v of %v", nested, seen)
	}
}
