package core

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// An in-process home on a simulated clock is a function of its seed: each
// punt is dispatched inside the datapath call that makes it and its answers
// are handled when the call returns, so no goroutine decides whether a
// flow's next frame is held or matched, how many frames are charged, or how
// many times a settle goes round. Two runs of one seeded, churned home with
// wired and wireless browsers write the same Flows and FlowPerf rows (the
// wall-clock install latency aside), trace the same punt lifecycle counts
// and leave the same flow table.
func TestDirectHomeIsAFunctionOfItsSeed(t *testing.T) {
	const seed, steps = 7, 160
	run := func() string {
		clk := clock.NewSimulated()
		r := startRouter(t, func(c *Config) {
			c.Clock = clk
			c.DisableRPC = true
			c.Seed = seed
		})
		for i := 0; i < 3; i++ {
			h := join(t, r, fmt.Sprint("browser", i), fmt.Sprintf("02:aa:00:00:03:%02x", i), i == 2, netsim.Pos{X: 2})
			app := netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000)
			app.SetFlowChurn(0.75)
			h.AddApp(app)
		}
		for i := 0; i < steps; i++ {
			homeStep(t, r, clk)
		}
		flows, err := r.DB.Query("SELECT * FROM Flows")
		if err != nil {
			t.Fatal(err)
		}
		perf, err := r.DB.Query("SELECT mac, saddr, daddr, proto, sport, dport, tx_pkts, tx_bytes, rx_pkts, rx_bytes, lost_pkts, bps FROM FlowPerf")
		if err != nil {
			t.Fatal(err)
		}
		punted, dispatched, credited, barriered, _ := r.Tracer.Counts()
		return fmt.Sprintf("trace %d/%d/%d/%d table %d\nFlows (%d rows)\n%s\nFlowPerf (%d rows)\n%s",
			punted, dispatched, credited, barriered, r.Datapath.Table().Len(),
			len(flows.Rows), flows.Text(), len(perf.Rows), perf.Text())
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("seed %d: two runs of one home differ:\n%s\n--- and ---\n%s", seed, first, second)
	}
}
