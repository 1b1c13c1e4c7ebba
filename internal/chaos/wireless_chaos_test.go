package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/netsim"
)

// interferenceRun drives a 4-home fleet with one wireless device each
// through an interference episode on homes 1 and 3 and returns the
// per-tick health-state history. Everything derives from the seed, so
// two runs must produce identical histories.
func interferenceRun(t *testing.T, seed int64) []string {
	t.Helper()
	sim := clock.NewSimulated()
	eng := newEngine()
	fl := fleet.New(fleet.Config{
		Clock: sim,
		Seed:  seed,
		HomeConfig: func(id uint64, c *core.Config) {
			c.WrapTransport = eng.faultsFor(id).wrap
			// Time compression: ticks advance 60 simulated seconds, so a
			// flow's traffic arrives in bursts 60s apart. Each step's sweep
			// idles out every flow quieter than the timeout, so it must
			// outlive the gap or no steady flow survives to be measured.
			c.FlowIdleTimeout = 180
		},
	})
	t.Cleanup(fl.Stop)
	eng.Bind(fl)
	homes, err := fl.AddHomes(4)
	if err != nil {
		t.Fatal(err)
	}
	mon := health.New(health.Config{Clock: sim, Hub: fl.Hub()})
	ids := make([]uint64, len(homes))
	for i, h := range homes {
		ids[i] = h.ID
		mon.Track(h.ID)
		// One wireless device ~3 m out: a clean baseline link whose loss,
		// when it appears, is the episode's doing.
		host, err := h.Join("", true, netsim.Pos{X: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !host.Bound() {
			t.Fatalf("home %d device did not bind", h.ID)
		}
		host.AddApp(netsim.NewApp(netsim.AppIoT, "203.0.113.10", 48))
	}

	// 54 dB of attenuation on homes 1 and 3 only: RSSI drops from ~-34 to
	// ~-88 dBm, where the retry cap loses a meaningful (but partial)
	// fraction of frames.
	eng.setSchedule([]Episode{
		{Kind: Interference, Home: ids[1], At: 0, For: 6 * time.Minute, Mag: 54},
		{Kind: Interference, Home: ids[3], At: 0, For: 6 * time.Minute, Mag: 54},
	})

	var history []string
	simNow := time.Duration(0)
	for i := 0; i < 12; i++ {
		eng.tick(simNow)
		if err := fl.Step(60); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		simNow += time.Minute
		mon.Tick()
		eng.markRecovery(mon.State)
		tick := ""
		for _, id := range ids {
			st, _ := mon.State(id)
			tick += fmt.Sprintf("%d=%s ", id, st)
		}
		history = append(history, tick)
	}

	// The evaluator flagged exactly the interfered homes...
	for i, id := range ids {
		st, _ := mon.State(id)
		sickened := false
		for _, tick := range history {
			if tickHas(tick, id, health.Sick) {
				sickened = true
			}
		}
		switch i {
		case 1, 3:
			if !sickened {
				t.Errorf("home %d saw 54 dB interference but was never flagged Sick\nhistory: %v", id, history)
			}
		default:
			if sickened {
				t.Errorf("clean home %d was flagged Sick\nhistory: %v", id, history)
			}
		}
		// ...and every home is Healthy again after the episodes lift.
		if st != health.Healthy {
			t.Errorf("home %d = %v after recovery window, want healthy\nhistory: %v", id, st, history)
		}
	}
	if _, _, unrecovered := eng.Counts(); unrecovered != 0 {
		t.Errorf("%d episodes unrecovered", unrecovered)
	}
	return history
}

func tickHas(tick string, id uint64, st health.State) bool {
	want := fmt.Sprintf("%d=%s ", id, st)
	for i := 0; i+len(want) <= len(tick); i++ {
		if tick[i:i+len(want)] == want {
			return true
		}
	}
	return false
}

// TestInterferenceFlagsAffectedHomes is the wireless chaos gate: an
// interference burst raises FlowPerf loss attribution on exactly the
// affected homes, the health evaluator flags exactly those homes, they
// recover once the burst ends — and the whole trajectory is reproducible
// from the seed.
func TestInterferenceFlagsAffectedHomes(t *testing.T) {
	const seed = 7
	first := interferenceRun(t, seed)
	if t.Failed() {
		return
	}
	second := interferenceRun(t, seed)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("same seed, different trajectories:\n  %v\n  %v", first, second)
	}
}
