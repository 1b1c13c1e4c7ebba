package health

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
)

// rowCount returns the insert count of one of the monitor's audit tables.
func rowCount(t *testing.T, m *Monitor, name string) int {
	t.Helper()
	tbl, ok := m.DB().Table(name)
	if !ok {
		t.Fatalf("audit table %q missing", name)
	}
	ins, _ := tbl.Stats()
	return int(ins)
}

func wantState(t *testing.T, m *Monitor, id uint64, want State) {
	t.Helper()
	got, ok := m.State(id)
	if !ok {
		t.Fatalf("home %d not tracked", id)
	}
	if got != want {
		t.Fatalf("home %d state = %v, want %v", id, got, want)
	}
}

// TestEscalationLadder scripts a home that never stops breaching through
// the whole remediation ladder: Healthy → Sick → Cordoned → restart ×2 →
// replace, with every action recorded and the successor tracked.
func TestEscalationLadder(t *testing.T) {
	lag := uint64(100) // breaches MaxPuntLag every window
	var actions []string
	m := New(Config{
		Clock:  clock.NewSimulated(),
		Vitals: func(id uint64) (Vitals, bool) { return Vitals{PuntLag: lag}, true },
		Actions: Actions{
			Cordon:   func(id uint64) bool { actions = append(actions, fmt.Sprintf("cordon:%d", id)); return true },
			Uncordon: func(id uint64) bool { actions = append(actions, fmt.Sprintf("uncordon:%d", id)); return true },
			Restart:  func(id uint64) error { actions = append(actions, fmt.Sprintf("restart:%d", id)); return nil },
			Replace: func(id uint64) (uint64, error) {
				actions = append(actions, fmt.Sprintf("replace:%d", id))
				return id + 100, nil
			},
		},
	})
	m.Track(7)
	wantState(t, m, 7, Healthy)
	step := func(n int) {
		for i := 0; i < n; i++ {
			m.Tick()
		}
	}

	// Defaults: SickAfter=2, CordonAfter=3, RestartDwell=2, MaxRestarts=2.
	step(1)
	wantState(t, m, 7, Healthy) // one breach is not a verdict
	step(1)
	wantState(t, m, 7, Sick)
	step(2)
	wantState(t, m, 7, Sick) // two more breaches: still short of CordonAfter
	step(1)
	wantState(t, m, 7, Cordoned)
	step(1)
	wantState(t, m, 7, Cordoned) // dwelling
	step(1)
	wantState(t, m, 7, Sick) // restart #1, back on probation
	step(3)
	wantState(t, m, 7, Cordoned) // probation failed
	step(2)
	wantState(t, m, 7, Sick) // restart #2
	step(3)
	wantState(t, m, 7, Cordoned)
	step(2)
	wantState(t, m, 7, Retired) // restart budget spent: replaced
	wantState(t, m, 107, Healthy)

	wantActions := []string{
		"cordon:7", "restart:7", "uncordon:7",
		"cordon:7", "restart:7", "uncordon:7",
		"cordon:7", "replace:7",
	}
	if fmt.Sprint(actions) != fmt.Sprint(wantActions) {
		t.Errorf("actions = %v, want %v", actions, wantActions)
	}

	c := m.Counts()
	want := Counts{Verdicts: 9, Cordons: 3, Uncordons: 2, Restarts: 2, Replaces: 1,
		SickVerdicts: 3, CordonedVerdicts: 3}
	if c != want {
		t.Errorf("counts = %+v, want %+v", c, want)
	}
	// Full audit: the counters equal the rows in the audit tables.
	if got := rowCount(t, m, TableHealth); got != c.Verdicts {
		t.Errorf("Health rows = %d, verdicts counted = %d", got, c.Verdicts)
	}
	if got := rowCount(t, m, TableRemedy); got != c.Actions() {
		t.Errorf("Remedy rows = %d, actions counted = %d", got, c.Actions())
	}

	// A retired home is no longer evaluated; the successor is.
	lag = 0
	step(2)
	wantState(t, m, 7, Retired)
	wantState(t, m, 107, Healthy)
}

// TestSickRecovers scripts a transient fault: the home turns Sick, the
// breach clears, and consecutive clear windows earn Healthy back with no
// remediation action fired.
func TestSickRecovers(t *testing.T) {
	lag := uint64(100)
	m := New(Config{
		Clock:  clock.NewSimulated(),
		Vitals: func(id uint64) (Vitals, bool) { return Vitals{PuntLag: lag}, true },
	})
	m.Track(1)
	m.Tick()
	m.Tick()
	wantState(t, m, 1, Sick)

	lag = 0 // fault lifts
	m.Tick()
	wantState(t, m, 1, Sick) // one clear window is not recovery
	m.Tick()
	wantState(t, m, 1, Healthy)

	if c := m.Counts(); c.Actions() != 0 {
		t.Errorf("transient fault fired remediation: %+v", c)
	}
	if !m.Converged() {
		t.Error("recovered fleet not converged")
	}
}

// TestSettleErrCounterReset checks the per-window settle-failure delta
// tolerates the cumulative counter resetting (a restarted router starts
// from zero): the first window after a reset uses the raw value, not a
// wrapped difference.
func TestSettleErrCounterReset(t *testing.T) {
	errs := uint64(5)
	m := New(Config{
		Clock:  clock.NewSimulated(),
		Vitals: func(id uint64) (Vitals, bool) { return Vitals{SettleErrs: errs}, true },
	})
	m.Track(1)
	m.Tick() // delta 5: breach 1
	m.Tick() // delta 0: clear, breach streak resets
	wantState(t, m, 1, Healthy)

	errs = 1 // counter reset below the last sample, then one new failure
	m.Tick()
	errs = 2
	m.Tick()
	wantState(t, m, 1, Sick) // both post-reset windows breached
}

// TestLossFold feeds FlowPerf deltas straight into the monitor's hub fold
// and checks the loss evaluator flags exactly the lossy home, ignores
// windows below the minimum sample size, and ignores other tables.
func TestLossFold(t *testing.T) {
	m := New(Config{Clock: clock.NewSimulated()})
	m.Track(1)
	m.Track(2)
	m.Track(3)

	width := m.pTx + 1
	if m.pLost >= width {
		width = m.pLost + 1
	}
	perfDelta := func(home uint64, tx, lost int64) telemetry.Delta {
		vals := make([]hwdb.Value, width)
		vals[m.pTx] = hwdb.Int64(tx)
		vals[m.pLost] = hwdb.Int64(lost)
		return telemetry.Delta{
			Source: telemetry.SourceID{Home: home, Table: hwdb.TableFlowPerf},
			Rows:   []hwdb.Row{hwdb.NewRow(time.Time{}, vals...)},
		}
	}

	for i := 0; i < 2; i++ {
		m.fold(perfDelta(1, 100, 20)) // 20% loss: breach
		m.fold(perfDelta(2, 100, 1))  // 1% loss: under LossRatioMax
		m.fold(perfDelta(3, 5, 5))    // under MinTxPkts: not meaningful
		// Loss on the wrong table must not count against anyone.
		d := perfDelta(1, 1000, 1000)
		d.Source.Table = hwdb.TableFlows
		m.fold(d)
		m.Tick()
	}
	wantState(t, m, 1, Sick)
	wantState(t, m, 2, Healthy)
	wantState(t, m, 3, Healthy)

	// The window resets on every Tick: stopping the lossy feed clears it.
	m.Tick()
	m.Tick()
	wantState(t, m, 1, Healthy)
}

// TestObserveOnly runs the monitor with nil action hooks: the state
// machine still walks the ladder and records every transition, but
// nothing outside the monitor is touched.
func TestObserveOnly(t *testing.T) {
	m := New(Config{
		Clock:  clock.NewSimulated(),
		Vitals: func(id uint64) (Vitals, bool) { return Vitals{PuntLag: 100}, true },
	})
	m.Track(1)
	for i := 0; i < 20; i++ {
		m.Tick()
	}
	if st, _ := m.State(1); st != Retired {
		t.Fatalf("observe-only ladder ended at %v, want Retired", st)
	}
	c := m.Counts()
	if c.Actions() == 0 || c.Failures != 0 {
		t.Errorf("observe-only counts: %+v", c)
	}
	if got := rowCount(t, m, TableRemedy); got != c.Actions() {
		t.Errorf("Remedy rows = %d, actions counted = %d", got, c.Actions())
	}
}
