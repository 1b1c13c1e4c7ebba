// Package health turns the fleet's live telemetry into per-home verdicts
// and drives the self-remediation loop: an evaluator folds FlowPerf loss
// from the hub's streamed deltas and reads control-plane vitals
// (punt-credit lag, settle failures) each evaluation window, a policy
// turns consecutive breached windows into state transitions (Healthy →
// Sick → Cordoned), and the monitor escalates a cordoned home through
// restart-in-place to full replacement, recording every verdict and
// every remediation action as hwdb rows so the loop's decisions are
// auditable after the fact.
//
// Concurrency: the monitor is driven from one goroutine (Tick between
// fleet steps); the FlowPerf fold runs synchronously inside the hub's
// drain pass and only touches the monitor's mutex-guarded window
// accumulators, so hub flushes may race Tick safely. State reads
// (State, States, Counts) are safe from any goroutine.
package health

import "fmt"

// State is one home's health verdict.
type State int

// Health states. Retired is terminal: the home was replaced by a fresh
// one and no longer exists under its old ID.
const (
	Healthy State = iota
	Sick
	Cordoned
	Retired
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Sick:
		return "sick"
	case Cordoned:
		return "cordoned"
	case Retired:
		return "retired"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Policy sets the evaluator thresholds and the remediation escalation
// schedule, all in units of evaluation windows (one Tick = one window).
type Policy struct {
	// LossRatioMax is the FlowPerf lost/tx ratio above which a window is
	// breached (default 0.05).
	LossRatioMax float64
	// MinTxPkts is the minimum transmitted packets a window needs before
	// its loss ratio is meaningful; below it loss is ignored (default 10).
	MinTxPkts uint64
	// MaxPuntLag is the punt-credit backlog (punted − processed) above
	// which a window is breached (default 8).
	MaxPuntLag uint64
	// MaxSettleErrs is how many new settle failures a window tolerates
	// before breaching (default 0: any failure breaches).
	MaxSettleErrs uint64
	// SickAfter is how many consecutive breached windows turn a Healthy
	// home Sick (default 2).
	SickAfter int
	// HealthyAfter is how many consecutive clear windows turn a Sick home
	// Healthy again (default 2).
	HealthyAfter int
	// CordonAfter is how many further breached windows a Sick home gets
	// before it is cordoned out of rotation (default 3).
	CordonAfter int
	// RestartDwell is how many windows a cordoned home rests before the
	// loop restarts it in place (default 2).
	RestartDwell int
	// MaxRestarts bounds restart attempts per home; one more cordon after
	// the budget is spent escalates to replacement (default 2).
	MaxRestarts int
}

// defaultPolicy returns the thresholds the chaos soak gates on.
func defaultPolicy() Policy {
	return Policy{
		LossRatioMax:  0.05,
		MinTxPkts:     10,
		MaxPuntLag:    8,
		MaxSettleErrs: 0,
		SickAfter:     2,
		HealthyAfter:  2,
		CordonAfter:   3,
		RestartDwell:  2,
		MaxRestarts:   2,
	}
}

// withDefaults fills zero-valued fields from defaultPolicy, so callers
// can override just the thresholds they care about.
func (p Policy) withDefaults() Policy {
	d := defaultPolicy()
	if p.LossRatioMax <= 0 {
		p.LossRatioMax = d.LossRatioMax
	}
	if p.MinTxPkts == 0 {
		p.MinTxPkts = d.MinTxPkts
	}
	if p.MaxPuntLag == 0 {
		p.MaxPuntLag = d.MaxPuntLag
	}
	if p.SickAfter <= 0 {
		p.SickAfter = d.SickAfter
	}
	if p.HealthyAfter <= 0 {
		p.HealthyAfter = d.HealthyAfter
	}
	if p.CordonAfter <= 0 {
		p.CordonAfter = d.CordonAfter
	}
	if p.RestartDwell <= 0 {
		p.RestartDwell = d.RestartDwell
	}
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = d.MaxRestarts
	}
	return p
}

// Vitals are the control-plane signals the evaluator reads directly from
// a home each window, complementing the telemetry-streamed loss.
type Vitals struct {
	// PuntLag is the home's current punt backlog: the datapath's punts less
	// the controller's dispatches.
	PuntLag uint64
	// SettleErrs is the home's cumulative settle-failure count for the
	// current router incarnation; the evaluator differences it per window
	// and tolerates the counter resetting on restart.
	SettleErrs uint64
}

// Actions are the remediation hooks the monitor drives; the fleet layer
// provides them (chaos.Soak wires them to fleet.Coordinator). A nil hook makes
// the corresponding transition a recorded no-op, so evaluators can run
// observe-only. Replace returns the successor home's ID, which the
// monitor starts tracking as Healthy.
type Actions struct {
	Cordon   func(id uint64) bool
	Uncordon func(id uint64) bool
	Restart  func(id uint64) error
	Replace  func(id uint64) (newID uint64, err error)
}

// Counts summarizes everything the monitor has decided and done. Each
// counter equals the number of hwdb rows recorded for it (Verdicts in the
// Health table, the action counters in the Remedy table).
type Counts struct {
	Verdicts  int // state transitions recorded
	Cordons   int
	Uncordons int
	Restarts  int
	Replaces  int
	Failures  int // remediation actions that returned an error

	// Per-state verdict breakdown for the incident recorder's bundle
	// reconciliation: how many verdicts landed in Sick / Cordoned.
	SickVerdicts     int
	CordonedVerdicts int
}

// Actions returns the total remediation actions recorded (the Remedy
// table row count): everything except verdicts.
func (c Counts) Actions() int {
	return c.Cordons + c.Uncordons + c.Restarts + c.Replaces + c.Failures
}
