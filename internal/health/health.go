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

// The evaluator thresholds and the remediation escalation schedule, the
// counts in evaluation windows (one Tick = one window).
const (
	lossRatioMax  = 0.05 // FlowPerf lost/tx ratio above which a window is breached
	minTxPkts     = 10   // tx packets a window needs before its loss ratio counts
	maxPuntLag    = 8    // punt backlog (punted − processed) above which a window is breached
	maxSettleErrs = 0    // new settle failures a window tolerates: any breaches
	sickAfter     = 2    // consecutive breached windows that turn a Healthy home Sick
	healthyAfter  = 2    // consecutive clear windows that turn a Sick home Healthy again
	cordonAfter   = 3    // further breached windows a Sick home gets before it is cordoned
	restartDwell  = 2    // windows a cordoned home rests before it is restarted in place
	maxRestarts   = 2    // restarts per home; the next cordon escalates to replacement
)

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
