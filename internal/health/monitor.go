package health

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
)

// Monitor hwdb table names: every verdict transition lands in Health,
// every remediation action in Remedy.
const (
	TableHealth = "Health"
	TableRemedy = "Remedy"
)

// Config parameterizes a Monitor.
type Config struct {
	// Clock timestamps the verdict/action rows (default wall clock; pass
	// the fleet's simulated clock for deterministic audits).
	Clock clock.Clock
	// Hub, when set, feeds the loss evaluator: the monitor registers a
	// synchronous consumer on it — a shard's *telemetry.Hub or a fleet's
	// *telemetry.Federation — and folds FlowPerf deltas into per-home
	// windows. Home IDs must be unique across the source (fleet-wide IDs
	// are).
	Hub telemetry.Source
	// Vitals reads a home's control-plane signals; ok=false skips the
	// home this window (e.g. mid-replacement).
	Vitals func(id uint64) (Vitals, bool)
	// Actions are the remediation hooks (see Actions; nil hooks no-op).
	Actions Actions
	// OnVerdict, when set, fires synchronously after every state
	// transition's Health row is recorded, outside the monitor mutex —
	// the handler may take its own locks (the flight recorder's incident
	// hook does) but must not call back into the monitor's mutators.
	OnVerdict func(VerdictEvent)
	// OnAction fires likewise after every remediation action's Remedy
	// row is recorded.
	OnAction func(ActionEvent)
}

// auditRing bounds the monitor's own hwdb rings.
const auditRing = 4096

// VerdictEvent describes one recorded state transition (a Health row).
type VerdictEvent struct {
	Home   uint64
	From   State
	To     State
	Reason string
}

// ActionEvent describes one recorded remediation action (a Remedy row).
type ActionEvent struct {
	Home   uint64
	Action string
	OK     bool
	Detail string
}

// homeState is the per-home evaluator window and state machine.
type homeState struct {
	state State

	// Written only from Tick (single driver goroutine):
	breach         int    // consecutive breached windows while Healthy
	clear          int    // consecutive clear windows while Sick
	sickBreach     int    // breached windows since turning Sick
	dwell          int    // windows spent Cordoned since last action
	restarts       int    // restart attempts spent
	lastSettleErrs uint64 // settle-failure counter at last window

	// Written by the hub fold (under Monitor.mu):
	winTx, winLost uint64
}

// Monitor runs the health evaluation and remediation loop over a set of
// tracked homes. Drive it with Tick from one goroutine; reads are safe
// from any goroutine.
type Monitor struct {
	cfg Config
	db  *hwdb.DB

	pTx, pLost int // FlowPerf column indexes

	mu     sync.Mutex
	homes  map[uint64]*homeState
	counts Counts
}

// New builds a monitor and, when cfg.Hub is set, attaches its FlowPerf
// fold to the hub's synchronous drain path.
func New(cfg Config) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	m := &Monitor{
		cfg:   cfg,
		db:    hwdb.New(cfg.Clock),
		homes: make(map[uint64]*homeState),
	}
	// Resolve the FlowPerf column layout from the standard Homework
	// schema once, instead of hard-coding positions.
	ps := hwdb.HomeworkSchema(hwdb.TableFlowPerf)
	m.pTx, _ = ps.Index("tx_pkts")
	m.pLost, _ = ps.Index("lost_pkts")

	must := func(_ *hwdb.Table, err error) {
		if err != nil {
			panic(err)
		}
	}
	must(m.db.CreateTable(TableHealth, hwdb.NewSchema(
		hwdb.Column{Name: "home", Type: hwdb.TInt},
		hwdb.Column{Name: "state", Type: hwdb.TString},
		hwdb.Column{Name: "prev", Type: hwdb.TString},
		hwdb.Column{Name: "reason", Type: hwdb.TString},
	), auditRing))
	must(m.db.CreateTable(TableRemedy, hwdb.NewSchema(
		hwdb.Column{Name: "home", Type: hwdb.TInt},
		hwdb.Column{Name: "action", Type: hwdb.TString},
		hwdb.Column{Name: "ok", Type: hwdb.TBool},
		hwdb.Column{Name: "detail", Type: hwdb.TString},
	), auditRing))

	if cfg.Hub != nil {
		cfg.Hub.SubscribeFunc(m.fold)
	}
	return m
}

// DB returns the monitor's audit database (Health and Remedy tables).
func (m *Monitor) DB() *hwdb.DB { return m.db }

// fold accumulates FlowPerf loss into the target home's current window.
// It runs inside the hub's drain pass, so it must stay cheap and must
// not call back into the hub.
func (m *Monitor) fold(d telemetry.Delta) {
	if d.Source.Table != hwdb.TableFlowPerf {
		return
	}
	var tx, lost uint64
	for _, r := range d.Rows {
		tx += uint64(r.Int(m.pTx))
		lost += uint64(r.Int(m.pLost))
	}
	if tx == 0 && lost == 0 {
		return
	}
	m.mu.Lock()
	if hs := m.homes[d.Source.Home]; hs != nil && hs.state != Retired {
		hs.winTx += tx
		hs.winLost += lost
	}
	m.mu.Unlock()
}

// Track starts evaluating a home (initial verdict: Healthy). Tracking an
// already-tracked home is a no-op.
func (m *Monitor) Track(id uint64) {
	m.mu.Lock()
	if _, dup := m.homes[id]; dup {
		m.mu.Unlock()
		return
	}
	m.homes[id] = &homeState{state: Healthy}
	m.counts.Verdicts++
	m.mu.Unlock()
	_ = m.db.Insert(TableHealth, hwdb.Int64(int64(id)),
		hwdb.Str(Healthy.String()), hwdb.Str(""), hwdb.Str("tracked"))
}

// State returns a home's current verdict.
func (m *Monitor) State(id uint64) (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs, ok := m.homes[id]
	if !ok {
		return Healthy, false
	}
	return hs.state, true
}

// States snapshots every tracked home's verdict.
func (m *Monitor) States() map[uint64]State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64]State, len(m.homes))
	for id, hs := range m.homes {
		out[id] = hs.state
	}
	return out
}

// Converged reports whether every non-retired home is Healthy — the
// condition the chaos soak requires after its last episode drains.
func (m *Monitor) Converged() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, hs := range m.homes {
		if hs.state != Healthy && hs.state != Retired {
			return false
		}
	}
	return true
}

// Counts returns the cumulative verdict/action counters; each equals the
// rows recorded in the corresponding audit table.
func (m *Monitor) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// Tick evaluates one window for every tracked home, in ascending home
// order, advancing the Healthy → Sick → Cordoned state machine and
// firing remediation actions as the policy dictates. Call it between
// fleet steps, after the telemetry hub has flushed the step's rows.
func (m *Monitor) Tick() {
	m.mu.Lock()
	ids := make([]uint64, 0, len(m.homes))
	for id := range m.homes {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m.evalHome(id)
	}
}

// evalHome runs one home's window. The monitor mutex is held only for
// the short reads/writes the hub fold and concurrent readers share —
// never across a remediation action, which may re-enter the hub (a
// restart retires telemetry sources, whose final drain runs the fold).
func (m *Monitor) evalHome(id uint64) {
	m.mu.Lock()
	hs := m.homes[id]
	if hs == nil || hs.state == Retired {
		m.mu.Unlock()
		return
	}
	tx, lost := hs.winTx, hs.winLost
	hs.winTx, hs.winLost = 0, 0
	st := hs.state
	m.mu.Unlock()

	if st == Cordoned {
		m.evalCordoned(id, hs)
		return
	}

	// Evaluate the window: loss from the telemetry fold, lag and settle
	// failures from the live vitals.
	var reasons []string
	if m.cfg.Vitals != nil {
		v, ok := m.cfg.Vitals(id)
		if !ok {
			return // home not reachable this window (e.g. mid-churn)
		}
		if v.PuntLag > maxPuntLag {
			reasons = append(reasons, fmt.Sprintf("punt_lag=%d", v.PuntLag))
		}
		dErr := v.SettleErrs
		if v.SettleErrs >= hs.lastSettleErrs {
			dErr = v.SettleErrs - hs.lastSettleErrs
		}
		hs.lastSettleErrs = v.SettleErrs
		if dErr > maxSettleErrs {
			reasons = append(reasons, fmt.Sprintf("settle_errs=%d", dErr))
		}
	}
	if tx >= minTxPkts {
		if ratio := float64(lost) / float64(tx); ratio > lossRatioMax {
			reasons = append(reasons, fmt.Sprintf("loss=%.3f", ratio))
		}
	}
	breached := len(reasons) > 0

	switch st {
	case Healthy:
		if !breached {
			hs.breach = 0
			return
		}
		hs.breach++
		if hs.breach >= sickAfter {
			hs.sickBreach, hs.clear = 0, 0
			m.setState(id, hs, Sick, strings.Join(reasons, " "))
		}
	case Sick:
		if breached {
			hs.clear = 0
			hs.sickBreach++
			if hs.sickBreach >= cordonAfter {
				m.act(id, "cordon", m.boolAction(m.cfg.Actions.Cordon, id))
				hs.dwell = 0
				m.setState(id, hs, Cordoned, strings.Join(reasons, " "))
			}
			return
		}
		hs.clear++
		if hs.clear >= healthyAfter {
			hs.breach = 0
			m.setState(id, hs, Healthy, "recovered")
		}
	}
}

// evalCordoned advances a cordoned home: rest for the dwell, then
// restart in place while the budget lasts, then replace.
func (m *Monitor) evalCordoned(id uint64, hs *homeState) {
	hs.dwell++
	if hs.dwell < restartDwell {
		return
	}
	if hs.restarts < maxRestarts {
		hs.restarts++
		err := m.errAction(m.cfg.Actions.Restart, id)
		m.act(id, "restart", err)
		if err != nil {
			hs.dwell = 0 // rest another dwell, then try again
			return
		}
		m.act(id, "uncordon", m.boolAction(m.cfg.Actions.Uncordon, id))
		// Probation: the fresh incarnation re-earns Healthy through the
		// normal clear-window path, with its vitals baseline reset.
		hs.sickBreach, hs.clear, hs.lastSettleErrs = 0, 0, 0
		m.mu.Lock()
		hs.winTx, hs.winLost = 0, 0
		m.mu.Unlock()
		m.setState(id, hs, Sick, fmt.Sprintf("restarted (%d/%d)", hs.restarts, maxRestarts))
		return
	}
	// Restart budget spent: escalate to replacement.
	newID, err := m.replaceAction(id)
	if err != nil {
		m.act(id, "replace", err)
		hs.dwell = 0
		return
	}
	m.actDetail(id, "replace", nil, fmt.Sprintf("successor=%d", newID))
	m.setState(id, hs, Retired, fmt.Sprintf("replaced by %d", newID))
	if m.cfg.Actions.Replace != nil {
		m.Track(newID)
	}
}

// boolAction adapts a bool-returning hook to the error convention; a nil
// hook is an observe-only no-op.
func (m *Monitor) boolAction(fn func(uint64) bool, id uint64) error {
	if fn == nil {
		return nil
	}
	if !fn(id) {
		return fmt.Errorf("health: home %d not found", id)
	}
	return nil
}

func (m *Monitor) errAction(fn func(uint64) error, id uint64) error {
	if fn == nil {
		return nil
	}
	return fn(id)
}

func (m *Monitor) replaceAction(id uint64) (uint64, error) {
	if m.cfg.Actions.Replace == nil {
		return 0, nil
	}
	return m.cfg.Actions.Replace(id)
}

// setState records a verdict transition: one Health row plus the state
// change under the mutex.
func (m *Monitor) setState(id uint64, hs *homeState, to State, reason string) {
	m.mu.Lock()
	from := hs.state
	hs.state = to
	m.counts.Verdicts++
	switch to {
	case Sick:
		m.counts.SickVerdicts++
	case Cordoned:
		m.counts.CordonedVerdicts++
	}
	m.mu.Unlock()
	_ = m.db.Insert(TableHealth, hwdb.Int64(int64(id)),
		hwdb.Str(to.String()), hwdb.Str(from.String()), hwdb.Str(reason))
	if m.cfg.OnVerdict != nil {
		m.cfg.OnVerdict(VerdictEvent{Home: id, From: from, To: to, Reason: reason})
	}
}

// act records one remediation action outcome as a Remedy row.
func (m *Monitor) act(id uint64, action string, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	m.actDetail(id, action, err, detail)
}

func (m *Monitor) actDetail(id uint64, action string, err error, detail string) {
	m.mu.Lock()
	if err != nil {
		m.counts.Failures++
	} else {
		switch action {
		case "cordon":
			m.counts.Cordons++
		case "uncordon":
			m.counts.Uncordons++
		case "restart":
			m.counts.Restarts++
		case "replace":
			m.counts.Replaces++
		}
	}
	m.mu.Unlock()
	_ = m.db.Insert(TableRemedy, hwdb.Int64(int64(id)),
		hwdb.Str(action), hwdb.Bool(err == nil), hwdb.Str(detail))
	if m.cfg.OnAction != nil {
		m.cfg.OnAction(ActionEvent{Home: id, Action: action, OK: err == nil, Detail: detail})
	}
}
