// Package chaos injects deterministic, seeded faults into a simulated
// Homework fleet at its existing seams — the in-process OpenFlow
// transport (wedged controllers, dropped and delayed flow-mods), the
// netsim delivery fabric and wireless model (link flaps, interference
// bursts) and the DHCP client stacks (re-join storms) — on a schedule
// expressed in simulated time, and
// provides the time-compressed soak harness that drives the
// health/remediation loop through days of scheduled failure in seconds
// of wall clock while asserting the fleet re-converges to Healthy after
// every episode with all telemetry rows accounted.
//
// Concurrency: drive Engine.tick (and the soak loop) from one goroutine
// between fleet steps; faultsFor and the Faults switchboards themselves
// are safe from any goroutine (home bring-up wraps transports
// concurrently, and released messages re-enter live control loops).
package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/health"
)

// Kind is one fault class from the taxonomy.
type Kind int

// The fault taxonomy. Transport faults (Wedge, DropMods, DelayMods) act
// on the control channel; fabric faults (LinkFlap, Interference) act on
// the simulated home network; DHCPStorm replays every host's join.
const (
	LinkFlap Kind = iota
	Interference
	Wedge
	DropMods
	DelayMods
	DHCPStorm
)

// allKinds lists every fault class (the default schedule mix).
func allKinds() []Kind {
	return []Kind{LinkFlap, Interference, Wedge, DropMods, DelayMods, DHCPStorm}
}

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case Interference:
		return "interference"
	case Wedge:
		return "wedge"
	case DropMods:
		return "drop-mods"
	case DelayMods:
		return "delay-mods"
	case DHCPStorm:
		return "dhcp-storm"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Episode is one scheduled fault: Kind hits Home at At (simulated time
// offset from engine start) and holds for For. Mag is the kind-specific
// magnitude: dB of attenuation for Interference, the drop fraction for
// LinkFlap; other kinds ignore it.
type Episode struct {
	Kind Kind
	Home uint64
	At   time.Duration
	For  time.Duration
	Mag  float64
}

// EpisodeStatus is an Episode plus its lifecycle bookkeeping.
type EpisodeStatus struct {
	Episode
	Injected  bool // the fault was applied (the target home existed)
	Ended     bool // the fault has been lifted (or was never applicable)
	Recovered bool // target observed Healthy (or retired) after the end
}

// Engine applies a schedule of episodes to a fleet as simulated time
// passes. Create it before the fleet (home bring-up needs faultsFor for
// the transport hook), then Bind the fleet, setSchedule, and tick once
// per fleet step with the current simulated offset.
type Engine struct {
	mu     sync.Mutex
	fl     *fleet.Coordinator
	faults map[uint64]*Faults
	sched  []EpisodeStatus
}

// newEngine creates an engine with no fleet and no schedule.
func newEngine() *Engine {
	return &Engine{faults: make(map[uint64]*Faults)}
}

// Bind attaches the fleet the episodes act on.
func (e *Engine) Bind(fl *fleet.Coordinator) {
	e.mu.Lock()
	e.fl = fl
	e.mu.Unlock()
}

// faultsFor returns (creating on demand) the home's control-channel
// fault switchboard. Wire it into the home's router via
// core.Config.WrapTransport from the fleet's HomeConfig hook; the same
// switchboard follows the home across restarts.
func (e *Engine) faultsFor(id uint64) *Faults {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.faults[id]
	if !ok {
		f = &Faults{}
		e.faults[id] = f
	}
	return f
}

// setSchedule installs the episodes (replacing any prior schedule).
func (e *Engine) setSchedule(eps []Episode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sched = make([]EpisodeStatus, len(eps))
	for i, ep := range eps {
		e.sched[i] = EpisodeStatus{Episode: ep}
	}
}

// Episodes snapshots the schedule with its lifecycle bookkeeping.
func (e *Engine) Episodes() []EpisodeStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]EpisodeStatus(nil), e.sched...)
}

// Counts returns how many episodes were injected, how many skipped (the
// target home no longer existed at onset), and how many ended-but-not-
// yet-recovered.
func (e *Engine) Counts() (injected, skipped, unrecovered int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sched {
		st := &e.sched[i]
		if st.Injected {
			injected++
		} else if st.Ended {
			skipped++
		}
		if st.Ended && !st.Recovered {
			unrecovered++
		}
	}
	return
}

// tick applies schedule transitions due at simulated offset now: onsets
// first, then lift every episode whose window has passed. Call from the
// driver goroutine between fleet steps.
func (e *Engine) tick(now time.Duration) {
	e.mu.Lock()
	fl := e.fl
	e.mu.Unlock()
	if fl == nil {
		return
	}
	for i := 0; i < e.scheduleLen(); i++ {
		st := e.status(i)
		if !st.Injected && !st.Ended && st.At <= now {
			if e.begin(&st.Episode) {
				e.setInjected(i)
				st.Injected = true
			} else {
				// The target is gone (replaced mid-schedule): nothing to
				// inject, nothing to recover from.
				e.setEnded(i, true)
				continue
			}
		}
		if st.Injected && !st.Ended && st.At+st.For <= now {
			e.end(&st.Episode)
			e.setEnded(i, false)
		}
	}
}

func (e *Engine) scheduleLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sched)
}

func (e *Engine) status(i int) EpisodeStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sched[i]
}

func (e *Engine) setInjected(i int) {
	e.mu.Lock()
	e.sched[i].Injected = true
	e.mu.Unlock()
}

func (e *Engine) setEnded(i int, recovered bool) {
	e.mu.Lock()
	e.sched[i].Ended = true
	if recovered {
		e.sched[i].Recovered = true
	}
	e.mu.Unlock()
}

// finish lifts every episode still active (the soak's drain phase).
func (e *Engine) finish() {
	for i := 0; i < e.scheduleLen(); i++ {
		st := e.status(i)
		if st.Injected && !st.Ended {
			e.end(&st.Episode)
			e.setEnded(i, false)
		}
	}
}

// markRecovery records, for every ended episode, whether its target home
// has been observed back at Healthy (or retired and replaced) since the
// fault lifted. stateOf is typically health.Monitor.State.
func (e *Engine) markRecovery(stateOf func(id uint64) (health.State, bool)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sched {
		st := &e.sched[i]
		if !st.Ended || st.Recovered {
			continue
		}
		s, ok := stateOf(st.Home)
		if !ok || s == health.Healthy || s == health.Retired {
			st.Recovered = true
		}
	}
}

// reapply re-arms the fabric faults of any active episode targeting a
// just-restarted home: the restart built a fresh Network and Wireless
// model, which silently cleared them. Transport faults persist on their
// own (the switchboard follows the home across Wrap calls).
func (e *Engine) reapply(id uint64) {
	for i := 0; i < e.scheduleLen(); i++ {
		st := e.status(i)
		if !st.Injected || st.Ended || st.Home != id {
			continue
		}
		switch st.Kind {
		case LinkFlap, Interference:
			e.begin(&st.Episode)
		}
	}
}

// begin applies one episode's fault. Reports false when the target no
// longer exists.
func (e *Engine) begin(ep *Episode) bool {
	switch ep.Kind {
	case Wedge:
		e.faultsFor(ep.Home).wedgeController(true)
		return true
	case DropMods:
		e.faultsFor(ep.Home).dropFlowMods(true)
		return true
	case DelayMods:
		e.faultsFor(ep.Home).delayFlowMods(true)
		return true
	}
	h, ok := e.fl.Home(ep.Home)
	if !ok {
		return false
	}
	switch ep.Kind {
	case LinkFlap:
		num, den := dropRatio(ep.Mag)
		h.Router.Net.SetLinkFault(num, den)
	case Interference:
		h.Router.Net.Wireless().SetInterference(ep.Mag)
	case DHCPStorm:
		// Every device re-joins at once: a power blip's worth of
		// DISCOVER punts slams the control path in one tick.
		for _, host := range h.Router.Net.Hosts() {
			host.StartDHCP()
		}
	}
	return true
}

// end lifts one episode's fault. Missing targets are fine: a replaced
// home took the fault down with it.
func (e *Engine) end(ep *Episode) {
	switch ep.Kind {
	case Wedge:
		e.faultsFor(ep.Home).wedgeController(false)
		return
	case DropMods:
		e.faultsFor(ep.Home).dropFlowMods(false)
		return
	case DelayMods:
		e.faultsFor(ep.Home).delayFlowMods(false)
		return
	case DHCPStorm:
		return // instantaneous: nothing to lift
	}
	h, ok := e.fl.Home(ep.Home)
	if !ok {
		return
	}
	switch ep.Kind {
	case LinkFlap:
		h.Router.Net.SetLinkFault(0, 0)
	case Interference:
		h.Router.Net.Wireless().SetInterference(0)
	}
}

// dropRatio turns a drop fraction into the deterministic num/den pattern
// the netsim link fault consumes (resolution 1/16).
func dropRatio(frac float64) (num, den int) {
	if frac <= 0 {
		return 0, 0
	}
	if frac > 1 {
		frac = 1
	}
	den = 16
	num = int(frac*float64(den) + 0.5)
	if num < 1 {
		num = 1
	}
	if num >= den {
		num = den - 1 // never 100%: total loss is invisible to FlowPerf
	}
	return num, den
}
