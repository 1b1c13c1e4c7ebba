// Package engine is the shard-local half of the fleet control plane: an
// Engine owns a set of homes (each a full core.Router), steps them,
// keeps their vitals, and owns its own telemetry hub — and nothing else.
// It folds nothing: the hub's deltas go to whoever subscribes (the
// coordinator's federation in process, a shardrpc server in a worker).
// It has no knowledge of global membership, placement or remediation
// policy; those live in the fleet coordinator, which drives engines
// through the narrow fleet.ShardClient contract (assign/drain/step/sync/
// stats) so the later network hop between coordinator and engine is a
// transport swap, not another refactor. See docs/ARCHITECTURE.md "Fleet
// control plane".
//
// Concurrency: an engine starts no goroutine. Step runs each home to
// completion on the goroutine that calls it, in ascending ID order, so
// the fleet's only stepping concurrency is shards stepping side by side.
// Drive Step from one goroutine at a time; Assign/Drain may race Step
// and take effect at the next tick. Reads (Stats, Hub) are safe from any
// goroutine.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes one shard engine.
type Config struct {
	// Index is this engine's shard number in the fleet — used only to
	// label stats and scheduler observations; the engine itself is
	// placement-blind.
	Index int
	// Clock, when set, is shared by every home (pass a *clock.Simulated
	// for deterministic runs; the coordinator advances it, not the
	// engine — an engine must not move time the other shards share).
	Clock clock.Clock
	// Seed derives each home's wireless/churn randomness (home i uses
	// Seed+i) — the fleet-global seed, so a home's trajectory does not
	// depend on which shard it lands on.
	Seed int64
	// HomeConfig, when set, mutates each new home's router config after
	// the engine defaults (AutoPermit, Seed, Clock) are applied.
	HomeConfig func(id uint64, cfg *core.Config)
	// OnStep observes scheduler activity (tests only): it runs on the
	// goroutine that called Step, before the home is stepped, with the
	// engine's Index as the shard argument.
	OnStep func(shard int, home uint64, step uint64)
	// OnAssign, when set, populates each newly assigned home (zones,
	// hosts, apps) after its telemetry tables are watched, so every row
	// the population inserts is accounted. It is how a remote worker —
	// which the coordinator cannot hand Home handles to — seeds scenario
	// state. A non-nil error drains the home again and fails the Assign.
	OnAssign func(h *Home) error
}

// Stats is one engine's self-reported state: how many homes it holds
// and its hub's delivery accounting. The coordinator's federated books
// must always reconcile with the sum of these.
type Stats struct {
	Shard int
	Homes int
	Steps uint64
	Hub   telemetry.HubStats
}

// Engine steps a set of homes and streams their telemetry. It is the
// in-process implementation of the fleet.ShardClient contract.
type Engine struct {
	cfg Config
	hub *telemetry.Hub

	mu     sync.Mutex
	homes  map[uint64]*Home
	steps  uint64
	closed bool
	// order is the homes in ascending ID order: the stepping order,
	// rebuilt when membership changes. It is replaced, never edited in
	// place, because Step iterates its snapshot outside mu.
	order []*Home
}

// New creates an empty engine; the coordinator assigns homes to it.
func New(cfg Config) *Engine {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Sync flushes the hub after every step barrier, so delivery is
	// deterministic under a simulated clock.
	return &Engine{
		cfg:   cfg,
		hub:   telemetry.NewHub(telemetry.HubConfig{}),
		homes: make(map[uint64]*Home),
	}
}

// Index returns the engine's shard number.
func (e *Engine) Index() int { return e.cfg.Index }

// Size returns the number of homes the engine holds.
func (e *Engine) Size() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.homes)
}

// Assign builds, starts and registers a home under id. The home's router
// runs with AutoPermit (fleet homes have no per-home operator) and
// without the per-home hwdb RPC server — the fleet's aggregated view
// stands in for it. The telemetry hub re-watching a previously-used
// SourceID retires the old source (with a final drain) before the new
// one attaches, so churn, in-place restarts and migrations never leak or
// double-count watch state.
func (e *Engine) Assign(id uint64) error {
	cfg := core.DefaultConfig()
	cfg.AutoPermit = true
	cfg.DisableRPC = true
	cfg.Seed = e.cfg.Seed + int64(id)
	if e.cfg.Clock != nil {
		cfg.Clock = e.cfg.Clock
	}
	if e.cfg.HomeConfig != nil {
		e.cfg.HomeConfig(id, &cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("fleet: home %d: %w", id, err)
	}
	if err := rt.Start(); err != nil {
		rt.Stop()
		return fmt.Errorf("fleet: home %d: %w", id, err)
	}
	h := &Home{
		ID:     id,
		Name:   fmt.Sprintf("home-%d", id),
		Router: rt,
		rng:    rand.New(rand.NewSource(e.cfg.Seed + int64(id))),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		rt.Stop()
		return errors.New("fleet: engine closed")
	}
	if _, dup := e.homes[id]; dup {
		e.mu.Unlock()
		rt.Stop()
		return fmt.Errorf("fleet: home %d already live", id)
	}
	e.homes[id] = h
	e.reorderLocked()
	e.mu.Unlock()

	// Feed the home's measurement tables into the telemetry hub: from
	// here on, every hwdb insert streams to the hub's subscribers (through
	// the coordinator's federation, into the global view).
	for _, name := range watchedTables {
		if t, ok := rt.DB.Table(name); ok {
			e.hub.Watch(telemetry.SourceID{Home: id, Table: name}, t)
		}
	}
	if e.cfg.OnAssign != nil {
		if err := e.cfg.OnAssign(h); err != nil {
			e.Drain(id)
			return fmt.Errorf("fleet: home %d: populate: %w", id, err)
		}
	}
	return nil
}

// Drain tears one home down. The router stops first, then the hub drains
// whatever its tables still held (so the rows reach the hub's consumers
// before the sources retire into the hub's cumulative books). This is
// the settle + final-flush + retire-accounting half of every lifecycle
// transition: remove, restart, replace and migrate all start here.
func (e *Engine) Drain(id uint64) bool {
	e.mu.Lock()
	h, ok := e.homes[id]
	if ok {
		delete(e.homes, id)
		e.reorderLocked()
	}
	e.mu.Unlock()
	if !ok {
		return false
	}
	h.Router.Stop()
	for _, name := range watchedTables {
		e.hub.Unwatch(telemetry.SourceID{Home: id, Table: name})
	}
	return true
}

// Cordon takes a home out of rotation: subsequent Steps skip it (no
// traffic, no settle, no measurement poll) while its router and
// telemetry sources stay live, so a sick home stops consuming its
// shard's step budget but remains inspectable. Returns false if the
// home is not on this engine.
func (e *Engine) Cordon(id uint64) bool {
	h, ok := e.Home(id)
	if !ok {
		return false
	}
	h.cordoned.Store(true)
	return true
}

// Uncordon returns a cordoned home to rotation. Returns false if the
// home is not on this engine.
func (e *Engine) Uncordon(id uint64) bool {
	h, ok := e.Home(id)
	if !ok {
		return false
	}
	h.cordoned.Store(false)
	return true
}

// Home returns one of the engine's homes by ID. In-process only: remote
// shard clients will expose vitals through Stats instead.
func (e *Engine) Home(id uint64) (*Home, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.homes[id]
	return h, ok
}

// Homes returns the engine's homes in ascending ID order — the order
// Step steps them in.
func (e *Engine) Homes() []*Home {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.order)
}

// reorderLocked rebuilds the stepping order as a new slice.
func (e *Engine) reorderLocked() {
	order := make([]*Home, 0, len(e.homes))
	for _, h := range e.homes {
		order = append(order, h)
	}
	slices.SortFunc(order, func(a, b *Home) int { return cmp.Compare(a.ID, b.ID) })
	e.order = order
}

// Step advances every home the engine holds by dt simulated seconds:
// traffic emits, each control path drains (Router.Settle — an
// event-driven wait on the punt/processed epoch, not a poll; see
// docs/CONTROL_PLANE.md), and each measurement plane polls flow and link
// state into its hwdb. Homes run
// one at a time in ascending ID order on the calling goroutine, so the
// per-home step sequence is deterministic. A home that fails does not
// stop later homes from stepping; Step returns the first failure. Step
// is a pure barrier: it does not advance any shared clock and does not
// flush telemetry — the coordinator owns both, once per fleet tick
// across all shards.
func (e *Engine) Step(dt float64) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("fleet: engine closed")
	}
	e.steps++
	step := e.steps
	order := e.order
	e.mu.Unlock()

	var first error
	for _, h := range order {
		if h.cordoned.Load() {
			continue
		}
		if e.cfg.OnStep != nil {
			e.cfg.OnStep(e.cfg.Index, h.ID, step)
		}
		if err := h.step(dt); err != nil && first == nil {
			first = fmt.Errorf("fleet: home %d: %w", h.ID, err)
		}
	}
	return first
}

// Sync flushes the engine's telemetry hub, delivering every row whose
// insert completed. The coordinator calls it after every step barrier,
// in shard order, so federated fan-out stays deterministic.
func (e *Engine) Sync() {
	e.hub.Flush()
}

// Steps returns how many ticks the engine has run.
func (e *Engine) Steps() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.steps
}

// Stats reports the engine's membership, stepping and telemetry
// accounting. Hub.Delivered+Hub.Lost covers every row any of the
// engine's home incarnations ever inserted (including drained ones).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	homes, steps := len(e.homes), e.steps
	e.mu.Unlock()
	return Stats{
		Shard: e.cfg.Index,
		Homes: homes,
		Steps: steps,
		Hub:   e.hub.Stats(),
	}
}

// TraceSnapshot merges the punt-lifecycle trace histograms of every home
// the engine currently holds. Safe to call concurrently with Step:
// snapshots read the tracers' atomics, never their locks.
func (e *Engine) TraceSnapshot() trace.Snapshot {
	var merged trace.Snapshot
	for _, h := range e.Homes() {
		merged.Merge(h.Router.Tracer.Snapshot())
	}
	return merged
}

// Hub exposes the engine's subscription hub, e.g. to attach a federating
// subscriber or read delivery/loss accounting.
func (e *Engine) Hub() *telemetry.Hub { return e.hub }

// Close stops every home in ascending ID order and closes the telemetry
// hub.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	homes := e.order
	e.homes = make(map[uint64]*Home)
	e.order = nil
	e.mu.Unlock()

	for _, h := range homes {
		h.Router.Stop()
	}
	e.hub.Close()
}
