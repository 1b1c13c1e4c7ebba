// Package fleet orchestrates many independent Homework homes inside one
// process: the architectural seam between the paper's single-home router
// and the ROADMAP's production-scale, million-user deployment. Each home
// is a full core.Router — its own datapath, NOX controller modules, hwdb
// and simulated network — and since PR 8 the package is two layers with
// a written contract between them (docs/ARCHITECTURE.md "Fleet control
// plane"):
//
//   - Shard-local engines (internal/fleet/engine): each owns a set of
//     homes, steps them on the goroutine that calls it, keeps per-home
//     vitals and owns its own telemetry hub — no knowledge of global
//     membership, and no fold of its own.
//   - The placement layer (Coordinator): owns home→shard
//     assignment, the spawn/assign/drain/migrate/restart/replace
//     lifecycle and the shared clock, and drives engines through the
//     narrow shardrpc.Backend contract. It is the single surface
//     internal/health remediation and cmd/hwfleetd use.
//
// On top, a telemetry.Federation folds the N per-shard hubs (for remote
// shards, hubs the shardrpc clients feed) into one global Folder — the
// only fold any delta reaches — so telemetry.Server, hwctl and the soak
// gate read one coherent fleet — same FleetStats view, same exact
// delivered+lost accounting invariant — regardless of shard count. Fleet homes default
// to the in-process control transport (core.TransportInProcess): with
// controller and datapath co-resident there is no reason to pay
// loopback-TCP framing per home, and no per-home socket pair to exhaust
// descriptors at scale.
//
// Concurrency: shards are the one axis of stepping concurrency. Engines
// step concurrently, but within a tick each engine steps its homes one
// at a time, in ascending ID order, on the goroutine that steps the
// shard, and each home's control plane settles event-driven inside its
// step (Router.Settle — no polling; see docs/CONTROL_PLANE.md). Drive
// Step from one goroutine at a time; lifecycle calls (AddHome,
// RemoveHome, Migrate, ...) may race Step and take effect at the next
// tick. Reads (Totals, Telemetry, DB) are safe from any goroutine at
// any time.
package fleet

import (
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet/engine"
)

// Config parameterizes a fleet.
type Config struct {
	// Shards is the number of shard engines; homes are placed on shards
	// by ID modulo Shards, so placement is stable under churn. Engines
	// step concurrently, each stepping its own homes one at a time, so
	// Shards is the fleet's stepping concurrency. Default
	// min(8, GOMAXPROCS).
	Shards int
	// Deprecated: ignored. An engine steps its homes on the goroutine
	// that steps its shard; raise Shards for more concurrency. The field
	// stays only because the benchmark harness sets it, and goes in the
	// next change to the benchmark (ROADMAP queue (iii)).
	Workers int
	// Clock, when set, is shared by every home (pass a *clock.Simulated
	// for deterministic runs; Step advances it by the step interval —
	// the coordinator owns time, engines never advance it).
	Clock clock.Clock
	// Seed derives each home's wireless/churn randomness (home i uses
	// Seed+i), so fleets are reproducible and a home's trajectory does
	// not depend on which shard it lands on.
	Seed int64
	// HomeConfig, when set, mutates each new home's router config after
	// the fleet defaults (AutoPermit, Seed, Clock) are applied.
	HomeConfig func(id uint64, cfg *core.Config)

	// WorkerAddrs switches the fleet to remote shards: one shardrpc
	// worker address per shard (Shards is then len(WorkerAddrs) and
	// HomeConfig applies worker-side, not here). Homes live in the
	// worker processes, so in-process handles (Home, Homes) are
	// unavailable; lifecycle, stepping, Stats and federated telemetry
	// work identically. See docs/ARCHITECTURE.md "Fleet control plane".
	WorkerAddrs []string
	// StepTimeout bounds each shard's share of a fleet tick — in-process
	// and remote alike — so one wedged shard fails the tick with
	// ErrStepTimeout instead of hanging it (default 0: wait forever for
	// in-process shards; remote shards still enforce the shardrpc
	// client's own call timeout).
	StepTimeout time.Duration

	// onStep observes scheduler activity (tests only): it runs on the
	// goroutine stepping the home's shard, before the home is stepped,
	// with the home's shard as the first argument.
	onStep func(shard int, home uint64, step uint64)
}

// Home is one managed Homework deployment; it lives on exactly one shard
// engine at a time.
type Home = engine.Home

// watchedTables mirrors the engine's per-home watch set for the fleet's
// own accounting tests.
var watchedTables = engine.WatchedTables()

// WatchedTables returns (a copy of) the per-home table names every
// engine streams into its telemetry hub. External accounting — the chaos
// soak balances delivered+lost against total inserts across every router
// incarnation — iterates exactly this set.
func WatchedTables() []string { return engine.WatchedTables() }
