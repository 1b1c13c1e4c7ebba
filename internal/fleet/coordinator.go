package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Placement-event ops recorded in the coordinator's history.
const (
	// OpSpawn places a home on a shard (AddHome, the re-add half of
	// restart/replace).
	OpSpawn = "spawn"
	// OpDrain removes a home from its shard (RemoveHome, the teardown
	// half of restart/replace).
	OpDrain = "drain"
	// OpMigrate drains a home from one shard and re-places it on
	// another in a single recorded transition.
	OpMigrate = "migrate"
	// OpAbort cancels a spawn whose engine failed to bring the home up.
	OpAbort = "abort"
)

// PlacementEvent is one recorded home→shard lifecycle transition. The
// history is deterministic for a fixed seed and op sequence: events are
// appended under the same lock that allocates IDs, so even a concurrent
// AddHomes burst records its spawns in ascending-ID order.
type PlacementEvent struct {
	Seq  uint64 // 1-based event number
	Step uint64 // fleet ticks completed when the event was recorded
	Op   string // OpSpawn, OpDrain, OpMigrate, OpAbort
	Home uint64
	From int // source shard; -1 for spawn
	To   int // target shard; -1 for drain/abort
}

// Coordinator is the fleet's placement control plane: it owns home→shard
// assignment, the spawn/assign/drain/migrate/restart/replace lifecycle,
// the shared clock and the federated telemetry view, and drives N
// shard-local engines through the shardrpc.Backend contract. It is the
// single surface internal/health remediation and cmd/hwfleetd use.
type Coordinator struct {
	cfg     Config
	engines []*engine.Engine   // in-process home access (engines[i].Home)
	shards  []shardrpc.Backend // the contract the lifecycle drives
	fed     *telemetry.Federation

	mu       sync.Mutex
	place    map[uint64]int // home ID → shard index
	nextID   uint64
	steps    uint64
	eventSeq uint64
	history  []PlacementEvent
	closed   bool
}

// New creates an empty fleet; add homes with AddHome/AddHomes.
func New(cfg Config) *Coordinator {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 8 {
			cfg.Shards = 8
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Coordinator{cfg: cfg, place: make(map[uint64]int)}
	var hubs []*telemetry.Hub
	if len(cfg.WorkerAddrs) > 0 {
		// Remote fleet: one shardrpc client per worker address, each
		// feeding a hub that stands in for the worker's. No engines
		// exist in this process, so Home/Homes return nothing; everything
		// else — lifecycle, stepping, Stats, telemetry — is identical.
		c.cfg.Shards = len(cfg.WorkerAddrs)
		c.shards, hubs = newRemoteShards(c.cfg)
	} else {
		for i := 0; i < cfg.Shards; i++ {
			e := engine.New(engine.Config{
				Index:      i,
				Clock:      cfg.Clock,
				Seed:       cfg.Seed,
				HomeConfig: cfg.HomeConfig,
				OnStep:     cfg.onStep,
			})
			c.engines = append(c.engines, e)
			c.shards = append(c.shards, e)
			hubs = append(hubs, e.Hub())
		}
	}
	// Federate before any home exists, so every row any shard ever
	// delivers is folded into the global view.
	c.fed = telemetry.NewFederation(telemetry.FolderConfig{Clock: cfg.Clock}, hubs...)
	return c
}

// shardOf is the placement policy: ID modulo shard count keeps placement
// stable under churn — removing a home never reassigns any other home,
// and a re-added ID lands back on its old shard. Migrate is the only op
// that overrides it.
func shardOf(id uint64, shards int) int {
	return int(id % uint64(shards))
}

// Shards returns the number of shard engines.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Size returns the number of placed homes.
func (c *Coordinator) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.place)
}

// Steps returns how many fleet ticks have run.
func (c *Coordinator) Steps() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// event appends one placement-history entry. Callers hold c.mu.
func (c *Coordinator) event(op string, home uint64, from, to int) {
	c.eventSeq++
	c.history = append(c.history, PlacementEvent{
		Seq: c.eventSeq, Step: c.steps, Op: op, Home: home, From: from, To: to,
	})
}

// PlacementFor returns the most recent placement events involving one
// home, oldest-first, capped at max (<= 0 means no cap). The incident
// recorder slices this into its bundles so a postmortem shows how the
// home got to its current shard.
func (c *Coordinator) PlacementFor(home uint64, max int) []PlacementEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PlacementEvent
	for _, ev := range c.history {
		if ev.Home == home {
			out = append(out, ev)
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// AddHome brings up one more home and returns it, placed by the modulo
// policy.
func (c *Coordinator) AddHome() (*Home, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("fleet: closed")
	}
	id := c.nextID
	c.nextID++
	s := shardOf(id, len(c.shards))
	c.place[id] = s
	c.event(OpSpawn, id, -1, s)
	c.mu.Unlock()
	return c.assign(id, s)
}

// addAt reserves a caller-chosen ID on a specific shard and brings the
// home up there — RestartHome's re-add. The ID must not be live (a
// restart can race a remove); the auto-allocation sequence skips past it
// so later AddHome calls cannot collide.
func (c *Coordinator) addAt(id uint64, s int) (*Home, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("fleet: closed")
	}
	if _, live := c.place[id]; live {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: home %d already live", id)
	}
	if id >= c.nextID {
		c.nextID = id + 1
	}
	c.place[id] = s
	c.event(OpSpawn, id, -1, s)
	c.mu.Unlock()
	return c.assign(id, s)
}

// assign drives the engine half of a spawn for an already-reserved
// placement, registers the home with the federation and returns the
// in-process handle. On engine failure the reservation is rolled back
// and recorded as an abort.
func (c *Coordinator) assign(id uint64, s int) (*Home, error) {
	if err := c.shards[s].Assign(id); err != nil {
		c.mu.Lock()
		delete(c.place, id)
		c.event(OpAbort, id, s, -1)
		c.mu.Unlock()
		return nil, err
	}
	if len(c.engines) == 0 {
		// Remote shard: the home lives in the worker process. Track it in
		// the global folder without a host count (no handle reaches its
		// network) and return a nil handle — remote callers use IDs, not
		// Homes.
		c.fed.Folder().AddHome(id, nil)
		return nil, nil
	}
	h, ok := c.engines[s].Home(id)
	if !ok {
		// The engine accepted the assign but the home is already gone —
		// only a racing teardown does this.
		c.mu.Lock()
		delete(c.place, id)
		c.event(OpAbort, id, s, -1)
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: home %d torn down during assign", id)
	}
	c.fed.Folder().AddHome(id, h.Router.Net.HostCount)
	return h, nil
}

// AddHomes brings up n homes concurrently (bring-up is dominated by each
// home's controller join handshake, so parallelism matters at fleet
// scale). Homes that fail to start are reported but do not abort the
// rest; the successfully started homes are returned in ID order.
func (c *Coordinator) AddHomes(n int) ([]*Home, error) {
	out := make([]*Home, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, len(c.shards)*2)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = c.AddHome()
		}(i)
	}
	wg.Wait()
	homes := make([]*Home, 0, n)
	for _, h := range out {
		if h != nil {
			homes = append(homes, h)
		}
	}
	sort.Slice(homes, func(i, j int) bool { return homes[i].ID < homes[j].ID })
	return homes, errors.Join(errs...)
}

// Home returns a live home by ID (in-process handle). Remote fleets have
// no in-process handles: Home reports false for every ID even though the
// home is live on its worker — use Size, PlacementFor or ShardStats instead.
func (c *Coordinator) Home(id uint64) (*Home, bool) {
	c.mu.Lock()
	s, ok := c.place[id]
	c.mu.Unlock()
	if !ok || len(c.engines) == 0 {
		return nil, false
	}
	return c.engines[s].Home(id)
}

// Homes returns the live homes in ascending ID order across all shards.
func (c *Coordinator) Homes() []*Home {
	var out []*Home
	for _, e := range c.engines {
		out = append(out, e.Homes()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RemoveHome tears one home down via its shard's drain: router stop,
// final telemetry flush (the rows land in the federated cumulative
// totals before the sources retire), retire accounting, then the
// global folder drops the home's per-home state. Its contribution to
// the totals and its committed view rows remain.
func (c *Coordinator) RemoveHome(id uint64) bool {
	c.mu.Lock()
	s, ok := c.place[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	if !c.shards[s].Drain(id) {
		// Reserved but not yet live on the engine (a racing spawn), or
		// a concurrent remove won the drain.
		return false
	}
	c.fed.Folder().RemoveHome(id)
	c.mu.Lock()
	delete(c.place, id)
	c.event(OpDrain, id, s, -1)
	c.mu.Unlock()
	return true
}

// Migrate drains a home from its current shard and re-places the same ID
// on the target shard: the old incarnation settles, final-flushes and
// retires exactly as RemoveHome, then a fresh incarnation comes up on
// the target — there is no live state hand-off, per-home continuity is
// the telemetry books (cumulative totals, committed view rows, retired
// hub accounting), which survive intact. Returns the new incarnation.
func (c *Coordinator) Migrate(id uint64, target int) (*Home, error) {
	if target < 0 || target >= len(c.shards) {
		return nil, fmt.Errorf("fleet: no shard %d", target)
	}
	c.mu.Lock()
	from, ok := c.place[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: no home %d", id)
	}
	if !c.shards[from].Drain(id) {
		return nil, fmt.Errorf("fleet: no home %d", id)
	}
	c.fed.Folder().RemoveHome(id)
	c.mu.Lock()
	c.place[id] = target
	c.event(OpMigrate, id, from, target)
	c.mu.Unlock()
	return c.assign(id, target)
}

// Cordon takes a home out of rotation: subsequent Steps skip it (no
// traffic, no settle, no measurement poll) while its router and
// telemetry sources stay live, so a sick home stops consuming its
// shard's step budget but remains inspectable. Returns false if the home
// is not live.
func (c *Coordinator) Cordon(id uint64) bool {
	c.mu.Lock()
	s, ok := c.place[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	return c.shards[s].Cordon(id)
}

// Uncordon returns a cordoned home to rotation. Returns false if the
// home is not live.
func (c *Coordinator) Uncordon(id uint64) bool {
	c.mu.Lock()
	s, ok := c.place[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	return c.shards[s].Uncordon(id)
}

// RestartHome tears the home's router down and brings a fresh one up
// under the same ID on the same shard — the remediation loop's "turn it
// off and on again". The old incarnation's telemetry sources are retired
// with a final drain (their rows stay accounted) and the new incarnation
// re-watches the same SourceIDs; the new home comes back uncordoned with
// zeroed vitals. A home that was migrated off its modulo shard restarts
// where it lives, preserving the migration.
func (c *Coordinator) RestartHome(id uint64) (*Home, error) {
	c.mu.Lock()
	s, live := c.place[id]
	c.mu.Unlock()
	if !live {
		return nil, fmt.Errorf("fleet: no home %d", id)
	}
	if !c.RemoveHome(id) {
		return nil, fmt.Errorf("fleet: no home %d", id)
	}
	return c.addAt(id, s)
}

// ReplaceHome retires the home entirely and brings up a brand-new one
// under a fresh ID — the remediation loop's escalation when restarting
// in place did not cure the home. The caller learns the successor from
// the returned Home.
func (c *Coordinator) ReplaceHome(id uint64) (*Home, error) {
	if !c.RemoveHome(id) {
		return nil, fmt.Errorf("fleet: no home %d", id)
	}
	return c.AddHome()
}

// Step advances the whole fleet by dt simulated seconds: every engine
// steps its homes concurrently (deterministic per-home order inside each
// engine; see Engine.Step), then — once, fleet-wide — the shared
// simulated clock advances and telemetry syncs. A read of
// Totals()/Rates()/DB() immediately after Step reflects the rows this
// step inserted, without any fold pass.
func (c *Coordinator) Step(dt float64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("fleet: closed")
	}
	c.steps++
	c.mu.Unlock()

	var err error
	if len(c.shards) == 1 {
		// Single shard: step inline, no fan-out goroutine.
		err = c.stepShard(c.shards[0], dt)
	} else {
		errs := make([]error, len(c.shards))
		var wg sync.WaitGroup
		for i, sc := range c.shards {
			i, sc := i, sc
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.stepShard(sc, dt)
			}()
		}
		wg.Wait()
		err = errors.Join(errs...)
	}

	if sim, ok := c.cfg.Clock.(*clock.Simulated); ok {
		sim.Advance(time.Duration(dt * float64(time.Second)))
	}
	c.Sync()
	return err
}

// Sync flushes every shard hub (delivering every row whose insert
// completed) in shard order and commits the federated FleetStats view.
// Step calls it after every barrier; call it directly after out-of-band
// inserts (e.g. a manual PollMeasure) before reading the view.
func (c *Coordinator) Sync() {
	for _, sc := range c.shards {
		sc.Sync()
	}
	c.fed.Folder().Commit()
}

// DB returns the fleet-wide hwdb holding the continuously-maintained
// federated FleetStats view; query it with the same CQL the per-home
// interfaces use, e.g.
//
//	SELECT home, sum(bytes) FROM FleetStats GROUP BY home
func (c *Coordinator) DB() *hwdb.DB { return c.fed.Folder().View() }

// FleetTotals are cumulative fleet-wide counters, maintained live by the
// telemetry folder: reading them never scans a home's rings.
type FleetTotals struct {
	Homes   int // live homes
	Hosts   int // hosts across the fleet
	Flows   uint64
	Packets uint64
	Bytes   uint64
	Links   uint64
	Lost    uint64
}

// Totals returns the cumulative fleet-wide counters. They are maintained
// live by the federated folder; the read is O(1) — no ring is scanned,
// no home is visited, no shard is called. Hosts is as of the latest
// Sync/Step commit.
func (c *Coordinator) Totals() FleetTotals {
	t := c.fed.Folder().Totals()
	return FleetTotals{
		Homes:   t.Homes,
		Hosts:   t.Hosts,
		Flows:   t.Flows,
		Packets: t.Packets,
		Bytes:   t.Bytes,
		Links:   t.Links,
		Lost:    t.Lost,
	}
}

// Telemetry exposes the federated global folder: windowed per-home and
// per-device rates, per-home cumulative totals, and the view database.
// The telemetry.Server streaming endpoint is built over it and serves
// one coherent fleet regardless of shard count.
func (c *Coordinator) Telemetry() *telemetry.Folder { return c.fed.Folder() }

// Hub exposes the fleet's federated delta surface — register additional
// consumers with SubscribeFunc (they span every shard hub) or read the
// summed delivery/loss accounting.
func (c *Coordinator) Hub() *telemetry.Federation { return c.fed }

// ShardStats reports each engine's self-reported state in shard order.
// Per-shard hub books sum to the federation's.
func (c *Coordinator) ShardStats() []engine.Stats {
	out := make([]engine.Stats, len(c.shards))
	for i, sc := range c.shards {
		out[i] = sc.Stats()
	}
	return out
}

// TraceStats merges every shard's punt-lifecycle trace histograms into
// one fleet-wide per-stage latency summary (p50/p99/max/mean per
// contract transition). Safe to call from any goroutine, concurrently with
// Step: snapshots read the tracers' atomics, never their locks.
func (c *Coordinator) TraceStats() []trace.StageStats {
	var merged trace.Snapshot
	for _, sc := range c.shards {
		merged.Merge(sc.TraceSnapshot())
	}
	return merged.Stats()
}

// Stop tears every shard down concurrently (each engine stops its homes
// in ascending ID order and closes its hub) and marks the coordinator
// closed.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.place = make(map[uint64]int)
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, sc := range c.shards {
		wg.Add(1)
		go func(sc shardrpc.Backend) {
			defer wg.Done()
			sc.Close()
		}(sc)
	}
	wg.Wait()
}
