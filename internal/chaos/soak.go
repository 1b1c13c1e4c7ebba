package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/flight"
	"repro/internal/health"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// SoakConfig parameterizes a time-compressed chaos soak: days of
// simulated churn and failure, compressed into seconds of wall clock by
// the shared simulated clock.
type SoakConfig struct {
	// Homes is the fleet size (default 16).
	Homes int
	// HostsPerHome is the steady-state device count per home, alternating
	// wired and wireless (default 2).
	HostsPerHome int
	// SimDays is the scheduled fault window in simulated days (default 2).
	SimDays float64
	// Seed derives the fleet, the schedule and every magnitude draw; a
	// failing soak reproduces from it (default 1).
	Seed int64
	// Shards overrides the fleet's shard-engine count (0 = fleet
	// default). Each shard runs its own engine and telemetry hub; the
	// soak's accounting invariant reads the federated books, so it holds
	// across any shard count.
	Shards int
	// IncidentDir, when set, receives one JSON incident bundle per
	// Sick/Cordoned verdict and per remediation action (see
	// flight.Incidents); empty keeps bundles in-memory only.
	IncidentDir string
	// Logf, when set, receives progress lines (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

const (
	// stepSec is simulated seconds per fleet tick; one tick is also one
	// health evaluation window. Larger steps compress harder: fewer ticks
	// (and settle barriers and polls) per simulated day, at coarser
	// evaluation granularity.
	stepSec = 180
	// recoverySteps bounds the post-schedule drain: extra ticks granted
	// for the last episodes' remediation to converge.
	recoverySteps = 80
)

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Homes <= 0 {
		c.Homes = 16
	}
	if c.HostsPerHome <= 0 {
		c.HostsPerHome = 2
	}
	if c.SimDays <= 0 {
		c.SimDays = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SoakResult reports what a soak did and how the books balanced.
type SoakResult struct {
	Seed    int64
	Homes   int
	Steps   int           // scheduled ticks run
	Extra   int           // recovery ticks used after the schedule
	SimSpan time.Duration // simulated time covered
	Wall    time.Duration // wall clock consumed

	Episodes    int // scheduled
	Injected    int // applied to a live home
	Skipped     int // target home gone at onset (replaced earlier)
	Unrecovered int // ended episodes whose home never re-converged

	Counts      health.Counts // verdicts and remediation actions
	FinalStates map[uint64]health.State

	HubDelivered uint64 // telemetry rows fanned out
	HubLost      uint64 // telemetry rows lost to ring wrap (accounted)
	Inserts      uint64 // hwdb inserts across every router incarnation

	Bundles  int                  // incident bundles recorded
	Recorder flight.RecorderStats // flight recorder retention books
}

// Soak runs the time-compressed chaos soak: bring up a fleet on a
// simulated clock, schedule seeded fault episodes across it, and drive
// step → evaluate → remediate until the schedule and its recovery drain
// complete. The returned error is the first violated invariant (fleet
// did not re-converge, remediation books unbalanced, telemetry rows
// unaccounted); the result is returned in either case so a failing run
// can be reported with its seed.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()

	sim := clock.NewSimulated()
	eng := newEngine()
	fl := fleet.New(fleet.Config{
		Clock:  sim,
		Seed:   cfg.Seed,
		Shards: cfg.Shards,
		HomeConfig: func(id uint64, c *core.Config) {
			c.WrapTransport = eng.faultsFor(id).wrap
		},
	})
	defer fl.Stop()
	eng.Bind(fl)

	// Flight recorder: attached before the first drain so its books start
	// from row zero; every chaos episode leaves a replayable record and
	// (via the incident hooks below) a postmortem bundle.
	const stepDur = stepSec * time.Second
	rec := flight.NewRecorder(flight.RecorderConfig{
		Window:    stepDur,
		Retention: 50 * stepDur,
	})
	rec.Attach(fl.Hub())
	if err := rec.AttachView(fl.DB(), telemetry.ViewTable); err != nil {
		return nil, fmt.Errorf("chaos: flight recorder (seed %d): %w", cfg.Seed, err)
	}
	inc, err := flight.NewIncidents(flight.IncidentConfig{
		Clock:     sim,
		Recorder:  rec,
		Trace:     fl.TraceStats,
		Placement: fl.PlacementFor,
		Dir:       cfg.IncidentDir,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: incident recorder (seed %d): %w", cfg.Seed, err)
	}

	homes, err := fl.AddHomes(cfg.Homes)
	if err != nil {
		return nil, fmt.Errorf("chaos: bring-up (seed %d): %w", cfg.Seed, err)
	}

	// Retired inserts: rows from router incarnations torn down by
	// remediation. Captured after teardown (the router is stopped, the
	// counters final, and the hub's final drain has already run).
	var retired uint64
	mon := health.New(health.Config{
		Clock:     sim,
		Hub:       fl.Hub(),
		OnVerdict: inc.OnVerdict,
		OnAction:  inc.OnAction,
		Vitals: func(id uint64) (health.Vitals, bool) {
			h, ok := fl.Home(id)
			if !ok {
				return health.Vitals{}, false
			}
			return health.Vitals{PuntLag: h.PuntLag(), SettleErrs: h.SettleErrs()}, true
		},
		Actions: health.Actions{
			Cordon:   fl.Cordon,
			Uncordon: fl.Uncordon,
			Restart: func(id uint64) error {
				old, had := fl.Home(id)
				_, err := fl.RestartHome(id)
				if had {
					retired += dbInserts(old.Router.DB)
				}
				if err == nil {
					// The restart rebuilt the home's network; re-arm any
					// still-active fabric fault so the episode holds.
					eng.reapply(id)
				}
				return err
			},
			Replace: func(id uint64) (uint64, error) {
				old, had := fl.Home(id)
				h, err := fl.ReplaceHome(id)
				if had {
					retired += dbInserts(old.Router.DB)
				}
				if err != nil {
					return 0, err
				}
				return h.ID, nil
			},
		},
	})

	ids := make([]uint64, 0, len(homes))
	for _, h := range homes {
		ids = append(ids, h.ID)
		mon.Track(h.ID)
	}

	s := &soakState{cfg: cfg, fl: fl}
	s.maintain() // initial device population (wired/wireless mix + apps)

	span := time.Duration(cfg.SimDays * 24 * float64(time.Hour))
	sched := buildSchedule(cfg.Seed, ids, span)
	eng.setSchedule(sched)
	logf("chaos soak: seed=%d homes=%d episodes=%d span=%s step=%ds",
		cfg.Seed, cfg.Homes, len(sched), span, stepSec)

	steps := int(span / stepDur)
	simNow := time.Duration(0)
	tick := func() error {
		if err := fl.Step(stepSec); err != nil && !errors.Is(err, core.ErrWedged) {
			return err
		}
		mon.Tick()
		eng.markRecovery(mon.State)
		s.maintain()
		return nil
	}
	for i := 0; i < steps; i++ {
		eng.tick(simNow)
		if err := tick(); err != nil {
			return nil, fmt.Errorf("chaos: step %d (seed %d): %w", i, cfg.Seed, err)
		}
		simNow += stepDur
		if (i+1)%(steps/8+1) == 0 {
			inj, skip, _ := eng.Counts()
			logf("chaos soak: %d/%d steps, %d injected, %d skipped, counts=%+v",
				i+1, steps, inj, skip, mon.Counts())
		}
	}

	// Drain: lift whatever is still active and grant the remediation loop
	// a bounded number of extra windows to converge.
	eng.finish()
	extra := 0
	for ; extra < recoverySteps; extra++ {
		_, _, unrec := eng.Counts()
		if unrec == 0 && mon.Converged() {
			break
		}
		if err := tick(); err != nil {
			return nil, fmt.Errorf("chaos: recovery step %d (seed %d): %w", extra, cfg.Seed, err)
		}
	}
	fl.Sync()

	res := &SoakResult{
		Seed:        cfg.Seed,
		Homes:       cfg.Homes,
		Steps:       steps,
		Extra:       extra,
		SimSpan:     span + time.Duration(extra)*stepDur,
		Wall:        time.Since(start),
		Episodes:    len(sched),
		Counts:      mon.Counts(),
		FinalStates: mon.States(),
	}
	res.Injected, res.Skipped, res.Unrecovered = eng.Counts()
	hubStats := fl.Hub().Stats()
	res.HubDelivered, res.HubLost = hubStats.Delivered, hubStats.Lost
	res.Inserts = retired
	for _, h := range fl.Homes() {
		res.Inserts += dbInserts(h.Router.DB)
	}
	res.Bundles = inc.Bundles()
	res.Recorder = rec.Stats()

	return res, s.verify(res, mon, fl, inc)
}

// verify checks the soak's invariants; the first violation is returned
// with the seed so the run reproduces.
func (s *soakState) verify(res *SoakResult, mon *health.Monitor, fl *fleet.Coordinator, inc *flight.Incidents) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("chaos soak (seed %d): %s", s.cfg.Seed, fmt.Sprintf(format, args...))
	}
	if res.Injected+res.Skipped != res.Episodes {
		return fail("episode books: %d injected + %d skipped != %d scheduled",
			res.Injected, res.Skipped, res.Episodes)
	}
	if res.Injected == 0 {
		return fail("no episode was injected")
	}
	if res.Unrecovered != 0 {
		return fail("%d episodes ended without their home re-converging to Healthy", res.Unrecovered)
	}
	if !mon.Converged() {
		return fail("fleet did not converge: states %v", res.FinalStates)
	}
	for id, st := range res.FinalStates {
		if st == health.Cordoned {
			return fail("home %d stuck Cordoned", id)
		}
	}
	for _, h := range fl.Homes() {
		if h.Cordoned() {
			return fail("home %d still cordoned in the fleet", h.ID)
		}
	}
	// Remediation fully accounted: every verdict and action the monitor
	// counted is a row in its audit tables.
	ht, _ := mon.DB().Table(health.TableHealth)
	rt, _ := mon.DB().Table(health.TableRemedy)
	hIns, _ := ht.Stats()
	rIns, _ := rt.Stats()
	if int(hIns) != res.Counts.Verdicts {
		return fail("verdict rows %d != verdicts counted %d", hIns, res.Counts.Verdicts)
	}
	if int(rIns) != res.Counts.Actions() {
		return fail("remedy rows %d != actions counted %d", rIns, res.Counts.Actions())
	}
	// No lost telemetry rows: every insert across every incarnation was
	// delivered or explicitly accounted as ring-wrap loss.
	if res.HubDelivered+res.HubLost != res.Inserts {
		return fail("telemetry books: delivered %d + lost %d != inserts %d",
			res.HubDelivered, res.HubLost, res.Inserts)
	}
	// Every chaos episode that produced a health verdict left a postmortem
	// artifact: one bundle per Sick/Cordoned verdict and per remediation
	// action, and every bundle is a row in the Incidents audit table.
	wantBundles := res.Counts.SickVerdicts + res.Counts.CordonedVerdicts + res.Counts.Actions()
	if res.Bundles != wantBundles {
		return fail("incident bundles %d != %d sick + %d cordoned verdicts + %d actions",
			res.Bundles, res.Counts.SickVerdicts, res.Counts.CordonedVerdicts, res.Counts.Actions())
	}
	it, _ := inc.DB().Table(flight.TableIncidents)
	iIns, _ := it.Stats()
	if int(iIns) != res.Bundles {
		return fail("incident rows %d != bundles recorded %d", iIns, res.Bundles)
	}
	// Flight recorder books compose with the hub's: every delivered row is
	// stored or compacted, and the recorder saw exactly what the hub
	// delivered (it was attached before the first drain).
	fs := res.Recorder
	if fs.Delivered+fs.ViewRows != fs.Stored+fs.Compacted {
		return fail("flight books: %d delivered + %d view rows != %d stored + %d compacted",
			fs.Delivered, fs.ViewRows, fs.Stored, fs.Compacted)
	}
	if fs.Delivered != res.HubDelivered || fs.Lost != res.HubLost {
		return fail("flight recorder saw %d delivered / %d lost, hub books say %d / %d",
			fs.Delivered, fs.Lost, res.HubDelivered, res.HubLost)
	}
	return nil
}

// soakState is the soak's device-maintenance side: keep every live,
// uncordoned home at its steady-state device count, re-joining after
// restarts and replacements (join attempts under an active fault may
// fail; they retry on later ticks).
type soakState struct {
	cfg SoakConfig
	fl  *fleet.Coordinator
}

// soakTarget is the upstream service the soak's device traffic talks to
// (a literal IP, so app traffic keeps flowing when DNS punts are held by
// a wedge).
const soakTarget = "203.0.113.10"

func (s *soakState) maintain() {
	for _, h := range s.fl.Homes() {
		if h.Cordoned() {
			continue
		}
		for h.Router.Net.HostCount() < s.cfg.HostsPerHome {
			if !s.joinOne(h) {
				break
			}
		}
	}
}

func (s *soakState) joinOne(h *fleet.Home) bool {
	rng := h.Rand()
	wireless := h.Router.Net.HostCount()%2 == 1
	// Within ~4.5 m of the router: a reliable baseline link, so loss
	// during interference episodes is attributable to the episode.
	pos := netsim.Pos{X: 1 + rng.Float64()*3, Y: rng.Float64() * 2}
	host, err := h.Join("", wireless, pos)
	if err != nil {
		// Joining under an active fault can fail; Join detached the host,
		// and a later maintenance pass retries.
		return false
	}
	// Steady low-rate telemetry traffic: enough packets per evaluation
	// window to make the loss ratio meaningful (~33 at the default
	// 180s window), small enough that a 2-day soak stays in seconds of
	// wall clock.
	host.AddApp(netsim.NewApp(netsim.AppIoT, soakTarget, 12))
	return true
}

// dbInserts sums total inserts across the watched tables of one router
// incarnation's hwdb.
func dbInserts(db *hwdb.DB) uint64 {
	var n uint64
	for _, name := range fleet.WatchedTables() {
		if t, ok := db.Table(name); ok {
			ins, _ := t.Stats()
			n += ins
		}
	}
	return n
}
