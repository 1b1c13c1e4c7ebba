package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fleet"
)

// counters are the program's own books for one repetition, compared between
// repetitions of one seed by sameCounters.
type counters struct {
	Punts, Dispatched, Polls, Rows uint64 // deltas over the measured phase
	Lookups, Matched               uint64 // deltas over the measured phase
	FlowTableLen                   int    // summed over homes, end of phase
	RowsDropped                    uint64 // ring wraps, whole repetition
	Inserts                        uint64 // rows ever inserted into watched tables
	Delivered, Lost                uint64 // federation books, whole repetition
	DeliveredPhase                 uint64 // delivered during the measured phase
	SentBytes                      uint64 // payload bytes the apps emitted
}

// repResult is everything one repetition measured.
type repResult struct {
	setup                                  time.Duration
	ticks, fsetup, fquery, hquery, refresh []float64 // per-tick samples: ms, us, us, us, ms
	cpu                                    time.Duration
	mallocs, bytes                         uint64
	heapAlloc                              uint64
	gcCycles                               uint32
	gcPause                                time.Duration
	installUS                              []float64 // FlowPerf.install_us of the rows that carry one
	puntBarrierMeanUS                      float64
	ctr                                    counters
	attempted, failed                      int
	homes                                  int
}

// sample reads the cumulative per-home books.
func (r *rig) sample() counters {
	var c counters
	watched := fleet.WatchedTables()
	for _, hr := range r.homes {
		rt := hr.home.Router
		// The datapath sweeps idle flows on a goroutine of its own when
		// the simulated clock advances; sweep here so the table length
		// read below does not depend on whether that goroutine has run.
		rt.Datapath.SweepExpired()
		c.Punts += rt.Datapath.PuntCount()
		_, dispatched, _, _, _ := rt.Tracer.Counts()
		c.Dispatched += dispatched
		c.Polls += rt.Measure.Polls()
		lookups, matched := rt.Datapath.Table().Counters()
		c.Lookups += lookups
		c.Matched += matched
		c.FlowTableLen += rt.Datapath.Table().Len()
		for _, name := range watched {
			if t, ok := rt.DB.Table(name); ok {
				ins, dropped := t.Stats()
				c.Inserts += ins
				c.RowsDropped += dropped
			}
		}
		for _, s := range hr.apps {
			c.SentBytes += s.app.SentBytes()
		}
	}
	st := r.co.Hub().Stats()
	c.Delivered, c.Lost = st.Delivered, st.Lost
	return c
}

// runRep builds the workload, warms it up, runs the measured phase of
// `ticks` ticks with the probes between ticks, checks the outputs and tears
// everything down. With a recorder it is the traced repetition: the same
// phase, hand-driven, with a span around every call into a layer.
func runRep(def workloadDef, seed int64, ticks int, tr *spanRecorder) (*repResult, error) {
	t0 := time.Now()
	r, err := build(def, seed, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		r.stop()
		r = nil
		runtime.GC()
		debug.FreeOSMemory()
	}()
	for i := 0; i < warmupTicks; i++ {
		r.step()
	}
	res := &repResult{setup: time.Since(t0), homes: len(r.homes)}
	for _, hr := range r.homes {
		res.attempted += len(hr.hosts) // every host joined and bound, or build failed
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := r.sample()
	cpu0 := cpuTime()
	r.tr.enable(true)
	for i := 0; i < ticks; i++ {
		res.ticks = append(res.ticks, msOf(r.step()))
		ps, err := r.probes()
		if err != nil {
			return nil, err
		}
		res.fsetup = append(res.fsetup, usOf(ps.flowSetup))
		res.fquery = append(res.fquery, usOf(ps.fleetQuery))
		res.hquery = append(res.hquery, usOf(ps.homeQuery))
		res.refresh = append(res.refresh, msOf(ps.uiRefresh))
	}
	r.tr.enable(false)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.mallocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.gcCycles, res.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapAlloc = m1.HeapAlloc
	res.attempted += 5 * ticks // a step and four probes per tick
	res.failed = r.failed

	// The last probes inserted nothing the hub has not seen only if a
	// sync follows them.
	r.co.Sync()
	c1 := r.sample()
	res.ctr = c1
	res.ctr.Punts, res.ctr.Dispatched, res.ctr.Polls = c1.Punts-c0.Punts, c1.Dispatched-c0.Dispatched, c1.Polls-c0.Polls
	res.ctr.Rows = c1.Inserts - c0.Inserts
	res.ctr.Lookups, res.ctr.Matched = c1.Lookups-c0.Lookups, c1.Matched-c0.Matched
	res.ctr.DeliveredPhase = c1.Delivered - c0.Delivered
	res.failed += int(c1.Lost) // a telemetry row lost is an operation failed

	if err := r.check(c1); err != nil {
		return nil, err
	}
	for _, hr := range r.homes {
		q, err := hr.home.Router.DB.Query("SELECT install_us FROM FlowPerf WHERE install_us > 0")
		if err != nil {
			return nil, fmt.Errorf("install_us query: %w", err)
		}
		for _, row := range q.Rows {
			res.installUS = append(res.installUS, float64(row[0].Int))
		}
	}
	for _, st := range r.co.TraceStats() {
		if st.Stage == "punt->barrier" {
			res.puntBarrierMeanUS = st.MeanNS / 1e3
		}
	}
	return res, nil
}

// check holds the end-of-repetition output checks. A failure names the
// check; the run then exits non-zero without printing a number.
func (r *rig) check(c counters) error {
	if flows := r.co.Totals().Flows; flows == 0 {
		return fmt.Errorf("check totals_flows: fleet stepped %d ticks but folded no flows", r.tick)
	}
	if c.Punts != c.Dispatched {
		return fmt.Errorf("check punts_dispatched: %d punts, %d dispatched", c.Punts, c.Dispatched)
	}
	if c.Delivered+c.Lost != c.Inserts {
		return fmt.Errorf("check telemetry_books: delivered %d + lost %d != inserts %d", c.Delivered, c.Lost, c.Inserts)
	}
	for _, hr := range r.homes {
		for _, s := range hr.apps {
			// The tick an app is attached on resolves its target; every
			// later tick emits rate*dt bytes, whole packets only.
			want := float64(s.app.RateBps) * tickDT * float64(r.tick-s.start-1)
			if got := float64(s.app.SentBytes()); math.Abs(got-want) > float64(s.app.PacketSize) {
				return fmt.Errorf("check app_sent_bytes: home %d %s on %s: sent %.0f bytes, rate x simulated time is %.0f",
					hr.home.ID, s.app.Kind, s.host.MAC, got, want)
			}
		}
	}
	return nil
}
