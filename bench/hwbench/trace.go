package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet/engine"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was made; Parent is the ID of the span that caused this one
// (-1 for a root); spans of one tick share its Tick number.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Tick   int    `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. The remote
// workload records worker-side spans on the server's goroutine while the
// driver waits for the reply, hence the lock. A nil recorder records
// nothing, so the timed run carries no tracing cost beyond a nil check.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	tick  int
	root  int // the current fleet.tick span, for worker-side children
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now(), root: -1} }

// enable switches recording on for the measured phase only.
func (t *spanRecorder) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *spanRecorder) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Tick: t.tick, Start: int64(time.Since(t.t0))})
	return id
}

func (t *spanRecorder) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (the gaps
// between worker-side spans, which are time on the wire).
func (t *spanRecorder) add(name string, parent int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on || end < start {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent, Tick: t.tick, Start: start, End: end})
}

// beginTick opens the tick's root span and publishes it to the worker side.
func (t *spanRecorder) beginTick(tick int) int {
	t.mu.Lock()
	t.tick = tick
	t.mu.Unlock()
	id := t.begin("fleet.tick", -1)
	t.mu.Lock()
	t.root = id
	t.mu.Unlock()
	return id
}

func (t *spanRecorder) currentTick() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

func (t *spanRecorder) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// last returns the most recent span of the given name under parent.
func (t *spanRecorder) last(name string, parent int) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0 && i >= parent; i-- {
		if s := t.spans[i]; s.Name == name && s.Parent == parent {
			return s, true
		}
	}
	return span{}, false
}

// driveHomes is engine.Home.step, by hand: the same three exported calls,
// per home in ID order on the calling goroutine, with a span around each.
func (r *rig) driveHomes(parent int) error {
	var first error
	for _, hr := range r.homes {
		rt := hr.home.Router
		id := r.tr.begin("netsim.step", parent)
		rt.Net.Step(tickDT)
		r.tr.end(id)
		id = r.tr.begin("core.settle", parent)
		err := rt.Settle()
		r.tr.end(id)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("home %d: %w", hr.home.ID, err)
			}
			continue
		}
		id = r.tr.begin("measure.poll", parent)
		rt.PollMeasure()
		r.tr.end(id)
	}
	return first
}

// tracedTick replaces Coordinator.Step on the traced repetition. In
// process it drives the homes, the clock and the sync itself. Remote, the
// tick has to cross the wire, so it calls Coordinator.Step and the wrapped
// backend records the worker side; what lies between the worker-side spans
// is the shardrpc layer.
func (r *rig) tracedTick() error {
	tick := r.tr.beginTick(r.tick)
	defer r.tr.end(tick)
	if !r.remote() {
		err := r.driveHomes(tick)
		id := r.tr.begin("clock.advance", tick)
		r.clk.Advance(time.Duration(tickDT * float64(time.Second)))
		r.tr.end(id)
		id = r.tr.begin("fleet.sync", tick)
		r.co.Sync()
		r.tr.end(id)
		return err
	}
	err := r.co.Step(tickDT)
	now := int64(time.Since(r.tr.t0))
	if tick < 0 {
		return err // warm-up: nothing recorded
	}
	bs, ok1 := r.tr.last("backend.step", tick)
	by, ok2 := r.tr.last("backend.sync", tick)
	if ok1 && ok2 {
		// STEP request, STEP response and SYNC request legs (the
		// coordinator's clock advance sits between the last two) ...
		r.tr.add("shardrpc.step_wire", tick, r.tr.get(tick).Start, bs.Start)
		r.tr.add("shardrpc.step_wire", tick, bs.End, by.Start)
		// ... and the SYNC response leg: the delta batch encoded, sent,
		// decoded, ingested by the relay and committed by the federation.
		r.tr.add("shardrpc.sync_wire", tick, by.End, now)
	}
	return err
}

// tracedBackend is the shardrpc.Backend handed to the server on the traced
// remote repetition: the engine, with Step hand-driven and both calls timed
// worker-side.
type tracedBackend struct {
	*engine.Engine
	r *rig
}

func (b *tracedBackend) Step(dt float64) error {
	id := b.r.tr.begin("backend.step", b.r.tr.currentTick())
	defer b.r.tr.end(id)
	return b.r.driveHomes(id)
}

func (b *tracedBackend) Sync() {
	id := b.r.tr.begin("backend.sync", b.r.tr.currentTick())
	b.Engine.Sync()
	b.r.tr.end(id)
}

// budgetRow is one line of the tick-budget table.
type budgetRow struct {
	Name   string
	Calls  int
	SelfNS int64 // span time not covered by child spans
}

// budget sums self time per span name over the spans under fleet.tick
// (ticks only; the probes between ticks are reported separately).
func (t *spanRecorder) budget() (rows []budgetRow, tickNS int64, ticks int) {
	children := make(map[int]int64)
	inTick := make(map[int]bool)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
		if s.Name == "fleet.tick" || (s.Parent >= 0 && inTick[s.Parent]) {
			inTick[s.ID] = true
		}
	}
	byName := make(map[string]*budgetRow)
	for _, s := range t.spans {
		if !inTick[s.ID] {
			continue
		}
		if s.Name == "fleet.tick" {
			tickNS += s.End - s.Start
			ticks++
		}
		row := byName[s.Name]
		if row == nil {
			row = &budgetRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Calls++
		row.SelfNS += s.End - s.Start - children[s.ID]
	}
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNS > rows[j].SelfNS })
	return rows, tickNS, ticks
}

// total sums the duration of every span of the given name.
func (t *spanRecorder) total(name string) (ns int64, calls int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			calls++
		}
	}
	return ns, calls
}

// printBudget writes the ROADMAP tick-budget table: self time per layer in
// microseconds per home-step, and its share of the hand-driven tick.
func (t *spanRecorder) printBudget(w io.Writer, homes int) {
	rows, tickNS, ticks := t.budget()
	if ticks == 0 {
		return
	}
	steps := float64(homes * ticks)
	fmt.Fprintf(w, "tick budget (traced repetition, %d ticks x %d homes; self time = span minus children)\n", ticks, homes)
	fmt.Fprintf(w, "  %-22s %10s %14s %7s\n", "span", "calls", "us/home-step", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-22s %10d %14.2f %6.1f%%\n", row.Name, row.Calls,
			float64(row.SelfNS)/1e3/steps, 100*float64(row.SelfNS)/float64(tickNS))
	}
	fmt.Fprintf(w, "  %-22s %10d %14.2f %6.1f%%\n", "(hand-driven tick)", ticks, float64(tickNS)/1e3/steps, 100.0)
}

// write dumps every span to bench/out/trace-<workload>.json.
func (t *spanRecorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
