// Package telemetry is the live fleet-wide streaming layer between the
// per-home Homework Databases and the management interfaces: a push-based
// hub over hwdb tables, a folder that keeps fleet-wide
// statistics (and windowed per-home/per-device rates — the
// fleet-scale analogue of the paper's bandwidth display) continuously
// current without an on-demand fold pass, and the fleet endpoint: the
// STATS, TRACE, REPLAY and FLEET-push verbs registered on an hwdb.Server
// over the folder's view, which streams per-home deltas to remote
// subscribers over the same HWDB/1 socket loop the per-home RPC uses.
//
// The hub inverts the polling design the fleet layer started with: rather
// than every reader re-scanning every home's rings, each hwdb insert sets
// a per-source dirty flag (no allocation, never blocking the inserter),
// and each Flush batch-reads every dirty table forward from its cursor
// into the one hwdb.RowBuilder the hub keeps and hands the row deltas to
// every consumer function registered with SubscribeFunc, inside the
// drain. A drain goes in passes that each fill at most 64 KB of every
// builder array, so a source far behind reaches consumers as several
// deltas, in order, and a flush's transient memory is bounded. A delta's rows are lent for that call
// only: the next pass writes over them, so a consumer that keeps rows
// copies them (hwdb.RowBuilder.Copy) before it returns. A hub starts no
// goroutine: deltas move only when its owner flushes it. A hub can also be
// fed from outside with Ingest — the coordinator's image of a remote
// worker's hub — and hands those deltas on the same way, with rows lent
// for the Ingest call. Loss is explicit: rows that wrap out of an hwdb ring
// before a drain are counted by the read, and rows a remote stream lost
// on the wire are counted by AccountLost — every inserted row is either
// delivered or accounted, never silently gone.
//
// Each delta reaches exactly one Folder: the Federation's, which folds
// every member hub of a fleet into one global view.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hwdb"
)

// SourceID names one watched table: which home it belongs to and which of
// the home's tables it is (hwdb.TableFlows, TableLinks, TableLeases, ...).
type SourceID struct {
	Home  uint64
	Table string
}

// Delta is one batched change notification: the rows inserted into Source
// since the previous delta, oldest-first, plus the number of rows lost —
// wrapped out of the hwdb ring before the hub could read them, or
// reported lost in-band by the remote stream an ingested delta came from.
// Rows are valid for the consumer call that receives the delta, and no
// longer; a consumer that keeps them keeps a copy.
type Delta struct {
	Source SourceID
	Rows   []hwdb.Row
	Lost   uint64
}

// HubConfig parameterizes a hub.
type HubConfig struct {
	// Deprecated: ignored. A hub drains only when Flush is called; it
	// has no background pump. The field stays only because the benchmark
	// harness sets it, and goes in the next change to the benchmark
	// (ROADMAP queue (ix)).
	Manual bool
}

// Hub is an in-process, cursor-based delta hub over hwdb tables. Watch
// registers tables, or Ingest feeds it deltas read elsewhere;
// SubscribeFunc registers consumers. All methods are safe for concurrent
// use.
type Hub struct {
	mu      sync.Mutex // registry: sources, consumers
	sources map[SourceID]*source
	order   []*source // sorted by (Home, Table); nil when stale
	fns     []func(Delta)
	closed  bool

	// pumpMu serializes drain passes (Flush, Unwatch's final drain) and
	// ingests: source cursors must advance atomically with their fan-out
	// or two passes could double-deliver the same rows. It also guards
	// the books no watched source holds — retired sources' and ingested
	// deltas' — and what a drain pass reuses from the last: its deltas
	// slice and its row builder.
	pumpMu    sync.Mutex
	delivered uint64
	lost      uint64
	deltas    []Delta
	rows      hwdb.RowBuilder
}

// source is one watched table plus its read cursor and accounting.
type source struct {
	id    SourceID
	table *hwdb.Table
	dirty atomic.Uint32
	gone  atomic.Bool

	// pumpMu-guarded:
	cursor    uint64
	end       uint64 // the insert count a drain reads up to: the table's at its start
	upto      uint64 // the insert count a drain pass reads up to
	delivered uint64
	lost      uint64
}

// HubStats is cumulative hub-level accounting, including sources that
// have since been unwatched. Delivered+Lost always equals the total
// inserts across every table the hub has finished draining, plus every
// row ingested or accounted lost from outside.
type HubStats struct {
	Sources   int    // currently watched (0 for a hub fed only by Ingest)
	Delivered uint64 // rows fanned out to consumers
	Lost      uint64 // rows that wrapped out of an hwdb ring, or a wire, unread
}

// NewHub creates an empty hub. It starts no goroutine: Flush drains it.
func NewHub(HubConfig) *Hub {
	return &Hub{sources: make(map[SourceID]*source)}
}

// Watch registers a table under id and hooks its insert path. Rows
// already retained in the ring are delivered on the first drain (the
// cursor starts at zero). Watching an id twice replaces the old source
// after a final drain, as Unwatch would.
func (h *Hub) Watch(id SourceID, t *hwdb.Table) {
	h.mu.Lock()
	for {
		if h.closed {
			h.mu.Unlock()
			return
		}
		if _, exists := h.sources[id]; !exists {
			break
		}
		// Replace: retire the old source (with its final drain), then
		// re-check — Close or another Watch may have raced the unlock.
		h.mu.Unlock()
		h.Unwatch(id)
		h.mu.Lock()
	}
	s := &source{id: id, table: t}
	s.dirty.Store(1) // deliver pre-existing rows on the first drain
	h.sources[id] = s
	h.order = nil
	h.mu.Unlock()

	// The insert hot path: one atomic load and one CAS. No allocation,
	// and the inserter never waits on any consumer: consumers run in the
	// drain pass, not on the insert.
	t.Notify(func() {
		if !s.gone.Load() {
			s.dirty.CompareAndSwap(0, 1)
		}
	})
}

// Unwatch removes a source after a final drain, so rows inserted before
// the call are still delivered and the source's accounting is retired
// into the hub totals. The hwdb insert hook becomes a no-op.
func (h *Hub) Unwatch(id SourceID) {
	h.mu.Lock()
	s, ok := h.sources[id]
	if ok {
		delete(h.sources, id)
		h.order = nil
	}
	h.mu.Unlock()
	if !ok {
		return
	}
	s.gone.Store(true)
	h.pumpMu.Lock()
	h.finalDrain(s)
	h.delivered += s.delivered
	h.lost += s.lost
	h.pumpMu.Unlock()
}

// Ingest fans out one delta read elsewhere — a remote worker's hub
// stream, decoded off the wire — exactly as a drain pass would fan out a
// watched source's, and adds its rows and in-band Lost to the hub's
// books.
func (h *Hub) Ingest(d Delta) {
	h.pumpMu.Lock()
	h.delivered += uint64(len(d.Rows))
	h.lost += d.Lost
	h.fanOut(d)
	h.pumpMu.Unlock()
}

// AccountLost adds rows to the hub's loss books that a remote stream
// fanned out but never delivered here — batches a worker committed while
// the connection was down. The rows are gone (a worker does not
// retransmit committed batches) but never uncounted.
func (h *Hub) AccountLost(rows uint64) {
	h.pumpMu.Lock()
	h.lost += rows
	h.pumpMu.Unlock()
}

// Source is what a delta consumer registers on: a shard's *Hub or a
// fleet's *Federation. The handler runs inside each drain pass, for every
// delta, in deterministic source order, and the delta's rows are valid
// for the call only.
type Source interface {
	SubscribeFunc(func(Delta))
}

var (
	_ Source = (*Hub)(nil)
	_ Source = (*Federation)(nil)
)

// SubscribeFunc registers a synchronous handler called inside the drain
// pass for every delta, in deterministic source order. The delta's rows
// are lent for the call: a handler that keeps any copies them before it
// returns (hwdb.RowBuilder.Copy), as flight.Recorder and the shard
// server do. Handlers must be fast and must not call back into the hub;
// the folder is the intended consumer.
func (h *Hub) SubscribeFunc(fn func(Delta)) {
	h.mu.Lock()
	if !h.closed {
		h.fns = append(h.fns, fn)
	}
	h.mu.Unlock()
}

// Flush synchronously drains every dirty source and returns once every
// resulting delta has been handed to every consumer. The insert hook sets the dirty flag before
// Insert returns, so after a Flush, reads of any SubscribeFunc consumer
// reflect all rows whose Insert returned before Flush was called — and
// idle sources cost one atomic load each, not a Tail lock acquisition. A
// source with more new rows than one drain pass holds reaches consumers
// as several deltas, in order.
func (h *Hub) Flush() {
	h.pumpMu.Lock()
	h.drain()
	h.pumpMu.Unlock()
}

// Stats returns cumulative hub accounting (including retired sources and
// ingested deltas).
func (h *Hub) Stats() HubStats {
	h.pumpMu.Lock()
	defer h.pumpMu.Unlock()
	h.mu.Lock()
	st := HubStats{Sources: len(h.sources), Delivered: h.delivered, Lost: h.lost}
	srcs := h.snapshotLocked()
	h.mu.Unlock()
	for _, s := range srcs {
		st.Delivered += s.delivered
		st.Lost += s.lost
	}
	return st
}

// Close detaches every source's insert hook: later flushes drain
// nothing, and no consumer can register.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, s := range h.sources {
		s.gone.Store(true)
	}
}

// passBytes bounds what one drain pass reserves of each of the builder's
// arrays: hwdb.RowBuilder keeps an array up to this size for its next
// fill, so a drain that takes many passes carves them all from one set of
// arrays.
const passBytes = 64 << 10

// drain drains every dirty source up to its insert count as of the drain's
// start, in passes: each pass sizes the hub's row builder for the new rows
// of the next sources in order (ReserveTail), as far as passBytes lets it,
// copies them into the builder (Tail), fans their deltas out and resets
// the builder. A source that is far behind — a home's pre-filled rings —
// is copied over several passes, a delta each, and the sources after it
// wait for the passes that reach them. The builder keeps its arrays for
// the next drain, so a drain of one pass allocates nothing unless it
// copies more than any pass before it (and then one array of each kind the
// builder carves), however many sources it drains; a drain that took more
// passes than one drops them, so a catch-up is not retained. Callers hold
// pumpMu.
func (h *Hub) drain() {
	srcs := h.snapshot()
	for _, s := range srcs {
		s.end = s.cursor
		if !s.gone.Load() && s.dirty.Swap(0) != 0 {
			s.end, _ = s.table.Stats()
		}
	}
	passes := 0
	for next := 0; next < len(srcs); passes++ {
		next += h.pass(srcs[next:])
	}
	if passes > 1 {
		h.rows = hwdb.RowBuilder{}
	}
}

// pass is one drain pass over srcs, in order, and returns how many of them
// it finished: the next pass starts at the first it did not, which it may
// have read part of. Callers hold pumpMu.
func (h *Hub) pass(srcs []*source) int {
	rows := &h.rows
	for _, s := range srcs {
		s.upto = s.cursor
		if s.cursor == s.end { // clean, or dirty with nothing inserted since
			continue
		}
		s.upto = min(rows.ReserveTail(s.table, s.cursor, passBytes), s.end)
		if s.upto < s.end { // the builder is full
			break
		}
	}
	deltas := h.deltas[:0]
	done := 0
	for _, s := range srcs {
		if s.upto != s.cursor {
			got, lost := rows.Tail(s.table, s.cursor, s.upto)
			s.cursor = s.upto
			s.delivered += uint64(len(got))
			s.lost += lost
			deltas = append(deltas, Delta{Source: s.id, Rows: got, Lost: lost})
		}
		if s.cursor != s.end {
			break
		}
		done++
	}
	h.fanOut(deltas...)
	// The deltas' rows were lent for the fan-out: keep the scratch and the
	// builder's arrays, not the rows.
	clear(deltas)
	h.deltas = deltas[:0]
	rows.Reset()
	return done
}

// fanOut hands each delta, in order, to every consumer. Callers hold
// pumpMu.
func (h *Hub) fanOut(deltas ...Delta) {
	if len(deltas) == 0 {
		return
	}
	h.mu.Lock()
	fns := h.fns
	h.mu.Unlock()
	for _, d := range deltas {
		for _, fn := range fns {
			fn(d)
		}
	}
}

// snapshot returns the watched sources in deterministic (Home, Table)
// order, so fan-out and view-row ordering are reproducible run to run.
func (h *Hub) snapshot() []*source {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshotLocked()
}

func (h *Hub) snapshotLocked() []*source {
	if h.order == nil {
		h.order = make([]*source, 0, len(h.sources))
		for _, s := range h.sources {
			h.order = append(h.order, s)
		}
		sort.Slice(h.order, func(i, j int) bool {
			a, b := h.order[i].id, h.order[j].id
			if a.Home != b.Home {
				return a.Home < b.Home
			}
			return a.Table < b.Table
		})
	}
	return h.order
}

// finalDrain reads a retired source forward from its cursor, whatever its
// dirty flag says, and fans the delta out: Unwatch's last read of it.
// Callers hold pumpMu.
func (h *Hub) finalDrain(s *source) {
	rows, inserts, lost := s.table.Tail(s.cursor)
	s.cursor = inserts
	if len(rows) == 0 && lost == 0 {
		return
	}
	s.delivered += uint64(len(rows))
	s.lost += lost
	h.fanOut(Delta{Source: s.id, Rows: rows, Lost: lost})
}
