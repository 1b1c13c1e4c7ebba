// Package telemetry is the live fleet-wide streaming layer between the
// per-home Homework Databases and the management interfaces: a push-based
// subscription hub over hwdb tables, a background folder that keeps
// fleet-wide statistics (and windowed per-home/per-device rates — the
// fleet-scale analogue of the paper's bandwidth display) continuously
// current without an on-demand fold pass, and the fleet endpoint: the
// STATS, TRACE, REPLAY and FLEET-push verbs registered on an hwdb.Server
// over the folder's view, which streams per-home deltas to remote
// subscribers over the same HWDB/1 socket loop the per-home RPC uses.
//
// The hub inverts the polling design the fleet layer started with: rather
// than every reader re-scanning every home's rings, each hwdb insert sets
// a per-source dirty flag and rings a doorbell (no allocation, never
// blocking the inserter), and a single drain pass batch-reads each dirty
// table forward from a cursor (hwdb.Table.Tail) and fans the row delta out
// to subscribers. Loss is explicit at both levels: rows that wrap out of
// an hwdb ring before a drain are counted by Tail, and rows a slow channel
// subscriber cannot accept are counted per subscriber and folded into the
// Lost field of the next delta it does receive — every inserted row is
// either delivered or accounted, never silently gone.
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
// wrapped out of the hwdb ring before the hub could read them, or (for
// channel subscribers) dropped earlier at this subscriber's full buffer
// and reported in-band here.
type Delta struct {
	Source SourceID
	Rows   []hwdb.Row
	Lost   uint64
}

// HubConfig parameterizes a hub.
type HubConfig struct {
	// Manual disables the background pump goroutine: deltas move only
	// when a caller invokes Flush. Deterministic harnesses (the fleet
	// steps a simulated clock and flushes after each barrier) and
	// allocation tests run manual; real-time daemons leave it false.
	Manual bool
}

// Hub is an in-process, cursor-based subscription hub over hwdb tables.
// Watch registers tables; Subscribe/SubscribeFunc register consumers.
// All methods are safe for concurrent use.
type Hub struct {
	cfg  HubConfig
	wake chan struct{} // doorbell: buffered(1), rung by insert hooks
	quit chan struct{}
	done chan struct{}

	mu         sync.Mutex // registry: sources, subscribers
	sources    map[SourceID]*source
	order      []*source // sorted by (Home, Table); nil when stale
	subs       []*Subscription
	fns        []func(Delta)
	closed     bool
	retDeliver uint64 // accounting carried over from unwatched sources
	retLost    uint64

	// pumpMu serializes drain passes (pump, Flush, Unwatch's final
	// drain): source cursors must advance atomically with their fan-out
	// or two passes could double-deliver the same rows.
	pumpMu sync.Mutex
}

// source is one watched table plus its read cursor and accounting.
type source struct {
	id    SourceID
	table *hwdb.Table
	dirty atomic.Uint32
	gone  atomic.Bool

	// pumpMu-guarded:
	cursor    uint64
	delivered uint64
	lost      uint64
}

// HubStats is cumulative hub-level accounting, including sources that
// have since been unwatched. Delivered+Lost always equals the total
// inserts across every table the hub has finished draining.
type HubStats struct {
	Sources   int    // currently watched
	Delivered uint64 // rows fanned out to consumers
	Lost      uint64 // rows that wrapped out of an hwdb ring unread
}

// NewHub creates a hub; unless cfg.Manual is set a background pump
// goroutine drains dirty sources as inserts ring the doorbell.
func NewHub(cfg HubConfig) *Hub {
	h := &Hub{
		cfg:     cfg,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		sources: make(map[SourceID]*source),
	}
	if cfg.Manual {
		close(h.done)
	} else {
		go h.pump()
	}
	return h
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

	// The insert hot path: one atomic load, one CAS, one non-blocking
	// channel send. No allocation, and the inserter never waits on any
	// consumer — a slow subscriber costs accounted loss, not insert
	// latency.
	t.Notify(func() {
		if s.gone.Load() {
			return
		}
		if s.dirty.CompareAndSwap(0, 1) {
			select {
			case h.wake <- struct{}{}:
			default:
			}
		}
	})
	select {
	case h.wake <- struct{}{}:
	default:
	}
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
	h.drainSource(s, true)
	h.mu.Lock()
	h.retDeliver += s.delivered
	h.retLost += s.lost
	h.mu.Unlock()
	h.pumpMu.Unlock()
}

// Subscribe registers a channel consumer with the given buffer (default
// 64). Deltas the consumer cannot accept are dropped with their row count
// accounted and folded into the Lost field of the next delivered delta.
func (h *Hub) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{members: []Member{h}, ch: make(chan Delta, buf)}
	h.addSub(sub)
	return sub
}

// addSub attaches an existing subscription to this hub's fan-out — the
// seam a Federation uses to span one subscription (one channel, one loss
// book) across several shard hubs.
func (h *Hub) addSub(sub *Subscription) {
	h.mu.Lock()
	if !h.closed {
		h.subs = append(h.subs, sub)
	}
	h.mu.Unlock()
}

// removeSub detaches one subscription from this hub's fan-out.
func (h *Hub) removeSub(sub *Subscription) {
	h.mu.Lock()
	for i, s := range h.subs {
		if s == sub {
			h.subs = append(append([]*Subscription(nil), h.subs[:i]...), h.subs[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// SubscribeFunc registers a synchronous handler called inside the drain
// pass for every delta, in deterministic source order. Handlers must be
// fast and must not call back into the hub; the folder is the intended
// consumer.
func (h *Hub) SubscribeFunc(fn func(Delta)) {
	h.mu.Lock()
	if !h.closed {
		h.fns = append(h.fns, fn)
	}
	h.mu.Unlock()
}

// Flush synchronously drains every dirty source and returns once every
// resulting delta has been handed to every consumer (delivered or
// accounted as dropped). The insert hook sets the dirty flag before
// Insert returns, so after a Flush, reads of any SubscribeFunc consumer
// reflect all rows whose Insert returned before Flush was called — and
// idle sources cost one atomic load each, not a Tail lock acquisition.
func (h *Hub) Flush() {
	h.pumpMu.Lock()
	for _, s := range h.snapshot() {
		h.drainSource(s, false)
	}
	h.pumpMu.Unlock()
}

// Stats returns cumulative hub accounting (including retired sources).
func (h *Hub) Stats() HubStats {
	h.pumpMu.Lock()
	defer h.pumpMu.Unlock()
	h.mu.Lock()
	st := HubStats{Sources: len(h.sources), Delivered: h.retDeliver, Lost: h.retLost}
	srcs := h.snapshotLocked()
	h.mu.Unlock()
	for _, s := range srcs {
		st.Delivered += s.delivered
		st.Lost += s.lost
	}
	return st
}

// Close stops the pump and detaches every source's insert hook. Channel
// subscribers receive no further deltas.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for _, s := range h.sources {
		s.gone.Store(true)
	}
	h.mu.Unlock()
	close(h.quit)
	<-h.done
}

func (h *Hub) pump() {
	defer close(h.done)
	for {
		select {
		case <-h.quit:
			return
		case <-h.wake:
		}
		h.pumpMu.Lock()
		for _, s := range h.snapshot() {
			h.drainSource(s, false)
		}
		h.pumpMu.Unlock()
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

// drainSource batch-reads one source forward from its cursor and fans the
// delta out. Callers hold pumpMu. force reads regardless of the dirty
// flag and of gone (Unwatch's final drain); Flush and the pump only
// follow the dirty flags the insert hooks set.
func (h *Hub) drainSource(s *source, force bool) {
	if s.gone.Load() && !force {
		return
	}
	if s.dirty.Swap(0) == 0 && !force {
		return
	}
	rows, inserts, lost := s.table.Tail(s.cursor)
	s.cursor = inserts
	if len(rows) == 0 && lost == 0 {
		return
	}
	s.delivered += uint64(len(rows))
	s.lost += lost
	d := Delta{Source: s.id, Rows: rows, Lost: lost}
	h.mu.Lock()
	fns, subs := h.fns, h.subs
	h.mu.Unlock()
	for _, fn := range fns {
		fn(d)
	}
	for _, sub := range subs {
		sub.deliver(d)
	}
}

// Subscription is one channel consumer of one hub or (through a
// Federation) several members — in-process hubs and remote-shard relays
// alike: the channel, the loss accounting and the drop books are shared
// across every member the subscription is attached to.
type Subscription struct {
	members []Member
	ch      chan Delta

	pendingLost atomic.Uint64 // loss not yet reported in-band
	dropped     atomic.Uint64 // rows dropped at this subscriber's buffer
	closed      atomic.Bool
}

// C returns the delta channel. Deltas arrive in drain order; a delta's
// Lost covers both ring-wrap loss and rows previously dropped at this
// subscriber's buffer.
func (s *Subscription) C() <-chan Delta { return s.ch }

// Dropped returns how many rows have been dropped at this subscriber's
// full buffer so far. Each is also reported in-band via a later delta's
// Lost field (or remains visible in PendingLost).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// PendingLost returns loss accrued since the last delivered delta — rows
// this subscriber missed that no delta has reported in-band yet. The sum
// of delivered rows, delivered Lost fields and PendingLost equals the
// rows fanned out to this subscriber plus their ring-wrap losses.
func (s *Subscription) PendingLost() uint64 { return s.pendingLost.Load() }

// Close detaches the subscription from every member it is attached to;
// no further deltas are delivered. The channel is left open (draining
// buffered deltas is fine).
func (s *Subscription) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, m := range s.members {
		m.removeSub(s)
	}
}

// deliver hands one delta to the subscriber without ever blocking the
// drain pass. Accrued loss rides in-band on the next delta that fits.
func (s *Subscription) deliver(d Delta) {
	if s.closed.Load() {
		return
	}
	if p := s.pendingLost.Swap(0); p > 0 {
		d.Lost += p
	}
	select {
	case s.ch <- d:
	default:
		s.pendingLost.Add(uint64(len(d.Rows)) + d.Lost)
		s.dropped.Add(uint64(len(d.Rows)))
	}
}
