// Package datapath implements a software OpenFlow 1.0 switch: the Open
// vSwitch stand-in at the heart of the Homework router. A Datapath owns a
// set of ports, a flow table with priority and wildcard matching, and a
// secure channel to a controller over any oftransport.Transport — the
// classic TCP wire path (ConnectTCP), a queued in-process endpoint
// (ConnectTransport with one end of oftransport.Pair), or, when controller
// and switch share a process, one end of an oftransport.Direct channel
// (AttachDirect): then what the controller sends waits in an inbox that
// the outermost call into the datapath drains as it returns, so nothing
// runs on a goroutine of the datapath's own. Orderly channel shutdown
// surfaces as ErrChannelClosed; protocol failures as *ChannelError.
//
// Concurrency: a Datapath is safe for concurrent use. Ports and the flow
// table are guarded by read-write locks with atomic counters on the
// lookup path, so frames may be received on many ports at once while
// flow-mods are applied; anything retained from a
// caller's buffer (a punted frame, which its packet-in's data is a view
// of, and the frames held behind it) is copied first. Every punt is
// counted before it is sent (PuntCount), the producer half of the control
// plane's settle protocol. A new flow costs one packet-in: further misses
// of the flow at the same clock reading wait behind that punt and leave,
// in order, when the controller's answer references its buffer
// (docs/CONTROL_PLANE.md, P1 and P2). A reader in the same process, the
// measurement plane, reads flow and port counters in place through
// StatsView rather than through stats requests. Those counters are exact
// between calls into the datapath: a run of one flow's frames adds up what
// they owe and commits it, once, before its call returns (batchRun), and
// flow-removeds, stats replies and StatsView walks are all built between
// calls.
package datapath

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
)

// FlowEntry is one row of the flow table with its counters. The counters
// are atomics so the lookup path can charge them under the table's read
// lock, letting all ports match concurrently. The frames a run matches to
// the entry without a lookup each are charged together, before the run's
// call into the datapath returns (batchRun): the counters are exact
// whenever no call is in progress. Fields are ordered so that an entry is
// 144 bytes, and newEntry's pair fills a 288-byte size class.
type FlowEntry struct {
	Match       openflow.Match
	Priority    uint16
	IdleTimeout uint16 // seconds; 0 = never
	HardTimeout uint16 // seconds; 0 = never
	SendFlowRem bool
	Cookie      uint64
	Actions     []openflow.Action

	Installed time.Time

	packets  atomic.Uint64
	bytes    atomic.Uint64
	lastUsed atomic.Int64 // UnixNano of the last match; 0 = never

	// The counters as the stats reader last took them (StatsView): only its
	// walk writes them, under the read lock, or the entry's removal or
	// replacement.
	takenPackets, takenBytes uint64
}

// PacketCount returns how many packets have matched the entry.
func (e *FlowEntry) PacketCount() uint64 { return e.packets.Load() }

// ByteCount returns how many bytes have matched the entry.
func (e *FlowEntry) ByteCount() uint64 { return e.bytes.Load() }

// take returns what the entry's counters gained since the stats reader last
// took them, and records that it has now taken them.
func (e *FlowEntry) take() (packets, bytes uint64) {
	p, b := e.packets.Load(), e.bytes.Load()
	packets, bytes = p-e.takenPackets, b-e.takenBytes
	e.takenPackets, e.takenBytes = p, b
	return packets, bytes
}

// charge adds matched packets to the entry's counters, the last of them
// matched at clock reading nanos. lastUsed only moves forward: a charge
// committed after a later one (a call's run, behind the run of the frames
// it took from the inbox, which read the clock later) keeps the later
// reading, so that the table's due bound stays early, never late.
func (e *FlowEntry) charge(packets, bytes uint64, nanos int64) {
	e.packets.Add(packets)
	e.bytes.Add(bytes)
	for {
		last := e.lastUsed.Load()
		if last >= nanos || e.lastUsed.CompareAndSwap(last, nanos) {
			return
		}
	}
}

// deadline is the earliest the entry can expire if nothing matches it after
// last (UnixNano, its install or its last match): its hard deadline or its
// idle deadline from last, whichever comes first; math.MaxInt64 for an
// entry with neither timeout. A match only moves the idle deadline later.
func (e *FlowEntry) deadline(last int64) int64 {
	d := int64(math.MaxInt64)
	if e.HardTimeout > 0 {
		d = e.Installed.UnixNano() + int64(e.HardTimeout)*int64(time.Second)
	}
	if e.IdleTimeout > 0 {
		d = min(d, last+int64(e.IdleTimeout)*int64(time.Second))
	}
	return d
}

// expiry reports whether the entry has expired at nowNanos, and why: the
// hard timeout first.
func (e *FlowEntry) expiry(nowNanos int64) (reason uint8, expired bool) {
	installed := e.Installed.UnixNano()
	if e.HardTimeout > 0 && nowNanos-installed >= int64(e.HardTimeout)*int64(time.Second) {
		return openflow.FlowRemovedHardTimeout, true
	}
	if e.IdleTimeout > 0 {
		last := e.lastUsed.Load()
		if last == 0 {
			last = installed
		}
		if nowNanos-last >= int64(e.IdleTimeout)*int64(time.Second) {
			return openflow.FlowRemovedIdleTimeout, true
		}
	}
	return 0, false
}

// flowKey identifies an entry for strict operations.
type flowKey struct {
	match    openflow.Match
	priority uint16
}

// FlowTable is a priority-ordered flow table with an exact-match fast path:
// entries whose match has no wildcards live in a hash map keyed by the
// canonical match, everything else is scanned in priority order.
type FlowTable struct {
	mu    sync.RWMutex
	exact map[openflow.Match]*FlowEntry
	wild  []*FlowEntry // sorted by priority descending, stable

	lookups atomic.Uint64
	matched atomic.Uint64

	// gen counts the changes made to the table (Add, modify, delete, and
	// an expiry sweep that removes something, each bumping it under the
	// write lock). A reader that saw a
	// frame match an entry may charge the next frame of the same key to
	// that entry without a lookup while gen reads as it did before the
	// lookup; see batchRun.
	gen atomic.Uint64

	// due is a bound on the earliest deadline of any entry (UnixNano;
	// math.MaxInt64 with none due ever): an Add lowers it to the new entry's
	// deadline, a sweep that walks the table sets it to the earliest
	// deadline among the entries it keeps, and a sweep before it returns
	// without taking the lock. Matches only move deadlines later, so the
	// bound may be early, never late.
	due atomic.Int64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	t := &FlowTable{exact: make(map[openflow.Match]*FlowEntry)}
	t.due.Store(math.MaxInt64)
	return t
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.exact) + len(t.wild)
}

// Counters returns total lookups and matches since creation.
func (t *FlowTable) Counters() (lookups, matched uint64) {
	return t.lookups.Load(), t.matched.Load()
}

// Lookup finds the highest-priority entry matching a decoded frame and
// charges the entry's counters. Exact entries win over wildcarded ones, as
// in OpenFlow 1.0. Lookups run under the read lock — counters are atomics
// — so the per-packet path never serializes ports behind a single mutex.
// The datapath's runs charge the frames they match without a lookup when
// they move to another entry or end (batchRun), so Counters and the
// entries' counters are exact between calls into the datapath, not inside
// one.
func (t *FlowTable) Lookup(d *packet.Decoded, inPort uint16, frameLen int, now time.Time) *FlowEntry {
	key := openflow.MatchFromFrame(d, inPort)
	return t.lookup(&key, frameLen, now.UnixNano())
}

// lookup is Lookup for a caller that has the frame's exact-match key, which
// is all of the frame the table reads.
func (t *FlowTable) lookup(key *openflow.Match, frameLen int, nanos int64) *FlowEntry {
	t.lookups.Add(1)
	return t.match(key, frameLen, nanos)
}

// charge commits frames a run matched to e without a lookup each (batchRun):
// every one counts as a lookup and a match.
func (t *FlowTable) charge(e *FlowEntry, frames, bytes uint64, nanos int64) {
	t.lookups.Add(frames)
	t.matched.Add(frames)
	e.charge(frames, bytes, nanos)
}

// match finds and charges a frame's entry without counting a lookup: the
// datapath's second look at a frame whose lookup already missed.
func (t *FlowTable) match(key *openflow.Match, frameLen int, nanos int64) *FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.exact[*key]; ok {
		t.matched.Add(1)
		e.charge(1, uint64(frameLen), nanos)
		return e
	}
	for _, e := range t.wild {
		if e.Match.Matches(key) {
			t.matched.Add(1)
			e.charge(1, uint64(frameLen), nanos)
			return e
		}
	}
	return nil
}

// Add installs an entry, replacing any entry with an identical match and
// priority (counters reset, per the OpenFlow ADD semantics; what the stats
// reader had not taken of the old entry passes to the new one). When
// checkOverlap is set, an overlapping entry at the same priority is an
// error; the scan walks the exact map and wildcard list in place rather
// than materializing a copy of the table per flow-mod.
func (t *FlowTable) Add(e *FlowEntry, checkOverlap bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	if checkOverlap {
		conflict := false
		t.each(nil, 0, false, openflow.PortNone, func(o *FlowEntry) {
			conflict = conflict || o.Priority == e.Priority && o.Match != e.Match && o.Match.Overlaps(&e.Match)
		})
		if conflict {
			return &openflow.ErrorMsg{ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.FlowModOverlap}
		}
	}
	if old := t.removeLocked(flowKey{e.Match, e.Priority}); old != nil {
		// The reader's next take of e hands over what it had not taken of
		// old: e's baseline starts that far below zero (the counters wrap).
		p, b := old.take()
		e.takenPackets, e.takenBytes = -p, -b
	}
	if d := e.deadline(e.Installed.UnixNano()); d < t.due.Load() {
		t.due.Store(d)
	}
	if e.Match.IsExact() {
		t.exact[e.Match] = e
		return nil
	}
	idx := sort.Search(len(t.wild), func(i int) bool { return t.wild[i].Priority < e.Priority })
	t.wild = append(t.wild, nil)
	copy(t.wild[idx+1:], t.wild[idx:])
	t.wild[idx] = e
	return nil
}

// modify updates the actions of the entries a modify with (m, priority,
// strict) selects. It reports how many entries were updated.
func (t *FlowTable) modify(m *openflow.Match, priority uint16, strict bool, actions []openflow.Action) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	n := 0
	t.each(m, priority, strict, openflow.PortNone, func(e *FlowEntry) {
		e.Actions = actions
		n++
	})
	return n
}

// delete removes the entries a delete with (m, priority, strict, outPort)
// selects and returns them in removalOrder, so the datapath can emit
// flow-removed messages.
func (t *FlowTable) delete(m *openflow.Match, priority uint16, strict bool, outPort uint16) []*FlowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	var removed []*FlowEntry
	t.filter(func(e *FlowEntry) bool {
		if selects(e, m, priority, strict, outPort) {
			removed = append(removed, e)
			return false
		}
		return true
	})
	slices.SortFunc(removed, removalOrder)
	return removed
}

// selects reports whether a modify, delete or stats request for m applies
// to e: strict, the entry of m and priority itself; otherwise every entry m
// subsumes, or, with m nil, every entry. An outPort other than PortNone
// narrows that to the entries with an output to it.
func selects(e *FlowEntry, m *openflow.Match, priority uint16, strict bool, outPort uint16) bool {
	if strict && (e.Match != *m || e.Priority != priority) || !strict && m != nil && !m.Subsumes(&e.Match) {
		return false
	}
	return outPort == openflow.PortNone || outputsTo(e.Actions, outPort)
}

func outputsTo(actions []openflow.Action, port uint16) bool {
	for _, a := range actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == port {
			return true
		}
		if enq, ok := a.(*openflow.ActionEnqueue); ok && enq.Port == port {
			return true
		}
	}
	return false
}

// expiry is one entry an expiry sweep removed, and why.
type expiry struct {
	e      *FlowEntry
	reason uint8
}

// expire removes entries whose idle or hard timeout has passed, appending
// each with its reason to dst, which the caller reuses, in removalOrder.
// Before the table's earliest deadline it returns at once; a sweep bumps gen
// only when it removes something.
func (t *FlowTable) expire(dst []expiry, now time.Time) []expiry {
	nowN := now.UnixNano()
	if nowN < t.due.Load() {
		return dst
	}
	start := len(dst)
	next := int64(math.MaxInt64)
	keep := func(e *FlowEntry) bool {
		if reason, ok := e.expiry(nowN); ok {
			dst = append(dst, expiry{e, reason})
			return false
		}
		last := e.lastUsed.Load()
		if last == 0 {
			last = e.Installed.UnixNano()
		}
		next = min(next, e.deadline(last))
		return true
	}
	t.mu.Lock()
	t.filter(keep)
	t.due.Store(next)
	if len(dst) > start {
		t.gen.Add(1)
	}
	t.mu.Unlock()
	slices.SortFunc(dst[start:], func(a, b expiry) int { return removalOrder(a.e, b.e) })
	return dst
}

// removalOrder is the order an expiry sweep or a delete reports its
// removals in, so that the removal reports — and the Flows rows
// measurement writes from them — and the flow-removed messages leave in
// the same order on every run, not in map order: install time, then
// five-tuple and in_port, then the rest of the match and the priority,
// which no two entries share.
func removalOrder(a, b *FlowEntry) int {
	x, y := &a.Match, &b.Match
	return cmp.Or(
		a.Installed.Compare(b.Installed),
		bytes.Compare(x.NWSrc[:], y.NWSrc[:]),
		bytes.Compare(x.NWDst[:], y.NWDst[:]),
		cmp.Compare(x.NWProto, y.NWProto),
		cmp.Compare(x.TPSrc, y.TPSrc),
		cmp.Compare(x.TPDst, y.TPDst),
		cmp.Compare(x.InPort, y.InPort),
		bytes.Compare(x.DLSrc[:], y.DLSrc[:]),
		bytes.Compare(x.DLDst[:], y.DLDst[:]),
		cmp.Compare(x.DLType, y.DLType),
		cmp.Compare(x.DLVLAN, y.DLVLAN),
		cmp.Compare(x.DLVLANPCP, y.DLVLANPCP),
		cmp.Compare(x.NWTOS, y.NWTOS),
		cmp.Compare(x.Wildcards, y.Wildcards),
		cmp.Compare(a.Priority, b.Priority),
	)
}

// Entries returns a snapshot of all entries matched by m (nil = all),
// optionally filtered by an output port. It counts the matches first, so
// the snapshot holds exactly them, however large the table.
func (t *FlowTable) Entries(m *openflow.Match, outPort uint16) []*FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	t.each(m, 0, false, outPort, func(*FlowEntry) { n++ })
	out := make([]*FlowEntry, 0, n)
	t.each(m, 0, false, outPort, func(e *FlowEntry) { out = append(out, e) })
	return out
}

// flowStats returns the flow-stats entry of every table entry
// Entries(m, outPort) returns.
func (t *FlowTable) flowStats(m *openflow.Match, outPort uint16, now time.Time) []openflow.FlowStats {
	entries := t.Entries(m, outPort)
	dst := make([]openflow.FlowStats, len(entries))
	for i, e := range entries {
		dur := now.Sub(e.Installed)
		dst[i] = openflow.FlowStats{
			TableID: 0, Match: e.Match,
			DurationSec:  uint32(dur / time.Second),
			DurationNsec: uint32(dur % time.Second),
			Priority:     e.Priority,
			IdleTimeout:  e.IdleTimeout, HardTimeout: e.HardTimeout,
			Cookie:      e.Cookie,
			PacketCount: e.PacketCount(), ByteCount: e.ByteCount(),
			Actions: e.Actions,
		}
	}
	return dst
}

// each calls fn for every entry selects picks. The caller holds the lock.
func (t *FlowTable) each(m *openflow.Match, priority uint16, strict bool, outPort uint16, fn func(*FlowEntry)) {
	for _, e := range t.exact {
		if selects(e, m, priority, strict, outPort) {
			fn(e)
		}
	}
	for _, e := range t.wild {
		if selects(e, m, priority, strict, outPort) {
			fn(e)
		}
	}
}

// filter keeps the entries keep reports true for and drops the rest. The
// caller holds the write lock.
func (t *FlowTable) filter(keep func(*FlowEntry) bool) {
	for k, e := range t.exact {
		if !keep(e) {
			delete(t.exact, k)
		}
	}
	kept := t.wild[:0]
	for _, e := range t.wild {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	clear(t.wild[len(kept):])
	t.wild = kept
}

// removeLocked removes the entry of k, if any, and returns it.
func (t *FlowTable) removeLocked(k flowKey) *FlowEntry {
	if e, ok := t.exact[k.match]; ok && e.Priority == k.priority {
		delete(t.exact, k.match)
		return e
	}
	for i, e := range t.wild {
		if e.Match == k.match && e.Priority == k.priority {
			t.wild = append(t.wild[:i], t.wild[i+1:]...)
			return e
		}
	}
	return nil
}
