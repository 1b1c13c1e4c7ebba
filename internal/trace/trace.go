// Package trace is the always-on punt-lifecycle observability layer: every
// packet-in a datapath punts gets a span whose monotonic timestamps are
// stamped at each control-plane contract stage — punt, dispatch, emit,
// credit, barrier (docs/CONTROL_PLANE.md) — into a lock-free ring, and
// folded as it is stamped into log-bucketed per-stage latency histograms
// with p50/p99/max. The ring starts at initialSlots and grows with the
// spans in flight: Punt doubles it when the next span would land on one
// the barrier has not passed, up to the tracer's cap, and at the cap it
// overwrites oldest.
//
// Concurrency contract: every method is safe for concurrent use and every
// method is nil-receiver-safe (a nil *Tracer is a disabled tracer; callers
// stamp unconditionally). The span-record path — Punt, BeginDispatch,
// EndDispatch, Credit — allocates nothing once the ring holds the spans in
// flight (a growth allocates the doubled ring, at most log2(cap/16) times
// in a tracer's life): slots are atomics, histogram folds are atomic adds,
// and timestamps come from a monotonic package epoch (never the simulated
// clock — stage latency is real time).
// Correlation is by FIFO order, the same assumption the settle protocol's
// punt and dispatch counts rest on: the n-th punt the datapath counts is the n-th packet-in its
// controller dispatches, one at a time, so the consumer side keeps
// its own dispatch/credit/barrier counters and never needs a tag on the
// wire. A span still being stamped when its ring slot is recycled is
// dropped from the histograms and counted in Overwritten, never blocked
// on; readers validate the slot sequence before and after reading.
//
// Growth has one writer: Punt has one caller at a time (the datapath
// executes one call at a time). It freezes the old ring, copies its live
// slots into the doubled one and publishes that through an atomic pointer.
// A stamp that lands on a frozen ring — possible only when the consumer
// runs on another goroutine, as over TCP — is dropped and counted in
// Overwritten like a stamp on a recycled slot; on a direct channel the
// punt and its stamps run on one goroutine and nothing races. Concurrent
// Punts stay memory-safe, but a span punted during another's growth may be
// lost, and is counted in Overwritten when it is stamped.
package trace

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes a span's contract-stage timestamps in lifecycle order.
type Stage int

// The five punt-lifecycle contract stages (docs/CONTROL_PLANE.md): the
// datapath punts, the controller begins the dispatch, the handler chain
// returns with its flow-mods/packet-outs emitted, the dispatch is credited
// (just before the controller counts it), and a barrier reply confirms the
// emissions are live.
const (
	StagePunt Stage = iota
	StageDispatch
	StageEmit
	StageCredit
	StageBarrier
	numStages
)

// Per-stage transition histograms, in span order. The last is the whole
// span: punt to barrier.
const (
	tPuntDispatch = iota
	tDispatchEmit
	tEmitCredit
	tCreditBarrier
	tPuntBarrier
	numTransitions
)

var transitionNames = [numTransitions]string{
	"punt->dispatch",
	"dispatch->emit",
	"emit->credit",
	"credit->barrier",
	"punt->barrier",
}

// DefaultRingSize is the per-tracer span-ring cap when New is given zero:
// the most slots a ring grows to, enough for every in-flight span of a
// wedged home between barriers. A ring starts at initialSlots and reaches
// the cap only when that many spans are in flight at once.
const DefaultRingSize = 1024

// initialSlots is the slots a ring starts with (or its cap, if smaller):
// a home's spans in flight between barriers are one to three when its
// control path keeps up.
const initialSlots = 16

// epoch anchors the monotonic timestamp source. time.Since reads the
// monotonic clock and allocates nothing, and an anchored epoch keeps the
// stamps small and wall-adjustment-proof.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// ring is one generation of the span ring. frozen is set before a growth
// copies the ring: a stamp that lands after it may be missing from the
// copy, so the stamper drops it.
type ring struct {
	mask   uint64
	frozen atomic.Bool
	slots  []slot
}

func newRing(n int) *ring { return &ring{mask: uint64(n - 1), slots: make([]slot, n)} }

// slot is one ring entry: the span's sequence number plus its five stage
// timestamps. seq is stored last on reuse (and zeroed first), so a stage
// writer or reader that observes the expected seq also observes a fully
// reinitialized slot.
type slot struct {
	seq atomic.Uint64
	ts  [numStages]atomic.Int64
}

// Tracer records punt-lifecycle spans for one datapath/controller pair.
// The producer (datapath) calls Punt; the consumer (the controller) calls
// BeginDispatch/EndDispatch and Credit per packet-in; whoever round-trips a
// barrier calls BarrierReply, and so does a drain on a direct channel.
type Tracer struct {
	ring  atomic.Pointer[ring]
	limit int // the most slots the ring grows to; a power of two

	punt     atomic.Uint64 // producer: spans opened
	dispatch atomic.Uint64 // consumer: spans dispatched
	credit   atomic.Uint64 // consumer: spans credited
	barrier  atomic.Uint64 // barrier watermark; writers hold barrierMu

	barrierMu   sync.Mutex
	overwritten atomic.Uint64

	hist [numTransitions]hist
}

// New creates a tracer whose span ring grows to at most ringSize slots
// (rounded up to a power of two; <= 0 means DefaultRingSize). The ring
// starts at initialSlots, or at the cap if that is smaller.
func New(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	n := 1
	for n < ringSize {
		n <<= 1
	}
	t := &Tracer{limit: n}
	t.ring.Store(newRing(min(n, initialSlots)))
	return t
}

// Punt opens the next span and stamps its punt stage. Call it where the
// datapath counts the punt: after it is counted, before the packet-in is
// handed to the transport. Zero allocations, but for the doubled ring when
// the next span's slot still holds one the barrier has not passed.
func (t *Tracer) Punt() {
	if t == nil {
		return
	}
	seq := t.punt.Add(1)
	r := t.ring.Load()
	if seq > t.barrier.Load()+uint64(len(r.slots)) && len(r.slots) < t.limit {
		r = t.grow(r, seq)
	}
	s := &r.slots[seq&r.mask]
	s.seq.Store(0) // invalidate while the slot is reinitialized
	for k := StageDispatch; k < numStages; k++ {
		s.ts[k].Store(0)
	}
	s.ts[StagePunt].Store(nowNS())
	s.seq.Store(seq)
}

// grow replaces old, which the span seq is about to lap before the barrier
// has passed it, with a ring twice as large (or more, up to the cap, should
// more spans be in flight) holding old's live spans, and returns it. Only
// Punt calls it. old is frozen before the copy, so a stamp that lands on it
// afterwards is dropped rather than lost silently.
func (t *Tracer) grow(old *ring, seq uint64) *ring {
	lo, n := t.barrier.Load(), 2*len(old.slots)
	for seq > lo+uint64(n) && n < t.limit {
		n *= 2
	}
	r := newRing(min(n, t.limit))
	old.frozen.Store(true)
	// The live spans are those after the barrier, and old holds only the
	// newest len(old.slots) of them.
	from := max(lo+1, seq-uint64(len(old.slots)))
	for q := from; q < seq; q++ {
		src, dst := &old.slots[q&old.mask], &r.slots[q&r.mask]
		if src.seq.Load() != q {
			continue
		}
		for k := range src.ts {
			dst.ts[k].Store(src.ts[k].Load())
		}
		dst.seq.Store(q)
	}
	t.ring.Store(r)
	return r
}

// stamp writes stage st's timestamp into span seq's slot of r and returns
// the previous stage's timestamp. ok is false when the slot was recycled
// for a newer span or r was frozen by a growth (the stamp is dropped and
// counted), or the previous stage never landed.
func (t *Tracer) stamp(r *ring, seq uint64, st Stage, now int64) (prev int64, ok bool) {
	s := &r.slots[seq&r.mask]
	if s.seq.Load() != seq {
		t.overwritten.Add(1)
		return 0, false
	}
	s.ts[st].Store(now)
	prev = s.ts[st-1].Load()
	if r.frozen.Load() {
		t.overwritten.Add(1)
		return 0, false
	}
	if prev == 0 || s.seq.Load() != seq {
		return 0, false
	}
	return prev, true
}

// BeginDispatch stamps the dispatch stage of the next undispatched span —
// the controller calls it just before running the handler chain
// for one packet-in. Zero allocations.
func (t *Tracer) BeginDispatch() {
	if t == nil {
		return
	}
	seq := t.dispatch.Add(1)
	now := nowNS()
	if prev, ok := t.stamp(t.ring.Load(), seq, StageDispatch, now); ok {
		t.hist[tPuntDispatch].observe(now - prev)
	}
}

// EndDispatch stamps the emit stage of the span BeginDispatch opened: the
// handler chain has returned, so its flow-mods and packet-outs are on the
// wire. Zero allocations.
func (t *Tracer) EndDispatch() {
	if t == nil {
		return
	}
	seq := t.dispatch.Load()
	now := nowNS()
	if prev, ok := t.stamp(t.ring.Load(), seq, StageEmit, now); ok {
		t.hist[tDispatchEmit].observe(now - prev)
	}
}

// Credit stamps the credit stage of the next n uncredited spans — called
// just before the controller counts a dispatch, once per dispatch. Zero
// allocations.
func (t *Tracer) Credit(n int) {
	if t == nil || n <= 0 {
		return
	}
	now := nowNS()
	lo := t.credit.Load()
	r := t.ring.Load()
	for i := uint64(1); i <= uint64(n); i++ {
		if prev, ok := t.stamp(r, lo+i, StageCredit, now); ok {
			t.hist[tEmitCredit].observe(now - prev)
		}
	}
	t.credit.Store(lo + uint64(n))
}

// BarrierReply stamps the barrier stage of every credited span the
// barrier watermark has not passed yet: a barrier reply proves all
// emissions up to the current credit point are live in the datapath.
// Serialized internally (barriers are off the hot path).
func (t *Tracer) BarrierReply() {
	if t == nil {
		return
	}
	t.barrierMu.Lock()
	defer t.barrierMu.Unlock()
	hi := t.credit.Load()
	lo := t.barrier.Load()
	if hi <= lo {
		return
	}
	// Spans older than the ring are gone regardless; skip, don't scan.
	r := t.ring.Load()
	if held := uint64(len(r.slots)); hi-lo > held {
		t.overwritten.Add(hi - lo - held)
		lo = hi - held
	}
	now := nowNS()
	for seq := lo + 1; seq <= hi; seq++ {
		prev, ok := t.stamp(r, seq, StageBarrier, now)
		if !ok {
			continue
		}
		t.hist[tCreditBarrier].observe(now - prev)
		s := &r.slots[seq&r.mask]
		if p := s.ts[StagePunt].Load(); p != 0 && s.seq.Load() == seq {
			t.hist[tPuntBarrier].observe(now - p)
		}
	}
	t.barrier.Store(hi)
}

// DispatchLatencyNS returns the elapsed time from the currently
// dispatching span's punt stamp to now — the punt-to-here latency a
// handler can attach to whatever it is emitting (e.g. rule-install
// latency). Zero outside a dispatch or when the span was overwritten.
func (t *Tracer) DispatchLatencyNS() int64 {
	if t == nil {
		return 0
	}
	seq := t.dispatch.Load()
	if seq == 0 {
		return 0
	}
	r := t.ring.Load()
	s := &r.slots[seq&r.mask]
	if s.seq.Load() != seq {
		return 0
	}
	p := s.ts[StagePunt].Load()
	if p == 0 {
		return 0
	}
	if d := nowNS() - p; d > 0 {
		return d
	}
	return 0
}

// Counts returns the tracer's lifecycle counters: spans opened,
// dispatched, credited, passed by a barrier, and stamps dropped because
// their slot had been recycled.
func (t *Tracer) Counts() (punted, dispatched, credited, barriered, overwritten uint64) {
	if t == nil {
		return
	}
	return t.punt.Load(), t.dispatch.Load(), t.credit.Load(), t.barrier.Load(), t.overwritten.Load()
}

// ------------------------------------------------------------ histograms

// histBuckets spans 1ns to ~2^47ns (~39h) in powers of two — bucket i
// counts latencies v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 48

// hist is one log2-bucketed latency histogram. All fields are atomics so
// folds from the record path never take a lock.
type hist struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
	bucket [histBuckets]atomic.Uint64
}

func (h *hist) observe(v int64) {
	if v < 0 {
		// Stamps race only between near-simultaneous goroutines (a punt's
		// stamp-to-send window overlapping the dispatcher); clamp the
		// sub-microsecond artifact rather than corrupt the fold.
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.bucket[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is one histogram's point-in-time copy; snapshots merge, so
// fleet-level views sum per-home tracers without touching their rings.
type HistSnapshot struct {
	Count   uint64
	SumNS   uint64
	MaxNS   int64
	Buckets [histBuckets]uint64
}

func (h *hist) snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.bucket[i].Load()
	}
	return s
}

// Merge folds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// quantile estimates the q-quantile (0 < q <= 1) in nanoseconds from the
// log2 buckets: the bucket holding the rank is represented by its
// geometric midpoint, clipped to the observed maximum.
func (s *HistSnapshot) quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			var rep float64
			switch i {
			case 0:
				rep = 0
			case 1:
				rep = 1
			default:
				rep = 1.5 * math.Exp2(float64(i-1)) // midpoint of [2^(i-1), 2^i)
			}
			if m := float64(s.MaxNS); rep > m {
				rep = m
			}
			return rep
		}
	}
	return float64(s.MaxNS)
}

// mean returns the mean latency in nanoseconds.
func (s *HistSnapshot) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// ------------------------------------------------------------- snapshots

// Snapshot is a tracer's full histogram state at one instant. The zero
// value is empty; Merge folds tracers together for fleet aggregation.
type Snapshot struct {
	Hists       [numTransitions]HistSnapshot
	Overwritten uint64
}

// Snapshot copies the tracer's histograms. Nil-safe (returns the zero
// snapshot) and lock-free; concurrent records may straddle the copy,
// which monitoring tolerates.
func (t *Tracer) Snapshot() Snapshot {
	var s Snapshot
	if t == nil {
		return s
	}
	for i := range t.hist {
		s.Hists[i] = t.hist[i].snapshot()
	}
	s.Overwritten = t.overwritten.Load()
	return s
}

// Merge folds o into s.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Hists {
		s.Hists[i].Merge(o.Hists[i])
	}
	s.Overwritten += o.Overwritten
}

// StageStats is one stage transition's latency summary, the row shape
// every surface (TRACE verb, /api/trace, expvar, hwfleetd) reports.
type StageStats struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50NS  float64 `json:"p50_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
	MeanNS float64 `json:"mean_ns"`
}

// Stats summarizes the snapshot, one row per stage transition in span
// order (transitionNames order).
func (s *Snapshot) Stats() []StageStats {
	out := make([]StageStats, numTransitions)
	for i := range s.Hists {
		h := &s.Hists[i]
		out[i] = StageStats{
			Stage:  transitionNames[i],
			Count:  h.Count,
			P50NS:  h.quantile(0.50),
			P99NS:  h.quantile(0.99),
			MaxNS:  h.MaxNS,
			MeanNS: h.mean(),
		}
	}
	return out
}

// Stats summarizes the tracer's histograms (nil-safe shorthand for
// Snapshot().Stats()).
func (t *Tracer) Stats() []StageStats {
	s := t.Snapshot()
	return s.Stats()
}
