package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// drive runs n spans through the full lifecycle: punt, dispatch, emit,
// one batch credit, one barrier.
func drive(t *Tracer, n int) {
	for i := 0; i < n; i++ {
		t.Punt()
		t.BeginDispatch()
		t.EndDispatch()
	}
	t.Credit(n)
	t.BarrierReply()
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(64)
	drive(tr, 10)
	punted, dispatched, credited, barriered, overwritten := tr.Counts()
	if punted != 10 || dispatched != 10 || credited != 10 || barriered != 10 {
		t.Fatalf("counts = %d/%d/%d/%d, want 10 each", punted, dispatched, credited, barriered)
	}
	if overwritten != 0 {
		t.Fatalf("overwritten = %d, want 0", overwritten)
	}
	stats := tr.Stats()
	if len(stats) != numTransitions {
		t.Fatalf("stats rows = %d, want %d", len(stats), numTransitions)
	}
	for _, st := range stats {
		if st.Count != 10 {
			t.Errorf("%s count = %d, want 10", st.Stage, st.Count)
		}
		if st.P50NS < 0 || st.P99NS < st.P50NS || float64(st.MaxNS) < st.P99NS {
			t.Errorf("%s quantiles not ordered: p50=%v p99=%v max=%v", st.Stage, st.P50NS, st.P99NS, st.MaxNS)
		}
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	// Every span-record and read entry point must be a no-op on nil.
	tr.Punt()
	tr.BeginDispatch()
	tr.EndDispatch()
	tr.Credit(3)
	tr.BarrierReply()
	if got := tr.DispatchLatencyNS(); got != 0 {
		t.Fatalf("nil DispatchLatencyNS = %d", got)
	}
	if s := tr.Snapshot(); s.Hists[0].Count != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
	if stats := tr.Stats(); len(stats) != numTransitions {
		t.Fatalf("nil Stats rows = %d", len(stats))
	}
}

func TestRingOverwriteDropsStaleSpans(t *testing.T) {
	tr := New(4) // tiny ring: punts lap the consumer
	for i := 0; i < 32; i++ {
		tr.Punt()
	}
	// The consumer catches up afterwards: all but the last ring-full of
	// spans were overwritten, and their stamps must be dropped, not
	// misattributed to the newer spans occupying their slots.
	for i := 0; i < 32; i++ {
		tr.BeginDispatch()
		tr.EndDispatch()
	}
	tr.Credit(32)
	tr.BarrierReply()
	_, _, _, _, overwritten := tr.Counts()
	if overwritten == 0 {
		t.Fatal("expected overwritten spans with a lapped ring")
	}
	s := tr.Snapshot()
	if got := s.Hists[tPuntDispatch].Count; got > 4 {
		t.Fatalf("punt->dispatch folded %d spans, ring holds only 4", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(64), New(64)
	drive(a, 5)
	drive(b, 7)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Hists[tPuntBarrier].Count; got != 12 {
		t.Fatalf("merged punt->barrier count = %d, want 12", got)
	}
	stats := sa.Stats()
	if stats[tPuntBarrier].Count != 12 {
		t.Fatalf("merged stats count = %d, want 12", stats[tPuntBarrier].Count)
	}
}

func TestQuantileOrdering(t *testing.T) {
	var h HistSnapshot
	if h.quantile(0.5) != 0 || h.mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Count = 100
	h.SumNS = 100 * 1000
	h.MaxNS = 4000
	h.Buckets[10] = 99 // [512, 1024)
	h.Buckets[12] = 1  // [2048, 4096)
	p50, p99 := h.quantile(0.50), h.quantile(0.99)
	if p50 < 512 || p50 >= 1024 {
		t.Fatalf("p50 = %v, want within [512,1024)", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if h.quantile(1.0) < p99 {
		t.Fatalf("p100 below p99")
	}
}

func TestDispatchLatency(t *testing.T) {
	tr := New(64)
	tr.Punt()
	tr.BeginDispatch()
	if d := tr.DispatchLatencyNS(); d <= 0 {
		t.Fatalf("mid-dispatch latency = %d, want > 0", d)
	}
	tr.EndDispatch()
	tr.Credit(1)
}

// TestSpanRecordAllocs pins the span-record hot path at zero allocations:
// the acceptance criterion for always-on tracing in the datapath punt
// path and the controller read loop. The ring is warmed to its cap first,
// so the only allocation Punt may make, a growth, is behind it; then every
// allocation the process makes over a thousand calls on one P is counted,
// in the best of three trials, so that one call in a hundred allocating
// fails the pin as surely as every call allocating does.
func TestSpanRecordAllocs(t *testing.T) {
	const ringCap = 256
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(ringCap)
	for range ringCap + 1 { // unbarriered spans: the ring grows to its cap
		tr.Punt()
	}
	if n := len(tr.ring.Load().slots); n != ringCap {
		t.Fatalf("the warm ring holds %d slots, want %d", n, ringCap)
	}
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Punt", tr.Punt},
		{"a full span record", func() {
			tr.Punt()
			tr.BeginDispatch()
			tr.EndDispatch()
			tr.Credit(1)
		}},
		{"BarrierReply", tr.BarrierReply},
	} {
		n := ^uint64(0)
		for range 3 { // another goroutine's stray allocation lands in one trial, a call's in each
			before := heapAllocs()
			for range 1000 {
				op.fn()
			}
			n = min(n, heapAllocs()-before)
		}
		if n != 0 {
			t.Errorf("%s allocates %d times in 1000 calls, want 0", op.name, n)
		}
	}
}

// heapAllocs returns how many heap allocations the process has made, every
// P's included: ReadMemStats flushes what each P has counted. (The
// /gc/heap/allocs:objects metric counts a small allocation only once its
// span is used up, so it can read 0 over a thousand 64-byte ones.)
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestConcurrentRecordAndRead hammers one tracer from concurrent
// producers, a consumer, a barrier caller and snapshot readers — the
// package-level half of the fleet's 32-home race gate.
func TestConcurrentRecordAndRead(t *testing.T) {
	tr := New(128)
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // producer 1: the simulator goroutine
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tr.Punt()
		}
	}()
	go func() { // producer 2: a punt from the dispatch goroutine's output
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tr.Punt()
		}
	}()
	go func() { // consumer: dispatch + batch credit
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tr.BeginDispatch()
			_ = tr.DispatchLatencyNS()
			tr.EndDispatch()
			if i%8 == 7 {
				tr.Credit(8)
			}
		}
	}()
	go func() { // settle path: barriers and reads race the recorders
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			tr.BarrierReply()
			_ = tr.Snapshot()
			_ = tr.Stats()
		}
	}()
	wg.Wait()
	punted, dispatched, _, _, _ := tr.Counts()
	if punted != 2*iters || dispatched != iters {
		t.Fatalf("counts after hammer: punted=%d dispatched=%d", punted, dispatched)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	tr := New(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Punt()
		tr.BeginDispatch()
		tr.EndDispatch()
		tr.Credit(1)
	}
}

func BenchmarkPuntStamp(b *testing.B) {
	tr := New(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Punt()
	}
}

// A home whose control path keeps up has one to three spans in flight
// between barriers, and its tracer holds initialSlots slots, not the
// DefaultRingSize it may grow to: building one and running a thousand
// spans, three at a time, allocates the tracer and sixteen slots.
func TestFewSpansInFlightHoldSixteenSlots(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(DefaultRingSize)
	for i := 0; i < 1000; i += 3 {
		drive(tr, 3)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	// Room for the tracer, a ring header and twice the slots it should hold,
	// so size-class rounding cannot fail it; 1024 slots are 49 KB.
	limit := uint64(unsafe.Sizeof(Tracer{}) + 64 + 32*unsafe.Sizeof(slot{}))
	if got > limit {
		t.Fatalf("a tracer with 3 spans in flight allocated %d B, want at most %d (16 slots of %d B)", got, limit, unsafe.Sizeof(slot{}))
	}
	if _, _, _, _, overwritten := tr.Counts(); overwritten != 0 {
		t.Fatalf("overwritten = %d, want 0", overwritten)
	}
}

// A wedged home's spans pile up unbarriered: the ring doubles under them
// instead of lapping, so every span reaches the barrier whole.
func TestUnbarrieredSpansGrowTheRing(t *testing.T) {
	const n = 600
	tr := New(DefaultRingSize)
	for i := 0; i < n; i++ {
		tr.Punt()
		tr.BeginDispatch()
		if tr.DispatchLatencyNS() <= 0 {
			t.Fatalf("span %d: no dispatch latency", i+1)
		}
		tr.EndDispatch()
		tr.Credit(1)
	}
	tr.BarrierReply()
	if got := len(tr.ring.Load().slots); got != 1024 {
		t.Fatalf("ring holds %d slots after %d spans in flight, want 1024", got, n)
	}
	_, _, _, barriered, overwritten := tr.Counts()
	if overwritten != 0 || barriered != n {
		t.Fatalf("overwritten = %d, barriered = %d, want 0 and %d", overwritten, barriered, n)
	}
	s := tr.Snapshot()
	for i, h := range s.Hists {
		if h.Count != n {
			t.Errorf("%s folded %d samples, want %d", transitionNames[i], h.Count, n)
		}
	}
}

// The consumer stamps from its own goroutine, as it does over TCP, while
// the producer's punts grow the ring under it: a stamp that lands on a
// frozen ring is dropped and counted, never lost silently, and the race
// detector sees every slot access as atomic.
func TestConsumerStampsRaceGrowth(t *testing.T) {
	const n = 600
	tr := New(DefaultRingSize)
	var sent atomic.Uint64 // packet-ins handed over: a span is dispatched only after its Punt returns
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			tr.Punt()
			sent.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= n; i++ {
			for sent.Load() < i {
				runtime.Gosched()
			}
			tr.BeginDispatch()
			_ = tr.DispatchLatencyNS()
			tr.EndDispatch()
			tr.Credit(1)
		}
	}()
	wg.Wait()
	tr.BarrierReply()
	punted, dispatched, credited, barriered, overwritten := tr.Counts()
	if punted != n || dispatched != n || credited != n || barriered != n {
		t.Fatalf("counts = %d/%d/%d/%d, want %d each", punted, dispatched, credited, barriered, n)
	}
	if got := len(tr.ring.Load().slots); got != 1024 {
		t.Fatalf("ring holds %d slots, want 1024", got)
	}
	// Every dispatch stamp was either folded or dropped and counted.
	s := tr.Snapshot()
	if pd := s.Hists[tPuntDispatch].Count; pd > n || pd+overwritten < n {
		t.Fatalf("punt->dispatch folded %d, overwritten %d: %d dispatch stamps unaccounted", pd, overwritten, int64(n)-int64(pd+overwritten))
	}
}
