package datapath

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/openflow"
	"repro/internal/packet"
)

// An entry carries the reader's baseline inside its size class: 144 bytes,
// so that newEntry's pair is one 288-byte allocation.
func TestFlowEntryFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(FlowEntry{}); got != 144 {
		t.Errorf("a FlowEntry is %d bytes, want 144", got)
	}
}

// A flow-stats reply is as large as the entries it reports, not the table.
func TestFlowStatsSizesItsReply(t *testing.T) {
	r := newPathRig(t)
	var want openflow.Match
	for i := 0; i < 250; i++ {
		m := exactMatchFor(t, tcpFrame(1, 2, uint16(1000+i)), 1)
		r.add(m, 10, []openflow.Action{output(2)})
		if i == 0 {
			want = m
		}
	}
	got := r.dp.table.flowStats(&want, openflow.PortNone, r.clk.Now())
	if len(got) != 1 || cap(got) != 1 {
		t.Errorf("a one-flow request on a 250-entry table: len %d, cap %d; want 1 and 1", len(got), cap(got))
	}
}

// The delta walk races what runs commit and what deletes remove: under the
// race detector this is the proof that the walk's baseline is
// synchronised with both. Whatever the interleaving, every frame is handed
// over exactly once — by a walk or by its entry's removal report.
func TestDeltaWalkRacesCommitsAndRemovals(t *testing.T) {
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(21))
	const flows = 3
	var (
		frames  [][]byte
		matches []openflow.Match
	)
	for flow := 0; flow < flows; flow++ {
		frames = append(frames, randomFlowFrame(rng, flow))
		matches = append(matches, exactMatchFor(t, frames[flow], 1))
		r.add(matches[flow], 10, []openflow.Action{output(2)})
	}
	type counts struct{ packets, bytes uint64 }
	var (
		reported = make(map[openflow.Match]counts) // removal reports, on the deleting goroutine
		walked   = make(map[openflow.Match]counts) // the walker's, then the last walk's
		reports  int
	)
	add := func(to map[openflow.Match]counts, m *openflow.Match, packets, bytes uint64) {
		c := to[*m]
		c.packets += packets
		c.bytes += bytes
		to[*m] = c
	}
	view := r.dp.StatsView()
	view.OnRemoved(func(m *openflow.Match, packets, bytes uint64) {
		reports++
		add(reported, m, packets, bytes)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			view.Flows(0, func(m openflow.Match, packets, bytes uint64) { add(walked, &m, packets, bytes) })
		}
	}()
	const batches, perFlow = 300, 4
	for i := 0; i < batches; i++ {
		var fb packet.FrameBatch
		for _, f := range frames {
			fb.Append(f)
			for j := 1; j < perFlow; j++ {
				fb.Repeat()
			}
		}
		r.dp.ReceiveBatch(1, &fb)
		if i%7 == 3 { // one flow's entry deleted and installed afresh
			m := matches[i%flows]
			r.dp.Batch(func() {
				r.dp.handleFlowMod(&openflow.FlowMod{Match: m, Command: openflow.FlowModDeleteStrict, Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
				r.dp.handleFlowMod(&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 10, BufferID: openflow.NoBuffer, Actions: []openflow.Action{output(2)}})
			})
		}
	}
	close(stop)
	wg.Wait()
	view.Flows(0, func(m openflow.Match, packets, bytes uint64) { add(walked, &m, packets, bytes) })

	for flow, m := range matches {
		got := counts{walked[m].packets + reported[m].packets, walked[m].bytes + reported[m].bytes}
		n := uint64(batches * perFlow)
		if want := (counts{n, n * uint64(len(frames[flow]))}); got != want {
			t.Errorf("flow %d: walks %+v and removals %+v hand over %+v, want %+v", flow, walked[m], reported[m], got, want)
		}
	}
	if want := (batches + 3) / 7; reports != want {
		t.Errorf("%d removal reports, want one per delete, %d", reports, want)
	}
}

// An ADD that replaces the entry of its match and priority starts the
// counters afresh, and what the reader had not taken of the old entry
// passes to the flow's next take, a walk or the removal report: the walks
// and reports still add up to the frames sent.
func TestReplacedEntryHandsItsCountsOn(t *testing.T) {
	r := newPathRig(t)
	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	acts := []openflow.Action{output(2)}
	r.add(m, 10, acts)
	var taken, reports uint64
	view := r.dp.StatsView()
	view.OnRemoved(func(_ *openflow.Match, packets, _ uint64) { taken += packets; reports++ })
	walk := func() { view.Flows(0, func(_ openflow.Match, packets, _ uint64) { taken += packets }) }
	sent := uint64(0)
	send := func(n int) {
		for range n {
			r.dp.Receive(1, frame)
			sent++
		}
	}
	send(3)
	walk()
	send(4)
	r.add(m, 10, acts) // replaces an entry with 4 frames untaken
	if e := r.entries[len(r.entries)-1]; e.PacketCount() != 0 {
		t.Fatalf("the replacement starts at %d packets, want 0", e.PacketCount())
	}
	walk()
	send(2)
	r.add(m, 10, acts) // 2 untaken, handed over by the removal report
	r.dp.handleFlowMod(&openflow.FlowMod{Match: m, Command: openflow.FlowModDeleteStrict, Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
	if taken != sent || reports != 1 {
		t.Errorf("walks and %d removal report hand over %d packets, %d were sent", reports, taken, sent)
	}
}
