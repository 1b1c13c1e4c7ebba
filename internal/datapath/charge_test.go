package datapath

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
)

// A run adds up what its frames owe and commits it once: to the entry and
// the table when the key or the table generation changes, to the port when
// it resolves another, and all of it before its call returns. Between calls
// that must read exactly as if every frame had been charged on its own:
// here, as feeding the same frames to Receive one at a time, each call a
// run of one frame. The batches change run often — flows A A B A B B as
// copies and as repeats, two output ports, a flood in between, a list that
// enqueues then outputs, a list that outputs to both ports, a miss — and
// every entry's packets, bytes and last use, the table's lookups and
// matches and every port's counters must agree after each.
func TestRunChargesMatchPerFrame(t *testing.T) {
	for _, repeats := range []bool{false, true} {
		name := "copies"
		if repeats {
			name = "repeats"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			const (
				a, b, flood, enqueue, both, miss = 0, 1, 2, 3, 4, 5
			)
			first := make([][]byte, 6)
			for flow := range first {
				first[flow] = randomFlowFrame(rng, flow)
			}
			mac := packet.MAC{2, 0xcc, 0, 0, 0, 1}
			lists := [][]openflow.Action{
				a:       {&openflow.ActionSetDLDst{Addr: mac}, output(2)},
				b:       {&openflow.ActionSetDLSrc{Addr: mac}, output(3)},
				flood:   {&openflow.ActionOutput{Port: openflow.PortFlood}},
				enqueue: {&openflow.ActionEnqueue{Port: 3, QueueID: 1}, output(2)},
				both:    {output(2), &openflow.ActionSetDLDst{Addr: mac}, output(3)},
			}
			batched, perFrame := newPathRig(t), newPathRig(t)
			for flow, as := range lists {
				m := exactMatchFor(t, first[flow], 1)
				batched.add(m, 10, as)
				perFrame.add(m, 10, as)
			}
			seq := []int{a, a, b, a, b, b, flood, a, a, enqueue, enqueue, both, both, b, miss, miss, a, b, b, b}
			for round := 0; round < 4; round++ {
				var fb packet.FrameBatch
				for i, flow := range seq {
					if repeats && i > 0 && seq[i-1] == flow {
						fb.Repeat()
					} else {
						fb.Append(randomFlowFrame(rng, flow))
					}
				}
				batched.dp.ReceiveBatch(1, &fb)
				eachFrame(&fb, func(f []byte) { perFrame.dp.Receive(1, f) })
				comparePaths(t, batched, perFrame)
				batched.clk.Advance(250 * time.Millisecond)
				perFrame.clk.Advance(250 * time.Millisecond)
			}
			if lookups, _ := batched.dp.table.Counters(); lookups != uint64(4*len(seq)) {
				t.Fatalf("%d lookups, want one per frame (%d)", lookups, 4*len(seq))
			}
		})
	}
}

// A sink that re-enters ReceiveBatch for the flow it is sending opens a
// nested run, which commits before the outer run resumes; the outer run's
// frames after it commit when the outer call ends. The sums are exact, and
// the entry's last use is the nested call's later clock reading: a commit
// never moves it back.
func TestNestedRunChargesExactly(t *testing.T) {
	const outer, inner = 6, 4
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(12))
	frame := randomFlowFrame(rng, 0)
	r.add(exactMatchFor(t, frame, 1), 10, []openflow.Action{output(2)})
	p2, _ := r.dp.Port(2)
	sink := p2.Out
	nested := false
	t0 := r.clk.Now()
	p2.SetOut(func(f []byte) {
		sink(f)
		if nested {
			return
		}
		nested = true
		r.clk.Advance(time.Second)
		var fb packet.FrameBatch
		for i := 0; i < inner; i++ {
			fb.Append(frame)
		}
		r.dp.ReceiveBatch(1, &fb)
	})
	var fb packet.FrameBatch
	fb.Append(frame)
	for i := 1; i < outer; i++ {
		fb.Repeat()
	}
	r.dp.ReceiveBatch(1, &fb)

	n, size := uint64(outer+inner), uint64(len(frame))
	e := r.entries[0]
	if e.PacketCount() != n || e.ByteCount() != n*size {
		t.Errorf("entry charged %d packets, %d bytes; want %d, %d", e.PacketCount(), e.ByteCount(), n, n*size)
	}
	if last, _ := lastUsed(e); !last.Equal(t0.Add(time.Second)) {
		t.Errorf("entry last used at %v, want the nested call's reading %v", last, t0.Add(time.Second))
	}
	if lookups, matched := r.dp.table.Counters(); lookups != n || matched != n {
		t.Errorf("table counted %d lookups, %d matches; want %d each", lookups, matched, n)
	}
	if s := p2.Stats(); s.TxPackets != n || s.TxBytes != n*size {
		t.Errorf("port 2 sent %d packets, %d bytes; want %d, %d", s.TxPackets, s.TxBytes, n, n*size)
	}
	if len(r.sent) != int(n) {
		t.Errorf("%d frames left, want %d", len(r.sent), n)
	}
}

// A flow-mod DELETE that arrives during a batch is handled in the drain
// after it, once the batch's run has committed: the flow-removed carries
// every frame of the batch. The batch opens with a miss, whose packet-in
// the controller answers with the delete; the flow's frames follow, and
// all but the first are charged by the run.
func TestFlowRemovedCarriesTheBatch(t *testing.T) {
	var removed []*openflow.FlowRemoved
	var m openflow.Match
	r := newDirectRig(t, func(r *directRig, msg openflow.Message) {
		switch msg := msg.(type) {
		case *openflow.PacketIn:
			_ = r.ctl.Send(&openflow.FlowMod{Match: m, Command: openflow.FlowModDeleteStrict,
				Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
		case *openflow.FlowRemoved:
			removed = append(removed, msg)
		}
	})
	frames := flowFrames(3, 0, 7)
	m = exactMatchFor(t, frames[0], 1)
	if err := r.dp.Table().Add(&FlowEntry{Match: m, Priority: 10, SendFlowRem: true,
		Actions: []openflow.Action{output(2)}}, false); err != nil {
		t.Fatal(err)
	}
	var fb packet.FrameBatch
	fb.Append(flowFrame(4, 0)) // no entry: punts
	var bytes uint64
	for _, f := range frames {
		fb.Append(f)
		bytes += uint64(len(f))
	}
	r.dp.ReceiveBatch(1, &fb)
	if len(removed) != 1 {
		t.Fatalf("%d flow-removeds, want the delete's one", len(removed))
	}
	if fr := removed[0]; fr.PacketCount != uint64(len(frames)) || fr.ByteCount != bytes {
		t.Errorf("flow-removed carries %d packets, %d bytes; want the batch's %d, %d",
			fr.PacketCount, fr.ByteCount, len(frames), bytes)
	}
	if r.tx != len(frames) {
		t.Errorf("%d frames left, want %d", r.tx, len(frames))
	}
}

// Port.Stats, FlowTable.Counters and StatsView read what runs commit from
// another goroutine while batches go through: under the race detector this
// is the proof that commits are synchronised with them. Counters only grow,
// and once the batches are done they read exactly what was sent.
func TestRunCommitsUnderConcurrentReads(t *testing.T) {
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(13))
	var frames [][]byte
	for flow := 0; flow < 3; flow++ {
		frames = append(frames, randomFlowFrame(rng, flow))
		r.add(exactMatchFor(t, frames[flow], 1), 10, []openflow.Action{output(uint16(2 + flow%2))})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTx, lastLookups, lastFlow uint64
		view := r.dp.StatsView()
		p2, _ := r.dp.Port(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := p2.Stats(); s.TxPackets < lastTx {
				t.Errorf("port 2 sent %d packets after %d", s.TxPackets, lastTx)
			} else {
				lastTx = s.TxPackets
			}
			if l, _ := r.dp.Table().Counters(); l < lastLookups {
				t.Errorf("%d lookups after %d", l, lastLookups)
			} else {
				lastLookups = l
			}
			var flows uint64
			view.Flows(0, func(_ openflow.Match, packets, _ uint64) { flows += packets })
			if flows < lastFlow {
				t.Errorf("flows counted %d packets after %d", flows, lastFlow)
			} else {
				lastFlow = flows
			}
			view.Ports(func(openflow.PortStats) {})
		}
	}()
	const batches, perFlow = 200, 5
	for i := 0; i < batches; i++ {
		var fb packet.FrameBatch
		for _, f := range frames {
			fb.Append(f)
			for j := 1; j < perFlow; j++ {
				fb.Repeat()
			}
		}
		r.dp.ReceiveBatch(1, &fb)
	}
	close(stop)
	wg.Wait()
	n := uint64(batches * perFlow)
	for i, e := range r.entries {
		if e.PacketCount() != n {
			t.Errorf("entry %d charged %d packets, want %d", i, e.PacketCount(), n)
		}
	}
	if lookups, matched := r.dp.table.Counters(); lookups != 3*n || matched != 3*n {
		t.Errorf("table counted %d lookups, %d matches; want %d each", lookups, matched, 3*n)
	}
	p2, _ := r.dp.Port(2)
	p3, _ := r.dp.Port(3)
	if tx2, tx3 := p2.Stats().TxPackets, p3.Stats().TxPackets; tx2 != 2*n || tx3 != n {
		t.Errorf("ports 2 and 3 sent %d and %d packets, want %d and %d", tx2, tx3, 2*n, n)
	}
}
