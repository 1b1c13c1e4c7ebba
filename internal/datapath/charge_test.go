package datapath

import (
	"bytes"
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

// A sink that answers with a batch of the flow it is sending does not
// re-enter the datapath: the answer waits in the inbox and leaves after the
// span that caused it and before the next span, on the call's run. The sums
// are exact, and the entry's last use is the answer's later clock reading,
// though the span after it was received at the call's earlier one: a run's
// stamp, like a commit, never moves back.
func TestSinkAnswerLeavesAfterItsSpan(t *testing.T) {
	const first, answer, second = 6, 4, 2
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(12))
	frame, reply := randomFlowFrame(rng, 0), randomFlowFrame(rng, 0) // one flow, two payloads
	r.add(exactMatchFor(t, frame, 1), 10, []openflow.Action{output(2)})
	p2, _ := r.dp.Port(2)
	sink := p2.Out
	answered := false
	t0 := r.clk.Now()
	p2.SetOut(func(f []byte) {
		sink(f)
		if answered {
			return
		}
		answered = true
		r.clk.Advance(time.Second)
		var fb packet.FrameBatch
		for i := 0; i < answer; i++ {
			fb.Append(reply)
		}
		r.dp.ReceiveBatch(1, &fb)
		if len(r.sent) != 1 {
			t.Errorf("%d frames left inside the sink's call, want only the one it was handed", len(r.sent))
		}
	})
	var fb packet.FrameBatch
	var want [][]byte
	for _, s := range []struct {
		frame []byte
		n     int
	}{{frame, first}, {reply, answer}, {frame, second}} {
		if !bytes.Equal(s.frame, reply) {
			fb.Append(s.frame)
			for i := 1; i < s.n; i++ {
				fb.Repeat()
			}
		}
		for i := 0; i < s.n; i++ {
			want = append(want, s.frame)
		}
	}
	r.dp.ReceiveBatch(1, &fb)

	if len(r.sent) != len(want) {
		t.Fatalf("%d frames left, want %d", len(r.sent), len(want))
	}
	for i, s := range r.sent {
		if s.port != 2 || !bytes.Equal(s.frame, want[i]) {
			t.Fatalf("frame %d left port %d as the %s, want port 2 and the %s", i, s.port, which(s.frame, reply), which(want[i], reply))
		}
	}
	n, size := uint64(len(want)), uint64((first+second)*len(frame)+answer*len(reply))
	e := r.entries[0]
	if e.PacketCount() != n || e.ByteCount() != size {
		t.Errorf("entry charged %d packets, %d bytes; want %d, %d", e.PacketCount(), e.ByteCount(), n, size)
	}
	if last, _ := lastUsed(e); !last.Equal(t0.Add(time.Second)) {
		t.Errorf("entry last used at %v, want the answer's reading %v", last, t0.Add(time.Second))
	}
	if lookups, matched := r.dp.table.Counters(); lookups != n || matched != n {
		t.Errorf("table counted %d lookups, %d matches; want %d each", lookups, matched, n)
	}
	if s := p2.Stats(); s.TxPackets != n || s.TxBytes != size {
		t.Errorf("port 2 sent %d packets, %d bytes; want %d, %d", s.TxPackets, s.TxBytes, n, size)
	}
	if s := r.ports[0].Stats(); s.RxPackets != n || s.RxBytes != size {
		t.Errorf("port 1 received %d packets, %d bytes; want %d, %d", s.RxPackets, s.RxBytes, n, size)
	}
}

// which names a frame of TestSinkAnswerLeavesAfterItsSpan.
func which(f, reply []byte) string {
	if bytes.Equal(f, reply) {
		return "answer"
	}
	return "batch's frame"
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

// Port.Stats, FlowTable.Counters, the entries' counters and StatsView.Ports
// read what runs commit from another goroutine while batches go through:
// under the race detector this is the proof that commits are synchronised
// with them. Counters only grow, and once the batches are done they read
// exactly what was sent.
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
			for _, e := range r.dp.Table().Entries(nil, openflow.PortNone) {
				flows += e.PacketCount()
			}
			if flows < lastFlow {
				t.Errorf("flows counted %d packets after %d", flows, lastFlow)
			} else {
				lastFlow = flows
			}
			r.dp.StatsView().Ports(func(openflow.PortStats) {})
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
