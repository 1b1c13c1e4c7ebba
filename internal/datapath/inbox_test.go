package datapath

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// directRig attaches a datapath on a simulated clock to a controller the
// test scripts as a function over a direct channel: answer runs inside the
// datapath's Send of each message, as the controller's dispatch does, and
// sends on ctl. Port 2 counts what it transmits.
type directRig struct {
	dp  *Datapath
	ctl *oftransport.DirectEnd
	tx  int
}

func newDirectRig(t *testing.T, answer func(r *directRig, msg openflow.Message)) *directRig {
	t.Helper()
	r := &directRig{dp: New(Config{ID: 9, Clock: clock.NewSimulated(), MissSendLen: 0xffff})}
	_ = r.dp.AddPort(&Port{No: 1})
	_ = r.dp.AddPort(&Port{No: 2, Out: func([]byte) { r.tx++ }})
	ctlEnd, dpEnd := oftransport.Direct()
	r.ctl = ctlEnd
	ctlEnd.Bind(func(msg openflow.Message) { answer(r, msg) }, nil)
	r.dp.AttachDirect(dpEnd, dpEnd)
	t.Cleanup(r.dp.Stop)
	return r
}

// The controller's answers wait for the end of the call that made them
// necessary: a flow whose frames arrive in one batch punts once, the rest of
// the batch waits behind the punt — none matches the new rule mid-batch or
// is charged to it — and all of it leaves, in order, before ReceiveBatch
// returns.
func TestInboxDrainsAfterTheBatch(t *testing.T) {
	r := newDirectRig(t, func(r *directRig, msg openflow.Message) {
		pi, ok := msg.(*openflow.PacketIn)
		if !ok {
			return
		}
		var d packet.Decoded
		if err := d.Decode(pi.Data); err != nil {
			t.Fatal(err)
		}
		_ = r.ctl.Send(&openflow.FlowMod{
			Match: openflow.MatchFromFrame(&d, pi.InPort), Command: openflow.FlowModAdd,
			Priority: 10, IdleTimeout: 30, BufferID: pi.BufferID, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		})
	})
	var fb packet.FrameBatch
	for seq := uint32(1); seq <= 5; seq++ {
		fb.Append(packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 40000, 80, packet.TCPAck, seq, 0, nil))
	}
	r.dp.ReceiveBatch(1, &fb)
	if punted := r.dp.PuntCount(); punted != 1 {
		t.Errorf("one flow's batch punted %d times, want once", punted)
	}
	if r.tx != 5 {
		t.Errorf("%d of the batch's 5 frames left by the new rule before ReceiveBatch returned", r.tx)
	}
	entries := r.dp.Table().Entries(nil, openflow.PortNone)
	if len(entries) != 1 || entries[0].PacketCount() != 0 {
		t.Fatalf("entries %d; the new rule was charged for frames that arrived before it", len(entries))
	}
}

// A controller and datapath that answer each other without end fail loudly:
// the drain gives up after maxDrainRounds with a panic that says so, rather
// than spin.
func TestInboxDrainBoundFailsLoudly(t *testing.T) {
	frame := packet.AppendUDPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, nil)
	// Every packet-in is answered with a packet-out that sends a frame to
	// the controller again.
	r := newDirectRig(t, func(r *directRig, msg openflow.Message) {
		if _, ok := msg.(*openflow.PacketIn); ok {
			_ = r.ctl.Send(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Data: frame,
				Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController}}})
		}
	})
	defer func() {
		p := recover()
		if s, ok := p.(string); !ok || !strings.Contains(s, "drain rounds") {
			t.Fatalf("an endless exchange ended with %v, want the drain bound's panic", p)
		}
	}()
	_ = r.ctl.Send(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Data: frame,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController}}})
	t.Fatal("the endless exchange returned")
}

// Drain reads the controller's dispatches before the datapath's punts. A
// punt is counted before it is sent and dispatched after, so read in that
// order the books can only err towards a punt outstanding. Read the other
// way round, a punt counted and dispatched between the two reads — another
// goroutine's, sent while an earlier punt was still on its way — would be
// taken for the earlier one, and Settle would return with it outstanding.
func TestDrainReadsDispatchesBeforePunts(t *testing.T) {
	dp := New(Config{ID: 9, Clock: clock.NewSimulated()})
	_ = dp.AddPort(&Port{No: 1})
	syn := func(srcPort uint16) []byte {
		return packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, srcPort, 80, packet.TCPSyn, 1, 0, nil)
	}
	dp.Receive(1, syn(40000)) // counted, never dispatched
	punted, dispatched, busy := dp.Drain(func() uint64 {
		dp.Receive(1, syn(40001)) // a second flow punts, and is dispatched
		return 1
	})
	if punted != 2 || dispatched != 1 || !busy {
		t.Fatalf("Drain read %d punted, %d dispatched, busy %v; want 2, 1 and busy", punted, dispatched, busy)
	}
}

// Sinks that answer each other's frames forever are a bug: each answer joins
// the frame queue behind the frame that caused it, a round later, and the
// queue panics after maxDrainRounds rounds rather than spin.
func TestSinkPingPongPanicsAtTheRoundBound(t *testing.T) {
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(3))
	ping, pong := randomFlowFrame(rng, 0), randomFlowFrame(rng, 4)
	r.add(exactMatchFor(t, ping, 1), 10, []openflow.Action{output(2)})
	r.add(exactMatchFor(t, pong, 2), 10, []openflow.Action{output(1)})
	answers := 0
	r.ports[1].SetOut(func([]byte) { answers++; r.dp.Receive(2, pong) })
	r.ports[0].SetOut(func([]byte) { answers++; r.dp.Receive(1, ping) })
	defer func() {
		msg := recover()
		if msg == nil {
			t.Fatal("the exchange ended")
		}
		if !strings.Contains(fmt.Sprint(msg), "without end") {
			t.Fatalf("panicked with %v, want the frame queue's bound", msg)
		}
		if answers != maxDrainRounds {
			t.Errorf("%d answers before the panic, want one a round, %d", answers, maxDrainRounds)
		}
	}()
	r.dp.Receive(1, ping)
}

// Frames handed in from another goroutine while a call holds the datapath
// are queued, not executed there: the call in progress executes each of
// them once, at its span boundaries, before it returns, and counts them
// exactly. The other goroutine's calls race the call's takes of the queue.
func TestFramesFromAnotherGoroutineJoinTheCall(t *testing.T) {
	const spans, batches, perBatch = 64, 16, 5
	r := newPathRig(t)
	rng := rand.New(rand.NewSource(5))
	mine := randomFlowFrame(rng, 0)
	theirs := make([][]byte, batches*perBatch) // one flow, a payload each
	for i := range theirs {
		theirs[i] = randomFlowFrame(rng, 4)
	}
	r.add(exactMatchFor(t, mine, 1), 10, []openflow.Action{output(2)})
	r.add(exactMatchFor(t, theirs[0], 3), 10, []openflow.Action{output(4)})
	var (
		wg       sync.WaitGroup
		mineSent int
		returned atomic.Bool
		late     atomic.Int32 // theirs frames sent after the call returned
		got      = map[string]int{}
	)
	r.ports[3].SetOut(func(f []byte) {
		if returned.Load() {
			late.Add(1)
		}
		got[string(f)]++
	})
	r.ports[1].SetOut(func([]byte) {
		mineSent++
		switch mineSent {
		case 1:
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					var fb packet.FrameBatch
					for _, f := range theirs[b*perBatch : (b+1)*perBatch] {
						fb.Append(f)
					}
					r.dp.ReceiveBatch(3, &fb)
				}
			}()
		case spans:
			wg.Wait() // every batch is handed in while the call holds the datapath
		}
	})
	var fb packet.FrameBatch
	for i := 0; i < spans; i++ {
		fb.Append(mine)
	}
	r.dp.ReceiveBatch(1, &fb)
	returned.Store(true)

	if late.Load() != 0 {
		t.Errorf("%d frames left after the call returned", late.Load())
	}
	for i, f := range theirs {
		if got[string(f)] != 1 {
			t.Errorf("frame %d of the other goroutine left %d times, want once", i, got[string(f)])
		}
	}
	n := uint64(len(theirs))
	var size uint64
	for _, f := range theirs {
		size += uint64(len(f))
	}
	if e := r.entries[1]; e.PacketCount() != n || e.ByteCount() != size {
		t.Errorf("their entry charged %d packets, %d bytes; want %d, %d", e.PacketCount(), e.ByteCount(), n, size)
	}
	if s := r.ports[2].Stats(); s.RxPackets != n || s.RxBytes != size {
		t.Errorf("port 3 received %d packets, %d bytes; want %d, %d", s.RxPackets, s.RxBytes, n, size)
	}
	if s := r.ports[3].Stats(); s.TxPackets != n || s.TxBytes != size {
		t.Errorf("port 4 sent %d packets, %d bytes; want %d, %d", s.TxPackets, s.TxBytes, n, size)
	}
	if lookups, matched := r.dp.table.Counters(); lookups != spans+n || matched != spans+n {
		t.Errorf("table counted %d lookups, %d matches; want %d each", lookups, matched, spans+n)
	}
	if r.dp.in.waiting.Load() {
		t.Error("the frame queue still holds a batch")
	}
}
