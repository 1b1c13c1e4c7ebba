package datapath

import (
	"strings"
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
