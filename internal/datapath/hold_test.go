package datapath

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// holdRig attaches a datapath on a simulated clock to a controller the
// test scripts by hand over the in-process transport. Frames go in on
// port 1; ports 2 and 3 record what they transmit.
type holdRig struct {
	t   *testing.T
	dp  *Datapath
	ctl oftransport.Transport
	clk *clock.Simulated

	mu  sync.Mutex
	out []sentFrame
}

type sentFrame struct {
	port  uint16
	frame []byte
}

func newHoldRig(t *testing.T, nBuffers int) *holdRig {
	t.Helper()
	r := &holdRig{t: t, clk: clock.NewSimulated()}
	r.dp = New(Config{ID: 9, Clock: r.clk, NBuffers: nBuffers, MissSendLen: 0xffff})
	_ = r.dp.AddPort(&Port{No: 1})
	for _, no := range []uint16{2, 3} {
		_ = r.dp.AddPort(&Port{No: no, Out: func(f []byte) {
			r.mu.Lock()
			r.out = append(r.out, sentFrame{no, append([]byte(nil), f...)})
			r.mu.Unlock()
		}})
	}
	ctlEnd, dpEnd := oftransport.Pair(0)
	r.ctl = ctlEnd
	go func() { _ = r.dp.ConnectTransport(dpEnd) }()
	t.Cleanup(r.dp.Stop)
	if msg, err := ctlEnd.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*openflow.Hello); !ok {
		t.Fatalf("expected HELLO, got %T", msg)
	}
	r.send(&openflow.Hello{})
	return r
}

func (r *holdRig) send(msg openflow.Message) {
	r.t.Helper()
	if err := r.ctl.Send(msg); err != nil {
		r.t.Fatal(err)
	}
}

// receive hands the frames to the datapath as one batch on port 1 and
// returns once they have been executed: by this call, or by the read loop's
// when it held the datapath and so took them from the inbox.
func (r *holdRig) receive(frames ...[]byte) {
	var fb packet.FrameBatch
	for _, f := range frames {
		fb.Append(f)
	}
	r.dp.ReceiveBatch(1, &fb)
	holding(r.dp, func() {})
}

// sync round-trips a barrier and returns the packet-ins that arrived
// before its reply: everything sent so far has been applied, and every
// punt that produced is in hand.
func (r *holdRig) sync() []*openflow.PacketIn {
	r.t.Helper()
	r.send(&openflow.BarrierRequest{})
	var pis []*openflow.PacketIn
	for {
		msg, err := r.ctl.Recv()
		if err != nil {
			r.t.Fatal(err)
		}
		switch m := msg.(type) {
		case *openflow.PacketIn:
			pis = append(pis, m)
		case *openflow.BarrierReply:
			return pis
		}
	}
}

// sent returns and forgets what ports 2 and 3 have transmitted.
func (r *holdRig) sent() []sentFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.out
	r.out = nil
	return out
}

// holding runs fn as the one call in the datapath, once no other call is in
// it, so fn may read what the executing call owns: the punt buffers.
func holding(dp *Datapath, fn func()) {
	for !dp.enterIdle() {
		runtime.Gosched()
	}
	defer dp.leave()
	fn()
}

// buffered reports the punts still buffered and the frames held behind
// them.
func (r *holdRig) buffered() (punts, held int) {
	holding(r.dp, func() {
		queued := 0
		for _, b := range r.dp.buffers {
			queued += b.held.n
		}
		if queued != r.dp.heldFrames {
			r.t.Errorf("heldFrames = %d, queues hold %d", r.dp.heldFrames, queued)
		}
		punts, held = len(r.dp.buffers), r.dp.heldFrames
	})
	return punts, held
}

func (r *holdRig) lookups() (lookups, matched uint64) { return r.dp.Table().Counters() }

// flowFrame is frame seq of flow: every frame of a flow has the same
// exact-match key, and the payload says which one it is.
func flowFrame(flow byte, seq int) []byte { return paddedFlowFrame(flow, seq, 4+seq%7) }

// paddedFlowFrame is flowFrame with a payload of n bytes, every one of
// which only this flow and sequence number produce: a frame that reads as
// another's, whole or in part, is a chunk that was reused too early.
func paddedFlowFrame(flow byte, seq, n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = flow*31 + byte(seq)*7 + byte(i)
	}
	binary.BigEndian.PutUint32(payload, uint32(seq))
	return packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 0, 0, flow}, packet.MAC{2, 0, 0, 0, 1, 1},
		packet.IP4{10, 0, 0, flow}, packet.IP4{10, 0, 1, 1},
		40000, 80, packet.TCPAck, uint32(seq), 0, payload)
}

func flowFrames(flow byte, from, to int) [][]byte {
	var fs [][]byte
	for i := from; i < to; i++ {
		fs = append(fs, flowFrame(flow, i))
	}
	return fs
}

func addFlow(m openflow.Match, bufferID uint32, actions ...openflow.Action) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: 10,
		BufferID: bufferID, OutPort: openflow.PortNone, Actions: actions,
	}
}

func packetOut(bufferID uint32, actions ...openflow.Action) *openflow.PacketOut {
	return &openflow.PacketOut{BufferID: bufferID, InPort: openflow.PortNone, Actions: actions}
}

func output(port uint16) openflow.Action { return &openflow.ActionOutput{Port: port} }

// wantSent checks that exactly these frames left, in this order, all on
// one port.
func wantSent(t *testing.T, got []sentFrame, port uint16, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames left, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].port != port || !bytes.Equal(got[i].frame, want[i]) {
			t.Fatalf("frame %d: left port %d as %x, want port %d %x", i, got[i].port, got[i].frame, port, want[i])
		}
	}
}

// One packet-in per flow: the rest of a flow's batch waits behind it, and
// the flow-mod that references the buffer releases head then held frames
// in arrival order through its actions, uncharged, like the punted frame.
func TestHoldFlowModReleasesInOrder(t *testing.T) {
	r := newHoldRig(t, 0)
	a, b := flowFrames(1, 0, 5), flowFrames(2, 0, 3)
	r.receive(a[0], b[0], a[1], a[2], b[1], a[3], b[2], a[4])

	pis := r.sync()
	if len(pis) != 2 || r.dp.PuntCount() != 2 {
		t.Fatalf("%d packet-ins, %d punts; want 2 and 2", len(pis), r.dp.PuntCount())
	}
	if !bytes.Equal(pis[0].Data, a[0]) || !bytes.Equal(pis[1].Data, b[0]) {
		t.Fatal("packet-ins do not carry each flow's first frame")
	}
	if pis[0].Reason != openflow.PacketInReasonNoMatch || pis[0].InPort != 1 || int(pis[0].TotalLen) != len(a[0]) {
		t.Errorf("packet-in = %+v", pis[0])
	}
	if punts, held := r.buffered(); punts != 2 || held != 6 {
		t.Errorf("buffered %d punts, %d held; want 2 and 6", punts, held)
	}
	if got := r.sent(); len(got) != 0 {
		t.Fatalf("%d frames left before any answer", len(got))
	}

	ma := exactMatchFor(t, a[0], 1)
	r.send(addFlow(ma, pis[0].BufferID, output(2)))
	if more := r.sync(); len(more) != 0 {
		t.Fatalf("release by flow-mod punted %d more", len(more))
	}
	wantSent(t, r.sent(), 2, a)
	entry := r.dp.Table().Entries(&ma, openflow.PortNone)[0]
	if entry.PacketCount() != 0 {
		t.Errorf("released frames charged to the entry: %d packets", entry.PacketCount())
	}

	// The other flow's answer rewrites: held frames take the same actions.
	gw := packet.MAC{2, 9, 9, 9, 9, 9}
	r.send(addFlow(exactMatchFor(t, b[0], 1), pis[1].BufferID, &openflow.ActionSetDLDst{Addr: gw}, output(3)))
	r.sync()
	var rewritten [][]byte
	for _, f := range b {
		f = append([]byte(nil), f...)
		copy(f[0:6], gw[:])
		rewritten = append(rewritten, f)
	}
	wantSent(t, r.sent(), 3, rewritten)
	if punts, held := r.buffered(); punts != 0 || held != 0 {
		t.Errorf("buffered %d punts, %d held after both answers", punts, held)
	}

	// From here the flow is on the fast path.
	r.receive(flowFrame(1, 5))
	wantSent(t, r.sent(), 2, [][]byte{flowFrame(1, 5)})
	if lookups, matched := r.lookups(); lookups != 9 || matched != 1 || entry.PacketCount() != 1 {
		t.Errorf("lookups %d matched %d entry packets %d; want 9, 1, 1", lookups, matched, entry.PacketCount())
	}
	if r.dp.PuntCount() != 2 {
		t.Errorf("punts = %d, want 2", r.dp.PuntCount())
	}
}

// An answer that reaches the datapath while a call is in it waits for the
// call to return, over a queued channel as on a direct one (P2). The flow's
// first frame punts; a frame of another flow, whose rule sends it out of
// port 3, runs the rest inside the same call from port 3's sink: the
// controller answers with a flow-mod naming the buffer, and the flow's
// second frame, handed in after the flow-mod has reached the datapath, is
// held behind the punt rather than matched against the new rule, and
// leaves with the head, uncharged, when the call returns.
func TestHoldAnswerWaitsForTheCall(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 2)
	m := exactMatchFor(t, a[0], 1)
	b := flowFrame(2, 0)
	r.send(addFlow(exactMatchFor(t, b, 1), openflow.NoBuffer, output(3)))
	r.sync()
	// Once the read loop has left, nothing wakes it until the sink below
	// answers, so the batch runs on this goroutine and the read loop is free
	// to hand the answer in.
	holding(r.dp, func() {})
	p3, _ := r.dp.Port(3)
	p3.SetOut(func([]byte) {
		msg, err := r.ctl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		pi, ok := msg.(*openflow.PacketIn)
		if !ok {
			t.Fatalf("expected the first frame's packet-in, got %T", msg)
		}
		r.send(addFlow(m, pi.BufferID, output(2)))
		// The flow-mod has reached the datapath once it waits in the inbox
		// or its rule is in the table.
		for deadline := time.Now().Add(5 * time.Second); r.dp.in.queued.Load() == 0 && r.dp.Table().Len() == 1; {
			if time.Now().After(deadline) {
				t.Fatal("the flow-mod never reached the datapath")
			}
			time.Sleep(10 * time.Microsecond)
		}
		r.dp.Receive(1, a[1])
	})
	r.receive(a[0], b)

	entry := r.dp.Table().Entries(&m, openflow.PortNone)[0]
	if n := entry.PacketCount(); n != 0 {
		t.Errorf("the rule charged %d packets: the second frame was matched mid-call, not held behind the punt", n)
	}
	wantSent(t, r.sent(), 2, a)
	if punts, held := r.buffered(); punts != 0 || held != 0 || r.dp.PuntCount() != 1 {
		t.Errorf("buffered %d punts, %d held, %d punted; want 0, 0 and 1", punts, held, r.dp.PuntCount())
	}
}

// A packet-out decides about one frame, so it releases only the head; the
// frames held behind it are punted one at a time, each under a new buffer
// id with the rest still behind it, and no frame is looked up twice.
func TestHoldPacketOutRepuntsOneByOne(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 3)
	r.receive(a...)
	pis := r.sync()
	if len(pis) != 1 {
		t.Fatalf("%d packet-ins, want 1", len(pis))
	}
	seen := map[uint32]bool{pis[0].BufferID: true}

	for i := 0; i < 2; i++ {
		r.send(packetOut(pis[0].BufferID, output(2)))
		pis = r.sync()
		wantSent(t, r.sent(), 2, a[i:i+1])
		if len(pis) != 1 || !bytes.Equal(pis[0].Data, a[i+1]) || seen[pis[0].BufferID] {
			t.Fatalf("after packet-out %d: packet-ins %+v", i, pis)
		}
		seen[pis[0].BufferID] = true
		if punts, held := r.buffered(); punts != 1 || held != 1-i {
			t.Errorf("after packet-out %d: buffered %d punts, %d held", i, punts, held)
		}
	}
	r.send(addFlow(exactMatchFor(t, a[0], 1), pis[0].BufferID, output(2)))
	if more := r.sync(); len(more) != 0 {
		t.Fatalf("%d packet-ins after the last frame's answer", len(more))
	}
	wantSent(t, r.sent(), 2, a[2:])
	if r.dp.PuntCount() != 3 {
		t.Errorf("punts = %d, want 3", r.dp.PuntCount())
	}
	if lookups, matched := r.lookups(); lookups != 3 || matched != 0 {
		t.Errorf("lookups %d matched %d; want each frame counted once on arrival: 3, 0", lookups, matched)
	}
}

// An action-less packet-out discards the head and sends the held frames
// back to be punted; an action-less flow-mod that references the buffer
// drops head and held frames alike.
func TestHoldDiscardAndDrop(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 4)
	r.receive(a...)
	pis := r.sync()

	r.send(packetOut(pis[0].BufferID))
	pis = r.sync()
	if len(pis) != 1 || !bytes.Equal(pis[0].Data, a[1]) {
		t.Fatalf("after discard: packet-ins %+v", pis)
	}
	if punts, held := r.buffered(); punts != 1 || held != 2 {
		t.Errorf("after discard: buffered %d punts, %d held; want 1 and 2", punts, held)
	}

	r.send(addFlow(exactMatchFor(t, a[0], 1), pis[0].BufferID))
	if more := r.sync(); len(more) != 0 {
		t.Fatalf("drop punted %d more", len(more))
	}
	if punts, held := r.buffered(); punts != 0 || held != 0 {
		t.Errorf("after drop: buffered %d punts, %d held", punts, held)
	}
	if got := r.sent(); len(got) != 0 {
		t.Errorf("%d frames left a discarded and dropped flow", len(got))
	}
	if lookups, _ := r.lookups(); lookups != 4 {
		t.Errorf("lookups = %d, want 4", lookups)
	}
}

// Holding lasts one clock reading: once the clock has moved, the flow's
// next frame punts afresh (which is what heals a lost answer), and the
// stale buffer id still releases what it holds if its answer does come.
func TestHoldClockAdvanceRepunts(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 5)
	r.receive(a[0], a[1])
	stale := r.sync()
	if len(stale) != 1 {
		t.Fatalf("%d packet-ins, want 1", len(stale))
	}

	r.clk.Advance(250_000_000)
	r.receive(a[2], a[3])
	fresh := r.sync()
	if len(fresh) != 1 || !bytes.Equal(fresh[0].Data, a[2]) || fresh[0].BufferID == stale[0].BufferID {
		t.Fatalf("after the clock moved: packet-ins %+v", fresh)
	}
	if punts, held := r.buffered(); punts != 2 || held != 2 {
		t.Errorf("buffered %d punts, %d held; want 2 and 2", punts, held)
	}

	m := exactMatchFor(t, a[0], 1)
	r.send(addFlow(m, stale[0].BufferID, output(2)))
	r.sync()
	wantSent(t, r.sent(), 2, a[0:2])
	r.receive(a[4]) // the rule is in: fast path
	wantSent(t, r.sent(), 2, a[4:5])
	r.send(addFlow(m, fresh[0].BufferID, output(2)))
	r.sync()
	wantSent(t, r.sent(), 2, a[2:4])
	if punts, held := r.buffered(); punts != 0 || held != 0 {
		t.Errorf("buffered %d punts, %d held at the end", punts, held)
	}
	if r.dp.PuntCount() != 2 {
		t.Errorf("punts = %d, want 2", r.dp.PuntCount())
	}
}

// Held frames are bounded by NBuffers in total; past the bound a miss
// punts as it always did, and every frame still leaves exactly once.
func TestHoldBoundOverflowPunts(t *testing.T) {
	r := newHoldRig(t, 4)
	a := flowFrames(1, 0, 8)
	r.receive(a...)
	pis := r.sync()
	// a0 punts, a1..a4 fill the bound, a5..a7 punt one each.
	if len(pis) != 4 || r.dp.PuntCount() != 4 {
		t.Fatalf("%d packet-ins, %d punts; want 4 and 4", len(pis), r.dp.PuntCount())
	}
	if punts, held := r.buffered(); punts != 4 || held != 4 {
		t.Errorf("buffered %d punts, %d held; want 4 and 4", punts, held)
	}
	m := exactMatchFor(t, a[0], 1)
	for _, pi := range pis {
		r.send(addFlow(m, pi.BufferID, output(2)))
	}
	r.sync()
	wantSent(t, r.sent(), 2, a)
}

// A buffer whose ids the controller never references reclaims its slots
// oldest-first: a new flow is still buffered and forwarded after more
// unanswered punts than there are slots, and an answer to a reclaimed id
// just misses.
func TestBufferReclaimsOldestFirst(t *testing.T) {
	r := newHoldRig(t, 0)
	var first *openflow.PacketIn
	for i := 0; i < 300; i++ {
		r.receive(flowFrame(byte(i), i)) // 256 flows, then 44 of them again
		r.clk.Advance(1)
		if i == 0 {
			first = r.sync()[0]
		}
	}
	r.sync()
	if punts, _ := r.buffered(); punts != 256 {
		t.Fatalf("buffered %d punts, want the 256 newest", punts)
	}

	syn := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 7, 7}, packet.MAC{2, 0, 0, 0, 1, 1},
		packet.IP4{10, 0, 7, 7}, packet.IP4{10, 0, 1, 1}, 50000, 443, packet.TCPSyn, 1, 0, nil)
	r.receive(syn)
	pis := r.sync()
	if len(pis) != 1 || pis[0].BufferID == openflow.NoBuffer {
		t.Fatalf("new flow's packet-in = %+v", pis)
	}
	r.send(addFlow(exactMatchFor(t, syn, 1), pis[0].BufferID, output(2)))
	r.send(packetOut(first.BufferID, output(3)))
	r.sync()
	wantSent(t, r.sent(), 2, [][]byte{syn})
}

// Frames an OUTPUT:CONTROLLER action punts (the DHCP and DNS rules) are
// messages for a controller module, not a flow waiting for its rule: each
// is a packet-in of its own however many share a key and a clock reading.
func TestActionPuntsNeverHeld(t *testing.T) {
	r := newHoldRig(t, 0)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
	m.DLType, m.NWProto, m.TPDst = packet.EtherTypeIPv4, uint8(packet.ProtoUDP), 67
	r.send(addFlow(m, openflow.NoBuffer, &openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff}))
	r.sync()

	discover := packet.AppendUDPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		packet.IP4{}, packet.IP4{255, 255, 255, 255}, 68, 67, []byte("discover"))
	r.receive(discover, discover, discover)
	pis := r.sync()
	if len(pis) != 3 || r.dp.PuntCount() != 3 {
		t.Fatalf("%d packet-ins, %d punts; want 3 and 3", len(pis), r.dp.PuntCount())
	}
	ids := map[uint32]bool{}
	for _, pi := range pis {
		if pi.Reason != openflow.PacketInReasonAction || !bytes.Equal(pi.Data, discover) {
			t.Errorf("packet-in = %+v", pi)
		}
		ids[pi.BufferID] = true
	}
	if _, held := r.buffered(); held != 0 || len(ids) != 3 {
		t.Errorf("%d held, %d distinct buffer ids; want 0 and 3", held, len(ids))
	}
	if lookups, matched := r.lookups(); lookups != 3 || matched != 3 {
		t.Errorf("lookups %d matched %d; want 3, 3", lookups, matched)
	}
}

// verdict is how a scripted controller answers every packet-in of a flow.
type verdict int

const (
	forward     verdict = iota // flow-mod referencing the buffer: rewrite, output 2
	forwardBare                // flow-mod without the buffer, then a packet-out for it
	packetOnly                 // packet-out referencing the buffer: output 3, no rule
	drop                       // action-less flow-mod referencing the buffer
	discard                    // action-less packet-out referencing the buffer
	verdicts
)

var rewriteDst = packet.MAC{2, 0xee, 0, 0, 0, 1}

func (v verdict) actions() []openflow.Action {
	switch v {
	case forward, forwardBare:
		return []openflow.Action{&openflow.ActionSetDLDst{Addr: rewriteDst}, output(2)}
	case packetOnly:
		return []openflow.Action{output(3)}
	}
	return nil
}

// answer is the scripted controller's reply to one packet-in.
func (v verdict) answer(m openflow.Match, bufferID uint32) []openflow.Message {
	switch v {
	case forward, drop:
		return []openflow.Message{addFlow(m, bufferID, v.actions()...)}
	case forwardBare:
		return []openflow.Message{addFlow(m, openflow.NoBuffer, v.actions()...), packetOut(bufferID, v.actions()...)}
	}
	return []openflow.Message{packetOut(bufferID, v.actions()...)}
}

// puntEveryMiss is the reference model the hold queue must be
// indistinguishable from: the switch as it was, where every miss is a
// packet-in with a buffer of its own, answered in arrival order once the
// batch is in. It shares no code with the datapath.
type puntEveryMiss struct {
	rules map[openflow.Match][]openflow.Action
	out   map[byte][]sentFrame // by flow
}

func (ref *puntEveryMiss) batch(t *testing.T, frames [][]byte, script map[byte]verdict) {
	type punt struct {
		m     openflow.Match
		frame []byte
	}
	var punts []punt
	for _, f := range frames {
		m := exactMatchFor(t, f, 1)
		if acts, ok := ref.rules[m]; ok {
			ref.apply(f, acts)
		} else {
			punts = append(punts, punt{m, f})
		}
	}
	for _, p := range punts {
		v := script[flowOf(p.frame)]
		if v != packetOnly && v != discard {
			ref.rules[p.m] = v.actions()
		}
		ref.apply(p.frame, v.actions())
	}
}

func (ref *puntEveryMiss) apply(frame []byte, actions []openflow.Action) {
	applyActions(frame, actions, func(p, _ uint16, out []byte) {
		ref.out[flowOf(frame)] = append(ref.out[flowOf(frame)], sentFrame{p, out})
	})
}

// wantSame checks that each flow's frames left the datapath as they leave
// the model: as many, the same bytes on the same port, in the same order.
func (ref *puntEveryMiss) wantSame(t *testing.T, script map[byte]verdict, got map[byte][]sentFrame) {
	t.Helper()
	for flow := range script {
		want, have := ref.out[flow], got[flow]
		if len(want) != len(have) {
			t.Errorf("flow %d (verdict %d): %d frames left, the model sends %d", flow, script[flow], len(have), len(want))
			continue
		}
		for i := range want {
			if want[i].port != have[i].port || !bytes.Equal(want[i].frame, have[i].frame) {
				t.Errorf("flow %d (verdict %d) frame %d: left port %d as %.64x, the model sends port %d %.64x",
					flow, script[flow], i, have[i].port, have[i].frame, want[i].port, want[i].frame)
				break
			}
		}
	}
}

// flowOf reads the flow number back out of a flowFrame, rewritten or not.
func flowOf(frame []byte) byte { return frame[11] }

// The ROADMAP 6(b) differential: random multi-flow batches, answered by a
// scripted controller once each batch is in, must leave the datapath as
// they leave the punt-every-miss model — every frame exactly once or not
// at all, the same bytes on the same port, in the same order within each
// flow — while each received frame is looked up exactly once.
func TestHoldMatchesPuntEveryMiss(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newHoldRig(t, 0)
			ref := &puntEveryMiss{rules: map[openflow.Match][]openflow.Action{}, out: map[byte][]sentFrame{}}
			script := map[byte]verdict{}
			next := map[byte]int{}
			got := map[byte][]sentFrame{}
			received := 0

			for batch := 0; batch < 12; batch++ {
				var frames [][]byte
				for i, n := 0, 1+rng.Intn(24); i < n; i++ {
					flow := byte(1 + rng.Intn(6+batch)) // new flows keep appearing
					if _, ok := script[flow]; !ok {
						script[flow] = verdict(rng.Intn(int(verdicts)))
					}
					frames = append(frames, flowFrame(flow, next[flow]))
					next[flow]++
				}
				received += len(frames)
				ref.batch(t, frames, script)

				r.receive(frames...)
				for pis := r.sync(); len(pis) > 0; pis = r.sync() {
					for _, pi := range pis {
						m := exactMatchFor(t, pi.Data, pi.InPort)
						for _, msg := range script[flowOf(pi.Data)].answer(m, pi.BufferID) {
							r.send(msg)
						}
					}
				}
				for _, s := range r.sent() {
					got[flowOf(s.frame)] = append(got[flowOf(s.frame)], s)
				}
				if rng.Intn(3) == 0 {
					r.clk.Advance(250_000_000)
				}
			}

			ref.wantSame(t, script, got)
			if lookups, _ := r.lookups(); lookups != uint64(received) {
				t.Errorf("lookups = %d for %d received frames", lookups, received)
			}
			if punts, held := r.buffered(); punts != 0 || held != 0 {
				t.Errorf("buffered %d punts, %d held after every answer", punts, held)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// chunksOf lists the hold-queue chunks of every buffered punt.
func (r *holdRig) chunksOf() []*holdNode {
	var cs []*holdNode
	holding(r.dp, func() {
		for _, b := range r.dp.buffers {
			for c := b.held.head; c != nil; c = c.next {
				cs = append(cs, c)
			}
		}
	})
	return cs
}

// The recycling differential: forty flows, each a burst that fills several
// chunks, each answered while the next flow's burst is handed in, so one
// call hands a flow's chunks back and the same call or the next, on either
// goroutine, takes chunks for the next flow. Later flows must be seen holding chunks earlier
// flows held, and every frame must still leave as it leaves the
// punt-every-miss model, which copies nothing and shares nothing.
func TestHoldRecyclesChunksAcrossFlows(t *testing.T) {
	// Room for every frame of the run: a packet-out verdict releases one
	// frame per answer, and a flow that overflowed the bound would punt
	// again and race its own queue.
	r := newHoldRig(t, 40*31)
	ref := &puntEveryMiss{rules: map[openflow.Match][]openflow.Action{}, out: map[byte][]sentFrame{}}
	script := map[byte]verdict{}
	got := map[byte][]sentFrame{}
	seen := map[*holdNode]bool{}
	reused, received := 0, 0
	var unanswered []*openflow.PacketIn

	answer := func() {
		for _, pi := range unanswered {
			m := exactMatchFor(t, pi.Data, pi.InPort)
			for _, msg := range script[flowOf(pi.Data)].answer(m, pi.BufferID) {
				r.send(msg)
			}
		}
		unanswered = nil
	}
	collect := func() {
		unanswered = append(unanswered, r.sync()...)
		for _, s := range r.sent() {
			got[flowOf(s.frame)] = append(got[flowOf(s.frame)], s)
		}
	}
	for flow := byte(1); flow <= 40; flow++ {
		script[flow] = verdict(int(flow) % int(verdicts))
		frames := [][]byte{flowFrame(flow, 0)}
		for seq := 1; seq <= 30; seq++ {
			frames = append(frames, paddedFlowFrame(flow, seq, 1400-int(flow)))
		}
		received += len(frames)
		ref.batch(t, frames, script)

		answer() // no barrier: the release and the next burst race for the datapath
		r.receive(frames...)
		collect()
		for _, c := range r.chunksOf() {
			if seen[c] {
				reused++
			}
			seen[c] = true
		}
	}
	for len(unanswered) > 0 {
		answer()
		collect()
	}

	if reused == 0 {
		t.Errorf("no flow held a chunk an earlier flow had held (%d chunks seen)", len(seen))
	}
	ref.wantSame(t, script, got)
	if lookups, _ := r.lookups(); lookups != uint64(received) {
		t.Errorf("lookups = %d for %d received frames", lookups, received)
	}
	if punts, held := r.buffered(); punts != 0 || held != 0 {
		t.Errorf("buffered %d punts, %d held after every answer", punts, held)
	}
}

// A packet-out re-homes the oldest held frame as the head of a new punt,
// and a handler may read that packet-in's data for as long as it likes:
// after it has answered, and while later flows take the chunk the frame was
// held in. Run with -race: a head still aliasing its chunk is a data race
// with the next flow's push as well as wrong bytes.
func TestRehomedHeadSurvivesRecycle(t *testing.T) {
	r := newHoldRig(t, 0)
	a := [][]byte{flowFrame(1, 0), paddedFlowFrame(1, 1, 1400), paddedFlowFrame(1, 2, 1400)}
	r.receive(a...)
	pis := r.sync()
	if len(pis) != 1 {
		t.Fatalf("%d packet-ins, want 1", len(pis))
	}
	r.send(packetOut(pis[0].BufferID, output(2)))
	pis = r.sync()
	if len(pis) != 1 || !bytes.Equal(pis[0].Data, a[1]) {
		t.Fatalf("after the packet-out: packet-ins %+v", pis)
	}
	rehomed := pis[0]

	stop, done := make(chan struct{}), make(chan bool)
	go func() { // the handler that keeps its packet-in
		intact := true
		for {
			select {
			case <-stop:
				done <- intact
				return
			default:
				intact = intact && bytes.Equal(rehomed.Data, a[1])
			}
		}
	}()
	// Its answer hands the chunk back; forty more flows churn the pool.
	r.send(addFlow(exactMatchFor(t, a[0], 1), rehomed.BufferID, output(2)))
	for flow := byte(2); flow < 42; flow++ {
		var burst [][]byte
		for seq := 0; seq < 24; seq++ {
			burst = append(burst, paddedFlowFrame(flow, seq, 1400))
		}
		r.receive(burst...)
		for _, pi := range r.sync() {
			r.send(addFlow(exactMatchFor(t, pi.Data, pi.InPort), pi.BufferID, output(3)))
		}
	}
	r.sync()
	close(stop)
	if !<-done || !bytes.Equal(rehomed.Data, a[1]) {
		t.Error("the re-homed packet-in's data changed under its reader")
	}
	var left [][]byte
	for _, s := range r.sent() {
		if s.port == 2 {
			left = append(left, s.frame)
		}
	}
	if len(left) != 3 || !bytes.Equal(left[0], a[0]) || !bytes.Equal(left[1], a[1]) || !bytes.Equal(left[2], a[2]) {
		t.Errorf("flow 1 left as %d frames on port 2, want its three in order", len(left))
	}
}

// A full buffer that reclaims its oldest punts hands back the chunks held
// behind them; an answer that names a reclaimed id afterwards releases
// nothing, and the buffer goes on serving new flows.
func TestReclaimHandsChunksBack(t *testing.T) {
	r := newHoldRig(t, 8)
	var first []*openflow.PacketIn
	var firstFrames [][]byte
	for flow := byte(1); flow <= 4; flow++ {
		f := paddedFlowFrame(flow, 0, 1000)
		firstFrames = append(firstFrames, f)
		r.receive(f, paddedFlowFrame(flow, 1, 1000))
	}
	first = r.sync()
	if punts, held := r.buffered(); len(first) != 4 || punts != 4 || held != 4 {
		t.Fatalf("%d packet-ins, buffered %d punts, %d held; want 4 each", len(first), punts, held)
	}
	var old []*puntBuffer
	holding(r.dp, func() {
		for _, pi := range first {
			old = append(old, r.dp.buffers[pi.BufferID])
		}
	})

	for flow := byte(5); flow <= 12; flow++ { // eight more punts than there are slots left
		r.receive(flowFrame(flow, 0))
	}
	r.sync()
	if punts, held := r.buffered(); punts != 8 || held != 0 {
		t.Errorf("after the reclaim: buffered %d punts, %d held; want the 8 newest and nothing held", punts, held)
	}
	for i, b := range old {
		if b.held.head != nil || b.held.tail != nil || b.held.n != 0 {
			t.Errorf("reclaimed punt %d still owns chunks: %+v", i, b.held)
		}
	}

	r.send(addFlow(exactMatchFor(t, firstFrames[0], 1), first[0].BufferID, output(2)))
	r.send(packetOut(first[1].BufferID, output(3)))
	if more := r.sync(); len(more) != 0 {
		t.Errorf("answers to reclaimed ids punted %d frames", len(more))
	}
	if got := r.sent(); len(got) != 0 {
		t.Errorf("answers to reclaimed ids released %d frames", len(got))
	}

	burst := [][]byte{flowFrame(20, 0)}
	for seq := 1; seq <= 7; seq++ {
		burst = append(burst, paddedFlowFrame(20, seq, 1400))
	}
	r.receive(burst...)
	pis := r.sync()
	if len(pis) != 1 {
		t.Fatalf("new flow: %d packet-ins, want 1", len(pis))
	}
	r.send(addFlow(exactMatchFor(t, burst[0], 1), pis[0].BufferID, output(2)))
	r.sync()
	wantSent(t, r.sent(), 2, burst)
}

// A frame no chunk has room for is held in an allocation of its own, in
// its place in the queue.
func TestHoldOversizeFrameKeepsItsPlace(t *testing.T) {
	big := make([]byte, holdChunk)
	for i := range big {
		big[i] = byte(i)
	}
	var q holdQueue
	frames := [][]byte{{1, 2, 3}, big, {4, 5}, big[:holdChunk-4], {6}}
	for _, f := range frames {
		q.push(f)
	}
	for i, want := range frames {
		if got := q.pop(); !bytes.Equal(got, want) {
			t.Fatalf("pop %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if q.n != 0 {
		t.Errorf("n = %d after every pop", q.n)
	}
	q.drop()
}

// Once the pool is warm, a new flow's burst — the punt, 56 full-size frames
// held behind it, the flow-mod that releases them all — costs the punted
// frame's copy and its bookkeeping: no chunk is allocated.
func TestWarmHoldAllocatesNoChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool

	dp := New(Config{Clock: clock.NewSimulated()})
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Out: func([]byte) {}})
	var fb packet.FrameBatch
	fb.Append(flowFrame(1, 0))
	for seq := 1; seq <= 56; seq++ {
		fb.Append(paddedFlowFrame(1, seq, 1400)) // 1 454 bytes on the wire
	}
	actions := []openflow.Action{output(2)}
	round := func() {
		dp.ReceiveBatch(1, &fb)
		dp.releaseAll(dp.nextBuf, actions)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	p2, _ := dp.Port(2)
	tx0 := p2.Stats().TxPackets

	const rounds = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	if tx := p2.Stats().TxPackets - tx0; tx != 57*rounds {
		t.Fatalf("%d frames left in %d rounds, want 57 a round", tx, rounds)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per >= 2<<10 {
		t.Errorf("a warm burst allocates %d bytes, want less than 2 KB (56 held frames are %d)", per, 56*1454)
	}
}
