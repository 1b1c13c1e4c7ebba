package nox

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datapath"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// testRig is a controller plus one connected datapath over loopback TCP.
type testRig struct {
	ctl      *Controller
	dp       *datapath.Datapath
	sw       *Switch
	features *openflow.FeaturesReply // what the join event carried
}

// joinedRig registers a join handler that sends each joining switch, with
// the features reply its join event carried, on the returned channel.
func joinedRig(ctl *Controller) <-chan *testRig {
	joined := make(chan *testRig, 1)
	ctl.OnJoin(func(ev *JoinEvent) {
		select {
		case joined <- &testRig{ctl: ctl, sw: ev.Switch, features: ev.Features}:
		default:
		}
	})
	return joined
}

// echo round-trips an echo request carrying data and checks that the
// datapath's reply carries it back.
func echo(t *testing.T, sw *Switch, data string) {
	t.Helper()
	rep, err := sw.request(&openflow.EchoRequest{Data: []byte(data)}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if er, ok := rep.(*openflow.EchoReply); !ok || string(er.Data) != data {
		t.Fatalf("echo reply %#v, want data %q", rep, data)
	}
}

func newRig(t *testing.T, ctl *Controller) *testRig {
	t.Helper()
	if err := ctl.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	joined := joinedRig(ctl)

	dp := datapath.New(datapath.Config{ID: 0xdead0001})
	_ = dp.AddPort(&datapath.Port{No: 1, Name: "wlan0"})
	_ = dp.AddPort(&datapath.Port{No: 2, Name: "eth0"})
	go func() { _ = dp.ConnectTCP(ctl.Addr()) }()
	t.Cleanup(dp.Stop)

	select {
	case rig := <-joined:
		rig.dp = dp
		return rig
	case <-time.After(5 * time.Second):
		t.Fatal("datapath did not join")
		return nil
	}
}

func TestHandshakeAndFeatures(t *testing.T) {
	ctl := NewController()
	rig := newRig(t, ctl)
	if rig.sw.dpid != 0xdead0001 {
		t.Errorf("dpid = %x", rig.sw.dpid)
	}
	if len(rig.features.Ports) != 2 {
		t.Errorf("ports = %d", len(rig.features.Ports))
	}
	if _, ok := ctl.Switch(0xdead0001); !ok {
		t.Error("switch not registered")
	}
}

func TestEchoAndBarrier(t *testing.T) {
	ctl := NewController()
	rig := newRig(t, ctl)
	echo(t, rig.sw, "liveness")
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// packetInSeen is what the reactive-install tests copy out of a borrowed
// packet-in event before the dispatch returns.
type packetInSeen struct {
	inPort     uint16
	reason     uint8
	tcpDstPort uint16
	installErr error
}

// installOnPacketIn registers a handler that answers every packet-in the
// way a reactive module must: within the dispatch, with a flow-mod that
// references the buffer (a buffer no handler references is discarded when
// the chain returns). It reports each packet-in on the returned channel.
func installOnPacketIn(ctl *Controller, opts ...FlowOpt) <-chan packetInSeen {
	seen := make(chan packetInSeen, 4) // room for a repeat the tests assert never comes
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		m := openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort)
		err := ev.Switch.InstallFlow(m, 10, 30, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: 2}},
			append([]FlowOpt{WithBuffer(ev.Msg.BufferID)}, opts...)...)
		select {
		case seen <- packetInSeen{ev.Msg.InPort, ev.Msg.Reason, ev.Decoded.TCP.DstPort, err}:
		default:
		}
		return Stop
	})
	return seen
}

func TestPacketInAndReactiveInstall(t *testing.T) {
	ctl := NewController()
	gotPI := installOnPacketIn(ctl, withCookie(7))
	rig := newRig(t, ctl)

	frame := packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2},
		40000, 80, packet.TCPSyn, 1, 0, nil)
	rig.dp.Receive(1, frame)

	// The handler installed a flow reactively and released the buffered
	// packet.
	var pi packetInSeen
	select {
	case pi = <-gotPI:
	case <-time.After(5 * time.Second):
		t.Fatal("no packet-in")
	}
	if pi.inPort != 1 || pi.reason != openflow.PacketInReasonNoMatch || pi.tcpDstPort != 80 {
		t.Errorf("packet-in = %+v", pi)
	}
	if pi.installErr != nil {
		t.Fatal(pi.installErr)
	}
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	if rig.dp.Table().Len() != 1 {
		t.Fatalf("table len = %d", rig.dp.Table().Len())
	}

	// The buffered packet was run through the new rule: tx on port 2.
	p2, _ := rig.dp.Port(2)
	if p2.Stats().TxPackets != 1 {
		t.Errorf("buffered packet not released: tx = %d", p2.Stats().TxPackets)
	}

	// Subsequent packets match in the datapath without another packet-in.
	rig.dp.Receive(1, frame)
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	if p2.Stats().TxPackets != 2 {
		t.Errorf("tx = %d, want 2", p2.Stats().TxPackets)
	}
	select {
	case <-gotPI:
		t.Error("unexpected second packet-in")
	default:
	}
}

func TestFlowStatsAndAggregate(t *testing.T) {
	ctl := NewController()
	rig := newRig(t, ctl)

	m := openflow.MatchAll()
	if err := rig.sw.InstallFlow(m, 1, 0, 0, []openflow.Action{&openflow.ActionOutput{Port: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	frame := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, make([]byte, 100))
	for i := 0; i < 5; i++ {
		rig.dp.Receive(1, frame)
	}

	stats, err := rig.sw.FlowStats(openflow.MatchAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].PacketCount != 5 {
		t.Errorf("stats = %+v", stats)
	}
	ports, err := rig.sw.PortStats(openflow.PortNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 {
		t.Errorf("port stats = %+v", ports)
	}
	tables, err := rig.sw.TableStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ActiveCount != 1 {
		t.Errorf("table stats = %+v", tables)
	}
}

func TestDeleteFlowsAndFlowRemoved(t *testing.T) {
	ctl := NewController()
	removed := make(chan openflow.FlowRemoved, 1)
	ctl.onFlowRemoved(func(ev *FlowRemovedEvent) {
		select {
		case removed <- *ev.Msg: // the message is the dispatch's only
		default:
		}
	})
	rig := newRig(t, ctl)

	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWTPDst
	m.TPDst = 80
	if err := rig.sw.InstallFlow(m, 10, 0, 0, nil, WithFlowRemoved(), withCookie(42)); err != nil {
		t.Fatal(err)
	}
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	del := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	}
	del.Header.XID = rig.sw.nextXID()
	if err := rig.sw.Send(del); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-removed:
		if msg.Cookie != 42 || msg.Reason != openflow.FlowRemovedDelete {
			t.Errorf("flow removed = %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no flow-removed")
	}
	if rig.dp.Table().Len() != 0 {
		t.Errorf("table len = %d", rig.dp.Table().Len())
	}
}

func TestHandlerChainStop(t *testing.T) {
	ctl := NewController()
	var mu sync.Mutex
	var calls []string
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		mu.Lock()
		calls = append(calls, "first")
		mu.Unlock()
		if ev.Decoded.HasUDP && ev.Decoded.UDP.DstPort == 53 {
			return Stop // consume DNS, like the DNS proxy module
		}
		return Continue
	})
	seen := make(chan struct{}, 2)
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		mu.Lock()
		calls = append(calls, "second")
		mu.Unlock()
		seen <- struct{}{}
		return Continue
	})
	rig := newRig(t, ctl)

	dns := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{8, 8, 8, 8}, 5000, 53, nil)
	rig.dp.Receive(1, dns)
	web := packet.AppendTCPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{8, 8, 8, 8}, 5000, 80, packet.TCPSyn, 0, 0, nil)
	rig.dp.Receive(1, web)

	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("second handler never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	// DNS → first only; web → first, second.
	want := []string{"first", "first", "second"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func TestSendPacketOut(t *testing.T) {
	ctl := NewController()
	rig := newRig(t, ctl)
	var mu sync.Mutex
	var got [][]byte
	p1, _ := rig.dp.Port(1)
	p1.SetOut(func(f []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), f...))
		mu.Unlock()
	})
	frame := packet.AppendUDPFrame(nil, packet.MAC{9}, packet.MAC{1}, packet.IP4{192, 168, 1, 1}, packet.IP4{192, 168, 1, 10}, 67, 68, []byte("dhcp"))
	if err := rig.sw.SendPacket(frame, openflow.PortNone, &openflow.ActionOutput{Port: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || len(got[0]) != len(frame) {
		t.Fatalf("packet-out delivered %d frames", len(got))
	}
}

func TestComponentRegistration(t *testing.T) {
	ctl := NewController()
	comp := &l2Switch{table: map[packet.MAC]uint16{}}
	if err := ctl.Register(comp); err != nil {
		t.Fatal(err)
	}
	if names := ctl.Components(); len(names) != 1 || names[0] != "l2-switch" {
		t.Errorf("components = %v", names)
	}
	rig := newRig(t, ctl)

	var mu sync.Mutex
	tx := map[uint16]int{}
	for _, no := range []uint16{1, 2} {
		p, _ := rig.dp.Port(no)
		n := no
		p.SetOut(func([]byte) {
			mu.Lock()
			tx[n]++
			mu.Unlock()
		})
	}

	macA := packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{2, 0, 0, 0, 0, 0xb}
	aToB := packet.AppendUDPFrame(nil, macA, macB, packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, nil)
	bToA := packet.AppendUDPFrame(nil, macB, macA, packet.IP4{10, 0, 0, 2}, packet.IP4{10, 0, 0, 1}, 2, 1, nil)

	// A is unknown: flood. Then B replies: unicast to A's learned port.
	rig.dp.Receive(1, aToB)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		flooded := tx[2] >= 1
		mu.Unlock()
		if flooded || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rig.dp.Receive(2, bToA)
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := tx[1] >= 1
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if tx[1] < 1 {
		t.Errorf("learned unicast not delivered: tx=%v", tx)
	}
}

// l2Switch is a minimal learning-switch component used to exercise the
// component API the Homework modules build on.
type l2Switch struct {
	mu    sync.Mutex
	table map[packet.MAC]uint16
}

func (l *l2Switch) Name() string { return "l2-switch" }

func (l *l2Switch) Configure(ctl *Controller) error {
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		l.mu.Lock()
		l.table[ev.Decoded.Eth.Src] = ev.Msg.InPort
		out, known := l.table[ev.Decoded.Eth.Dst]
		l.mu.Unlock()
		if !known {
			_ = ev.Switch.ReleaseBuffer(ev.Msg.BufferID, ev.Msg.InPort,
				&openflow.ActionOutput{Port: openflow.PortFlood})
			return Stop
		}
		m := openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort)
		_ = ev.Switch.InstallFlow(m, 10, 60, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: out}},
			WithBuffer(ev.Msg.BufferID))
		return Stop
	})
	return nil
}

// newInprocRig mirrors newRig with the controller and datapath joined over
// an in-process transport pair instead of loopback TCP.
func newInprocRig(t *testing.T, ctl *Controller) *testRig {
	t.Helper()
	t.Cleanup(func() { ctl.Close() })
	joined := joinedRig(ctl)

	dp := datapath.New(datapath.Config{ID: 0xdead0002})
	_ = dp.AddPort(&datapath.Port{No: 1, Name: "wlan0"})
	_ = dp.AddPort(&datapath.Port{No: 2, Name: "eth0"})
	ctlEnd, dpEnd := oftransport.Pair(0)
	go func() { _ = ctl.ServeTransport(ctlEnd) }()
	go func() { _ = dp.ConnectTransport(dpEnd) }()
	t.Cleanup(dp.Stop)

	select {
	case rig := <-joined:
		rig.dp = dp
		return rig
	case <-time.After(5 * time.Second):
		t.Fatal("datapath did not join in process")
		return nil
	}
}

// TestInProcessTransportRig runs the handshake, liveness, reactive-install
// and buffered-release paths over the in-process transport: the same
// controller semantics as TCP, minus the framing.
func TestInProcessTransportRig(t *testing.T) {
	ctl := NewController()
	gotPI := installOnPacketIn(ctl)
	rig := newInprocRig(t, ctl)

	if rig.sw.dpid != 0xdead0002 {
		t.Errorf("dpid = %x", rig.sw.dpid)
	}
	if len(rig.features.Ports) != 2 {
		t.Errorf("ports = %d", len(rig.features.Ports))
	}
	echo(t, rig.sw, "liveness")
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}

	frame := packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2},
		40000, 80, packet.TCPSyn, 1, 0, nil)
	rig.dp.Receive(1, frame)

	var pi packetInSeen
	select {
	case pi = <-gotPI:
	case <-time.After(5 * time.Second):
		t.Fatal("no packet-in")
	}
	if pi.tcpDstPort != 80 {
		t.Errorf("packet-in = %+v", pi)
	}
	if pi.installErr != nil {
		t.Fatal(pi.installErr)
	}
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	if rig.dp.Table().Len() != 1 {
		t.Fatalf("table len = %d", rig.dp.Table().Len())
	}
	p2, _ := rig.dp.Port(2)
	if p2.Stats().TxPackets != 1 {
		t.Errorf("buffered packet not released: tx = %d", p2.Stats().TxPackets)
	}
	stats, err := rig.sw.FlowStats(openflow.MatchAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestCloseWaitsForDispatch asserts Controller.Close does not return while
// an event handler is still running against a transport-attached datapath
// — fleet teardown relies on this to stop writing a removed home's hwdb.
func TestCloseWaitsForDispatch(t *testing.T) {
	ctl := NewController()
	entered := make(chan struct{})
	release := make(chan struct{})
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		close(entered)
		<-release
		return Stop
	})
	rig := newInprocRig(t, ctl)

	frame := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, nil)
	rig.dp.Receive(1, frame)
	<-entered

	closed := make(chan struct{})
	go func() { _ = ctl.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still dispatching")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the handler finished")
	}

	// A transport offered after Close must be refused and torn down.
	ctlEnd, dpEnd := oftransport.Pair(0)
	if err := ctl.ServeTransport(ctlEnd); err == nil {
		t.Fatal("ServeTransport accepted a transport after Close")
	}
	if err := dpEnd.Send(&openflow.Hello{}); err == nil {
		t.Fatal("refused transport was left open")
	}
}

// answerCounter is a controller-side transport that counts what the
// controller sends in answer to packet-ins.
type answerCounter struct {
	oftransport.Transport
	mu       sync.Mutex
	discards int // action-less packet-outs that reference a buffer
	flowMods int
}

func (a *answerCounter) Send(msg openflow.Message) error {
	a.mu.Lock()
	switch m := msg.(type) {
	case *openflow.PacketOut:
		if m.BufferID != openflow.NoBuffer && len(m.Actions) == 0 {
			a.discards++
		}
	case *openflow.FlowMod:
		a.flowMods++
	}
	a.mu.Unlock()
	return a.Transport.Send(msg)
}

// Every buffered packet-in is answered exactly once: a handler chain that
// returns without referencing the buffer has it discarded by the read
// loop — which is what sends the frames the datapath holds behind the punt
// back to be punted — and one that did reference it gets no discard on
// top.
func TestUnansweredBufferIsDiscarded(t *testing.T) {
	ctl := NewController()
	t.Cleanup(func() { ctl.Close() })
	dp := datapath.New(datapath.Config{ID: 0xdead0003})
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(&datapath.Port{No: 2})

	// Flows to port 80 are answered with a flow-mod; everything else is
	// looked at and left alone.
	var mu sync.Mutex
	var seen []uint32 // TCP sequence number of each packet-in, in order
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		mu.Lock()
		seen = append(seen, ev.Decoded.TCP.Seq)
		mu.Unlock()
		if ev.Decoded.TCP.DstPort != 80 {
			return Continue
		}
		_ = ev.Switch.InstallFlow(openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort), 10, 30, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: 2}}, WithBuffer(ev.Msg.BufferID))
		return Stop
	})
	joined := make(chan *Switch, 1)
	ctl.OnJoin(func(ev *JoinEvent) { joined <- ev.Switch })
	ctlEnd, dpEnd := oftransport.Pair(0)
	answers := &answerCounter{Transport: ctlEnd}
	go func() { _ = ctl.ServeTransport(answers) }()
	go func() { _ = dp.ConnectTransport(dpEnd) }()
	t.Cleanup(dp.Stop)
	var sw *Switch
	select {
	case sw = <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("datapath did not join")
	}

	frame := func(dstPort uint16, seq uint32) []byte {
		return packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 40000, dstPort, packet.TCPAck, seq, 0, nil)
	}
	var fb packet.FrameBatch
	for _, f := range [][]byte{frame(22, 100), frame(22, 101), frame(80, 200), frame(22, 102), frame(80, 201)} {
		fb.Append(f)
	}
	dp.ReceiveBatch(1, &fb)

	// Settle as core.Router does, by barrier laps: flushing a discard
	// punts the next held frame, which must be dispatched in turn.
	for lap := 0; ; lap++ {
		if lap == 1000 {
			t.Fatalf("not settled after %d barrier laps: %d punted, %d dispatched", lap, dp.PuntCount(), ctl.Processed())
		}
		done := ctl.Processed()
		punted := dp.PuntCount()
		if err := sw.Barrier(); err != nil {
			t.Fatal(err)
		}
		if done >= punted && dp.PuntCount() == punted {
			break
		}
	}

	mu.Lock()
	got := append([]uint32(nil), seen...)
	mu.Unlock()
	// The unanswered flow's frames each reach the handler, in order; the
	// answered flow's second frame never does. How the two interleave is
	// up to the scheduler.
	var unanswered, answered []uint32
	for _, seq := range got {
		if seq < 200 {
			unanswered = append(unanswered, seq)
		} else {
			answered = append(answered, seq)
		}
	}
	if !slices.Equal(unanswered, []uint32{100, 101, 102}) || !slices.Equal(answered, []uint32{200}) {
		t.Fatalf("packet-ins %v: want 100, 101, 102 of the unanswered flow and 200 of the answered one", got)
	}
	answers.mu.Lock()
	discards, flowMods := answers.discards, answers.flowMods
	answers.mu.Unlock()
	if discards != 3 || flowMods != 1 {
		t.Errorf("%d discards and %d flow-mods, want 3 and 1", discards, flowMods)
	}
	p2, _ := dp.Port(2)
	if tx := p2.Stats().TxPackets; tx != 2 {
		t.Errorf("answered flow: %d frames forwarded, want 2", tx)
	}
}

// fillTable installs n exact-match entries, each with an output action.
func fillTable(t *testing.T, dp *datapath.Datapath, n int) {
	t.Helper()
	var d packet.Decoded
	for i := 0; i < n; i++ {
		f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, uint16(1024+i), 80, packet.TCPAck, 0, 0, nil)
		if err := d.Decode(f); err != nil {
			t.Fatal(err)
		}
		err := dp.Table().Add(&datapath.FlowEntry{
			Match: openflow.MatchFromFrame(&d, 1), Priority: 10,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A reply belongs to its requester: one that is kept is not touched by the
// polls that follow, however often the counters it copied move.
func TestKeptStatsReplyStaysIntact(t *testing.T) {
	rig := newInprocRig(t, NewController())
	fillTable(t, rig.dp, 64)
	kept, err := rig.sw.FlowStats(openflow.MatchAll())
	if err != nil || len(kept) != 64 {
		t.Fatalf("flow stats: %d entries, %v", len(kept), err)
	}
	keptPorts, err := rig.sw.PortStats(openflow.PortNone)
	if err != nil || len(keptPorts) != 2 {
		t.Fatalf("port stats: %d entries, %v", len(keptPorts), err)
	}
	want, wantPorts := slices.Clone(kept), slices.Clone(keptPorts)

	hit := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1024, 80, packet.TCPAck, 0, 0, nil)
	for i := 0; i < 100; i++ {
		rig.dp.Receive(1, hit) // counters move, so every reply differs from the kept one
		if stats, err := rig.sw.FlowStats(openflow.MatchAll()); err != nil || len(stats) != 64 {
			t.Fatalf("poll %d: %d entries, %v", i, len(stats), err)
		}
		if ports, err := rig.sw.PortStats(openflow.PortNone); err != nil || len(ports) != 2 {
			t.Fatalf("poll %d: %d ports, %v", i, len(ports), err)
		}
	}
	for i := range want {
		if !reflect.DeepEqual(kept[i], want[i]) {
			t.Fatalf("kept flow entry %d changed: %+v, was %+v", i, kept[i], want[i])
		}
	}
	if !slices.Equal(keptPorts, wantPorts) {
		t.Errorf("kept port stats changed: %+v, was %+v", keptPorts, wantPorts)
	}
}

// A request that timed out leaves its waiter to the collector: the read
// loop may have taken the channel just before the deadline and deliver the
// late reply on it, which must not turn up as the answer to a later
// request. Every other request here is answered right on its deadline, so
// that both orders of reply and timeout happen.
func TestReplyOnTheDeadlineAnswersNoLaterRequest(t *testing.T) {
	ctl := NewController()
	t.Cleanup(func() { ctl.Close() })
	joined := make(chan *Switch, 1)
	ctl.OnJoin(func(ev *JoinEvent) { joined <- ev.Switch })
	ctlEnd, dpEnd := oftransport.Pair(0)
	t.Cleanup(func() { _ = dpEnd.Close() })
	go func() { _ = ctl.ServeTransport(ctlEnd) }()

	// A scripted datapath: it answers the handshake, and every echo
	// request after the delay the request names.
	go func() {
		_ = dpEnd.Send(&openflow.Hello{})
		for {
			msg, err := dpEnd.Recv()
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *openflow.FeaturesRequest:
				rep := &openflow.FeaturesReply{DatapathID: 7}
				rep.Header.XID = m.Header.XID
				_ = dpEnd.Send(rep)
			case *openflow.EchoRequest:
				if d, err := time.ParseDuration(string(m.Data)); err == nil {
					time.Sleep(d)
				}
				rep := &openflow.EchoReply{Data: m.Data}
				rep.Header.XID = m.Header.XID
				_ = dpEnd.Send(rep)
			}
		}
	}()
	var sw *Switch
	select {
	case sw = <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("scripted datapath did not join")
	}

	const deadline = 2 * time.Millisecond
	timeouts := 0
	for i := 0; i < 100; i++ {
		if _, err := sw.request(&openflow.EchoRequest{Data: []byte(deadline.String())}, deadline); err != nil {
			timeouts++
		}
		want := fmt.Sprint("prompt ", i)
		rep, err := sw.request(&openflow.EchoRequest{Data: []byte(want)}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if er, ok := rep.(*openflow.EchoReply); !ok || string(er.Data) != want {
			t.Fatalf("request %d was answered with %+v", i, rep)
		}
	}
	if timeouts == 0 {
		t.Error("no request timed out")
	}
}

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// A warm barrier round trip over the in-process transport allocates one
// object, the datapath's eight-byte reply: the request rides in the pooled
// waiter with the channel and the timer, so the laps Router.Settle takes
// while a handshake chain is in flight cost no garbage of the controller's.
func TestWarmBarrierAllocatesOnlyTheReply(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the waiter pool
	rig := newInprocRig(t, NewController())
	barrier := func() {
		if err := rig.sw.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		barrier()
	}
	if allocs := testing.AllocsPerRun(200, barrier); allocs != 1 {
		t.Errorf("a warm in-process barrier allocates %g times, want 1 (the datapath's reply)", allocs)
	}
}

// Dispatch reads the handler chain registration published, without a copy
// of it per event: a flow-removed costs its handlers and nothing else. A
// handler registered afterwards runs from the next event on.
func TestFlowRemovedDispatchAllocatesNothing(t *testing.T) {
	ctl := NewController()
	var calls [3]int
	for i := range 2 {
		ctl.onFlowRemoved(func(*FlowRemovedEvent) { calls[i]++ })
	}
	ev := &FlowRemovedEvent{Msg: &openflow.FlowRemoved{Match: openflow.MatchAll()}}
	if allocs := testing.AllocsPerRun(100, func() { ctl.dispatchFlowRemoved(ev) }); allocs != 0 {
		t.Errorf("a flow-removed dispatch allocates %g times, want 0", allocs)
	}
	ctl.onFlowRemoved(func(*FlowRemovedEvent) { calls[2]++ })
	ctl.dispatchFlowRemoved(ev)
	if calls != [3]int{102, 102, 1} {
		t.Errorf("handler calls %v, want 102, 102 and 1", calls)
	}
}

// A flow-removed that comes in over the transport costs its handlers and
// nothing else: the read loop hands every one the same event, as it does
// packet-ins, so the message the datapath allocated is the only garbage of
// a removal.
func TestFlowRemovedReadLoopAllocatesNothing(t *testing.T) {
	ctl := NewController()
	t.Cleanup(func() { ctl.Close() })
	handled := make(chan uint64, 1)
	ctl.onFlowRemoved(func(ev *FlowRemovedEvent) { handled <- ev.Msg.PacketCount })
	joined := make(chan struct{})
	ctl.OnJoin(func(*JoinEvent) { close(joined) })
	ctlEnd, dpEnd := oftransport.Pair(0)
	t.Cleanup(func() { _ = dpEnd.Close() })
	go func() { _ = ctl.ServeTransport(ctlEnd) }()

	// A scripted datapath: HELLO, the features reply, then flow-removeds.
	_ = dpEnd.Send(&openflow.Hello{})
	for {
		msg, err := dpEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if req, ok := msg.(*openflow.FeaturesRequest); ok {
			rep := &openflow.FeaturesReply{DatapathID: 9}
			rep.Header.XID = req.Header.XID
			_ = dpEnd.Send(rep)
			break
		}
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("scripted datapath did not join")
	}

	msg := &openflow.FlowRemoved{Match: openflow.MatchAll(), PacketCount: 7}
	remove := func() {
		_ = dpEnd.Send(msg)
		if got := <-handled; got != 7 {
			t.Fatalf("handler saw %d packets, want 7", got)
		}
	}
	for i := 0; i < 10; i++ {
		remove()
	}
	if allocs := testing.AllocsPerRun(200, remove); allocs != 0 {
		t.Errorf("a flow-removed through the read loop allocates %g times, want 0", allocs)
	}
}

// Registration publishes a new chain while dispatches read the old one:
// handlers registered from several goroutines during a stream of events all
// end up in the chain, once each, in the order each goroutine added them.
func TestRegisterDuringDispatch(t *testing.T) {
	ctl := NewController()
	const writers, each = 4, 50
	var last [writers]atomic.Int64
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				ctl.onFlowRemoved(func(*FlowRemovedEvent) { last[w].Store(int64(i)) })
			}
		}()
	}
	ev := &FlowRemovedEvent{Msg: &openflow.FlowRemoved{}}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for dispatching := true; dispatching; {
		select {
		case <-done:
			dispatching = false
		default:
			ctl.dispatchFlowRemoved(ev)
		}
	}
	if n := len(ctl.flowRem.load()); n != writers*each {
		t.Fatalf("%d handlers in the chain, want %d", n, writers*each)
	}
	ctl.dispatchFlowRemoved(ev)
	for w := range writers {
		if got := last[w].Load(); got != each-1 {
			t.Errorf("writer %d: last handler to run was its %dth, want its %dth", w, got, each-1)
		}
	}
}

// newDirectRig joins a controller and a datapath over an oftransport.Direct
// channel, the controller sending through wrap(ctlEnd) when wrap is set. No
// goroutine is started: the handshake has run when it returns.
func newDirectRig(t *testing.T, ctl *Controller, wrap func(oftransport.Transport) oftransport.Transport) *testRig {
	t.Helper()
	t.Cleanup(func() { ctl.Close() })
	dp := datapath.New(datapath.Config{ID: 0xdead0004})
	_ = dp.AddPort(&datapath.Port{No: 1, Name: "wlan0"})
	_ = dp.AddPort(&datapath.Port{No: 2, Name: "eth0"})
	ctlEnd, dpEnd := oftransport.Direct()
	var tr oftransport.Transport = ctlEnd
	if wrap != nil {
		tr = wrap(ctlEnd)
	}
	joined := joinedRig(ctl)
	dp.AttachDirect(dpEnd, dpEnd)
	if _, err := ctl.AttachDirect(ctlEnd, tr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	rig := <-joined // the join handlers ran inside AttachDirect
	rig.dp = dp
	return rig
}

// A directly attached datapath joins on the caller's goroutine, and a punt
// is over when the datapath call that made it returns: dispatched, answered,
// the rule installed and the buffered frame released, with no barrier and
// no wait. Requests still work, answered by the inbox's drain, and closing
// the channel is the switch's leave.
func TestDirectAttach(t *testing.T) {
	ctl := NewController()
	gotPI := installOnPacketIn(ctl)
	rig := newDirectRig(t, ctl, nil)

	if rig.sw.dpid != 0xdead0004 || len(rig.features.Ports) != 2 {
		t.Fatalf("handshake: dpid %x, %d ports", rig.sw.dpid, len(rig.features.Ports))
	}
	if sw, ok := ctl.Switch(0xdead0004); !ok || sw != rig.sw {
		t.Fatal("the direct switch is not registered")
	}
	rig.dp.Receive(1, packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2},
		40000, 80, packet.TCPSyn, 1, 0, nil))
	select {
	case pi := <-gotPI:
		if pi.tcpDstPort != 80 || pi.installErr != nil {
			t.Fatalf("packet-in %+v", pi)
		}
	default:
		t.Fatal("Receive returned before its punt was dispatched")
	}
	if punted, done := rig.dp.PuntCount(), ctl.Processed(); punted != 1 || done != 1 {
		t.Errorf("after Receive: %d punted, %d credited, want 1 and 1", punted, done)
	}
	if n := rig.dp.Table().Len(); n != 1 {
		t.Errorf("after Receive the table holds %d entries, want the new rule", n)
	}
	if p2, _ := rig.dp.Port(2); p2.Stats().TxPackets != 1 {
		t.Errorf("after Receive the buffered frame was not released: tx %d", p2.Stats().TxPackets)
	}

	echo(t, rig.sw, "liveness")
	if err := rig.sw.Barrier(); err != nil {
		t.Fatal(err)
	}
	if stats, err := rig.sw.FlowStats(openflow.MatchAll()); err != nil || len(stats) != 1 {
		t.Fatalf("flow stats %v, %v", stats, err)
	}
	if ports, err := rig.sw.PortStats(openflow.PortNone); err != nil || len(ports) != 2 {
		t.Fatalf("port stats %v, %v", ports, err)
	}

	rig.dp.Stop()
	if rig.sw.joined.Load() || len(ctl.Switches()) != 0 {
		t.Errorf("after the datapath stopped: joined %v, %d switches", rig.sw.joined.Load(), len(ctl.Switches()))
	}
	if err := rig.sw.Barrier(); err == nil {
		t.Error("a barrier on a closed direct switch succeeded")
	}
	_ = ctl.Close()
	if len(ctl.Switches()) != 0 {
		t.Errorf("after Close: %d switches", len(ctl.Switches()))
	}
}

// On a direct switch every buffered packet-in is answered exactly once,
// and the order is no longer the scheduler's: the batch's punts are
// dispatched as they happen, the answers handled after its last frame, and
// each discard's re-homed punt dispatched inside the drain that sent it.
func TestDirectUnansweredBufferIsDiscarded(t *testing.T) {
	ctl := NewController()
	var seen []uint32
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		seen = append(seen, ev.Decoded.TCP.Seq)
		if ev.Decoded.TCP.DstPort != 80 {
			return Continue
		}
		_ = ev.Switch.InstallFlow(openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort), 10, 30, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: 2}}, WithBuffer(ev.Msg.BufferID))
		return Stop
	})
	var answers *answerCounter
	rig := newDirectRig(t, ctl, func(end oftransport.Transport) oftransport.Transport {
		answers = &answerCounter{Transport: end}
		return answers
	})
	frame := func(dstPort uint16, seq uint32) []byte {
		return packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 40000, dstPort, packet.TCPAck, seq, 0, nil)
	}
	var fb packet.FrameBatch
	for _, f := range [][]byte{frame(22, 100), frame(22, 101), frame(80, 200), frame(22, 102), frame(80, 201)} {
		fb.Append(f)
	}
	rig.dp.ReceiveBatch(1, &fb)

	if want := []uint32{100, 200, 101, 102}; !slices.Equal(seen, want) {
		t.Fatalf("packet-ins %v, want %v", seen, want)
	}
	if answers.discards != 3 || answers.flowMods != 1 {
		t.Errorf("%d discards and %d flow-mods, want 3 and 1", answers.discards, answers.flowMods)
	}
	if punted, done := rig.dp.PuntCount(), ctl.Processed(); punted != done {
		t.Errorf("%d punted, %d credited", punted, done)
	}
	if p2, _ := rig.dp.Port(2); p2.Stats().TxPackets != 2 {
		t.Errorf("answered flow: %d frames forwarded, want 2", p2.Stats().TxPackets)
	}
}

// Calls into a directly attached datapath from several goroutines at once,
// with barriers from another: the switch still runs one handler at a time,
// every punt is dispatched and credited once, every request is answered,
// and every frame leaves once its flow's rule is in. The answers wait until
// no call is in the datapath, so the load stays under the datapath's 256
// packet-in buffers. Run with -race.
func TestDirectConcurrentCalls(t *testing.T) {
	ctl := NewController()
	var inHandler, overlaps atomic.Int32
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		if inHandler.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inHandler.Add(-1)
		_ = ev.Switch.InstallFlow(openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort), 10, 30, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: 2}}, WithBuffer(ev.Msg.BufferID))
		return Stop
	})
	rig := newDirectRig(t, ctl, nil)
	const senders, flows = 4, 20 // at most 160 punts outstanding
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < flows; i++ {
				frame := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
					packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, uint16(20000+100*g+i), 80, packet.TCPAck, 1, 0, nil)
				rig.dp.Receive(1, frame)
				rig.dp.Receive(1, frame)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := rig.sw.Barrier(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if punted, done, busy := rig.dp.Drain(ctl.Processed); done < punted || busy {
		t.Fatalf("after every call returned: %d punted, %d dispatched, busy %v", punted, done, busy)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("handlers ran concurrently %d times", n)
	}
	if punted, done := rig.dp.PuntCount(), ctl.Processed(); punted != done || punted < senders*flows {
		t.Errorf("%d punted, %d credited, want every punt credited and at least one per flow", punted, done)
	}
	if n := rig.dp.Table().Len(); n != senders*flows {
		t.Errorf("table holds %d entries, want %d", n, senders*flows)
	}
	if p2, _ := rig.dp.Port(2); p2.Stats().TxPackets != 2*senders*flows {
		t.Errorf("%d frames forwarded, want %d", p2.Stats().TxPackets, 2*senders*flows)
	}
}

// discardTap is a controller-side transport that records the action-less
// packet-outs the controller sends to discard a buffer.
type discardTap struct {
	oftransport.Transport
	discards []openflow.PacketOut
}

func (d *discardTap) Send(msg openflow.Message) error {
	if m, ok := msg.(*openflow.PacketOut); ok && m.BufferID != openflow.NoBuffer && len(m.Actions) == 0 {
		d.discards = append(d.discards, *m)
	}
	return d.Transport.Send(msg)
}

// A packet-in is the switch's until its whole dispatch is over: after the
// handler chain returns, the discard of a buffer no handler answered names
// the packet-in's buffer and in_port, and only then does the switch release
// it. A handler that kept the message past the dispatch reads zeros.
func TestPacketInLivesForTheWholeDispatch(t *testing.T) {
	ctl := NewController()
	var (
		kept     *openflow.PacketIn
		buffered uint32
	)
	ctl.OnPacketIn(func(ev *PacketInEvent) Disposition {
		kept, buffered = ev.Msg, ev.Msg.BufferID // breaks the rule, to watch the release
		return Continue
	})
	tap := &discardTap{}
	rig := newDirectRig(t, ctl, func(end oftransport.Transport) oftransport.Transport {
		tap.Transport = end
		return tap
	})
	frame := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 40000, 80, packet.TCPSyn, 1, 0, nil)
	rig.dp.Receive(2, frame)

	if len(tap.discards) != 1 {
		t.Fatalf("%d discards, want 1", len(tap.discards))
	}
	if d := tap.discards[0]; d.BufferID != buffered || d.InPort != 2 {
		t.Errorf("the discard names buffer %d in_port %d, want the packet-in's: %d and 2", d.BufferID, d.InPort, buffered)
	}
	if kept.InPort != 0 || kept.BufferID != 0 || kept.Data != nil {
		t.Errorf("a packet-in kept past its dispatch still reads in_port %d, buffer %d, %d bytes: it was not released",
			kept.InPort, kept.BufferID, len(kept.Data))
	}
}
