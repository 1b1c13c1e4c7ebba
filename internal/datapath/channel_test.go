package datapath

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// pipeRig connects a datapath to a raw test "controller" over net.Pipe,
// performing the HELLO exchange so the secure channel is live.
type pipeRig struct {
	dp   *Datapath
	conn net.Conn // controller side
}

func newPipeRig(t *testing.T, clk clock.Clock) *pipeRig {
	t.Helper()
	dpSide, ctlSide := net.Pipe()
	dp := New(Config{ID: 7, Clock: clk})
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2})
	go func() { _ = dp.Connect(dpSide) }()
	t.Cleanup(dp.Stop)

	// net.Pipe is unbuffered: read the datapath's HELLO before sending
	// ours, or both sides block writing.
	msg, err := openflow.ReadMessage(ctlSide)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*openflow.Hello); !ok {
		t.Fatalf("expected HELLO, got %T", msg)
	}
	if err := openflow.WriteMessage(ctlSide, &openflow.Hello{}); err != nil {
		t.Fatal(err)
	}
	return &pipeRig{dp: dp, conn: ctlSide}
}

// read reads messages until one of type T arrives or the timeout passes.
func readUntil[T openflow.Message](t *testing.T, conn net.Conn) T {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = conn.SetReadDeadline(deadline)
		msg, err := openflow.ReadMessage(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if m, ok := msg.(T); ok {
			return m
		}
	}
}

func TestChannelFeaturesAndConfig(t *testing.T) {
	rig := newPipeRig(t, clock.Real{})
	req := &openflow.FeaturesRequest{}
	req.Header.XID = 9
	if err := openflow.WriteMessage(rig.conn, req); err != nil {
		t.Fatal(err)
	}
	rep := readUntil[*openflow.FeaturesReply](t, rig.conn)
	if rep.DatapathID != 7 || len(rep.Ports) != 2 || rep.Header.XID != 9 {
		t.Errorf("features = %+v", rep)
	}

	if err := openflow.WriteMessage(rig.conn, &openflow.SetConfig{MissSendLen: 512}); err != nil {
		t.Fatal(err)
	}
	if err := openflow.WriteMessage(rig.conn, &openflow.GetConfigRequest{}); err != nil {
		t.Fatal(err)
	}
	cfg := readUntil[*openflow.GetConfigReply](t, rig.conn)
	if cfg.MissSendLen != 512 {
		t.Errorf("miss_send_len = %d", cfg.MissSendLen)
	}
}

func TestChannelExpirySendsFlowRemoved(t *testing.T) {
	clk := clock.NewSimulated()
	rig := newPipeRig(t, clk)

	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWTPDst
	m.TPDst = 80
	fm := &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: 4,
		IdleTimeout: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Flags:  openflow.FlowModFlagSendFlowRem,
		Cookie: 0xabc,
	}
	if err := openflow.WriteMessage(rig.conn, fm); err != nil {
		t.Fatal(err)
	}
	// Barrier to ensure the flow-mod was processed.
	if err := openflow.WriteMessage(rig.conn, &openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	readUntil[*openflow.BarrierReply](t, rig.conn)
	if rig.dp.Table().Len() != 1 {
		t.Fatalf("table len = %d", rig.dp.Table().Len())
	}

	// Sweep in a goroutine: the flow-removed write blocks on the
	// unbuffered pipe until this test reads it.
	clk.Advance(11 * time.Second)
	go rig.dp.SweepExpired()
	fr := readUntil[*openflow.FlowRemoved](t, rig.conn)
	if fr.Cookie != 0xabc || fr.Reason != openflow.FlowRemovedIdleTimeout {
		t.Errorf("flow removed = %+v", fr)
	}
	if rig.dp.Table().Len() != 0 {
		t.Error("entry survived expiry")
	}
}

// A delete's flow-removed carries the entry's whole lifetime, nanoseconds
// included, as an expiry's and a flow-stats reply's do.
func TestChannelDeleteSendsDurationNsec(t *testing.T) {
	clk := clock.NewSimulated()
	rig := newPipeRig(t, clk)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWTPDst
	m.TPDst = 443
	add := &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: 4,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Flags: openflow.FlowModFlagSendFlowRem,
	}
	if err := openflow.WriteMessage(rig.conn, add); err != nil {
		t.Fatal(err)
	}
	if err := openflow.WriteMessage(rig.conn, &openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	readUntil[*openflow.BarrierReply](t, rig.conn)

	clk.Advance(1500 * time.Millisecond)
	del := &openflow.FlowMod{
		Match: m, Command: openflow.FlowModDeleteStrict, Priority: 4,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	}
	if err := openflow.WriteMessage(rig.conn, del); err != nil {
		t.Fatal(err)
	}
	fr := readUntil[*openflow.FlowRemoved](t, rig.conn)
	if fr.Reason != openflow.FlowRemovedDelete || fr.DurationSec != 1 || fr.DurationNsec != 5e8 {
		t.Errorf("flow removed: reason %d, %d s %d ns; want delete after 1 s 500000000 ns",
			fr.Reason, fr.DurationSec, fr.DurationNsec)
	}
}

func TestChannelBadStatsTypeYieldsError(t *testing.T) {
	rig := newPipeRig(t, clock.Real{})
	req := &openflow.StatsRequest{StatsType: 0x7777}
	req.Header.XID = 12
	if err := openflow.WriteMessage(rig.conn, req); err != nil {
		t.Fatal(err)
	}
	em := readUntil[*openflow.ErrorMsg](t, rig.conn)
	if em.ErrType != openflow.ErrTypeBadRequest || em.Header.XID != 12 {
		t.Errorf("error = %+v", em)
	}
}

func TestChannelEcho(t *testing.T) {
	rig := newPipeRig(t, clock.Real{})
	req := &openflow.EchoRequest{Data: []byte("ka")}
	req.Header.XID = 3
	if err := openflow.WriteMessage(rig.conn, req); err != nil {
		t.Fatal(err)
	}
	rep := readUntil[*openflow.EchoReply](t, rig.conn)
	if string(rep.Data) != "ka" || rep.Header.XID != 3 {
		t.Errorf("echo = %+v", rep)
	}
}

func TestChannelPacketOutViaTable(t *testing.T) {
	rig := newPipeRig(t, clock.Real{})
	delivered := make(chan []byte, 1)
	p2, _ := rig.dp.Port(2)
	p2.SetOut(func(f []byte) { delivered <- append([]byte(nil), f...) })

	// Install a rule forwarding everything to port 2.
	fm := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}
	if err := openflow.WriteMessage(rig.conn, fm); err != nil {
		t.Fatal(err)
	}
	// Packet-out with OFPP_TABLE: the frame is run through the table.
	frame := packet.NewUDPFrame(packet.MAC{1}, packet.MAC{2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, []byte("x")).Bytes()
	po := &openflow.PacketOut{
		BufferID: openflow.NoBuffer, InPort: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortTable}},
		Data:    frame,
	}
	if err := openflow.WriteMessage(rig.conn, po); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-delivered:
		if len(got) != len(frame) {
			t.Errorf("delivered %d bytes, want %d", len(got), len(frame))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet-out via TABLE not delivered")
	}
}

// TestChannelClosedIsTyped asserts an orderly shutdown (Stop, or the
// controller closing its end) surfaces as ErrChannelClosed, not a raw net
// error.
func TestChannelClosedIsTyped(t *testing.T) {
	ctlEnd, dpEnd := oftransport.Pair(0)
	dp := New(Config{ID: 9})
	errc := make(chan error, 1)
	go func() { errc <- dp.ConnectTransport(dpEnd) }()

	msg, err := ctlEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*openflow.Hello); !ok {
		t.Fatalf("expected HELLO, got %T", msg)
	}
	if err := ctlEnd.Send(&openflow.Hello{}); err != nil {
		t.Fatal(err)
	}

	dp.Stop()
	if err := <-errc; !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("Connect after Stop = %v, want ErrChannelClosed", err)
	}
}

// TestChannelHandshakeErrorIsTyped asserts a protocol violation surfaces
// as a *ChannelError naming the failed phase, distinguishable from the
// shutdown case.
func TestChannelHandshakeErrorIsTyped(t *testing.T) {
	ctlEnd, dpEnd := oftransport.Pair(0)
	dp := New(Config{ID: 9})
	t.Cleanup(dp.Stop)
	errc := make(chan error, 1)
	go func() { errc <- dp.ConnectTransport(dpEnd) }()

	if _, err := ctlEnd.Recv(); err != nil { // the datapath's HELLO
		t.Fatal(err)
	}
	// An echo request where HELLO belongs: protocol violation.
	if err := ctlEnd.Send(&openflow.EchoRequest{}); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	var ce *ChannelError
	if !errors.As(err, &ce) || ce.Op != "handshake" {
		t.Fatalf("handshake violation = %v, want *ChannelError{Op: handshake}", err)
	}
	if errors.Is(err, ErrChannelClosed) {
		t.Error("protocol failure must not read as an orderly close")
	}
}

// TestChannelDialErrorIsTyped asserts a failed dial is a *ChannelError
// with Op "dial".
func TestChannelDialErrorIsTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // the port is now dead

	dp := New(Config{ID: 9})
	var ce *ChannelError
	if err := dp.ConnectTCP(addr); !errors.As(err, &ce) || ce.Op != "dial" {
		t.Fatalf("dial to dead port = %v, want *ChannelError{Op: dial}", err)
	}
}
