package datapath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
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
	go func() { _ = dp.ConnectTransport(oftransport.NewTCP(dpSide)) }()
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
	// OUTPUT, SET_DL_SRC, SET_DL_DST and ENQUEUE: the actions it executes.
	if want := uint32(1<<0 | 1<<4 | 1<<5 | 1<<11); rep.Actions != want {
		t.Errorf("features advertise actions %#x, want %#x", rep.Actions, want)
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

// An aggregate stats request is answered from the table: the entries the
// match selects, and their packets and bytes.
func TestChannelAggregateStats(t *testing.T) {
	rig := newPipeRig(t, clock.Real{})
	for _, msg := range []openflow.Message{
		&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 1,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Actions: []openflow.Action{output(2)}},
		&openflow.BarrierRequest{},
	} {
		if err := openflow.WriteMessage(rig.conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	readUntil[*openflow.BarrierReply](t, rig.conn)
	frame := tcpFrame(1, 2, 80)
	for i := 0; i < 5; i++ {
		rig.dp.Receive(1, frame)
	}
	req := &openflow.StatsRequest{StatsType: openflow.StatsAggregate,
		Flow: openflow.FlowStatsRequest{Match: openflow.MatchAll(), TableID: 0xff, OutPort: openflow.PortNone}}
	req.Header.XID = 5
	if err := openflow.WriteMessage(rig.conn, req); err != nil {
		t.Fatal(err)
	}
	rep := readUntil[*openflow.StatsReply](t, rig.conn)
	want := openflow.AggregateStats{PacketCount: 5, ByteCount: uint64(5 * len(frame)), FlowCount: 1}
	if rep.Header.XID != 5 || rep.StatsType != openflow.StatsAggregate || rep.Aggregate != want {
		t.Errorf("aggregate reply XID %d type %d %+v, want XID 5 type %d %+v", rep.Header.XID, rep.StatsType, rep.Aggregate, openflow.StatsAggregate, want)
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
	frame := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, []byte("x"))
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

// rawAction is the wire form of one action: its type, its length and body,
// which the caller pads to make the whole a multiple of 8 bytes.
func rawAction(typ uint16, body ...byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, typ)
	b = binary.BigEndian.AppendUint16(b, uint16(4+len(body)))
	return append(b, body...)
}

// withActions is msg's wire form with the wire actions inserted at byte at,
// the header's length and, for a packet-out, its actions_len set to match.
func withActions(msg openflow.Message, at int, actions ...[]byte) []byte {
	raw := openflow.Encode(msg)
	list := bytes.Join(actions, nil)
	raw = append(raw[:at:at], append(list, raw[at:]...)...)
	binary.BigEndian.PutUint16(raw[2:4], uint16(len(raw)))
	if _, ok := msg.(*openflow.PacketOut); ok {
		binary.BigEndian.PutUint16(raw[openflow.HeaderLen+6:], uint16(len(list)))
	}
	return raw
}

// The datapath executes OUTPUT, ENQUEUE, SET_DL_SRC and SET_DL_DST and no
// other action. A flow-mod or a packet-out whose list holds any other — a
// network- or transport-layer rewrite, a vendor action — is answered with
// OFPET_BAD_ACTION / OFPBAC_BAD_TYPE, its XID and its first 64 bytes, and
// installs and sends nothing; the channel stays up. Over loopback TCP the
// controller writes the three messages as wire bytes, then a barrier, which
// must be answered after the three errors. On a direct channel it builds
// the unsupported actions by hand, a MODIFY among them.
func TestUnsupportedActionIsRefused(t *testing.T) {
	frame := packet.AppendUDPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1000, 53, []byte("query"))
	m := exactMatchFor(t, frame, 1)
	out2 := rawAction(openflow.ActTypeOutput, 0, 2, 0, 0)
	wantRefusal := func(t *testing.T, e *openflow.ErrorMsg, xid uint32, sent []byte) {
		t.Helper()
		if e.ErrType != openflow.ErrTypeBadAction || e.Code != openflow.BadActionBadType ||
			e.Header.XID != xid || !bytes.Equal(e.Data, sent[:64]) {
			t.Errorf("XID %d answered with error type %d code %d, XID %d, data % x; want type %d code %d, XID %d, data % x",
				xid, e.ErrType, e.Code, e.Header.XID, e.Data, openflow.ErrTypeBadAction, openflow.BadActionBadType, xid, sent[:64])
		}
	}

	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		dp := New(Config{ID: 9})
		var tx atomic.Int32
		_ = dp.AddPort(&Port{No: 1})
		_ = dp.AddPort(&Port{No: 2, Out: func([]byte) { tx.Add(1) }})
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err == nil {
				_ = dp.ConnectTransport(oftransport.NewTCP(conn))
			}
		}()
		t.Cleanup(dp.Stop)
		ctl, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer ctl.Close()
		_ = ctl.SetDeadline(time.Now().Add(5 * time.Second))
		if msg, err := openflow.ReadMessage(ctl); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(*openflow.Hello); !ok {
			t.Fatalf("expected HELLO, got %T", msg)
		}

		xid := func(msg openflow.Message, x uint32) openflow.Message {
			msg.Hdr().XID = x
			return msg
		}
		flowMod := func(x uint32) openflow.Message {
			return xid(&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}, x)
		}
		po := xid(&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Data: frame}, 12)
		fm := flowMod(11)
		vendor := flowMod(13)
		sent := [][]byte{
			withActions(fm, len(openflow.Encode(fm)), rawAction(8, 0x10, 0, 0, 0), out2), // SET_NW_TOS
			withActions(po, openflow.HeaderLen+8, rawAction(10, 0, 80, 0, 0), out2),      // SET_TP_DST
			withActions(vendor, len(openflow.Encode(vendor)), rawAction(0xffff, 0, 0, 0x23, 0x20, 1, 2, 3, 4, 5, 6, 7, 8), out2),
		}
		if err := openflow.WriteMessage(ctl, &openflow.Hello{}); err != nil {
			t.Fatal(err)
		}
		for _, raw := range sent {
			if _, err := ctl.Write(raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := openflow.WriteMessage(ctl, xid(&openflow.BarrierRequest{}, 14)); err != nil {
			t.Fatal(err)
		}
		var refusals []*openflow.ErrorMsg
		for {
			msg, err := openflow.ReadMessage(ctl)
			if err != nil {
				t.Fatalf("after %d refusals, before the barrier reply: %v", len(refusals), err)
			}
			if rep, ok := msg.(*openflow.BarrierReply); ok {
				if rep.Header.XID != 14 {
					t.Errorf("barrier reply XID %d, want 14", rep.Header.XID)
				}
				break
			}
			e, ok := msg.(*openflow.ErrorMsg)
			if !ok {
				t.Fatalf("the datapath sent %T", msg)
			}
			refusals = append(refusals, e)
		}
		if len(refusals) != len(sent) {
			t.Fatalf("%d of %d messages refused before the barrier reply", len(refusals), len(sent))
		}
		for i, e := range refusals {
			wantRefusal(t, e, uint32(11+i), sent[i])
		}
		if n := dp.Table().Len(); n != 0 || tx.Load() != 0 {
			t.Errorf("%d entries installed and %d frames sent, want none", n, tx.Load())
		}
	})

	t.Run("direct", func(t *testing.T) {
		var refusals []*openflow.ErrorMsg
		r := newDirectRig(t, func(_ *directRig, msg openflow.Message) {
			if e, ok := msg.(*openflow.ErrorMsg); ok {
				refusals = append(refusals, e)
			}
		})
		nwDst := &openflow.ActionUnsupported{Type: 7, Body: []byte{10, 0, 0, 9}}
		acts := []openflow.Action{nwDst, output(2)}
		msgs := []openflow.Message{
			&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Actions: acts},
			&openflow.FlowMod{Match: m, Command: openflow.FlowModModify, Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Actions: acts},
			&openflow.FlowMod{Match: m, Command: openflow.FlowModModifyStrict, Priority: 10, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone, Actions: acts},
			&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Data: frame, Actions: []openflow.Action{output(2), nwDst}},
		}
		for i, msg := range msgs {
			msg.Hdr().XID = uint32(21 + i)
			_ = r.ctl.Send(msg)
		}
		if len(refusals) != len(msgs) {
			t.Fatalf("%d of %d messages refused", len(refusals), len(msgs))
		}
		for i, e := range refusals {
			wantRefusal(t, e, uint32(21+i), openflow.Encode(msgs[i]))
		}
		if n := r.dp.Table().Len(); n != 0 || r.tx != 0 {
			t.Errorf("%d entries installed and %d frames sent, want none", n, r.tx)
		}
	})
}
