// Package noxtest scripts the datapath end of a NOX controller's secure
// channel, so a component can be driven with packet-ins it would never see
// from a real switch and its answers counted: the tests and fuzz targets of
// the DHCP server and the DNS proxy use it. A Datapath completes the
// OpenFlow handshake over an in-process transport, delivers one packet-in
// at a time, and returns what the controller sent back before the echo that
// follows it. It is meant for one test goroutine.
package noxtest

import (
	"testing"

	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
)

// Datapath is the scripted switch end of one controller connection.
type Datapath struct {
	tb      testing.TB
	tr      oftransport.Transport
	nextBuf uint32
	xid     uint32
}

// Attach serves one transport on ctl, answers the handshake, and returns
// once every join handler has run and what they sent has been collected.
// The connection is closed at the end of the test.
func Attach(tb testing.TB, ctl *nox.Controller) *Datapath {
	tb.Helper()
	ctlEnd, dpEnd := oftransport.Pair(0)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ctl.ServeTransport(ctlEnd)
	}()
	tb.Cleanup(func() {
		_ = dpEnd.Close()
		<-served
	})
	d := &Datapath{tb: tb, tr: dpEnd}
	d.send(&openflow.Hello{})
	for joined := false; !joined; {
		msg := d.recv()
		if req, ok := msg.(*openflow.FeaturesRequest); ok {
			rep := &openflow.FeaturesReply{DatapathID: 1}
			rep.Header.XID = req.Header.XID
			d.send(rep)
			joined = true
		}
	}
	d.sync()
	return d
}

// PacketIn delivers frame as a buffered packet-in on inPort, with the
// reason an OUTPUT:CONTROLLER rule gives, and returns what the controller
// sent in its dispatch: every message, and how many of them answer the
// buffer — flow-mods and packet-outs that reference its id.
func (d *Datapath) PacketIn(frame []byte, inPort uint16) (sent []openflow.Message, answers int) {
	d.tb.Helper()
	d.nextBuf++
	id := d.nextBuf
	d.send(&openflow.PacketIn{
		BufferID: id, TotalLen: uint16(len(frame)), InPort: inPort,
		Reason: openflow.PacketInReasonAction, Data: frame,
	})
	sent = d.sync()
	for _, msg := range sent {
		switch m := msg.(type) {
		case *openflow.FlowMod:
			if m.BufferID == id {
				answers++
			}
		case *openflow.PacketOut:
			if m.BufferID == id {
				answers++
			}
		}
	}
	return sent, answers
}

// sync round-trips an echo request and returns what the controller sent
// before the reply: the read loop handles messages in order, so that is
// everything the messages sent before the echo made it send. Barrier and
// echo requests of the controller's own are answered on the way.
func (d *Datapath) sync() []openflow.Message {
	d.tb.Helper()
	d.xid++
	echo := &openflow.EchoRequest{Data: []byte("noxtest")}
	echo.Header.XID = 0x80000000 | d.xid // clear of the controller's own xids
	d.send(echo)
	var sent []openflow.Message
	for {
		switch m := d.recv().(type) {
		case *openflow.EchoReply:
			if m.Header.XID == echo.Header.XID {
				return sent
			}
		case *openflow.EchoRequest:
			rep := &openflow.EchoReply{Data: m.Data}
			rep.Header.XID = m.Header.XID
			d.send(rep)
		case *openflow.BarrierRequest:
			rep := &openflow.BarrierReply{}
			rep.Header.XID = m.Header.XID
			d.send(rep)
		default:
			sent = append(sent, m)
		}
	}
}

func (d *Datapath) send(msg openflow.Message) {
	d.tb.Helper()
	if err := d.tr.Send(msg); err != nil {
		d.tb.Fatalf("noxtest: send %T: %v", msg, err)
	}
}

func (d *Datapath) recv() openflow.Message {
	d.tb.Helper()
	msg, err := d.tr.Recv()
	if err != nil {
		d.tb.Fatalf("noxtest: receive: %v", err)
	}
	return msg
}
