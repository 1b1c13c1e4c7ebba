// Package noxtest scripts the datapath end of a NOX controller's secure
// channel, so a component can be driven with packet-ins it would never see
// from a real switch and its answers counted: the tests and fuzz targets of
// the DHCP server and the DNS proxy use it. A Datapath is bound to an
// oftransport.Direct channel: it answers the handshake, echo and barrier
// requests inline and collects everything else the controller sends, and
// since the controller dispatches a packet-in inside the Send that carries
// it, what the dispatch sent has been collected when that Send returns. It
// is meant for one test goroutine.
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
	end     *oftransport.DirectEnd
	nextBuf uint32
	sent    []openflow.Message // what the controller sent since the last take
}

// Attach attaches a scripted datapath to ctl, answers the handshake, and
// returns once every join handler has run and what they sent has been
// collected. The connection is closed at the end of the test.
func Attach(tb testing.TB, ctl *nox.Controller) *Datapath {
	tb.Helper()
	ctlEnd, dpEnd := oftransport.Direct()
	d := &Datapath{tb: tb, end: dpEnd}
	dpEnd.Bind(d.deliver, nil)
	tb.Cleanup(func() { _ = dpEnd.Close() })
	if _, err := ctl.AttachDirect(ctlEnd, ctlEnd); err != nil {
		tb.Fatalf("noxtest: attach: %v", err)
	}
	d.take()
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
	// A pooled packet-in, as a datapath sends: the controller releases it
	// after the dispatch, so a module that kept it would read zeros.
	d.send(openflow.NewPacketIn(openflow.PacketIn{
		BufferID: id, TotalLen: uint16(len(frame)), InPort: inPort,
		Reason: openflow.PacketInReasonAction, Data: frame,
	}))
	sent = d.take()
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

// deliver takes what the controller sends: the features, echo and barrier
// requests are answered inside the controller's Send, the rest collected.
func (d *Datapath) deliver(msg openflow.Message) {
	var rep openflow.Message
	switch m := msg.(type) {
	case *openflow.FeaturesRequest:
		rep = &openflow.FeaturesReply{DatapathID: 1}
	case *openflow.EchoRequest:
		rep = &openflow.EchoReply{Data: m.Data}
	case *openflow.BarrierRequest:
		rep = &openflow.BarrierReply{}
	default:
		d.sent = append(d.sent, msg)
		return
	}
	rep.Hdr().XID = msg.Hdr().XID
	d.send(rep)
}

// take returns and forgets what the controller has sent.
func (d *Datapath) take() []openflow.Message {
	sent := d.sent
	d.sent = nil
	return sent
}

func (d *Datapath) send(msg openflow.Message) {
	d.tb.Helper()
	if err := d.end.Send(msg); err != nil {
		d.tb.Fatalf("noxtest: send %T: %v", msg, err)
	}
}
