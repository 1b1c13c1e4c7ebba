package openflow

import (
	"fmt"

	"repro/internal/packet"
)

// Action type codes (ofp_action_type) of the actions this package has a
// type for. Any other code on the wire reads as an ActionUnsupported.
const (
	ActTypeOutput   uint16 = 0
	ActTypeSetDLSrc uint16 = 4
	ActTypeSetDLDst uint16 = 5
	ActTypeEnqueue  uint16 = 11
	ActTypeVendor   uint16 = 0xffff
)

// Reserved port numbers (ofp_port).
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// Action is one element of a flow entry's or packet-out's action list. The
// router forwards every flow by rewriting its MAC addresses and outputting
// it, so the actions with a type are the four it sends: drop (an empty
// list), forward, send to the controller and NORMAL processing are all an
// ActionOutput, ActionEnqueue forwards through a queue, and ActionSetDLSrc
// and ActionSetDLDst rewrite the Ethernet addresses. Every other action
// reads as an ActionUnsupported, which a datapath refuses.
type Action interface {
	actType() uint16
	String() string
}

// ActionOutput forwards the packet to a port (possibly a reserved one).
type ActionOutput struct {
	Port   uint16
	MaxLen uint16 // bytes to send when Port is PortController
}

func (a *ActionOutput) actType() uint16 { return ActTypeOutput }

// String names reserved ports symbolically.
func (a *ActionOutput) String() string {
	switch a.Port {
	case PortController:
		return "output:CONTROLLER"
	case PortNormal:
		return "output:NORMAL"
	case PortFlood:
		return "output:FLOOD"
	case PortAll:
		return "output:ALL"
	case PortInPort:
		return "output:IN_PORT"
	case PortLocal:
		return "output:LOCAL"
	}
	return fmt.Sprintf("output:%d", a.Port)
}

// ActionSetDLSrc rewrites the Ethernet source address.
type ActionSetDLSrc struct{ Addr packet.MAC }

func (a *ActionSetDLSrc) actType() uint16 { return ActTypeSetDLSrc }
func (a *ActionSetDLSrc) String() string  { return "set_dl_src:" + a.Addr.String() }

// ActionSetDLDst rewrites the Ethernet destination address.
type ActionSetDLDst struct{ Addr packet.MAC }

func (a *ActionSetDLDst) actType() uint16 { return ActTypeSetDLDst }
func (a *ActionSetDLDst) String() string  { return "set_dl_dst:" + a.Addr.String() }

// ActionEnqueue forwards through a port's queue.
type ActionEnqueue struct {
	Port    uint16
	QueueID uint32
}

func (a *ActionEnqueue) actType() uint16 { return ActTypeEnqueue }
func (a *ActionEnqueue) String() string  { return fmt.Sprintf("enqueue:%d:%d", a.Port, a.QueueID) }

// ActionUnsupported is a well-framed action of a type this package does not
// model: a VLAN, network- or transport-layer rewrite, a vendor action, a
// code OpenFlow 1.0 does not define. Body is the action's bytes after its
// type and length, padding included, so a decoded one encodes to the bytes
// it was read from. A datapath answers a list holding one with
// OFPET_BAD_ACTION / OFPBAC_BAD_TYPE and runs none of it.
type ActionUnsupported struct {
	Type uint16
	Body []byte
}

func (a *ActionUnsupported) actType() uint16 { return a.Type }
func (a *ActionUnsupported) String() string  { return fmt.Sprintf("unsupported:%d", a.Type) }

// actions runs an action list; decoding, the list runs to the end of the
// structure.
func (w *wire) actions(list *[]Action) {
	for i := 0; more(w, list, i, 1); i++ {
		w.action(&(*list)[i])
	}
}

// action runs one action: its type, its length, and its body padded to a
// multiple of 8 bytes. Decoding, a length that is not such a multiple or
// runs past the list is ErrBadLength, and a type this package has no type
// for reads as an ActionUnsupported holding the body, padding and all. An
// action's body is a type switch, not a method, so that a decode's wire
// never escapes to the heap.
func (w *wire) action(a *Action) {
	start := len(w.b)
	var typ, n uint16
	if !w.dec {
		typ = (*a).actType()
	}
	w.u16(&typ)
	w.u16(&n)
	w.need(n >= 8 && n%8 == 0, ErrBadLength)
	rest := w.sub(int(n)-4, ErrBadLength)
	if w.dec && w.err == nil {
		*a = newAction(typ)
	}
	switch a := (*a).(type) {
	case *ActionOutput:
		w.u16(&a.Port)
		w.u16(&a.MaxLen)
	case *ActionSetDLSrc:
		w.bytes(a.Addr[:])
		w.pad(6)
	case *ActionSetDLDst:
		w.bytes(a.Addr[:])
		w.pad(6)
	case *ActionEnqueue:
		w.u16(&a.Port)
		w.pad(6)
		w.u32(&a.QueueID)
	case *ActionUnsupported:
		w.rest(&a.Body)
	}
	w.end(rest)
	if !w.dec {
		w.pad(-(len(w.b) - start) & 7)
	}
	w.putLen(start+2, start)
}

// newAction returns an empty action of a type code.
func newAction(typ uint16) Action {
	switch typ {
	case ActTypeOutput:
		return &ActionOutput{}
	case ActTypeSetDLSrc:
		return &ActionSetDLSrc{}
	case ActTypeSetDLDst:
		return &ActionSetDLDst{}
	case ActTypeEnqueue:
		return &ActionEnqueue{}
	}
	return &ActionUnsupported{Type: typ}
}
