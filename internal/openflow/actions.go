package openflow

import (
	"encoding/binary"
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
	encode(b []byte) []byte
	decode(b []byte) error
	String() string
}

// ActionOutput forwards the packet to a port (possibly a reserved one).
type ActionOutput struct {
	Port   uint16
	MaxLen uint16 // bytes to send when Port is PortController
}

func (a *ActionOutput) actType() uint16 { return ActTypeOutput }
func (a *ActionOutput) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return binary.BigEndian.AppendUint16(b, a.MaxLen)
}
func (a *ActionOutput) decode(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	a.MaxLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

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
func (a *ActionSetDLSrc) encode(b []byte) []byte {
	b = append(b, a.Addr[:]...)
	return append(b, make([]byte, 6)...)
}
func (a *ActionSetDLSrc) decode(b []byte) error {
	if len(b) < 6 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:6])
	return nil
}
func (a *ActionSetDLSrc) String() string { return "set_dl_src:" + a.Addr.String() }

// ActionSetDLDst rewrites the Ethernet destination address.
type ActionSetDLDst struct{ Addr packet.MAC }

func (a *ActionSetDLDst) actType() uint16 { return ActTypeSetDLDst }
func (a *ActionSetDLDst) encode(b []byte) []byte {
	b = append(b, a.Addr[:]...)
	return append(b, make([]byte, 6)...)
}
func (a *ActionSetDLDst) decode(b []byte) error {
	if len(b) < 6 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:6])
	return nil
}
func (a *ActionSetDLDst) String() string { return "set_dl_dst:" + a.Addr.String() }

// ActionEnqueue forwards through a port's queue.
type ActionEnqueue struct {
	Port    uint16
	QueueID uint32
}

func (a *ActionEnqueue) actType() uint16 { return ActTypeEnqueue }
func (a *ActionEnqueue) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, a.Port)
	b = append(b, make([]byte, 6)...)
	return binary.BigEndian.AppendUint32(b, a.QueueID)
}
func (a *ActionEnqueue) decode(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	a.QueueID = binary.BigEndian.Uint32(b[8:12])
	return nil
}
func (a *ActionEnqueue) String() string { return fmt.Sprintf("enqueue:%d:%d", a.Port, a.QueueID) }

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

func (a *ActionUnsupported) actType() uint16        { return a.Type }
func (a *ActionUnsupported) encode(b []byte) []byte { return append(b, a.Body...) }
func (a *ActionUnsupported) decode(b []byte) error {
	a.Body = append([]byte(nil), b...)
	return nil
}
func (a *ActionUnsupported) String() string { return fmt.Sprintf("unsupported:%d", a.Type) }

// encodeActions appends the wire form of an action list.
func encodeActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		start := len(b)
		b = binary.BigEndian.AppendUint16(b, a.actType())
		b = append(b, 0, 0) // length placeholder
		b = a.encode(b)
		// Actions are multiples of 8 bytes.
		for (len(b)-start)%8 != 0 {
			b = append(b, 0)
		}
		binary.BigEndian.PutUint16(b[start+2:start+4], uint16(len(b)-start))
	}
	return b
}

// decodeActions parses a full action list.
func decodeActions(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrTruncated
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, ErrBadLength
		}
		var a Action
		switch typ {
		case ActTypeOutput:
			a = &ActionOutput{}
		case ActTypeSetDLSrc:
			a = &ActionSetDLSrc{}
		case ActTypeSetDLDst:
			a = &ActionSetDLDst{}
		case ActTypeEnqueue:
			a = &ActionEnqueue{}
		default:
			a = &ActionUnsupported{Type: typ}
		}
		if err := a.decode(b[4:alen]); err != nil {
			return nil, err
		}
		actions = append(actions, a)
		b = b[alen:]
	}
	return actions, nil
}
