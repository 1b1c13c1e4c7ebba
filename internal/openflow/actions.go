package openflow

import (
	"encoding/binary"
	"fmt"

	"repro/internal/packet"
)

// Action type codes (ofp_action_type).
const (
	ActTypeOutput     uint16 = 0
	ActTypeSetVLANVID uint16 = 1
	ActTypeSetVLANPCP uint16 = 2
	ActTypeStripVLAN  uint16 = 3
	ActTypeSetDLSrc   uint16 = 4
	ActTypeSetDLDst   uint16 = 5
	ActTypeSetNWSrc   uint16 = 6
	ActTypeSetNWDst   uint16 = 7
	ActTypeSetNWTOS   uint16 = 8
	ActTypeSetTPSrc   uint16 = 9
	ActTypeSetTPDst   uint16 = 10
	ActTypeEnqueue    uint16 = 11
	ActTypeVendor     uint16 = 0xffff
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
// four basic kinds the paper describes — drop (empty list), forward, send to
// controller, and NORMAL processing — are all expressed via ActionOutput;
// the Set* actions implement "packets can be modified as they are
// forwarded".
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

// ActionSetVLANVID rewrites the VLAN id, tagging if needed.
type ActionSetVLANVID struct{ VID uint16 }

func (a *ActionSetVLANVID) actType() uint16 { return ActTypeSetVLANVID }
func (a *ActionSetVLANVID) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, a.VID)
	return append(b, 0, 0)
}
func (a *ActionSetVLANVID) decode(b []byte) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	a.VID = binary.BigEndian.Uint16(b[0:2])
	return nil
}
func (a *ActionSetVLANVID) String() string { return fmt.Sprintf("set_vlan_vid:%d", a.VID) }

// ActionSetVLANPCP rewrites the VLAN priority.
type ActionSetVLANPCP struct{ PCP uint8 }

func (a *ActionSetVLANPCP) actType() uint16 { return ActTypeSetVLANPCP }
func (a *ActionSetVLANPCP) encode(b []byte) []byte {
	return append(b, a.PCP, 0, 0, 0)
}
func (a *ActionSetVLANPCP) decode(b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	a.PCP = b[0]
	return nil
}
func (a *ActionSetVLANPCP) String() string { return fmt.Sprintf("set_vlan_pcp:%d", a.PCP) }

// ActionStripVLAN removes any VLAN tag.
type ActionStripVLAN struct{}

func (a *ActionStripVLAN) actType() uint16        { return ActTypeStripVLAN }
func (a *ActionStripVLAN) encode(b []byte) []byte { return append(b, 0, 0, 0, 0) }
func (a *ActionStripVLAN) decode([]byte) error    { return nil }
func (a *ActionStripVLAN) String() string         { return "strip_vlan" }

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

// ActionSetNWSrc rewrites the IPv4 source address.
type ActionSetNWSrc struct{ Addr packet.IP4 }

func (a *ActionSetNWSrc) actType() uint16        { return ActTypeSetNWSrc }
func (a *ActionSetNWSrc) encode(b []byte) []byte { return append(b, a.Addr[:]...) }
func (a *ActionSetNWSrc) decode(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:4])
	return nil
}
func (a *ActionSetNWSrc) String() string { return "set_nw_src:" + a.Addr.String() }

// ActionSetNWDst rewrites the IPv4 destination address.
type ActionSetNWDst struct{ Addr packet.IP4 }

func (a *ActionSetNWDst) actType() uint16        { return ActTypeSetNWDst }
func (a *ActionSetNWDst) encode(b []byte) []byte { return append(b, a.Addr[:]...) }
func (a *ActionSetNWDst) decode(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:4])
	return nil
}
func (a *ActionSetNWDst) String() string { return "set_nw_dst:" + a.Addr.String() }

// ActionSetNWTOS rewrites the IPv4 TOS byte.
type ActionSetNWTOS struct{ TOS uint8 }

func (a *ActionSetNWTOS) actType() uint16        { return ActTypeSetNWTOS }
func (a *ActionSetNWTOS) encode(b []byte) []byte { return append(b, a.TOS, 0, 0, 0) }
func (a *ActionSetNWTOS) decode(b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	a.TOS = b[0]
	return nil
}
func (a *ActionSetNWTOS) String() string { return fmt.Sprintf("set_nw_tos:%d", a.TOS) }

// ActionSetTPSrc rewrites the transport source port.
type ActionSetTPSrc struct{ Port uint16 }

func (a *ActionSetTPSrc) actType() uint16 { return ActTypeSetTPSrc }
func (a *ActionSetTPSrc) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return append(b, 0, 0)
}
func (a *ActionSetTPSrc) decode(b []byte) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	return nil
}
func (a *ActionSetTPSrc) String() string { return fmt.Sprintf("set_tp_src:%d", a.Port) }

// ActionSetTPDst rewrites the transport destination port.
type ActionSetTPDst struct{ Port uint16 }

func (a *ActionSetTPDst) actType() uint16 { return ActTypeSetTPDst }
func (a *ActionSetTPDst) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, a.Port)
	return append(b, 0, 0)
}
func (a *ActionSetTPDst) decode(b []byte) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	return nil
}
func (a *ActionSetTPDst) String() string { return fmt.Sprintf("set_tp_dst:%d", a.Port) }

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
		case ActTypeSetVLANVID:
			a = &ActionSetVLANVID{}
		case ActTypeSetVLANPCP:
			a = &ActionSetVLANPCP{}
		case ActTypeStripVLAN:
			a = &ActionStripVLAN{}
		case ActTypeSetDLSrc:
			a = &ActionSetDLSrc{}
		case ActTypeSetDLDst:
			a = &ActionSetDLDst{}
		case ActTypeSetNWSrc:
			a = &ActionSetNWSrc{}
		case ActTypeSetNWDst:
			a = &ActionSetNWDst{}
		case ActTypeSetNWTOS:
			a = &ActionSetNWTOS{}
		case ActTypeSetTPSrc:
			a = &ActionSetTPSrc{}
		case ActTypeSetTPDst:
			a = &ActionSetTPDst{}
		case ActTypeEnqueue:
			a = &ActionEnqueue{}
		default:
			return nil, fmt.Errorf("openflow: unknown action type %d", typ)
		}
		if err := a.decode(b[4:alen]); err != nil {
			return nil, err
		}
		actions = append(actions, a)
		b = b[alen:]
	}
	return actions, nil
}

// ApplyActions executes an action list on a frame, calling out for each
// output action, in list order, with the port and the frame as the actions
// before it have rewritten it: a rewrite reaches only the outputs after it,
// as OpenFlow 1.0 specifies. Reserved ports are passed as-is for the
// datapath to interpret. The input frame is never written; a frame handed
// to out is not written afterwards either.
func ApplyActions(frame []byte, actions []Action, out func(port uint16, frame []byte)) {
	var d packet.Decoded
	dirty := false
	ensure := func() bool {
		// Re-decode lazily before first modification.
		if !dirty {
			if err := d.Decode(frame); err != nil {
				return false
			}
			dirty = true
		}
		return true
	}
	reserialize := func() {
		if !dirty {
			return
		}
		if d.HasIP {
			switch {
			case d.HasTCP:
				d.IP.Payload = d.TCP.Bytes(d.IP.Src, d.IP.Dst)
			case d.HasUDP:
				d.IP.Payload = d.UDP.Bytes(d.IP.Src, d.IP.Dst)
			case d.HasICMP:
				d.IP.Payload = d.ICMP.Bytes()
			}
			d.Eth.Payload = d.IP.Bytes()
		}
		frame = d.Eth.Bytes()
		dirty = false
	}
	for _, a := range actions {
		switch act := a.(type) {
		case *ActionOutput:
			reserialize()
			out(act.Port, frame)
		case *ActionEnqueue:
			reserialize()
			out(act.Port, frame)
		case *ActionSetDLSrc:
			if ensure() {
				d.Eth.Src = act.Addr
			}
		case *ActionSetDLDst:
			if ensure() {
				d.Eth.Dst = act.Addr
			}
		case *ActionSetVLANVID:
			if ensure() {
				d.Eth.Tagged = true
				d.Eth.VLANID = act.VID
			}
		case *ActionSetVLANPCP:
			if ensure() {
				d.Eth.Tagged = true
				d.Eth.VLANPriority = act.PCP
			}
		case *ActionStripVLAN:
			if ensure() {
				d.Eth.Tagged = false
			}
		case *ActionSetNWSrc:
			if ensure() && d.HasIP {
				d.IP.Src = act.Addr
			}
		case *ActionSetNWDst:
			if ensure() && d.HasIP {
				d.IP.Dst = act.Addr
			}
		case *ActionSetNWTOS:
			if ensure() && d.HasIP {
				d.IP.TOS = act.TOS
			}
		case *ActionSetTPSrc:
			if ensure() {
				switch {
				case d.HasTCP:
					d.TCP.SrcPort = act.Port
				case d.HasUDP:
					d.UDP.SrcPort = act.Port
				}
			}
		case *ActionSetTPDst:
			if ensure() {
				switch {
				case d.HasTCP:
					d.TCP.DstPort = act.Port
				case d.HasUDP:
					d.UDP.DstPort = act.Port
				}
			}
		}
	}
}
