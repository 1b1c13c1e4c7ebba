package openflow

import "repro/internal/packet"

// Switch capability flags (ofp_capabilities).
const (
	CapFlowStats  uint32 = 1 << 0
	CapTableStats uint32 = 1 << 1
	CapPortStats  uint32 = 1 << 2
	CapSTP        uint32 = 1 << 3
	CapIPReasm    uint32 = 1 << 5
	CapQueueStats uint32 = 1 << 6
	CapARPMatchIP uint32 = 1 << 7
)

// Port config bits (ofp_port_config).
const (
	PortConfigDown       uint32 = 1 << 0
	PortConfigNoSTP      uint32 = 1 << 1
	PortConfigNoRecv     uint32 = 1 << 2
	PortConfigNoFlood    uint32 = 1 << 4
	PortConfigNoFwd      uint32 = 1 << 5
	PortConfigNoPacketIn uint32 = 1 << 6
)

// Port state bits (ofp_port_state).
const (
	PortStateLinkDown uint32 = 1 << 0
)

// PhyPortLen is the length of an ofp_phy_port.
const PhyPortLen = 48

// PhyPort describes one physical port of the datapath.
type PhyPort struct {
	PortNo     uint16
	HWAddr     packet.MAC
	Name       string
	Config     uint32
	State      uint32
	Curr       uint32
	Advertised uint32
	Supported  uint32
	Peer       uint32
}

func (p *PhyPort) layout(w *wire) {
	w.u16(&p.PortNo)
	w.bytes(p.HWAddr[:])
	w.str(&p.Name, 16)
	w.u32(&p.Config)
	w.u32(&p.State)
	w.u32(&p.Curr)
	w.u32(&p.Advertised)
	w.u32(&p.Supported)
	w.u32(&p.Peer)
}

// FeaturesRequest asks the datapath for its identity and ports.
type FeaturesRequest struct{ base }

// FeaturesReply announces the datapath id, capabilities and port set.
type FeaturesReply struct {
	base
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PhyPort
}

// layout runs the fixed fields and then as many whole ports as follow.
func (m *FeaturesReply) layout(w wire) wire {
	w.u64(&m.DatapathID)
	w.u32(&m.NBuffers)
	w.u8(&m.NTables)
	w.pad(3)
	w.u32(&m.Capabilities)
	w.u32(&m.Actions)
	for i := 0; more(&w, &m.Ports, i, PhyPortLen); i++ {
		m.Ports[i].layout(&w)
	}
	return w
}

// PacketIn reasons.
const (
	PacketInReasonNoMatch uint8 = 0
	PacketInReasonAction  uint8 = 1
)

// NoBuffer is the buffer id meaning "packet not buffered".
const NoBuffer uint32 = 0xffffffff

// PacketIn carries a packet (or its prefix) from datapath to controller.
type PacketIn struct {
	base
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   uint8
	Data     []byte

	buf  []byte // a pooled packet-in's own data buffer, kept across uses
	pool poolState
}

func (m *PacketIn) layout(w wire) wire {
	w.u32(&m.BufferID)
	w.u16(&m.TotalLen)
	w.u16(&m.InPort)
	w.u8(&m.Reason)
	w.pad(1)
	w.rest(&m.Data)
	return w
}

// PacketOut carries a packet from controller to datapath for transmission
// through an action list.
type PacketOut struct {
	base
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte
}

// layout runs the fixed fields, the action list its length field bounds,
// and the frame.
func (m *PacketOut) layout(w wire) wire {
	w.u32(&m.BufferID)
	w.u16(&m.InPort)
	at := len(w.b)
	var n uint16
	w.u16(&n)
	rest := w.sub(int(n), ErrTruncated)
	w.actions(&m.Actions)
	w.end(rest)
	w.putLen(at, at+2)
	w.rest(&m.Data)
	return w
}

// Flow mod commands (ofp_flow_mod_command).
const (
	FlowModAdd uint16 = iota
	FlowModModify
	FlowModModifyStrict
	FlowModDelete
	FlowModDeleteStrict
)

// Flow mod flags.
const (
	FlowModFlagSendFlowRem  uint16 = 1 << 0
	FlowModFlagCheckOverlap uint16 = 1 << 1
	FlowModFlagEmergency    uint16 = 1 << 2
)

// FlowMod adds, modifies or deletes flow table entries.
type FlowMod struct {
	base
	Match       Match
	Cookie      uint64
	Command     uint16
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action

	pool poolState
}

func (m *FlowMod) layout(w wire) wire {
	m.Match.layout(&w)
	w.u64(&m.Cookie)
	w.u16(&m.Command)
	w.u16(&m.IdleTimeout)
	w.u16(&m.HardTimeout)
	w.u16(&m.Priority)
	w.u32(&m.BufferID)
	w.u16(&m.OutPort)
	w.u16(&m.Flags)
	w.actions(&m.Actions)
	return w
}

// Flow removed reasons.
const (
	FlowRemovedIdleTimeout uint8 = 0
	FlowRemovedHardTimeout uint8 = 1
	FlowRemovedDelete      uint8 = 2
)

// FlowRemoved notifies the controller that a flow entry expired or was
// deleted, with its final counters.
type FlowRemoved struct {
	base
	Match        Match
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64

	pool poolState
}

func (m *FlowRemoved) layout(w wire) wire {
	m.Match.layout(&w)
	w.u64(&m.Cookie)
	w.u16(&m.Priority)
	w.u8(&m.Reason)
	w.pad(1)
	w.u32(&m.DurationSec)
	w.u32(&m.DurationNsec)
	w.u16(&m.IdleTimeout)
	w.pad(2)
	w.u64(&m.PacketCount)
	w.u64(&m.ByteCount)
	return w
}

// Port status reasons.
const (
	PortStatusAdd    uint8 = 0
	PortStatusDelete uint8 = 1
	PortStatusModify uint8 = 2
)

// PortStatus notifies the controller of a port change.
type PortStatus struct {
	base
	Reason uint8
	Desc   PhyPort
}

func (m *PortStatus) layout(w wire) wire {
	w.u8(&m.Reason)
	w.pad(7)
	m.Desc.layout(&w)
	return w
}
