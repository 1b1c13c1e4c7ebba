package openflow

import (
	"encoding/binary"

	"repro/internal/packet"
)

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

func (p *PhyPort) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.PortNo)
	b = append(b, p.HWAddr[:]...)
	b = appendPadded(b, p.Name, 16)
	b = binary.BigEndian.AppendUint32(b, p.Config)
	b = binary.BigEndian.AppendUint32(b, p.State)
	b = binary.BigEndian.AppendUint32(b, p.Curr)
	b = binary.BigEndian.AppendUint32(b, p.Advertised)
	b = binary.BigEndian.AppendUint32(b, p.Supported)
	b = binary.BigEndian.AppendUint32(b, p.Peer)
	return b
}

func (p *PhyPort) decode(b []byte) error {
	if len(b) < PhyPortLen {
		return ErrTruncated
	}
	p.PortNo = binary.BigEndian.Uint16(b[0:2])
	copy(p.HWAddr[:], b[2:8])
	p.Name = paddedString(b[8:24])
	p.Config = binary.BigEndian.Uint32(b[24:28])
	p.State = binary.BigEndian.Uint32(b[28:32])
	p.Curr = binary.BigEndian.Uint32(b[32:36])
	p.Advertised = binary.BigEndian.Uint32(b[36:40])
	p.Supported = binary.BigEndian.Uint32(b[40:44])
	p.Peer = binary.BigEndian.Uint32(b[44:48])
	return nil
}

// FeaturesRequest asks the datapath for its identity and ports.
type FeaturesRequest struct{ base }

func (m *FeaturesRequest) encodeBody(b []byte) []byte { return b }
func (m *FeaturesRequest) decodeBody([]byte) error    { return nil }

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

func (m *FeaturesReply) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.DatapathID)
	b = binary.BigEndian.AppendUint32(b, m.NBuffers)
	b = append(b, m.NTables, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, m.Capabilities)
	b = binary.BigEndian.AppendUint32(b, m.Actions)
	for i := range m.Ports {
		b = m.Ports[i].encode(b)
	}
	return b
}

func (m *FeaturesReply) decodeBody(b []byte) error {
	if len(b) < 24 {
		return ErrTruncated
	}
	m.DatapathID = binary.BigEndian.Uint64(b[0:8])
	m.NBuffers = binary.BigEndian.Uint32(b[8:12])
	m.NTables = b[12]
	m.Capabilities = binary.BigEndian.Uint32(b[16:20])
	m.Actions = binary.BigEndian.Uint32(b[20:24])
	m.Ports = nil
	for rest := b[24:]; len(rest) >= PhyPortLen; rest = rest[PhyPortLen:] {
		var p PhyPort
		if err := p.decode(rest); err != nil {
			return err
		}
		m.Ports = append(m.Ports, p)
	}
	return nil
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
}

func (m *PacketIn) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.TotalLen)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.Reason, 0)
	return append(b, m.Data...)
}

func (m *PacketIn) decodeBody(b []byte) error {
	if len(b) < 10 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(b[0:4])
	m.TotalLen = binary.BigEndian.Uint16(b[4:6])
	m.InPort = binary.BigEndian.Uint16(b[6:8])
	m.Reason = b[8]
	m.Data = append([]byte(nil), b[10:]...)
	return nil
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

func (m *PacketOut) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	lenAt := len(b)
	b = append(b, 0, 0)
	start := len(b)
	b = encodeActions(b, m.Actions)
	binary.BigEndian.PutUint16(b[lenAt:lenAt+2], uint16(len(b)-start))
	return append(b, m.Data...)
}

func (m *PacketOut) decodeBody(b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	alen := int(binary.BigEndian.Uint16(b[6:8]))
	if 8+alen > len(b) {
		return ErrTruncated
	}
	actions, err := decodeActions(b[8 : 8+alen])
	if err != nil {
		return err
	}
	m.Actions = actions
	m.Data = append([]byte(nil), b[8+alen:]...)
	return nil
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
}

func (m *FlowMod) encodeBody(b []byte) []byte {
	b = m.Match.encode(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Command)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.OutPort)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return encodeActions(b, m.Actions)
}

func (m *FlowMod) decodeBody(b []byte) error {
	if len(b) < MatchLen+24 {
		return ErrTruncated
	}
	if err := m.Match.decode(b); err != nil {
		return err
	}
	b = b[MatchLen:]
	m.Cookie = binary.BigEndian.Uint64(b[0:8])
	m.Command = binary.BigEndian.Uint16(b[8:10])
	m.IdleTimeout = binary.BigEndian.Uint16(b[10:12])
	m.HardTimeout = binary.BigEndian.Uint16(b[12:14])
	m.Priority = binary.BigEndian.Uint16(b[14:16])
	m.BufferID = binary.BigEndian.Uint32(b[16:20])
	m.OutPort = binary.BigEndian.Uint16(b[20:22])
	m.Flags = binary.BigEndian.Uint16(b[22:24])
	actions, err := decodeActions(b[24:])
	if err != nil {
		return err
	}
	m.Actions = actions
	return nil
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
}

func (m *FlowRemoved) encodeBody(b []byte) []byte {
	b = m.Match.encode(b)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = append(b, m.Reason, 0)
	b = binary.BigEndian.AppendUint32(b, m.DurationSec)
	b = binary.BigEndian.AppendUint32(b, m.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint64(b, m.PacketCount)
	return binary.BigEndian.AppendUint64(b, m.ByteCount)
}

func (m *FlowRemoved) decodeBody(b []byte) error {
	if len(b) < MatchLen+40 {
		return ErrTruncated
	}
	if err := m.Match.decode(b); err != nil {
		return err
	}
	b = b[MatchLen:]
	m.Cookie = binary.BigEndian.Uint64(b[0:8])
	m.Priority = binary.BigEndian.Uint16(b[8:10])
	m.Reason = b[10]
	m.DurationSec = binary.BigEndian.Uint32(b[12:16])
	m.DurationNsec = binary.BigEndian.Uint32(b[16:20])
	m.IdleTimeout = binary.BigEndian.Uint16(b[20:22])
	m.PacketCount = binary.BigEndian.Uint64(b[24:32])
	m.ByteCount = binary.BigEndian.Uint64(b[32:40])
	return nil
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

func (m *PortStatus) encodeBody(b []byte) []byte {
	b = append(b, m.Reason)
	b = append(b, make([]byte, 7)...)
	return m.Desc.encode(b)
}

func (m *PortStatus) decodeBody(b []byte) error {
	if len(b) < 8+PhyPortLen {
		return ErrTruncated
	}
	m.Reason = b[0]
	return m.Desc.decode(b[8:])
}
