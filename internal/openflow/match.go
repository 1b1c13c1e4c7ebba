package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/packet"
)

// MatchLen is the length of the ofp_match structure.
const MatchLen = 40

// Wildcard bits (OFPFW_*). A set bit means the corresponding field is NOT
// matched. The nw_src/nw_dst fields use 6-bit counts of ignored low bits.
const (
	FWInPort  uint32 = 1 << 0
	FWDLVLAN  uint32 = 1 << 1
	FWDLSrc   uint32 = 1 << 2
	FWDLDst   uint32 = 1 << 3
	FWDLType  uint32 = 1 << 4
	FWNWProto uint32 = 1 << 5
	FWTPSrc   uint32 = 1 << 6
	FWTPDst   uint32 = 1 << 7

	fwNWSrcShift        = 8
	fwNWDstShift        = 14
	FWNWSrcAll   uint32 = 32 << fwNWSrcShift
	FWNWSrcMask  uint32 = 0x3f << fwNWSrcShift
	FWNWDstAll   uint32 = 32 << fwNWDstShift
	FWNWDstMask  uint32 = 0x3f << fwNWDstShift

	FWDLVLANPCP uint32 = 1 << 20
	FWNWTOS     uint32 = 1 << 21

	// FWAll wildcards every field.
	FWAll uint32 = (1 << 22) - 1
)

// Match is the OpenFlow 1.0 ofp_match: a flow is defined in terms of the
// input port and selected values of packet header fields.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     packet.MAC
	DLDst     packet.MAC
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    packet.EtherType
	NWTOS     uint8
	NWProto   uint8
	NWSrc     packet.IP4
	NWDst     packet.IP4
	TPSrc     uint16
	TPDst     uint16
}

// MatchAll returns a match with every field wildcarded.
func MatchAll() Match { return Match{Wildcards: FWAll} }

// NWSrcBits returns the number of low bits ignored in NWSrc (0 = exact,
// >=32 = fully wildcarded).
func (m *Match) NWSrcBits() uint32 {
	b := (m.Wildcards & FWNWSrcMask) >> fwNWSrcShift
	if b > 32 {
		b = 32
	}
	return b
}

// NWDstBits returns the number of low bits ignored in NWDst.
func (m *Match) NWDstBits() uint32 {
	b := (m.Wildcards & FWNWDstMask) >> fwNWDstShift
	if b > 32 {
		b = 32
	}
	return b
}

// encode appends the 40-byte wire form.
func (m *Match) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.Wildcards)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.DLSrc[:]...)
	b = append(b, m.DLDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.DLVLAN)
	b = append(b, m.DLVLANPCP, 0)
	b = binary.BigEndian.AppendUint16(b, uint16(m.DLType))
	b = append(b, m.NWTOS, m.NWProto, 0, 0)
	b = append(b, m.NWSrc[:]...)
	b = append(b, m.NWDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.TPSrc)
	b = binary.BigEndian.AppendUint16(b, m.TPDst)
	return b
}

// decode parses the 40-byte wire form.
func (m *Match) decode(b []byte) error {
	if len(b) < MatchLen {
		return ErrTruncated
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	m.DLType = packet.EtherType(binary.BigEndian.Uint16(b[22:24]))
	m.NWTOS = b[24]
	m.NWProto = b[25]
	copy(m.NWSrc[:], b[28:32])
	copy(m.NWDst[:], b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return nil
}

// MatchFromFrame builds an exact match (no wildcards beyond inapplicable
// fields) from a decoded frame, as a reactive controller does when
// installing a flow for a packet-in.
func MatchFromFrame(d *packet.Decoded, inPort uint16) Match {
	m := Match{
		InPort: inPort,
		DLSrc:  d.Eth.Src,
		DLDst:  d.Eth.Dst,
		DLType: d.Eth.Type,
		DLVLAN: 0xffff, // OFP_VLAN_NONE
	}
	if d.Eth.Tagged {
		m.DLVLAN = d.Eth.VLANID
		m.DLVLANPCP = d.Eth.VLANPriority
	}
	switch {
	case d.HasARP:
		m.NWProto = uint8(d.ARP.Op)
		m.NWSrc = d.ARP.SenderIP
		m.NWDst = d.ARP.TargetIP
		m.Wildcards = FWTPSrc | FWTPDst | FWNWTOS
	case d.HasIP:
		m.NWTOS = d.IP.TOS
		m.NWProto = uint8(d.IP.Protocol)
		m.NWSrc = d.IP.Src
		m.NWDst = d.IP.Dst
		switch {
		case d.HasTCP:
			m.TPSrc, m.TPDst = d.TCP.SrcPort, d.TCP.DstPort
		case d.HasUDP:
			m.TPSrc, m.TPDst = d.UDP.SrcPort, d.UDP.DstPort
		case d.HasICMP:
			m.TPSrc, m.TPDst = uint16(d.ICMP.Type), uint16(d.ICMP.Code)
		default:
			m.Wildcards = FWTPSrc | FWTPDst
		}
	default:
		m.Wildcards = FWNWProto | FWTPSrc | FWTPDst | FWNWTOS | FWNWSrcAll | FWNWDstAll
	}
	return m
}

// Matches reports whether a decoded frame arriving on inPort satisfies the
// match, honouring every wildcard bit.
func (m *Match) Matches(d *packet.Decoded, inPort uint16) bool {
	w := m.Wildcards
	if w&FWInPort == 0 && m.InPort != inPort {
		return false
	}
	if w&FWDLSrc == 0 && m.DLSrc != d.Eth.Src {
		return false
	}
	if w&FWDLDst == 0 && m.DLDst != d.Eth.Dst {
		return false
	}
	if w&FWDLVLAN == 0 {
		vlan := uint16(0xffff)
		if d.Eth.Tagged {
			vlan = d.Eth.VLANID
		}
		if m.DLVLAN != vlan {
			return false
		}
	}
	if w&FWDLVLANPCP == 0 && d.Eth.Tagged && m.DLVLANPCP != d.Eth.VLANPriority {
		return false
	}
	if w&FWDLType == 0 && m.DLType != d.Eth.Type {
		return false
	}

	// Network fields: sourced from IPv4 or, per the spec, from ARP.
	var nwSrc, nwDst packet.IP4
	var nwProto, nwTOS uint8
	var tpSrc, tpDst uint16
	haveNW := false
	switch {
	case d.HasIP:
		nwSrc, nwDst = d.IP.Src, d.IP.Dst
		nwProto, nwTOS = uint8(d.IP.Protocol), d.IP.TOS
		haveNW = true
		switch {
		case d.HasTCP:
			tpSrc, tpDst = d.TCP.SrcPort, d.TCP.DstPort
		case d.HasUDP:
			tpSrc, tpDst = d.UDP.SrcPort, d.UDP.DstPort
		case d.HasICMP:
			tpSrc, tpDst = uint16(d.ICMP.Type), uint16(d.ICMP.Code)
		}
	case d.HasARP:
		nwSrc, nwDst = d.ARP.SenderIP, d.ARP.TargetIP
		nwProto = uint8(d.ARP.Op)
		haveNW = true
	}

	if w&FWNWProto == 0 && (!haveNW || m.NWProto != nwProto) {
		return false
	}
	if w&FWNWTOS == 0 && (!haveNW || m.NWTOS != nwTOS) {
		return false
	}
	if bits := m.NWSrcBits(); bits < 32 {
		if !haveNW || m.NWSrc.Mask(32-int(bits)) != nwSrc.Mask(32-int(bits)) {
			return false
		}
	}
	if bits := m.NWDstBits(); bits < 32 {
		if !haveNW || m.NWDst.Mask(32-int(bits)) != nwDst.Mask(32-int(bits)) {
			return false
		}
	}
	if w&FWTPSrc == 0 && (!haveNW || m.TPSrc != tpSrc) {
		return false
	}
	if w&FWTPDst == 0 && (!haveNW || m.TPDst != tpDst) {
		return false
	}
	return true
}

// Subsumes reports whether every packet matched by other is also matched by
// m (used for DELETE with non-strict semantics).
func (m *Match) Subsumes(other *Match) bool {
	type field struct {
		bit uint32
		eq  bool
	}
	fields := []field{
		{FWInPort, m.InPort == other.InPort},
		{FWDLSrc, m.DLSrc == other.DLSrc},
		{FWDLDst, m.DLDst == other.DLDst},
		{FWDLVLAN, m.DLVLAN == other.DLVLAN},
		{FWDLVLANPCP, m.DLVLANPCP == other.DLVLANPCP},
		{FWDLType, m.DLType == other.DLType},
		{FWNWProto, m.NWProto == other.NWProto},
		{FWNWTOS, m.NWTOS == other.NWTOS},
		{FWTPSrc, m.TPSrc == other.TPSrc},
		{FWTPDst, m.TPDst == other.TPDst},
	}
	for _, f := range fields {
		if m.Wildcards&f.bit != 0 {
			continue // m ignores the field
		}
		if other.Wildcards&f.bit != 0 || !f.eq {
			return false
		}
	}
	mb, ob := m.NWSrcBits(), other.NWSrcBits()
	if mb < 32 {
		if ob > mb || m.NWSrc.Mask(32-int(mb)) != other.NWSrc.Mask(32-int(mb)) {
			return false
		}
	}
	mb, ob = m.NWDstBits(), other.NWDstBits()
	if mb < 32 {
		if ob > mb || m.NWDst.Mask(32-int(mb)) != other.NWDst.Mask(32-int(mb)) {
			return false
		}
	}
	return true
}

// IsExact reports whether no field is wildcarded.
func (m *Match) IsExact() bool {
	return m.Wildcards&^(FWNWSrcMask|FWNWDstMask) == 0 && m.NWSrcBits() == 0 && m.NWDstBits() == 0
}

// String renders only the concrete (non-wildcarded) fields.
func (m *Match) String() string {
	var parts []string
	w := m.Wildcards
	if w&FWInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if w&FWDLSrc == 0 {
		parts = append(parts, "dl_src="+m.DLSrc.String())
	}
	if w&FWDLDst == 0 {
		parts = append(parts, "dl_dst="+m.DLDst.String())
	}
	if w&FWDLType == 0 {
		parts = append(parts, "dl_type="+m.DLType.String())
	}
	if w&FWNWProto == 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NWProto))
	}
	if b := m.NWSrcBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", m.NWSrc, 32-b))
	}
	if b := m.NWDstBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", m.NWDst, 32-b))
	}
	if w&FWTPSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TPSrc))
	}
	if w&FWTPDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TPDst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
