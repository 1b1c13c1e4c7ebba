package openflow

import (
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

// nwSrcBits returns the number of low bits ignored in NWSrc (0 = exact,
// >=32 = fully wildcarded).
func (m *Match) nwSrcBits() uint32 {
	b := (m.Wildcards & FWNWSrcMask) >> fwNWSrcShift
	if b > 32 {
		b = 32
	}
	return b
}

// nwDstBits returns the number of low bits ignored in NWDst.
func (m *Match) nwDstBits() uint32 {
	b := (m.Wildcards & FWNWDstMask) >> fwNWDstShift
	if b > 32 {
		b = 32
	}
	return b
}

// layout runs the 40-byte wire form.
func (m *Match) layout(w *wire) {
	w.u32(&m.Wildcards)
	w.u16(&m.InPort)
	w.bytes(m.DLSrc[:])
	w.bytes(m.DLDst[:])
	w.u16(&m.DLVLAN)
	w.u8(&m.DLVLANPCP)
	w.pad(1)
	w.u16((*uint16)(&m.DLType))
	w.u8(&m.NWTOS)
	w.u8(&m.NWProto)
	w.pad(2)
	w.bytes(m.NWSrc[:])
	w.bytes(m.NWDst[:])
	w.u16(&m.TPSrc)
	w.u16(&m.TPDst)
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
		DLVLAN: vlanNone,
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

// vlanNone is dl_vlan of an untagged frame (OFP_VLAN_NONE).
const vlanNone = 0xffff

// fwNetwork is the wildcard bits of the network- and transport-layer
// fields, which a frame with no network layer holds no value for.
const fwNetwork = FWNWProto | FWNWTOS | FWTPSrc | FWTPDst

// fwPlain is the wildcard bits of the ten fields compared whole: every
// field but the two addresses.
const fwPlain = FWInPort | FWDLVLAN | FWDLSrc | FWDLDst | FWDLType | FWDLVLANPCP | fwNetwork

// Matches reports whether the frame whose exact key k is (MatchFromFrame)
// satisfies m, honouring every wildcard bit. dl_vlan_pcp counts only on a
// tagged frame; a frame with no network layer fails a rule that fixes any
// network or transport field or prefix; and the nw_tos and tp fields of an
// ARP or other IPv4 frame compare as the zeros its key holds.
func (m *Match) Matches(k *Match) bool {
	diff := m.differ(k)
	if k.DLVLAN == vlanNone {
		diff &^= FWDLVLANPCP
	}
	if k.Wildcards&FWNWProto != 0 {
		diff |= fwNetwork
	}
	return diff&^m.Wildcards == 0 && m.holdsPrefixes(k)
}

// Subsumes reports whether every packet matched by o is also matched by m
// (used for DELETE with non-strict semantics).
func (m *Match) Subsumes(o *Match) bool {
	return (o.Wildcards|m.differ(o))&^m.Wildcards&fwPlain == 0 && m.holdsPrefixes(o)
}

// Overlaps reports whether a single packet could match both m and o (the
// OFPFF_CHECK_OVERLAP test): no field both fix holds different values, and
// the address prefixes agree on the shorter of the two.
func (m *Match) Overlaps(o *Match) bool {
	return m.differ(o)&^(m.Wildcards|o.Wildcards) == 0 &&
		prefixAgree(m.NWSrc, o.NWSrc, max(m.nwSrcBits(), o.nwSrcBits())) &&
		prefixAgree(m.NWDst, o.NWDst, max(m.nwDstBits(), o.nwDstBits()))
}

// differ returns the wildcard bits of the plain fields on which m and o
// hold different values, whatever either wildcards.
func (m *Match) differ(o *Match) uint32 {
	return ne(m.InPort, o.InPort, FWInPort) | ne(m.DLSrc, o.DLSrc, FWDLSrc) | ne(m.DLDst, o.DLDst, FWDLDst) |
		ne(m.DLVLAN, o.DLVLAN, FWDLVLAN) | ne(m.DLVLANPCP, o.DLVLANPCP, FWDLVLANPCP) | ne(m.DLType, o.DLType, FWDLType) |
		ne(m.NWProto, o.NWProto, FWNWProto) | ne(m.NWTOS, o.NWTOS, FWNWTOS) |
		ne(m.TPSrc, o.TPSrc, FWTPSrc) | ne(m.TPDst, o.TPDst, FWTPDst)
}

// ne returns bit if a and b differ, else 0.
func ne[T comparable](a, b T, bit uint32) uint32 {
	if a != b {
		return bit
	}
	return 0
}

// holdsPrefixes reports whether each of o's address prefixes lies inside
// m's. A frame's key fixes both addresses whole, or, with no network layer,
// neither.
func (m *Match) holdsPrefixes(o *Match) bool {
	return o.nwSrcBits() <= m.nwSrcBits() && prefixAgree(m.NWSrc, o.NWSrc, m.nwSrcBits()) &&
		o.nwDstBits() <= m.nwDstBits() && prefixAgree(m.NWDst, o.NWDst, m.nwDstBits())
}

// prefixAgree reports whether x and y agree on their top 32-ignored bits,
// which, with 32 or more ignored, they always do.
func prefixAgree(x, y packet.IP4, ignored uint32) bool {
	return (x.Uint32()^y.Uint32())>>ignored == 0
}

// IsExact reports whether no field is wildcarded.
func (m *Match) IsExact() bool {
	return m.Wildcards&^(FWNWSrcMask|FWNWDstMask) == 0 && m.nwSrcBits() == 0 && m.nwDstBits() == 0
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
	if b := m.nwSrcBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", m.NWSrc, 32-b))
	}
	if b := m.nwDstBits(); b < 32 {
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
