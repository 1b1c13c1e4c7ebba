package packet

import "encoding/binary"

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 packet header plus payload.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Checksum uint16
	Src      IP4
	Dst      IP4
	Options  []byte
	Payload  []byte
}

// IPv4 flag bits.
const (
	IPv4DontFragment  = 0x2
	IPv4MoreFragments = 0x1
)

// DecodeFromBytes parses an IPv4 packet. Options and Payload alias data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return ErrTruncated
	}
	vihl := data[0]
	if vihl>>4 != 4 {
		return ErrMalformed
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return ErrMalformed
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen < ihl {
		return ErrMalformed
	}
	if totalLen > len(data) {
		totalLen = len(data) // tolerate link-layer padding absence
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProto(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	ip.Options = data[IPv4HeaderLen:ihl]
	ip.Payload = data[ihl:totalLen]
	return nil
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram header plus payload.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Checksum uint16
	Payload  []byte
}

// DecodeFromBytes parses a UDP datagram. Payload aliases data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	length := int(binary.BigEndian.Uint16(data[4:6]))
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if length < UDPHeaderLen {
		return ErrMalformed
	}
	if length > len(data) {
		length = len(data)
	}
	u.Payload = data[UDPHeaderLen:length]
	return nil
}

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP segment header plus payload.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
	Payload  []byte
}

// DecodeFromBytes parses a TCP segment. Options and Payload alias data.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < TCPHeaderLen || off > len(data) {
		return ErrMalformed
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[TCPHeaderLen:off]
	t.Payload = data[off:]
	return nil
}

// ICMP message types.
const (
	ICMPEchoReply    uint8 = 0
	ICMPDestUnreach  uint8 = 3
	ICMPEchoRequest  uint8 = 8
	ICMPTimeExceeded uint8 = 11
)

// ICMP is an ICMPv4 message.
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16 // echo only
	Seq      uint16 // echo only
	Payload  []byte
}

// ICMPHeaderLen is the length of an ICMP echo header.
const ICMPHeaderLen = 8

// DecodeFromBytes parses an ICMP message. Payload aliases data.
func (c *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPHeaderLen {
		return ErrTruncated
	}
	c.Type = data[0]
	c.Code = data[1]
	c.Checksum = binary.BigEndian.Uint16(data[2:4])
	c.ID = binary.BigEndian.Uint16(data[4:6])
	c.Seq = binary.BigEndian.Uint16(data[6:8])
	c.Payload = data[ICMPHeaderLen:]
	return nil
}
