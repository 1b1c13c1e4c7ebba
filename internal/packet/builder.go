package packet

import (
	"encoding/binary"
	"slices"
)

// Decoded is a one-pass parse of a frame up to the transport layer, used by
// the datapath for flow matching and by the measurement plane for accounting.
// All byte-slice fields alias the original frame buffer.
type Decoded struct {
	Eth  Ethernet
	ARP  ARP
	IP   IPv4
	TCP  TCP
	UDP  UDP
	ICMP ICMP

	HasARP  bool
	HasIP   bool
	HasTCP  bool
	HasUDP  bool
	HasICMP bool
}

// Decode parses as many layers as the frame contains. Unknown payloads above
// a decoded layer are not an error: decoding stops at the last understood
// layer, mirroring gopacket's DecodingLayerParser behaviour.
func (d *Decoded) Decode(frame []byte) error {
	d.HasARP, d.HasIP, d.HasTCP, d.HasUDP, d.HasICMP = false, false, false, false, false
	if err := d.Eth.DecodeFromBytes(frame); err != nil {
		return err
	}
	switch d.Eth.Type {
	case EtherTypeARP:
		if err := d.ARP.DecodeFromBytes(d.Eth.Payload); err != nil {
			return err
		}
		d.HasARP = true
	case EtherTypeIPv4:
		if err := d.IP.DecodeFromBytes(d.Eth.Payload); err != nil {
			return err
		}
		d.HasIP = true
		switch d.IP.Protocol {
		case ProtoTCP:
			if err := d.TCP.DecodeFromBytes(d.IP.Payload); err != nil {
				return err
			}
			d.HasTCP = true
		case ProtoUDP:
			if err := d.UDP.DecodeFromBytes(d.IP.Payload); err != nil {
				return err
			}
			d.HasUDP = true
		case ProtoICMP:
			if err := d.ICMP.DecodeFromBytes(d.IP.Payload); err != nil {
				return err
			}
			d.HasICMP = true
		}
	}
	return nil
}

// NewTCPFrame builds a complete Ethernet/IPv4/TCP frame with a zero
// acknowledgement number.
func NewTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, flags uint8, seq uint32, payload []byte) *Ethernet {
	frame := AppendTCPFrame(nil, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, flags, seq, 0, payload)
	return &Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4, Payload: frame[EthernetHeaderLen:]}
}

// The Append*Frame family is how the tree builds a frame: whole, in a
// single pass, into a caller-supplied buffer. There are no intermediate
// per-layer payload slices, so a reused scratch buffer gives
// allocation-free steady-state frame building, and a nil one costs one
// allocation, sized for the frame. The reference each appender is held to
// byte for byte is the layered model in layered_model_test.go.

// appendEthernetHeader appends an untagged Ethernet II header.
func appendEthernetHeader(b []byte, dst, src MAC, typ EtherType) []byte {
	b = append(b, dst[:]...)
	b = append(b, src[:]...)
	return binary.BigEndian.AppendUint16(b, uint16(typ))
}

// appendIPv4Header appends an option-less IPv4 header (TTL 64, no
// fragmentation) with its checksum for a payload of payloadLen bytes.
func appendIPv4Header(b []byte, proto IPProto, src, dst IP4, payloadLen int) []byte {
	start := len(b)
	b = append(b, 4<<4|IPv4HeaderLen/4, 0) // version+IHL, TOS
	b = binary.BigEndian.AppendUint16(b, uint16(IPv4HeaderLen+payloadLen))
	b = append(b, 0, 0, 0, 0)            // ID, flags+fragment offset
	b = append(b, 64, byte(proto), 0, 0) // TTL, protocol, checksum placeholder
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	cs := Checksum(b[start:start+IPv4HeaderLen], 0)
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return b
}

// AppendUDPFrame appends a complete Ethernet/IPv4/UDP frame to b.
func AppendUDPFrame(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, payload []byte) []byte {
	return AppendUDPFrameSum(b, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, payload, ^Checksum(payload, 0))
}

// AppendUDPFrameSum is AppendUDPFrame for a caller that already knows
// payloadSum, the folded ones'-complement sum of payload (^Checksum(payload,
// 0): its 16-bit big-endian words, an odd last byte padded with a zero,
// carries folded back in). Only the pseudo-header and the eight header
// bytes are summed, so a frame costs the same whatever it carries. The
// payload starts at an even offset of the datagram, which is what lets its
// own sum stand in for its bytes; a wrong payloadSum yields a frame whose
// checksum does not verify.
func AppendUDPFrameSum(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, payload []byte, payloadSum uint16) []byte {
	length := UDPHeaderLen + len(payload)
	b = slices.Grow(b, EthernetHeaderLen+IPv4HeaderLen+length)
	b = appendEthernetHeader(b, dstMAC, srcMAC, EtherTypeIPv4)
	b = appendIPv4Header(b, ProtoUDP, srcIP, dstIP, length)
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, srcPort)
	b = binary.BigEndian.AppendUint16(b, dstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	b = append(b, 0, 0)
	cs := Checksum(b[start:], pseudoHeaderSum(srcIP, dstIP, ProtoUDP, length)+uint32(payloadSum))
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(b[start+6:start+8], cs)
	return append(b, payload...)
}

// AppendTCPFrame appends a complete Ethernet/IPv4/TCP frame to b. The
// window is fixed at 65535 as everywhere else in the simulator.
func AppendTCPFrame(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, flags uint8, seq, ack uint32, payload []byte) []byte {
	return AppendTCPFrameSum(b, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, flags, seq, ack, payload, ^Checksum(payload, 0))
}

// AppendTCPFrameSum is AppendTCPFrame for a caller that already knows
// payloadSum, the folded ones'-complement sum of payload; see
// AppendUDPFrameSum for what that is and what it saves.
func AppendTCPFrameSum(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, flags uint8, seq, ack uint32, payload []byte, payloadSum uint16) []byte {
	length := TCPHeaderLen + len(payload)
	b = slices.Grow(b, EthernetHeaderLen+IPv4HeaderLen+length)
	b = appendEthernetHeader(b, dstMAC, srcMAC, EtherTypeIPv4)
	b = appendIPv4Header(b, ProtoTCP, srcIP, dstIP, length)
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, srcPort)
	b = binary.BigEndian.AppendUint16(b, dstPort)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint32(b, ack)
	b = append(b, byte(TCPHeaderLen/4)<<4, flags)
	b = binary.BigEndian.AppendUint16(b, 65535)
	b = append(b, 0, 0) // checksum placeholder
	b = append(b, 0, 0) // urgent pointer
	cs := Checksum(b[start:], pseudoHeaderSum(srcIP, dstIP, ProtoTCP, length)+uint32(payloadSum))
	binary.BigEndian.PutUint16(b[start+16:start+18], cs)
	return append(b, payload...)
}

// AppendICMPEchoFrame appends a complete ICMP echo request or reply frame
// to b.
func AppendICMPEchoFrame(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP4, typ uint8, id, seq uint16, payload []byte) []byte {
	b = slices.Grow(b, EthernetHeaderLen+IPv4HeaderLen+ICMPHeaderLen+len(payload))
	b = appendEthernetHeader(b, dstMAC, srcMAC, EtherTypeIPv4)
	b = appendIPv4Header(b, ProtoICMP, srcIP, dstIP, ICMPHeaderLen+len(payload))
	start := len(b)
	b = append(b, typ, 0, 0, 0)
	b = binary.BigEndian.AppendUint16(b, id)
	b = binary.BigEndian.AppendUint16(b, seq)
	b = append(b, payload...)
	cs := Checksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+2:start+4], cs)
	return b
}
