package packet

import "encoding/binary"

// The layered frame builders: each layer serializes itself and hands its
// bytes to the layer below as payload. The package builds frames one way,
// in one pass (the Append* family); this is the model those builders are
// held to, byte for byte, and what FuzzDecode re-serializes a decoded
// frame with. The model is written for clarity, not speed: every layer
// allocates.

// NewUDPFrame builds a complete Ethernet/IPv4/UDP frame.
func NewUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, payload []byte) *Ethernet {
	udp := UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP, Payload: udp.Bytes(srcIP, dstIP)}
	return &Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4, Payload: ip.Bytes()}
}

// layeredTCPFrame builds a complete Ethernet/IPv4/TCP frame.
func layeredTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16, flags uint8, seq, ack uint32, payload []byte) *Ethernet {
	tcp := TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: 65535, Payload: payload}
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP, Payload: tcp.Bytes(srcIP, dstIP)}
	return &Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4, Payload: ip.Bytes()}
}

// NewICMPEchoFrame builds an ICMP echo request or reply frame.
func NewICMPEchoFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP4, typ uint8, id, seq uint16, payload []byte) *Ethernet {
	icmp := ICMP{Type: typ, ID: id, Seq: seq, Payload: payload}
	ip := IPv4{TTL: 64, Protocol: ProtoICMP, Src: srcIP, Dst: dstIP, Payload: icmp.Bytes()}
	return &Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4, Payload: ip.Bytes()}
}

// NewDHCPFrame wraps a DHCP message in UDP/IPv4/Ethernet.
func NewDHCPFrame(d *DHCP, srcMAC, dstMAC MAC, srcIP, dstIP IP4, srcPort, dstPort uint16) *Ethernet {
	udp := UDP{SrcPort: srcPort, DstPort: dstPort, Payload: d.Bytes()}
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP, Payload: udp.Bytes(srcIP, dstIP)}
	return &Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4, Payload: ip.Bytes()}
}

// NewARPRequest builds a who-has request frame from sender for targetIP.
func NewARPRequest(senderHW MAC, senderIP, targetIP IP4) *Ethernet {
	arp := &ARP{Op: ARPRequest, SenderHW: senderHW, SenderIP: senderIP, TargetIP: targetIP}
	return &Ethernet{Dst: Broadcast, Src: senderHW, Type: EtherTypeARP, Payload: arp.Bytes()}
}

// NewARPReply builds a unicast is-at reply frame answering req.
func NewARPReply(senderHW MAC, senderIP IP4, req *ARP) *Ethernet {
	arp := &ARP{
		Op:       ARPReply,
		SenderHW: senderHW, SenderIP: senderIP,
		TargetHW: req.SenderHW, TargetIP: req.SenderIP,
	}
	return &Ethernet{Dst: req.SenderHW, Src: senderHW, Type: EtherTypeARP, Payload: arp.Bytes()}
}

// Bytes returns the encoded DHCP message as a fresh slice.
func (d *DHCP) Bytes() []byte { return d.Serialize(nil) }

// AppendTo appends the encoded ARP payload to b.
func (a *ARP) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1) // Ethernet
	b = binary.BigEndian.AppendUint16(b, uint16(EtherTypeIPv4))
	b = append(b, 6, 4)
	b = binary.BigEndian.AppendUint16(b, a.Op)
	b = append(b, a.SenderHW[:]...)
	b = append(b, a.SenderIP[:]...)
	b = append(b, a.TargetHW[:]...)
	b = append(b, a.TargetIP[:]...)
	return b
}

// Bytes returns the encoded ARP payload as a fresh slice.
func (a *ARP) Bytes() []byte { return a.AppendTo(nil) }

// HeaderLen returns the encoded header length including options.
func (ip *IPv4) HeaderLen() int {
	opt := (len(ip.Options) + 3) &^ 3
	return IPv4HeaderLen + opt
}

// AppendTo appends the encoded packet to b, computing the header checksum.
func (ip *IPv4) AppendTo(b []byte) []byte {
	hl := ip.HeaderLen()
	total := hl + len(ip.Payload)
	start := len(b)
	b = append(b, byte(4<<4|hl/4), ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b = append(b, ip.TTL, byte(ip.Protocol))
	b = append(b, 0, 0) // checksum placeholder
	b = append(b, ip.Src[:]...)
	b = append(b, ip.Dst[:]...)
	b = append(b, ip.Options...)
	for len(b)-start < hl {
		b = append(b, 0) // pad options to 32-bit boundary
	}
	cs := Checksum(b[start:start+hl], 0)
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return append(b, ip.Payload...)
}

// Bytes returns the encoded packet as a fresh slice.
func (ip *IPv4) Bytes() []byte { return ip.AppendTo(nil) }

// AppendTo appends the encoded datagram to b with a checksum computed over
// the pseudo-header for src/dst.
func (u *UDP) AppendTo(b []byte, src, dst IP4) []byte {
	length := UDPHeaderLen + len(u.Payload)
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	b = append(b, 0, 0)
	b = append(b, u.Payload...)
	cs := Checksum(b[start:], pseudoHeaderSum(src, dst, ProtoUDP, length))
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(b[start+6:start+8], cs)
	return b
}

// Bytes returns the encoded datagram as a fresh slice.
func (u *UDP) Bytes(src, dst IP4) []byte { return u.AppendTo(nil, src, dst) }

// HeaderLen returns the encoded header length including options.
func (t *TCP) HeaderLen() int {
	opt := (len(t.Options) + 3) &^ 3
	return TCPHeaderLen + opt
}

// AppendTo appends the encoded segment to b with a checksum computed over
// the pseudo-header for src/dst.
func (t *TCP) AppendTo(b []byte, src, dst IP4) []byte {
	hl := t.HeaderLen()
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, byte(hl/4)<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint16(b, t.Urgent)
	b = append(b, t.Options...)
	for len(b)-start < hl {
		b = append(b, 0)
	}
	b = append(b, t.Payload...)
	cs := Checksum(b[start:], pseudoHeaderSum(src, dst, ProtoTCP, hl+len(t.Payload)))
	binary.BigEndian.PutUint16(b[start+16:start+18], cs)
	return b
}

// Bytes returns the encoded segment as a fresh slice.
func (t *TCP) Bytes(src, dst IP4) []byte { return t.AppendTo(nil, src, dst) }

// AppendTo appends the encoded message to b, computing the checksum.
func (c *ICMP) AppendTo(b []byte) []byte {
	start := len(b)
	b = append(b, c.Type, c.Code, 0, 0)
	b = binary.BigEndian.AppendUint16(b, c.ID)
	b = binary.BigEndian.AppendUint16(b, c.Seq)
	b = append(b, c.Payload...)
	cs := Checksum(b[start:], 0)
	binary.BigEndian.PutUint16(b[start+2:start+4], cs)
	return b
}

// Bytes returns the encoded message as a fresh slice.
func (c *ICMP) Bytes() []byte { return c.AppendTo(nil) }
