package packet

import (
	"encoding/binary"
	"slices"
)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPLen is the length of an Ethernet/IPv4 ARP payload.
const ARPLen = 28

// ARP is an Ethernet/IPv4 ARP packet.
type ARP struct {
	Op       uint16
	SenderHW MAC
	SenderIP IP4
	TargetHW MAC
	TargetIP IP4
}

// DecodeFromBytes parses an ARP payload (the bytes after the Ethernet header).
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < ARPLen {
		return ErrTruncated
	}
	htype := binary.BigEndian.Uint16(data[0:2])
	ptype := binary.BigEndian.Uint16(data[2:4])
	hlen, plen := data[4], data[5]
	if htype != 1 || ptype != uint16(EtherTypeIPv4) || hlen != 6 || plen != 4 {
		return ErrMalformed
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderHW[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetHW[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// AppendARPReply appends a complete unicast is-at reply frame answering
// req, built in one pass with no intermediate per-layer slices.
func AppendARPReply(b []byte, senderHW MAC, senderIP IP4, req *ARP) []byte {
	return appendARPFrame(b, req.SenderHW, ARPReply, senderHW, senderIP, req.SenderHW, req.SenderIP)
}

// AppendARPRequest appends a complete broadcast who-has request frame from
// sender for targetIP, built in one pass.
func AppendARPRequest(b []byte, senderHW MAC, senderIP, targetIP IP4) []byte {
	return appendARPFrame(b, Broadcast, ARPRequest, senderHW, senderIP, MAC{}, targetIP)
}

// appendARPFrame appends an Ethernet/IPv4 ARP frame from senderHW to dst.
func appendARPFrame(b []byte, dst MAC, op uint16, senderHW MAC, senderIP IP4, targetHW MAC, targetIP IP4) []byte {
	b = slices.Grow(b, EthernetHeaderLen+ARPLen)
	b = appendEthernetHeader(b, dst, senderHW, EtherTypeARP)
	b = binary.BigEndian.AppendUint16(b, 1) // Ethernet
	b = binary.BigEndian.AppendUint16(b, uint16(EtherTypeIPv4))
	b = append(b, 6, 4)
	b = binary.BigEndian.AppendUint16(b, op)
	b = append(b, senderHW[:]...)
	b = append(b, senderIP[:]...)
	b = append(b, targetHW[:]...)
	return append(b, targetIP[:]...)
}
