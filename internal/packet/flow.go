package packet

import (
	"fmt"
)

// FiveTuple identifies a transport flow: the unit of measurement in the
// Homework Database Flows table.
type FiveTuple struct {
	Src     IP4
	Dst     IP4
	Proto   IPProto
	SrcPort uint16
	DstPort uint16
}

// String renders the tuple as "proto src:sport->dst:dport".
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Reverse returns the tuple of the opposite direction.
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: f.Dst, Dst: f.Src, Proto: f.Proto, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// FastHash returns a 64-bit non-cryptographic hash that is symmetric: a flow
// and its reverse hash identically, so bidirectional traffic can be grouped
// (the gopacket Flow.FastHash property).
func (f FiveTuple) FastHash() uint64 {
	a := fnvMix(uint64(f.Src.Uint32())<<16 | uint64(f.SrcPort))
	b := fnvMix(uint64(f.Dst.Uint32())<<16 | uint64(f.DstPort))
	return (a ^ b) + uint64(f.Proto)*0x9e3779b97f4a7c15
}

func fnvMix(v uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// WellKnownService maps a destination port to the protocol label the
// bandwidth interface displays ("the imperfect application-protocol
// mapping" the paper describes).
func WellKnownService(proto IPProto, port uint16) string {
	if proto == ProtoUDP {
		switch port {
		case 53:
			return "dns"
		case 67, 68:
			return "dhcp"
		case 123:
			return "ntp"
		case 5060:
			return "voip"
		case 443:
			return "quic"
		}
	}
	if proto == ProtoTCP {
		switch port {
		case 80, 8080:
			return "http"
		case 443:
			return "https"
		case 25, 587:
			return "smtp"
		case 143, 993:
			return "imap"
		case 22:
			return "ssh"
		case 1935:
			return "rtmp"
		case 554:
			return "rtsp"
		case 6881, 6882, 6883, 6884, 6885, 6886, 6887, 6888, 6889:
			return "p2p"
		}
	}
	if proto == ProtoICMP {
		return "icmp"
	}
	return "other"
}
