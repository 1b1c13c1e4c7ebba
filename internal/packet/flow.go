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
