package packet

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"
)

// DHCP op codes.
const (
	DHCPBootRequest uint8 = 1
	DHCPBootReply   uint8 = 2
)

// DHCPMsgType is the value of DHCP option 53.
type DHCPMsgType uint8

// DHCP message types (RFC 2131).
const (
	DHCPDiscover DHCPMsgType = 1
	DHCPOffer    DHCPMsgType = 2
	DHCPRequest  DHCPMsgType = 3
	DHCPDecline  DHCPMsgType = 4
	DHCPAck      DHCPMsgType = 5
	DHCPNak      DHCPMsgType = 6
	DHCPRelease  DHCPMsgType = 7
	DHCPInform   DHCPMsgType = 8
)

// String names the DHCP message type.
func (t DHCPMsgType) String() string {
	switch t {
	case DHCPDiscover:
		return "DISCOVER"
	case DHCPOffer:
		return "OFFER"
	case DHCPRequest:
		return "REQUEST"
	case DHCPDecline:
		return "DECLINE"
	case DHCPAck:
		return "ACK"
	case DHCPNak:
		return "NAK"
	case DHCPRelease:
		return "RELEASE"
	case DHCPInform:
		return "INFORM"
	}
	return "DHCP?"
}

// DHCP option codes used by the Homework DHCP server.
const (
	DHCPOptPad           uint8 = 0
	DHCPOptSubnetMask    uint8 = 1
	DHCPOptRouter        uint8 = 3
	DHCPOptDNSServer     uint8 = 6
	DHCPOptHostname      uint8 = 12
	DHCPOptRequestedIP   uint8 = 50
	DHCPOptLeaseTime     uint8 = 51
	DHCPOptMsgType       uint8 = 53
	DHCPOptServerID      uint8 = 54
	DHCPOptParamRequest  uint8 = 55
	DHCPOptMessage       uint8 = 56
	DHCPOptRenewalTime   uint8 = 58
	DHCPOptRebindingTime uint8 = 59
	DHCPOptClientID      uint8 = 61
	DHCPOptEnd           uint8 = 255
)

// dhcpMagic is the BOOTP vendor extension magic cookie.
var dhcpMagic = [4]byte{99, 130, 83, 99}

// dhcpFixedLen is the length of the fixed BOOTP header before options.
const dhcpFixedLen = 240 // 236-byte BOOTP + 4-byte magic

// DHCP is a DHCP message (BOOTP header + options).
type DHCP struct {
	Op      uint8
	XID     uint32
	Secs    uint16
	Flags   uint16 // bit 15: broadcast
	CIAddr  IP4    // client's current address
	YIAddr  IP4    // "your" (allocated) address
	SIAddr  IP4    // next server
	GIAddr  IP4    // relay agent
	CHAddr  MAC    // client hardware address
	SName   string
	File    string
	Options []DHCPOption
}

// DHCPOption is a single tag-length-value DHCP option.
type DHCPOption struct {
	Code uint8
	Data []byte
}

// DecodeFromBytes parses a DHCP message from a UDP payload.
func (d *DHCP) DecodeFromBytes(data []byte) error {
	if len(data) < dhcpFixedLen {
		return ErrTruncated
	}
	d.Op = data[0]
	if data[1] != 1 || data[2] != 6 { // htype Ethernet, hlen 6
		return ErrMalformed
	}
	d.XID = binary.BigEndian.Uint32(data[4:8])
	d.Secs = binary.BigEndian.Uint16(data[8:10])
	d.Flags = binary.BigEndian.Uint16(data[10:12])
	copy(d.CIAddr[:], data[12:16])
	copy(d.YIAddr[:], data[16:20])
	copy(d.SIAddr[:], data[20:24])
	copy(d.GIAddr[:], data[24:28])
	copy(d.CHAddr[:], data[28:34])
	d.SName = cstring(data[44:108])
	d.File = cstring(data[108:236])
	if [4]byte(data[236:240]) != dhcpMagic {
		return ErrMalformed
	}
	d.Options = d.Options[:0]
	opts := data[240:]
	for i := 0; i < len(opts); {
		code := opts[i]
		i++
		if code == DHCPOptPad {
			continue
		}
		if code == DHCPOptEnd {
			break
		}
		if i >= len(opts) {
			return ErrTruncated
		}
		l := int(opts[i])
		i++
		if i+l > len(opts) {
			return ErrTruncated
		}
		d.Options = append(d.Options, DHCPOption{Code: code, Data: opts[i : i+l]})
		i += l
	}
	return nil
}

func cstring(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// bootpMinLen is the length BOOTP messages are conventionally padded to.
const bootpMinLen = 300

// Serialize appends the encoded message to b.
func (d *DHCP) Serialize(b []byte) []byte {
	b = slices.Grow(b, bootpMinLen)
	start := len(b)
	b = append(b, d.Op, 1, 6, 0)
	b = binary.BigEndian.AppendUint32(b, d.XID)
	b = binary.BigEndian.AppendUint16(b, d.Secs)
	b = binary.BigEndian.AppendUint16(b, d.Flags)
	b = append(b, d.CIAddr[:]...)
	b = append(b, d.YIAddr[:]...)
	b = append(b, d.SIAddr[:]...)
	b = append(b, d.GIAddr[:]...)
	b = append(b, d.CHAddr[:]...)
	b = append(b, make([]byte, 10)...) // chaddr padding
	b = appendFixedString(b, d.SName, 64)
	b = appendFixedString(b, d.File, 128)
	b = append(b, dhcpMagic[:]...)
	for _, o := range d.Options {
		b = append(b, o.Code, byte(len(o.Data)))
		b = append(b, o.Data...)
	}
	b = append(b, DHCPOptEnd)
	for len(b)-start < bootpMinLen {
		b = append(b, 0)
	}
	return b
}

func appendFixedString(b []byte, s string, n int) []byte {
	if len(s) > n {
		s = s[:n]
	}
	b = append(b, s...)
	return append(b, make([]byte, n-len(s))...)
}

// Option returns the raw data of the first option with the given code.
func (d *DHCP) Option(code uint8) ([]byte, bool) {
	for _, o := range d.Options {
		if o.Code == code {
			return o.Data, true
		}
	}
	return nil, false
}

// MsgType returns the DHCP message type option, or 0 if absent.
func (d *DHCP) MsgType() DHCPMsgType {
	if v, ok := d.Option(DHCPOptMsgType); ok && len(v) == 1 {
		return DHCPMsgType(v[0])
	}
	return 0
}

// maxHostname is the longest hostname Hostname returns: one DNS label
// (RFC 1035).
const maxHostname = 63

// Hostname returns the client-supplied hostname option (12) as the router
// records it — in a device's name, the Leases table and every display
// that shows either. The rule: the option's bytes up to the first NUL
// (some clients terminate the string), keeping only letters, digits, '-',
// '_' and '.', and at most maxHostname of those. Anything else a client
// sends, a newline or a control byte above all, would split a Leases row
// across lines of the HWDB/1 text protocol or of a display, so it is
// dropped rather than escaped. A hostname of no legal bytes is "", as is
// an absent option.
func (d *DHCP) Hostname() string {
	v, ok := d.Option(DHCPOptHostname)
	if !ok {
		return ""
	}
	if i := bytes.IndexByte(v, 0); i >= 0 {
		v = v[:i]
	}
	if len(v) <= maxHostname && !slices.ContainsFunc(v, badHostByte) {
		return string(v)
	}
	out := make([]byte, 0, min(len(v), maxHostname))
	for _, c := range v {
		if len(out) == maxHostname {
			break
		}
		if !badHostByte(c) {
			out = append(out, c)
		}
	}
	return string(out)
}

// badHostByte reports whether c has no place in a recorded hostname.
func badHostByte(c byte) bool {
	return !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == '.')
}

// RequestedIP returns the requested-address option.
func (d *DHCP) RequestedIP() (IP4, bool) {
	if v, ok := d.Option(DHCPOptRequestedIP); ok && len(v) == 4 {
		return IP4{v[0], v[1], v[2], v[3]}, true
	}
	return IP4{}, false
}

// ServerID returns the server-identifier option.
func (d *DHCP) ServerID() (IP4, bool) {
	if v, ok := d.Option(DHCPOptServerID); ok && len(v) == 4 {
		return IP4{v[0], v[1], v[2], v[3]}, true
	}
	return IP4{}, false
}

// AddOption appends a raw option.
func (d *DHCP) AddOption(code uint8, data []byte) {
	d.Options = append(d.Options, DHCPOption{Code: code, Data: data})
}

// AddMsgType appends option 53.
func (d *DHCP) AddMsgType(t DHCPMsgType) { d.AddOption(DHCPOptMsgType, []byte{byte(t)}) }

// AddIPOption appends a 4-byte address-valued option.
func (d *DHCP) AddIPOption(code uint8, ip IP4) { d.AddOption(code, ip[:]) }

// AddDurationOption appends a 4-byte seconds-valued option.
func (d *DHCP) AddDurationOption(code uint8, dur time.Duration) {
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], uint32(dur/time.Second))
	d.AddOption(code, v[:])
}

// SubnetMask returns option 1 as an address.
func (d *DHCP) SubnetMask() (IP4, bool) {
	if v, ok := d.Option(DHCPOptSubnetMask); ok && len(v) == 4 {
		return IP4{v[0], v[1], v[2], v[3]}, true
	}
	return IP4{}, false
}

// DHCP well-known ports.
const (
	DHCPServerPort = 67
	DHCPClientPort = 68
)
