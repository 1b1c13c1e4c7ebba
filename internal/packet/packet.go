// Package packet implements encoding and decoding of the network protocols
// the Homework router handles: Ethernet, ARP, IPv4, ICMP, UDP, TCP, DHCP and
// DNS.
//
// The design follows the gopacket "decoding layer" idiom: every protocol is a
// concrete struct with DecodeFromBytes and a serialization method, so hot
// paths can reuse preallocated layer values without per-packet allocation.
// Addresses are fixed-size arrays (not slices) so they are comparable and can
// be used directly as map keys.
//
// Concurrency: layer values, Decoded and FrameBatch carry no
// synchronization — reuse each from one goroutine at a time. A Decoded's
// byte-slice fields alias the frame it parsed, so it is valid only until
// that buffer is reused; the control plane's batched dispatch documents
// the same rule for handlers (see internal/nox).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Errors shared by the decoders in this package.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrMalformed = errors.New("packet: malformed")
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the Ethernet broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the address is an Ethernet group address.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// ParseMAC parses a colon-separated Ethernet address: exactly six fields of
// two hex digits, of either case, and nothing before or after them.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 3*len(m)-1 {
		return MAC{}, fmt.Errorf("packet: bad MAC %q", s)
	}
	for i := range m {
		v, err := strconv.ParseUint(s[3*i:3*i+2], 16, 8)
		if err != nil || (i < len(m)-1 && s[3*i+2] != ':') {
			return MAC{}, fmt.Errorf("packet: bad MAC %q", s)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// IP4 is an IPv4 address.
type IP4 [4]byte

// String renders the address in dotted-quad form.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (ip IP4) IsZero() bool { return ip == IP4{} }

// IsBroadcast reports whether the address is 255.255.255.255.
func (ip IP4) IsBroadcast() bool { return ip == IP4{255, 255, 255, 255} }

// IsMulticast reports whether the address is in 224.0.0.0/4.
func (ip IP4) IsMulticast() bool { return ip[0] >= 224 && ip[0] <= 239 }

// Uint32 returns the address as a big-endian 32-bit integer.
func (ip IP4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IP4FromUint32 builds an address from a big-endian 32-bit integer.
func IP4FromUint32(v uint32) IP4 {
	var ip IP4
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// ParseIP4 parses a dotted-quad IPv4 address: exactly four unsigned
// decimal fields, each at most 255, and nothing before or after them.
func ParseIP4(s string) (IP4, error) {
	var ip IP4
	rest := s
	for i := range ip {
		var f string
		var more bool
		f, rest, more = strings.Cut(rest, ".")
		v, err := strconv.ParseUint(f, 10, 8)
		if err != nil || more != (i < len(ip)-1) {
			return IP4{}, fmt.Errorf("packet: bad IPv4 %q", s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustIP4 is ParseIP4 that panics on error; for tests and fixed configuration.
func MustIP4(s string) IP4 {
	ip, err := ParseIP4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// MustMAC is ParseMAC that panics on error; for tests and fixed configuration.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// Mask applies a prefix-length netmask to the address.
func (ip IP4) Mask(prefix int) IP4 {
	if prefix <= 0 {
		return IP4{}
	}
	if prefix >= 32 {
		return ip
	}
	m := ^uint32(0) << (32 - uint(prefix))
	return IP4FromUint32(ip.Uint32() & m)
}

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes handled by the router.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
	EtherTypeIPv6 EtherType = 0x86dd
)

// String names well-known EtherTypes.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeVLAN:
		return "VLAN"
	case EtherTypeIPv6:
		return "IPv6"
	}
	return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
}

// IPProto identifies the payload protocol of an IPv4 packet.
type IPProto uint8

// IP protocol numbers handled by the router.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names well-known IP protocols.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	}
	return fmt.Sprintf("IPProto(%d)", uint8(p))
}

// Checksum computes the RFC 1071 Internet checksum over data with an initial
// partial sum, for use with pseudo-headers.
//
// The ones'-complement sum is taken eight bytes at a time: 2^16 ≡ 1 modulo
// 0xffff, so a big-endian 64-bit word is congruent to the sum of its four
// 16-bit words, and adding words with the carry fed back in (2^64 ≡ 1 as
// well) keeps both the residue and whether the sum is zero, which is all
// the final fold reads.
func Checksum(data []byte, initial uint32) uint16 {
	sum, carry := uint64(initial), uint64(0)
	for len(data) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// Halve the sum before the tail: two 32-bit halves, a carry and under
	// eight more bytes cannot overflow 64 bits.
	sum = sum>>32 + sum&0xffffffff + carry
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of the IPv4 pseudo-header used by
// TCP and UDP checksums.
func pseudoHeaderSum(src, dst IP4, proto IPProto, length int) uint32 {
	sum := uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
