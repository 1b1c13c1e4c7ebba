package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x00, 0x1c, 0xb3, 0x09, 0x85, 0x15}
	if got, want := m.String(), "00:1c:b3:09:85:15"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseMACRoundTrip(t *testing.T) {
	for _, s := range []string{"00:00:00:00:00:00", "ff:ff:ff:ff:ff:ff", "02:20:11:ab:cd:ef"} {
		m, err := ParseMAC(s)
		if err != nil {
			t.Fatalf("ParseMAC(%q): %v", s, err)
		}
		if m.String() != s {
			t.Errorf("round trip %q -> %q", s, m.String())
		}
	}
	if m, err := ParseMAC("AA:bB:Cc:dd:EE:0f"); err != nil || m != (MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x0f}) {
		t.Errorf("ParseMAC of mixed case = %v, %v", m, err)
	}
}

// TestParseMACRejects: a MAC is six two-hex-digit fields joined by ':'
// and nothing else; every near miss is an error, never a different device.
func TestParseMACRejects(t *testing.T) {
	for _, tc := range []struct{ name, mac string }{
		{"empty", ""},
		{"nonsense", "nonsense"},
		{"truncated to five fields", "00:00:00:00:00"},
		{"truncated last field", "aa:bb:cc:dd:ee:f"},
		{"seventh field", "aa:bb:cc:dd:ee:ff:00"},
		{"oversize field", "aa:bb:cc:dd:ee:fff"},
		{"oversize first field", "aaa:bb:cc:dd:ee:ff"},
		{"single-digit fields", "a:b:c:d:e:f"},
		{"non-hex", "zz:00:00:00:00:00"},
		{"non-hex last digit", "aa:bb:cc:dd:ee:fg"},
		{"signed", "+a:bb:cc:dd:ee:ff"},
		{"negative", "-a:bb:cc:dd:ee:ff"},
		{"trailing bytes", "aa:bb:cc:dd:ee:ff junk"},
		{"trailing newline", "aa:bb:cc:dd:ee:ff\n"},
		{"leading space", " aa:bb:cc:dd:ee:ff"},
		{"dash separators", "aa-bb-cc-dd-ee-ff"},
		{"dot separators", "aabb.ccdd.eeff"},
		{"no separators", "aabbccddeeff"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if m, err := ParseMAC(tc.mac); err == nil {
				t.Errorf("ParseMAC(%q) = %v, want an error", tc.mac, m)
			}
		})
	}
}

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Error("broadcast predicates wrong")
	}
	if (MAC{0x02, 0, 0, 0, 0, 1}).IsMulticast() {
		t.Error("unicast reported as multicast")
	}
	if !(MAC{0x01, 0, 0x5e, 0, 0, 1}).IsMulticast() {
		t.Error("group address not reported as multicast")
	}
	if !(MAC{}).IsZero() || Broadcast.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestIP4RoundTrip(t *testing.T) {
	ip := MustIP4("192.168.1.77")
	if ip.String() != "192.168.1.77" {
		t.Errorf("String() = %q", ip.String())
	}
	if IP4FromUint32(ip.Uint32()) != ip {
		t.Error("Uint32 round trip failed")
	}
}

// TestParseIP4Rejects: an IPv4 address is four unsigned decimal fields of
// at most 255 joined by '.' and nothing else.
func TestParseIP4Rejects(t *testing.T) {
	for _, tc := range []struct{ name, ip string }{
		{"empty", ""},
		{"field over 255", "256.1.1.1"},
		{"last field over 255", "1.2.3.256"},
		{"truncated to three fields", "1.2.3"},
		{"trailing dot", "1.2.3."},
		{"empty field", "1..2.3"},
		{"fifth field", "1.2.3.4.5"},
		{"oversize field", "1.2.3.1234"},
		{"non-decimal", "a.b.c.d"},
		{"hex field", "0x1.2.3.4"},
		{"signed", "+1.2.3.4"},
		{"negative field", "1.-2.3.4"},
		{"trailing bytes", "1.2.3.4junk"},
		{"trailing space", "1.2.3.4 "},
		{"leading space", " 1.2.3.4"},
		{"with a port", "1.2.3.4:80"},
		{"with a prefix", "1.2.3.0/24"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ip, err := ParseIP4(tc.ip); err == nil {
				t.Errorf("ParseIP4(%q) = %v, want an error", tc.ip, ip)
			}
		})
	}
	for s, want := range map[string]IP4{"0.0.0.0": {}, "255.255.255.255": {255, 255, 255, 255}, "010.1.02.003": {10, 1, 2, 3}} {
		if ip, err := ParseIP4(s); err != nil || ip != want {
			t.Errorf("ParseIP4(%q) = %v, %v, want %v", s, ip, err, want)
		}
	}
}

func TestIP4Mask(t *testing.T) {
	ip := MustIP4("192.168.13.77")
	cases := []struct {
		prefix int
		want   string
	}{
		{32, "192.168.13.77"},
		{24, "192.168.13.0"},
		{16, "192.168.0.0"},
		{8, "192.0.0.0"},
		{0, "0.0.0.0"},
	}
	for _, c := range cases {
		if got := ip.Mask(c.prefix).String(); got != c.want {
			t.Errorf("Mask(%d) = %s, want %s", c.prefix, got, c.want)
		}
	}
}

func TestIP4Predicates(t *testing.T) {
	if !MustIP4("255.255.255.255").IsBroadcast() {
		t.Error("broadcast not detected")
	}
	if !MustIP4("224.0.0.251").IsMulticast() || MustIP4("192.168.1.1").IsMulticast() {
		t.Error("multicast detection wrong")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst: MustMAC("aa:bb:cc:dd:ee:ff"), Src: MustMAC("11:22:33:44:55:66"),
		Type: EtherTypeIPv4, Payload: []byte("hello"),
	}
	var got Ethernet
	if err := got.DecodeFromBytes(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.Dst != e.Dst || got.Src != e.Src || got.Type != e.Type || !bytes.Equal(got.Payload, e.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestEthernetVLANRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst: Broadcast, Src: MustMAC("11:22:33:44:55:66"),
		Type: EtherTypeARP, Tagged: true, VLANID: 42, VLANPriority: 5,
		Payload: []byte{1, 2, 3},
	}
	var got Ethernet
	if err := got.DecodeFromBytes(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !got.Tagged || got.VLANID != 42 || got.VLANPriority != 5 || got.Type != EtherTypeARP {
		t.Errorf("VLAN round trip mismatch: %+v", got)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err != ErrTruncated {
		t.Errorf("want ErrTruncated, got %v", err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{
		Op:       ARPRequest,
		SenderHW: MustMAC("11:22:33:44:55:66"), SenderIP: MustIP4("10.0.0.1"),
		TargetHW: MAC{}, TargetIP: MustIP4("10.0.0.2"),
	}
	var got ARP
	if err := got.DecodeFromBytes(a.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("round trip mismatch: %+v != %+v", got, a)
	}
}

func TestARPHelpers(t *testing.T) {
	hw := MustMAC("11:22:33:44:55:66")
	var d Decoded
	if err := d.Decode(AppendARPRequest(nil, hw, MustIP4("10.0.0.1"), MustIP4("10.0.0.2"))); err != nil {
		t.Fatal(err)
	}
	if !d.HasARP || d.ARP.Op != ARPRequest || !d.Eth.Dst.IsBroadcast() {
		t.Fatalf("bad request: %+v", d.ARP)
	}
	if err := d.Decode(AppendARPReply(nil, MustMAC("66:55:44:33:22:11"), MustIP4("10.0.0.2"), &d.ARP)); err != nil {
		t.Fatal(err)
	}
	if d.ARP.Op != ARPReply || d.ARP.TargetHW != hw || d.Eth.Dst != hw {
		t.Fatalf("bad reply: %+v", d.ARP)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS: 0x10, ID: 4711, Flags: IPv4DontFragment, TTL: 64,
		Protocol: ProtoUDP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2"),
		Payload: []byte("payload!"),
	}
	var got IPv4
	if err := got.DecodeFromBytes(ip.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != 64 ||
		got.Protocol != ProtoUDP || !bytes.Equal(got.Payload, ip.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestIPv4ChecksumValidates(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: MustIP4("1.2.3.4"), Dst: MustIP4("5.6.7.8")}
	raw := ip.Bytes()
	if cs := Checksum(raw[:IPv4HeaderLen], 0); cs != 0 {
		t.Errorf("header checksum does not verify: %04x", cs)
	}
	raw[8] = 63 // corrupt TTL
	if cs := Checksum(raw[:IPv4HeaderLen], 0); cs == 0 {
		t.Error("corrupted header still verifies")
	}
}

func TestIPv4RejectsBadVersion(t *testing.T) {
	ip := IPv4{TTL: 1, Protocol: ProtoUDP}
	raw := ip.Bytes()
	raw[0] = 0x65 // version 6
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != ErrMalformed {
		t.Errorf("want ErrMalformed, got %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := MustIP4("10.0.0.1"), MustIP4("10.0.0.2")
	u := UDP{SrcPort: 5353, DstPort: 53, Payload: []byte("query")}
	var got UDP
	if err := got.DecodeFromBytes(u.Bytes(src, dst)); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 5353 || got.DstPort != 53 || !bytes.Equal(got.Payload, u.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUDPChecksumValidates(t *testing.T) {
	src, dst := MustIP4("10.0.0.1"), MustIP4("10.0.0.2")
	u := UDP{SrcPort: 1000, DstPort: 2000, Payload: []byte("abcde")}
	raw := u.Bytes(src, dst)
	sum := Checksum(raw, pseudoHeaderSum(src, dst, ProtoUDP, len(raw)))
	if sum != 0 && sum != 0xffff {
		t.Errorf("UDP checksum does not verify: %04x", sum)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	src, dst := MustIP4("10.0.0.1"), MustIP4("93.184.216.34")
	tc := TCP{
		SrcPort: 49152, DstPort: 443, Seq: 1e9, Ack: 77,
		Flags: TCPSyn | TCPAck, Window: 29200, Payload: []byte("tls hello"),
	}
	var got TCP
	if err := got.DecodeFromBytes(tc.Bytes(src, dst)); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != tc.SrcPort || got.DstPort != tc.DstPort || got.Seq != tc.Seq ||
		got.Flags != tc.Flags || !bytes.Equal(got.Payload, tc.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	c := ICMP{Type: ICMPEchoRequest, ID: 77, Seq: 3, Payload: []byte("ping")}
	var got ICMP
	if err := got.DecodeFromBytes(c.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.Type != c.Type || got.ID != 77 || got.Seq != 3 || !bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if cs := Checksum(c.Bytes(), 0); cs != 0 {
		t.Errorf("ICMP checksum does not verify: %04x", cs)
	}
}

func TestDHCPRoundTrip(t *testing.T) {
	d := DHCP{
		Op: DHCPBootRequest, XID: 0xdeadbeef, Flags: 0x8000,
		CHAddr: MustMAC("11:22:33:44:55:66"), SName: "router", File: "boot.img",
	}
	d.AddMsgType(DHCPDiscover)
	d.AddOption(DHCPOptHostname, []byte("toms-mac-air"))
	var got DHCP
	if err := got.DecodeFromBytes(d.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.XID != d.XID || got.CHAddr != d.CHAddr || got.MsgType() != DHCPDiscover {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Hostname() != "toms-mac-air" {
		t.Errorf("Hostname() = %q", got.Hostname())
	}
	if got.SName != "router" || got.File != "boot.img" {
		t.Errorf("sname/file = %q/%q", got.SName, got.File)
	}
	if len(got.Bytes()) < 300 {
		t.Error("DHCP message shorter than BOOTP minimum")
	}
}

func TestDHCPOptions(t *testing.T) {
	var d DHCP
	d.AddMsgType(DHCPOffer)
	d.AddIPOption(DHCPOptServerID, MustIP4("192.168.1.1"))
	d.AddIPOption(DHCPOptSubnetMask, MustIP4("255.255.255.255"))
	d.AddDurationOption(DHCPOptLeaseTime, 3600e9)
	d.Op = DHCPBootReply
	d.CHAddr = MustMAC("11:22:33:44:55:66")

	var got DHCP
	if err := got.DecodeFromBytes(d.Bytes()); err != nil {
		t.Fatal(err)
	}
	if sid, ok := got.ServerID(); !ok || sid != MustIP4("192.168.1.1") {
		t.Errorf("ServerID = %v, %v", sid, ok)
	}
	if mask, ok := got.SubnetMask(); !ok || mask != MustIP4("255.255.255.255") {
		t.Errorf("SubnetMask = %v, %v", mask, ok)
	}
	if lt, ok := leaseTime(&got); !ok || lt.Seconds() != 3600 {
		t.Errorf("lease time = %v, %v", lt, ok)
	}
}

func TestDHCPRejectsBadMagic(t *testing.T) {
	d := DHCP{Op: DHCPBootRequest, CHAddr: MAC{1}}
	raw := d.Bytes()
	raw[236] = 0
	var got DHCP
	if err := got.DecodeFromBytes(raw); err != ErrMalformed {
		t.Errorf("want ErrMalformed, got %v", err)
	}
}

func TestDNSQueryRoundTrip(t *testing.T) {
	q := NewDNSQuery(0x1234, "www.facebook.com", DNSTypeA)
	raw, err := q.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || len(got.Questions) != 1 {
		t.Fatalf("bad decode: %+v", got)
	}
	if got.Questions[0].Name != "www.facebook.com" || got.Questions[0].Type != DNSTypeA {
		t.Errorf("bad question: %+v", got.Questions[0])
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	q := NewDNSQuery(7, "facebook.com", DNSTypeA)
	q.Response = true
	q.RA = true
	q.AnswerA(MustIP4("157.240.1.35"), 300)
	raw, err := q.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if !got.Response || len(got.Answers) != 1 {
		t.Fatalf("bad decode: %+v", got)
	}
	if ip, ok := got.Answers[0].A(); !ok || ip != MustIP4("157.240.1.35") {
		t.Errorf("A() = %v, %v", ip, ok)
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Hand-built response with a compressed answer name pointing at the
	// question name (offset 12).
	raw := []byte{
		0x00, 0x07, 0x81, 0x80, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0x00, 0x01, 0x00, 0x01, // qtype A, qclass IN
		0xc0, 0x0c, // pointer to offset 12
		0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3c, // A IN TTL 60
		0x00, 0x04, 93, 184, 216, 34,
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "www.example.com" {
		t.Errorf("compressed name = %q", got.Answers[0].Name)
	}
	if ip, _ := got.Answers[0].A(); ip != MustIP4("93.184.216.34") {
		t.Errorf("A = %v", ip)
	}
}

func TestDNSCompressionLoopRejected(t *testing.T) {
	raw := []byte{
		0x00, 0x07, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xc0, 0x0c, // pointer to itself
		0x00, 0x01, 0x00, 0x01,
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err == nil {
		t.Error("self-referential compression pointer accepted")
	}
}

func TestReverseName(t *testing.T) {
	ip := MustIP4("192.168.1.54")
	name := ReverseName(ip)
	if name != "54.1.168.192.in-addr.arpa" {
		t.Errorf("ReverseName = %q", name)
	}
	back, ok := ParseReverseName(name)
	if !ok || back != ip {
		t.Errorf("ParseReverseName = %v, %v", back, ok)
	}
	if _, ok := ParseReverseName("not.a.reverse.name"); ok {
		t.Error("bogus reverse name accepted")
	}
}

func TestDecodedFiveTuple(t *testing.T) {
	f := AppendTCPFrame(nil,
		MustMAC("11:22:33:44:55:66"), MustMAC("66:55:44:33:22:11"),
		MustIP4("10.0.0.2"), MustIP4("93.184.216.34"), 49152, 80, TCPSyn, 1, 0, nil)
	var d Decoded
	if err := d.Decode(f); err != nil {
		t.Fatal(err)
	}
	if !d.HasTCP || d.TCP.Flags != TCPSyn {
		t.Errorf("Decoded = %+v", d)
	}
	want := FiveTuple{Src: MustIP4("10.0.0.2"), Dst: MustIP4("93.184.216.34"), Proto: ProtoTCP, SrcPort: 49152, DstPort: 80}
	ft := FiveTuple{Src: d.IP.Src, Dst: d.IP.Dst, Proto: d.IP.Protocol, SrcPort: d.TCP.SrcPort, DstPort: d.TCP.DstPort}
	if ft != want {
		t.Errorf("decoded five-tuple %+v, want %+v", ft, want)
	}
}

func TestWellKnownService(t *testing.T) {
	cases := []struct {
		proto IPProto
		port  uint16
		want  string
	}{
		{ProtoTCP, 80, "http"},
		{ProtoTCP, 443, "https"},
		{ProtoUDP, 53, "dns"},
		{ProtoUDP, 5060, "voip"},
		{ProtoTCP, 6881, "p2p"},
		{ProtoICMP, 0, "icmp"},
		{ProtoTCP, 12345, "other"},
	}
	for _, c := range cases {
		if got := WellKnownService(c.proto, c.port); got != c.want {
			t.Errorf("WellKnownService(%v,%d) = %q, want %q", c.proto, c.port, got, c.want)
		}
	}
}

// checksumRef is the loop Checksum was before it went word-wise: two bytes
// an iteration, the odd last byte padded with a zero, folded at the end. It
// shares nothing with Checksum. Its accumulator is 64 bits wide where the
// old one had 32, so that it is also right for an initial sum near 2^32,
// which the old loop overflowed on.
func checksumRef(data []byte, initial uint32) uint16 {
	sum := uint64(initial)
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		sum += uint64(data[n-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Checksum against the byte-pair reference: every length up to 4 096 —
// through every tail the 32-, 8-, 4-, 2- and 1-byte steps leave — at eight
// alignments within a larger buffer, over random bytes, all-0xff (every add
// carries) and zeros, with initial sums up to 2^32-1.
func TestChecksumMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 4096+8)
		fills := map[string]func(){
			"random": func() { rng.Read(buf) },
			"ones": func() {
				for i := range buf {
					buf[i] = 0xff
				}
			},
			"zeros": func() { clear(buf) },
		}
		for name, fill := range fills {
			fill()
			for n := 0; n <= 4096; n++ {
				off := n % 8
				initial := rng.Uint32()
				switch n % 4 {
				case 0:
					initial = 0
				case 1:
					initial |= 1 << 31
				case 2:
					initial = ^uint32(0) - uint32(rng.Intn(3))
				}
				data := buf[off : off+n]
				if got, want := Checksum(data, initial), checksumRef(data, initial); got != want {
					t.Fatalf("seed %d, %s, %d bytes at offset %d, initial %#x: Checksum = %#04x, reference %#04x",
						seed, name, n, off, initial, got, want)
				}
			}
		}
	}
}

func TestChecksumOddLength(t *testing.T) {
	// RFC 1071: odd final byte is padded with zero.
	if Checksum([]byte{0x01}, 0) != ^uint16(0x0100) {
		t.Error("odd-length checksum wrong")
	}
}

// Property: Ethernet round trip preserves all fields for arbitrary payloads.
func TestEthernetRoundTripQuick(t *testing.T) {
	f := func(dst, src [6]byte, payload []byte) bool {
		e := Ethernet{Dst: MAC(dst), Src: MAC(src), Type: EtherTypeIPv4, Payload: payload}
		var got Ethernet
		if err := got.DecodeFromBytes(e.Bytes()); err != nil {
			return false
		}
		return got.Dst == e.Dst && got.Src == e.Src && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UDP checksums always verify against the pseudo-header.
func TestUDPChecksumQuick(t *testing.T) {
	f := func(sp, dp uint16, src, dst [4]byte, payload []byte) bool {
		u := UDP{SrcPort: sp, DstPort: dp, Payload: payload}
		raw := u.Bytes(IP4(src), IP4(dst))
		sum := Checksum(raw, pseudoHeaderSum(IP4(src), IP4(dst), ProtoUDP, len(raw)))
		return sum == 0 || sum == 0xffff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoder never panics on arbitrary input.
func TestDecodeNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) bool {
		var d Decoded
		_ = d.Decode(data)
		var dns DNS
		_ = dns.DecodeFromBytes(data)
		var dhcp DHCP
		_ = dhcp.DecodeFromBytes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeTCPFrame(b *testing.B) {
	raw := AppendTCPFrame(nil, MAC{1}, MAC{2}, IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}, 1234, 80, TCPAck, 1, 0, make([]byte, 1000))
	var d Decoded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeTCPFrame(b *testing.B) {
	buf := make([]byte, 0, 1600)
	payload := make([]byte, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendTCPFrame(buf[:0], MAC{1}, MAC{2}, IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}, 1234, 80, TCPAck, 0, 0, payload)
	}
}
