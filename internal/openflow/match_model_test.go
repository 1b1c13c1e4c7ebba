package openflow

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// This file holds the reference for Match.Matches, Subsumes and Overlaps:
// the rule written out field by field, as the datapath once kept it in
// three places, with Matches reading the frame's decoded layers rather
// than its key. TestMatchRuleMatchesModel and FuzzMatchRule hold the
// production rule to it.

// matchesRef reports whether a decoded frame arriving on inPort satisfies
// the match, honouring every wildcard bit.
func matchesRef(m *Match, d *packet.Decoded, inPort uint16) bool {
	w := m.Wildcards
	if w&FWInPort == 0 && m.InPort != inPort {
		return false
	}
	if w&FWDLSrc == 0 && m.DLSrc != d.Eth.Src {
		return false
	}
	if w&FWDLDst == 0 && m.DLDst != d.Eth.Dst {
		return false
	}
	if w&FWDLVLAN == 0 {
		vlan := uint16(0xffff)
		if d.Eth.Tagged {
			vlan = d.Eth.VLANID
		}
		if m.DLVLAN != vlan {
			return false
		}
	}
	if w&FWDLVLANPCP == 0 && d.Eth.Tagged && m.DLVLANPCP != d.Eth.VLANPriority {
		return false
	}
	if w&FWDLType == 0 && m.DLType != d.Eth.Type {
		return false
	}

	// Network fields: sourced from IPv4 or, per the spec, from ARP.
	var nwSrc, nwDst packet.IP4
	var nwProto, nwTOS uint8
	var tpSrc, tpDst uint16
	haveNW := false
	switch {
	case d.HasIP:
		nwSrc, nwDst = d.IP.Src, d.IP.Dst
		nwProto, nwTOS = uint8(d.IP.Protocol), d.IP.TOS
		haveNW = true
		switch {
		case d.HasTCP:
			tpSrc, tpDst = d.TCP.SrcPort, d.TCP.DstPort
		case d.HasUDP:
			tpSrc, tpDst = d.UDP.SrcPort, d.UDP.DstPort
		case d.HasICMP:
			tpSrc, tpDst = uint16(d.ICMP.Type), uint16(d.ICMP.Code)
		}
	case d.HasARP:
		nwSrc, nwDst = d.ARP.SenderIP, d.ARP.TargetIP
		nwProto = uint8(d.ARP.Op)
		haveNW = true
	}

	if w&FWNWProto == 0 && (!haveNW || m.NWProto != nwProto) {
		return false
	}
	if w&FWNWTOS == 0 && (!haveNW || m.NWTOS != nwTOS) {
		return false
	}
	if bits := m.nwSrcBits(); bits < 32 {
		if !haveNW || m.NWSrc.Mask(32-int(bits)) != nwSrc.Mask(32-int(bits)) {
			return false
		}
	}
	if bits := m.nwDstBits(); bits < 32 {
		if !haveNW || m.NWDst.Mask(32-int(bits)) != nwDst.Mask(32-int(bits)) {
			return false
		}
	}
	if w&FWTPSrc == 0 && (!haveNW || m.TPSrc != tpSrc) {
		return false
	}
	if w&FWTPDst == 0 && (!haveNW || m.TPDst != tpDst) {
		return false
	}
	return true
}

// keyOf returns the exact key of a decoded frame arriving on inPort.
func keyOf(d *packet.Decoded, inPort uint16) *Match {
	k := MatchFromFrame(d, inPort)
	return &k
}

// refField is one plain field of two matches: its wildcard bit and
// whether the two hold the same value.
type refField struct {
	bit uint32
	eq  bool
}

// refFields compares the ten plain fields of a and b.
func refFields(a, b *Match) [10]refField {
	return [...]refField{
		{FWInPort, a.InPort == b.InPort},
		{FWDLSrc, a.DLSrc == b.DLSrc},
		{FWDLDst, a.DLDst == b.DLDst},
		{FWDLVLAN, a.DLVLAN == b.DLVLAN},
		{FWDLVLANPCP, a.DLVLANPCP == b.DLVLANPCP},
		{FWDLType, a.DLType == b.DLType},
		{FWNWProto, a.NWProto == b.NWProto},
		{FWNWTOS, a.NWTOS == b.NWTOS},
		{FWTPSrc, a.TPSrc == b.TPSrc},
		{FWTPDst, a.TPDst == b.TPDst},
	}
}

// subsumesRef reports whether every packet matched by other is also
// matched by m.
func subsumesRef(m, other *Match) bool {
	for _, f := range refFields(m, other) {
		if m.Wildcards&f.bit != 0 {
			continue // m ignores the field
		}
		if other.Wildcards&f.bit != 0 || !f.eq {
			return false
		}
	}
	mb, ob := m.nwSrcBits(), other.nwSrcBits()
	if mb < 32 {
		if ob > mb || m.NWSrc.Mask(32-int(mb)) != other.NWSrc.Mask(32-int(mb)) {
			return false
		}
	}
	mb, ob = m.nwDstBits(), other.nwDstBits()
	if mb < 32 {
		if ob > mb || m.NWDst.Mask(32-int(mb)) != other.NWDst.Mask(32-int(mb)) {
			return false
		}
	}
	return true
}

// overlapsRef reports whether a single packet could match both a and b:
// for every field either at least one side wildcards it, or both match the
// same value (address prefixes must agree on the shared prefix).
func overlapsRef(a, b *Match) bool {
	for _, f := range refFields(a, b) {
		if a.Wildcards&f.bit == 0 && b.Wildcards&f.bit == 0 && !f.eq {
			return false
		}
	}
	// Address prefixes: the shorter prefix must contain the longer one.
	if bits := int(max(a.nwSrcBits(), b.nwSrcBits())); bits < 32 {
		if a.NWSrc.Mask(32-bits) != b.NWSrc.Mask(32-bits) {
			return false
		}
	}
	if bits := int(max(a.nwDstBits(), b.nwDstBits())); bits < 32 {
		if a.NWDst.Mask(32-bits) != b.NWDst.Mask(32-bits) {
			return false
		}
	}
	return true
}

// checkRule holds Matches, Subsumes and Overlaps to the reference for a
// rule and a second match against a decoded frame arriving on inPort, and
// against the frame's key both ways.
func checkRule(tb testing.TB, d *packet.Decoded, inPort uint16, rule, other *Match) {
	tb.Helper()
	key := MatchFromFrame(d, inPort)
	if got, want := rule.Matches(&key), matchesRef(rule, d, inPort); got != want {
		tb.Fatalf("rule %+v, key %+v: Matches = %v, reference %v", *rule, key, got, want)
	}
	for _, p := range [...][2]*Match{{rule, other}, {other, rule}, {rule, &key}, {&key, rule}} {
		if got, want := p[0].Subsumes(p[1]), subsumesRef(p[0], p[1]); got != want {
			tb.Fatalf("%+v subsumes %+v = %v, reference %v", *p[0], *p[1], got, want)
		}
		if got, want := p[0].Overlaps(p[1]), overlapsRef(p[0], p[1]); got != want {
			tb.Fatalf("%+v overlaps %+v = %v, reference %v", *p[0], *p[1], got, want)
		}
	}
}

// ruleGen draws frames and rules from small pools of values, so that a
// rule and a frame agree on a field, or on an address prefix, often.
type ruleGen struct{ rng *rand.Rand }

var (
	genMACs  = []packet.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}, packet.Broadcast}
	genIPs   = []packet.IP4{{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 1, 1}, {10, 1, 0, 1}, {192, 168, 1, 10}}
	genPorts = []uint16{0, 53, 80, 40000}
	genTOS   = []uint8{0, 0x10, 0xb8}
	genPCP   = []uint8{0, 3, 5}
	genVLANs = []uint16{1, 2, 0xffff}
	genTypes = []packet.EtherType{packet.EtherTypeIPv4, packet.EtherTypeARP, packet.EtherTypeIPv6, 0x88cc}
	genProto = []uint8{0, 1, 2, 6, 17, 47}
	// genIgnored is a count of ignored low address bits: exact, the
	// prefixes the pool's addresses part at, wholly wildcarded, and the
	// counts past 32 the six-bit field can hold.
	genIgnored = []uint32{0, 1, 8, 15, 16, 24, 31, 32, 33, 63}
)

func pick[T any](g *ruleGen, pool []T) T { return pool[g.rng.Intn(len(pool))] }

// frame returns a TCP, UDP, ICMP, ARP, other IPv4 or non-IP frame, tagged
// with a VLAN half the time.
func (g *ruleGen) frame() []byte {
	src, dst := pick(g, genMACs), pick(g, genMACs)
	sip, dip := pick(g, genIPs), pick(g, genIPs)
	sport, dport := pick(g, genPorts), pick(g, genPorts)
	var f []byte
	switch g.rng.Intn(6) {
	case 0:
		f = packet.AppendTCPFrame(nil, src, dst, sip, dip, sport, dport, packet.TCPAck, 1, 0, nil)
	case 1:
		f = packet.AppendUDPFrame(nil, src, dst, sip, dip, sport, dport, []byte("x"))
	case 2:
		f = packet.AppendICMPEchoFrame(nil, src, dst, sip, dip, uint8(g.rng.Intn(2)*8), 1, 1, nil)
	case 3:
		f = packet.AppendARPRequest(nil, src, sip, dip)
		if g.rng.Intn(2) == 0 {
			var req packet.ARP
			if err := req.DecodeFromBytes(f[packet.EthernetHeaderLen:]); err != nil {
				panic(err)
			}
			f = packet.AppendARPReply(nil, dst, dip, &req)
		}
	case 4: // IPv4 carrying a protocol with no ports
		f = packet.AppendUDPFrame(nil, src, dst, sip, dip, sport, dport, nil)
		f[packet.EthernetHeaderLen+9] = 47
	default:
		f = packet.AppendUDPFrame(nil, src, dst, sip, dip, sport, dport, nil)
		typ := pick(g, genTypes[2:])
		f[12], f[13] = byte(typ>>8), byte(typ)
	}
	if f[12] == 0x08 && f[13] == 0x00 {
		f[packet.EthernetHeaderLen+1] = pick(g, genTOS)
	}
	if g.rng.Intn(2) == 0 {
		tci := uint16(pick(g, genPCP))<<13 | pick(g, genVLANs[:2])
		f = append(f[:12:12], append([]byte{0x81, 0x00, byte(tci >> 8), byte(tci)}, f[12:]...)...)
	}
	return f
}

// rule returns a match drawn near k: each field k's or from the pools,
// each plain field wildcarded half the time, and address prefixes of
// random length.
func (g *ruleGen) rule(k *Match) Match {
	m := *k
	near := func() bool { return g.rng.Intn(4) != 0 }
	if !near() {
		m.InPort = uint16(1 + g.rng.Intn(3))
	}
	if !near() {
		m.DLSrc = pick(g, genMACs)
	}
	if !near() {
		m.DLDst = pick(g, genMACs)
	}
	if !near() {
		m.DLVLAN = pick(g, genVLANs)
	}
	if !near() {
		m.DLVLANPCP = pick(g, genPCP)
	}
	if !near() {
		m.DLType = pick(g, genTypes)
	}
	if !near() {
		m.NWProto = pick(g, genProto)
	}
	if !near() {
		m.NWTOS = pick(g, genTOS)
	}
	if !near() {
		m.NWSrc = pick(g, genIPs)
	}
	if !near() {
		m.NWDst = pick(g, genIPs)
	}
	if !near() {
		m.TPSrc = pick(g, genPorts)
	}
	if !near() {
		m.TPDst = pick(g, genPorts)
	}
	m.Wildcards = 0
	for bit := uint32(1); bit <= FWNWTOS; bit <<= 1 {
		if bit&fwPlain != 0 && g.rng.Intn(2) == 0 {
			m.Wildcards |= bit
		}
	}
	m.Wildcards |= pick(g, genIgnored)<<fwNWSrcShift | pick(g, genIgnored)<<fwNWDstShift
	return m
}

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// TestMatchRuleMatchesModel holds Matches, Subsumes and Overlaps to the
// reference on over a million seeded cases (a sixty-fourth of them under the
// race detector): a frame of every kind, tagged or not, against random
// rules with random prefixes.
func TestMatchRuleMatchesModel(t *testing.T) {
	const frames = 2048
	cases := 1 << 20
	if raceEnabled {
		cases >>= 6
	}
	g := &ruleGen{rng: rand.New(rand.NewSource(48))}
	decoded := make([]packet.Decoded, frames)
	for i := range decoded {
		if err := decoded[i].Decode(g.frame()); err != nil {
			t.Fatal(err)
		}
	}
	matched := 0
	for i := 0; i < cases; i++ {
		d := &decoded[g.rng.Intn(frames)]
		inPort := uint16(1 + g.rng.Intn(3))
		key := MatchFromFrame(d, inPort)
		rule, other := g.rule(&key), g.rule(&key)
		checkRule(t, d, inPort, &rule, &other)
		if rule.Matches(&key) {
			matched++
		}
	}
	// The pools are small so that a rule and its frame agree often; the
	// cases test little if they hardly ever or almost always match.
	if matched < cases/20 || matched > cases*19/20 {
		t.Errorf("%d of %d rules matched their frame", matched, cases)
	}
}

// FuzzMatchRule holds Matches, Subsumes and Overlaps to the reference on
// any frame that decodes, any 40-byte rule, a second one when the rule
// bytes run to 80, and any in_port. Seeds: frames of every kind with their
// own key, and a rule near it, as the rule.
func FuzzMatchRule(f *testing.F) {
	g := &ruleGen{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 24; i++ {
		frame := g.frame()
		var d packet.Decoded
		if err := d.Decode(frame); err != nil {
			f.Fatal(err)
		}
		key := MatchFromFrame(&d, 1)
		rule := g.rule(&key)
		f.Add(frame, rule.encode(key.encode(nil)), uint16(1))
		f.Add(frame, key.encode(nil), uint16(2))
	}
	f.Fuzz(func(t *testing.T, frame, raw []byte, inPort uint16) {
		var d packet.Decoded
		var rule, other Match
		if d.Decode(frame) != nil || rule.decode(raw) != nil {
			return
		}
		if len(raw) >= 2*MatchLen {
			_ = other.decode(raw[MatchLen:])
		}
		checkRule(t, &d, inPort, &rule, &other)
	})
}
