package openflow

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// roundTrip encodes msg, decodes it back, and returns the decoded message.
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	raw := Encode(msg)
	if h := msg.Hdr(); int(h.Length) != len(raw) {
		t.Fatalf("header length %d != encoded length %d", h.Length, len(raw))
	}
	got, err := ReadMessage(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// encodeActions appends an action list's wire form, as a flow-mod carries
// it.
func encodeActions(b []byte, actions []Action) []byte {
	w := wire{b: b}
	w.actions(&actions)
	return w.b
}

// decodeActions reads a whole action list.
func decodeActions(b []byte) ([]Action, error) {
	var actions []Action
	w := wire{b: b, dec: true}
	w.actions(&actions)
	return actions, w.err
}

// encode appends the match's 40-byte wire form.
func (m *Match) encode(b []byte) []byte {
	w := wire{b: b}
	m.layout(&w)
	return w.b
}

// decode reads the match's 40-byte wire form.
func (m *Match) decode(b []byte) error {
	w := wire{b: b, dec: true}
	m.layout(&w)
	return w.err
}

func TestHelloRoundTrip(t *testing.T) {
	m := &Hello{}
	m.Header.XID = 42
	got := roundTrip(t, m).(*Hello)
	if got.Header.XID != 42 || got.Header.Type != TypeHello {
		t.Errorf("got %+v", got.Header)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	m := &EchoRequest{Data: []byte("ping")}
	got := roundTrip(t, m).(*EchoRequest)
	if !bytes.Equal(got.Data, []byte("ping")) {
		t.Errorf("data = %q", got.Data)
	}
	r := &EchoReply{Data: []byte("pong")}
	gr := roundTrip(t, r).(*EchoReply)
	if !bytes.Equal(gr.Data, []byte("pong")) {
		t.Errorf("data = %q", gr.Data)
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	m := &ErrorMsg{ErrType: ErrTypeFlowModFailed, Code: FlowModOverlap, Data: []byte("bad")}
	got := roundTrip(t, m).(*ErrorMsg)
	if got.ErrType != ErrTypeFlowModFailed || got.Code != FlowModOverlap {
		t.Errorf("got %+v", got)
	}
	if got.Error() == "" {
		t.Error("empty error string")
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	m := &FeaturesReply{
		DatapathID:   0x00163e0000000001,
		NBuffers:     256,
		NTables:      2,
		Capabilities: CapFlowStats | CapPortStats | CapTableStats,
		Actions:      0xfff,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: packet.MustMAC("02:00:00:00:00:01"), Name: "wlan0"},
			{PortNo: 2, HWAddr: packet.MustMAC("02:00:00:00:00:02"), Name: "eth0", State: PortStateLinkDown},
		},
	}
	got := roundTrip(t, m).(*FeaturesReply)
	if got.DatapathID != m.DatapathID || len(got.Ports) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Ports[0].Name != "wlan0" || got.Ports[1].State != PortStateLinkDown {
		t.Errorf("ports = %+v", got.Ports)
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	m := &PacketIn{BufferID: NoBuffer, TotalLen: 128, InPort: 3, Reason: PacketInReasonNoMatch, Data: []byte{1, 2, 3, 4}}
	got := roundTrip(t, m).(*PacketIn)
	if got.BufferID != NoBuffer || got.InPort != 3 || !bytes.Equal(got.Data, m.Data) {
		t.Errorf("got %+v", got)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	m := &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortNone,
		Actions:  []Action{&ActionOutput{Port: PortFlood, MaxLen: 0}},
		Data:     []byte("frame-bytes"),
	}
	got := roundTrip(t, m).(*PacketOut)
	if len(got.Actions) != 1 || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("got %+v", got)
	}
	if out, ok := got.Actions[0].(*ActionOutput); !ok || out.Port != PortFlood {
		t.Errorf("action = %#v", got.Actions[0])
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	match := MatchAll()
	match.Wildcards &^= FWDLType | FWNWProto
	match.DLType = packet.EtherTypeIPv4
	match.NWProto = uint8(packet.ProtoTCP)
	m := &FlowMod{
		Match:       match,
		Cookie:      0xfeed,
		Command:     FlowModAdd,
		IdleTimeout: 30,
		HardTimeout: 300,
		Priority:    100,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Flags:       FlowModFlagSendFlowRem,
		Actions: []Action{
			&ActionSetDLDst{Addr: packet.MustMAC("02:aa:bb:cc:dd:ee")},
			&ActionOutput{Port: 1},
		},
	}
	got := roundTrip(t, m).(*FlowMod)
	if got.Cookie != 0xfeed || got.Priority != 100 || len(got.Actions) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Match.DLType != packet.EtherTypeIPv4 || got.Match.NWProto != 6 {
		t.Errorf("match = %+v", got.Match)
	}
	if _, ok := got.Actions[0].(*ActionSetDLDst); !ok {
		t.Errorf("action 0 = %#v", got.Actions[0])
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	m := &FlowRemoved{
		Match: MatchAll(), Cookie: 7, Priority: 5, Reason: FlowRemovedIdleTimeout,
		DurationSec: 12, DurationNsec: 500, IdleTimeout: 10,
		PacketCount: 99, ByteCount: 12345,
	}
	got := roundTrip(t, m).(*FlowRemoved)
	if got.PacketCount != 99 || got.ByteCount != 12345 || got.Reason != FlowRemovedIdleTimeout {
		t.Errorf("got %+v", got)
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	m := &PortStatus{Reason: PortStatusAdd, Desc: PhyPort{PortNo: 4, Name: "wlan1"}}
	got := roundTrip(t, m).(*PortStatus)
	if got.Reason != PortStatusAdd || got.Desc.Name != "wlan1" {
		t.Errorf("got %+v", got)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	m := &SetConfig{Flags: ConfigFragNormal, MissSendLen: 128}
	got := roundTrip(t, m).(*SetConfig)
	if got.MissSendLen != 128 {
		t.Errorf("got %+v", got)
	}
	r := &GetConfigReply{MissSendLen: 96}
	gr := roundTrip(t, r).(*GetConfigReply)
	if gr.MissSendLen != 96 {
		t.Errorf("got %+v", gr)
	}
}

func TestStatsDescRoundTrip(t *testing.T) {
	m := &StatsReply{
		StatsType: StatsDesc,
		Desc: DescStats{
			MfrDesc: "Homework Project", HWDesc: "soft datapath",
			SWDesc: "repro", SerialNum: "1", DPDesc: "home router",
		},
	}
	got := roundTrip(t, m).(*StatsReply)
	if got.Desc.MfrDesc != "Homework Project" || got.Desc.DPDesc != "home router" {
		t.Errorf("got %+v", got.Desc)
	}
}

func TestStatsFlowRoundTrip(t *testing.T) {
	req := &StatsRequest{StatsType: StatsFlow, Flow: FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}}
	greq := roundTrip(t, req).(*StatsRequest)
	if greq.Flow.TableID != 0xff || greq.Flow.OutPort != PortNone {
		t.Fatalf("got %+v", greq.Flow)
	}

	rep := &StatsReply{
		StatsType: StatsFlow,
		Flows: []FlowStats{
			{
				TableID: 0, Match: MatchAll(), DurationSec: 10, Priority: 1,
				IdleTimeout: 60, Cookie: 0xc0ffee, PacketCount: 42, ByteCount: 4200,
				Actions: []Action{&ActionOutput{Port: 2}},
			},
			{TableID: 0, Match: MatchAll(), Cookie: 2},
		},
	}
	grep := roundTrip(t, rep).(*StatsReply)
	if len(grep.Flows) != 2 {
		t.Fatalf("flows = %d", len(grep.Flows))
	}
	if grep.Flows[0].Cookie != 0xc0ffee || grep.Flows[0].ByteCount != 4200 || len(grep.Flows[0].Actions) != 1 {
		t.Errorf("flow 0 = %+v", grep.Flows[0])
	}
}

func TestStatsAggregateRoundTrip(t *testing.T) {
	m := &StatsReply{StatsType: StatsAggregate, Aggregate: AggregateStats{PacketCount: 1, ByteCount: 2, FlowCount: 3}}
	got := roundTrip(t, m).(*StatsReply)
	if got.Aggregate != m.Aggregate {
		t.Errorf("got %+v", got.Aggregate)
	}
}

func TestStatsTableAndPortRoundTrip(t *testing.T) {
	tm := &StatsReply{StatsType: StatsTable, Tables: []TableStats{
		{TableID: 0, Name: "classifier", Wildcards: FWAll, MaxEntries: 1 << 20, ActiveCount: 17, LookupCount: 1000, MatchedCount: 900},
	}}
	gt := roundTrip(t, tm).(*StatsReply)
	if len(gt.Tables) != 1 || gt.Tables[0].Name != "classifier" || gt.Tables[0].MatchedCount != 900 {
		t.Errorf("got %+v", gt.Tables)
	}

	pm := &StatsReply{StatsType: StatsPort, Ports: []PortStats{
		{PortNo: 1, RxPackets: 10, TxBytes: 999, Collisions: 1},
		{PortNo: 2, RxErrors: 5},
	}}
	gp := roundTrip(t, pm).(*StatsReply)
	if len(gp.Ports) != 2 || gp.Ports[0].TxBytes != 999 || gp.Ports[1].RxErrors != 5 {
		t.Errorf("got %+v", gp.Ports)
	}
}

// Every action round-trips: the four the package has a type for, and one
// of each type code it reads as an ActionUnsupported.
func TestAllActionsRoundTrip(t *testing.T) {
	actions := append([]Action{
		&ActionOutput{Port: 7, MaxLen: 128},
		&ActionSetDLSrc{Addr: packet.MustMAC("02:00:00:00:00:01")},
		&ActionSetDLDst{Addr: packet.MustMAC("02:00:00:00:00:02")},
		&ActionEnqueue{Port: 1, QueueID: 9},
	}, unsupportedActions()...)
	raw := encodeActions(nil, actions)
	if len(raw)%8 != 0 {
		t.Fatalf("actions not 8-byte aligned: %d", len(raw))
	}
	got, err := decodeActions(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, actions) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, actions)
	}
	for _, a := range got {
		if a.String() == "" {
			t.Errorf("%T has empty String()", a)
		}
	}
}

func TestDecodeActionsRejectsBadLength(t *testing.T) {
	raw := encodeActions(nil, []Action{&ActionOutput{Port: 1}})
	raw[3] = 7 // not a multiple of 8
	if _, err := decodeActions(raw); err == nil {
		t.Error("bad action length accepted")
	}
}

func TestMatchExactFromFrame(t *testing.T) {
	f := packet.AppendTCPFrame(nil,
		packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02"),
		packet.MustIP4("10.0.0.2"), packet.MustIP4("8.8.8.8"), 49152, 443, packet.TCPSyn, 1, 0, nil)
	var d packet.Decoded
	if err := d.Decode(f); err != nil {
		t.Fatal(err)
	}
	m := MatchFromFrame(&d, 3)
	if !m.Matches(keyOf(&d, 3)) {
		t.Error("exact match does not match its own frame")
	}
	if m.Matches(keyOf(&d, 4)) {
		t.Error("match ignores in_port")
	}
	if !m.IsExact() {
		t.Error("MatchFromFrame(IP/TCP) should be exact")
	}

	// Changing the destination port must break the match.
	f2 := packet.AppendTCPFrame(nil,
		packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02"),
		packet.MustIP4("10.0.0.2"), packet.MustIP4("8.8.8.8"), 49152, 80, packet.TCPSyn, 1, 0, nil)
	var d2 packet.Decoded
	if err := d2.Decode(f2); err != nil {
		t.Fatal(err)
	}
	if m.Matches(keyOf(&d2, 3)) {
		t.Error("match ignores tp_dst")
	}
}

func TestMatchWildcards(t *testing.T) {
	f := packet.AppendUDPFrame(nil,
		packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02"),
		packet.MustIP4("192.168.1.10"), packet.MustIP4("192.168.1.1"), 5000, 53, []byte("x"))
	var d packet.Decoded
	if err := d.Decode(f); err != nil {
		t.Fatal(err)
	}

	all := MatchAll()
	if !all.Matches(keyOf(&d, 1)) {
		t.Error("MatchAll does not match")
	}

	// Match any UDP-to-port-53 traffic (the DNS interception rule).
	dns := MatchAll()
	dns.Wildcards &^= FWDLType | FWNWProto | FWTPDst
	dns.DLType = packet.EtherTypeIPv4
	dns.NWProto = uint8(packet.ProtoUDP)
	dns.TPDst = 53
	if !dns.Matches(keyOf(&d, 1)) {
		t.Error("DNS rule does not match DNS packet")
	}

	// Subnet match on nw_src.
	sub := MatchAll()
	sub.Wildcards &^= FWDLType
	sub.DLType = packet.EtherTypeIPv4
	sub.NWSrc = packet.MustIP4("192.168.1.0")
	setNWSrcPrefix(&sub, 24)
	if !sub.Matches(keyOf(&d, 1)) {
		t.Error("/24 src match failed")
	}
	sub.NWSrc = packet.MustIP4("192.168.2.0")
	if sub.Matches(keyOf(&d, 1)) {
		t.Error("/24 src match matched wrong subnet")
	}
}

func TestMatchARPFields(t *testing.T) {
	req := packet.AppendARPRequest(nil, packet.MustMAC("02:00:00:00:00:01"),
		packet.MustIP4("10.0.0.2"), packet.MustIP4("10.0.0.1"))
	var d packet.Decoded
	if err := d.Decode(req); err != nil {
		t.Fatal(err)
	}
	m := MatchAll()
	m.Wildcards &^= FWDLType | FWNWProto
	m.DLType = packet.EtherTypeARP
	m.NWProto = uint8(packet.ARPRequest)
	if !m.Matches(keyOf(&d, 1)) {
		t.Error("ARP opcode match failed")
	}
	m.NWProto = uint8(packet.ARPReply)
	if m.Matches(keyOf(&d, 1)) {
		t.Error("ARP opcode mismatch accepted")
	}
}

// setNWSrcPrefix sets m's nw_src wildcard bits to match a prefix of the
// given length (32 = exact).
func setNWSrcPrefix(m *Match, prefix int) {
	m.Wildcards = m.Wildcards&^FWNWSrcMask | uint32(32-prefix)<<fwNWSrcShift
}

func TestMatchSubsumes(t *testing.T) {
	exact := Match{DLType: packet.EtherTypeIPv4, NWProto: 6, TPDst: 80}
	exact.Wildcards = FWAll &^ (FWDLType | FWNWProto | FWTPDst)

	broad := MatchAll()
	if !broad.Subsumes(&exact) {
		t.Error("match-all should subsume everything")
	}
	if exact.Subsumes(&broad) {
		t.Error("narrow match subsumes broad")
	}
	if !exact.Subsumes(&exact) {
		t.Error("match should subsume itself")
	}

	srcNet := MatchAll()
	srcNet.NWSrc = packet.MustIP4("10.0.0.0")
	setNWSrcPrefix(&srcNet, 8)
	host := MatchAll()
	host.NWSrc = packet.MustIP4("10.1.2.3")
	setNWSrcPrefix(&host, 32)
	if !srcNet.Subsumes(&host) {
		t.Error("/8 should subsume /32 within it")
	}
	outside := MatchAll()
	outside.NWSrc = packet.MustIP4("11.0.0.1")
	setNWSrcPrefix(&outside, 32)
	if srcNet.Subsumes(&outside) {
		t.Error("/8 subsumed address outside the prefix")
	}
}

func TestMatchString(t *testing.T) {
	m := MatchAll()
	if m.String() != "any" {
		t.Errorf("MatchAll().String() = %q", m.String())
	}
	m.Wildcards &^= FWDLType | FWTPDst
	m.DLType = packet.EtherTypeIPv4
	m.TPDst = 53
	s := m.String()
	if s == "any" || s == "" {
		t.Errorf("String() = %q", s)
	}
}

func TestReadWriteMessageOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		for i := 0; i < 3; i++ {
			msg, err := ReadMessage(conn)
			if err != nil {
				done <- err
				return
			}
			if err := WriteMessage(conn, msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("hw")},
		&FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer, OutPort: PortNone,
			Actions: []Action{&ActionOutput{Port: PortNormal}}},
	}
	for _, m := range msgs {
		if err := WriteMessage(conn, m); err != nil {
			t.Fatal(err)
		}
		echo, err := ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(echo) != reflect.TypeOf(m) {
			t.Errorf("echoed %T, sent %T", echo, m)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	raw := Encode(&Hello{})
	raw[0] = 0x04 // OpenFlow 1.3
	if _, err := ReadMessage(bytes.NewReader(raw)); err != ErrBadVersion {
		t.Errorf("want ErrBadVersion, got %v", err)
	}
}

func TestDecodeNeverPanicsQuick(t *testing.T) {
	f := func(body []byte, typ uint8) bool {
		h := Header{Version: Version, Type: MsgType(typ % 22), Length: uint16(HeaderLen + len(body)), XID: 1}
		_, _ = decodeMessage(h, body)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMatchEncodeDecodeQuick(t *testing.T) {
	f := func(wc uint32, inPort uint16, src, dst [6]byte, nwsrc [4]byte, tp uint16) bool {
		m := Match{
			Wildcards: wc & FWAll, InPort: inPort,
			DLSrc: packet.MAC(src), DLDst: packet.MAC(dst),
			NWSrc: packet.IP4(nwsrc), TPDst: tp,
		}
		var got Match
		if err := got.decode(m.encode(nil)); err != nil {
			return false
		}
		return got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeFlowMod(b *testing.B) {
	m := &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer, OutPort: PortNone,
		Actions: []Action{&ActionOutput{Port: 1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}

func BenchmarkMatchExact(b *testing.B) {
	f := packet.AppendTCPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 80, packet.TCPAck, 0, 0, nil)
	var d packet.Decoded
	if err := d.Decode(f); err != nil {
		b.Fatal(err)
	}
	m := MatchFromFrame(&d, 1)
	key := m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Matches(&key) {
			b.Fatal("no match")
		}
	}
}

// codecAllocMessages are the messages TestCodecAllocations pins, with what
// Encode and ReadMessage allocate for each.
func codecAllocMessages() []struct {
	name             string
	msg              Message
	encode, readBack float64
} {
	frame := bytes.Repeat([]byte{0xab}, 64)
	flows := make([]FlowStats, 3)
	for i := range flows {
		flows[i] = FlowStats{Match: MatchAll(), Priority: uint16(i), PacketCount: 9, Actions: []Action{&ActionOutput{Port: uint16(i + 1)}}}
	}
	return []struct {
		name             string
		msg              Message
		encode, readBack float64
	}{
		// Reading: the header array and the body buffer, the message, two
		// actions and their list (grown once).
		{"two-action flow-mod", &FlowMod{Match: MatchAll(), Command: FlowModAdd, BufferID: NoBuffer, OutPort: PortNone,
			Actions: []Action{&ActionSetDLDst{Addr: packet.MAC{2, 0, 0, 0, 0, 1}}, &ActionOutput{Port: 2}}}, 3, 7},
		// Reading: the header array, the body buffer, the message and its
		// copy of the frame.
		{"packet-in of a 64-byte frame", &PacketIn{BufferID: NoBuffer, TotalLen: 64, InPort: 1, Data: frame}, 3, 4},
		// Reading: the header array, the body buffer, the message, the
		// entries (grown three times), and each entry's action and list.
		{"flow stats reply of 3 entries", &StatsReply{StatsType: StatsFlow, Flows: flows}, 5, 12},
	}
}

// TestCodecAllocations pins what Encode and ReadMessage allocate for a
// flow-mod, a packet-in and a flow stats reply: no more than they did when
// each structure had an encoder and a decoder of its own.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, c := range codecAllocMessages() {
		raw := Encode(c.msg)
		if got := testing.AllocsPerRun(100, func() { Encode(c.msg) }); got > c.encode {
			t.Errorf("encoding a %s allocates %.0f times, want at most %.0f", c.name, got, c.encode)
		}
		r := bytes.NewReader(raw)
		if got := testing.AllocsPerRun(100, func() {
			r.Reset(raw)
			if _, err := ReadMessage(r); err != nil {
				t.Fatal(err)
			}
		}); got > c.readBack {
			t.Errorf("reading a %s allocates %.0f times, want at most %.0f", c.name, got, c.readBack)
		}
	}
}

// Release drops a flow-mod's action list and never pools it: the list is
// the flow entry's, shared with every entry built from it, so the next
// flow-mod from the pool starts with none, and nothing it appends or a
// release zeroes reaches the list.
func TestReleaseNeverPoolsTheActionList(t *testing.T) {
	acts := []Action{&ActionOutput{Port: 1}, &ActionSetDLDst{Addr: [6]byte{2, 0, 0, 0, 0, 9}}}
	for i := 0; i < 10; i++ {
		fm := NewFlowMod(FlowMod{})
		if fm.Actions != nil || fm.Match != (Match{}) || fm.BufferID != 0 {
			t.Fatalf("round %d: a flow-mod from the pool reads %d actions (capacity %d), match %v, buffer %d",
				i, len(fm.Actions), cap(fm.Actions), fm.Match, fm.BufferID)
		}
		fm.Actions = append(fm.Actions, &ActionOutput{Port: 3})
		fm.Actions = acts
		fm.BufferID = uint32(i + 1)
		Release(fm)
		if fm.Actions != nil || fm.BufferID != 0 {
			t.Fatalf("round %d: a released flow-mod still reads %d actions, buffer %d", i, len(fm.Actions), fm.BufferID)
		}
	}
	if out, ok := acts[0].(*ActionOutput); !ok || out.Port != 1 || len(acts) != 2 || acts[1] == nil {
		t.Errorf("the action list changed under its entry: %v", acts)
	}
}

// A packet-in from the pool carries its own copy of its data, and Release
// zeroes the copy; a message no constructor made is never pooled, so
// Release leaves it, and the bytes it points at, as they were.
func TestReleaseZeroesOnlyPooledMessages(t *testing.T) {
	frame := []byte{1, 2, 3, 4}
	pi := NewPacketIn(PacketIn{InPort: 5, Data: frame})
	frame[0] = 9
	data := pi.Data
	if data[0] != 1 {
		t.Fatal("a pooled packet-in's data aliases the caller's frame")
	}
	Release(pi)
	if pi.InPort != 0 || pi.Data != nil || data[0] != 0 || data[3] != 0 {
		t.Errorf("a released packet-in reads in_port %d, data %v, its old bytes %v", pi.InPort, pi.Data, data)
	}
	lit := &PacketIn{InPort: 5, Data: frame}
	Release(lit)
	Release(lit)
	if lit.InPort != 5 || frame[0] != 9 {
		t.Errorf("Release touched a literal packet-in: in_port %d, data %v", lit.InPort, frame)
	}
}
