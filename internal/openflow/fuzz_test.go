package openflow

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
)

// unsupportedActions is one action of each type code OpenFlow 1.0 defines
// and this package reads as an ActionUnsupported — the VLAN, network- and
// transport-layer rewrites, 1, 2, 3 and 6 to 10 — each with an 8-byte wire
// form as the specification gives it, and a 16-byte vendor action.
func unsupportedActions() []Action {
	var as []Action
	for _, typ := range []uint16{1, 2, 3, 6, 7, 8, 9, 10} {
		as = append(as, &ActionUnsupported{Type: typ, Body: []byte{byte(typ), 0x10, 0, 0}})
	}
	return append(as, &ActionUnsupported{Type: ActTypeVendor, Body: []byte{0, 0, 0x23, 0x20, 1, 2, 3, 4, 5, 6, 7, 8}})
}

// fuzzSeedMessages is one message of every type the codec knows, with the
// stats requests of every kind and the stats replies with none, one and
// many entries, and a flow-mod and a packet-out carrying each action of
// unsupportedActions.
func fuzzSeedMessages(tb testing.TB) []Message {
	var d packet.Decoded
	frame := packet.AppendTCPFrame(nil, packet.MustMAC("02:aa:00:00:00:01"), packet.MustMAC("02:01:00:00:00:01"),
		packet.MustIP4("192.168.1.10"), packet.MustIP4("203.0.113.10"), 49152, 80, packet.TCPAck, 1, 0, []byte("GET /"))
	if err := d.Decode(frame); err != nil {
		tb.Fatal(err)
	}
	exact := MatchFromFrame(&d, 3)
	actions := []Action{
		&ActionOutput{Port: 7, MaxLen: 128},
		&ActionSetDLSrc{Addr: packet.MustMAC("02:00:00:00:00:01")},
		&ActionSetDLDst{Addr: packet.MustMAC("02:00:00:00:00:02")},
		&ActionEnqueue{Port: 1, QueueID: 9},
	}
	flows := func(n int) []FlowStats {
		var out []FlowStats
		for i := 0; i < n; i++ {
			m := exact
			m.TPSrc += uint16(i)
			out = append(out, FlowStats{Match: m, DurationSec: uint32(i), Priority: 10, IdleTimeout: 30,
				Cookie: uint64(i), PacketCount: uint64(10 * i), ByteCount: uint64(1500 * i), Actions: actions[i%len(actions):]})
		}
		return out
	}
	ports := func(n int) []PortStats {
		var out []PortStats
		for i := 0; i < n; i++ {
			out = append(out, PortStats{PortNo: uint16(i + 1), RxPackets: uint64(i), TxBytes: 999, RxDropped: uint64(i % 3), Collisions: 1})
		}
		return out
	}
	tables := func(n int) []TableStats {
		var out []TableStats
		for i := 0; i < n; i++ {
			out = append(out, TableStats{TableID: uint8(i), Name: "classifier", Wildcards: FWAll, MaxEntries: 1 << 20, ActiveCount: 17, LookupCount: 1000, MatchedCount: 900})
		}
		return out
	}
	phy := []PhyPort{
		{PortNo: 1, HWAddr: packet.MustMAC("02:00:00:00:00:01"), Name: "wlan0"},
		{PortNo: 2, HWAddr: packet.MustMAC("02:00:00:00:00:02"), Name: "eth0-upstream", State: PortStateLinkDown},
	}
	msgs := []Message{
		&Hello{},
		&ErrorMsg{ErrType: ErrTypeFlowModFailed, Code: FlowModOverlap, Data: frame[:40]},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&Vendor{VendorID: 0x2320, Data: []byte{1, 2, 3}},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 0x00163e000001, NBuffers: 256, NTables: 1, Capabilities: CapFlowStats | CapPortStats, Actions: 0x831, Ports: phy},
		&GetConfigRequest{},
		&GetConfigReply{Flags: ConfigFragNormal, MissSendLen: 128},
		&SetConfig{Flags: ConfigFragDrop, MissSendLen: 0xffff},
		&PacketIn{BufferID: 7, TotalLen: uint16(len(frame)), InPort: 3, Reason: PacketInReasonNoMatch, Data: frame},
		&FlowRemoved{Match: exact, Cookie: 7, Priority: 10, Reason: FlowRemovedIdleTimeout, DurationSec: 12, DurationNsec: 500, IdleTimeout: 30, PacketCount: 99, ByteCount: 12345},
		&PortStatus{Reason: PortStatusAdd, Desc: phy[0]},
		&PacketOut{BufferID: NoBuffer, InPort: PortNone, Actions: actions, Data: frame},
		&FlowMod{Match: exact, Cookie: 0xfeed, Command: FlowModAdd, IdleTimeout: 30, Priority: 10, BufferID: 7, OutPort: PortNone, Flags: FlowModFlagSendFlowRem, Actions: actions[1:]},
		&BarrierRequest{},
		&BarrierReply{},
		&StatsRequest{StatsType: StatsDesc},
		&StatsRequest{StatsType: StatsFlow, Flow: FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}},
		&StatsRequest{StatsType: StatsAggregate, Flow: FlowStatsRequest{Match: exact, TableID: 0, OutPort: 2}},
		&StatsRequest{StatsType: StatsTable},
		&StatsRequest{StatsType: StatsPort, Port: PortStatsRequest{PortNo: PortNone}},
		&StatsReply{StatsType: StatsDesc, Desc: DescStats{MfrDesc: "Homework Project", HWDesc: "software datapath", SWDesc: "repro", SerialNum: "1", DPDesc: "home router"}},
		&StatsReply{StatsType: StatsAggregate, Aggregate: AggregateStats{PacketCount: 1, ByteCount: 2, FlowCount: 3}},
	}
	for _, u := range unsupportedActions() {
		as := []Action{u, &ActionOutput{Port: 2}}
		msgs = append(msgs,
			&FlowMod{Match: exact, Command: FlowModAdd, Priority: 10, BufferID: NoBuffer, OutPort: PortNone, Actions: as},
			&PacketOut{BufferID: NoBuffer, InPort: 1, Actions: as, Data: frame},
		)
	}
	for _, n := range []int{0, 1, 5} {
		msgs = append(msgs,
			&StatsReply{StatsType: StatsFlow, Flows: flows(n)},
			&StatsReply{StatsType: StatsTable, Tables: tables(n)},
			&StatsReply{StatsType: StatsPort, Ports: ports(n)},
		)
	}
	return msgs
}

// fuzzSeedFrames are FuzzReadMessage's seeds: each of fuzzSeedMessages
// whole, cut short of its header length, and with its last body byte gone
// and the header saying so; and names that fill their field with no NUL to
// end them.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	var frames [][]byte
	for _, m := range fuzzSeedMessages(tb) {
		raw := Encode(m)
		frames = append(frames, raw)
		for _, cut := range []int{HeaderLen - 1, HeaderLen, HeaderLen + 1, len(raw) / 2, len(raw) - 1} {
			if cut >= 0 && cut < len(raw) {
				frames = append(frames, raw[:cut])
			}
		}
		if len(raw) > HeaderLen {
			short := append([]byte(nil), raw[:len(raw)-1]...)
			binary.BigEndian.PutUint16(short[2:4], uint16(len(short)))
			frames = append(frames, short)
		}
	}
	// A port name, a table name and a description filled to their last
	// byte.
	for _, seed := range []struct {
		msg Message
		at  int
	}{
		{&FeaturesReply{Ports: []PhyPort{{Name: strings.Repeat("p", 15)}}}, HeaderLen + 24 + 8 + 15},
		{&StatsReply{StatsType: StatsTable, Tables: []TableStats{{Name: strings.Repeat("t", 31)}}}, HeaderLen + 4 + 4 + 31},
		{&StatsReply{StatsType: StatsDesc, Desc: DescStats{MfrDesc: strings.Repeat("m", 255)}}, HeaderLen + 4 + 255},
	} {
		raw := Encode(seed.msg)
		raw[seed.at] = 'x'
		frames = append(frames, raw)
	}
	return frames
}

// FuzzReadMessage: ReadMessage reads what a controller or switch on the
// other end of a TCP channel sends, so on any bytes it returns a message or
// an error and never panics. It reads exactly the frame its header
// announces, and nothing past it. A message it returns round-trips: encoded
// and read back it is the same message, and encoding that gives the same
// bytes; an action of a flow-mod or a packet-out read as an
// ActionUnsupported encodes to the very bytes it was read from. And it
// agrees with the reference decoders in codec_model_test.go: it accepts
// what they accept, reads the same message, and rejects the rest with the
// same sentinel. Seeds: fuzzSeedFrames.
func FuzzReadMessage(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadMessage(t, data)
		r := bytes.NewReader(data)
		msg, err := ReadMessage(r)
		if err != nil {
			if msg != nil {
				t.Fatalf("ReadMessage returned %T with error %v", msg, err)
			}
			return
		}
		n := int(binary.BigEndian.Uint16(data[2:4]))
		if read := len(data) - r.Len(); read != n {
			t.Fatalf("read %d bytes of a %d-byte %s", read, n, msg.Hdr().Type)
		}
		actions, wire := actionList(msg, data[:n])
		for _, a := range actions {
			alen := int(binary.BigEndian.Uint16(wire[2:4]))
			if u, ok := a.(*ActionUnsupported); ok {
				if got := encodeActions(nil, []Action{u}); !bytes.Equal(got, wire[:alen]) {
					t.Fatalf("action type %d was read from % x and encodes to % x", u.Type, wire[:alen], got)
				}
			}
			wire = wire[alen:]
		}
		raw := Encode(msg)
		again, err := ReadMessage(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s re-encoded to % x, which reads as %v", msg.Hdr().Type, raw, err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("%s round-trips to %+v, was %+v", msg.Hdr().Type, again, msg)
		}
		if reraw := Encode(again); !bytes.Equal(reraw, raw) {
			t.Fatalf("%s encodes to % x, then to % x", msg.Hdr().Type, raw, reraw)
		}
	})
}

// actionList returns the action list of a flow-mod or a packet-out and the
// bytes it was read from in raw, the message's wire form; nothing for any
// other message.
func actionList(msg Message, raw []byte) ([]Action, []byte) {
	switch m := msg.(type) {
	case *FlowMod:
		return m.Actions, raw[HeaderLen+MatchLen+24:]
	case *PacketOut:
		n := int(binary.BigEndian.Uint16(raw[HeaderLen+6:]))
		return m.Actions, raw[HeaderLen+8 : HeaderLen+8+n]
	}
	return nil, nil
}
