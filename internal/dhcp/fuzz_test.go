package dhcp

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/nox"
	"repro/internal/nox/noxtest"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// maxUDPPayload is the largest payload a 1500-byte Ethernet frame carries
// over IPv4 and UDP; the fuzz targets cut longer inputs to it.
const maxUDPPayload = 1500 - 20 - 8

var (
	fuzzClient    = packet.MustMAC("02:aa:00:00:00:61")
	fuzzBroadcast = packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
)

// dhcpSeeds are the in-tree corpus: each message the server acts on, as a
// client sends it, and the same bytes cut short and bent where the decoder
// reads a length.
func dhcpSeeds() [][]byte {
	msg := func(typ packet.DHCPMsgType, opts ...packet.DHCPOption) []byte {
		m := &packet.DHCP{Op: packet.DHCPBootRequest, XID: 0x1234, Flags: 0x8000, CHAddr: fuzzClient}
		m.AddMsgType(typ)
		m.Options = append(m.Options, opts...)
		return m.Serialize(nil)
	}
	host := packet.DHCPOption{Code: packet.DHCPOptHostname, Data: []byte("laptop")}
	want := packet.DHCPOption{Code: packet.DHCPOptRequestedIP, Data: []byte{192, 168, 1, 10}}
	discover := msg(packet.DHCPDiscover, host)
	seeds := [][]byte{
		discover,
		msg(packet.DHCPRequest, host, want, packet.DHCPOption{Code: packet.DHCPOptServerID, Data: []byte{192, 168, 1, 1}}),
		msg(packet.DHCPRequest, packet.DHCPOption{Code: packet.DHCPOptRequestedIP, Data: []byte{10, 9, 9, 9}}),
		msg(packet.DHCPRelease),
		msg(packet.DHCPInform),
		msg(packet.DHCPDecline, want),
		nil,
		discover[:239], // one byte short of the fixed header and cookie
		discover[:241], // an option code and nothing more
		discover[:245], // a message-type option cut in its data
	}
	bent := append([]byte(nil), discover...)
	bent[241] = 0xff // the first option claims 255 bytes
	seeds = append(seeds, bent)
	bent = append([]byte(nil), discover...)
	bent[1] = 7 // not Ethernet
	return append(seeds, bent)
}

// serverRig registers a fresh server, auto-permitting, on a controller
// with a scripted datapath attached.
func serverRig(t *testing.T) *noxtest.Datapath {
	t.Helper()
	s, _, _ := testServer(true)
	ctl := nox.NewController()
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.Register(s); err != nil {
		t.Fatal(err)
	}
	return noxtest.Attach(t, ctl)
}

// clientFrame is a client's broadcast to the server port carrying payload.
func clientFrame(payload []byte) []byte {
	return packet.AppendUDPFrame(nil, fuzzClient, fuzzBroadcast, packet.IP4{}, packet.IP4{255, 255, 255, 255},
		packet.DHCPClientPort, packet.DHCPServerPort, payload)
}

// The fuzz target's rig reaches the server: the DISCOVER seed is answered
// with an OFFER in a packet-out of its own, and its buffer by the read
// loop's discard. The REQUEST seed that follows draws an ACK whose lease
// (option 51) is the server's lease constant.
func TestDiscoverThroughScriptedDatapath(t *testing.T) {
	rig := serverRig(t)
	replies := func(seed []byte, typ packet.DHCPMsgType) (got []packet.DHCP, answers int) {
		sent, answers := rig.PacketIn(clientFrame(seed), 3)
		for _, msg := range sent {
			po, ok := msg.(*openflow.PacketOut)
			if !ok || len(po.Data) == 0 {
				continue
			}
			var d packet.Decoded
			var m packet.DHCP
			if d.Decode(po.Data) == nil && d.HasUDP && m.DecodeFromBytes(d.UDP.Payload) == nil && m.MsgType() == typ {
				got = append(got, m)
			}
		}
		return got, answers
	}
	offers, answers := replies(dhcpSeeds()[0], packet.DHCPOffer)
	if len(offers) != 1 || answers != 1 {
		t.Errorf("a DISCOVER drew %d offers and %d answers to its buffer, want 1 and 1", len(offers), answers)
	}
	acks, _ := replies(dhcpSeeds()[1], packet.DHCPAck)
	if len(acks) != 1 {
		t.Fatalf("a REQUEST drew %d acks, want 1", len(acks))
	}
	if v, ok := acks[0].Option(packet.DHCPOptLeaseTime); !ok || len(v) != 4 ||
		time.Duration(binary.BigEndian.Uint32(v))*time.Second != leaseTime {
		t.Errorf("ACK lease option = %x (present %v), want %v", v, ok, leaseTime)
	}
}

// FuzzDHCPPacketIn delivers arbitrary UDP payloads to port 67 as buffered
// packet-ins to a DHCP server that is registered on a NOX controller, as
// the datapath's DHCP punt rule does. Whatever the bytes, the server must
// not panic, and each packet-in must be answered exactly once: by the
// server, or by the read loop's discard when the server sent nothing that
// references the buffer. Each input is delivered twice, so that a second
// message finds whatever device and lease the first one made.
//
//	go test -run '^$' -fuzz FuzzDHCPPacketIn -fuzztime 30s ./internal/dhcp
func FuzzDHCPPacketIn(f *testing.F) {
	for _, seed := range dhcpSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxUDPPayload {
			payload = payload[:maxUDPPayload]
		}
		dp, frame := serverRig(t), clientFrame(payload)
		for i := 0; i < 2; i++ {
			if _, answers := dp.PacketIn(frame, 3); answers != 1 {
				t.Fatalf("delivery %d of a %d-byte payload was answered %d times, want once", i, len(payload), answers)
			}
		}
	})
}
