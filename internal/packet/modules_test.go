package packet_test

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/dhcp"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/nox/noxtest"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// The frames the DHCP server and the host stack build are byte-identical
// to the layered model's: a host's DISCOVER, REQUEST, RELEASE and ARP
// request, and the server's OFFER and ACK, each taken off the wire of one
// lease exchange and rebuilt by the model from the message it carries and
// the addresses it must go between.
func TestModuleFramesMatchModel(t *testing.T) {
	var (
		serverMAC = packet.MustMAC("02:01:00:00:00:01")
		serverIP  = packet.MustIP4("192.168.1.1")
		hostMAC   = packet.MustMAC("02:aa:00:00:00:07")
		bcastIP   = packet.IP4{255, 255, 255, 255}
	)
	clk := clock.NewSimulated()
	srv := dhcp.NewServer(dhcp.Config{
		ServerIP: serverIP, ServerMAC: serverMAC,
		PoolStart: packet.MustIP4("192.168.1.10"), PoolEnd: packet.MustIP4("192.168.1.20"),
		HostRoutes: true, AutoPermit: true, Clock: clk, DB: hwdb.NewHomework(clk, 64),
	})
	ctl := nox.NewController()
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.Register(srv); err != nil {
		t.Fatal(err)
	}
	rig := noxtest.Attach(t, ctl)

	// The host's sends leave by a rule to one recording port.
	dp := datapath.New(datapath.Config{ID: 1, Clock: clk})
	host, err := netsim.New(dp, nil).AddHost("laptop", hostMAC, false, netsim.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	if err := dp.AddPort(&datapath.Port{No: 100, Out: func(f []byte) { sent = append(sent, bytes.Clone(f)) }}); err != nil {
		t.Fatal(err)
	}
	if err := dp.Table().Add(&datapath.FlowEntry{Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 100}}}, false); err != nil {
		t.Fatal(err)
	}
	hostSent := func(step string) []byte {
		t.Helper()
		if len(sent) != 1 {
			t.Fatalf("%s: the host sent %d frames, want 1", step, len(sent))
		}
		f := sent[0]
		sent = sent[:0]
		return f
	}
	serverSent := func(step string, frame []byte) []byte {
		t.Helper()
		msgs, _ := rig.PacketIn(frame, 3)
		for _, m := range msgs {
			if po, ok := m.(*openflow.PacketOut); ok && len(po.Data) > 0 {
				return po.Data
			}
		}
		t.Fatalf("%s: the server sent no frame", step)
		return nil
	}
	dhcpIn := func(step string, frame []byte) packet.DHCP {
		t.Helper()
		var d packet.Decoded
		var msg packet.DHCP
		if err := d.Decode(frame); err != nil || !d.HasUDP || msg.DecodeFromBytes(d.UDP.Payload) != nil {
			t.Fatalf("%s: % x is no DHCP frame", step, frame)
		}
		return msg
	}
	// sameAsModel rebuilds a DHCP frame with the model from the message it
	// carries and the addresses and ports given, and returns the message.
	sameAsModel := func(step string, frame []byte, srcMAC, dstMAC packet.MAC, srcIP, dstIP packet.IP4, srcPort, dstPort uint16) packet.DHCP {
		t.Helper()
		msg := dhcpIn(step, frame)
		if want := packet.NewDHCPFrame(&msg, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort).Bytes(); !bytes.Equal(frame, want) {
			t.Fatalf("%s differs from the model:\n got % x\nwant % x", step, frame, want)
		}
		return msg
	}

	host.StartDHCP()
	discover := hostSent("DISCOVER")
	sameAsModel("DISCOVER", discover, hostMAC, packet.Broadcast, packet.IP4{}, bcastIP, packet.DHCPClientPort, packet.DHCPServerPort)
	offer := serverSent("OFFER", discover)
	lease := dhcpIn("OFFER", offer).YIAddr // the server sends to the address it offers
	if msg := sameAsModel("OFFER", offer, serverMAC, hostMAC, serverIP, lease, packet.DHCPServerPort, packet.DHCPClientPort); msg.MsgType() != packet.DHCPOffer || lease.IsZero() {
		t.Fatalf("the DISCOVER drew a %s of %s", msg.MsgType(), lease)
	}
	host.Deliver(offer)
	request := hostSent("REQUEST")
	sameAsModel("REQUEST", request, hostMAC, packet.Broadcast, packet.IP4{}, bcastIP, packet.DHCPClientPort, packet.DHCPServerPort)
	ack := serverSent("ACK", request)
	if msg := sameAsModel("ACK", ack, serverMAC, hostMAC, serverIP, lease, packet.DHCPServerPort, packet.DHCPClientPort); msg.MsgType() != packet.DHCPAck || msg.YIAddr != lease {
		t.Fatalf("the REQUEST drew a %s of %s", msg.MsgType(), msg.YIAddr)
	}
	host.Deliver(ack)
	if host.IP() != lease {
		t.Fatalf("host holds %s after an ACK of %s", host.IP(), lease)
	}

	// Under the /32 lease the resolver is reached through the gateway,
	// whose address the host must first ask for.
	host.Resolve("www.example.com", func(packet.IP4, bool) {})
	if got, want := hostSent("ARP request"), packet.NewARPRequest(hostMAC, lease, serverIP).Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("ARP request differs from the model:\n got % x\nwant % x", got, want)
	}

	host.Release()
	sameAsModel("RELEASE", hostSent("RELEASE"), hostMAC, packet.Broadcast, lease, serverIP, packet.DHCPClientPort, packet.DHCPServerPort)
}
