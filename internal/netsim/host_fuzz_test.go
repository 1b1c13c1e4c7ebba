package netsim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// The fuzz host's addresses are FuzzDecode's destination (package packet),
// so that corpus's frames are addressed to it.
var (
	fuzzHostMAC = packet.MAC{2, 0, 0, 0, 0, 2}
	fuzzHostIP  = packet.IP4{93, 184, 216, 34}
	fuzzPeerMAC = packet.MAC{2, 0, 0, 0, 0, 1}
	fuzzPeerIP  = packet.IP4{192, 168, 1, 10}
	fuzzGWMAC   = packet.MAC{2, 0xee, 0, 0, 0, 1}
	fuzzGWIP    = packet.IP4{93, 184, 216, 1}
	fuzzDNSIP   = packet.IP4{8, 8, 8, 8}
)

const fuzzXID = 7

// refDeliver is Host.Deliver without the classifier: every frame is decoded
// in full, then dispatched. The apps' deliver hook it used to walk for TCP,
// UDP and ICMP frames did nothing and is gone.
func refDeliver(h *Host, frame []byte) {
	if onFrame := h.onFrame.Load(); onFrame != nil {
		(*onFrame)(frame)
	}
	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		return
	}
	if !d.Eth.Dst.IsBroadcast() && !d.Eth.Dst.IsMulticast() && d.Eth.Dst != h.MAC {
		return
	}
	switch {
	case d.HasARP:
		h.handleARP(&d)
	case d.HasUDP && d.UDP.DstPort == packet.DHCPClientPort:
		h.handleDHCP(&d)
	case d.HasUDP && d.UDP.SrcPort == packet.DNSPort:
		h.handleDNS(&d)
	}
}

// fuzzHost is a host alone on a network, in a state that every handler
// acts on: it holds an address, ARP entries and a frame queued on an
// unresolved peer, is in DHCP state st with a transaction open, and waits
// on two DNS answers. Everything it sends leaves by a rule to one
// recording port; everything it observes, and every DNS answer, is logged.
type fuzzHost struct {
	h        *Host
	sent     [][]byte
	observed [][]byte
	answers  []string
}

func newFuzzHost(t *testing.T, st dhcpState) *fuzzHost {
	dp := datapath.New(datapath.Config{ID: 1, Clock: clock.NewSimulated()})
	n := New(dp, nil)
	h, err := n.AddHost("fuzz", fuzzHostMAC, false, Pos{})
	if err != nil {
		t.Fatal(err)
	}
	fh := &fuzzHost{h: h}
	if err := dp.AddPort(&datapath.Port{No: 100, Out: func(f []byte) {
		fh.sent = append(fh.sent, bytes.Clone(f))
	}}); err != nil {
		t.Fatal(err)
	}
	toRecorder := []openflow.Action{&openflow.ActionOutput{Port: 100}}
	if err := dp.Table().Add(&datapath.FlowEntry{Match: openflow.MatchAll(), Priority: 1, Actions: toRecorder}, false); err != nil {
		t.Fatal(err)
	}
	h.SetOnFrame(func(f []byte) { fh.observed = append(fh.observed, bytes.Clone(f)) })
	h.ip, h.mask, h.gw, h.dns = fuzzHostIP, 24, fuzzGWIP, fuzzDNSIP
	h.state, h.xid = st, fuzzXID
	h.arp[fuzzGWIP] = fuzzGWMAC
	h.arpWait[fuzzPeerIP] = [][]byte{packet.AppendUDPFrame(nil, fuzzHostMAC, packet.MAC{}, fuzzHostIP, fuzzPeerIP, 5000, 6000, []byte("queued"))}
	for id, name := range map[uint16]string{9: "www.example.com", 77: "bbc.co.uk"} {
		h.dnsWait[id] = dnsQuery{name: name, cb: func(ip packet.IP4, ok bool) {
			fh.answers = append(fh.answers, fmt.Sprintf("%s=%s/%v", name, ip, ok))
		}}
	}
	return fh
}

// state renders what a delivery can change, maps in key order.
func (fh *fuzzHost) state() string {
	h := fh.h
	h.mu.Lock()
	defer h.mu.Unlock()
	var waiting []uint16
	for id := range h.dnsWait {
		waiting = append(waiting, id)
	}
	slices.Sort(waiting)
	return fmt.Sprintf("arp %v\narpWait %x\ndhcp %d xid %d ip %s/%d gw %s dns %s\nresolved %v\ndnsWait %v\nanswers %v\nobserved %x\nsent %x",
		h.arp, h.arpWait, h.state, h.xid, h.ip, h.mask, h.gw, h.dns,
		h.resolved, waiting, fh.answers, fh.observed, fh.sent)
}

// fuzzHostSeeds is FuzzDecode's corpus — one frame of every kind the tree
// builds, whole and cut at every header boundary — and the frames the host
// stack acts on: an ARP request for the host and a reply that resolves its
// queued frame, a DHCP offer and ack of its transaction, a DNS answer it
// waits on, TCP, ICMP, a VLAN-tagged frame and a truncated IPv4 frame.
func fuzzHostSeeds(tb testing.TB) [][]byte {
	arpReq := packet.AppendARPRequest(nil, fuzzPeerMAC, fuzzPeerIP, fuzzHostIP)
	var req packet.ARP
	if err := req.DecodeFromBytes(arpReq[packet.EthernetHeaderLen:]); err != nil {
		tb.Fatal(err)
	}
	discover := &packet.DHCP{Op: packet.DHCPBootRequest, XID: fuzzXID, Flags: 0x8000, CHAddr: fuzzPeerMAC}
	discover.AddMsgType(packet.DHCPDiscover)
	discover.AddOption(packet.DHCPOptHostname, []byte("laptop"))
	query, err := packet.NewDNSQuery(9, "www.example.com", packet.DNSTypeA).Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	tagged := packet.Ethernet{Dst: fuzzHostMAC, Src: fuzzPeerMAC, Type: packet.EtherTypeARP, Tagged: true, VLANID: 12, VLANPriority: 3, Payload: arpReq[packet.EthernetHeaderLen:]}
	corpus := [][]byte{
		arpReq,
		packet.AppendARPReply(nil, fuzzHostMAC, fuzzHostIP, &req),
		tagged.Bytes(),
		packet.AppendUDPFrame(nil, fuzzPeerMAC, packet.Broadcast, packet.IP4{}, packet.IP4{255, 255, 255, 255}, packet.DHCPClientPort, packet.DHCPServerPort, discover.Serialize(nil)),
		packet.AppendUDPFrame(nil, fuzzPeerMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 5353, packet.DNSPort, query),
		packet.AppendTCPFrame(nil, fuzzPeerMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 40000, 443, packet.TCPSyn, 0, 0, nil),
		packet.AppendTCPFrame(nil, fuzzPeerMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 40000, 443, packet.TCPAck|packet.TCPPsh, 1, 1, make([]byte, 1400)),
		packet.AppendUDPFrame(nil, fuzzPeerMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 5060, 5060, make([]byte, 160)),
		packet.AppendICMPEchoFrame(nil, fuzzPeerMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, packet.ICMPEchoRequest, 1, 2, []byte("ping")),
	}
	var seeds [][]byte
	for _, frame := range corpus {
		seeds = append(seeds, frame)
		for _, cut := range []int{
			0, packet.EthernetHeaderLen - 1, packet.EthernetHeaderLen, packet.EthernetHeaderLen + 4,
			packet.EthernetHeaderLen + packet.ARPLen - 1, packet.EthernetHeaderLen + packet.IPv4HeaderLen - 1, packet.EthernetHeaderLen + packet.IPv4HeaderLen,
			packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen - 1, packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen,
			packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen - 1, packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen,
		} {
			if cut < len(frame) {
				seeds = append(seeds, frame[:cut])
			}
		}
	}

	peerReq := packet.ARP{Op: packet.ARPRequest, SenderHW: fuzzHostMAC, SenderIP: fuzzHostIP, TargetIP: fuzzPeerIP}
	dhcpReply := func(t packet.DHCPMsgType) []byte {
		m := &packet.DHCP{Op: packet.DHCPBootReply, XID: fuzzXID, YIAddr: fuzzHostIP, CHAddr: fuzzHostMAC}
		m.AddMsgType(t)
		m.AddIPOption(packet.DHCPOptServerID, fuzzGWIP)
		m.AddIPOption(packet.DHCPOptSubnetMask, packet.IP4{255, 255, 255, 255})
		m.AddIPOption(packet.DHCPOptRouter, fuzzGWIP)
		m.AddIPOption(packet.DHCPOptDNSServer, fuzzGWIP)
		return packet.AppendUDPFrame(nil, fuzzGWMAC, fuzzHostMAC, fuzzGWIP, fuzzHostIP, packet.DHCPServerPort, packet.DHCPClientPort, m.Serialize(nil))
	}
	answer := packet.NewDNSQuery(77, "bbc.co.uk", packet.DNSTypeA)
	answer.Response = true
	answer.AnswerA(packet.IP4{151, 101, 0, 81}, 300)
	ans, err := answer.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	taggedTCP := packet.Ethernet{Dst: fuzzHostMAC, Src: fuzzGWMAC, Type: packet.EtherTypeIPv4, Tagged: true, VLANID: 7,
		Payload: packet.AppendTCPFrame(nil, fuzzGWMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 443, 40000, packet.TCPAck, 1, 1, []byte("data"))[packet.EthernetHeaderLen:]}
	tcp := packet.AppendTCPFrame(nil, fuzzGWMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, 443, 40000, packet.TCPAck|packet.TCPPsh, 1, 1, make([]byte, 1400))
	return append(seeds,
		packet.AppendARPRequest(nil, fuzzGWMAC, fuzzGWIP, fuzzHostIP),
		packet.AppendARPReply(nil, fuzzPeerMAC, fuzzPeerIP, &peerReq),
		dhcpReply(packet.DHCPOffer),
		dhcpReply(packet.DHCPAck),
		packet.AppendUDPFrame(nil, fuzzGWMAC, fuzzHostMAC, fuzzDNSIP, fuzzHostIP, packet.DNSPort, 5353, ans),
		tcp,
		packet.AppendICMPEchoFrame(nil, fuzzGWMAC, fuzzHostMAC, fuzzPeerIP, fuzzHostIP, packet.ICMPEchoReply, 3, 4, []byte("pong")),
		taggedTCP.Bytes(),
		tcp[:packet.EthernetHeaderLen+12],
	)
}

// FuzzHostDeliver: for any frame, and in any DHCP state, Host.Deliver —
// which decodes in full only what the stack can act on — leaves the host
// exactly as the always-decoding refDeliver does: the same ARP table and
// queue, DHCP state and lease, DNS answers and waiters, the same frames
// observed and the same frames sent in reply.
// Neither writes the frame.
func FuzzHostDeliver(f *testing.F) {
	for _, frame := range fuzzHostSeeds(f) {
		for st := dhcpInit; st <= dhcpDenied; st++ {
			f.Add(frame, uint8(st))
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte, st uint8) {
		state := dhcpState(st % uint8(dhcpDenied+1))
		got, want := newFuzzHost(t, state), newFuzzHost(t, state)
		orig := bytes.Clone(frame)
		got.h.Deliver(frame)
		if !bytes.Equal(frame, orig) {
			t.Fatal("Deliver wrote the frame it was handed")
		}
		refDeliver(want.h, frame)
		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("Deliver of % x in DHCP state %d left\n%s\nwant\n%s", frame, state, g, w)
		}
	})
}
