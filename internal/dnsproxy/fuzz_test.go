package dnsproxy

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/nox"
	"repro/internal/nox/noxtest"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
)

// maxUDPPayload is the largest payload a 1500-byte Ethernet frame carries
// over IPv4 and UDP; the fuzz target cuts longer inputs to it.
const maxUDPPayload = 1500 - 20 - 8

// The ports the fuzz rig's device and uplink sit on.
const (
	devicePort   = 3
	upstreamPort = 2
)

var (
	deviceIP   = packet.MustIP4("192.168.1.10")
	resolverIP = packet.MustIP4("8.8.8.8")
)

// fuzzProxy is a proxy registered on a controller with a scripted
// datapath, its device restricted to facebook.com, and one query already
// forwarded upstream under the proxy's first id, so that a response
// carrying that id reaches the relay path.
func fuzzProxy(t *testing.T) (*Proxy, *noxtest.Datapath) {
	t.Helper()
	clk := clock.NewSimulated()
	eng := policy.NewEngine(clk)
	if err := eng.Install(&policy.Policy{Name: "kids", Devices: []string{devMAC.String()},
		AllowedSites: []string{"facebook.com"}}); err != nil {
		t.Fatal(err)
	}
	p := testProxy(eng, clk)
	p.cfg.UpstreamPort = upstreamPort
	ctl := nox.NewController()
	t.Cleanup(func() { ctl.Close() })
	if err := ctl.Register(p); err != nil {
		t.Fatal(err)
	}
	dp := noxtest.Attach(t, ctl)
	query, _ := packet.NewDNSQuery(0x4242, "www.facebook.com", packet.DNSTypeA).Bytes()
	if _, answers := dp.PacketIn(queryFrame(query), devicePort); answers != 1 {
		t.Fatalf("the forwarded query was answered %d times, want once", answers)
	}
	return p, dp
}

// queryFrame is a device's DNS query to the router.
func queryFrame(payload []byte) []byte {
	return packet.AppendUDPFrame(nil, devMAC, packet.MustMAC("02:01:00:00:00:01"), deviceIP,
		packet.MustIP4("192.168.1.1"), 40000, packet.DNSPort, payload)
}

// responseFrame is the upstream resolver's answer to the proxy.
func responseFrame(payload []byte) []byte {
	return packet.AppendUDPFrame(nil, packet.MustMAC("02:ee:00:00:00:01"), packet.MustMAC("02:01:00:00:00:01"),
		resolverIP, packet.MustIP4("192.168.1.1"), packet.DNSPort, proxyPort, payload)
}

// dnsSeeds are the in-tree corpus: queries the proxy forwards and refuses,
// the answers to the rig's forwarded query and to a reverse lookup, and the
// same bytes cut short or pointing where the decoder follows a name.
func dnsSeeds() (queries, responses [][]byte) {
	must := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	allowed := must(packet.NewDNSQuery(7, "www.facebook.com", packet.DNSTypeA).Bytes())
	denied := must(packet.NewDNSQuery(8, "youtube.com", packet.DNSTypeA).Bytes())
	answer := packet.NewDNSQuery(1, "www.facebook.com", packet.DNSTypeA)
	answer.Response, answer.RA = true, true
	answer.AnswerA(packet.MustIP4("157.240.1.35"), 300)
	answered := must(answer.Bytes())
	ptr := packet.NewDNSQuery(1, packet.ReverseName(packet.MustIP4("157.240.1.35")), packet.DNSTypePTR)
	ptr.Response = true
	ptr.Answers = []packet.DNSRR{{Name: ptr.Questions[0].Name, Type: packet.DNSTypePTR, Class: packet.DNSClassIN,
		TTL: 60, Target: "edge.facebook.com"}}
	reverse := must(ptr.Bytes())
	loop := append([]byte(nil), answered...)
	loop[packet.DNSHeaderLen], loop[packet.DNSHeaderLen+1] = 0xc0, packet.DNSHeaderLen // a name that points at itself
	queries = [][]byte{allowed, denied, allowed[:packet.DNSHeaderLen], allowed[:len(allowed)-1], nil}
	responses = [][]byte{answered, reverse, answered[:len(answered)-3], loop, denied}
	return queries, responses
}

// FuzzDNSPacketIn delivers arbitrary UDP payloads as buffered packet-ins to
// a DNS proxy registered on a NOX controller, as the datapath's two DNS
// punt rules do: to port 53 from a device, or from port 53 of the upstream
// resolver. Whatever the bytes, the proxy must not panic, and the packet-in
// must be answered exactly once: by the proxy, or by the read loop's
// discard when it sent nothing that references the buffer.
//
//	go test -run '^$' -fuzz FuzzDNSPacketIn -fuzztime 30s ./internal/dnsproxy
func FuzzDNSPacketIn(f *testing.F) {
	queries, responses := dnsSeeds()
	for _, q := range queries {
		f.Add(q, false)
	}
	for _, r := range responses {
		f.Add(r, true)
	}
	f.Fuzz(func(t *testing.T, payload []byte, fromUpstream bool) {
		if len(payload) > maxUDPPayload {
			payload = payload[:maxUDPPayload]
		}
		_, dp := fuzzProxy(t)
		frame, port := queryFrame(payload), uint16(devicePort)
		if fromUpstream {
			frame, port = responseFrame(payload), upstreamPort
		}
		if _, answers := dp.PacketIn(frame, port); answers != 1 {
			t.Fatalf("a %d-byte payload (from upstream: %v) was answered %d times, want once", len(payload), fromUpstream, answers)
		}
	})
}

// The fuzz target's rig reaches the proxy both ways: the answer to the
// forwarded query is relayed to the device, and a query for a site the
// device may not reach is refused, each in a packet-out of its own.
func TestProxyThroughScriptedDatapath(t *testing.T) {
	p, dp := fuzzProxy(t)
	queries, responses := dnsSeeds()
	for _, tc := range []struct {
		name  string
		frame []byte
		port  uint16
		rcode uint8
	}{
		{"answer", responseFrame(responses[0]), upstreamPort, packet.DNSRcodeNoError},
		{"refusal", queryFrame(queries[1]), devicePort, packet.DNSRcodeNXDomain},
	} {
		sent, answers := dp.PacketIn(tc.frame, tc.port)
		replies := 0
		for _, msg := range sent {
			po, ok := msg.(*openflow.PacketOut)
			if !ok || len(po.Data) == 0 {
				continue
			}
			var d packet.Decoded
			var m packet.DNS
			if d.Decode(po.Data) == nil && d.HasUDP && d.IP.Dst == deviceIP &&
				m.DecodeFromBytes(d.UDP.Payload) == nil && m.Response && m.Rcode == tc.rcode {
				replies++
			}
		}
		if replies != 1 || answers != 1 {
			t.Errorf("%s: %d replies to the device and %d answers to the buffer, want 1 and 1", tc.name, replies, answers)
		}
	}
	if st := p.Stats(); st.Answered != 1 || st.Denied != 1 {
		t.Errorf("stats %+v, want one answer relayed and one query denied", st)
	}
}
