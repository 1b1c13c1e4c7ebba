package netsim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/datapath"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

func TestWirelessRSSIMonotoneInDistance(t *testing.T) {
	w := DefaultWireless(1)
	w.Shadow = 0 // deterministic
	prev := math.Inf(1)
	for _, d := range []float64{1, 2, 5, 10, 20, 40} {
		r := float64(w.RSSI(d))
		if r > prev {
			t.Errorf("RSSI(%gm) = %g > RSSI at shorter distance %g", d, r, prev)
		}
		prev = r
	}
}

func TestWirelessDeliveryProb(t *testing.T) {
	w := DefaultWireless(1)
	if p := w.deliveryProb(-50); p < 0.99 {
		t.Errorf("strong signal delivery = %g", p)
	}
	if p := w.deliveryProb(-95); p > 0.05 {
		t.Errorf("weak signal delivery = %g", p)
	}
	if w.deliveryProb(-70) <= w.deliveryProb(-85) {
		t.Error("delivery probability not monotone in RSSI")
	}
}

func TestWirelessRateTiers(t *testing.T) {
	w := DefaultWireless(1)
	if w.Rate(-40) != 54 || w.Rate(-90) != 6 {
		t.Errorf("rate tiers wrong: %g, %g", w.Rate(-40), w.Rate(-90))
	}
	prev := w.Rate(-40)
	for rssi := -45; rssi >= -90; rssi -= 5 {
		r := w.Rate(rssi)
		if r > prev {
			t.Errorf("Rate(%d) = %g increases as signal weakens", rssi, r)
		}
		prev = r
	}
}

// TestUplinkDrawsAsRSSIThenRetries: a station frame's draws in one lock
// section are the draws RSSI and then Retries make, in that order, at
// every distance from the router's doorstep to the edge of delivery.
func TestUplinkDrawsAsRSSIThenRetries(t *testing.T) {
	one, two := DefaultWireless(7), DefaultWireless(7)
	for i := range 2000 {
		d := 0.5 + float64(i%80)
		rssi, retries, delivered := one.uplink(d, 4)
		wantRSSI := two.RSSI(d)
		wantRetries, wantDelivered := two.Retries(wantRSSI, 4)
		if rssi != wantRSSI || retries != wantRetries || delivered != wantDelivered {
			t.Fatalf("frame %d at %gm: uplink drew %d dBm, %d retries, %v; RSSI then Retries %d, %d, %v",
				i, d, rssi, retries, delivered, wantRSSI, wantRetries, wantDelivered)
		}
	}
}

func TestWirelessRetriesDistribution(t *testing.T) {
	w := DefaultWireless(42)
	// At strong signal nearly everything delivers on the first attempt.
	total, fails := 0, 0
	for i := 0; i < 500; i++ {
		r, ok := w.Retries(-50, 7)
		total += r
		if !ok {
			fails++
		}
	}
	if fails > 0 || total > 50 {
		t.Errorf("strong signal: %d fails, %d retries", fails, total)
	}
	// At very weak signal, losses occur.
	fails = 0
	for i := 0; i < 500; i++ {
		if _, ok := w.Retries(-95, 3); !ok {
			fails++
		}
	}
	if fails == 0 {
		t.Error("no losses at -95 dBm")
	}
}

func TestPosDist(t *testing.T) {
	if d := (Pos{3, 4}).dist(Pos{0, 0}); d != 5 {
		t.Errorf("Dist = %g", d)
	}
}

func TestRetriesQuickNeverExceedMax(t *testing.T) {
	w := DefaultWireless(7)
	f := func(rssi int8, max uint8) bool {
		m := int(max % 16)
		r, _ := w.Retries(int(rssi), m)
		return r >= 0 && r <= m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkAddHostAndPorts(t *testing.T) {
	dp := datapath.New(datapath.Config{ID: 1})
	n := New(dp, DefaultWireless(1))
	h, err := n.AddHost("laptop", packet.MustMAC("02:aa:00:00:00:01"), true, Pos{X: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Host(h.MAC); !ok {
		t.Error("host not registered")
	}
	if _, err := n.AddHost("dup", h.MAC, false, Pos{}); err == nil {
		t.Error("duplicate MAC accepted")
	}
	if len(n.Hosts()) != 1 {
		t.Errorf("hosts = %d", len(n.Hosts()))
	}
	// The host has a datapath port delivering to it.
	if _, ok := dp.Port(1); !ok {
		t.Error("no datapath port for host")
	}
}

func TestLinkInfosTrackPosition(t *testing.T) {
	dp := datapath.New(datapath.Config{ID: 1})
	w := DefaultWireless(1)
	w.Shadow = 0
	n := New(dp, w)
	h, _ := n.AddHost("phone", packet.MustMAC("02:aa:00:00:00:01"), true, Pos{X: 1})
	near := n.AppendLinkInfos(nil)[0].RSSI
	h.MoveTo(Pos{X: 30})
	far := n.AppendLinkInfos(nil)[0].RSSI
	if far >= near {
		t.Errorf("RSSI near=%d far=%d", near, far)
	}
}

// Each station's RSSI draws its shadowing from the one seeded model, so a
// seed gives every station the same sequence only if the stations are
// walked in the same order on every run: two networks on one seed report
// identical per-station RSSI, poll after poll.
func TestLinkInfosDeterministicPerStation(t *testing.T) {
	history := func() map[packet.MAC][]int {
		n := New(datapath.New(datapath.Config{ID: 1}), DefaultWireless(7))
		for i, x := range []float64{2, 6, 11} {
			if _, err := n.AddHost("station", packet.MAC{2, 0xaa, 0, 0, 0, byte(i)}, true, Pos{X: x}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.AddHost("desktop", packet.MustMAC("02:bb:00:00:00:01"), false, Pos{}); err != nil {
			t.Fatal(err)
		}
		out := make(map[packet.MAC][]int)
		var buf []LinkInfo
		for poll := 0; poll < 200; poll++ {
			buf = n.AppendLinkInfos(buf[:0])
			if len(buf) != 3 {
				t.Fatalf("poll %d: %d stations, want 3", poll, len(buf))
			}
			for _, li := range buf {
				out[li.MAC] = append(out[li.MAC], li.RSSI)
			}
		}
		return out
	}
	first, second := history(), history()
	for mac, want := range first {
		if got := second[mac]; !slices.Equal(got, want) {
			t.Fatalf("station %s: RSSI differs between two runs of one seed:\n%v\n%v", mac, want, got)
		}
	}
}

func TestUpstreamDNSZone(t *testing.T) {
	u := NewUpstream()
	ip, ok := u.Lookup("facebook.com")
	if !ok || ip != packet.MustIP4("157.240.1.35") {
		t.Errorf("Lookup = %v, %v", ip, ok)
	}
	name, ok := u.reverseLookup(ip)
	if !ok || (name != "facebook.com" && name != "www.facebook.com") {
		t.Errorf("reverseLookup = %q, %v", name, ok)
	}
	u.AddZone("new.example", packet.MustIP4("1.2.3.4"))
	if _, ok := u.Lookup("new.example"); !ok {
		t.Error("AddZone failed")
	}
	if _, ok := u.Lookup("no.such.name"); ok {
		t.Error("phantom zone entry")
	}
}

// A multi-name address must resolve to the same name on every run: the
// canonical name is the shortest, ties broken lexicographically,
// independent of zone-map iteration order.
func TestReverseLookupDeterministic(t *testing.T) {
	want := map[string]string{
		"157.240.1.35":   "facebook.com",
		"142.250.180.14": "youtube.com",
		"151.101.0.81":   "bbc.co.uk",
		"93.184.216.34":  "example.com",
	}
	for i := 0; i < 20; i++ {
		u := NewUpstream()
		for addr, name := range want {
			got, ok := u.reverseLookup(packet.MustIP4(addr))
			if !ok || got != name {
				t.Fatalf("run %d: reverseLookup(%s) = %q, %v; want %q", i, addr, got, ok, name)
			}
		}
	}
}

func TestReverseLookupFollowsZoneChanges(t *testing.T) {
	u := NewUpstream()
	ip := packet.MustIP4("198.51.100.7")
	// Later-but-shorter and tie-length names must win deterministically.
	u.AddZone("bb.example", ip)
	u.AddZone("aa.example", ip)
	if name, _ := u.reverseLookup(ip); name != "aa.example" {
		t.Errorf("tie-break = %q, want aa.example", name)
	}
	u.AddZone("x.example", ip)
	if name, _ := u.reverseLookup(ip); name != "x.example" {
		t.Errorf("shorter name did not win: %q", name)
	}
	// Retargeting the canonical name away must fall back to the next
	// preferred name for the old address.
	u.AddZone("x.example", packet.MustIP4("198.51.100.8"))
	if name, _ := u.reverseLookup(ip); name != "aa.example" {
		t.Errorf("after retarget = %q, want aa.example", name)
	}
	if name, _ := u.reverseLookup(packet.MustIP4("198.51.100.8")); name != "x.example" {
		t.Errorf("retargeted address = %q, want x.example", name)
	}
}

// Network.Step must hand each host's tick of traffic to the datapath as
// one batch: port counters charged for the whole batch, every frame looked
// up once, and — the batch being one flow on an empty table — a single
// packet-in with the other 49 frames held behind it, all 50 delivered in
// the order the app sent them once the flow-mod references the buffer.
func TestStepBatchesHostTraffic(t *testing.T) {
	dp := datapath.New(datapath.Config{ID: 1, MissSendLen: 0xffff})
	n := New(dp, DefaultWireless(1))
	h, err := n.AddHost("gen", packet.MustMAC("02:aa:00:00:00:01"), false, Pos{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []uint32 // TCP sequence numbers, in delivery order
	_ = dp.AddPort(&datapath.Port{No: 9, Out: func(f []byte) {
		var d packet.Decoded
		if err := d.Decode(f); err != nil || !d.HasTCP {
			t.Errorf("delivered frame does not decode: %v", err)
			return
		}
		delivered = append(delivered, d.TCP.Seq)
	}})
	ctl, dpEnd := oftransport.Pair(0)
	go func() { _ = dp.ConnectTransport(dpEnd) }()
	defer dp.Stop()
	if _, err := ctl.Recv(); err != nil { // the datapath's HELLO
		t.Fatal(err)
	}
	_ = ctl.Send(&openflow.Hello{})

	gwMAC := packet.MustMAC("02:01:00:00:00:01")
	h.mu.Lock()
	h.state = dhcpBound
	h.ip = packet.MustIP4("192.168.1.10")
	h.gw = packet.MustIP4("192.168.1.1")
	h.mask = 32
	h.arp[h.gw] = gwMAC
	h.mu.Unlock()

	// A SYN and 49 data segments of 1200 bytes in half a second.
	a := NewApp(AppWeb, "10.0.0.9", 49*1200*2)
	h.AddApp(a)
	n.Step(0) // resolve the literal target
	n.Step(0.5)

	const wantFrames = 50
	p, _ := dp.Port(1)
	if stats := p.Stats(); stats.RxPackets != wantFrames {
		t.Errorf("rx packets = %d, want %d", stats.RxPackets, wantFrames)
	}
	if lookups, matched := dp.Table().Counters(); lookups != wantFrames || matched != 0 {
		t.Errorf("lookups %d matched %d, want %d and 0", lookups, matched, wantFrames)
	}
	if dp.PuntCount() != 1 {
		t.Errorf("punts = %d, want 1", dp.PuntCount())
	}
	msg, err := ctl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	pi, ok := msg.(*openflow.PacketIn)
	if !ok {
		t.Fatalf("expected the packet-in, got %T", msg)
	}
	var syn packet.Decoded
	if err := syn.Decode(pi.Data); err != nil || !syn.HasTCP || syn.TCP.Flags&packet.TCPSyn == 0 {
		t.Fatalf("packet-in is not the SYN: %+v (%v)", syn.TCP, err)
	}
	if len(delivered) != 0 {
		t.Fatalf("%d frames delivered before the controller answered", len(delivered))
	}

	_ = ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchFromFrame(&syn, pi.InPort), Command: openflow.FlowModAdd, Priority: 10,
		BufferID: pi.BufferID, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 9}},
	})
	_ = ctl.Send(&openflow.BarrierRequest{})
	for {
		msg, err := ctl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*openflow.PacketIn); ok {
			t.Fatal("a second packet-in for the same flow")
		}
		if _, ok := msg.(*openflow.BarrierReply); ok {
			break
		}
	}
	if len(delivered) != wantFrames {
		t.Fatalf("%d frames delivered on release, want %d", len(delivered), wantFrames)
	}
	for i, seq := range delivered[1:] { // delivered[0] is the SYN
		if seq != uint32(i*1200) {
			t.Fatalf("data segment %d delivered with seq %d, want %d", i, seq, i*1200)
		}
	}
}

func TestHostEphemeralPortsAdvance(t *testing.T) {
	h := newHost("x", packet.MAC{1}, false, Pos{})
	p1 := h.ephemeralPort()
	p2 := h.ephemeralPort()
	if p1 == p2 || p2 != p1+1 {
		t.Errorf("ports %d, %d", p1, p2)
	}
}

func TestAppProfiles(t *testing.T) {
	cases := []struct {
		kind  AppKind
		port  uint16
		proto packet.IPProto
	}{
		{AppWeb, 80, packet.ProtoTCP},
		{AppVideo, 443, packet.ProtoTCP},
		{AppVoIP, 5060, packet.ProtoUDP},
		{AppP2P, 6881, packet.ProtoTCP},
		{AppIoT, 8883, packet.ProtoUDP},
		{AppDNS, 53, packet.ProtoUDP},
	}
	for _, c := range cases {
		a := NewApp(c.kind, "example.com", 1000)
		if a.DstPort() != c.port || a.Proto() != c.proto {
			t.Errorf("%v: port=%d proto=%v", c.kind, a.DstPort(), a.Proto())
		}
		if c.kind.String() == "app" {
			t.Errorf("%v has no name", c.kind)
		}
	}
}

func TestAppRateAccounting(t *testing.T) {
	// An app on a bound host emits RateBps*seconds payload bytes.
	dp := datapath.New(datapath.Config{ID: 1})
	n := New(dp, DefaultWireless(1))
	h, _ := n.AddHost("gen", packet.MustMAC("02:aa:00:00:00:01"), false, Pos{})
	// Short-circuit DHCP: force a bound lease state.
	h.mu.Lock()
	h.state = dhcpBound
	h.ip = packet.MustIP4("192.168.1.10")
	h.gw = packet.MustIP4("192.168.1.1")
	h.mask = 32
	h.arp[h.gw] = packet.MustMAC("02:01:00:00:00:01")
	h.mu.Unlock()

	a := NewApp(AppVoIP, "10.0.0.9", 16000)
	h.AddApp(a)
	n.Step(0) // first step resolves the (literal) target
	for i := 0; i < 10; i++ {
		n.Step(0.1) // 1 second total
	}
	sent := a.SentBytes()
	if sent < 15000 || sent > 17000 {
		t.Errorf("sent %d bytes, want ~16000", sent)
	}
}
