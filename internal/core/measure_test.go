package core

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// churnHome is a web_churn-shaped home on a simulated clock: three wired
// browsers opening a new connection every 0.75 s, one tick apart, a
// wireless phone on a call, and a fabric that loses one host frame in 50,
// so port drops move too.
type churnHome struct {
	t   *testing.T
	r   *Router
	clk *clock.Simulated
	tap *flowModTap
}

func newChurnHome(t *testing.T, mutate func(*Config)) *churnHome {
	t.Helper()
	h := &churnHome{t: t, clk: clock.NewSimulated(), tap: &flowModTap{}}
	h.r = startRouter(t, func(c *Config) {
		c.Clock = h.clk
		c.DisableRPC = true
		c.RingSize = 1 << 15
		c.WrapTransport = h.tap.wrap
		if mutate != nil {
			mutate(c)
		}
	})
	for i := 0; i < 3; i++ {
		host := join(t, h.r, fmt.Sprint("browser", i), fmt.Sprintf("02:aa:00:00:01:%02x", i), false, netsim.Pos{})
		app := netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000)
		app.SetFlowChurn(0.75)
		host.AddApp(app)
		h.tick()
	}
	phone := join(t, h.r, "phone", "02:aa:00:00:02:01", true, netsim.Pos{X: 6})
	phone.AddApp(netsim.NewApp(netsim.AppVoIP, "203.0.113.20", 8_000))
	h.r.Net.SetLinkFault(1, 50)
	return h
}

// tick is one home-step as the fleet engine takes it, then time moves.
func (h *churnHome) tick() {
	h.t.Helper()
	h.r.Net.Step(0.25)
	if err := h.r.Settle(); err != nil {
		h.t.Fatal(err)
	}
	h.r.PollMeasure()
	h.clk.Advance(250 * time.Millisecond)
}

// isFlowRule reports whether an entry is one the measurement plane counts:
// a fully specified IPv4 match.
func isFlowRule(m *openflow.Match) bool { return m.DLType == packet.EtherTypeIPv4 && m.IsExact() }

// counts are a flow's packets and bytes.
type counts struct{ packets, bytes uint64 }

// Exact accounting: with flows expiring every few seconds, every
// five-tuple's Flows rows add up to the final counters of its removed
// entries plus the counters of its live one — no count lost between a
// poll and a removal, none taken twice when a poll no longer finds an
// entry whose flow-removed is still in flight. The plane's per-flow state
// never outgrows the entries installed and not yet settled by their
// flow-removed.
func TestFlowsAccountExactly(t *testing.T) {
	h := newChurnHome(t, func(c *Config) { c.FlowIdleTimeout = 2 })
	var (
		mu         sync.Mutex
		removed    = make(map[packet.FiveTuple]counts)
		dispatched int
	)
	// Registered after the router's own handler, so a removal counted here
	// has already reached the plane.
	h.r.Controller.OnFlowRemoved(func(ev *nox.FlowRemovedEvent) {
		if !isFlowRule(&ev.Msg.Match) {
			return
		}
		mu.Lock()
		c := removed[flowKey(&ev.Msg.Match)]
		c.packets += ev.Msg.PacketCount
		c.bytes += ev.Msg.ByteCount
		removed[flowKey(&ev.Msg.Match)] = c
		dispatched++
		mu.Unlock()
	})
	for i := 0; i < 240; i++ {
		h.tick()
		mu.Lock()
		d := dispatched
		mu.Unlock()
		if tracked, adds := h.r.Measure.Tracked(), h.tap.adds.Load(); uint64(tracked) > adds-uint64(d) {
			t.Fatalf("tick %d: plane tracks %d flows, more than the %d installed and not yet removed", i, tracked, adds-uint64(d))
		}
	}
	mu.Lock()
	nRemoved := dispatched
	mu.Unlock()
	if nRemoved == 0 {
		t.Fatal("no flow expired: the run does not exercise flow-removed")
	}

	// The last tick's step swept and its Settle drained the flow-removeds:
	// the books balance now, with nothing in flight.
	if diff := h.accountingDiff(&mu, removed); diff != "" {
		t.Fatal(diff)
	}
	live := 0
	for _, e := range h.r.Datapath.Table().Entries(nil, openflow.PortNone) {
		if isFlowRule(&e.Match) {
			live++
		}
	}
	if tracked := h.r.Measure.Tracked(); tracked > live {
		t.Errorf("plane tracks %d flows with %d live in the table and none in flight", tracked, live)
	}
}

// accountingDiff compares Σ Flows per five-tuple with the removed entries'
// final counters plus the live entries' counters; "" when they agree.
func (h *churnHome) accountingDiff(mu *sync.Mutex, removed map[packet.FiveTuple]counts) string {
	mu.Lock()
	want := maps.Clone(removed)
	mu.Unlock()
	for _, e := range h.r.Datapath.Table().Entries(nil, openflow.PortNone) {
		if !isFlowRule(&e.Match) {
			continue
		}
		c := want[flowKey(&e.Match)]
		c.packets += e.PacketCount()
		c.bytes += e.ByteCount()
		want[flowKey(&e.Match)] = c
	}
	got := make(map[packet.FiveTuple]counts)
	res, err := h.r.DB.Query("SELECT saddr, daddr, proto, sport, dport, packets, bytes FROM Flows")
	if err != nil {
		h.t.Fatal(err)
	}
	for _, row := range res.Rows {
		ft := packet.FiveTuple{Src: row[0].IP(), Dst: row[1].IP(), Proto: packet.IPProto(row[2].Int),
			SrcPort: uint16(row[3].Int), DstPort: uint16(row[4].Int)}
		c := got[ft]
		c.packets += uint64(row[5].Int)
		c.bytes += uint64(row[6].Int)
		got[ft] = c
	}
	for ft, w := range want {
		if w.packets == 0 {
			continue
		}
		if got[ft] != w {
			return fmt.Sprintf("%v: Flows rows add up to %+v, the entries to %+v (%d five-tuples)", ft, got[ft], w, len(want))
		}
	}
	for ft, g := range got {
		if _, ok := want[ft]; !ok {
			return fmt.Sprintf("%v: %+v in Flows with no entry, live or removed", ft, g)
		}
	}
	return ""
}

func flowKey(m *openflow.Match) packet.FiveTuple {
	return packet.FiveTuple{Src: m.NWSrc, Dst: m.NWDst, Proto: packet.IPProto(m.NWProto), SrcPort: m.TPSrc, DstPort: m.TPDst}
}

// The plane's state for a flow is forgotten only by its flow-removed, so
// every exact IPv4 rule the forwarder installs — forwarding rules both
// ways, and the drop rules that cache a refusal — must request one.
func TestForwarderRulesRequestFlowRemoved(t *testing.T) {
	h := newChurnHome(t, nil)
	// A frame from an address nobody leased is refused with a drop rule.
	host, ok := h.r.Net.Host(packet.MustMAC("02:aa:00:00:01:00"))
	if !ok {
		t.Fatal("no browser0")
	}
	host.SendRaw(packet.AppendTCPFrame(nil, host.MAC, h.r.Config.RouterMAC,
		packet.MustIP4("192.168.1.251"), packet.MustIP4("203.0.113.10"), 40000, 80, packet.TCPSyn, 1, 0, nil))
	for i := 0; i < 12; i++ {
		h.tick()
	}
	var forward, drop int
	for _, e := range h.r.Datapath.Table().Entries(nil, openflow.PortNone) {
		if !isFlowRule(&e.Match) {
			continue
		}
		if !e.SendFlowRem {
			t.Errorf("rule %v at priority %d does not request its flow-removed", &e.Match, e.Priority)
		}
		switch e.Priority {
		case PriorityForward:
			forward++
		case PriorityDrop:
			drop++
		}
	}
	if forward == 0 || drop == 0 {
		t.Errorf("%d forwarding and %d drop rules checked, want some of each", forward, drop)
	}
}

// The view the plane reads, walked with no idle skip, says what the wire
// stats requests say, on every tick of a churn run: the same (match,
// packets, bytes) entries as a flow-stats request for every flow, and the
// same counters as a port-stats request for every port.
func TestStatsViewMatchesWire(t *testing.T) {
	h := newChurnHome(t, nil) // 30 s idle timeout: nothing expires mid-comparison
	type entry struct {
		m               openflow.Match
		packets, bytess uint64
	}
	for i := 0; i < 80; i++ {
		h.tick()
		view := make(map[entry]int)
		h.r.Datapath.StatsView().Flows(0, func(m openflow.Match, packets, bytes uint64) {
			view[entry{m, packets, bytes}]++
		})
		flows, err := h.r.Switch().FlowStats(openflow.MatchAll())
		if err != nil {
			t.Fatal(err)
		}
		wire := make(map[entry]int)
		for _, fs := range flows {
			wire[entry{fs.Match, fs.PacketCount, fs.ByteCount}]++
		}
		if !maps.Equal(view, wire) {
			t.Fatalf("tick %d: the view walks %d entries, the wire reports %d, and they differ", i, len(view), len(wire))
		}

		viewPorts := make(map[uint16]openflow.PortStats)
		h.r.Datapath.StatsView().Ports(func(s openflow.PortStats) { viewPorts[s.PortNo] = s })
		ports, err := h.r.Switch().PortStats(openflow.PortNone)
		if err != nil {
			t.Fatal(err)
		}
		wirePorts := make(map[uint16]openflow.PortStats)
		for _, s := range ports {
			wirePorts[s.PortNo] = s
		}
		if !maps.Equal(viewPorts, wirePorts) {
			t.Fatalf("tick %d: port counters differ:\nview %+v\nwire %+v", i, viewPorts, wirePorts)
		}
	}
	var dropped uint64
	h.r.Datapath.StatsView().Ports(func(s openflow.PortStats) { dropped += s.RxDropped })
	if dropped == 0 {
		t.Error("no port dropped a frame: the port comparison saw only zeros")
	}
}
