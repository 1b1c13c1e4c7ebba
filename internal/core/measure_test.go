package core

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/oftransport"
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
	// removed, when set, sees each flow-removed the datapath sends, on the
	// goroutine that steps the home.
	removed func(*openflow.FlowRemoved)
}

func newChurnHome(t *testing.T, mutate func(*Config)) *churnHome {
	t.Helper()
	h := &churnHome{t: t, clk: clock.NewSimulated(), tap: &flowModTap{}}
	h.r = startRouter(t, func(c *Config) {
		c.Clock = h.clk
		c.DisableRPC = true
		c.RingSize = 1 << 15
		c.WrapTransport = func(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport) {
			ctl, _ = h.tap.wrap(ctl, dp)
			return ctl, removedTap{Transport: dp, sent: func(fr *openflow.FlowRemoved) {
				if h.removed != nil {
					h.removed(fr)
				}
			}}
		}
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
// entry that was removed.
func TestFlowsAccountExactly(t *testing.T) {
	h := newChurnHome(t, func(c *Config) { c.FlowIdleTimeout = 2 })
	var (
		mu         sync.Mutex
		removed    = make(map[packet.FiveTuple]counts)
		dispatched int
	)
	// The datapath sends a flow-removed after its removal report has
	// reached the plane.
	h.removed = func(fr *openflow.FlowRemoved) {
		if !isFlowRule(&fr.Match) {
			return
		}
		mu.Lock()
		c := removed[flowKey(&fr.Match)]
		c.packets += fr.PacketCount
		c.bytes += fr.ByteCount
		removed[flowKey(&fr.Match)] = c
		dispatched++
		mu.Unlock()
	}
	for i := 0; i < 240; i++ {
		h.tick()
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

// refuseOne has browser0 send a frame from an address nobody leased, which
// the forwarder refuses with a drop rule, and runs the home a few ticks.
func (h *churnHome) refuseOne() {
	h.t.Helper()
	host, ok := h.r.Net.Host(packet.MustMAC("02:aa:00:00:01:00"))
	if !ok {
		h.t.Fatal("no browser0")
	}
	host.SendRaw(packet.AppendTCPFrame(nil, host.MAC, h.r.Config.RouterMAC,
		packet.MustIP4("192.168.1.251"), packet.MustIP4("203.0.113.10"), 40000, 80, packet.TCPSyn, 1, 0, nil))
	for i := 0; i < 12; i++ {
		h.tick()
	}
}

// Every exact IPv4 rule the forwarder installs — forwarding rules both
// ways, and the drop rules that cache a refusal — requests its
// flow-removed, as the paper's controller does; the measurement plane no
// longer needs one (the datapath reports a removal to it directly), but
// the wire is unchanged.
func TestForwarderRulesRequestFlowRemoved(t *testing.T) {
	h := newChurnHome(t, nil)
	h.refuseOne()
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

// A policy change flushes the forwarder's rules: every forwarding and drop
// rule goes, and the DHCP and DNS punt rules stay.
func TestPolicyFlushDeletesForwarderRulesOnly(t *testing.T) {
	h := newChurnHome(t, nil)
	h.refuseOne()
	byPriority := func() map[uint16]int {
		n := make(map[uint16]int)
		for _, e := range h.r.Datapath.Table().Entries(nil, openflow.PortNone) {
			n[e.Priority]++
		}
		return n
	}
	before := byPriority()
	if before[PriorityForward] == 0 || before[PriorityDrop] == 0 {
		t.Fatalf("rules by priority %v: want forwarding and drop rules to flush", before)
	}
	h.r.Policy.InsertKey("flush")
	after := byPriority()
	if after[PriorityForward] != 0 || after[PriorityDrop] != 0 {
		t.Errorf("after the flush, rules by priority %v: want no forwarding or drop rule", after)
	}
	delete(before, PriorityForward)
	delete(before, PriorityDrop)
	if !maps.Equal(before, after) || len(after) == 0 {
		t.Errorf("the flush left rules by priority %v, want the punt rules %v", after, before)
	}
}

// The view's books balance with the wire's on every tick of a churn run
// whose flows expire, and whose rules a policy change flushes now and then
// after a tick's traffic and before the walk, so removals carry counts no
// walk took: for every match, what the view's walks and removal reports
// handed over adds up to the cumulative counters a flow-stats request
// reports for its live entry plus the final counters of the flow-removeds
// of its removed ones. The port view says what a port-stats request says.
func TestStatsViewMatchesWire(t *testing.T) {
	h := newChurnHome(t, func(c *Config) { c.FlowIdleTimeout = 2 })
	view := h.r.Datapath.StatsView()
	taken := make(map[openflow.Match]counts)   // walk and removal deltas
	removed := make(map[openflow.Match]counts) // flow-removed final counters
	add := func(to map[openflow.Match]counts, m *openflow.Match, packets, bytes uint64) {
		c := to[*m]
		c.packets += packets
		c.bytes += bytes
		to[*m] = c
	}
	// The test takes over as the view's one reader: a first walk takes
	// what the plane left, so every live entry is taken up to its wire
	// counters, and the home is stepped without a poll from here on.
	tails := 0
	view.OnRemoved(func(m *openflow.Match, packets, bytes uint64) {
		if packets != 0 {
			tails++
		}
		add(taken, m, packets, bytes)
	})
	h.removed = func(fr *openflow.FlowRemoved) { add(removed, &fr.Match, fr.PacketCount, fr.ByteCount) }
	view.Flows(0, func(openflow.Match, uint64, uint64) {})
	flows, err := h.r.Switch().FlowStats(openflow.MatchAll())
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range flows {
		add(taken, &fs.Match, fs.PacketCount, fs.ByteCount)
	}
	nonzero := func(m map[openflow.Match]counts) map[openflow.Match]counts {
		maps.DeleteFunc(m, func(_ openflow.Match, c counts) bool { return c == counts{} })
		return m
	}
	for i := 0; i < 80; i++ {
		h.r.Net.Step(0.25)
		if err := h.r.Settle(); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			h.r.Policy.InsertKey(fmt.Sprint(i))
		}
		view.Flows(0, func(m openflow.Match, packets, bytes uint64) { add(taken, &m, packets, bytes) })
		flows, err := h.r.Switch().FlowStats(openflow.MatchAll())
		if err != nil {
			t.Fatal(err)
		}
		wire := maps.Clone(removed)
		for _, fs := range flows {
			add(wire, &fs.Match, fs.PacketCount, fs.ByteCount)
		}
		if got, want := nonzero(maps.Clone(taken)), nonzero(wire); !maps.Equal(got, want) {
			for m, c := range want {
				if got[m] != c {
					t.Fatalf("tick %d: %v: the view handed over %+v, the wire counts %+v", i, &m, got[m], c)
				}
			}
			t.Fatalf("tick %d: the view handed over counts for %d matches, the wire for %d", i, len(got), len(want))
		}

		viewPorts := make(map[uint16]openflow.PortStats)
		view.Ports(func(s openflow.PortStats) { viewPorts[s.PortNo] = s })
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
		h.clk.Advance(250 * time.Millisecond)
	}
	if len(nonzero(removed)) == 0 || tails == 0 {
		t.Errorf("%d counted entries removed, %d with a count no walk took: the removal reports went untested", len(nonzero(removed)), tails)
	}
	var dropped uint64
	view.Ports(func(s openflow.PortStats) { dropped += s.RxDropped })
	if dropped == 0 {
		t.Error("no port dropped a frame: the port comparison saw only zeros")
	}
}
