// Package measure implements the Homework router's measurement plane: it
// periodically reads the datapath's flow and port counters and the
// wireless driver's link state, and streams observations into the hwdb
// Flows, Links and FlowPerf tables that the visualization interfaces
// subscribe to. (Lease events reach the Leases table directly from the
// DHCP server.) FlowPerf is the controller-vantage per-flow performance
// monitor: each poll round computes every active flow's throughput over
// the actual clock-measured window, its tx-vs-rx delta across the device
// ingress hop (port receive-drop deltas attributed per-flow by packet
// share), and the punt-to-flow-mod rule-install latency the tracer
// measured for it.
//
// The plane reads the counters in place through a datapath.StatsView — the
// datapath is co-resident with its controller in every router — and a
// poll costs the entries that moved: the walk skips every entry idle since
// the previous poll's clock reading. Per-flow state is updated inside that
// walk, under the flow table's read lock, so the flow-removed of an entry
// always follows the last visit it settles against, and the state is
// forgotten only by that flow-removed. Every exact IPv4 rule is therefore
// expected to request one (the forwarder's all do).
//
// Concurrency: the plane runs no timer of its own. One goroutine at a time
// drives it with PollOnce — in a router, the one that steps the home.
// RecordFlowRemoved and RecordInstall arrive concurrently from the
// controller's dispatch goroutine; the flow-state cache is mutex-guarded
// and the hwdb tables synchronize internally.
package measure

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/hwdb"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// LinkSource supplies link-layer observations; implemented over
// netsim.Network (and, on real hardware, by the WiFi driver).
type LinkSource interface {
	// AppendLinkSamples appends one sample per station to dst and returns
	// it.
	AppendLinkSamples(dst []LinkSample) []LinkSample
}

// LinkSample is one station's link state.
type LinkSample struct {
	MAC     packet.MAC
	RSSI    int
	Retries int
	Rate    float64
}

// DeviceResolver attributes a flow's home-side address to a device MAC;
// implemented by the DHCP server.
type DeviceResolver interface {
	MACForIP(ip packet.IP4) (packet.MAC, bool)
}

// Config parameterizes the measurement plane.
type Config struct {
	DB    *hwdb.DB
	Clock clock.Clock
	// Stats reads the datapath's counters; the zero view has no flows and
	// no ports, so only links are polled.
	Stats    datapath.StatsView
	Links    LinkSource
	Resolver DeviceResolver
	// HomePrefix/HomePrefixLen classify which flow endpoint is the local
	// device (e.g. 192.168.1.0/24).
	HomePrefix    packet.IP4
	HomePrefixLen int
}

// flowState is what the plane last counted of one flow entry, so it
// records per-interval deltas ("periodically observed active
// five-tuples").
type flowState struct {
	packets   uint64
	bytes     uint64
	installNS int64 // pending rule-install latency, reported once
}

// roundFlow is one flow active in the current poll round, buffered so the
// round's rows go in five-tuple order and port-level drop deltas can be
// attributed across the round's flows once the per-port totals are known.
type roundFlow struct {
	ft        packet.FiveTuple
	mac       packet.MAC
	inPort    uint16
	dp, db    uint64
	installUS int64
}

// Plane is the measurement plane.
type Plane struct {
	cfg Config

	mu    sync.Mutex
	seen  map[flowKey]flowState // one per exact IPv4 entry, until its flow-removed
	polls uint64
	round []roundFlow // this round's active flows; filled under mu by visit

	// Poll state: one PollOnce caller at a time.
	lastPoll    time.Time         // previous round's clock reading
	ports       map[uint16]uint64 // last cumulative rx-dropped per port
	portsSeeded bool              // baseline taken (first round attributes nothing)
	drops       map[uint16]uint64 // this round's rx-dropped deltas
	portPkts    map[uint16]uint64 // this round's active packets per port
	links       []LinkSample      // this round's link samples
}

// New creates a measurement plane.
func New(cfg Config) *Plane {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Plane{
		cfg:      cfg,
		seen:     make(map[flowKey]flowState),
		ports:    make(map[uint16]uint64),
		drops:    make(map[uint16]uint64),
		portPkts: make(map[uint16]uint64),
	}
}

// Polls returns how many poll rounds have completed.
func (p *Plane) Polls() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// Tracked returns how many flow entries the plane keeps state for: at most
// the flow table's exact IPv4 entries plus the flow-removed messages in
// flight, when every such entry requests its flow-removed.
func (p *Plane) Tracked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// PollOnce performs one measurement round: flow counter deltas into Flows
// and FlowPerf, link samples into Links.
func (p *Plane) PollOnce() {
	p.pollFlows()
	p.pollLinks()
	p.mu.Lock()
	p.polls++
	p.mu.Unlock()
}

func (p *Plane) pollFlows() {
	if p.cfg.DB == nil {
		return
	}
	// The poll window is measured on the configured clock, never assumed
	// from how often the caller polls: under clock.Simulated a time-compressed
	// soak observes the same consistent windows the ticks advance. The
	// previous reading is also the walk's idle threshold.
	now := p.cfg.Clock.Now()
	var (
		since  int64
		window time.Duration
	)
	if !p.lastPoll.IsZero() {
		since, window = p.lastPoll.UnixNano(), now.Sub(p.lastPoll)
	}
	p.lastPoll = now

	// Per-port receive-drop deltas since the previous round: the loss the
	// controller can see without any per-host agent (OpenFlow port stats;
	// each home device sits on its own datapath port).
	p.portDrops()

	p.mu.Lock()
	p.round = p.round[:0]
	p.cfg.Stats.Flows(since, p.visit)
	p.mu.Unlock()

	// Attribution reads the DHCP server, so it waits until the walk has
	// let go of the table; the round is then written in five-tuple order.
	clear(p.portPkts)
	round := p.round[:0]
	for _, rf := range p.round {
		mac, ok := p.attribute(rf.ft)
		if !ok {
			continue
		}
		rf.mac = mac
		round = append(round, rf)
		p.portPkts[rf.inPort] += rf.dp
	}
	slices.SortFunc(round, compareRound)
	for i := range round {
		rf := &round[i]
		_ = p.cfg.DB.InsertFlow(rf.mac, rf.ft, rf.dp, rf.db)
	}

	// FlowPerf: the two ends of the device's ingress hop seen from the
	// controller. rx is what matched the flow table; a port's dropped
	// frames never matched anything, so they are attributed across the
	// port's active flows by packet share and added back to reconstruct
	// what the device transmitted.
	for i := range round {
		rf := &round[i]
		var lost uint64
		if d := p.drops[rf.inPort]; d > 0 {
			if tot := p.portPkts[rf.inPort]; tot > 0 {
				lost = (d*rf.dp + tot/2) / tot // rounded proportional share
			}
		}
		tx, txBytes := rf.dp+lost, rf.db
		if lost > 0 {
			txBytes += lost * (rf.db / rf.dp) // lost frames sized at the flow mean
		}
		var bps float64
		if window > 0 {
			bps = float64(rf.db) * 8 / window.Seconds()
		}
		_ = p.cfg.DB.InsertFlowPerf(rf.mac, rf.ft, tx, txBytes, rf.dp, rf.db, lost, bps, rf.installUS)
	}
}

// visit settles one flow entry the walk hands over, under p.mu and the
// flow table's read lock: the delta since the flow's state joins the round
// and becomes its state.
func (p *Plane) visit(m openflow.Match, packets, bytes uint64) {
	if !isFlow(&m) {
		return
	}
	k := keyOf(&m)
	st := p.seen[k]
	if packets == st.packets && bytes == st.bytes {
		return // visited at the previous round's clock reading, idle since
	}
	dp, db := packets-st.packets, bytes-st.bytes
	if packets < st.packets { // counters reset (rule reinstalled)
		dp, db = packets, bytes
	}
	st.packets, st.bytes = packets, bytes
	// Install latency rides the flow's first *active* observation: a
	// just-installed rule shows zero counters (its trigger packet left via
	// the buffer, not the flow table), so consuming the latency on an idle
	// round would silently drop it. Round up so a recorded sub-µs install
	// is still visible.
	var installUS int64
	if dp != 0 && st.installNS > 0 {
		installUS = (st.installNS + 999) / 1000
		st.installNS = 0
	}
	p.seen[k] = st
	if dp != 0 {
		p.round = append(p.round, roundFlow{ft: fiveTuple(&m), inPort: m.InPort, dp: dp, db: db, installUS: installUS})
	}
}

// compareRound orders a round by five-tuple, then device and ingress port.
func compareRound(a, b roundFlow) int {
	return cmp.Or(
		slices.Compare(a.ft.Src[:], b.ft.Src[:]),
		slices.Compare(a.ft.Dst[:], b.ft.Dst[:]),
		cmp.Compare(a.ft.Proto, b.ft.Proto),
		cmp.Compare(a.ft.SrcPort, b.ft.SrcPort),
		cmp.Compare(a.ft.DstPort, b.ft.DstPort),
		slices.Compare(a.mac[:], b.mac[:]),
		cmp.Compare(a.inPort, b.inPort),
	)
}

// portDrops reads the port counters into p.drops: each port's receive-drop
// delta since the previous round. The first round that sees a port only
// seeds the baseline: drops accumulated before measurement began (e.g.
// frames lost during join handshakes) are not attributed to anyone's
// flows.
func (p *Plane) portDrops() {
	clear(p.drops)
	p.cfg.Stats.Ports(p.countPort)
	p.portsSeeded = len(p.ports) > 0
}

// countPort is portDrops' visit of one port.
func (p *Plane) countPort(s openflow.PortStats) {
	if prev := p.ports[s.PortNo]; p.portsSeeded && s.RxDropped > prev {
		p.drops[s.PortNo] = s.RxDropped - prev
	}
	p.ports[s.PortNo] = s.RxDropped
}

// RecordInstall attaches a rule-install latency (nanoseconds) to the flow
// entry match describes; the flow's next FlowPerf row reports it in
// microseconds. The router wires this to the forwarder's install hook
// with the tracer's punt-to-emission latency, so install latency is
// measured from the controller's vantage with no extra wire traffic.
// Safe from the controller's dispatch goroutine.
func (p *Plane) RecordInstall(match *openflow.Match, latencyNS int64) {
	if latencyNS <= 0 || p.cfg.DB == nil || !isFlow(match) {
		return
	}
	k := keyOf(match)
	p.mu.Lock()
	st := p.seen[k]
	st.installNS = latencyNS
	p.seen[k] = st
	p.mu.Unlock()
}

// RecordFlowRemoved ingests the final counters carried by a flow-removed
// message, so traffic sent between the last poll and the entry's expiry is
// not lost, and forgets the flow. The router wires this to the
// controller's flow-removed event.
func (p *Plane) RecordFlowRemoved(match *openflow.Match, packets, bytes uint64) {
	if p.cfg.DB == nil || !isFlow(match) {
		return
	}
	k := keyOf(match)
	p.mu.Lock()
	st := p.seen[k]
	delete(p.seen, k)
	p.mu.Unlock()
	dp, db := packets-st.packets, bytes-st.bytes
	if packets < st.packets {
		dp, db = packets, bytes
	}
	if dp == 0 {
		return
	}
	ft := fiveTuple(match)
	if mac, ok := p.attribute(ft); ok {
		_ = p.cfg.DB.InsertFlow(mac, ft, dp, db)
	}
}

// isFlow reports whether a match describes a single flow: only
// fully-specified IPv4 transport entries do.
func isFlow(m *openflow.Match) bool {
	return m.DLType == packet.EtherTypeIPv4 && m.IsExact()
}

// flowKey names the table entry a flow's state belongs to. An exact IPv4
// match also fixes the frame's Ethernet addresses and VLAN tag, but on one
// ingress port those follow from the five-tuple — a port is one device and
// it addresses the router — so the key leaves them out: 16 bytes where the
// match takes 40, and a state-map slot of 40 bytes instead of 64, for every
// entry of every home's table.
type flowKey struct {
	src, dst     packet.IP4
	sport, dport uint16
	inPort       uint16
	proto, tos   uint8
}

func keyOf(m *openflow.Match) flowKey {
	return flowKey{src: m.NWSrc, dst: m.NWDst, sport: m.TPSrc, dport: m.TPDst, inPort: m.InPort, proto: m.NWProto, tos: m.NWTOS}
}

// fiveTuple extracts the five-tuple of a flow's match.
func fiveTuple(m *openflow.Match) packet.FiveTuple {
	return packet.FiveTuple{
		Src: m.NWSrc, Dst: m.NWDst,
		Proto:   packet.IPProto(m.NWProto),
		SrcPort: m.TPSrc, DstPort: m.TPDst,
	}
}

// attribute finds the device MAC for the home-side endpoint.
func (p *Plane) attribute(ft packet.FiveTuple) (packet.MAC, bool) {
	if p.cfg.Resolver != nil {
		if mac, ok := p.cfg.Resolver.MACForIP(ft.Src); ok {
			return mac, true
		}
		if mac, ok := p.cfg.Resolver.MACForIP(ft.Dst); ok {
			return mac, true
		}
	}
	if p.cfg.HomePrefixLen > 0 {
		if ft.Src.Mask(p.cfg.HomePrefixLen) == p.cfg.HomePrefix.Mask(p.cfg.HomePrefixLen) {
			return packet.MAC{}, true
		}
		if ft.Dst.Mask(p.cfg.HomePrefixLen) == p.cfg.HomePrefix.Mask(p.cfg.HomePrefixLen) {
			return packet.MAC{}, true
		}
	}
	return packet.MAC{}, false
}

func (p *Plane) pollLinks() {
	if p.cfg.Links == nil || p.cfg.DB == nil {
		return
	}
	p.links = p.cfg.Links.AppendLinkSamples(p.links[:0])
	for _, li := range p.links {
		_ = p.cfg.DB.InsertLink(li.MAC, li.RSSI, li.Retries, li.Rate)
	}
}
