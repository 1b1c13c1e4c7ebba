// Package measure implements the Homework router's measurement plane: it
// periodically polls the datapath's flow and port statistics and the
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
// Concurrency: drive the plane either with Run's single background
// goroutine or with explicit PollOnce calls, never both at once.
// RecordFlowRemoved and RecordInstall arrive concurrently from the
// controller's dispatch goroutine; the flow-state cache is mutex-guarded
// and the hwdb tables synchronize internally.
package measure

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/nox"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// LinkSource supplies link-layer observations; implemented by
// netsim.Network (and, on real hardware, by the WiFi driver).
type LinkSource interface {
	LinkInfos() []LinkSample
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
	DB       *hwdb.DB
	Clock    clock.Clock
	Interval time.Duration // poll period (default 1s)
	Links    LinkSource
	Resolver DeviceResolver
	// HomePrefix/HomePrefixLen classify which flow endpoint is the local
	// device (e.g. 192.168.1.0/24).
	HomePrefix    packet.IP4
	HomePrefixLen int
}

// flowState tracks the last counters seen for a flow so the plane records
// per-interval deltas ("periodically observed active five-tuples").
type flowState struct {
	packets   uint64
	bytes     uint64
	lastUp    uint64 // poll generation last seen
	installNS int64  // pending rule-install latency, reported once
}

// roundFlow is one active flow observed in the current poll round,
// buffered so port-level drop deltas can be attributed across the round's
// flows once the per-port totals are known.
type roundFlow struct {
	id        flowIdent
	inPort    uint16
	dp, db    uint64
	installUS int64
}

// Plane is the measurement plane.
type Plane struct {
	cfg Config

	mu          sync.Mutex
	seen        map[flowIdent]*flowState
	gen         uint64
	stop        chan struct{}
	once        sync.Once
	polls       uint64
	lastPoll    time.Time         // previous round's clock timestamp (window measurement)
	ports       map[uint16]uint64 // last cumulative rx-dropped per port
	portsSeeded bool              // baseline taken (first round attributes nothing)
	round       []roundFlow       // reused per-round scratch
	portPkts    map[uint16]uint64 // reused per-round scratch: active packets per port
}

type flowIdent struct {
	ft  packet.FiveTuple
	mac packet.MAC
}

// New creates a measurement plane.
func New(cfg Config) *Plane {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	return &Plane{
		cfg:      cfg,
		seen:     make(map[flowIdent]*flowState),
		stop:     make(chan struct{}),
		portPkts: make(map[uint16]uint64),
	}
}

// Run polls sw until Stop; typically launched as a goroutine.
func (p *Plane) Run(sw *nox.Switch) {
	for {
		select {
		case <-p.stop:
			return
		case <-p.cfg.Clock.After(p.cfg.Interval):
		}
		p.PollOnce(sw)
	}
}

// Stop halts Run.
func (p *Plane) Stop() { p.once.Do(func() { close(p.stop) }) }

// Polls returns how many poll rounds have completed.
func (p *Plane) Polls() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// PollOnce performs one measurement round: flow stats deltas into Flows,
// link samples into Links.
func (p *Plane) PollOnce(sw *nox.Switch) {
	p.pollFlows(sw)
	p.pollLinks()
	p.mu.Lock()
	p.polls++
	p.mu.Unlock()
}

func (p *Plane) pollFlows(sw *nox.Switch) {
	if sw == nil || p.cfg.DB == nil {
		return
	}
	stats, err := sw.FlowStats(openflow.MatchAll())
	if err != nil {
		return
	}
	// The poll window is measured on the configured clock, never assumed
	// from the nominal interval: under clock.Simulated a time-compressed
	// soak observes the same consistent windows the ticks advance.
	now := p.cfg.Clock.Now()
	p.mu.Lock()
	p.gen++
	gen := p.gen
	last := p.lastPoll
	p.lastPoll = now
	p.mu.Unlock()
	var window time.Duration
	if !last.IsZero() {
		window = now.Sub(last)
	}

	// Per-port receive-drop deltas since the previous round: the loss the
	// controller can see without any per-host agent (OpenFlow port stats;
	// each home device sits on its own datapath port).
	drops := p.portDrops(sw)

	p.round = p.round[:0]
	portPkts := p.portPkts
	clear(portPkts)
	for _, fs := range stats {
		ft, mac, ok := p.classify(&fs)
		if !ok {
			continue
		}
		id := flowIdent{ft: ft, mac: mac}
		p.mu.Lock()
		st := p.seen[id]
		if st == nil {
			st = &flowState{}
			p.seen[id] = st
		}
		dp := fs.PacketCount - st.packets
		db := fs.ByteCount - st.bytes
		if fs.PacketCount < st.packets { // counters reset (rule reinstalled)
			dp, db = fs.PacketCount, fs.ByteCount
		}
		st.packets, st.bytes = fs.PacketCount, fs.ByteCount
		st.lastUp = gen
		// Install latency rides the flow's first *active* observation: a
		// just-installed rule shows zero counters this round (its trigger
		// packet left via packet-out, not the flow table), so consuming
		// the latency on an idle round would silently drop it. Round up
		// so a recorded sub-µs install is still visible.
		var installUS int64
		if dp != 0 && st.installNS > 0 {
			installUS = (st.installNS + 999) / 1000
			st.installNS = 0
		}
		p.mu.Unlock()
		if dp == 0 {
			continue // not active this interval
		}
		_ = p.cfg.DB.InsertFlow(mac, ft, dp, db)
		p.round = append(p.round, roundFlow{id: id, inPort: fs.Match.InPort, dp: dp, db: db, installUS: installUS})
		portPkts[fs.Match.InPort] += dp
	}
	openflow.FlowStatsBufs.Put(stats) // the reply is ours and read

	// FlowPerf: the two ends of the device's ingress hop seen from the
	// controller. rx is what matched the flow table; a port's dropped
	// frames never matched anything, so they are attributed across the
	// port's active flows by packet share and added back to reconstruct
	// what the device transmitted.
	for i := range p.round {
		rf := &p.round[i]
		var lost uint64
		if d := drops[rf.inPort]; d > 0 {
			if tot := portPkts[rf.inPort]; tot > 0 {
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
		_ = p.cfg.DB.InsertFlowPerf(rf.id.mac, rf.id.ft, tx, txBytes, rf.dp, rf.db, lost, bps, rf.installUS)
	}

	// Forget flows that vanished from the table.
	p.mu.Lock()
	for id, st := range p.seen {
		if st.lastUp != gen {
			delete(p.seen, id)
		}
	}
	p.mu.Unlock()
}

// portDrops polls port counters and returns each port's receive-drop
// delta since the previous round. The first round only seeds the
// baseline: drops accumulated before measurement began (e.g. frames lost
// during join handshakes) are not attributed to anyone's flows.
func (p *Plane) portDrops(sw *nox.Switch) map[uint16]uint64 {
	ps, err := sw.PortStats(openflow.PortNone)
	if err != nil || len(ps) == 0 {
		return nil
	}
	defer openflow.PortStatsBufs.Put(ps) // the reply is ours
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ports == nil {
		p.ports = make(map[uint16]uint64, len(ps))
	}
	seeded := p.portsSeeded
	p.portsSeeded = true
	var drops map[uint16]uint64
	for _, s := range ps {
		prev := p.ports[s.PortNo]
		if seeded && s.RxDropped > prev {
			if drops == nil {
				drops = make(map[uint16]uint64, 2)
			}
			drops[s.PortNo] = s.RxDropped - prev
		}
		p.ports[s.PortNo] = s.RxDropped
	}
	return drops
}

// RecordInstall attaches a rule-install latency (nanoseconds) to the flow
// entry match describes; the flow's next FlowPerf row reports it in
// microseconds. The router wires this to the forwarder's install hook
// with the tracer's punt-to-emission latency, so install latency is
// measured from the controller's vantage with no extra wire traffic.
// Safe from the controller's dispatch goroutine.
func (p *Plane) RecordInstall(match *openflow.Match, latencyNS int64) {
	if latencyNS <= 0 || p.cfg.DB == nil {
		return
	}
	fs := openflow.FlowStats{Match: *match}
	ft, mac, ok := p.classify(&fs)
	if !ok {
		return
	}
	id := flowIdent{ft: ft, mac: mac}
	p.mu.Lock()
	st := p.seen[id]
	if st == nil {
		st = &flowState{lastUp: p.gen}
		p.seen[id] = st
	}
	st.installNS = latencyNS
	p.mu.Unlock()
}

// classify extracts the five-tuple from a flow entry's match and
// attributes it to the home device.
func (p *Plane) classify(fs *openflow.FlowStats) (packet.FiveTuple, packet.MAC, bool) {
	m := &fs.Match
	// Only fully-specified IPv4 transport entries describe single flows.
	if m.DLType != packet.EtherTypeIPv4 || !m.IsExact() {
		return packet.FiveTuple{}, packet.MAC{}, false
	}
	ft := packet.FiveTuple{
		Src: m.NWSrc, Dst: m.NWDst,
		Proto:   packet.IPProto(m.NWProto),
		SrcPort: m.TPSrc, DstPort: m.TPDst,
	}
	mac, ok := p.attribute(ft)
	return ft, mac, ok
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

// RecordFlowRemoved ingests the final counters carried by a flow-removed
// message, so traffic sent between the last poll and the entry's expiry is
// not lost. The router wires this to the controller's flow-removed event.
func (p *Plane) RecordFlowRemoved(match *openflow.Match, packets, bytes uint64) {
	if p.cfg.DB == nil {
		return
	}
	fs := openflow.FlowStats{Match: *match, PacketCount: packets, ByteCount: bytes}
	ft, mac, ok := p.classify(&fs)
	if !ok {
		return
	}
	id := flowIdent{ft: ft, mac: mac}
	p.mu.Lock()
	st := p.seen[id]
	var dp, db uint64
	if st == nil {
		dp, db = packets, bytes
	} else {
		dp, db = packets-st.packets, bytes-st.bytes
		if packets < st.packets {
			dp, db = packets, bytes
		}
		delete(p.seen, id)
	}
	p.mu.Unlock()
	if dp == 0 {
		return
	}
	_ = p.cfg.DB.InsertFlow(mac, ft, dp, db)
}

func (p *Plane) pollLinks() {
	if p.cfg.Links == nil || p.cfg.DB == nil {
		return
	}
	for _, li := range p.cfg.Links.LinkInfos() {
		_ = p.cfg.DB.InsertLink(li.MAC, li.RSSI, li.Retries, li.Rate)
	}
}
