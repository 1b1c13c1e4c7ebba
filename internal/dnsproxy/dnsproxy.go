// Package dnsproxy implements the Homework router's DNS proxy as a NOX
// component. Per the paper, it "intercepts outgoing DNS requests,
// performing reverse lookups on flows not matching previously requested
// names, to ensure that upstream communication is only allowed between
// permitted devices and sites."
//
// Mechanically: a punt rule captures every UDP/53 packet. Queries from
// devices are checked against the policy engine's per-device allowed-site
// set; denied names are answered NXDOMAIN directly, permitted names are
// forwarded to the upstream resolver and, when the answer returns, the
// name-to-address bindings are recorded per device. The forwarding module
// consults that record before admitting a new flow; an unknown destination
// triggers a reverse (PTR) lookup whose result is checked against the same
// policy.
//
// Concurrency: the pending-query and per-device name tables are
// mutex-guarded. Packet-in handling and FlowPermitted (called by the
// forwarder mid-dispatch) run on the controller's dispatch goroutine and
// never block on the network — a reverse lookup is fired asynchronously
// and the flow is refused until the answer arrives — while Stats and
// policy reads may come from any goroutine.
package dnsproxy

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/nox"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
)

// Config parameterizes the proxy.
type Config struct {
	// RouterIP/RouterMAC identify the router; queries are addressed to
	// it (it is the DNS server in every lease).
	RouterIP  packet.IP4
	RouterMAC packet.MAC
	// UpstreamDNS is the resolver queries are forwarded to.
	UpstreamDNS packet.IP4
	// UpstreamPort is the datapath port leading to the ISP.
	UpstreamPort uint16
	// UpstreamMAC is the next hop on the upstream side.
	UpstreamMAC packet.MAC
	// Policy answers per-device site restrictions.
	Policy *policy.Engine
	// Clock stamps cache entries.
	Clock clock.Clock
}

// cacheTTL bounds how long name bindings are honoured.
const cacheTTL = 10 * time.Minute

// binding records that a device resolved a name to an address.
type binding struct {
	name string
	at   time.Time
}

// pendingQuery tracks a forwarded query awaiting the upstream answer.
type pendingQuery struct {
	clientMAC  packet.MAC
	clientIP   packet.IP4
	clientPort uint16
	clientID   uint16
	inPort     uint16
	name       string
	qtype      uint16
	reverse    bool // internal PTR lookup, not a client query
}

// Stats counts proxy activity for the evaluation harness.
type Stats struct {
	Queries   uint64
	Forwarded uint64
	Denied    uint64
	Answered  uint64
	ReverseLk uint64
}

// Proxy is the DNS proxy NOX component.
type Proxy struct {
	cfg Config

	mu       sync.Mutex
	pending  map[uint16]pendingQuery // proxy query id -> origin
	bindings map[packet.MAC]map[packet.IP4]binding
	revCache map[packet.IP4]binding // address -> name (reverse lookups)
	nextID   uint16

	queries, forwarded, denied, answered, reverse atomic.Uint64
}

// New creates the component.
func New(cfg Config) *Proxy {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Proxy{
		cfg:      cfg,
		pending:  make(map[uint16]pendingQuery),
		bindings: make(map[packet.MAC]map[packet.IP4]binding),
		revCache: make(map[packet.IP4]binding),
		nextID:   1,
	}
}

// Name implements nox.Component.
func (p *Proxy) Name() string { return "dns-proxy" }

// Configure implements nox.Component: punt rules for DNS in both
// directions, and the packet-in handler.
func (p *Proxy) Configure(ctl *nox.Controller) error {
	ctl.OnJoin(func(ev *nox.JoinEvent) {
		toDNS := openflow.MatchAll()
		toDNS.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
		toDNS.DLType = packet.EtherTypeIPv4
		toDNS.NWProto = uint8(packet.ProtoUDP)
		toDNS.TPDst = packet.DNSPort
		_ = ev.Switch.InstallFlow(toDNS, PriorityPunt, 0, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff}})

		fromDNS := openflow.MatchAll()
		fromDNS.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPSrc
		fromDNS.DLType = packet.EtherTypeIPv4
		fromDNS.NWProto = uint8(packet.ProtoUDP)
		fromDNS.TPSrc = packet.DNSPort
		_ = ev.Switch.InstallFlow(fromDNS, PriorityPunt, 0, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff}})
	})
	ctl.OnPacketIn(p.handlePacketIn)
	return nil
}

// PriorityPunt mirrors dhcp.PriorityPunt without importing it.
const PriorityPunt uint16 = 1000

// Stats returns a snapshot of proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Queries:   p.queries.Load(),
		Forwarded: p.forwarded.Load(),
		Denied:    p.denied.Load(),
		Answered:  p.answered.Load(),
		ReverseLk: p.reverse.Load(),
	}
}

func (p *Proxy) handlePacketIn(ev *nox.PacketInEvent) nox.Disposition {
	d := ev.Decoded
	if !d.HasUDP {
		return nox.Continue
	}
	switch {
	case d.UDP.DstPort == packet.DNSPort:
		p.handleQuery(ev)
		return nox.Stop
	case d.UDP.SrcPort == packet.DNSPort:
		p.handleResponse(ev)
		return nox.Stop
	}
	return nox.Continue
}

// handleQuery processes a device's outgoing DNS query.
func (p *Proxy) handleQuery(ev *nox.PacketInEvent) {
	d := ev.Decoded
	var q packet.DNS
	if err := q.DecodeFromBytes(d.UDP.Payload); err != nil || q.Response || len(q.Questions) == 0 {
		return
	}
	p.queries.Add(1)
	name := q.Questions[0].Name

	if p.cfg.Policy != nil {
		access := p.cfg.Policy.AccessFor(d.Eth.Src)
		if !access.SiteAllowed(name) {
			p.denied.Add(1)
			p.refuse(ev, &q)
			return
		}
	}

	// Forward upstream under a proxy-owned query id.
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	if p.nextID == 0 {
		p.nextID = 1
	}
	p.pending[id] = pendingQuery{
		clientMAC: d.Eth.Src, clientIP: d.IP.Src, clientPort: d.UDP.SrcPort,
		clientID: q.ID, inPort: ev.Msg.InPort,
		name: name, qtype: q.Questions[0].Type,
	}
	p.mu.Unlock()

	fwd := q
	fwd.ID = id
	raw, err := fwd.Bytes()
	if err != nil {
		return
	}
	p.forwarded.Add(1)
	p.sendUpstream(ev.Switch, raw)
}

// sendUpstream emits a query from the router to the upstream resolver.
func (p *Proxy) sendUpstream(sw *nox.Switch, dnsPayload []byte) {
	frame := packet.AppendUDPFrame(nil, p.cfg.RouterMAC, p.cfg.UpstreamMAC,
		p.cfg.RouterIP, p.cfg.UpstreamDNS, proxyPort, packet.DNSPort, dnsPayload)
	_ = sw.SendPacket(frame, openflow.PortNone,
		&openflow.ActionOutput{Port: p.cfg.UpstreamPort})
}

// proxyPort is the proxy's source port for upstream queries.
const proxyPort uint16 = 5533

// handleResponse processes an upstream answer.
func (p *Proxy) handleResponse(ev *nox.PacketInEvent) {
	d := ev.Decoded
	var r packet.DNS
	if err := r.DecodeFromBytes(d.UDP.Payload); err != nil || !r.Response {
		return
	}
	p.mu.Lock()
	pq, ok := p.pending[r.ID]
	if ok {
		delete(p.pending, r.ID)
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	now := p.cfg.Clock.Now()

	if pq.reverse {
		p.reverse.Add(1)
		for _, rr := range r.Answers {
			if rr.Type == packet.DNSTypePTR && rr.Target != "" {
				p.mu.Lock()
				if ip, okk := packet.ParseReverseName(rr.Name); okk {
					p.revCache[ip] = binding{name: rr.Target, at: now}
				}
				p.mu.Unlock()
			}
		}
		return
	}

	// Record the device's name->address bindings.
	p.mu.Lock()
	m := p.bindings[pq.clientMAC]
	if m == nil {
		m = make(map[packet.IP4]binding)
		p.bindings[pq.clientMAC] = m
	}
	for _, rr := range r.Answers {
		if ip, isA := rr.A(); isA {
			m[ip] = binding{name: pq.name, at: now}
			p.revCache[ip] = binding{name: pq.name, at: now}
		}
	}
	p.mu.Unlock()

	// Relay the answer to the client under its original query id.
	reply := r
	reply.ID = pq.clientID
	raw, err := reply.Bytes()
	if err != nil {
		return
	}
	p.answered.Add(1)
	frame := packet.AppendUDPFrame(nil, p.cfg.RouterMAC, pq.clientMAC,
		p.cfg.RouterIP, pq.clientIP, packet.DNSPort, pq.clientPort, raw)
	_ = ev.Switch.SendPacket(frame, openflow.PortNone,
		&openflow.ActionOutput{Port: pq.inPort})
}

// refuse answers a query with NXDOMAIN (policy denial).
func (p *Proxy) refuse(ev *nox.PacketInEvent, q *packet.DNS) {
	d := ev.Decoded
	resp := packet.DNS{
		ID: q.ID, Response: true, RD: q.RD, RA: true,
		Rcode: packet.DNSRcodeNXDomain, Questions: q.Questions,
	}
	raw, err := resp.Bytes()
	if err != nil {
		return
	}
	frame := packet.AppendUDPFrame(nil, p.cfg.RouterMAC, d.Eth.Src,
		p.cfg.RouterIP, d.IP.Src, packet.DNSPort, d.UDP.SrcPort, raw)
	_ = ev.Switch.SendPacket(frame, openflow.PortNone,
		&openflow.ActionOutput{Port: ev.Msg.InPort})
}

// nameFor reports the name a device previously resolved to reach dst, or
// any cached reverse mapping, with ok=false when nothing is known.
func (p *Proxy) nameFor(mac packet.MAC, dst packet.IP4) (string, bool) {
	now := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.bindings[mac]; m != nil {
		if b, ok := m[dst]; ok && now.Sub(b.at) <= cacheTTL {
			return b.name, true
		}
	}
	if b, ok := p.revCache[dst]; ok && now.Sub(b.at) <= cacheTTL {
		return b.name, true
	}
	return "", false
}

// FlowPermitted decides whether a device may open a flow to dst: the check
// the paper describes. A flow to an address matching a previously
// requested (and still permitted) name is allowed; an unknown address
// triggers a reverse lookup and is refused until the name is known and
// permitted. Devices without site restrictions are always permitted.
func (p *Proxy) FlowPermitted(sw *nox.Switch, mac packet.MAC, dst packet.IP4) bool {
	if p.cfg.Policy == nil {
		return true
	}
	access := p.cfg.Policy.AccessFor(mac)
	if !access.NetworkAllowed {
		return false
	}
	if access.AllowedSites == nil {
		return true
	}
	name, known := p.nameFor(mac, dst)
	if !known {
		p.reverseLookup(sw, dst)
		return false
	}
	return access.SiteAllowed(name)
}

// reverseLookup launches a PTR query for dst upstream.
func (p *Proxy) reverseLookup(sw *nox.Switch, dst packet.IP4) {
	if sw == nil {
		return
	}
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	if p.nextID == 0 {
		p.nextID = 1
	}
	p.pending[id] = pendingQuery{reverse: true}
	p.mu.Unlock()
	q := packet.NewDNSQuery(id, packet.ReverseName(dst), packet.DNSTypePTR)
	raw, err := q.Bytes()
	if err != nil {
		return
	}
	p.sendUpstream(sw, raw)
}
