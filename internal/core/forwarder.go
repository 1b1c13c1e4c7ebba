// Package core assembles the Homework router platform: the software
// datapath, the NOX controller with its DHCP server, DNS proxy and control
// API modules, the hwdb measurement plane, the policy engine with its USB
// key monitor, and the simulated home network they manage. This is the
// paper's primary contribution — an integrated home router whose
// measurement and control APIs support novel management interfaces.
//
// Concurrency: New and Start are single-threaded setup. Afterwards the
// NOX modules run on the controller's dispatch goroutine, the datapath
// receives traffic from the simulator and the secure channel, and
// Settle/JoinHost may be driven from any goroutine — they return when
// every punt has been dispatched and its answers are live in the datapath,
// waiting, when they must, on barrier round trips (the protocol is
// specified in docs/CONTROL_PLANE.md).
package core

import (
	"slices"
	"sync"

	"repro/internal/dhcp"
	"repro/internal/dnsproxy"
	"repro/internal/nox"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
)

// Flow rule priorities. Punt rules (DHCP/DNS interception) sit above
// everything; per-flow forwarding and drop entries are exact-match.
const (
	PriorityForward uint16 = 10
	PriorityDrop    uint16 = 5
)

// Forwarder is the router's base forwarding NOX component. It answers ARP
// for the router's address, responds to pings, learns device locations,
// enforces the policy engine's verdicts, and installs per-flow exact-match
// entries so every admitted flow is measurable in the datapath — the
// property the paper's DHCP design exists to guarantee.
type Forwarder struct {
	RouterIP     packet.IP4
	RouterMAC    packet.MAC
	UpstreamPort uint16
	UpstreamMAC  packet.MAC
	DHCP         *dhcp.Server
	DNS          *dnsproxy.Proxy
	Policy       *policy.Engine
	// IdleTimeout/HardTimeout shape installed flow entries (seconds).
	IdleTimeout uint16
	HardTimeout uint16
	// DropIdleTimeout bounds how long a denial is cached in the table.
	DropIdleTimeout uint16
	// OnInstall, when set, observes each forwarding entry the instant its
	// flow-mod is emitted. It runs on the controller's dispatch goroutine
	// (the router uses it to record punt-to-install latency into the
	// measurement plane); keep it cheap and non-blocking.
	OnInstall func(m openflow.Match)

	mu      sync.Mutex
	macPort map[packet.MAC]uint16
	// inPorts lists, ascending, every port a packet-in arrived on: the
	// ingress ports the forwarder's entries can fix, which a flush clears.
	inPorts  []uint16
	denials  uint64
	admitted uint64
	// upstreamActs is the rewrite+output action list toward the uplink,
	// built once and shared read-only by every upstream-bound flow entry
	// instead of allocated per admitted flow; deviceActs is the same per
	// home device, rebuilt when the device is learned on another port. A
	// list is never written once built, so the entries installed before a
	// move keep theirs.
	upstreamActs []openflow.Action
	deviceActs   map[packet.MAC]portActs
}

// portActs is a device's rewrite+output list and the port it outputs to.
type portActs struct {
	port uint16
	acts []openflow.Action
}

// newForwarder builds the component with sensible timeouts.
func newForwarder() *Forwarder {
	return &Forwarder{
		IdleTimeout:     30,
		DropIdleTimeout: 5,
		macPort:         make(map[packet.MAC]uint16),
		deviceActs:      make(map[packet.MAC]portActs),
	}
}

// Name implements nox.Component.
func (f *Forwarder) Name() string { return "forwarder" }

// Configure implements nox.Component. The forwarder registers last so the
// DHCP and DNS modules consume their protocols first.
func (f *Forwarder) Configure(ctl *nox.Controller) error {
	ctl.OnPacketIn(f.handlePacketIn)
	if f.Policy != nil {
		f.Policy.OnChange(func() {
			// Re-evaluate everything: flush per-flow state so the next
			// packet of each flow is policy-checked afresh.
			for _, sw := range ctl.Switches() {
				f.flushFlows(sw)
			}
		})
	}
	return nil
}

// Counters reports admitted and denied flow decisions.
func (f *Forwarder) Counters() (admitted, denied uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted, f.denials
}

// flushFlows deletes every forwarding and drop entry: a non-strict delete
// per port a packet-in arrived on selects each entry that fixes that ingress
// port, as only the forwarder's exact entries do (punt rules wildcard it).
// Deletes are flow-mods: they follow every rule sent before them, and so
// also remove one still on its way to the table.
func (f *Forwarder) flushFlows(sw *nox.Switch) {
	f.mu.Lock()
	ports := slices.Clone(f.inPorts)
	f.mu.Unlock()
	for _, p := range ports {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.FWInPort
		m.InPort = p
		_ = sw.Send(&openflow.FlowMod{Match: m, Command: openflow.FlowModDelete,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
	}
}

// learnSender records the port a packet-in's sender was last seen on. The
// router runs it on every packet-in before any module, the DHCP and DNS
// modules included, which consume their frames.
func (f *Forwarder) learnSender(ev *nox.PacketInEvent) nox.Disposition {
	f.mu.Lock()
	f.macPort[ev.Decoded.Eth.Src] = ev.Msg.InPort
	if i, seen := slices.BinarySearch(f.inPorts, ev.Msg.InPort); !seen {
		f.inPorts = slices.Insert(f.inPorts, i, ev.Msg.InPort)
	}
	f.mu.Unlock()
	return nox.Continue
}

func (f *Forwarder) portFor(mac packet.MAC) (uint16, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.macPort[mac]
	return p, ok
}

func (f *Forwarder) handlePacketIn(ev *nox.PacketInEvent) nox.Disposition {
	d := ev.Decoded
	switch {
	case d.HasARP:
		f.handleARP(ev)
		return nox.Stop
	case d.HasIP:
		return f.handleIPv4(ev)
	}
	return nox.Continue
}

// handleARP answers requests for the router's address and relays the rest
// (needed only in the /24 ablation, where hosts resolve each other).
func (f *Forwarder) handleARP(ev *nox.PacketInEvent) {
	d := ev.Decoded
	switch d.ARP.Op {
	case packet.ARPRequest:
		if d.ARP.TargetIP == f.RouterIP {
			reply := packet.AppendARPReply(nil, f.RouterMAC, f.RouterIP, &d.ARP)
			_ = ev.Switch.SendPacket(reply, openflow.PortNone,
				&openflow.ActionOutput{Port: ev.Msg.InPort})
			return
		}
		// Not for us: flood on the home segment.
		_ = ev.Switch.ReleaseBuffer(ev.Msg.BufferID, ev.Msg.InPort,
			&openflow.ActionOutput{Port: openflow.PortFlood})
	case packet.ARPReply:
		if out, ok := f.portFor(d.Eth.Dst); ok {
			_ = ev.Switch.ReleaseBuffer(ev.Msg.BufferID, ev.Msg.InPort,
				&openflow.ActionOutput{Port: out})
		}
	}
}

func (f *Forwarder) handleIPv4(ev *nox.PacketInEvent) nox.Disposition {
	d := ev.Decoded

	// Traffic addressed to the router itself: ICMP echo gets answered;
	// DHCP/DNS were consumed by earlier components.
	if d.IP.Dst == f.RouterIP {
		if d.HasICMP && d.ICMP.Type == packet.ICMPEchoRequest {
			f.sendEchoReply(ev)
		}
		return nox.Stop
	}

	// Identify the home device this flow belongs to.
	devMAC, fromHome := f.deviceFor(d)
	if !fromHome {
		// Neither endpoint is a leased device: drop (unknown traffic).
		f.installDrop(ev)
		return nox.Stop
	}

	// Policy verdict.
	if !f.flowAllowed(ev, devMAC, d) {
		f.mu.Lock()
		f.denials++
		f.mu.Unlock()
		f.installDrop(ev)
		return nox.Stop
	}

	// Next hop: a leased device in the home, or the upstream.
	actions, ok := f.nexthopActions(d.IP.Dst)
	if !ok {
		f.installDrop(ev)
		return nox.Stop
	}
	f.mu.Lock()
	f.admitted++
	f.mu.Unlock()

	m := openflow.MatchFromFrame(d, ev.Msg.InPort)
	_ = ev.Switch.InstallFlow(m, PriorityForward, f.IdleTimeout, f.HardTimeout,
		actions, nox.WithBuffer(ev.Msg.BufferID), nox.WithFlowRemoved())
	if f.OnInstall != nil {
		f.OnInstall(m)
	}
	return nox.Stop
}

// deviceFor attributes a packet to a home device: its source if the source
// holds a lease, else its destination (return traffic).
func (f *Forwarder) deviceFor(d *packet.Decoded) (packet.MAC, bool) {
	if f.DHCP == nil {
		return d.Eth.Src, true
	}
	if dev, ok := f.DHCP.DeviceByIP(d.IP.Src); ok {
		// Anti-spoofing: the lease must match the sender's MAC.
		if dev.MAC == d.Eth.Src {
			return dev.MAC, true
		}
		return packet.MAC{}, false
	}
	if dev, ok := f.DHCP.DeviceByIP(d.IP.Dst); ok {
		return dev.MAC, true
	}
	return packet.MAC{}, false
}

// flowAllowed applies the policy engine / DNS-name check.
func (f *Forwarder) flowAllowed(ev *nox.PacketInEvent, devMAC packet.MAC, d *packet.Decoded) bool {
	if f.Policy == nil {
		return true
	}
	access := f.Policy.AccessFor(devMAC)
	if !access.NetworkAllowed {
		return false
	}
	// The remote endpoint is whichever side is not the device.
	remote := d.IP.Dst
	if dev, ok := f.DHCP.DeviceByIP(d.IP.Dst); ok && dev.MAC == devMAC {
		remote = d.IP.Src
	}
	// Intra-home traffic: site restrictions do not apply.
	if f.DHCP != nil {
		if _, isHome := f.DHCP.DeviceByIP(remote); isHome {
			return true
		}
	}
	if access.AllowedSites == nil {
		return true
	}
	if f.DNS == nil {
		return false
	}
	return f.DNS.FlowPermitted(ev.Switch, devMAC, remote)
}

// nexthopActions returns the rewrite+output action list toward dst: a
// leased device's, or the uplink's. Lists are shared, read-only.
func (f *Forwarder) nexthopActions(dst packet.IP4) ([]openflow.Action, bool) {
	if f.DHCP != nil {
		if dev, ok := f.DHCP.DeviceByIP(dst); ok {
			f.mu.Lock()
			defer f.mu.Unlock()
			port, known := f.macPort[dev.MAC]
			if !known {
				return nil, false
			}
			c := f.deviceActs[dev.MAC]
			if c.acts == nil || c.port != port {
				c = portActs{port, f.rewriteTo(dev.MAC, port)}
				f.deviceActs[dev.MAC] = c
			}
			return c.acts, true
		}
	}
	if f.UpstreamPort == 0 {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.upstreamActs == nil {
		f.upstreamActs = f.rewriteTo(f.UpstreamMAC, f.UpstreamPort)
	}
	return f.upstreamActs, true
}

// rewriteTo builds the action list of a routed hop: the router's MAC as
// source, the next hop's as destination, out of its port.
func (f *Forwarder) rewriteTo(mac packet.MAC, port uint16) []openflow.Action {
	return []openflow.Action{
		&openflow.ActionSetDLSrc{Addr: f.RouterMAC},
		&openflow.ActionSetDLDst{Addr: mac},
		&openflow.ActionOutput{Port: port},
	}
}

// installDrop caches a denial as an empty-action entry so repeated packets
// of a refused flow do not hammer the controller.
func (f *Forwarder) installDrop(ev *nox.PacketInEvent) {
	m := openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort)
	_ = ev.Switch.InstallFlow(m, PriorityDrop, f.DropIdleTimeout, 0, nil,
		nox.WithBuffer(ev.Msg.BufferID), nox.WithFlowRemoved())
}

func (f *Forwarder) sendEchoReply(ev *nox.PacketInEvent) {
	d := ev.Decoded
	reply := packet.AppendICMPEchoFrame(nil, f.RouterMAC, d.Eth.Src, f.RouterIP, d.IP.Src,
		packet.ICMPEchoReply, d.ICMP.ID, d.ICMP.Seq, d.ICMP.Payload)
	_ = ev.Switch.SendPacket(reply, openflow.PortNone,
		&openflow.ActionOutput{Port: ev.Msg.InPort})
}
