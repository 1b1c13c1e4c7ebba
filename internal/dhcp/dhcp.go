// Package dhcp implements the Homework router's DHCP server as a NOX
// component. Its defining behaviour (from the paper): it "manages DHCP
// allocations to ensure that all traffic flows are visible to software
// running on the router, avoiding direct Ethernet-layer communication
// between devices" — achieved by handing out /32 leases with the router as
// gateway, so every packet a device sends must traverse the router's
// datapath. The control API permits or denies devices case-by-case
// (Figure 3's drag-to-permit interface drives exactly these calls), and
// every lease event is recorded in the hwdb Leases table.
//
// Concurrency: the device table is mutex-guarded. Packet-in handling
// runs on the controller's dispatch goroutine, while Permit/Deny/Lookup
// and the event subscriptions arrive concurrently from the control API
// and the admission interfaces; event callbacks fire synchronously on
// whichever goroutine caused the change.
package dhcp

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/nox"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// Approval is a device's admission state.
type Approval uint8

// Admission states driven by the control interface.
const (
	Pending Approval = iota
	Permitted
	Denied
)

// String names the approval state.
func (a Approval) String() string {
	switch a {
	case Permitted:
		return "permitted"
	case Denied:
		return "denied"
	}
	return "pending"
}

// Device is the server's view of one client, surfaced by the control API.
type Device struct {
	MAC      packet.MAC
	Hostname string
	Metadata string // user-supplied annotation from the control interface
	State    Approval
	IP       packet.IP4 // zero until leased
	LeasedAt time.Time
	Expiry   time.Time
	LastSeen time.Time
}

// Config parameterizes the server.
type Config struct {
	// ServerIP is the router's address, used as server id, gateway and
	// DNS server in every lease.
	ServerIP packet.IP4
	// ServerMAC is the router's hardware address.
	ServerMAC packet.MAC
	// PoolStart/PoolEnd bound the allocatable addresses (inclusive).
	PoolStart, PoolEnd packet.IP4
	// HostRoutes selects the Homework /32 allocation scheme. When false
	// the server hands out conventional /24 leases (the ablation case:
	// devices can then talk Ethernet-direct and their flows are
	// invisible to the router).
	HostRoutes bool
	// AutoPermit admits unknown devices without operator action. The
	// paper's deployment requires approval; tests and benches often
	// auto-permit.
	AutoPermit bool
	// Clock supplies lease timestamps.
	Clock clock.Clock
	// DB, when set, receives lease events in the Leases table.
	DB *hwdb.DB
}

// leaseTime is the offered lease duration.
const leaseTime = time.Hour

// Server is the DHCP NOX component.
type Server struct {
	cfg Config

	mu      sync.Mutex
	devices map[packet.MAC]*Device
	byIP    map[packet.IP4]packet.MAC
	nextTry uint32
}

// NewServer creates the component.
func NewServer(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Server{
		cfg:     cfg,
		devices: make(map[packet.MAC]*Device),
		byIP:    make(map[packet.IP4]packet.MAC),
	}
}

// Name implements nox.Component.
func (s *Server) Name() string { return "dhcp-server" }

// Configure implements nox.Component: it installs the DHCP punt rule on
// every joining datapath and claims DHCP packet-ins.
func (s *Server) Configure(ctl *nox.Controller) error {
	ctl.OnJoin(func(ev *nox.JoinEvent) {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
		m.DLType = packet.EtherTypeIPv4
		m.NWProto = uint8(packet.ProtoUDP)
		m.TPDst = packet.DHCPServerPort
		_ = ev.Switch.InstallFlow(m, PriorityPunt, 0, 0,
			[]openflow.Action{&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff}})
	})
	ctl.OnPacketIn(s.handlePacketIn)
	return nil
}

// PriorityPunt is the flow priority of control-protocol punt rules (DHCP,
// DNS); above all forwarding entries.
const PriorityPunt uint16 = 1000

// emit records a lease event ("add" or "del") in the Leases table, which
// the physical artifact's mode 3 reads.
func (s *Server) emit(action string, d Device) {
	if s.cfg.DB != nil {
		_ = s.cfg.DB.InsertLease(action, d.MAC, d.IP, d.Hostname)
	}
}

// handlePacketIn consumes DHCP traffic.
func (s *Server) handlePacketIn(ev *nox.PacketInEvent) nox.Disposition {
	d := ev.Decoded
	if !d.HasUDP || d.UDP.DstPort != packet.DHCPServerPort {
		return nox.Continue
	}
	var msg packet.DHCP
	if err := msg.DecodeFromBytes(d.UDP.Payload); err != nil {
		return nox.Stop
	}
	switch msg.MsgType() {
	case packet.DHCPDiscover:
		s.handleDiscover(ev, &msg)
	case packet.DHCPRequest:
		s.handleRequest(ev, &msg)
	case packet.DHCPRelease:
		s.handleRelease(&msg)
	}
	return nox.Stop
}

// device returns (creating if needed) the record for a client.
func (s *Server) device(mac packet.MAC, hostname string) *Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	dev, ok := s.devices[mac]
	if !ok {
		state := Pending
		if s.cfg.AutoPermit {
			state = Permitted
		}
		dev = &Device{MAC: mac, State: state}
		s.devices[mac] = dev
	}
	if hostname != "" {
		dev.Hostname = hostname
	}
	dev.LastSeen = s.cfg.Clock.Now()
	return dev
}

func (s *Server) handleDiscover(ev *nox.PacketInEvent, msg *packet.DHCP) {
	dev := s.device(msg.CHAddr, msg.Hostname())
	s.mu.Lock()
	state := dev.State
	s.mu.Unlock()
	switch state {
	case Denied:
		s.sendNak(ev, msg)
		return
	case Pending:
		// No answer: the device shows up on the control interface and
		// retries; granting it later completes the handshake.
		return
	}
	ip, err := s.allocate(msg.CHAddr, msg)
	if err != nil {
		return
	}
	s.reply(ev, msg, packet.DHCPOffer, ip)
}

func (s *Server) handleRequest(ev *nox.PacketInEvent, msg *packet.DHCP) {
	dev := s.device(msg.CHAddr, msg.Hostname())
	s.mu.Lock()
	state := dev.State
	s.mu.Unlock()
	if state != Permitted {
		s.sendNak(ev, msg)
		return
	}
	want, ok := msg.RequestedIP()
	if !ok {
		want = msg.CIAddr
	}
	ip, err := s.allocate(msg.CHAddr, msg)
	if err != nil {
		s.sendNak(ev, msg)
		return
	}
	if !want.IsZero() && want != ip {
		// The client asked for an address we did not reserve for it.
		s.sendNak(ev, msg)
		return
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	dev.IP = ip
	dev.LeasedAt = now
	dev.Expiry = now.Add(leaseTime)
	copy := *dev
	s.mu.Unlock()
	s.reply(ev, msg, packet.DHCPAck, ip)
	s.emit("add", copy)
}

func (s *Server) handleRelease(msg *packet.DHCP) {
	s.mu.Lock()
	dev, ok := s.devices[msg.CHAddr]
	var cp Device
	if ok && !dev.IP.IsZero() {
		delete(s.byIP, dev.IP)
		dev.IP = packet.IP4{}
		cp = *dev
	} else {
		ok = false
	}
	s.mu.Unlock()
	if ok {
		s.emit("del", cp)
	}
}

// allocate reserves (or returns the existing) address for a client,
// creating the device record if the client is new.
func (s *Server) allocate(mac packet.MAC, msg *packet.DHCP) (packet.IP4, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dev, ok := s.devices[mac]
	if !ok {
		state := Pending
		if s.cfg.AutoPermit {
			state = Permitted
		}
		dev = &Device{MAC: mac, State: state}
		s.devices[mac] = dev
	}
	if !dev.IP.IsZero() {
		return dev.IP, nil
	}
	start, end := s.cfg.PoolStart.Uint32(), s.cfg.PoolEnd.Uint32()
	if start == 0 || end < start {
		return packet.IP4{}, fmt.Errorf("dhcp: no pool configured")
	}
	span := end - start + 1
	for i := uint32(0); i < span; i++ {
		cand := packet.IP4FromUint32(start + (s.nextTry+i)%span)
		if cand == s.cfg.ServerIP {
			continue
		}
		if _, used := s.byIP[cand]; used {
			continue
		}
		s.nextTry = (s.nextTry + i + 1) % span
		s.byIP[cand] = mac
		dev.IP = cand
		return cand, nil
	}
	return packet.IP4{}, fmt.Errorf("dhcp: pool exhausted")
}

// reply sends an OFFER or ACK to the client via packet-out.
func (s *Server) reply(ev *nox.PacketInEvent, req *packet.DHCP, typ packet.DHCPMsgType, ip packet.IP4) {
	resp := &packet.DHCP{
		Op: packet.DHCPBootReply, XID: req.XID, Flags: req.Flags,
		YIAddr: ip, SIAddr: s.cfg.ServerIP, CHAddr: req.CHAddr,
	}
	resp.AddMsgType(typ)
	resp.AddIPOption(packet.DHCPOptServerID, s.cfg.ServerIP)
	if s.cfg.HostRoutes {
		// The Homework trick: a /32 mask leaves no on-link destinations,
		// so the client routes everything through the gateway below.
		resp.AddIPOption(packet.DHCPOptSubnetMask, packet.IP4{255, 255, 255, 255})
	} else {
		resp.AddIPOption(packet.DHCPOptSubnetMask, packet.IP4{255, 255, 255, 0})
	}
	resp.AddIPOption(packet.DHCPOptRouter, s.cfg.ServerIP)
	resp.AddIPOption(packet.DHCPOptDNSServer, s.cfg.ServerIP)
	resp.AddDurationOption(packet.DHCPOptLeaseTime, leaseTime)

	frame := packet.AppendUDPFrame(nil, s.cfg.ServerMAC, req.CHAddr,
		s.cfg.ServerIP, ip, packet.DHCPServerPort, packet.DHCPClientPort, resp.Serialize(nil))
	_ = ev.Switch.SendPacket(frame, openflow.PortNone,
		&openflow.ActionOutput{Port: ev.Msg.InPort})
}

// sendNak refuses a client.
func (s *Server) sendNak(ev *nox.PacketInEvent, req *packet.DHCP) {
	resp := &packet.DHCP{Op: packet.DHCPBootReply, XID: req.XID, Flags: req.Flags, CHAddr: req.CHAddr}
	resp.AddMsgType(packet.DHCPNak)
	resp.AddIPOption(packet.DHCPOptServerID, s.cfg.ServerIP)
	frame := packet.AppendUDPFrame(nil, s.cfg.ServerMAC, req.CHAddr,
		s.cfg.ServerIP, packet.IP4{255, 255, 255, 255},
		packet.DHCPServerPort, packet.DHCPClientPort, resp.Serialize(nil))
	_ = ev.Switch.SendPacket(frame, openflow.PortNone,
		&openflow.ActionOutput{Port: ev.Msg.InPort})
}

// Permit marks a device permitted (drag into the permitted category).
func (s *Server) Permit(mac packet.MAC) {
	s.setState(mac, Permitted)
}

// Deny marks a device denied and revokes any lease it holds.
func (s *Server) Deny(mac packet.MAC) {
	s.mu.Lock()
	dev, ok := s.devices[mac]
	if !ok {
		dev = &Device{MAC: mac}
		s.devices[mac] = dev
	}
	dev.State = Denied
	var released *Device
	if !dev.IP.IsZero() {
		delete(s.byIP, dev.IP)
		dev.IP = packet.IP4{}
		cp := *dev
		released = &cp
	}
	s.mu.Unlock()
	if released != nil {
		s.emit("del", *released)
	}
}

// Annotate stores user-supplied metadata for a device (the "interrogate
// and supply metadata" part of the control interface).
func (s *Server) Annotate(mac packet.MAC, metadata string) {
	s.mu.Lock()
	if dev, ok := s.devices[mac]; ok {
		dev.Metadata = metadata
	} else {
		s.devices[mac] = &Device{MAC: mac, Metadata: metadata}
	}
	s.mu.Unlock()
}

func (s *Server) setState(mac packet.MAC, st Approval) {
	s.mu.Lock()
	dev, ok := s.devices[mac]
	if !ok {
		dev = &Device{MAC: mac}
		s.devices[mac] = dev
	}
	dev.State = st
	s.mu.Unlock()
}

// Devices returns all known devices sorted by MAC.
func (s *Server) Devices() []Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Device, 0, len(s.devices))
	for _, d := range s.devices {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].MAC.String() < out[j].MAC.String()
	})
	return out
}

// Lookup returns the device record for a MAC.
func (s *Server) Lookup(mac packet.MAC) (Device, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[mac]
	if !ok {
		return Device{}, false
	}
	return *d, true
}

// DeviceByIP maps a leased address back to its device.
func (s *Server) DeviceByIP(ip packet.IP4) (Device, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mac, ok := s.byIP[ip]
	if !ok {
		return Device{}, false
	}
	d, ok := s.devices[mac]
	if !ok {
		return Device{}, false
	}
	return *d, true
}

// MACForIP maps a leased address to its device's hardware address; it
// implements the measurement plane's DeviceResolver.
func (s *Server) MACForIP(ip packet.IP4) (packet.MAC, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mac, ok := s.byIP[ip]
	return mac, ok
}
