package netsim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// DHCP client states.
type dhcpState uint8

const (
	dhcpInit dhcpState = iota
	dhcpDiscovering
	dhcpRequesting
	dhcpBound
	dhcpDenied
)

// Host is one simulated device: a network interface with a minimal stack
// (ARP, DHCP client, DNS stub resolver) and a set of traffic applications.
type Host struct {
	Name     string
	MAC      packet.MAC
	Wireless bool

	net  *Network
	port uint16

	mu       sync.Mutex
	pos      Pos
	ip       packet.IP4
	mask     int // prefix length of the lease
	gw       packet.IP4
	dns      packet.IP4
	state    dhcpState
	xid      uint32
	arp      map[packet.IP4]packet.MAC
	arpWait  map[packet.IP4][][]byte
	resolved map[string]packet.IP4
	dnsWait  map[uint16]dnsQuery
	nextDNS  uint16
	nextPort uint16
	apps     []*App

	// txFree is a bounded free-list of transmit scratch buffers. A send
	// outside a step borrows a buffer, serializes in one pass, hands the
	// frame to the network and returns the buffer, so it does not allocate.
	// The datapath copies what it is handed, but in the direct-L2 ablation a
	// peer is handed the frame itself and may answer inside the send.
	txFree [][]byte
	// batch, when non-nil, is the frame batch Network.Step lends the host
	// while its apps step: application traffic is serialized into it and
	// handed to the datapath in one call after the apps have stepped. The
	// host never owns a batch; the step borrows it from the process-wide
	// stock (network.go).
	batch *packet.FrameBatch

	// onFrame is the observer SetOnFrame installed, or nil.
	onFrame atomic.Pointer[func(frame []byte)]
}

type dnsQuery struct {
	name string
	cb   func(packet.IP4, bool)
}

func newHost(name string, mac packet.MAC, wireless bool, pos Pos) *Host {
	return &Host{
		Name: name, MAC: mac, Wireless: wireless, pos: pos,
		arp:      make(map[packet.IP4]packet.MAC),
		arpWait:  make(map[packet.IP4][][]byte),
		resolved: make(map[string]packet.IP4),
		dnsWait:  make(map[uint16]dnsQuery),
		nextPort: 49152,
		txFree:   make([][]byte, 0, 4),
	}
}

// IP returns the host's leased address (zero until DHCP completes).
func (h *Host) IP() packet.IP4 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ip
}

// Bound reports whether DHCP has completed.
func (h *Host) Bound() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == dhcpBound
}

// Denied reports whether the DHCP server NAKed this host.
func (h *Host) Denied() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == dhcpDenied
}

// LeaseMask returns the prefix length of the lease (32 under the Homework
// /32 allocation scheme).
func (h *Host) LeaseMask() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mask
}

// Pos returns the host's position.
func (h *Host) Pos() Pos {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pos
}

// MoveTo relocates the host (changing its RSSI).
func (h *Host) MoveTo(p Pos) {
	h.mu.Lock()
	h.pos = p
	h.mu.Unlock()
}

// send transmits a frame out of the host's interface.
func (h *Host) send(frame []byte) {
	if h.net.admit(h, frame, h.net.directL2On()) {
		h.net.dp.Receive(h.port, frame)
	}
}

// SendRaw transmits a prebuilt frame (tests and special probes).
func (h *Host) SendRaw(frame []byte) { h.send(frame) }

// SetOnFrame installs fn to observe every frame delivered to the host
// (tests, UIs); nil removes it. The frame may alias a sender's reused
// scratch buffer and is only valid for the duration of the call; copy it to
// retain it. It is read-only: its bytes may be the next frame's too. The
// host keeps no receive counters of its own: what reaches it is what its
// switch port transmitted (datapath.Port.Stats).
func (h *Host) SetOnFrame(fn func(frame []byte)) {
	if fn == nil {
		h.onFrame.Store(nil)
		return
	}
	h.onFrame.Store(&fn)
}

// StartDHCP begins address acquisition.
func (h *Host) StartDHCP() {
	h.mu.Lock()
	h.state = dhcpDiscovering
	h.xid++
	xid := h.xid
	h.mu.Unlock()

	d := &packet.DHCP{Op: packet.DHCPBootRequest, XID: xid, Flags: 0x8000, CHAddr: h.MAC}
	d.AddMsgType(packet.DHCPDiscover)
	d.AddOption(packet.DHCPOptHostname, []byte(h.Name))
	h.send(packet.AppendUDPFrame(nil, h.MAC, packet.Broadcast,
		packet.IP4{}, packet.IP4{255, 255, 255, 255},
		packet.DHCPClientPort, packet.DHCPServerPort, d.Serialize(nil)))
}

// Release sends a DHCP release and forgets the lease.
func (h *Host) Release() {
	h.mu.Lock()
	ip, server := h.ip, h.gw
	h.ip, h.state = packet.IP4{}, dhcpInit
	h.mu.Unlock()
	if ip.IsZero() {
		return
	}
	d := &packet.DHCP{Op: packet.DHCPBootRequest, XID: 99, CIAddr: ip, CHAddr: h.MAC}
	d.AddMsgType(packet.DHCPRelease)
	d.AddIPOption(packet.DHCPOptServerID, server)
	h.send(packet.AppendUDPFrame(nil, h.MAC, packet.Broadcast, ip, server,
		packet.DHCPClientPort, packet.DHCPServerPort, d.Serialize(nil)))
}

// Deliver hands a frame received from the network to the host stack. The
// stack acts only on ARP and on UDP (DHCP, DNS), so an IPv4 frame of any
// other protocol is observed and not decoded, under no lock: its EtherType
// and protocol are read at their fixed offsets. Every other frame is
// decoded in full. Deliver never writes the frame.
func (h *Host) Deliver(frame []byte) {
	if onFrame := h.onFrame.Load(); onFrame != nil {
		(*onFrame)(frame)
	}
	if len(frame) > ipProtoAt &&
		binary.BigEndian.Uint16(frame[12:14]) == uint16(packet.EtherTypeIPv4) &&
		packet.IPProto(frame[ipProtoAt]) != packet.ProtoUDP {
		return
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

// ipProtoAt is the offset of the protocol byte of an untagged IPv4 frame.
const ipProtoAt = packet.EthernetHeaderLen + 9

func (h *Host) handleARP(d *packet.Decoded) {
	h.mu.Lock()
	myIP := h.ip
	h.mu.Unlock()
	switch d.ARP.Op {
	case packet.ARPRequest:
		if !myIP.IsZero() && d.ARP.TargetIP == myIP {
			h.send(packet.AppendARPReply(nil, h.MAC, myIP, &d.ARP))
		}
	case packet.ARPReply:
		h.mu.Lock()
		h.arp[d.ARP.SenderIP] = d.ARP.SenderHW
		queued := h.arpWait[d.ARP.SenderIP]
		delete(h.arpWait, d.ARP.SenderIP)
		h.mu.Unlock()
		for _, f := range queued {
			// Queued frames were serialized with a zero destination MAC;
			// patch the resolved one in place and transmit.
			if len(f) >= packet.EthernetHeaderLen {
				copy(f[0:6], d.ARP.SenderHW[:])
				h.send(f)
			}
		}
	}
}

func (h *Host) handleDHCP(d *packet.Decoded) {
	var msg packet.DHCP
	if err := msg.DecodeFromBytes(d.UDP.Payload); err != nil {
		return
	}
	if msg.CHAddr != h.MAC {
		return
	}
	// The REQUEST (if any) is sent after the lock is released, but on
	// this same goroutine: the control plane's quiescence protocol
	// (docs/CONTROL_PLANE.md) relies on the host stack responding
	// synchronously within the delivery call, so a settle barrier that
	// delivered the OFFER observes the REQUEST punt before it completes.
	var reply []byte
	h.mu.Lock()
	if msg.XID != h.xid {
		h.mu.Unlock()
		return
	}
	switch msg.MsgType() {
	case packet.DHCPOffer:
		if h.state != dhcpDiscovering {
			break
		}
		server, _ := msg.ServerID()
		req := &packet.DHCP{Op: packet.DHCPBootRequest, XID: h.xid, Flags: 0x8000, CHAddr: h.MAC}
		req.AddMsgType(packet.DHCPRequest)
		req.AddIPOption(packet.DHCPOptRequestedIP, msg.YIAddr)
		req.AddIPOption(packet.DHCPOptServerID, server)
		req.AddOption(packet.DHCPOptHostname, []byte(h.Name))
		h.state = dhcpRequesting
		reply = packet.AppendUDPFrame(nil, h.MAC, packet.Broadcast,
			packet.IP4{}, packet.IP4{255, 255, 255, 255},
			packet.DHCPClientPort, packet.DHCPServerPort, req.Serialize(nil))
	case packet.DHCPAck:
		if h.state != dhcpRequesting {
			break
		}
		h.ip = msg.YIAddr
		h.mask = 32
		if m, ok := msg.SubnetMask(); ok {
			h.mask = prefixLen(m)
		}
		if v, ok := msg.Option(packet.DHCPOptRouter); ok && len(v) == 4 {
			h.gw = packet.IP4{v[0], v[1], v[2], v[3]}
		}
		if v, ok := msg.Option(packet.DHCPOptDNSServer); ok && len(v) >= 4 {
			h.dns = packet.IP4{v[0], v[1], v[2], v[3]}
		}
		h.state = dhcpBound
	case packet.DHCPNak:
		h.state = dhcpDenied
	}
	h.mu.Unlock()
	if reply != nil {
		h.send(reply)
	}
}

func prefixLen(mask packet.IP4) int {
	v := mask.Uint32()
	n := 0
	for v&0x80000000 != 0 {
		n++
		v <<= 1
	}
	return n
}

// Resolve looks up a name via the configured DNS server, invoking cb with
// the answer (or ok=false on NXDOMAIN/refusal).
func (h *Host) Resolve(name string, cb func(packet.IP4, bool)) {
	h.mu.Lock()
	if ip, ok := h.resolved[name]; ok {
		h.mu.Unlock()
		cb(ip, true)
		return
	}
	h.nextDNS++
	id := h.nextDNS
	h.dnsWait[id] = dnsQuery{name: name, cb: cb}
	dnsIP := h.dns
	h.mu.Unlock()
	if dnsIP.IsZero() {
		cb(packet.IP4{}, false)
		return
	}
	q := packet.NewDNSQuery(id, name, packet.DNSTypeA)
	raw, err := q.Bytes()
	if err != nil {
		cb(packet.IP4{}, false)
		return
	}
	h.sendUDP(dnsIP, 5353, packet.DNSPort, raw, ^packet.Checksum(raw, 0))
}

func (h *Host) handleDNS(d *packet.Decoded) {
	var msg packet.DNS
	if err := msg.DecodeFromBytes(d.UDP.Payload); err != nil {
		return
	}
	h.mu.Lock()
	q, ok := h.dnsWait[msg.ID]
	if ok {
		delete(h.dnsWait, msg.ID)
	}
	h.mu.Unlock()
	if !ok {
		return
	}
	for _, rr := range msg.Answers {
		if ip, isA := rr.A(); isA {
			h.mu.Lock()
			h.resolved[q.name] = ip
			h.mu.Unlock()
			q.cb(ip, true)
			return
		}
	}
	q.cb(packet.IP4{}, false)
}

// sendUDP emits a UDP datagram through the routing logic. The frame is
// serialized in one pass into the step batch (when Network.Step is
// driving the host) or a borrowed scratch buffer, so steady-state sends
// do not allocate. payloadSum is the payload's folded ones'-complement sum
// (packet.AppendUDPFrameSum), which the apps know without summing.
func (h *Host) sendUDP(dst packet.IP4, srcPort, dstPort uint16, payload []byte, payloadSum uint16) {
	h.mu.Lock()
	src := h.ip
	fb := h.batch
	var ext []byte
	start := 0
	if fb != nil {
		start = len(fb.Buf())
		ext = packet.AppendUDPFrameSum(fb.Buf(), h.MAC, packet.MAC{}, src, dst, srcPort, dstPort, payload, payloadSum)
	} else {
		ext = packet.AppendUDPFrameSum(h.txBufLocked(), h.MAC, packet.MAC{}, src, dst, srcPort, dstPort, payload, payloadSum)
	}
	h.finishSendLocked(dst, ext, ext[start:], fb)
}

// sendTCP emits a TCP segment through the routing logic; see sendUDP for
// the buffering scheme and payloadSum.
func (h *Host) sendTCP(dst packet.IP4, srcPort, dstPort uint16, flags uint8, seq uint32, payload []byte, payloadSum uint16) {
	h.mu.Lock()
	src := h.ip
	fb := h.batch
	var ext []byte
	start := 0
	if fb != nil {
		start = len(fb.Buf())
		ext = packet.AppendTCPFrameSum(fb.Buf(), h.MAC, packet.MAC{}, src, dst, srcPort, dstPort, flags, seq, 0, payload, payloadSum)
	} else {
		ext = packet.AppendTCPFrameSum(h.txBufLocked(), h.MAC, packet.MAC{}, src, dst, srcPort, dstPort, flags, seq, 0, payload, payloadSum)
	}
	h.finishSendLocked(dst, ext, ext[start:], fb)
}

// finishSendLocked routes and transmits a frame just built under h.mu.
// ext is the whole extended buffer (the batch's backing buffer when fb is
// non-nil, else a borrowed scratch buffer) and frame the newly appended
// frame within it. It unlocks h.mu.
func (h *Host) finishSendLocked(dst packet.IP4, ext, frame []byte, fb *packet.FrameBatch) {
	ready, arpFor, myIP := h.routeLocked(dst, frame)
	if ready && fb != nil {
		fb.Commit(ext)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	if ready {
		h.send(frame)
		h.putTxBuf(ext)
		return
	}
	// Unroutable or queued pending ARP: a batch build is simply left
	// uncommitted; a scratch build is returned.
	if fb == nil {
		h.putTxBuf(ext)
	}
	if !arpFor.IsZero() {
		h.send(packet.AppendARPRequest(nil, h.MAC, myIP, arpFor))
	}
}

// routeLocked resolves the next-hop MAC for a frame serialized with a
// zero destination MAC, patching it in place. Under a /32 lease every
// destination is off-link, so everything goes via the gateway — the
// Homework mechanism that forces all flows through the router. When the
// next hop's MAC is unresolved the frame is copied onto the ARP wait
// queue and the address to ARP for is returned. Caller holds h.mu.
func (h *Host) routeLocked(dst packet.IP4, frame []byte) (ready bool, arpFor, myIP packet.IP4) {
	nexthop := dst
	if h.mask < 32 {
		if dst.Mask(h.mask) != h.ip.Mask(h.mask) {
			nexthop = h.gw
		}
	} else {
		nexthop = h.gw
	}
	if nexthop.IsZero() {
		return false, packet.IP4{}, packet.IP4{}
	}
	if mac, known := h.arp[nexthop]; known {
		copy(frame[0:6], mac[:])
		return true, packet.IP4{}, packet.IP4{}
	}
	h.arpWait[nexthop] = append(h.arpWait[nexthop], append([]byte(nil), frame...))
	return false, nexthop, h.ip
}

// txBufLocked pops a transmit scratch buffer off the free-list (caller
// holds h.mu).
func (h *Host) txBufLocked() []byte {
	if n := len(h.txFree); n > 0 {
		b := h.txFree[n-1]
		h.txFree = h.txFree[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 2048)
}

// putTxBuf returns a transmit scratch buffer to the free-list. The list
// is bounded by its preallocated capacity, so returning never allocates.
func (h *Host) putTxBuf(b []byte) {
	h.mu.Lock()
	if len(h.txFree) < cap(h.txFree) {
		h.txFree = append(h.txFree, b)
	}
	h.mu.Unlock()
}

// lend sets the batch the host's app sends serialize into (nil ends the
// batching window; sends then transmit one by one). Only Network.Step
// calls this, and only one step runs per network at a time.
func (h *Host) lend(fb *packet.FrameBatch) {
	h.mu.Lock()
	h.batch = fb
	h.mu.Unlock()
}

// ephemeralPort hands out client port numbers.
func (h *Host) ephemeralPort() uint16 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 49152
	}
	return p
}

// AddApp attaches a traffic application to the host.
func (h *Host) AddApp(a *App) {
	a.host = h
	a.srcPort = h.ephemeralPort()
	h.mu.Lock()
	h.apps = append(h.apps, a)
	h.mu.Unlock()
}

// appsSnapshot returns the apps slice without copying: the list is
// append-only, so a slice-header snapshot taken under the lock is an
// immutable view (the tick path uses this to avoid a per-host copy per
// step).
func (h *Host) appsSnapshot() []*App {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.apps
}

// String identifies the host in logs.
func (h *Host) String() string { return fmt.Sprintf("%s(%s)", h.Name, h.MAC) }
