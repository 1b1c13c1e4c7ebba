package netsim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/datapath"
	"repro/internal/packet"
)

// LinkInfo is the link-layer state of one station, as the router's WiFi
// driver would report it; the measurement plane polls it into the hwdb
// Links table.
type LinkInfo struct {
	MAC     packet.MAC
	RSSI    int
	Retries int // cumulative retransmissions
	Rate    float64
}

// Network wires simulated hosts to datapath ports and applies the wireless
// model on station uplinks.
type Network struct {
	dp       *datapath.Datapath
	wireless *Wireless
	routerAt Pos

	mu       sync.Mutex
	hosts    map[packet.MAC]*Host
	byPort   map[uint16]*Host
	upstream *Upstream
	nextPort uint16
	links    map[packet.MAC]*LinkInfo
	maxRetry int
	directL2 bool
	ordered  []*Host // port-ordered host cache; nil when membership changed

	// Link-fault injection (chaos): while faultDen > 0, faultNum out of
	// every faultDen host frames are dropped on their way into the
	// datapath, counted on the transmitting port's rx-drop counter. The
	// drop pattern is a deterministic counter, not a coin flip, so the
	// loss is partial and reproducible — the measurement plane only
	// attributes drops to flows that stayed active in the round.
	faultNum int
	faultDen int
	faultCtr uint64
}

// New creates a network around an existing datapath. Wireless hosts are
// attached with the given propagation model (DefaultWireless if nil).
func New(dp *datapath.Datapath, w *Wireless) *Network {
	if w == nil {
		w = DefaultWireless(1)
	}
	return &Network{
		dp:       dp,
		wireless: w,
		hosts:    make(map[packet.MAC]*Host),
		byPort:   make(map[uint16]*Host),
		links:    make(map[packet.MAC]*LinkInfo),
		nextPort: 1,
		maxRetry: 7,
	}
}

// Datapath returns the underlying switch.
func (n *Network) Datapath() *datapath.Datapath { return n.dp }

// Wireless returns the propagation model applied to station uplinks (the
// chaos layer's hook for interference bursts).
func (n *Network) Wireless() *Wireless { return n.wireless }

// SetLinkFault makes the host fabric drop num out of every den frames on
// the way into the datapath — a flapping cable, a failing switch chip.
// num <= 0 (or den <= 0) clears the fault. Drops land on the
// transmitting port's rx-drop counter so the measurement plane
// attributes the loss to the flows crossing it.
func (n *Network) SetLinkFault(num, den int) {
	n.mu.Lock()
	n.faultNum, n.faultDen = num, den
	n.faultCtr = 0
	n.mu.Unlock()
}

// linkFaultDrop advances the fault pattern by one frame and reports
// whether that frame is dropped. The caller holds n.mu.
func (n *Network) linkFaultDrop() bool {
	if n.faultNum <= 0 || n.faultDen <= 0 {
		return false
	}
	n.faultCtr++
	return int(n.faultCtr%uint64(n.faultDen)) < n.faultNum
}

// AddHost creates a host, attaches it to a fresh datapath port, and
// returns it. Wireless hosts are subject to the propagation model.
func (n *Network) AddHost(name string, mac packet.MAC, wireless bool, pos Pos) (*Host, error) {
	h := newHost(name, mac, wireless, pos)
	h.net = n
	n.mu.Lock()
	if _, dup := n.hosts[mac]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: duplicate MAC %s", mac)
	}
	port := n.nextPort
	n.nextPort++
	h.port = port
	n.hosts[mac] = h
	n.byPort[port] = h
	n.ordered = nil
	if wireless {
		n.links[mac] = &LinkInfo{MAC: mac, RSSI: n.wireless.RSSI(pos.dist(n.routerAt)), Rate: 54}
	}
	n.mu.Unlock()

	err := n.dp.AddPort(&datapath.Port{
		No: port, Name: fmt.Sprintf("port%d-%s", port, name), HWAddr: mac,
		Out: func(frame []byte) { h.Deliver(frame) },
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// RemoveHost detaches a host from its datapath port and forgets its link
// state: the device left the home (fleet churn, or simply powered off).
// The host object stays usable as a record but can no longer transmit.
func (n *Network) RemoveHost(mac packet.MAC) error {
	n.mu.Lock()
	h, ok := n.hosts[mac]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no host %s", mac)
	}
	delete(n.hosts, mac)
	delete(n.byPort, h.port)
	delete(n.links, mac)
	n.ordered = nil
	n.mu.Unlock()
	n.dp.RemovePort(h.port)
	return nil
}

// Host returns a host by MAC.
func (n *Network) Host(mac packet.MAC) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[mac]
	return h, ok
}

// HostCount returns the number of attached hosts without building the
// slice Hosts allocates — telemetry reads it once per home per commit.
func (n *Network) HostCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.hosts)
}

// Hosts returns all hosts in ascending port order: a copy, so a caller
// that loops over it (the chaos layer's DHCP storm, the direct-L2
// broadcast) visits the hosts, and draws from the seeded wireless model,
// in the same order every run.
func (n *Network) Hosts() []*Host {
	return append([]*Host(nil), n.orderedHosts()...)
}

// AttachUpstream creates the upstream (ISP + Internet) host on a fresh
// port and returns it.
func (n *Network) AttachUpstream(u *Upstream) (uint16, error) {
	n.mu.Lock()
	port := n.nextPort
	n.nextPort++
	n.upstream = u
	n.mu.Unlock()
	u.net = n
	u.port = port
	err := n.dp.AddPort(&datapath.Port{
		No: port, Name: "eth0-upstream", HWAddr: u.MAC,
		Out: func(frame []byte) { u.deliver(frame) },
	})
	if err != nil {
		return 0, err
	}
	return port, nil
}

// UpstreamPort returns the upstream's port number (0 if not attached).
func (n *Network) UpstreamPort() uint16 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.upstream == nil {
		return 0
	}
	return n.upstream.port
}

// SetDirectL2 models a conventional home switch fabric: frames addressed
// to another host's MAC are delivered directly, bypassing the router's
// datapath. Meaningful only with /24 leases (under the Homework /32 scheme
// hosts never address each other at layer 2) — the ablation that shows why
// the paper's DHCP trick matters.
func (n *Network) SetDirectL2(on bool) {
	n.mu.Lock()
	n.directL2 = on
	n.mu.Unlock()
}

// directL2On reports whether the direct-L2 ablation is on.
func (n *Network) directL2On() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.directL2
}

// admit takes a host transmission's draws on its way to the switch port —
// the wireless model on station uplinks, the link fault, the direct-L2
// ablation's delivery to a peer (direct is the ablation's setting, read
// once by the caller) — and reports whether it reaches the port. The link
// update and the fault pattern share one lock section. A frame lost on the
// way is counted on the port's rx-drop counter.
func (n *Network) admit(h *Host, frame []byte, direct bool) bool {
	lost := false
	var rssi, retries int
	if h.Wireless {
		var delivered bool
		rssi, retries, delivered = n.wireless.uplink(h.Pos().dist(n.routerAt), n.maxRetry)
		lost = !delivered
	}
	n.mu.Lock()
	if h.Wireless {
		li := n.links[h.MAC]
		if li == nil {
			li = &LinkInfo{MAC: h.MAC}
			n.links[h.MAC] = li
		}
		li.RSSI = rssi
		li.Retries += retries
		li.Rate = n.wireless.Rate(rssi)
	}
	lost = lost || n.linkFaultDrop() // a frame the radio lost does not advance the fault
	n.mu.Unlock()
	if lost {
		if p, ok := n.dp.Port(h.port); ok {
			p.CountRxDrop()
		}
		return false
	}

	// Conventional-switch shortcut (ablation): unicast frames between
	// hosts never reach the router.
	var e packet.Ethernet
	if direct && e.DecodeFromBytes(frame) == nil {
		switch {
		case e.Dst.IsBroadcast(): // to every host on the segment as well as the router
			for _, peer := range n.Hosts() {
				if peer != h {
					peer.Deliver(frame)
				}
			}
		case !e.Dst.IsMulticast():
			if peer, ok := n.Host(e.Dst); ok && peer != h {
				peer.Deliver(frame)
				return false
			}
		}
	}
	return true
}

// AppendLinkInfos appends the wireless link state of every station to dst,
// in port order, and returns it. RSSI is refreshed from current positions
// (so a silent station still reports signal strength, as the artifact's
// walk-through mode needs); each refresh draws the station's shadowing from
// the one seeded model, so the port order is what makes a seed give each
// station the same draws.
func (n *Network) AppendLinkInfos(dst []LinkInfo) []LinkInfo {
	hosts := n.orderedHosts()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range hosts {
		li := n.links[h.MAC]
		if li == nil {
			continue
		}
		li.RSSI = n.wireless.RSSI(h.Pos().dist(n.routerAt))
		li.Rate = n.wireless.Rate(li.RSSI)
		dst = append(dst, *li)
	}
	return dst
}

// Step advances every application by dt seconds of simulated traffic.
// It first expires the datapath's timed-out flows at the current clock
// reading: the step that advances a home's network is the one clock-driven
// process in it, so a flow leaves on the first step at or after its
// deadline, and its flow-removed is on the control channel ahead of
// anything the step's traffic triggers. Hosts are stepped in ascending
// port order (not map order), so a tick's emission sequence is
// deterministic. Each host's application traffic is serialized into one
// frame batch and handed to the datapath in one call, amortizing port
// lookup, receive accounting and frame decode state across the tick.
//
// The batch is not the host's or the network's: the step borrows one from
// a process-wide stock, lends it to each host in turn and returns it when
// the step ends, so a process keeps one tick's frames per goroutine that
// steps networks, not one per host it has ever stepped, and steady-state
// traffic generation does not allocate. A frame aliases the batch only for
// the deliverBatch call that hands it to the datapath.
func (n *Network) Step(dt float64) {
	n.dp.SweepExpired()
	fb := borrowBatch()
	for _, h := range n.orderedHosts() {
		h.lend(fb)
		for _, a := range h.appsSnapshot() {
			a.Step(dt)
		}
		h.lend(nil)
		n.deliverBatch(h, fb)
	}
	returnBatch(fb)
}

// stockedBatches bounds the stock: one batch per goroutine that steps
// networks at once, up to this many, is kept between steps; a batch
// returned to a full stock is left to the collector.
const stockedBatches = 16

// batchStock is the process-wide stock of step batches. It is a bounded
// free list, not a sync.Pool: a pool empties at every collection, and a
// batch grown to a tick of bulk traffic would be allocated again after it.
var batchStock struct {
	mu   sync.Mutex
	free []*packet.FrameBatch
}

// borrowBatch takes an empty batch from the stock, or a new one.
func borrowBatch() *packet.FrameBatch {
	batchStock.mu.Lock()
	defer batchStock.mu.Unlock()
	if k := len(batchStock.free); k > 0 {
		fb := batchStock.free[k-1]
		batchStock.free[k-1] = nil
		batchStock.free = batchStock.free[:k-1]
		return fb
	}
	return &packet.FrameBatch{}
}

// returnBatch gives an empty batch back to the stock.
func returnBatch(fb *packet.FrameBatch) {
	batchStock.mu.Lock()
	defer batchStock.mu.Unlock()
	if len(batchStock.free) < stockedBatches {
		batchStock.free = append(batchStock.free, fb)
	}
}

// orderedHosts returns the hosts sorted by port number. The list is
// cached and rebuilt only when membership changes, so a steady-state
// tick does not allocate or sort; the returned snapshot stays valid (and
// immutable) even if a host joins or leaves mid-iteration.
func (n *Network) orderedHosts() []*Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ordered == nil {
		out := make([]*Host, 0, len(n.hosts))
		for _, h := range n.hosts {
			out = append(out, h)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].port < out[j].port })
		n.ordered = out
	}
	return n.ordered
}

// deliverBatch injects one host's per-step batch into the datapath in one
// call. A wireless host (per-frame loss model), a faulty link and the
// direct-L2 ablation first take each frame's draws (admit), in order, and
// drop the frames that do not reach the port from the batch.
func (n *Network) deliverBatch(h *Host, fb *packet.FrameBatch) {
	defer fb.Reset()
	if fb.Len() == 0 {
		return
	}
	n.mu.Lock()
	direct := n.directL2
	faulty := n.faultNum > 0 && n.faultDen > 0
	n.mu.Unlock()
	if h.Wireless || direct || faulty {
		fb.Keep(func(frame []byte) bool { return n.admit(h, frame, direct) })
	}
	n.dp.ReceiveBatch(h.port, fb)
}
