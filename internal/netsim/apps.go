package netsim

import (
	"sync"

	"repro/internal/packet"
)

// AppKind selects a canned traffic profile: the workloads the paper's
// bandwidth interface displays.
type AppKind uint8

// Application profiles.
const (
	AppWeb   AppKind = iota // bursty HTTP/HTTPS request-response
	AppVideo                // steady high-rate streaming over TCP 443
	AppVoIP                 // constant small UDP at 5060
	AppP2P                  // several parallel TCP flows on 6881
	AppIoT                  // periodic tiny UDP telemetry
	AppDNS                  // bare DNS chatter
)

// String names the profile.
func (k AppKind) String() string {
	switch k {
	case AppWeb:
		return "web"
	case AppVideo:
		return "video"
	case AppVoIP:
		return "voip"
	case AppP2P:
		return "p2p"
	case AppIoT:
		return "iot"
	case AppDNS:
		return "dns"
	}
	return "app"
}

// App generates traffic from a host to a target (hostname or literal IP).
// Each Step emits the frames for one simulated tick.
type App struct {
	Kind   AppKind
	Target string // hostname to resolve, or dotted IP
	// RateBps is the target payload rate in bytes per second.
	RateBps int
	// PacketSize is the payload bytes per packet (default per profile).
	PacketSize int

	host    *Host
	srcPort uint16

	mu       sync.Mutex
	dst      packet.IP4
	resolved bool
	failed   bool
	synSent  bool
	seq      uint32
	carry    float64 // fractional packet accumulation
	sent     uint64  // payload bytes sent
	flows    int     // parallel flows for p2p
	payload  []byte  // reused all-zero payload scratch, PacketSize bytes

	churnEvery float64 // seconds between fresh connections (0 = one flow)
	churnCarry float64
}

// NewApp builds an application with profile defaults.
func NewApp(kind AppKind, target string, rateBps int) *App {
	a := &App{Kind: kind, Target: target, RateBps: rateBps}
	switch kind {
	case AppWeb:
		a.PacketSize = 1200
	case AppVideo:
		a.PacketSize = 1400
	case AppVoIP:
		a.PacketSize = 160
	case AppP2P:
		a.PacketSize = 1400
		a.flows = 4
	case AppIoT:
		a.PacketSize = 64
	case AppDNS:
		a.PacketSize = 48
	}
	return a
}

// SetFlowChurn makes the app open a fresh connection (a new source port,
// hence a new five-tuple) every sec simulated seconds instead of holding
// one long-lived flow. Under the paper's reactive design every new flow's
// first packet punts to the controller, so churn keeps the control plane
// exercised the way real browsing does. Zero disables churn.
func (a *App) SetFlowChurn(sec float64) {
	a.mu.Lock()
	a.churnEvery = sec
	a.mu.Unlock()
}

// DstPort returns the destination port of the profile.
func (a *App) DstPort() uint16 {
	switch a.Kind {
	case AppWeb:
		return 80
	case AppVideo:
		return 443
	case AppVoIP:
		return 5060
	case AppP2P:
		return 6881
	case AppIoT:
		return 8883
	case AppDNS:
		return 53
	}
	return 9
}

// Proto returns the transport protocol of the profile.
func (a *App) Proto() packet.IPProto {
	switch a.Kind {
	case AppVoIP, AppIoT, AppDNS:
		return packet.ProtoUDP
	default:
		return packet.ProtoTCP
	}
}

// SentBytes returns payload bytes emitted so far.
func (a *App) SentBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

// Step advances the application by dt seconds, emitting traffic.
func (a *App) Step(dt float64) {
	if a.host == nil || !a.host.Bound() {
		return
	}
	a.mu.Lock()
	if a.failed {
		a.mu.Unlock()
		return
	}
	if !a.resolved {
		a.mu.Unlock()
		a.resolve()
		return
	}
	if a.churnEvery > 0 {
		a.churnCarry += dt
		if a.churnCarry >= a.churnEvery {
			a.churnCarry -= a.churnEvery
			// A fresh connection: new source port, new five-tuple. The
			// first packet of the new flow misses in the datapath and
			// punts, exactly like a real page load's next connection; the
			// old flow idles out of the table.
			a.srcPort++
			if a.srcPort < 32768 {
				a.srcPort = 32768
			}
			a.synSent = false
			a.seq = 0
		}
	}
	dst := a.dst
	budget := a.carry + float64(a.RateBps)*dt
	n := int(budget / float64(a.PacketSize))
	a.carry = budget - float64(n*a.PacketSize)
	needSyn := a.Proto() == packet.ProtoTCP && !a.synSent
	if needSyn {
		a.synSent = true
	}
	seq := a.seq
	a.seq += uint32(n * a.PacketSize)
	a.sent += uint64(n * a.PacketSize)
	flows := a.flows
	if flows == 0 {
		flows = 1
	}
	srcPort := a.srcPort
	// The payload is opaque zero filler: one per-app buffer serves every
	// packet (frame builders copy it), so Step allocates nothing in
	// steady state.
	if cap(a.payload) < a.PacketSize {
		a.payload = make([]byte, a.PacketSize)
	}
	payload := a.payload[:a.PacketSize]
	a.mu.Unlock()

	if needSyn {
		for f := 0; f < flows; f++ {
			a.host.sendTCP(dst, srcPort+uint16(f), a.DstPort(), packet.TCPSyn, 0, nil, 0)
		}
	}
	for i := 0; i < n; i++ {
		port := srcPort + uint16(i%flows)
		switch a.Proto() {
		case packet.ProtoUDP:
			a.host.sendUDP(dst, port, a.DstPort(), payload, fillerSum)
		default:
			a.host.sendTCP(dst, port, a.DstPort(), packet.TCPAck|packet.TCPPsh, seq+uint32(i*a.PacketSize), payload, fillerSum)
		}
	}
}

// resolve kicks off target resolution (idempotent; retried on failure so a
// policy change can unblock a previously denied name).
func (a *App) resolve() {
	if ip, err := packet.ParseIP4(a.Target); err == nil {
		a.mu.Lock()
		a.dst, a.resolved = ip, true
		a.mu.Unlock()
		return
	}
	a.host.Resolve(a.Target, func(ip packet.IP4, ok bool) {
		a.mu.Lock()
		if ok {
			a.dst, a.resolved = ip, true
		}
		a.mu.Unlock()
	})
}
