package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/controlapi"
	"repro/internal/datapath"
	"repro/internal/dhcp"
	"repro/internal/dnsproxy"
	"repro/internal/hwdb"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TransportKind selects how the NOX controller and the datapath exchange
// OpenFlow messages.
type TransportKind string

// Control-plane transports. In-process is the default: the paper's
// controller and switch are co-resident on one home router, so they are
// joined by an oftransport.Direct channel — a punt is dispatched inside
// the datapath call that makes it, and the answers are handled when that
// call returns, with no queue, no goroutine and no serialize → TCP →
// deserialize round trip. TCP keeps the byte-exact loopback wire path for
// cross-process deployments (cmd/hwrouterd) and for benchmarking the
// in-process win.
const (
	TransportInProcess TransportKind = "inprocess"
	TransportTCP       TransportKind = "tcp"
)

// Config parameterizes the whole platform.
type Config struct {
	// RouterIP/RouterMAC identify the router on the home side.
	RouterIP  packet.IP4
	RouterMAC packet.MAC
	// PoolStart/PoolEnd bound DHCP allocation.
	PoolStart, PoolEnd packet.IP4
	// HostRoutes selects /32 leases (the paper's scheme). Default true.
	HostRoutes bool
	// AutoPermit admits devices without operator action (tests/benches).
	AutoPermit bool
	// DirectL2 models a conventional switch fabric (only meaningful with
	// HostRoutes=false; the A1 ablation).
	DirectL2 bool
	// RingSize is the hwdb per-table ring capacity.
	RingSize int
	// FlowIdleTimeout shapes installed flows (seconds, default 30).
	FlowIdleTimeout uint16
	// Clock drives every time-dependent module (default wall clock).
	Clock clock.Clock
	// Seed seeds the wireless model.
	Seed int64
	// DisableRPC skips the per-router hwdb UDP server. Fleet deployments
	// aggregate hwdb state centrally and would otherwise bind one socket
	// per home.
	DisableRPC bool
	// Transport selects the controller↔datapath channel
	// (TransportInProcess when empty).
	Transport TransportKind
	// WrapTransport, when set, interposes on the in-process control
	// channel before either side attaches: it receives the controller and
	// datapath ends of the direct channel and returns the (possibly
	// wrapped) ends each side sends on. This is the chaos layer's
	// fault-injection seam —
	// wedged controllers, dropped or delayed flow-mods — so wrappers
	// must preserve the full Transport contract (ordering, ownership,
	// Close semantics) for messages they pass through. Only the
	// in-process transport is wrapped; TCP deployments are outside the
	// fault model.
	WrapTransport func(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport)
}

// DefaultConfig returns the configuration used by the examples and the
// figure harness: a 192.168.1.0/24 home with /32 leases.
func DefaultConfig() Config {
	return Config{
		RouterIP:   packet.MustIP4("192.168.1.1"),
		RouterMAC:  packet.MustMAC("02:01:00:00:00:01"),
		PoolStart:  packet.MustIP4("192.168.1.10"),
		PoolEnd:    packet.MustIP4("192.168.1.250"),
		HostRoutes: true,
		AutoPermit: false,
		RingSize:   hwdb.DefaultRingSize,
		Seed:       1,
		Transport:  TransportInProcess,
	}
}

// Router is the assembled Homework platform.
type Router struct {
	Config Config
	Clock  clock.Clock

	DB         *hwdb.DB
	HwdbServer *hwdb.Server
	Controller *nox.Controller
	Datapath   *datapath.Datapath
	Net        *netsim.Network
	Upstream   *netsim.Upstream
	DHCP       *dhcp.Server
	DNS        *dnsproxy.Proxy
	Policy     *policy.Engine
	API        *controlapi.API
	Forwarder  *Forwarder
	Measure    *measure.Plane
	// Tracer holds the home's punt-lifecycle spans and per-stage latency
	// histograms. Tracing is always on; trace methods are nil-safe all the
	// same.
	Tracer *trace.Tracer

	sw *nox.Switch
	// direct is set when the datapath is attached in process, over an
	// oftransport.Direct channel: a drain then leaves every answer handled,
	// and Settle needs no barrier.
	direct bool
}

// linkAdapter bridges netsim's link state to the measurement plane. Its
// buffer is reused from poll to poll; the plane polls from one goroutine.
type linkAdapter struct {
	net *netsim.Network
	buf []netsim.LinkInfo
}

func (l *linkAdapter) AppendLinkSamples(dst []measure.LinkSample) []measure.LinkSample {
	l.buf = l.net.AppendLinkInfos(l.buf[:0])
	for _, li := range l.buf {
		dst = append(dst, measure.LinkSample{MAC: li.MAC, RSSI: li.RSSI, Retries: li.Retries, Rate: li.Rate})
	}
	return dst
}

// New assembles a router and its simulated home network. Call Start to
// bring the control plane up.
func New(cfg Config) (*Router, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = hwdb.DefaultRingSize
	}
	if cfg.FlowIdleTimeout == 0 {
		cfg.FlowIdleTimeout = 30
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportInProcess
	}
	if cfg.Transport != TransportInProcess && cfg.Transport != TransportTCP {
		return nil, fmt.Errorf("core: unknown transport %q", cfg.Transport)
	}

	r := &Router{Config: cfg, Clock: cfg.Clock}
	r.DB = hwdb.NewHomework(cfg.Clock, cfg.RingSize)
	r.Policy = policy.NewEngine(cfg.Clock)

	r.Tracer = trace.New(trace.DefaultRingSize)
	r.Datapath = datapath.New(datapath.Config{
		ID: 0x00163e000001, Clock: cfg.Clock,
		Description: "Homework home router",
		Tracer:      r.Tracer,
	})
	r.Net = netsim.New(r.Datapath, netsim.DefaultWireless(cfg.Seed))
	if cfg.DirectL2 {
		r.Net.SetDirectL2(true)
	}
	r.Upstream = netsim.NewUpstream()
	r.Upstream.SetLocalNet(cfg.RouterIP, 24)
	upPort, err := r.Net.AttachUpstream(r.Upstream)
	if err != nil {
		return nil, fmt.Errorf("core: attaching upstream: %w", err)
	}
	// The WAN port is not part of the home broadcast domain.
	if p, ok := r.Datapath.Port(upPort); ok {
		p.Config |= openflow.PortConfigNoFlood
	}

	r.DHCP = dhcp.NewServer(dhcp.Config{
		ServerIP: cfg.RouterIP, ServerMAC: cfg.RouterMAC,
		PoolStart: cfg.PoolStart, PoolEnd: cfg.PoolEnd,
		HostRoutes: cfg.HostRoutes,
		AutoPermit: cfg.AutoPermit, Clock: cfg.Clock, DB: r.DB,
	})
	r.DNS = dnsproxy.New(dnsproxy.Config{
		RouterIP: cfg.RouterIP, RouterMAC: cfg.RouterMAC,
		UpstreamDNS: r.Upstream.DNSAddr, UpstreamPort: upPort,
		UpstreamMAC: r.Upstream.MAC,
		Policy:      r.Policy, Clock: cfg.Clock,
	})
	r.Forwarder = newForwarder()
	r.Forwarder.RouterIP = cfg.RouterIP
	r.Forwarder.RouterMAC = cfg.RouterMAC
	r.Forwarder.UpstreamPort = upPort
	r.Forwarder.UpstreamMAC = r.Upstream.MAC
	r.Forwarder.DHCP = r.DHCP
	r.Forwarder.DNS = r.DNS
	r.Forwarder.Policy = r.Policy
	r.Forwarder.IdleTimeout = cfg.FlowIdleTimeout

	r.API = controlapi.New(r.DHCP, r.Policy, cfg.RouterIP)

	r.Controller = nox.NewController()
	// Punted packets must arrive whole: the DHCP payload alone is 300
	// bytes and the modules parse punts directly.
	r.Controller.MissSendLen = 0xffff
	// Controller and datapath are co-resident on every transport (even on
	// the TCP loopback path), so they share the tracer: the datapath stamps
	// punts, the controller stamps dispatch/emit/credit/barrier.
	r.Controller.SetTracer(r.Tracer)
	// Registration order is the dispatch order: DHCP and DNS consume
	// their protocols before the forwarder sees anything. The forwarder
	// learns where each sender is ahead of all of them, so a device whose
	// only frames so far were its DHCP exchange is already reachable.
	r.Controller.OnPacketIn(r.Forwarder.learnSender)
	for _, comp := range []nox.Component{r.DHCP, r.DNS, r.API, r.Forwarder} {
		if err := r.Controller.Register(comp); err != nil {
			return nil, err
		}
	}

	r.Measure = measure.New(measure.Config{
		DB: r.DB, Clock: cfg.Clock,
		Stats:      r.Datapath.StatsView(),
		Links:      &linkAdapter{net: r.Net},
		Resolver:   r.DHCP,
		HomePrefix: cfg.RouterIP, HomePrefixLen: 24,
	})
	// Expiring flows report their final counters so the interval between
	// the last poll and the timeout is still accounted.
	r.Controller.OnFlowRemoved(func(ev *nox.FlowRemovedEvent) {
		r.Measure.RecordFlowRemoved(&ev.Msg.Match, ev.Msg.PacketCount, ev.Msg.ByteCount)
	})
	// Each forwarding rule's install latency — punt to flow-mod emission,
	// read off the in-flight span — lands in the flow's FlowPerf row.
	r.Forwarder.OnInstall = func(m openflow.Match) {
		r.Measure.RecordInstall(&m, r.Tracer.DispatchLatencyNS())
	}
	// hwctl trace / the REST surface read the same per-stage summaries.
	r.API.Trace = r.Tracer.Stats
	// hwctl replay scrubs a table's retained history (the live rings by
	// default; AS OF-grade depth when a HistorySource is set on r.DB).
	r.API.Replay = func(table string, from, to time.Time) (string, error) {
		res, err := r.DB.History(table, from, to)
		if err != nil {
			return "", err
		}
		return res.Text(), nil
	}
	return r, nil
}

// Start brings up the controller, attaches the datapath over the
// configured transport, and starts the hwdb RPC server. In process (the
// default) the two are joined by an oftransport.Direct channel: no
// goroutine is started, the handshake runs on the caller's, and the
// modules' punt rules are installed when it returns. Over loopback TCP
// (Config.Transport = TransportTCP) Start waits for the join and
// round-trips a barrier behind those rules. The measurement plane is left
// to the caller (PollMeasure) so simulated-clock runs stay deterministic.
func (r *Router) Start() error {
	switch r.Config.Transport {
	case TransportTCP:
		if err := r.startTCP(); err != nil {
			return err
		}
	default: // TransportInProcess — validated in New.
		ctlEnd, dpEnd := oftransport.Direct()
		var ctl, dp oftransport.Transport = ctlEnd, dpEnd
		if r.Config.WrapTransport != nil {
			ctl, dp = r.Config.WrapTransport(ctl, dp)
		}
		r.Datapath.AttachDirect(dpEnd, dp)
		sw, err := r.Controller.AttachDirect(ctlEnd, ctl)
		if err != nil {
			return fmt.Errorf("core: attaching the datapath: %w", err)
		}
		r.sw, r.direct = sw, true
	}

	if !r.Config.DisableRPC {
		r.HwdbServer = hwdb.NewServer(r.DB)
		if err := r.HwdbServer.Serve("127.0.0.1:0"); err != nil {
			return err
		}
	}
	return nil
}

// startTCP serves the controller on a loopback port, dials it from the
// datapath and waits for the join.
func (r *Router) startTCP() error {
	joined := make(chan *nox.Switch, 1)
	r.Controller.OnJoin(func(ev *nox.JoinEvent) {
		select {
		case joined <- ev.Switch:
		default:
		}
	})
	if err := r.Controller.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	go func() { _ = r.Datapath.ConnectTCP(r.Controller.Addr()) }()
	select {
	case sw := <-joined:
		r.sw = sw
	case <-time.After(10 * time.Second):
		return fmt.Errorf("core: datapath did not join the controller")
	}
	// The modules' OnJoin handlers ran before ours (registration order), so
	// their punt-rule flow-mods are already on the wire; round-trip a
	// barrier so a packet sent the instant Start returns cannot miss into
	// the default table-miss punt and arrive truncated.
	if err := r.sw.Barrier(); err != nil {
		return fmt.Errorf("core: barrier after join: %w", err)
	}
	return nil
}

// Switch returns the controller's handle on the datapath (valid after
// Start).
func (r *Router) Switch() *nox.Switch { return r.sw }

// Stop tears the platform down.
func (r *Router) Stop() {
	if r.HwdbServer != nil {
		_ = r.HwdbServer.Close()
	}
	if r.API != nil {
		_ = r.API.Close()
	}
	r.Datapath.Stop()
	_ = r.Controller.Close()
}

// PollMeasure runs one measurement round. Whoever steps the home calls it
// after Net.Step, which expires flows, and Settle, which drains their
// flow-removeds. The plane reads the co-resident datapath's counters in
// place, whichever transport the controller is attached over.
func (r *Router) PollMeasure() { r.Measure.PollOnce() }

// ErrWedged is what Settle and JoinHost return, wrapped, when the control
// path does not drain: punts the controller was never handed (a transport
// wrapper kept them, or the router was never started), or dispatches still
// outstanding after settleWait of barrier laps. Callers tell it from a
// failed barrier with errors.Is.
var ErrWedged = errors.New("core: the control path is wedged")

// Settle returns when the control path is quiescent: every packet-in the
// datapath has punted has been dispatched by the controller, and the
// flow-mods and packet-outs the dispatches produced are live in the
// datapath. It is safe to call from any goroutine and makes traffic
// injection deterministic for tests, figures and benches; the protocol is
// specified in docs/CONTROL_PLANE.md.
//
// Each lap drains the datapath's inbox and reads the books once: the
// controller's dispatches, then the datapath's punts. With nothing
// outstanding, a direct channel (every in-process home) or a router not
// yet started is quiescent: every answer was handled by the drain. Over
// TCP the answers may still be on the wire, so Settle round-trips a
// barrier and returns if no punt was counted behind it. Punts outstanding
// with no controller to hand them to — on a direct channel with no call in
// the datapath, or before Start — are a wedge, reported at once with an
// error that matches ErrWedged. Otherwise the dispatches are on their way:
// Settle round-trips a barrier, whose reply follows them, and takes
// another lap, for at most settleWait.
func (r *Router) Settle() error {
	var deadline time.Time
	for {
		punted, done, busy := r.Datapath.Drain(r.Controller.Processed)
		if done >= punted {
			if r.direct || r.sw == nil {
				return nil
			}
			// Every punt counted at this observation was dispatched, and
			// each dispatch sent its flow-mods and packet-outs before it
			// was counted, so a barrier sent now flushes all of them. If
			// the punt count is unchanged when it returns, nothing the
			// flush delivered punted again. Otherwise the flush advanced a
			// handshake chain (DHCP OFFER → REQUEST, DNS relay) and the new
			// punt's dispatch is waited for in turn. Comparing against the
			// count read here, not re-reading both, is load-bearing: a
			// dispatch completing between the barrier's send and its reply
			// could make the counts look settled though its output is
			// queued behind the barrier, not flushed by it.
			if err := r.sw.Barrier(); err != nil {
				return err
			}
			if r.Datapath.PuntCount() == punted {
				return nil
			}
			continue
		}
		if r.sw == nil || r.direct && !busy {
			return fmt.Errorf("core: control path did not settle (%d punts, %d dispatched; the rest never reached the controller): %w", punted, done, ErrWedged)
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(settleWait)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("core: control path did not settle within %v (%d punts, %d dispatched): %w", settleWait, punted, done, ErrWedged)
		}
		// The reply to a barrier follows every packet-in the datapath sent
		// before it, and the controller dispatches those before it matches
		// the reply; on a direct channel the call inside the datapath
		// answers the barrier when it drains. Either way the next lap sees
		// their dispatches.
		if err := r.sw.Barrier(); err != nil {
			return err
		}
	}
}

// AddHost adds a simulated device to the home network.
func (r *Router) AddHost(name, mac string, wireless bool, pos netsim.Pos) (*netsim.Host, error) {
	m, err := packet.ParseMAC(mac)
	if err != nil {
		return nil, err
	}
	return r.Net.AddHost(name, m, wireless, pos)
}

// settleWait bounds Settle's barrier laps while dispatches are outstanding:
// an error backstop, counted from the first such lap, not a polling cadence.
const settleWait = 5 * time.Second

// joinAttempts bounds how many DISCOVER handshakes JoinHost will start
// before giving up and returning the host unbound. Each attempt only
// begins once the previous exchange has fully drained, so the bound is on
// genuine losses (wireless drops, a DISCOVER that raced the punt rules),
// not on slow dispatch.
const joinAttempts = 16

// JoinHost runs a device through DHCP and waits for the verdict: bound,
// denied, or (when approval is pending) still unbound after the handshake
// settles.
//
// Retry contract: like a real DHCP client, the host re-issues its
// DISCOVER when an exchange completes without a lease — the first packet
// may have raced the punt-rule installation at join, or a wireless frame
// may have been lost. Retries are gated on control-path quiescence, not
// wall-clock time: a new DISCOVER is sent only after Settle confirms the
// previous exchange has fully drained (every punt dispatched, a barrier
// crossed with no response still in flight), so there is no fixed retry
// period and no sleep. A host left Pending by the admission policy stops
// the loop immediately — it stays unbound until the control interface
// acts. At most joinAttempts handshakes are started, whatever the wall
// clock says, so a join sends the same DISCOVERs on any machine; an unbound
// host after that is reported by Bound()/Denied(), not an error.
func (r *Router) JoinHost(h *netsim.Host) error {
	for attempt := 0; attempt < joinAttempts; attempt++ {
		h.StartDHCP()
		if err := r.Settle(); err != nil {
			return err
		}
		if h.Bound() || h.Denied() || r.pendingApproval(h) {
			return nil
		}
	}
	return nil
}

func (r *Router) pendingApproval(h *netsim.Host) bool {
	dev, ok := r.DHCP.Lookup(h.MAC)
	return ok && dev.State == dhcp.Pending
}
