package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// flowModTap sits on the controller's end of the control channel (install
// it as Config.WrapTransport): it counts the flow-mod ADDs the controller
// sends and, when armed, loses the next one that references a buffer — a
// new flow's rule dropped on the wire.
type flowModTap struct {
	oftransport.Transport
	adds     atomic.Uint64
	dropNext atomic.Bool
	dropped  atomic.Uint64
}

func (tap *flowModTap) wrap(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport) {
	tap.Transport = ctl
	return tap, dp
}

func (tap *flowModTap) Send(msg openflow.Message) error {
	if fm, ok := msg.(*openflow.FlowMod); ok && fm.Command == openflow.FlowModAdd && fm.BufferID != openflow.NoBuffer {
		tap.adds.Add(1)
		if tap.dropNext.CompareAndSwap(true, false) {
			tap.dropped.Add(1)
			return nil
		}
	}
	return tap.Transport.Send(msg)
}

// simHome is one router on a simulated clock with a wired, bound host that
// has already resolved its gateway's address.
type simHome struct {
	t    *testing.T
	r    *Router
	clk  *clock.Simulated
	tap  *flowModTap
	host *netsim.Host
}

func newSimHome(t *testing.T) *simHome {
	t.Helper()
	h := &simHome{t: t, clk: clock.NewSimulated(), tap: &flowModTap{}}
	h.r = startRouter(t, func(c *Config) {
		c.Clock = h.clk
		c.DisableRPC = true
		c.WrapTransport = h.tap.wrap
	})
	h.host = join(t, h.r, "laptop", "02:aa:00:00:00:41", false, netsim.Pos{})
	// A first routed packet (a DNS query) makes the host ARP for the
	// router, so the ticks the tests count carry only the apps' flows.
	h.host.Resolve("example.com", func(packet.IP4, bool) {})
	h.tick()
	return h
}

// tick is one fleet tick for the home: traffic, settle, then time moves.
func (h *simHome) tick() {
	h.t.Helper()
	h.r.Net.Step(0.25)
	if err := h.r.Settle(); err != nil {
		h.t.Fatal(err)
	}
	h.clk.Advance(250 * time.Millisecond)
}

// webEntries counts the exact-match entries of the web app's flows: toward
// port 80 and back from it.
func (h *simHome) webEntries() (out, back int) {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
	m.DLType, m.NWProto, m.TPDst = packet.EtherTypeIPv4, uint8(packet.ProtoTCP), 80
	out = len(h.r.Datapath.Table().Entries(&m, openflow.PortNone))
	m.Wildcards |= openflow.FWTPDst
	m.Wildcards &^= openflow.FWTPSrc
	m.TPDst, m.TPSrc = 0, 80
	back = len(h.r.Datapath.Table().Entries(&m, openflow.PortNone))
	return out, back
}

// churnRun drives a web app that opens one new connection per tick and
// returns the control path's books over the measured ticks.
func churnRun(t *testing.T, ticks int) string {
	h := newSimHome(t)
	app := netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000)
	app.SetFlowChurn(0.25)
	h.host.AddApp(app)
	for i := 0; i < 3; i++ { // resolve the target, open the first connections
		h.tick()
	}

	punts0 := h.r.Datapath.PuntCount()
	adds0 := h.tap.adds.Load()
	admitted0, _ := h.r.Forwarder.Counters()
	lookups0, _ := h.r.Datapath.Table().Counters()
	out0, back0 := h.webEntries()
	for i := 0; i < ticks; i++ {
		h.tick()
	}
	punts := h.r.Datapath.PuntCount() - punts0
	adds := h.tap.adds.Load() - adds0
	admitted, denied := h.r.Forwarder.Counters()
	admitted -= admitted0
	// The matched count is left out of the books: how many of a flow's
	// frames arrive after its rule, rather than wait behind its punt,
	// depends on the scheduler.
	lookups, _ := h.r.Datapath.Table().Counters()
	out, back := h.webEntries()

	// Every connection is two flows — out, and the upstream's replies
	// back — and each costs exactly one packet-in, one verdict and one
	// flow-mod, however many of its frames missed before the rule landed.
	want := uint64(2 * ticks)
	if punts != want || adds != want || admitted != want || denied != 0 {
		t.Errorf("%d new connections: %d packet-ins, %d flow-mods, %d admitted, %d denied; want %d each and none denied",
			ticks, punts, adds, admitted, denied, want)
	}
	if out-out0 != ticks || back-back0 != ticks {
		t.Errorf("%d new connections left %d entries out and %d back", ticks, out-out0, back-back0)
	}
	if h.r.Controller.Processed() != h.r.Datapath.PuntCount() {
		t.Errorf("dispatched %d of %d packet-ins", h.r.Controller.Processed(), h.r.Datapath.PuntCount())
	}
	rx, tx, _ := h.r.Upstream.Counters()
	return fmt.Sprintf("punts=%d adds=%d admitted=%d lookups=%d entries=%d sent=%d upstream_rx=%d upstream_tx=%d",
		punts, adds, admitted, lookups-lookups0, h.r.Datapath.Table().Len(), app.SentBytes(), rx, tx)
}

// The exact counter gate (ROADMAP 1(b), first instalment): packet-ins and
// flow-mods per new connection are a seed-determined count with a ceiling
// of one per flow, not a race between the batch and the controller.
func TestPuntsPerNewConnection(t *testing.T) {
	first := churnRun(t, 40)
	if second := churnRun(t, 40); first != second {
		t.Errorf("two runs of the same workload differ:\n%s\n%s", first, second)
	}
}

// A new flow's flow-mod lost on the wire leaves its first tick's frames
// behind an unanswered punt; nothing times out. The next tick's first
// frame arrives at a new clock reading, punts afresh, and the flow
// converges: rules both ways, traffic through, and no punts after that.
func TestDroppedFlowModHealsNextTick(t *testing.T) {
	h := newSimHome(t)
	app := netsim.NewApp(netsim.AppWeb, "203.0.113.10", 40_000)
	h.host.AddApp(app)
	h.tick() // resolves the literal target; no traffic yet

	h.tap.dropNext.Store(true)
	punts := h.r.Datapath.PuntCount()
	rx0, tx0, _ := h.r.Upstream.Counters()
	h.tick()
	if h.tap.dropped.Load() != 1 {
		t.Fatalf("dropped %d flow-mods, want 1", h.tap.dropped.Load())
	}
	if got := h.r.Datapath.PuntCount() - punts; got != 1 {
		t.Errorf("tick with the lost flow-mod: %d packet-ins, want 1", got)
	}
	if out, back := h.webEntries(); out != 0 || back != 0 {
		t.Fatalf("entries %d out, %d back although the flow-mod was lost", out, back)
	}
	if rx, _, _ := h.r.Upstream.Counters(); rx != rx0 {
		t.Fatalf("upstream received %d bytes of a flow with no rule", rx-rx0)
	}

	punts = h.r.Datapath.PuntCount()
	h.tick()
	if got := h.r.Datapath.PuntCount() - punts; got != 2 {
		t.Errorf("next tick: %d packet-ins, want 2 (the flow again, and its replies)", got)
	}
	if out, back := h.webEntries(); out != 1 || back != 1 {
		t.Errorf("after the next tick: entries %d out, %d back; want 1 and 1", out, back)
	}
	if rx, tx, _ := h.r.Upstream.Counters(); rx == rx0 || tx == tx0 {
		t.Errorf("after the next tick: upstream received %d and sent %d bytes", rx-rx0, tx-tx0)
	}

	punts = h.r.Datapath.PuntCount()
	h.tick()
	if got := h.r.Datapath.PuntCount() - punts; got != 0 {
		t.Errorf("converged flow punted %d more", got)
	}
}

// Punts nothing references — pings the router answers itself, here — must
// not use the packet-in buffer up: after more of them than it has slots,
// a new connection's SYN is still buffered, released by its flow-mod and
// answered by the upstream. The pings arrive as one burst at one clock
// reading, so all but the first wait behind a punt and come back one by
// one as each discard releases the next.
func TestPingsDoNotExhaustPacketBuffers(t *testing.T) {
	h := newSimHome(t)
	var mu sync.Mutex
	echoes, synAcks := 0, 0
	h.host.SetOnFrame(func(frame []byte) {
		var d packet.Decoded
		if err := d.Decode(frame); err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case d.HasICMP && d.ICMP.Type == packet.ICMPEchoReply:
			echoes++
		case d.HasTCP && d.TCP.Flags&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck:
			synAcks++
		}
	})
	const pings = 300
	for i := 0; i < pings; i++ {
		h.host.SendRaw(packet.AppendICMPEchoFrame(nil, h.host.MAC, h.r.Config.RouterMAC, h.host.IP(), h.r.Config.RouterIP,
			packet.ICMPEchoRequest, 1, uint16(i), []byte("hello")))
	}
	if err := h.r.Settle(); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(250 * time.Millisecond)

	h.host.SendRaw(packet.AppendTCPFrame(nil, h.host.MAC, h.r.Config.RouterMAC, h.host.IP(), packet.MustIP4("203.0.113.10"),
		45000, 80, packet.TCPSyn, 1, 0, nil))
	if err := h.r.Settle(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if echoes != pings {
		t.Errorf("%d echo replies for %d pings", echoes, pings)
	}
	if synAcks != 1 {
		t.Errorf("%d SYN-ACKs: the new flow's first packet was not buffered and forwarded", synAcks)
	}
	if out, back := h.webEntries(); out != 1 || back != 1 {
		t.Errorf("entries %d out, %d back; want 1 and 1", out, back)
	}
}
