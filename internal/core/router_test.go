package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dhcp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
)

// startRouter brings up a full platform with auto-permit enabled unless
// overridden by mutate.
func startRouter(t testing.TB, mutate func(*Config)) *Router {
	t.Helper()
	cfg := DefaultConfig()
	cfg.AutoPermit = true
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// join adds a host and completes DHCP, failing the test if it can't bind.
func join(t testing.TB, r *Router, name, mac string, wireless bool, pos netsim.Pos) *netsim.Host {
	t.Helper()
	h, err := r.AddHost(name, mac, wireless, pos)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JoinHost(h); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return h.Bound() || h.Denied() })
	return h
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// An in-process home runs no goroutine of its own: the controller handles
// each punt inside the datapath call that makes it, the datapath handles the
// answers when the outermost call returns, and whoever steps the home
// expires flows, settles and polls measurement. The parent commit read 2 per
// home, the controller's read loop and the datapath's channel loop (3 before
// flow expiry moved onto the step). Stop leaves nothing running either.
func TestInProcessHomeRunsNoGoroutines(t *testing.T) {
	const homes = 4
	// steady reads the goroutine count once it has held for 20 ms, so
	// goroutines of earlier tests still winding down are not counted.
	steady := func() int {
		n, deadline := runtime.NumGoroutine(), time.Now().Add(5*time.Second)
		for same := 0; same < 20 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				same++
			} else {
				n, same = m, 0
			}
		}
		return n
	}
	base := steady()
	var rs []*Router
	for i := 0; i < homes; i++ {
		cfg := DefaultConfig()
		cfg.Clock = clock.NewSimulated()
		cfg.DisableRPC = true
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	if n := steady(); n != base {
		t.Errorf("%d in-process homes run %d goroutines, want none", homes, n-base)
	}
	for _, r := range rs {
		r.Stop()
	}
	if n := steady(); n != base {
		t.Errorf("%d goroutines outlive Stop", n-base)
	}
}

func TestDHCPJoinHostRoutes(t *testing.T) {
	r := startRouter(t, nil)
	h := join(t, r, "toms-mac-air", "02:aa:00:00:00:01", false, netsim.Pos{})
	if !h.Bound() {
		t.Fatal("host did not bind")
	}
	if h.IP().IsZero() {
		t.Fatal("no address")
	}
	// The Homework scheme: /32 lease, router as gateway and DNS.
	if h.LeaseMask() != 32 {
		t.Errorf("lease mask = /%d, want /32", h.LeaseMask())
	}
	// Lease recorded in hwdb.
	res, err := r.DB.Query("SELECT action, hostname FROM Leases [NOW]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "add" || res.Rows[0][1].Str != "toms-mac-air" {
		t.Errorf("lease row = %v", res.Rows)
	}
}

func TestDHCPPendingThenPermit(t *testing.T) {
	r := startRouter(t, func(c *Config) { c.AutoPermit = false })
	h, err := r.AddHost("new-phone", "02:aa:00:00:00:02", true, netsim.Pos{X: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JoinHost(h); err != nil {
		t.Fatal(err)
	}
	if h.Bound() {
		t.Fatal("unapproved host bound")
	}
	dev, ok := r.DHCP.Lookup(h.MAC)
	if !ok || dev.State != dhcp.Pending {
		t.Fatalf("device state = %+v", dev)
	}

	// The control interface drags the device into "permitted".
	r.DHCP.Permit(h.MAC)
	h.StartDHCP()
	waitFor(t, 5*time.Second, h.Bound)
	if h.IP().IsZero() {
		t.Fatal("no lease after permit")
	}
}

func TestDHCPDenyGetsNak(t *testing.T) {
	r := startRouter(t, func(c *Config) { c.AutoPermit = false })
	h, err := r.AddHost("intruder", "02:aa:00:00:00:03", true, netsim.Pos{X: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.DHCP.Deny(h.MAC)
	h.StartDHCP()
	waitFor(t, 5*time.Second, h.Denied)
	if h.Bound() {
		t.Fatal("denied host bound")
	}
}

func TestEndToEndFlowAndMeasurement(t *testing.T) {
	r := startRouter(t, nil)
	h := join(t, r, "laptop", "02:aa:00:00:00:04", false, netsim.Pos{})

	app := netsim.NewApp(netsim.AppWeb, "example.com", 40_000)
	h.AddApp(app)

	// Let resolution and a few traffic ticks happen.
	for i := 0; i < 12; i++ {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	if app.SentBytes() == 0 {
		t.Fatal("app sent nothing (resolution failed?)")
	}

	// The upstream saw the traffic.
	rx, tx, queries := r.Upstream.Counters()
	if rx == 0 || tx == 0 {
		t.Fatalf("upstream counters rx=%d tx=%d", rx, tx)
	}
	if queries == 0 {
		t.Fatal("no DNS queries reached the upstream resolver")
	}

	// Flow entries are in the datapath and visible via measurement.
	r.PollMeasure()
	res, err := r.DB.Query("SELECT mac, sum(bytes) AS total FROM Flows GROUP BY mac")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no flows measured")
	}
	found := false
	for _, row := range res.Rows {
		if row[0].MAC() == h.MAC && row[1].AsFloat() > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("laptop's flows not attributed: %v", res.Rows)
	}

	// FlowPerf pairs tx with rx across the device's ingress hop and
	// carries the rule-install latency on each flow's first observation.
	res, err = r.DB.Query("SELECT tx_pkts, rx_pkts, lost_pkts, install_us FROM FlowPerf")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no FlowPerf rows after traffic and a measurement poll")
	}
	installSeen := false
	for _, row := range res.Rows {
		tx, rx, lost, us := row[0].Int, row[1].Int, row[2].Int, row[3].Int
		if rx <= 0 || tx != rx+lost {
			t.Errorf("FlowPerf accounting broken: tx=%d rx=%d lost=%d", tx, rx, lost)
		}
		if us > 0 {
			installSeen = true
		}
	}
	if !installSeen {
		t.Error("no FlowPerf row carries a rule-install latency")
	}

	// Links table fills from the wireless model for wireless stations.
	res, err = r.DB.Query("SELECT count(*) FROM Links")
	if err != nil {
		t.Fatal(err)
	}
	// laptop is wired; Links may be empty. Add a wireless station and poll.
	w := join(t, r, "phone", "02:aa:00:00:00:05", true, netsim.Pos{X: 5, Y: 2})
	_ = w
	r.PollMeasure()
	res, err = r.DB.Query("SELECT mac, rssi FROM Links [NOW]")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int >= 0 {
		t.Errorf("links rows = %v", res.Rows)
	}
}

// framesFrom observes host b and counts the UDP frames from host a that
// reach it: received through the router, which rewrote their source MAC
// to its own, or bypassed, still carrying a's, so never through it.
func framesFrom(r *Router, a, b *netsim.Host) (received, bypassed *atomic.Int64) {
	received, bypassed = new(atomic.Int64), new(atomic.Int64)
	b.SetOnFrame(func(frame []byte) {
		var d packet.Decoded
		if d.Decode(frame) != nil || !d.HasUDP || d.IP.Src != a.IP() {
			return
		}
		switch d.Eth.Src {
		case r.Config.RouterMAC:
			received.Add(1)
		case a.MAC:
			bypassed.Add(1)
		}
	})
	return received, bypassed
}

func TestIntraHomeTrafficTraversesRouter(t *testing.T) {
	r := startRouter(t, nil)
	a := join(t, r, "host-a", "02:aa:00:00:00:06", false, netsim.Pos{})
	b := join(t, r, "host-b", "02:aa:00:00:00:07", false, netsim.Pos{})

	// The forwarder learns a device's port from its first frame past DHCP,
	// and until then has no next hop toward it: b pings the router first.
	b.SendRaw(packet.AppendICMPEchoFrame(nil, b.MAC, r.Config.RouterMAC, b.IP(), r.Config.RouterIP,
		packet.ICMPEchoRequest, 1, 1, []byte("hello")))
	received, bypassed := framesFrom(r, a, b)
	app := netsim.NewApp(netsim.AppIoT, b.IP().String(), 4_000)
	a.AddApp(app)
	for i := 0; i < 8; i++ {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return received.Load() > 0 })
	if n := bypassed.Load(); n != 0 {
		t.Errorf("frames bypassed the router under /32: %d", n)
	}
	// The flow is visible in the datapath table.
	r.PollMeasure()
	res, err := r.DB.Query(fmt.Sprintf("SELECT count(*) FROM Flows WHERE daddr = %s", b.IP()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int == 0 {
		t.Error("intra-home flow not measured")
	}
}

// A device whose DHCP exchange is all it has sent is reachable from inside
// the home: the DHCP module consumes that exchange, so the forwarder learns
// each sender's port from every packet-in before any module runs, and the
// first frame toward the device finds its port and is routed, not dropped.
func TestLeasedOnlyDeviceIsReachable(t *testing.T) {
	r := startRouter(t, nil)
	a := join(t, r, "host-a", "02:aa:00:00:00:16", false, netsim.Pos{})
	b := join(t, r, "host-b", "02:aa:00:00:00:17", false, netsim.Pos{})

	received, bypassed := framesFrom(r, a, b)
	a.AddApp(netsim.NewApp(netsim.AppIoT, b.IP().String(), 4_000))
	for i := 0; i < 8; i++ {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	if received.Load() == 0 {
		t.Fatalf("no frame of a's reached b, which had only leased")
	}
	if n := bypassed.Load(); n != 0 {
		t.Errorf("frames bypassed the router under /32: %d", n)
	}
}

func TestAblationDirectL2HidesTraffic(t *testing.T) {
	r := startRouter(t, func(c *Config) {
		c.HostRoutes = false // conventional /24 leases
		c.DirectL2 = true    // hardware-switch fabric
	})
	a := join(t, r, "host-a", "02:aa:00:00:00:08", false, netsim.Pos{})
	b := join(t, r, "host-b", "02:aa:00:00:00:09", false, netsim.Pos{})
	if a.LeaseMask() != 24 {
		t.Fatalf("lease mask = /%d, want /24", a.LeaseMask())
	}

	_, bypassed := framesFrom(r, a, b)
	app := netsim.NewApp(netsim.AppIoT, b.IP().String(), 4_000)
	a.AddApp(app)
	for i := 0; i < 8; i++ {
		r.Net.Step(0.25)
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return bypassed.Load() > 0 })

	// The flow never appears in the router's measurements: the paper's
	// motivating invisibility problem.
	r.PollMeasure()
	res, err := r.DB.Query(fmt.Sprintf("SELECT count(*) FROM Flows WHERE daddr = %s", b.IP()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Errorf("direct-L2 flow unexpectedly measured: %v", res.Rows)
	}
}

func TestPolicyDeniesAndUSBKeyLifts(t *testing.T) {
	r := startRouter(t, nil)
	kid := join(t, r, "kids-tablet", "02:aa:00:00:00:0a", true, netsim.Pos{X: 4})
	adult := join(t, r, "adult-laptop", "02:aa:00:00:00:0b", false, netsim.Pos{})

	// Figure 4's policy: kids may only use facebook, and only while the
	// parent's key is inserted.
	pol := &policy.Policy{
		Name:         "kids-facebook",
		Devices:      []string{kid.MAC.String()},
		AllowedSites: []string{"facebook.com"},
		RequireKey:   "parent-key",
	}
	if err := r.Policy.Install(pol); err != nil {
		t.Fatal(err)
	}

	kidFB := netsim.NewApp(netsim.AppWeb, "facebook.com", 20_000)
	kid.AddApp(kidFB)
	adultWeb := netsim.NewApp(netsim.AppWeb, "example.com", 20_000)
	adult.AddApp(adultWeb)

	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r.Net.Step(0.25)
			if err := r.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Key out: kid's DNS is refused, so the app cannot even resolve;
	// adult unaffected.
	step(10)
	if kidFB.SentBytes() != 0 {
		t.Errorf("kid sent %d bytes with key out", kidFB.SentBytes())
	}
	if adultWeb.SentBytes() == 0 {
		t.Error("adult blocked by kid policy")
	}
	st := r.DNS.Stats()
	if st.Denied == 0 {
		t.Error("no DNS denials recorded")
	}

	// Key in: facebook resolves and flows pass.
	r.Policy.InsertKey("parent-key")
	step(20)
	if kidFB.SentBytes() == 0 {
		t.Error("kid still blocked with key inserted")
	}

	// Other sites remain blocked for the kid even with the key in.
	kidOther := netsim.NewApp(netsim.AppWeb, "youtube.com", 20_000)
	kid.AddApp(kidOther)
	step(10)
	if kidOther.SentBytes() != 0 {
		t.Errorf("kid reached non-allowed site: %d bytes", kidOther.SentBytes())
	}

	// Key removed again: new flows are denied (existing entries flushed).
	r.Policy.RemoveKey("parent-key")
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	before := kidFB.SentBytes()
	sent := r.Upstream
	_ = sent
	step(10)
	// The app keeps "sending" locally but frames must be dropped at the
	// router: upstream byte growth should come only from the adult. We
	// check the forwarder recorded fresh denials.
	_, denied := r.Forwarder.Counters()
	if denied == 0 {
		t.Error("no denials after key removal")
	}
	_ = before
}

func TestPingRouter(t *testing.T) {
	r := startRouter(t, nil)
	h := join(t, r, "pinger", "02:aa:00:00:00:0c", false, netsim.Pos{})
	got := make(chan struct{}, 1)
	h.SetOnFrame(func(frame []byte) {
		var d packet.Decoded
		if err := d.Decode(frame); err == nil && d.HasICMP && d.ICMP.Type == packet.ICMPEchoReply {
			select {
			case got <- struct{}{}:
			default:
			}
		}
	})
	h.SendRaw(packet.AppendICMPEchoFrame(nil, h.MAC, r.Config.RouterMAC, h.IP(), r.Config.RouterIP,
		packet.ICMPEchoRequest, 1, 1, []byte("hello")))
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no echo reply from router")
	}
}

// TestTransportDefaultInProcess asserts the default control plane is the
// in-process transport: no TCP listener is bound, and the platform still
// comes up end to end.
func TestTransportDefaultInProcess(t *testing.T) {
	r := startRouter(t, nil)
	if r.Config.Transport != TransportInProcess {
		t.Fatalf("default transport = %q, want %q", r.Config.Transport, TransportInProcess)
	}
	if addr := r.Controller.Addr(); addr != "" {
		t.Errorf("in-process transport bound a TCP listener at %s", addr)
	}
	if r.Switch() == nil {
		t.Fatal("datapath did not join over the in-process transport")
	}
	h := join(t, r, "dev", "02:aa:00:00:00:21", false, netsim.Pos{})
	if !h.Bound() {
		t.Fatal("host did not bind over the in-process transport")
	}
}

// TestTransportTCP keeps the loopback wire path working for cross-process
// deployments (cmd/hwrouterd).
func TestTransportTCP(t *testing.T) {
	r := startRouter(t, func(c *Config) { c.Transport = TransportTCP })
	if addr := r.Controller.Addr(); addr == "" {
		t.Error("TransportTCP bound no listener")
	}
	h := join(t, r, "dev", "02:aa:00:00:00:22", false, netsim.Pos{})
	if !h.Bound() {
		t.Fatal("host did not bind over the TCP transport")
	}
}

// TestTransportUnknownRejected asserts config validation catches typos
// instead of silently falling back.
func TestTransportUnknownRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = "carrier-pigeon"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestSettleDeadlineWhenWedged pins the wedge report: a punt with no
// controller behind it (the router was never started, so nothing can
// dispatch it) must surface as ErrWedged at once — not hang, not wait out
// settleWait, and not return success.
func TestSettleDeadlineWhenWedged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoPermit = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// No Start: the datapath punts into the void.
	h, err := r.AddHost("wedged", "02:aa:00:00:00:31", false, netsim.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	h.StartDHCP()
	if r.Datapath.PuntCount() == 0 {
		t.Fatal("no punt was recorded")
	}
	start := time.Now()
	if err := r.Settle(); !errors.Is(err, ErrWedged) {
		t.Fatalf("Settle = %v, want ErrWedged", err)
	}
	// JoinHost reports the same wedge from its first settle.
	if err := r.JoinHost(h); !errors.Is(err, ErrWedged) {
		t.Fatalf("JoinHost = %v, want ErrWedged", err)
	}
	if elapsed := time.Since(start); elapsed > settleWait/10 {
		t.Fatalf("Settle and JoinHost took %v to report the wedge; want well under settleWait (%v)", elapsed, settleWait)
	}
}

// TestSettleConcurrentWithTraffic hammers Settle from several goroutines
// while the network keeps punting (run under -race), on both transports:
// no call may return an error, a stepper's Settle may not return while one
// of its step's punts is undispatched, and after every stepper settles
// the control path is quiescent — processed caught up with punted.
func TestSettleConcurrentWithTraffic(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(string(kind), func(t *testing.T) {
			r := startRouter(t, func(c *Config) { c.Transport = kind })
			h := join(t, r, "churner", "02:aa:00:00:00:32", false, netsim.Pos{})
			app := netsim.NewApp(netsim.AppWeb, "203.0.113.7", 40_000)
			app.SetFlowChurn(0.9) // fresh flows: every tick punts
			h.AddApp(app)

			const steps = 200
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			done := make(chan struct{})

			// One stepper: inject traffic then settle, as Home.step does.
			// Only its steps punt, so once its Settle returns every punt
			// counted so far must have been dispatched.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < steps; i++ {
					r.Net.Step(0.05)
					if err := r.Settle(); err != nil {
						errs <- err
						return
					}
					punted := r.Datapath.PuntCount()
					if processed := r.Controller.Processed(); processed < punted {
						errs <- fmt.Errorf("step %d: Settle returned with %d punts but %d dispatched", i, punted, processed)
						return
					}
				}
			}()
			// Concurrent settlers with nothing of their own to wait for: they
			// must neither error nor deadlock no matter how they interleave.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := r.Settle(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			processed := r.Controller.Processed()
			punted := r.Datapath.PuntCount()
			if processed < punted {
				t.Fatalf("early return: %d punts but only %d processed after all Settles", punted, processed)
			}
			if punted == 0 {
				t.Fatal("traffic generated no punts; the test exercised nothing")
			}
		})
	}
}

// Over TCP a settle barrier can flush the next link of a handshake chain:
// the OFFER it flushes makes the host REQUEST, and the ACK that answers the
// REQUEST is sent behind the barrier, not flushed by it. Settle must see
// the REQUEST's punt behind the barrier and take another lap, so that when
// it returns the ACK has reached the host — here a host that is slow to
// take it.
func TestSettleOverTCPWaitsForTheChainItFlushes(t *testing.T) {
	r := startRouter(t, func(c *Config) { c.Transport = TransportTCP })
	h, err := r.AddHost("slow", "02:aa:00:00:00:33", false, netsim.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	h.SetOnFrame(func(f []byte) {
		var d packet.Decoded
		if d.Decode(f) != nil || !d.HasUDP || d.UDP.DstPort != packet.DHCPClientPort {
			return
		}
		var m packet.DHCP
		if m.DecodeFromBytes(d.UDP.Payload) == nil && m.MsgType() == packet.DHCPAck {
			time.Sleep(20 * time.Millisecond)
		}
	})
	h.StartDHCP()
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	if !h.Bound() {
		t.Fatal("Settle returned before the ACK reached the host")
	}
}

// TestDuplicateAckLeavesHostUsable guards handleDHCP's manual
// lock/unlock structure: a retransmitted ACK arriving after the host is
// already bound must be ignored without leaking the host mutex (a leak
// deadlocks Bound() and every later delivery, wedging the fleet tick).
func TestDuplicateAckLeavesHostUsable(t *testing.T) {
	r := startRouter(t, nil)
	h, err := r.AddHost("dup", "02:aa:00:00:00:41", false, netsim.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ack []byte
	h.SetOnFrame(func(f []byte) {
		var d packet.Decoded
		if d.Decode(f) == nil && d.HasUDP && d.UDP.DstPort == packet.DHCPClientPort {
			var m packet.DHCP
			if m.DecodeFromBytes(d.UDP.Payload) == nil && m.MsgType() == packet.DHCPAck {
				mu.Lock()
				ack = append([]byte(nil), f...)
				mu.Unlock()
			}
		}
	})
	if err := r.JoinHost(h); err != nil {
		t.Fatal(err)
	}
	if !h.Bound() {
		t.Fatal("host did not bind")
	}
	mu.Lock()
	frame := ack
	mu.Unlock()
	if frame == nil {
		t.Fatal("no ACK captured during the handshake")
	}
	h.Deliver(frame) // the duplicate: matching XID, state already bound
	if !h.Bound() {
		t.Fatal("duplicate ACK disturbed the lease")
	}
}
