package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// swallowTap sits on the controller's end of the control channel (install
// it as Config.WrapTransport): once on, what the controller sends never
// reaches the datapath. The tap is then the messages' last owner, so it
// releases them.
type swallowTap struct {
	oftransport.Transport
	on atomic.Bool
}

func (tap *swallowTap) wrap(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport) {
	tap.Transport = ctl
	return tap, dp
}

func (tap *swallowTap) Send(msg openflow.Message) error {
	if tap.on.Load() {
		openflow.Release(msg)
		return nil
	}
	return tap.Transport.Send(msg)
}

// connEvents builds the packet-ins of n new connections between host and
// the upstream's server, source ports from sport up, each direction's
// first frame in turn: the host's SYN as it arrives on hostPort, then the
// server's SYN-ACK as it arrives on the uplink.
func connEvents(t *testing.T, r *Router, host *netsim.Host, hostPort, sport uint16, n int) []nox.PacketInEvent {
	t.Helper()
	server := packet.MustIP4("203.0.113.10")
	var evs []nox.PacketInEvent
	for i := uint16(0); i < uint16(n); i++ {
		for _, in := range []struct {
			frame []byte
			port  uint16
		}{
			{packet.AppendTCPFrame(nil, host.MAC, r.Config.RouterMAC, host.IP(), server, sport+i, 80, packet.TCPSyn, 1, 0, nil), hostPort},
			{packet.AppendTCPFrame(nil, r.Forwarder.UpstreamMAC, r.Config.RouterMAC, server, host.IP(), 80, sport+i,
				packet.TCPSyn|packet.TCPAck, 1, 0, nil), r.Forwarder.UpstreamPort},
		} {
			d := new(packet.Decoded)
			if err := d.Decode(in.frame); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, nox.PacketInEvent{Switch: r.Switch(), Decoded: d, Msg: &openflow.PacketIn{
				BufferID: openflow.NoBuffer, TotalLen: uint16(len(in.frame)), InPort: in.port, Data: in.frame,
			}})
		}
	}
	return evs
}

// The forwarder's verdict on a new flow, either way, allocates nothing: the
// flow-mod it sends comes from openflow's pool, the match stays on the stack
// (OnInstall takes it by value) and the action list is the uplink's or the
// device's, built once. The tap swallows the flow-mods before the datapath
// installs them, and releases them as the datapath would, so what is counted
// is the controller's side alone.
func TestNewFlowVerdictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	tap := &swallowTap{}
	r := startRouter(t, func(c *Config) {
		c.Clock = clock.NewSimulated()
		c.DisableRPC = true
		c.WrapTransport = tap.wrap
	})
	host := join(t, r, "laptop", "02:aa:00:00:00:51", false, netsim.Pos{})
	const n = 400
	evs := connEvents(t, r, host, 1, 20000, n)
	tap.on.Store(true)

	k := 0
	verdict := func() {
		if r.Forwarder.handlePacketIn(&evs[k]) != nox.Stop {
			t.Fatalf("packet-in %d was not consumed", k)
		}
		k++
	}
	for k < n/2 { // warm: the first of each list is built, the maps grow
		verdict()
	}
	// The runs alternate directions: out, back, out, back. A map growing
	// now and then adds a fraction, which the per-run average rounds away.
	if got := testing.AllocsPerRun(n-n/2-1, verdict); got != 0 {
		t.Errorf("a verdict on a new flow allocates %g times, want 0", got)
	}
	if admitted, denied := r.Forwarder.Counters(); admitted != n || denied != 0 {
		t.Errorf("%d admitted and %d denied, want %d and none", admitted, denied, n)
	}
}

// The forwarder keeps one action list per device and hands it to every
// flow toward the device until the device is learned on another port: the
// entries installed from then on output to the new port, and those
// installed before keep the list they were installed with.
func TestDeviceMoveRebuildsItsActions(t *testing.T) {
	r := startRouter(t, func(c *Config) {
		c.Clock = clock.NewSimulated()
		c.DisableRPC = true
	})
	host := join(t, r, "laptop", "02:aa:00:00:00:52", false, netsim.Pos{})
	const before, after = 11, 12 // the ports the device is seen on
	dispatch := func(evs []nox.PacketInEvent) {
		for i := range evs { // as the controller runs them: learn, then forward
			r.Forwarder.learnSender(&evs[i])
			r.Forwarder.handlePacketIn(&evs[i])
		}
		if err := r.Switch().Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	dispatch(connEvents(t, r, host, before, 21000, 2))
	dispatch(connEvents(t, r, host, after, 22000, 2))

	// The entries toward the device: from the server's port 80 to the host.
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPSrc
	m.DLType, m.NWProto, m.TPSrc = packet.EtherTypeIPv4, uint8(packet.ProtoTCP), 80
	lists := map[uint16][]*openflow.Action{} // by the port the entry outputs to, its list
	for _, e := range r.Datapath.Table().Entries(&m, openflow.PortNone) {
		out := e.Actions[len(e.Actions)-1].(*openflow.ActionOutput).Port
		want := uint16(before)
		if e.Match.TPDst >= 22000 {
			want = after
		}
		if out != want {
			t.Errorf("entry to port %d outputs to %d, want %d", e.Match.TPDst, out, want)
		}
		lists[out] = append(lists[out], &e.Actions[0])
	}
	if len(lists[before]) != 2 || len(lists[after]) != 2 {
		t.Fatalf("entries toward the device: %d on the old port, %d on the new, want 2 each", len(lists[before]), len(lists[after]))
	}
	if lists[before][0] != lists[before][1] || lists[after][0] != lists[after][1] || lists[before][0] == lists[after][0] {
		t.Error("flows toward the device on one port do not share one action list, or the move did not build a new one")
	}
}

// Many flows expiring in one sweep reach the Flows table in one order on
// every run: the flow-removed messages leave the datapath in the table's
// removal order, not in its map's, and measurement writes a row for each
// as it comes.
func TestExpiringFlowsWriteIdenticalRows(t *testing.T) {
	run := func() string {
		clk := clock.NewSimulated()
		r := startRouter(t, func(c *Config) {
			c.Clock = clk
			c.DisableRPC = true
			c.FlowIdleTimeout = 5
		})
		host := join(t, r, "laptop", "02:aa:00:00:00:53", false, netsim.Pos{})
		server := packet.MustIP4("203.0.113.10")
		const flows = 40
		for _, flags := range []uint8{packet.TCPSyn, packet.TCPAck} { // the SYNs punt, the ACKs are charged
			for i := uint16(0); i < flows; i++ {
				host.SendRaw(packet.AppendTCPFrame(nil, host.MAC, r.Config.RouterMAC, host.IP(), server,
					30000+i, 80, flags, 1, 0, nil))
			}
			if err := r.Settle(); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(10 * time.Second)
		r.Datapath.SweepExpired() // the next step's sweep, without the step: it removes them all
		if err := r.Switch().Barrier(); err != nil {
			t.Fatal(err)
		}
		res, err := r.DB.Query("SELECT * FROM Flows")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < flows {
			t.Fatalf("%d Flows rows, want one at least for each of %d flows", len(res.Rows), flows)
		}
		return res.Text()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d wrote other Flows rows than the first:\n%s\nfirst:\n%s", i+2, again, first)
		}
	}
}

// A home's flows expire on its step: the first Net.Step at or after an
// entry's deadline removes it and sends its flow-removed, which the step's
// Settle drains, and no earlier or later step does. Nothing else sweeps, so
// the table length and the flow-removeds counted after each tick are a
// function of the tick sequence. Run with -race.
func TestFlowsExpireOnTheirDueStep(t *testing.T) {
	run := func() string {
		clk := clock.NewSimulated()
		var removals, dispatched atomic.Int64
		r := startRouter(t, func(c *Config) {
			c.Clock = clk
			c.DisableRPC = true
			c.FlowIdleTimeout = 2
			c.WrapTransport = func(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport) {
				return ctl, removedTap{dp, func(*openflow.FlowRemoved) { removals.Add(1) }, func() { dispatched.Add(1) }}
			}
		})
		host := join(t, r, "laptop", "02:aa:00:00:00:54", false, netsim.Pos{})
		server := packet.MustIP4("203.0.113.10")
		send := func(sport uint16, flags uint8) {
			host.SendRaw(packet.AppendTCPFrame(nil, host.MAC, r.Config.RouterMAC, host.IP(), server, sport, 80, flags, 1, 0, nil))
		}
		// Three connections open on ticks 1, 3 and 6; each SYN punts and
		// the ACK a tick later is charged, so the deadlines fall on
		// different ticks. Then the home goes idle.
		opens := map[int]uint16{1: 31000, 3: 31001, 6: 31002}
		// The clock stands still through a tick, so an entry whose count
		// moved in a tick was last used at that tick's reading.
		var (
			book     strings.Builder
			live     = map[*datapath.FlowEntry]time.Time{} // timed entries after the last tick, by deadline
			counted  = map[*datapath.FlowEntry]uint64{}
			used     = map[*datapath.FlowEntry]time.Time{}
			expired  int64
			baseline = removals.Load()
		)
		deadline := func(e *datapath.FlowEntry, now time.Time) time.Time {
			if n := e.PacketCount(); n != counted[e] {
				counted[e], used[e] = n, now
			}
			last := e.Installed
			if lu, ok := used[e]; ok {
				last = lu
			}
			return last.Add(time.Duration(e.IdleTimeout) * time.Second)
		}
		for tick := 0; tick < 24; tick++ {
			now := clk.Now()
			r.Net.Step(0.25)
			if sport, ok := opens[tick]; ok {
				send(sport, packet.TCPSyn)
			}
			if sport, ok := opens[tick-1]; ok {
				send(sport, packet.TCPAck)
			}
			if err := r.Settle(); err != nil {
				t.Fatal(err)
			}
			cur := map[*datapath.FlowEntry]bool{}
			for _, e := range r.Datapath.Table().Entries(nil, openflow.PortNone) {
				cur[e] = true
			}
			for e, due := range live {
				switch gone := !cur[e]; {
				case gone && now.Before(due):
					t.Fatalf("tick %d at %v: an entry due at %v was removed early", tick, now, due)
				case !gone && !now.Before(due):
					t.Fatalf("tick %d at %v: an entry due at %v is still installed", tick, now, due)
				case gone:
					expired++
					delete(live, e)
				}
			}
			if got := removals.Load() - baseline; got != expired {
				t.Fatalf("tick %d: %d flow-removeds sent by the step, %d entries expired", tick, got, expired)
			}
			if got := dispatched.Load() - baseline; got != expired {
				t.Fatalf("tick %d: %d flow-removeds taken by the controller by the step's Settle, %d entries expired", tick, got, expired)
			}
			for e := range cur {
				if e.IdleTimeout > 0 {
					live[e] = deadline(e, now)
				}
			}
			fmt.Fprintf(&book, "%d:%d/%d ", tick, r.Datapath.Table().Len(), expired)
			clk.Advance(250 * time.Millisecond)
		}
		if expired < 6 || len(live) != 0 {
			t.Fatalf("%d entries expired and %d are left, want each connection's two to expire", expired, len(live))
		}
		return book.String()
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("two runs expired flows on other ticks:\n%s\n%s", again, first)
	}
}

// A web_churn home-step allocates what outlives it, one object: the pair
// of flow entries, one each way (see BenchmarkChurnHomeStep). A step that allocated per
// message again — a punt buffer, a packet-in, a flow-mod or a flow-removed
// that nobody handed back — or per dispatch — a head copy, an escaping
// match, an action list per flow, an event per flow-removed — or a settle
// that round-tripped a barrier again would read more.
func TestChurnHomeStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the chunk pool
	r, step := churnHomeStep(t)
	punts := r.Datapath.PuntCount()
	const steps = 200
	if got := testing.AllocsPerRun(steps, step); got > 1 {
		t.Errorf("a churned home-step allocates %g times, want at most 1", got)
	}
	if punts = r.Datapath.PuntCount() - punts; punts != 2*(steps+1) {
		t.Errorf("%d steps punted %d times, want one new flow out and back per step", steps+1, punts)
	}
}

// Settle on an in-process home drains the datapath's inbox and checks the
// punt and dispatch counts: no barrier, no allocation, whether the step
// before it set up a new flow or not.
func TestWarmSettleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	r, step := churnHomeStep(t)
	step()
	settle := func() {
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, settle); got != 0 {
		t.Errorf("a warm Settle allocates %g times, want 0", got)
	}
}

// A bulk_stream home-step (BenchmarkBulkHomeStep) forwards every frame on an
// installed flow, each charged where the paper's displays read it: a warm
// step allocates nothing, every lookup matches and is charged to an entry,
// and each matched frame leaves by exactly one port, so the ports' sent
// frames add up to the matches. The runs that carry the charges commit them
// before each call returns, so between steps the books balance exactly.
func TestBulkHomeStepChargesEveryFrame(t *testing.T) {
	r, step, _ := bulkHomeStep(t)
	if !raceEnabled {
		if got := testing.AllocsPerRun(20, step); got != 0 {
			t.Errorf("a warm bulk home-step allocates %g times, want 0", got)
		}
	}
	books := func() (lookups, matched, charged, sent uint64) {
		lookups, matched = r.Datapath.Table().Counters()
		for _, e := range r.Datapath.Table().Entries(nil, openflow.PortNone) {
			charged += e.PacketCount()
		}
		for _, p := range r.Datapath.Ports() {
			sent += p.Stats().TxPackets
		}
		return lookups, matched, charged, sent
	}
	punts := r.Datapath.PuntCount()
	l0, m0, c0, s0 := books()
	const steps = 20
	for i := 0; i < steps; i++ {
		step()
	}
	l1, m1, c1, s1 := books()
	lookups, matched, charged, sent := l1-l0, m1-m0, c1-c0, s1-s0
	if lookups == 0 || matched != lookups || charged != matched {
		t.Errorf("%d steps: %d lookups, %d matched, %d charged to entries; want all equal and no misses", steps, lookups, matched, charged)
	}
	if sent != matched {
		t.Errorf("%d steps: the ports sent %d frames for %d matches, want one each", steps, sent, matched)
	}
	if punts = r.Datapath.PuntCount() - punts; punts != 0 {
		t.Errorf("%d steps punted %d times, want every frame on an installed flow", steps, punts)
	}
}
