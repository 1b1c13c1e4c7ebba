// Benchmarks regenerating every figure of the paper (F1–F5) and measuring
// the quantitative behaviour of each subsystem (E1–E7), plus the design
// ablations DESIGN.md calls out (A1–A3). EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
package homework

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/figures"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
)

// ---------------------------------------------------------------- figures

func benchFigure(b *testing.B, gen func() (string, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure1BandwidthView regenerates the per-device per-protocol
// bandwidth display end-to-end (6 devices, mixed traffic, 6 s window).
func BenchmarkFigure1BandwidthView(b *testing.B) { benchFigure(b, figures.Figure1) }

// BenchmarkFigure2Artifact regenerates the artifact's three modes.
func BenchmarkFigure2Artifact(b *testing.B) { benchFigure(b, figures.Figure2) }

// BenchmarkFigure3DHCPControl regenerates the admission interface flow.
func BenchmarkFigure3DHCPControl(b *testing.B) { benchFigure(b, figures.Figure3) }

// BenchmarkFigure4PolicyUSB regenerates the USB policy interface flow.
func BenchmarkFigure4PolicyUSB(b *testing.B) {
	benchFigure(b, func() (string, error) {
		dir, err := os.MkdirTemp("", "hw-usb-*")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		return figures.Figure4(dir)
	})
}

// BenchmarkFigure5Architecture brings the whole platform up and verifies
// every component live.
func BenchmarkFigure5Architecture(b *testing.B) { benchFigure(b, figures.Figure5) }

// ------------------------------------------------------------- E1: hwdb

// BenchmarkE1HwdbInsert measures single-writer insert throughput into the
// Flows ring (the companion IM'11 paper's headline metric).
func BenchmarkE1HwdbInsert(b *testing.B) {
	db := hwdb.NewHomework(clock.Real{}, hwdb.DefaultRingSize)
	mac := packet.MAC{2}
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertFlow(mac, ft, 1, 1500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1HwdbInsertParallel measures multi-writer contention.
func BenchmarkE1HwdbInsertParallel(b *testing.B) {
	db := hwdb.NewHomework(clock.Real{}, hwdb.DefaultRingSize)
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		mac := packet.MAC{2, 1}
		for pb.Next() {
			if err := db.InsertFlow(mac, ft, 1, 1500); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ----------------------------------------------------------- E2: queries

// BenchmarkE2HwdbQuery sweeps the RANGE window of the Figure-1 GROUP BY
// query over a busy Flows table.
func BenchmarkE2HwdbQuery(b *testing.B) {
	for _, window := range []int{1, 10, 60} {
		b.Run(fmt.Sprintf("range-%ds", window), func(b *testing.B) {
			clk := clock.NewSimulated()
			db := hwdb.NewHomework(clk, hwdb.DefaultRingSize)
			// One minute of history: 6 devices x 5 flows x 100 samples.
			for s := 0; s < 100; s++ {
				for d := 0; d < 6; d++ {
					for f := 0; f < 5; f++ {
						_ = db.InsertFlow(packet.MAC{2, byte(d)},
							packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: uint16(80 + f)},
							10, 15000)
					}
				}
				clk.Advance(600 * time.Millisecond)
			}
			sel, err := hwdb.Parse(fmt.Sprintf(
				"SELECT mac, dport, sum(bytes) FROM Flows [RANGE %d SECONDS] GROUP BY mac, dport", window))
			if err != nil {
				b.Fatal(err)
			}
			stmt := sel.(*hwdb.SelectStmt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Select(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------- E3: control-path RTT

// BenchmarkE3ControlPath measures the packet-in -> controller -> flow-mod
// -> barrier round trip — the reactive flow-setup cost every new home flow
// pays — over both control transports: the loopback-TCP wire path, and the
// oftransport.Direct channel an in-process home runs, attached as
// core.Router.Start attaches it: no serialization, no queue and no
// goroutine, the whole round trip on the benchmark's goroutine.
func BenchmarkE3ControlPath(b *testing.B) {
	for _, kind := range []core.TransportKind{core.TransportTCP, core.TransportInProcess} {
		b.Run(fmt.Sprintf("transport=%s", kind), func(b *testing.B) {
			benchControlPath(b, kind)
		})
	}
}

func benchControlPath(b *testing.B, kind core.TransportKind) {
	ctl := nox.NewController()
	done := make(chan struct{}, 64)
	ctl.OnPacketIn(func(ev *nox.PacketInEvent) nox.Disposition {
		m := openflow.MatchFromFrame(ev.Decoded, ev.Msg.InPort)
		_ = ev.Switch.InstallFlow(m, 10, 1, 0, []openflow.Action{&openflow.ActionOutput{Port: 2}})
		done <- struct{}{}
		return nox.Stop
	})
	defer ctl.Close()
	joined := make(chan *nox.Switch, 1)
	ctl.OnJoin(func(ev *nox.JoinEvent) { joined <- ev.Switch })

	dp := datapath.New(datapath.Config{ID: 1})
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(&datapath.Port{No: 2})
	switch kind {
	case core.TransportTCP:
		if err := ctl.ListenAndServe("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		go func() { _ = dp.ConnectTCP(ctl.Addr()) }()
	default:
		ctlEnd, dpEnd := oftransport.Direct()
		dp.AttachDirect(dpEnd, dpEnd)
		if _, err := ctl.AttachDirect(ctlEnd, ctlEnd); err != nil {
			b.Fatal(err)
		}
	}
	defer dp.Stop()
	sw := <-joined

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique flows so every packet misses and punts.
		f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, byte(i >> 8), byte(i)}, packet.MAC{3},
			packet.IP4{10, 0, byte(i >> 16), byte(i >> 8)}, packet.IP4{10, 1, 0, 1},
			uint16(i), 80, packet.TCPSyn, 0, 0, nil)
		dp.Receive(1, f)
		<-done
		if err := sw.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- E4: datapath rate

// BenchmarkE4Forwarding measures per-packet forwarding cost as the flow
// table grows, exact-match vs wildcard-only tables: the datapath side of
// the paper's "every flow visible" design.
func BenchmarkE4Forwarding(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("exact-%d", n), func(b *testing.B) {
			benchForwarding(b, n, true)
		})
	}
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("wildcard-%d", n), func(b *testing.B) {
			benchForwarding(b, n, false)
		})
	}
}

func benchForwarding(b *testing.B, tableSize int, exact bool) {
	dp := datapath.New(datapath.Config{ID: 1})
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(&datapath.Port{No: 2})
	for i := 0; i < tableSize; i++ {
		var m openflow.Match
		if exact {
			f := packet.AppendTCPFrame(nil,
				packet.MAC{2, 0, 0, byte(i >> 8), byte(i), 1}, packet.MAC{3},
				packet.IP4{10, 0, byte(i >> 8), byte(i)}, packet.IP4{10, 1, 0, 1},
				uint16(1024+i%40000), 80, packet.TCPAck, 0, 0, nil)
			var d packet.Decoded
			_ = d.Decode(f)
			m = openflow.MatchFromFrame(&d, 1)
		} else {
			m = openflow.MatchAll()
			m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
			m.DLType = packet.EtherTypeIPv4
			m.NWProto = uint8(packet.ProtoTCP)
			m.TPDst = uint16(10000 + i) // distinct, never matches the probe
		}
		_ = dp.Table().Add(&datapath.FlowEntry{
			Match: m, Priority: 10,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, false)
	}
	// The probe packet matches the last-installed exact rule, or (for the
	// wildcard table) a final catch-all appended below.
	probe := packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, byte((tableSize - 1) >> 8), byte(tableSize - 1), 1}, packet.MAC{3},
		packet.IP4{10, 0, byte((tableSize - 1) >> 8), byte(tableSize - 1)}, packet.IP4{10, 1, 0, 1},
		uint16(1024+(tableSize-1)%40000), 80, packet.TCPAck, 0, 0, make([]byte, 1000))
	if !exact {
		last := openflow.MatchAll()
		last.Wildcards &^= openflow.FWDLType
		last.DLType = packet.EtherTypeIPv4
		_ = dp.Table().Add(&datapath.FlowEntry{Match: last, Priority: 1,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	}
	b.SetBytes(int64(len(probe)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.Receive(1, probe)
	}
}

// --------------------------------------------------- E5: DHCP handshake

// BenchmarkE5DHCPTransaction measures a full DISCOVER->OFFER->REQUEST->ACK
// handshake through datapath, punt rules and the DHCP module.
func BenchmarkE5DHCPTransaction(b *testing.B) {
	rt := startBenchRouter(b, nil)
	h, err := rt.AddHost("bench-host", "02:aa:00:00:00:01", false, netsim.Pos{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.JoinHost(h); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Release()
		if err := rt.Settle(); err != nil {
			b.Fatal(err)
		}
		h.StartDHCP()
		for !h.Bound() {
			if err := rt.Settle(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ------------------------------------------------------ E6: DNS proxy

// BenchmarkE6DNSProxy measures resolution through the proxy: the permit
// path (forwarded upstream and relayed back) vs the denied path (answered
// NXDOMAIN locally).
func BenchmarkE6DNSProxy(b *testing.B) {
	b.Run("permit", func(b *testing.B) { benchDNS(b, false) })
	b.Run("denied", func(b *testing.B) { benchDNS(b, true) })
}

func benchDNS(b *testing.B, denied bool) {
	rt := startBenchRouter(b, nil)
	h, err := rt.AddHost("resolver", "02:aa:00:00:00:01", false, netsim.Pos{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.JoinHost(h); err != nil {
		b.Fatal(err)
	}
	if denied {
		// A policy that only allows an unrelated site: every query below
		// is refused by the proxy without an upstream round trip.
		err := rt.Policy.Install(&policy.Policy{
			Name: "lockdown", Devices: []string{h.MAC.String()},
			AllowedSites: []string{"allowed.example"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Distinct names so the host's stub cache never short-circuits.
	for i := 0; i < 4096; i++ {
		rt.Upstream.AddZone(fmt.Sprintf("bench-%d.example", i), packet.IP4{93, 184, 0, byte(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := make(chan bool, 1)
		h.Resolve(fmt.Sprintf("bench-%d.example", i%4096), func(ip packet.IP4, ok bool) {
			got <- ok
		})
		if err := rt.Settle(); err != nil {
			b.Fatal(err)
		}
		select {
		case ok := <-got:
			if ok == denied {
				b.Fatalf("resolution ok=%v with denied=%v", ok, denied)
			}
		case <-time.After(5 * time.Second):
			b.Fatal("no DNS answer")
		}
	}
}

// ----------------------------------------------------- E7: flow setup

// BenchmarkE7FlowSetup measures end-to-end reactive flow setup: first
// packet of a brand-new flow punted, policy-checked, rule installed,
// packet released.
func BenchmarkE7FlowSetup(b *testing.B) {
	rt := startBenchRouter(b, nil)
	h, err := rt.AddHost("client", "02:aa:00:00:00:01", false, netsim.Pos{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.JoinHost(h); err != nil {
		b.Fatal(err)
	}
	// Warm ARP toward the gateway with one flow.
	warm := netsim.NewApp(netsim.AppIoT, "93.184.216.34", 64)
	h.AddApp(warm)
	rt.Net.Step(0)
	rt.Net.Step(0.1)
	if err := rt.Settle(); err != nil {
		b.Fatal(err)
	}

	admitted0, _ := rt.Forwarder.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A brand-new five-tuple each iteration.
		h.SendRaw(packet.AppendTCPFrame(nil, h.MAC, rt.Config.RouterMAC,
			h.IP(), packet.IP4{93, 184, 216, 34},
			uint16(1024+i%60000), uint16(1+i/60000), packet.TCPSyn, 0, 0, nil))
		if err := rt.Settle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	admitted, _ := rt.Forwarder.Counters()
	if admitted-admitted0 < uint64(b.N) {
		b.Fatalf("only %d of %d flows admitted", admitted-admitted0, b.N)
	}
}

// --------------------------------------------------------- A1: ablation

// BenchmarkA1LeaseMask compares flow visibility under the paper's /32
// leases against conventional /24 + hardware switching: the fraction of
// intra-home traffic the router can measure.
func BenchmarkA1LeaseMask(b *testing.B) {
	b.Run("hostroutes-32", func(b *testing.B) { benchVisibility(b, true) })
	b.Run("conventional-24", func(b *testing.B) { benchVisibility(b, false) })
}

func benchVisibility(b *testing.B, hostRoutes bool) {
	for i := 0; i < b.N; i++ {
		rt := startBenchRouter(b, func(c *core.Config) {
			c.HostRoutes = hostRoutes
			c.DirectL2 = !hostRoutes
		})
		a, err := rt.AddHost("a", "02:aa:00:00:00:01", false, netsim.Pos{})
		if err != nil {
			b.Fatal(err)
		}
		_ = rt.JoinHost(a)
		peer, err := rt.AddHost("b", "02:aa:00:00:00:02", false, netsim.Pos{})
		if err != nil {
			b.Fatal(err)
		}
		_ = rt.JoinHost(peer)
		app := netsim.NewApp(netsim.AppIoT, peer.IP().String(), 8000)
		a.AddApp(app)
		for s := 0; s < 8; s++ {
			rt.Net.Step(0.25)
			if err := rt.Settle(); err != nil {
				b.Fatal(err)
			}
		}
		rt.PollMeasure()
		res, err := rt.DB.Query(fmt.Sprintf("SELECT count(*) FROM Flows WHERE daddr = %s", peer.IP()))
		if err != nil {
			b.Fatal(err)
		}
		visible := 0.0
		if res.Rows[0][0].Int > 0 {
			visible = 1.0
		}
		b.ReportMetric(visible, "visible-flows")
		rt.Stop()
	}
}

// --------------------------------------------------------- A2: ablation

// BenchmarkA2PuntPolicy compares reactive per-flow rules (full
// visibility, one punt per flow) against a proactive catch-all rule (no
// punts, but also no per-flow measurement).
func BenchmarkA2PuntPolicy(b *testing.B) {
	b.Run("reactive-per-flow", func(b *testing.B) { benchPunt(b, true) })
	b.Run("proactive-catchall", func(b *testing.B) { benchPunt(b, false) })
}

func benchPunt(b *testing.B, reactive bool) {
	dp := datapath.New(datapath.Config{ID: 1})
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(&datapath.Port{No: 2})
	if !reactive {
		m := openflow.MatchAll()
		_ = dp.Table().Add(&datapath.FlowEntry{Match: m, Priority: 1,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	}
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i] = packet.AppendTCPFrame(nil,
			packet.MAC{2, 0, 0, 0, byte(i), 1}, packet.MAC{3},
			packet.IP4{10, 0, 0, byte(i)}, packet.IP4{10, 1, 0, 1},
			uint16(1024+i), 80, packet.TCPAck, 0, 0, make([]byte, 400))
	}
	if reactive {
		// Pre-install the exact rule for each flow, as the forwarder
		// would after one punt; the steady state is measured here.
		for i, f := range frames {
			var d packet.Decoded
			_ = d.Decode(f)
			_ = dp.Table().Add(&datapath.FlowEntry{
				Match: openflow.MatchFromFrame(&d, 1), Priority: 10,
				Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
			}, false)
			_ = i
		}
	}
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.Receive(1, frames[i%len(frames)])
	}
	b.StopTimer()
	lookups, matched := dp.Table().Counters()
	b.ReportMetric(float64(matched)/float64(lookups), "match-rate")
}

// --------------------------------------------------------- A3: ablation

// BenchmarkA3RingSizing measures hwdb's loss-free retention window as the
// fixed ring shrinks: the trade the "ephemeral fixed-memory" design makes.
func BenchmarkA3RingSizing(b *testing.B) {
	for _, ring := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("ring-%d", ring), func(b *testing.B) {
			db := hwdb.NewHomework(clock.Real{}, ring)
			ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = db.InsertFlow(packet.MAC{2}, ft, 1, 1500)
			}
			b.StopTimer()
			tbl, _ := db.Table(hwdb.TableFlows)
			inserts, dropped := tbl.Stats()
			b.ReportMetric(float64(dropped)/float64(inserts), "drop-rate")
		})
	}
}

// ------------------------------------------------- D: data-plane hot path

// BenchmarkFrameBuild pins the cost (and allocs/op) of serializing one
// Ethernet/IPv4/TCP frame into a reused buffer, as the hot paths do.
func BenchmarkFrameBuild(b *testing.B) {
	srcMAC, dstMAC := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}
	srcIP, dstIP := packet.IP4{192, 168, 1, 10}, packet.IP4{93, 184, 216, 34}
	payload := make([]byte, 1200)
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = packet.AppendTCPFrame(buf[:0], srcMAC, dstMAC, srcIP, dstIP,
				40000, 80, packet.TCPAck, uint32(i), 0, payload)
		}
		b.SetBytes(int64(len(buf)))
	})
}

// BenchmarkTableLookup pins the cost (and allocs/op) of an exact-match
// flow-table lookup against a 1k-entry table, serial and with every
// logical CPU looking up concurrently — the read-lock path that lets
// ports proceed in parallel.
func BenchmarkTableLookup(b *testing.B) {
	tbl := datapath.NewFlowTable()
	var probe packet.Decoded
	var frameLen int
	for i := 0; i < 1024; i++ {
		f := packet.AppendTCPFrame(nil,
			packet.MAC{2, 0, 0, byte(i >> 8), byte(i), 1}, packet.MAC{3},
			packet.IP4{10, 0, byte(i >> 8), byte(i)}, packet.IP4{10, 1, 0, 1},
			uint16(1024+i), 80, packet.TCPAck, 0, 0, nil)
		var d packet.Decoded
		if err := d.Decode(f); err != nil {
			b.Fatal(err)
		}
		_ = tbl.Add(&datapath.FlowEntry{Match: openflow.MatchFromFrame(&d, 1), Priority: 10}, false)
		probe, frameLen = d, len(f)
	}
	now := time.Now()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tbl.Lookup(&probe, 1, frameLen, now) == nil {
				b.Fatal("probe missed")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			d := probe
			for pb.Next() {
				if tbl.Lookup(&d, 1, frameLen, now) == nil {
					b.Fatal("probe missed")
				}
			}
		})
	})
}

// ------------------------------------------------------------- helpers

func startBenchRouter(b *testing.B, mutate func(*core.Config)) *core.Router {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.AutoPermit = true
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Stop)
	return rt
}
