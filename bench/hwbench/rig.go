package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/ui"
)

// Where the simulated traffic goes: a literal address, so the step cost
// under test is datapath + control + measurement, not name resolution.
const upstreamTarget = "203.0.113.10"

// The reads the displays make, verbatim.
const (
	fleetQuery = "SELECT home, sum(bytes) FROM FleetStats GROUP BY home"
	homeQuery  = "SELECT mac, proto, dport, sport, sum(bytes) AS bytes FROM Flows [RANGE 10 SECONDS] GROUP BY mac, proto, dport, sport"
)

// appSlot is one traffic application and the tick its host starts it on.
type appSlot struct {
	app   *netsim.App
	host  *netsim.Host
	start int // tick index (0 = first warm-up tick) the app is attached before
}

// homeRig is the harness's handle on one home: the hosts it joined, the
// apps it will start and the displays it refreshes.
type homeRig struct {
	home   *fleet.Home
	hosts  []*netsim.Host
	apps   []appSlot
	prober *netsim.Host // wired host the flow-setup probe sends from
	view   *ui.BandwidthView
	art    *ui.Artifact
	probes int
}

// rig is one repetition's system under test.
type rig struct {
	def   workloadDef
	clk   *clock.Simulated
	co    *fleet.Coordinator
	tr    *spanRecorder // nil on timed repetitions
	probe packet.IP4    // probe destination, drawn from the seed
	port  uint16        // probe destination port, drawn from the seed

	mu    sync.Mutex // remote homes are populated on the server's goroutine
	homes []*homeRig // ascending home ID

	// remote_web_churn only: the worker hosted in this process.
	eng *engine.Engine
	srv *shardrpc.Server

	tick   int // ticks stepped so far, warm-up included
	failed int // operations that returned an error
}

func (r *rig) remote() bool { return r.def.Name == "remote_web_churn" }

// build brings the workload's fleet up: homes assigned, hosts joined through
// DHCP, rings pre-filled where the workload asks for it. Apps are attached
// later, by step, on the tick their slot names.
func build(def workloadDef, seed int64, tr *spanRecorder) (*rig, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &rig{
		def: def, clk: clock.NewSimulated(), tr: tr,
		probe: packet.IP4{198, 51, 100, byte(1 + rng.Intn(250))},
		port:  uint16(7000 + rng.Intn(1000)),
	}
	populate := func(h *fleet.Home) error {
		hr, err := r.populate(h)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.homes = append(r.homes, hr)
		r.mu.Unlock()
		return nil
	}
	n := def.Homes
	if r.remote() {
		wclk := clock.NewSimulated()
		r.eng = engine.New(engine.Config{Clock: wclk, Seed: seed, OnAssign: populate})
		var be shardrpc.Backend = r.eng
		if tr != nil {
			be = &tracedBackend{Engine: r.eng, r: r}
		}
		r.srv = shardrpc.NewServer(shardrpc.Config{Backend: be, Hub: r.eng.Hub(), Clock: wclk})
		if err := r.srv.Serve("127.0.0.1:0"); err != nil {
			r.stop()
			return nil, fmt.Errorf("shardrpc serve: %w", err)
		}
		r.co = fleet.New(fleet.Config{WorkerAddrs: []string{r.srv.Addr()}, Clock: r.clk, Seed: seed})
	} else {
		r.co = fleet.New(fleet.Config{Shards: 1, Workers: 1, Clock: r.clk, Seed: seed})
	}
	// One home at a time, in ID order: AddHomes would bring them up two at
	// a time on goroutines of its own, which is the kind of scheduling
	// noise set-up time is measured without.
	for i := 0; i < n; i++ {
		h, err := r.co.AddHome()
		if err == nil && !r.remote() {
			err = populate(h)
		}
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("home %d: %w", i, err)
		}
	}
	r.mu.Lock()
	got := len(r.homes)
	r.mu.Unlock()
	if got != n {
		r.stop()
		return nil, fmt.Errorf("populated %d of %d homes", got, n)
	}
	return r, nil
}

// populate joins the workload's hosts to one home and prepares its apps.
func (r *rig) populate(h *fleet.Home) (*homeRig, error) {
	hr := &homeRig{home: h}
	join := func(wireless bool) (*netsim.Host, error) {
		var pos netsim.Pos
		if wireless {
			// 2–8 m from the access point: RSSI stays where first-attempt
			// delivery is ~1, so the seed moves positions and the model's
			// draws without making a probe or a DHCP exchange fail.
			pos = netsim.Pos{X: 2 + 4*h.Rand().Float64(), Y: 2 + 4*h.Rand().Float64()}
		}
		host, err := h.Join("", wireless, pos)
		if err != nil {
			return nil, err
		}
		hr.hosts = append(hr.hosts, host)
		return host, nil
	}
	add := func(host *netsim.Host, kind netsim.AppKind, rate int, churn float64, start int) {
		app := netsim.NewApp(kind, upstreamTarget, rate)
		if churn > 0 {
			app.SetFlowChurn(churn)
		}
		hr.apps = append(hr.apps, appSlot{app: app, host: host, start: start})
	}
	switch r.def.Name {
	case "web_churn", "remote_web_churn":
		// A fresh connection every 0.75 s on a 0.25 s tick is one punt
		// tick in three per app; starting host i on tick i puts the three
		// hosts of a home on the three phases, so every tick every home
		// punts exactly one new flow and the median tick is not on a cliff.
		for i := 0; i < 3; i++ {
			host, err := join(false)
			if err != nil {
				return nil, err
			}
			add(host, netsim.AppWeb, 40_000, 0.75, i)
		}
	case "bulk_stream":
		for i := 0; i < 2; i++ {
			host, err := join(false)
			if err != nil {
				return nil, err
			}
			add(host, netsim.AppVideo, 1_000_000, 0, 0)
		}
	case "home_ui":
		for i, a := range []struct {
			wireless bool
			kind     netsim.AppKind
			rate     int
			churn    float64
		}{
			{false, netsim.AppWeb, 40_000, 0.75},
			{true, netsim.AppVideo, 250_000, 0},
			{true, netsim.AppVoIP, 8_000, 0},
			{false, netsim.AppIoT, 64, 0},
		} {
			host, err := join(a.wireless)
			if err != nil {
				return nil, err
			}
			add(host, a.kind, a.rate, a.churn, i)
		}
		if err := r.prefill(hr); err != nil {
			return nil, err
		}
	}
	for _, host := range hr.hosts {
		if !host.Wireless {
			hr.prober = host
			break
		}
	}
	hr.view = ui.NewBandwidthView(h.Router.DB)
	// The artifact shows its own signal strength: give it a wireless
	// station's address where the home has one.
	artMAC := hr.hosts[0].MAC
	for _, host := range hr.hosts {
		if host.Wireless {
			artMAC = host.MAC
			break
		}
	}
	hr.art = ui.NewArtifact(h.Router.DB, artMAC)
	hr.art.SetMode(ui.ModeSignal)
	return hr, nil
}

// prefill fills the home's Flows, Links and FlowPerf rings to capacity
// through the same insert functions the measurement plane uses, then ages
// the rows out of every display window: a home that has been up for days,
// which is the realistic state and stops query cost drifting with run
// length.
func (r *rig) prefill(hr *homeRig) error {
	db, rng := hr.home.Router.DB, hr.home.Rand()
	flows, _ := db.Table(hwdb.TableFlows)
	for i := 0; i < flows.Cap(); i++ {
		// Hosts take turns, so every seed gives each device the same
		// share of every ring; the seed draws what the rows say.
		host := hr.hosts[i%len(hr.hosts)]
		ft := packet.FiveTuple{
			Src: host.IP(), Dst: packet.IP4{93, 184, byte(rng.Intn(4)), byte(1 + rng.Intn(200))},
			Proto: packet.ProtoTCP, SrcPort: uint16(32768 + rng.Intn(64)), DstPort: []uint16{80, 443, 5060, 8883}[rng.Intn(4)],
		}
		pkts := uint64(1 + rng.Intn(40))
		if err := db.InsertFlow(host.MAC, ft, pkts, pkts*1200); err != nil {
			return err
		}
		if err := db.InsertFlowPerf(host.MAC, ft, pkts, pkts*1200, pkts, pkts*1200, 0, float64(pkts*1200*8*4), 0); err != nil {
			return err
		}
		if err := db.InsertLink(host.MAC, -40-rng.Intn(30), rng.Intn(3), 54); err != nil {
			return err
		}
	}
	r.clk.Advance(time.Minute)
	r.co.Sync()
	return nil
}

// step attaches the apps due on this tick and advances the fleet by one
// tick, returning the wall time of the advance alone.
func (r *rig) step() time.Duration {
	for _, hr := range r.homes {
		for _, s := range hr.apps {
			if s.start == r.tick {
				s.host.AddApp(s.app)
			}
		}
	}
	r.tick++
	t0 := time.Now()
	var err error
	if r.tr != nil {
		err = r.tracedTick()
	} else {
		err = r.co.Step(tickDT)
	}
	d := time.Since(t0)
	if err != nil {
		r.failed++
	}
	return d
}

// probeSamples are the wall times of the four probes run after one tick.
type probeSamples struct {
	flowSetup, fleetQuery, homeQuery, uiRefresh time.Duration
}

// probes runs the four between-tick probes against home `tick mod homes`,
// on the driver goroutine, each starting when the previous call returned.
// An error from the system counts as a failed operation; a wrong output
// aborts the run.
func (r *rig) probes() (probeSamples, error) {
	var ps probeSamples
	hr := r.homes[r.tick%len(r.homes)]
	rt := hr.home.Router

	// Flow setup: first packet of a never-seen five-tuple in, rule live
	// and barriered out. The packet is a bare TCP ACK, which the simulated
	// upstream does not answer, so the chain is exactly one punt on every
	// workload. A SYN would be answered, and the SYN-ACK punts too — but
	// only where the datapath still has a free packet buffer to release
	// the SYN from, which after bulk_stream's first burst is a race per
	// home (README "What the probe cannot use").
	hr.probes++
	sport := uint16(1024 + hr.probes)
	frame := packet.NewTCPFrame(hr.prober.MAC, rt.Config.RouterMAC, hr.prober.IP(), r.probe,
		sport, r.port, packet.TCPAck, 0, nil).Bytes()
	id := r.tr.begin("core.flow_setup", -1)
	t0 := time.Now()
	hr.prober.SendRaw(frame)
	err := rt.Settle()
	ps.flowSetup = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		r.failed++
	} else {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPSrc | openflow.FWTPDst
		m.DLType, m.NWProto, m.TPSrc, m.TPDst = packet.EtherTypeIPv4, uint8(packet.ProtoTCP), sport, r.port
		if len(rt.Datapath.Table().Entries(&m, openflow.PortNone)) == 0 {
			return ps, fmt.Errorf("check probe_rule_installed: home %d: no rule for %s:%d -> %s:%d after Settle",
				hr.home.ID, hr.prober.IP(), sport, r.probe, r.port)
		}
	}

	// The fleet-monitor display's read.
	id = r.tr.begin("hwdb.fleet_select", -1)
	t0 = time.Now()
	res, err := r.co.DB().Query(fleetQuery)
	ps.fleetQuery = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		r.failed++
	} else if len(res.Rows) != len(r.homes) {
		return ps, fmt.Errorf("check fleet_query_rows: %d rows for %d homes", len(res.Rows), len(r.homes))
	}

	// The Figure-1 query, as a display client would send it.
	id = r.tr.begin("hwdb.flows_select", -1)
	t0 = time.Now()
	res, err = rt.DB.Query(homeQuery)
	ps.homeQuery = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		r.failed++
	} else if len(res.Rows) == 0 {
		return ps, fmt.Errorf("check home_query_rows: home %d: no flows in the last 10 s", hr.home.ID)
	}

	// One display refresh: the bandwidth view and the artifact's LEDs.
	id = r.tr.begin("ui.refresh", -1)
	t0 = time.Now()
	rowsID := r.tr.begin("ui.bandwidth_rows", id)
	rows, err := hr.view.Rows()
	r.tr.end(rowsID)
	artID := r.tr.begin("ui.artifact_step", id)
	leds := hr.art.Step(250 * time.Millisecond)
	r.tr.end(artID)
	ps.uiRefresh = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		r.failed++
		return ps, nil
	}
	if len(leds) != hr.art.NumLEDs {
		return ps, fmt.Errorf("check artifact_leds: %d LEDs, want %d", len(leds), hr.art.NumLEDs)
	}
	seen := make(map[packet.MAC]bool, len(hr.hosts))
	for _, row := range rows {
		seen[row.MAC] = true
	}
	for _, s := range hr.apps {
		if !seen[s.host.MAC] {
			return ps, fmt.Errorf("check bandwidth_rows_devices: home %d: active device %s missing from the bandwidth view", hr.home.ID, s.host.MAC)
		}
	}
	return ps, nil
}

// stop tears the repetition's system down; the caller drops the rig.
func (r *rig) stop() {
	if r.co != nil {
		r.co.Stop()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
}
