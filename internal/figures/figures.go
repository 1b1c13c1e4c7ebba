// Package figures regenerates every figure of the paper's demo as a text
// artifact, driving the full platform end-to-end: simulated devices join
// over DHCP, generate traffic through the OpenFlow datapath, measurements
// stream into hwdb, and each of the four interfaces renders what its
// screen showed. The cmd/figures binary prints them; bench_test.go times
// them.
//
// Concurrency: each Figure builds, drives and tears down its own
// isolated platform and shares nothing with other runs, so different
// figures may regenerate concurrently; a single figure run is
// internally sequential (traffic is injected, settled and rendered in
// order).
package figures

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/ui"
	"repro/internal/usbmon"
)

// home is a running scenario used by the figure generators.
type home struct {
	rt    *core.Router
	hosts map[string]*netsim.Host
	// sim is the router's clock when it is simulated; run advances it.
	sim *clock.Simulated
}

// startHome brings up a router with the given config mutations.
func startHome(mutate func(*core.Config)) (*home, error) {
	cfg := core.DefaultConfig()
	cfg.AutoPermit = true
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	sim, _ := cfg.Clock.(*clock.Simulated)
	return &home{rt: rt, hosts: make(map[string]*netsim.Host), sim: sim}, nil
}

func (h *home) stop() { h.rt.Stop() }

// join adds and DHCP-binds a device. A device that does not bind is
// detached from the network again.
func (h *home) join(name, mac string, wireless bool, pos netsim.Pos) (*netsim.Host, error) {
	host, err := h.rt.AddHost(name, mac, wireless, pos)
	if err != nil {
		return nil, err
	}
	err = h.rt.JoinHost(host)
	if err == nil && !host.Bound() {
		err = fmt.Errorf("figures: %s did not bind", name)
	}
	if err != nil {
		_ = h.rt.Net.RemoveHost(host.MAC)
		return nil, err
	}
	h.hosts[name] = host
	return host, nil
}

// run advances traffic n steps of dt seconds, settling the control path
// and polling the measurement plane each second of simulated time. A
// simulated clock moves dt with each step.
func (h *home) run(n int, dt float64) error {
	acc := 0.0
	for i := 0; i < n; i++ {
		if h.sim != nil {
			h.sim.Advance(time.Duration(dt * float64(time.Second)))
		}
		h.rt.Net.Step(dt)
		if err := h.rt.Settle(); err != nil {
			return err
		}
		acc += dt
		if acc >= 1.0 {
			h.rt.PollMeasure()
			acc = 0
		}
	}
	h.rt.PollMeasure()
	return nil
}

// Figure1 regenerates the per-device per-protocol bandwidth display: six
// devices with the traffic mix the paper's intro motivates.
func Figure1() (string, error) {
	h, err := startHome(nil)
	if err != nil {
		return "", err
	}
	defer h.stop()

	devices := []struct {
		name     string
		mac      string
		wireless bool
		pos      netsim.Pos
		app      *netsim.App
	}{
		{"toms-mac-air", "02:aa:00:00:00:01", true, netsim.Pos{X: 3}, netsim.NewApp(netsim.AppVideo, "youtube.com", 120_000)},
		{"kids-tablet", "02:aa:00:00:00:02", true, netsim.Pos{X: 6}, netsim.NewApp(netsim.AppWeb, "facebook.com", 40_000)},
		{"xbox", "02:aa:00:00:00:03", false, netsim.Pos{}, netsim.NewApp(netsim.AppP2P, "tracker.example", 80_000)},
		{"kitchen-radio", "02:aa:00:00:00:04", true, netsim.Pos{X: 8, Y: 3}, netsim.NewApp(netsim.AppVoIP, "voip.example.com", 12_000)},
		{"thermostat", "02:aa:00:00:00:05", true, netsim.Pos{X: 10}, netsim.NewApp(netsim.AppIoT, "iot.example.com", 1_000)},
		{"work-laptop", "02:aa:00:00:00:06", false, netsim.Pos{}, netsim.NewApp(netsim.AppWeb, "bbc.co.uk", 60_000)},
	}
	for _, d := range devices {
		host, err := h.join(d.name, d.mac, d.wireless, d.pos)
		if err != nil {
			return "", err
		}
		host.AddApp(d.app)
	}
	if err := h.run(24, 0.25); err != nil {
		return "", err
	}

	view := ui.NewBandwidthView(h.rt.DB)
	view.Window = 10 * time.Second
	return view.Render()
}

// Figure2 regenerates the network artifact's three modes: an RSSI
// walk-through, a bandwidth ramp, and a DHCP grant/revoke sequence with a
// retry spike. It runs on a simulated clock, so the bandwidth window
// drains without waiting on the wall clock.
func Figure2() (string, error) {
	sim := clock.NewSimulated()
	h, err := startHome(func(c *core.Config) { c.Clock = sim })
	if err != nil {
		return "", err
	}
	defer h.stop()

	var sb strings.Builder
	artifactMAC := packet.MustMAC("02:aa:00:00:00:10")
	probe, err := h.join("artifact", artifactMAC.String(), true, netsim.Pos{X: 1})
	if err != nil {
		return "", err
	}
	art := ui.NewArtifact(h.rt.DB, artifactMAC)
	art.WatchLeases()

	// Mode 1: carry the artifact away from the hub; LEDs track RSSI.
	sb.WriteString("Mode 1 — wireless signal strength (artifact walk-through)\n")
	art.SetMode(ui.ModeSignal)
	for _, x := range []float64{1, 5, 10, 15, 22} {
		probe.MoveTo(netsim.Pos{X: x})
		h.rt.PollMeasure()
		frame := art.Step(200 * time.Millisecond)
		fmt.Fprintf(&sb, "  %4.0fm from hub  %s\n", x, ui.RenderFrame(frame))
	}

	// Mode 2: bandwidth maps to animation speed.
	sb.WriteString("Mode 2 — total bandwidth vs last-day peak (animation speed)\n")
	art.SetMode(ui.ModeBandwidth)
	streamer, err := h.join("streamer", "02:aa:00:00:00:11", false, netsim.Pos{})
	if err != nil {
		return "", err
	}
	app := netsim.NewApp(netsim.AppVideo, "youtube.com", 200_000)
	streamer.AddApp(app)
	if err := h.run(8, 0.25); err != nil {
		return "", err
	}
	busy := art.AnimationSpeed()
	fmt.Fprintf(&sb, "  busy:  %.1f LEDs/s  %s\n", busy, ui.RenderFrame(art.Step(time.Second)))
	// Stop traffic; the window drains relative to the recorded peak.
	app.RateBps = 0
	sim.Advance(2100 * time.Millisecond)
	h.rt.PollMeasure()
	idle := art.AnimationSpeed()
	fmt.Fprintf(&sb, "  idle:  %.1f LEDs/s  %s\n", idle, ui.RenderFrame(art.Step(time.Second)))
	fmt.Fprintf(&sb, "  (speed scales with bandwidth: busy %.1f > idle %.1f)\n", busy, idle)

	// Mode 3: lease grants flash green, revocations blue.
	sb.WriteString("Mode 3 — DHCP lease activity (flash colour)\n")
	art.SetMode(ui.ModeDHCP)
	guest, err := h.join("guest-phone", "02:aa:00:00:00:12", true, netsim.Pos{X: 2})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  lease granted   %s\n", ui.RenderFrame(art.Step(100*time.Millisecond)))
	for i := 0; i < 3; i++ {
		art.Step(100 * time.Millisecond)
	}
	guest.Release()
	if err := h.rt.Settle(); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  lease revoked   %s\n", ui.RenderFrame(art.Step(100*time.Millisecond)))
	return sb.String(), nil
}

// Figure3 regenerates the situated DHCP control interface: unknown
// devices request access, the user interrogates and annotates them, then
// drags them between categories.
func Figure3() (string, error) {
	h, err := startHome(func(c *core.Config) { c.AutoPermit = false })
	if err != nil {
		return "", err
	}
	defer h.stop()

	if err := h.rt.API.ListenAndServe("127.0.0.1:0"); err != nil {
		return "", err
	}
	base := "http://" + h.rt.API.Addr()
	ctl := ui.NewDHCPControl(base)

	// Four unknown devices ask for leases and appear pending.
	macs := []string{"02:bb:00:00:00:01", "02:bb:00:00:00:02", "02:bb:00:00:00:03", "02:bb:00:00:00:04"}
	names := []string{"new-phone", "smart-tv", "neighbours-laptop", "e-reader"}
	for i, m := range macs {
		host, err := h.rt.AddHost(names[i], m, true, netsim.Pos{X: float64(2 + i)})
		if err != nil {
			return "", err
		}
		if err := h.rt.JoinHost(host); err != nil {
			return "", err
		}
	}
	var sb strings.Builder
	sb.WriteString("Before user action:\n")
	before, err := ctl.Render()
	if err != nil {
		return "", err
	}
	sb.WriteString(before)

	// The user annotates and drags tabs between categories.
	_ = ctl.Annotate(macs[0], "Sam's new phone")
	_ = ctl.DragTo(macs[0], "permitted")
	_ = ctl.DragTo(macs[1], "permitted")
	_ = ctl.DragTo(macs[2], "denied")

	// Permitted devices retry and get leases; the denied one is NAKed.
	for _, m := range macs[:3] {
		if host, ok := h.rt.Net.Host(packet.MustMAC(m)); ok {
			_ = h.rt.JoinHost(host)
		}
	}
	sb.WriteString("\nAfter drag-to-permit/deny:\n")
	after, err := ctl.Render()
	if err != nil {
		return "", err
	}
	sb.WriteString(after)
	return sb.String(), nil
}

// Figure4 regenerates the USB policy interface: the cartoon compiles to a
// policy carried on a USB key; insertion enacts it and removal revokes it.
func Figure4(usbRoot string) (string, error) {
	// The cartoon's Mon–Fri schedule is evaluated against the router's
	// policy clock; pin it to the simulated epoch (a Monday) so the
	// figure regenerates identically on any day of the week.
	h, err := startHome(func(c *core.Config) { c.Clock = clock.NewSimulated() })
	if err != nil {
		return "", err
	}
	defer h.stop()

	kid, err := h.join("kids-tablet", "02:aa:00:00:00:02", true, netsim.Pos{X: 6})
	if err != nil {
		return "", err
	}
	var sb strings.Builder

	cartoon := &ui.PolicyCartoon{
		Name: "kids-facebook",
		Who:  []ui.CartoonDevice{{Label: "the kids", MAC: kid.MAC.String()}},
		What: []string{"facebook.com"},
		WhenDays: []string{
			"monday", "tuesday", "wednesday", "thursday", "friday",
		},
		WhenFrom: "00:00", WhenUntil: "23:59",
		KeyID: "parent-key",
	}
	sb.WriteString(cartoon.Render())
	keyDir := usbRoot + "/usb0"
	if err := cartoon.WriteToUSB(keyDir); err != nil {
		return "", err
	}
	mon := usbmon.New(usbRoot, h.rt.Policy)

	check := func(label string) error {
		app := netsim.NewApp(netsim.AppWeb, "facebook.com", 20_000)
		kid.AddApp(app)
		// Judge by what actually crosses the router to the upstream, not
		// by what the device emits (denied frames die in the datapath).
		rxBefore, _, _ := h.rt.Upstream.Counters()
		if err := h.run(10, 0.25); err != nil {
			return err
		}
		rxAfter, _, _ := h.rt.Upstream.Counters()
		acc := h.rt.Policy.AccessFor(kid.MAC)
		verdict := "BLOCKED at router"
		if rxAfter > rxBefore {
			verdict = "flows pass"
		}
		fmt.Fprintf(&sb, "%-28s access=%v facebook.com: %s (%s)\n",
			label, acc.NetworkAllowed, verdict, acc.Reason)
		return nil
	}

	// The monitor scan is the "udev event". Before the key is written the
	// policy is not even installed; after scan it is installed and the
	// key counts as inserted.
	if err := mon.Scan(); err != nil {
		return "", err
	}
	if err := check("key inserted:"); err != nil {
		return "", err
	}
	// Pull the key out: restrictions bite.
	if err := removeKeyDir(keyDir); err != nil {
		return "", err
	}
	if err := mon.Scan(); err != nil {
		return "", err
	}
	if err := h.rt.Settle(); err != nil {
		return "", err
	}
	if err := check("key removed:"); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Figure5 regenerates the software architecture figure: every component
// of the platform, live-checked.
func Figure5() (string, error) {
	h, err := startHome(nil)
	if err != nil {
		return "", err
	}
	defer h.stop()
	if _, err := h.join("laptop", "02:aa:00:00:00:01", false, netsim.Pos{}); err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("Software architecture of the Homework home router\n")
	sb.WriteString("(live component inventory; cf. paper Figure 5)\n\n")
	sb.WriteString("  userspace\n")
	fmt.Fprintf(&sb, "    nox controller      components: %s\n",
		strings.Join(h.rt.Controller.Components(), ", "))
	tables, err := h.rt.Switch().TableStats()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "    hwdb                tables: %s\n",
		strings.Join(h.rt.DB.TableNames(), ", "))
	fmt.Fprintf(&sb, "    hwdb UDP RPC        %s\n", h.rt.HwdbServer.Addr())
	fmt.Fprintf(&sb, "    control API         %d device(s), %d policy(ies)\n",
		len(h.rt.DHCP.Devices()), len(h.rt.Policy.Policies()))
	sb.WriteString("  datapath\n")
	fmt.Fprintf(&sb, "    openflow channel    dpid=%012x\n", h.rt.Datapath.ID())
	fmt.Fprintf(&sb, "    flow table          %d entr(ies), %d lookups\n",
		tables[0].ActiveCount, tables[0].LookupCount)
	ports := h.rt.Datapath.Ports()
	names := make([]string, 0, len(ports))
	for _, p := range ports {
		names = append(names, p.Name)
	}
	fmt.Fprintf(&sb, "    ports               %s\n", strings.Join(names, ", "))
	sb.WriteString("  control flows: UI -> control API -> {dhcp, dns, policy} -> flow table\n")
	sb.WriteString("  data flows:    ports -> flow table -> {forward, punt} -> measurement -> hwdb -> UIs\n")
	return sb.String(), nil
}

// removeKeyDir deletes a key directory ("pulling the stick out").
func removeKeyDir(dir string) error { return os.RemoveAll(dir) }
