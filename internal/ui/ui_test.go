package ui

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/controlapi"
	"repro/internal/dhcp"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/policy"
)

var (
	laptopMAC = packet.MustMAC("02:aa:00:00:00:01")
	phoneMAC  = packet.MustMAC("02:aa:00:00:00:02")
)

func seededDB(clk clock.Clock) *hwdb.DB {
	db := hwdb.NewHomework(clk, 4096)
	_ = db.InsertLease("add", laptopMAC, packet.MustIP4("192.168.1.10"), "toms-mac-air")
	_ = db.InsertLease("add", phoneMAC, packet.MustIP4("192.168.1.11"), "kids-phone")
	web := packet.FiveTuple{
		Src: packet.MustIP4("192.168.1.10"), Dst: packet.MustIP4("93.184.216.34"),
		Proto: packet.ProtoTCP, SrcPort: 50000, DstPort: 80,
	}
	video := packet.FiveTuple{
		Src: packet.MustIP4("192.168.1.10"), Dst: packet.MustIP4("142.250.180.14"),
		Proto: packet.ProtoTCP, SrcPort: 50001, DstPort: 443,
	}
	dns := packet.FiveTuple{
		Src: packet.MustIP4("192.168.1.11"), Dst: packet.MustIP4("192.168.1.1"),
		Proto: packet.ProtoUDP, SrcPort: 5353, DstPort: 53,
	}
	_ = db.InsertFlow(laptopMAC, web, 10, 50_000)
	_ = db.InsertFlow(laptopMAC, video, 100, 400_000)
	_ = db.InsertFlow(phoneMAC, dns, 2, 300)
	// Response direction: service identified by the source port.
	webBack := packet.FiveTuple{Src: web.Dst, Dst: web.Src, Proto: web.Proto, SrcPort: web.DstPort, DstPort: web.SrcPort}
	_ = db.InsertFlow(laptopMAC, webBack, 20, 150_000)
	return db
}

func TestBandwidthRows(t *testing.T) {
	clk := clock.NewSimulated()
	db := seededDB(clk)
	v := NewBandwidthView(db)
	rows, err := v.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// The laptop dominates and appears first, with https (video) as its
	// top service.
	if rows[0].Device != "toms-mac-air" {
		t.Errorf("top device = %q", rows[0].Device)
	}
	if rows[0].Service != "https" {
		t.Errorf("top service = %q", rows[0].Service)
	}
	// Both directions of the web flow aggregate under "http".
	var httpBytes uint64
	for _, r := range rows {
		if r.Service == "http" && r.MAC == laptopMAC {
			httpBytes = r.Bytes
		}
	}
	if httpBytes != 200_000 {
		t.Errorf("http bytes = %d, want 200000 (both directions)", httpBytes)
	}
}

func TestBandwidthRenderAndWindow(t *testing.T) {
	clk := clock.NewSimulated()
	db := seededDB(clk)
	v := NewBandwidthView(db)
	out, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"toms-mac-air", "kids-phone", "https", "dns", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Old traffic falls out of the window.
	clk.Advance(time.Minute)
	v.Window = 5 * time.Second
	out, err = v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(no traffic)") {
		t.Errorf("stale traffic still shown:\n%s", out)
	}
}

// TestBandwidthRenderIsDeterministic: a device whose services moved equal
// bytes renders the same on every refresh, those services in name order —
// the display's rows come out of a map, so only the sort can fix their
// order.
func TestBandwidthRenderIsDeterministic(t *testing.T) {
	db := hwdb.NewHomework(clock.NewSimulated(), 4096)
	_ = db.InsertLease("add", laptopMAC, packet.MustIP4("192.168.1.10"), "toms-mac-air")
	for i, port := range []uint16{443, 22, 80, 993, 25} {
		_ = db.InsertFlow(laptopMAC, packet.FiveTuple{
			Src: packet.MustIP4("192.168.1.10"), Dst: packet.MustIP4("93.184.216.34"),
			Proto: packet.ProtoTCP, SrcPort: uint16(50000 + i), DstPort: port,
		}, 10, 1000)
	}
	v := NewBandwidthView(db)
	first, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(line, "  ") && f[0] != "total" {
			order = append(order, f[0])
		}
	}
	if got := strings.Join(order, " "); got != "http https imap smtp ssh" {
		t.Fatalf("services of equal bytes in order %q, want by name:\n%s", got, first)
	}
	for i := 0; i < 100; i++ {
		if out, err := v.Render(); err != nil || out != first {
			t.Fatalf("refresh %d rendered differently (%v):\n%s\nfirst:\n%s", i, err, out, first)
		}
	}
}

// TestDisplaysParseOncePerWindowAndMAC: a refresh reuses the parsed
// statement, and a display whose window or MAC is changed under it reads
// with the new one.
func TestDisplaysParseOncePerWindowAndMAC(t *testing.T) {
	clk := clock.NewSimulated()
	db := seededDB(clk)
	v := NewBandwidthView(db)
	clk.Advance(8 * time.Second)
	if rows, err := v.Rows(); err != nil || len(rows) == 0 {
		t.Fatalf("10 s window, 8 s on: %d rows, %v", len(rows), err)
	}
	parsed := v.flows
	if rows, err := v.Rows(); err != nil || len(rows) == 0 || v.flows != parsed {
		t.Fatalf("second refresh: %d rows, %v, reparsed %v", len(rows), err, v.flows != parsed)
	}
	v.Window = 5 * time.Second
	if rows, err := v.Rows(); err != nil || len(rows) != 0 {
		t.Fatalf("5 s window, 8 s on: %d rows, %v; want none", len(rows), err)
	}

	_ = db.InsertLink(phoneMAC, -45, 0, 54)
	_ = db.InsertLink(laptopMAC, -85, 0, 54)
	a := NewArtifact(db, phoneMAC)
	if rssi, ok := a.rssi(); !ok || rssi != -45 {
		t.Fatalf("phone rssi = %d, %v", rssi, ok)
	}
	sel := a.rssiSel
	if rssi, ok := a.rssi(); !ok || rssi != -45 || a.rssiSel != sel {
		t.Fatalf("second read: %d, %v, reparsed %v", rssi, ok, a.rssiSel != sel)
	}
	a.MAC = laptopMAC
	if rssi, ok := a.rssi(); !ok || rssi != -85 {
		t.Fatalf("after the artifact changed hands: rssi = %d, %v, want the laptop's -85", rssi, ok)
	}
}

// A lease written between two refreshes names its device on the next one,
// and a later lease renames it: the view keeps its hostnames only while
// the Leases table has had no insert, and what it keeps is what a fresh
// view reads.
func TestBandwidthNamesFollowNewLeases(t *testing.T) {
	clk := clock.NewSimulated()
	db := seededDB(clk)
	v := NewBandwidthView(db)
	tvMAC, tvIP := packet.MustMAC("02:aa:00:00:00:03"), packet.MustIP4("192.168.1.12")
	_ = db.InsertFlow(tvMAC, packet.FiveTuple{
		Src: tvIP, Dst: packet.MustIP4("142.250.180.14"),
		Proto: packet.ProtoTCP, SrcPort: 50002, DstPort: 443,
	}, 50, 90_000)
	deviceOf := func(mac packet.MAC) string {
		t.Helper()
		rows, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewBandwidthView(db).Rows()
		if err != nil || !reflect.DeepEqual(rows, fresh) {
			t.Fatalf("the kept view's rows %v differ from a fresh view's %v (%v)", rows, fresh, err)
		}
		for _, r := range rows {
			if r.MAC == mac {
				return r.Device
			}
		}
		t.Fatalf("no row for %s", mac)
		return ""
	}
	if got := deviceOf(tvMAC); got != tvMAC.String() {
		t.Fatalf("before its lease the TV shows as %q, want its MAC", got)
	}
	_ = db.InsertLease("add", tvMAC, tvIP, "living-room-tv")
	if got := deviceOf(tvMAC); got != "living-room-tv" {
		t.Fatalf("after its lease the TV shows as %q", got)
	}
	if got := deviceOf(tvMAC); got != "living-room-tv" {
		t.Fatalf("a refresh with no new lease shows the TV as %q", got)
	}
	_ = db.InsertLease("add", tvMAC, tvIP, "den-tv")
	if got := deviceOf(tvMAC); got != "den-tv" {
		t.Fatalf("after its second lease the TV shows as %q", got)
	}
}

func TestArtifactSignalMode(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	a := NewArtifact(db, phoneMAC)
	if a.mode != ModeSignal {
		t.Fatal("default mode not signal")
	}

	_ = db.InsertLink(phoneMAC, -45, 0, 54)
	frame := a.Step(100 * time.Millisecond)
	litStrong := countLit(frame)

	_ = db.InsertLink(phoneMAC, -85, 3, 9)
	frame = a.Step(100 * time.Millisecond)
	litWeak := countLit(frame)

	if litStrong <= litWeak {
		t.Errorf("lit strong=%d weak=%d", litStrong, litWeak)
	}
	if litStrong != a.signalLEDs(-45) {
		t.Errorf("frame does not match signalLEDs: %d vs %d", litStrong, a.signalLEDs(-45))
	}
}

// TestArtifactSignalReadsNewestOfLast200: the artifact shows its newest
// link sample, not its strongest or weakest, and only while that sample is
// among the table's last 200 — a station that has stopped reporting goes
// dark instead of holding its last level.
func TestArtifactSignalReadsNewestOfLast200(t *testing.T) {
	db := hwdb.NewHomework(clock.NewSimulated(), 1024)
	a := NewArtifact(db, phoneMAC)
	if _, ok := a.rssi(); ok {
		t.Fatal("a reading from an empty Links table")
	}
	for _, rssi := range []int{-85, -45, -60} {
		_ = db.InsertLink(phoneMAC, rssi, 0, 54)
		for i := 0; i < 60; i++ {
			_ = db.InsertLink(laptopMAC, -50, 0, 54)
		}
	}
	if got, ok := a.rssi(); !ok || got != -60 {
		t.Fatalf("rssi = %d, %v; want the newest sample, -60", got, ok)
	}
	for i := 0; i < 140; i++ {
		_ = db.InsertLink(laptopMAC, -50, 0, 54)
	}
	if got, ok := a.rssi(); ok {
		t.Fatalf("rssi = %d from a station silent for 200 samples", got)
	}
}

func TestArtifactSignalLEDMapping(t *testing.T) {
	a := NewArtifact(hwdb.NewHomework(clock.NewSimulated(), 64), phoneMAC)
	if a.signalLEDs(-30) != a.NumLEDs {
		t.Error("strong signal should light the whole strip")
	}
	if a.signalLEDs(-95) != 0 {
		t.Error("no signal should light nothing")
	}
	prev := a.NumLEDs + 1
	for rssi := -40; rssi >= -90; rssi -= 10 {
		n := a.signalLEDs(rssi)
		if n > prev {
			t.Errorf("signalLEDs(%d) = %d not monotone", rssi, n)
		}
		prev = n
	}
}

func TestArtifactBandwidthModeSpeeds(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 4096)
	a := NewArtifact(db, phoneMAC)
	a.SetMode(ModeBandwidth)

	ft := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
	// Establish a peak.
	_ = db.InsertFlow(laptopMAC, ft, 100, 1_000_000)
	fast := a.AnimationSpeed()
	clk.Advance(3 * time.Second) // flows age out of the 2s window
	slow := a.AnimationSpeed()
	if fast <= slow {
		t.Errorf("speed fast=%g slow=%g", fast, slow)
	}
	// The animation position advances.
	f1 := a.Step(100 * time.Millisecond)
	_ = f1
	var moved bool
	pos1 := litIndex(a.Step(0))
	a.phase += 1.0
	if litIndex(a.Step(0)) != pos1 {
		moved = true
	}
	if !moved {
		t.Error("animation does not move")
	}
}

func TestArtifactDHCPMode(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	a := NewArtifact(db, phoneMAC)
	a.SetMode(ModeDHCP)
	a.WatchLeases()

	// A lease grant flashes green.
	_ = db.InsertLease("add", laptopMAC, packet.MustIP4("192.168.1.10"), "laptop")
	frame := a.Step(100 * time.Millisecond)
	if frame[0] != LEDGreen {
		t.Errorf("grant frame = %s", RenderFrame(frame))
	}
	// Flashes decay after a few frames.
	for i := 0; i < 4; i++ {
		frame = a.Step(100 * time.Millisecond)
	}
	if frame[0] == LEDGreen {
		t.Error("flash never decays")
	}
	// A revocation flashes blue.
	_ = db.InsertLease("del", laptopMAC, packet.MustIP4("192.168.1.10"), "laptop")
	frame = a.Step(100 * time.Millisecond)
	if frame[0] != LEDBlue {
		t.Errorf("revoke frame = %s", RenderFrame(frame))
	}
	// High retry rates flash red.
	for i := 0; i < 4; i++ {
		a.Step(100 * time.Millisecond)
	}
	for i := 0; i < 25; i++ {
		_ = db.InsertLink(phoneMAC, -80, 6, 9)
	}
	frame = a.Step(100 * time.Millisecond)
	if frame[0] != LEDRed {
		t.Errorf("retry frame = %s", RenderFrame(frame))
	}
}

func TestRenderFrame(t *testing.T) {
	s := RenderFrame([]LED{LEDWhite, LEDOff, LEDRed})
	if s != "[W.R]" {
		t.Errorf("RenderFrame = %q", s)
	}
}

func countLit(leds []LED) int {
	n := 0
	for _, l := range leds {
		if l != LEDOff {
			n++
		}
	}
	return n
}

func litIndex(leds []LED) int {
	for i, l := range leds {
		if l != LEDOff {
			return i
		}
	}
	return -1
}

func TestDHCPControlAgainstAPI(t *testing.T) {
	clk := clock.NewSimulated()
	srv := dhcp.NewServer(dhcp.Config{
		ServerIP:  packet.MustIP4("192.168.1.1"),
		ServerMAC: packet.MustMAC("02:01:00:00:00:01"),
		PoolStart: packet.MustIP4("192.168.1.10"),
		PoolEnd:   packet.MustIP4("192.168.1.250"),
		Clock:     clk,
	})
	eng := policy.NewEngine(clk)
	api := controlapi.New(srv, eng, packet.MustIP4("192.168.1.1"))
	if err := api.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer api.Close()

	// Two devices show up pending.
	srv.Annotate(laptopMAC, "")
	srv.Annotate(phoneMAC, "")

	ctl := NewDHCPControl("http://" + api.Addr())
	tabs, err := ctl.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].State != "pending" {
		t.Fatalf("tabs = %+v", tabs)
	}

	// Drag one to permitted, one to denied; annotate the first.
	if err := ctl.DragTo(laptopMAC.String(), "permitted"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.DragTo(phoneMAC.String(), "denied"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Annotate(laptopMAC.String(), "Tom's laptop"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.DragTo(laptopMAC.String(), "sideways"); err == nil {
		t.Error("bogus category accepted")
	}

	out, err := ctl.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== pending ==", "== permitted ==", "== denied ==", "Tom's laptop"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	d1, _ := srv.Lookup(laptopMAC)
	d2, _ := srv.Lookup(phoneMAC)
	if d1.State != dhcp.Permitted || d2.State != dhcp.Denied {
		t.Errorf("states = %v, %v", d1.State, d2.State)
	}
}

func TestPolicyCartoonCompileAndRender(t *testing.T) {
	c := &PolicyCartoon{
		Name: "kids-facebook",
		Who:  []CartoonDevice{{Label: "kids tablet", MAC: phoneMAC.String()}},
		What: []string{"facebook.com"},
		WhenDays: []string{
			"monday", "tuesday", "wednesday", "thursday", "friday",
		},
		WhenFrom: "16:00", WhenUntil: "20:00",
		KeyID: "parent-key",
	}
	p, err := c.compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.RequireKey != "parent-key" || len(p.Devices) != 1 {
		t.Errorf("policy = %+v", p)
	}
	out := c.Render()
	for _, want := range []string{"WHO", "WHAT", "WHEN", "KEY", "facebook.com", "parent-key"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Writing to USB produces the key layout.
	dir := t.TempDir() + "/usb0"
	if err := c.WriteToUSB(dir); err != nil {
		t.Fatal(err)
	}

	bad := &PolicyCartoon{Name: "x"}
	if _, err := bad.compile(); err == nil {
		t.Error("empty cartoon compiled")
	}
}
