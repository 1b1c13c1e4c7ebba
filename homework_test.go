package homework

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end
// through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoPermit = true
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	laptop, err := rt.AddHost("laptop", "02:aa:00:00:00:01", true, Pos{X: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.JoinHost(laptop); err != nil {
		t.Fatal(err)
	}
	if !laptop.Bound() || laptop.LeaseMask() != 32 {
		t.Fatalf("bound=%v mask=/%d", laptop.Bound(), laptop.LeaseMask())
	}

	laptop.AddApp(NewApp(AppWeb, "example.com", 50_000))
	for i := 0; i < 12; i++ {
		rt.Net.Step(0.25)
		if err := rt.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	rt.PollMeasure()

	view := NewBandwidthView(rt.DB)
	out, err := view.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "laptop") || !strings.Contains(out, "http") {
		t.Errorf("render:\n%s", out)
	}
}

// TestPublicAPIRemoteDB exercises the UDP RPC through the facade.
func TestPublicAPIRemoteDB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoPermit = true
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	cli, err := DialDB(rt.HwdbServer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Exec("SELECT count(*) FROM Leases")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestPublicAPIParsers covers the exported helpers: the simulated clock,
// and the address parsers behind the facade's MAC and IP4 strings.
func TestPublicAPIParsers(t *testing.T) {
	if _, err := packet.ParseMAC("02:aa:00:00:00:01"); err != nil {
		t.Error(err)
	}
	if _, err := packet.ParseIP4("192.168.1.1"); err != nil {
		t.Error(err)
	}
	clk := NewSimulatedClock()
	before := clk.Now()
	clk.Advance(time.Minute)
	if clk.Now().Sub(before) != time.Minute {
		t.Error("simulated clock wrong")
	}
}
