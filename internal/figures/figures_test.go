package figures

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

func TestFigure1ShowsAllDevicesAndProtocols(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"toms-mac-air", "kids-tablet", "xbox", "kitchen-radio", "thermostat", "work-laptop",
		"https", "http", "p2p", "voip",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2AllThreeModes(t *testing.T) {
	out, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Mode 1", "Mode 2", "Mode 3", "lease granted", "lease revoked", "[G", "[B"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2 missing %q:\n%s", want, out)
		}
	}
	// The walk-through must show fewer LEDs far from the hub than near.
	lines := strings.Split(out, "\n")
	var first, last string
	for _, l := range lines {
		if strings.Contains(l, "m from hub") {
			if first == "" {
				first = l
			}
			last = l
		}
	}
	if strings.Count(first, "W") <= strings.Count(last, "W") {
		t.Errorf("RSSI walk-through not monotone:\n%s\n%s", first, last)
	}
}

func TestFigure3DragChangesCategories(t *testing.T) {
	out, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Before user action", "After drag-to-permit/deny",
		"Sam's new phone", "neighbours-laptop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 3 missing %q:\n%s", want, out)
		}
	}
	// After the drags, the permitted device must hold an address.
	after := out[strings.Index(out, "After"):]
	if !strings.Contains(after, "192.168.1.") {
		t.Errorf("no lease after permit:\n%s", after)
	}
}

func TestFigure4KeyMediatesAccess(t *testing.T) {
	out, err := Figure4(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "key inserted:") || !strings.Contains(out, "flows pass") {
		t.Errorf("key-in access missing:\n%s", out)
	}
	if !strings.Contains(out, "key removed:") || !strings.Contains(out, "BLOCKED at router") {
		t.Errorf("key-out block missing:\n%s", out)
	}
}

func TestFigure5ListsComponents(t *testing.T) {
	out, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dhcp-server", "dns-proxy", "control-api", "forwarder",
		"Flows", "Leases", "Links", "flow table", "eth0-upstream",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 missing %q:\n%s", want, out)
		}
	}
}

// A device the router does not bind leaves the network again: join
// returns an error and the home has as many hosts as before it.
func TestUnboundJoinDetachesTheDevice(t *testing.T) {
	h, err := startHome(func(c *core.Config) { c.AutoPermit = false })
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	before := len(h.rt.Net.Hosts())
	if _, err := h.join("visitor", "02:aa:00:00:00:09", false, netsim.Pos{}); err == nil {
		t.Fatal("a device pending approval joined without error")
	}
	if after := len(h.rt.Net.Hosts()); after != before {
		t.Errorf("%d hosts after the failed join, want %d as before", after, before)
	}
	if _, ok := h.hosts["visitor"]; ok {
		t.Error("the unbound device is listed among the home's hosts")
	}
}
