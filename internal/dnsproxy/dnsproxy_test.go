package dnsproxy

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
	"repro/internal/policy"
)

func testProxy(eng *policy.Engine, clk clock.Clock) *Proxy {
	return New(Config{
		RouterIP:    packet.MustIP4("192.168.1.1"),
		RouterMAC:   packet.MustMAC("02:01:00:00:00:01"),
		UpstreamDNS: packet.MustIP4("8.8.8.8"),
		UpstreamMAC: packet.MustMAC("02:ee:00:00:00:01"),
		Policy:      eng, Clock: clk,
	})
}

var (
	devMAC = packet.MustMAC("02:aa:00:00:00:01")
	fbIP   = packet.MustIP4("157.240.1.35")
)

func TestNameForRecordsBindings(t *testing.T) {
	clk := clock.NewSimulated()
	p := testProxy(nil, clk)
	p.mu.Lock()
	p.bindings[devMAC] = map[packet.IP4]binding{fbIP: {name: "facebook.com", at: clk.Now()}}
	p.mu.Unlock()

	name, ok := p.nameFor(devMAC, fbIP)
	if !ok || name != "facebook.com" {
		t.Errorf("nameFor = %q, %v", name, ok)
	}
	// Another device can still use the shared reverse cache.
	p.mu.Lock()
	p.revCache[fbIP] = binding{name: "facebook.com", at: clk.Now()}
	p.mu.Unlock()
	other := packet.MustMAC("02:aa:00:00:00:02")
	if name, ok := p.nameFor(other, fbIP); !ok || name != "facebook.com" {
		t.Errorf("reverse cache miss: %q, %v", name, ok)
	}
}

func TestNameForExpires(t *testing.T) {
	clk := clock.NewSimulated()
	p := testProxy(nil, clk)
	p.mu.Lock()
	p.bindings[devMAC] = map[packet.IP4]binding{fbIP: {name: "facebook.com", at: clk.Now()}}
	p.mu.Unlock()
	clk.Advance(cacheTTL)
	if _, ok := p.nameFor(devMAC, fbIP); !ok {
		t.Error("binding dropped before its TTL ran out")
	}
	clk.Advance(time.Nanosecond)
	if _, ok := p.nameFor(devMAC, fbIP); ok {
		t.Error("stale binding honoured")
	}
}

func TestFlowPermittedUnrestricted(t *testing.T) {
	clk := clock.NewSimulated()
	eng := policy.NewEngine(clk)
	p := testProxy(eng, clk)
	// No policy: everything permitted.
	if !p.FlowPermitted(nil, devMAC, fbIP) {
		t.Error("unrestricted device denied")
	}
}

func TestFlowPermittedSiteRestriction(t *testing.T) {
	clk := clock.NewSimulated()
	eng := policy.NewEngine(clk)
	_ = eng.Install(&policy.Policy{
		Name: "kids", Devices: []string{devMAC.String()},
		AllowedSites: []string{"facebook.com"},
	})
	p := testProxy(eng, clk)

	// Unknown destination: refused (and a reverse lookup would launch if
	// a switch handle were available).
	if p.FlowPermitted(nil, devMAC, fbIP) {
		t.Error("unknown destination permitted")
	}
	// After the device resolves facebook.com, the flow is permitted.
	p.mu.Lock()
	p.bindings[devMAC] = map[packet.IP4]binding{fbIP: {name: "facebook.com", at: clk.Now()}}
	p.mu.Unlock()
	if !p.FlowPermitted(nil, devMAC, fbIP) {
		t.Error("resolved destination denied")
	}
	// A flow to a name outside the allowed set is denied even if known.
	ytIP := packet.MustIP4("142.250.180.14")
	p.mu.Lock()
	p.revCache[ytIP] = binding{name: "youtube.com", at: clk.Now()}
	p.mu.Unlock()
	if p.FlowPermitted(nil, devMAC, ytIP) {
		t.Error("non-allowed site permitted")
	}
}

func TestFlowPermittedNetworkBlocked(t *testing.T) {
	clk := clock.NewSimulated()
	eng := policy.NewEngine(clk)
	_ = eng.Install(&policy.Policy{
		Name: "grounded", Devices: []string{devMAC.String()},
		AllowedSites: []string{"facebook.com"},
		RequireKey:   "key-not-inserted",
	})
	p := testProxy(eng, clk)
	p.mu.Lock()
	p.bindings[devMAC] = map[packet.IP4]binding{fbIP: {name: "facebook.com", at: clk.Now()}}
	p.mu.Unlock()
	if p.FlowPermitted(nil, devMAC, fbIP) {
		t.Error("network-blocked device permitted")
	}
}

// A relayed answer records each address it carries as a binding of the
// device that asked, under the name it asked for.
func TestRelayedAnswerRecordsBinding(t *testing.T) {
	p, dp := fuzzProxy(t)
	_, responses := dnsSeeds()
	dp.PacketIn(responseFrame(responses[0]), upstreamPort)
	p.mu.Lock()
	b := p.bindings[devMAC]
	p.mu.Unlock()
	if len(b) != 1 || b[fbIP].name != "www.facebook.com" {
		t.Errorf("bindings = %v", b)
	}
	if name, ok := p.nameFor(devMAC, fbIP); !ok || name != "www.facebook.com" {
		t.Errorf("nameFor = %q, %v", name, ok)
	}
}
