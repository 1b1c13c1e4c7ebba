package policy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

var kidMAC = packet.MustMAC("02:aa:00:00:00:01")

func kidsPolicy() *Policy {
	return &Policy{
		Name:         "kids-facebook",
		Devices:      []string{kidMAC.String()},
		AllowedSites: []string{"facebook.com"},
		Schedule:     Schedule{Days: []string{"monday", "tuesday", "wednesday", "thursday", "friday"}, From: "16:00", Until: "20:00"},
		RequireKey:   "parent-key",
	}
}

func TestScheduleWeekdays(t *testing.T) {
	s := Schedule{Days: []string{"saturday", "sunday"}}
	sat := time.Date(2011, time.August, 20, 12, 0, 0, 0, time.UTC) // Saturday
	mon := time.Date(2011, time.August, 15, 12, 0, 0, 0, time.UTC) // Monday
	if ok, _ := s.activeAt(sat); !ok {
		t.Error("Saturday not active")
	}
	if ok, _ := s.activeAt(mon); ok {
		t.Error("Monday active")
	}
}

func TestScheduleTimeOfDay(t *testing.T) {
	s := Schedule{From: "16:00", Until: "20:00"}
	at := func(h, m int) time.Time { return time.Date(2011, 8, 15, h, m, 0, 0, time.UTC) }
	cases := []struct {
		h, m int
		want bool
	}{
		{15, 59, false}, {16, 0, true}, {18, 30, true}, {20, 0, true}, {20, 1, false},
	}
	for _, c := range cases {
		if got, _ := s.activeAt(at(c.h, c.m)); got != c.want {
			t.Errorf("activeAt(%02d:%02d) = %v, want %v", c.h, c.m, got, c.want)
		}
	}
}

func TestScheduleWrapsMidnight(t *testing.T) {
	s := Schedule{From: "22:00", Until: "06:00"}
	at := func(h int) time.Time { return time.Date(2011, 8, 15, h, 0, 0, 0, time.UTC) }
	if ok, _ := s.activeAt(at(23)); !ok {
		t.Error("23:00 not active")
	}
	if ok, _ := s.activeAt(at(3)); !ok {
		t.Error("03:00 not active")
	}
	if ok, _ := s.activeAt(at(12)); ok {
		t.Error("12:00 active")
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	if _, err := (&Schedule{Days: []string{"funday"}}).activeAt(time.Now()); err == nil {
		t.Error("bad weekday accepted")
	}
	if _, err := (&Schedule{From: "25:00"}).activeAt(time.Now()); err == nil {
		t.Error("bad time accepted")
	}
}

func TestPolicyValidate(t *testing.T) {
	good := kidsPolicy()
	if err := good.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	bad := []*Policy{
		{},
		{Name: "x"},
		{Name: "x", Devices: []string{"not-a-mac"}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestParsePolicyJSON(t *testing.T) {
	data := []byte(`{
	  "name": "kids-facebook",
	  "devices": ["02:aa:00:00:00:01"],
	  "allowed_sites": ["facebook.com"],
	  "schedule": {"days": ["monday"], "from": "16:00", "until": "20:00"},
	  "require_key": "parent-key"
	}`)
	p, err := ParsePolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "kids-facebook" || p.RequireKey != "parent-key" {
		t.Errorf("parsed %+v", p)
	}
	if _, err := ParsePolicy([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestAccessSiteAllowed(t *testing.T) {
	a := Access{NetworkAllowed: true, AllowedSites: []string{"facebook.com"}}
	cases := []struct {
		name string
		want bool
	}{
		{"facebook.com", true},
		{"www.facebook.com", true},
		{"facebook.com.", true},
		{"FACEBOOK.COM", true},
		{"notfacebook.com", false},
		{"facebook.com.evil.example", false},
		{"youtube.com", false},
	}
	for _, c := range cases {
		if got := a.SiteAllowed(c.name); got != c.want {
			t.Errorf("SiteAllowed(%q) = %v, want %v", c.name, got, c.want)
		}
	}
	none := Access{NetworkAllowed: false}
	if none.SiteAllowed("facebook.com") {
		t.Error("blocked device allowed a site")
	}
	open := Access{NetworkAllowed: true}
	if !open.SiteAllowed("anything.example") {
		t.Error("unrestricted device blocked")
	}
}

// engineAt builds an engine whose clock reads a Monday 17:00.
func engineAt(t *testing.T) (*Engine, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated() // 2011-08-15 09:00 UTC, a Monday
	clk.Advance(8 * time.Hour)  // 17:00
	return NewEngine(clk), clk
}

func TestEngineUngovernedDevice(t *testing.T) {
	e, _ := engineAt(t)
	acc := e.AccessFor(kidMAC)
	if acc.Governed || !acc.NetworkAllowed || acc.AllowedSites != nil {
		t.Errorf("access = %+v", acc)
	}
}

// A policy file may spell a device's address in either case; the engine
// compares the parsed address, and hands the policy back as it was given.
func TestEngineDeviceAddressCase(t *testing.T) {
	e, _ := engineAt(t)
	p := kidsPolicy()
	p.Devices = []string{"02:AA:00:00:00:01"}
	p.RequireKey = ""
	p.Schedule = Schedule{}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	if acc := e.AccessFor(kidMAC); !acc.Governed || !acc.NetworkAllowed {
		t.Errorf("upper-case device not governed: %+v", acc)
	}
	if acc := e.AccessFor(packet.MustMAC("02:aa:00:00:00:02")); acc.Governed {
		t.Errorf("other device governed: %+v", acc)
	}
	if got := e.Policies(); len(got) != 1 || got[0] != p || got[0].Devices[0] != "02:AA:00:00:00:01" {
		t.Errorf("policies = %+v", got)
	}
}

func TestEngineKeyMediation(t *testing.T) {
	e, _ := engineAt(t)
	if err := e.Install(kidsPolicy()); err != nil {
		t.Fatal(err)
	}
	acc := e.AccessFor(kidMAC)
	if !acc.Governed || acc.NetworkAllowed {
		t.Errorf("key out: access = %+v", acc)
	}
	e.InsertKey("parent-key")
	acc = e.AccessFor(kidMAC)
	if !acc.NetworkAllowed || len(acc.AllowedSites) != 1 {
		t.Errorf("key in: access = %+v", acc)
	}
	if !acc.SiteAllowed("www.facebook.com") || acc.SiteAllowed("youtube.com") {
		t.Error("site restriction wrong")
	}
	e.RemoveKey("parent-key")
	if acc := e.AccessFor(kidMAC); acc.NetworkAllowed {
		t.Error("access survives key removal")
	}
}

func TestEngineSchedule(t *testing.T) {
	e, clk := engineAt(t)
	_ = e.Install(kidsPolicy())
	e.InsertKey("parent-key")
	if acc := e.AccessFor(kidMAC); !acc.NetworkAllowed {
		t.Error("in-schedule access denied")
	}
	clk.Advance(5 * time.Hour) // 22:00, outside 16:00-20:00
	if acc := e.AccessFor(kidMAC); acc.NetworkAllowed {
		t.Error("out-of-schedule access allowed")
	}
}

func TestEngineMultiplePoliciesUnion(t *testing.T) {
	e, _ := engineAt(t)
	p1 := &Policy{Name: "fb", Devices: []string{kidMAC.String()}, AllowedSites: []string{"facebook.com"}}
	p2 := &Policy{Name: "yt", Devices: []string{kidMAC.String()}, AllowedSites: []string{"youtube.com"}}
	_ = e.Install(p1)
	_ = e.Install(p2)
	acc := e.AccessFor(kidMAC)
	if !acc.SiteAllowed("facebook.com") || !acc.SiteAllowed("youtube.com") {
		t.Errorf("union not applied: %+v", acc)
	}
	if acc.SiteAllowed("bbc.co.uk") {
		t.Error("non-listed site allowed")
	}
	// An unrestricted granting policy lifts all site limits.
	p3 := &Policy{Name: "open", Devices: []string{kidMAC.String()}}
	_ = e.Install(p3)
	if acc := e.AccessFor(kidMAC); acc.AllowedSites != nil {
		t.Errorf("unrestricted policy did not lift limits: %+v", acc)
	}
}

func TestEngineInstallRemoveNotify(t *testing.T) {
	e, _ := engineAt(t)
	changes := 0
	e.OnChange(func() { changes++ })
	_ = e.Install(kidsPolicy())
	e.InsertKey("parent-key")
	e.RemoveKey("parent-key")
	if !e.Remove("kids-facebook") {
		t.Error("remove failed")
	}
	if e.Remove("kids-facebook") {
		t.Error("double remove succeeded")
	}
	if changes != 4 {
		t.Errorf("changes = %d, want 4", changes)
	}
	if len(e.Policies()) != 0 {
		t.Error("policy list not empty")
	}
}

// TestAccessReasonIsAFunctionOfThePolicies: with four policies governing
// one MAC — installed out of name order, one of them replaced and one
// removed and installed again — every AccessFor call gives the same
// reason: the last governing policy's in name order.
func TestAccessReasonIsAFunctionOfThePolicies(t *testing.T) {
	e, _ := engineAt(t)
	for _, name := range []string{"delta", "alpha", "charlie", "bravo", "alpha"} {
		p := &Policy{Name: name, Devices: []string{kidMAC.String()}, AllowedSites: []string{name + ".example"}}
		if err := e.Install(p); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Remove("charlie") {
		t.Fatal("remove failed")
	}
	_ = e.Install(&Policy{Name: "charlie", Devices: []string{kidMAC.String()}, RequireKey: "k"})
	want := "policy delta: access granted"
	for i := range 200 {
		if acc := e.AccessFor(kidMAC); acc.Reason != want {
			t.Fatalf("call %d: reason %q, want %q", i, acc.Reason, want)
		}
	}
	var names []string
	for _, p := range e.Policies() {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "alpha,bravo,charlie,delta" {
		t.Fatalf("policies %s, want them once each in name order", got)
	}
}
