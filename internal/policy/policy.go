// Package policy implements the Homework router's interactive policy
// language: the "cartoon" policies composed on the USB policy interface
// (Figure 4 of the paper), such as "the kids can only use Facebook on
// weekdays after they've finished their homework". A policy names a set of
// devices, the web-hosted services they may reach, a schedule, and the
// physical key that mediates it; the engine compiles the active policy set
// into per-device network and DNS access restrictions that the DNS proxy
// and the router's forwarding module enforce.
//
// Concurrency: the engine is mutex-guarded, so installs, removals and
// key events from the control API safely race AccessFor reads from the
// DNS proxy and forwarder on the controller's dispatch goroutine.
// OnChange callbacks fire synchronously on the mutating goroutine.
package policy

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// Weekday is a JSON-friendly day-of-week set member.
type Weekday string

// Weekday names accepted in policy files.
var weekdayNames = map[string]time.Weekday{
	"sunday": time.Sunday, "monday": time.Monday, "tuesday": time.Tuesday,
	"wednesday": time.Wednesday, "thursday": time.Thursday,
	"friday": time.Friday, "saturday": time.Saturday,
}

// Schedule restricts when a policy grants access. The zero Schedule is
// always active.
type Schedule struct {
	// Days limits activation to the named weekdays (empty = every day).
	Days []string `json:"days,omitempty"`
	// From and Until bound the local time of day, "15:04" format
	// (empty = whole day). From after Until wraps midnight.
	From  string `json:"from,omitempty"`
	Until string `json:"until,omitempty"`
}

// activeAt reports whether the schedule admits time t.
func (s *Schedule) activeAt(t time.Time) (bool, error) {
	if len(s.Days) > 0 {
		ok := false
		for _, d := range s.Days {
			wd, known := weekdayNames[strings.ToLower(d)]
			if !known {
				return false, fmt.Errorf("policy: unknown weekday %q", d)
			}
			if t.Weekday() == wd {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	if s.From == "" && s.Until == "" {
		return true, nil
	}
	minutes := func(hhmm string, def int) (int, error) {
		if hhmm == "" {
			return def, nil
		}
		var h, m int
		if _, err := fmt.Sscanf(hhmm, "%d:%d", &h, &m); err != nil || h < 0 || h > 23 || m < 0 || m > 59 {
			return 0, fmt.Errorf("policy: bad time of day %q", hhmm)
		}
		return h*60 + m, nil
	}
	from, err := minutes(s.From, 0)
	if err != nil {
		return false, err
	}
	until, err := minutes(s.Until, 24*60-1)
	if err != nil {
		return false, err
	}
	now := t.Hour()*60 + t.Minute()
	if from <= until {
		return now >= from && now <= until, nil
	}
	return now >= from || now <= until, nil // wraps midnight
}

// Policy is one cartoon policy: the panels of Figure 4 serialized.
type Policy struct {
	// Name identifies the policy ("kids-facebook").
	Name string `json:"name"`
	// Devices lists the MAC addresses the policy governs.
	Devices []string `json:"devices"`
	// AllowedSites lists the DNS suffixes the devices may reach. Empty
	// means "network access, no site restriction".
	AllowedSites []string `json:"allowed_sites,omitempty"`
	// Schedule bounds when access is granted.
	Schedule Schedule `json:"schedule,omitempty"`
	// RequireKey names the USB key that must be inserted for the policy
	// to grant access ("" = no physical mediation).
	RequireKey string `json:"require_key,omitempty"`
}

// Validate checks the policy for well-formedness.
func (p *Policy) Validate() error {
	_, err := p.validate()
	return err
}

// validate is Validate, also returning the parsed device addresses.
func (p *Policy) validate() ([]packet.MAC, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("policy: missing name")
	}
	if len(p.Devices) == 0 {
		return nil, fmt.Errorf("policy %s: no devices", p.Name)
	}
	devices := make([]packet.MAC, len(p.Devices))
	for i, d := range p.Devices {
		mac, err := packet.ParseMAC(d)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.Name, err)
		}
		devices[i] = mac
	}
	if _, err := p.Schedule.activeAt(time.Now()); err != nil {
		return nil, fmt.Errorf("policy %s: %w", p.Name, err)
	}
	return devices, nil
}

// ParsePolicy decodes a policy from its JSON file form (the filesystem
// layout carried on the USB key).
func ParsePolicy(data []byte) (*Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Access is the engine's verdict for one device.
type Access struct {
	// Governed is true when at least one policy names the device.
	Governed bool
	// NetworkAllowed is true when the device may use the network at all.
	NetworkAllowed bool
	// AllowedSites is non-nil when access is limited to these DNS
	// suffixes (nil = unrestricted).
	AllowedSites []string
	// Reason explains the verdict for the control interfaces.
	Reason string
}

// SiteAllowed reports whether name falls within the allowed set.
func (a Access) SiteAllowed(name string) bool {
	if !a.NetworkAllowed {
		return false
	}
	if a.AllowedSites == nil {
		return true
	}
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	for _, s := range a.AllowedSites {
		s = strings.TrimSuffix(strings.ToLower(s), ".")
		if name == s || strings.HasSuffix(name, "."+s) {
			return true
		}
	}
	return false
}

// Engine holds the installed policies and the set of inserted keys, and
// answers access questions. Subscribers are notified on any change so the
// forwarding module can flush now-invalid flow entries.
type Engine struct {
	clk clock.Clock

	mu       sync.Mutex
	policies map[string]installed
	names    []string // the policies' names, sorted: the order AccessFor walks them in
	keys     map[string]bool
	watchers []func()
}

// installed is a policy with its device list parsed once, at Install, so
// the per-punt access question compares 6-byte addresses, not strings.
type installed struct {
	*Policy
	devices []packet.MAC
}

// NewEngine creates an empty engine.
func NewEngine(clk clock.Clock) *Engine {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Engine{
		clk:      clk,
		policies: make(map[string]installed),
		keys:     make(map[string]bool),
	}
}

// OnChange registers fn to run after any policy or key change.
func (e *Engine) OnChange(fn func()) {
	e.mu.Lock()
	e.watchers = append(e.watchers, fn)
	e.mu.Unlock()
}

func (e *Engine) notify() {
	e.mu.Lock()
	ws := append([]func(){}, e.watchers...)
	e.mu.Unlock()
	for _, fn := range ws {
		fn()
	}
}

// Install adds or replaces a policy.
func (e *Engine) Install(p *Policy) error {
	devices, err := p.validate()
	if err != nil {
		return err
	}
	e.mu.Lock()
	if i, found := slices.BinarySearch(e.names, p.Name); !found {
		e.names = slices.Insert(e.names, i, p.Name)
	}
	e.policies[p.Name] = installed{p, devices}
	e.mu.Unlock()
	e.notify()
	return nil
}

// Remove deletes a policy by name.
func (e *Engine) Remove(name string) bool {
	e.mu.Lock()
	_, ok := e.policies[name]
	if ok {
		i, _ := slices.BinarySearch(e.names, name)
		e.names = slices.Delete(e.names, i, i+1)
		delete(e.policies, name)
	}
	e.mu.Unlock()
	if ok {
		e.notify()
	}
	return ok
}

// Policies returns the installed policies sorted by name.
func (e *Engine) Policies() []*Policy {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Policy, len(e.names))
	for i, name := range e.names {
		out[i] = e.policies[name].Policy
	}
	return out
}

// InsertKey marks a USB key as present (udev insertion event).
func (e *Engine) InsertKey(id string) {
	e.mu.Lock()
	e.keys[id] = true
	e.mu.Unlock()
	e.notify()
}

// RemoveKey marks a USB key as absent.
func (e *Engine) RemoveKey(id string) {
	e.mu.Lock()
	delete(e.keys, id)
	e.mu.Unlock()
	e.notify()
}

// AccessFor computes the effective restriction for a device now. When
// multiple policies govern a device, access is granted if any active
// policy grants it, and the allowed-site sets of granting policies are
// unioned. The policies are walked in name order, and the reason is the
// last governing policy's in that order.
func (e *Engine) AccessFor(mac packet.MAC) Access {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clk.Now()

	governed := false
	granted := false
	unrestricted := false
	var sites []string
	var reason string
	for _, name := range e.names {
		p := e.policies[name]
		if !slices.Contains(p.devices, mac) {
			continue
		}
		governed = true
		if p.RequireKey != "" && !e.keys[p.RequireKey] {
			reason = fmt.Sprintf("policy %s: key %q not inserted", p.Name, p.RequireKey)
			continue
		}
		active, err := p.Schedule.activeAt(now)
		if err != nil || !active {
			reason = fmt.Sprintf("policy %s: outside schedule", p.Name)
			continue
		}
		granted = true
		if len(p.AllowedSites) == 0 {
			unrestricted = true
		} else {
			sites = append(sites, p.AllowedSites...)
		}
		reason = fmt.Sprintf("policy %s: access granted", p.Name)
	}
	if !governed {
		return Access{Governed: false, NetworkAllowed: true, Reason: "no policy"}
	}
	if !granted {
		return Access{Governed: true, NetworkAllowed: false, Reason: reason}
	}
	if unrestricted {
		return Access{Governed: true, NetworkAllowed: true, Reason: reason}
	}
	sort.Strings(sites)
	return Access{Governed: true, NetworkAllowed: true, AllowedSites: sites, Reason: reason}
}
