package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// AppMix is one entry of a scenario's workload mix: which traffic
// profile, at what rate, with what relative weight when hosts draw their
// applications.
type AppMix struct {
	App     string  `json:"app"`      // web | video | voip | p2p | iot | dns
	RateBps int     `json:"rate_bps"` // payload rate per host running it
	Weight  float64 `json:"weight"`   // relative draw probability
}

// Scenario declares a fleet workload: how many homes, how they are
// populated, what their devices do, and how long to run. Scenarios load
// from JSON so new workloads are one config file away.
type Scenario struct {
	Name         string   `json:"name"`
	Homes        int      `json:"homes"`
	HostsPerHome int      `json:"hosts_per_home"`
	Shards       int      `json:"shards,omitempty"` // 0: fleet default
	AppMix       []AppMix `json:"app_mix"`
	// WirelessFrac is the fraction of hosts on WiFi (the rest are wired).
	WirelessFrac float64 `json:"wireless_frac"`
	// ChurnPerMin is the expected number of churn events (one host
	// leaves, a new one joins) per home per simulated minute.
	ChurnPerMin float64 `json:"churn_per_min"`
	DurationSec float64 `json:"duration_sec"`
	StepSec     float64 `json:"step_sec"`
	// AggEverySec is the progress-line period (default: every 1s of
	// simulated time, rounded to a whole number of steps).
	AggEverySec float64 `json:"agg_every_sec,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// DefaultScenario is a small mixed-workload fleet: the hwfleetd default.
func DefaultScenario() Scenario {
	return Scenario{
		Name:         "default",
		Homes:        8,
		HostsPerHome: 3,
		AppMix: []AppMix{
			{App: "web", RateBps: 40_000, Weight: 4},
			{App: "video", RateBps: 250_000, Weight: 2},
			{App: "voip", RateBps: 12_000, Weight: 1},
			{App: "iot", RateBps: 2_000, Weight: 2},
		},
		WirelessFrac: 0.5,
		ChurnPerMin:  2,
		DurationSec:  10,
		StepSec:      0.25,
		AggEverySec:  1,
		Seed:         1,
	}
}

// LoadScenario reads a scenario JSON file; absent fields keep the
// DefaultScenario values, so files only state what they change.
func LoadScenario(path string) (Scenario, error) {
	s := DefaultScenario()
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("fleet: parsing scenario %s: %w", path, err)
	}
	return s, s.Validate()
}

// Validate rejects impossible scenarios.
func (s Scenario) Validate() error {
	switch {
	case s.Homes <= 0:
		return fmt.Errorf("fleet: scenario needs homes > 0, got %d", s.Homes)
	case s.HostsPerHome < 0:
		return fmt.Errorf("fleet: hosts_per_home < 0")
	case s.StepSec <= 0:
		return fmt.Errorf("fleet: step_sec must be > 0, got %g", s.StepSec)
	case s.DurationSec < s.StepSec:
		return fmt.Errorf("fleet: duration_sec %g shorter than one step %g", s.DurationSec, s.StepSec)
	case s.WirelessFrac < 0 || s.WirelessFrac > 1:
		return fmt.Errorf("fleet: wireless_frac must be in [0,1], got %g", s.WirelessFrac)
	case s.ChurnPerMin < 0:
		return fmt.Errorf("fleet: churn_per_min < 0")
	}
	for _, m := range s.AppMix {
		if _, err := appKind(m.App); err != nil {
			return err
		}
		if m.Weight < 0 {
			return fmt.Errorf("fleet: app %q has negative weight", m.App)
		}
	}
	return nil
}

func appKind(name string) (netsim.AppKind, error) {
	switch name {
	case "web":
		return netsim.AppWeb, nil
	case "video":
		return netsim.AppVideo, nil
	case "voip":
		return netsim.AppVoIP, nil
	case "p2p":
		return netsim.AppP2P, nil
	case "iot":
		return netsim.AppIoT, nil
	case "dns":
		return netsim.AppDNS, nil
	}
	return 0, fmt.Errorf("fleet: unknown app %q", name)
}

// Report summarizes a scenario run.
type Report struct {
	Scenario   string
	Homes      int
	Shards     int
	Steps      uint64
	SimSeconds float64
	Wall       time.Duration
	Churned    int // churn events executed
	Totals     FleetTotals
	// TopHomes lists the busiest homes by folded bytes, from the
	// fleet-wide FleetStats view (at most 5).
	TopHomes []HomeStats
}

// HomeStats is one home's cumulative traffic as the FleetStats view sums
// it.
type HomeStats struct {
	Home  uint64
	Flows int    // flow observations
	Bytes uint64 // bytes in those observations
}

// Runner executes a scenario against a fleet it owns, on a simulated
// clock, with its shards in process or behind remote workers.
type Runner struct {
	Scenario Scenario
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// OnFleet, when set, runs once the fleet is up and populated, before
	// the step loop — the hook daemons use to attach live consumers such
	// as the streaming telemetry endpoint (see cmd/hwfleetd -stats).
	OnFleet func(*Coordinator)

	workers []string
	fleet   *Coordinator
	hosts   map[uint64][]*netsim.Host
	churned int
}

// NewRunner validates the scenario and prepares a runner. With no
// workers the fleet's shards are in-process engines; otherwise each
// address is one shardrpc worker's shard (Config.WorkerAddrs), whose
// worker populates the homes it is assigned with SetupHome. Remote homes
// have no handle here, so a remote run churns no host.
func NewRunner(s Scenario, workers []string) (*Runner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Runner{Scenario: s, workers: workers, hosts: make(map[uint64][]*netsim.Host)}, nil
}

// Fleet returns the runner's fleet (valid during and after Run).
func (r *Runner) Fleet() *Coordinator { return r.fleet }

// Close tears the runner's fleet down (idempotent; safe if Run failed).
func (r *Runner) Close() {
	if r.fleet != nil {
		r.fleet.Stop()
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run builds the fleet, populates every home per the scenario, drives the
// step loop with churn and a progress line every AggEverySec, and
// reports. On success the fleet stays up (query it via Fleet().DB())
// until Close; on error it is torn down.
func (r *Runner) Run() (rep *Report, err error) {
	s := r.Scenario
	start := time.Now()
	r.fleet = New(Config{Shards: s.Shards, Clock: clock.NewSimulated(), Seed: s.Seed, WorkerAddrs: r.workers})
	defer func() {
		if err != nil {
			r.fleet.Stop()
		}
	}()

	r.logf("bringing up %d homes (%d shards)...", s.Homes, r.fleet.Shards())
	// A remote fleet returns no handles: its workers populated the homes.
	homes, err := r.fleet.AddHomes(s.Homes)
	if err != nil {
		return nil, err
	}
	for _, h := range homes {
		if r.hosts[h.ID], err = s.setup(h); err != nil {
			return nil, err
		}
	}
	r.logf("fleet up: %d homes, %d hosts each, app mix %v", r.fleet.Size(), s.HostsPerHome, s.AppMix)
	if r.OnFleet != nil {
		r.OnFleet(r.fleet)
	}

	// Round: 4.8/0.1 is 47.999... in float64 and must still be 48 steps.
	steps := int(math.Round(s.DurationSec / s.StepSec))
	aggEvery := 1
	if s.AggEverySec > 0 && s.AggEverySec > s.StepSec {
		aggEvery = int(math.Round(s.AggEverySec / s.StepSec))
	}
	churnProb := s.ChurnPerMin / 60 * s.StepSec
	var last FleetTotals
	for i := 1; i <= steps; i++ {
		if err := r.fleet.Step(s.StepSec); err != nil {
			return nil, err
		}
		for _, h := range r.fleet.Homes() {
			if churnProb > 0 && h.Rand().Float64() < churnProb {
				if err := r.churn(h); err != nil {
					return nil, err
				}
			}
		}
		if i%aggEvery == 0 || i == steps {
			tot := r.fleet.Totals()
			r.logf("t=%5.1fs  homes=%d hosts=%d  +%d flows  +%s",
				float64(i)*s.StepSec, tot.Homes, tot.Hosts,
				tot.Flows-last.Flows, byteCount(tot.Bytes-last.Bytes))
			last = tot
		}
	}
	// Deliver what the last step's churn inserted before the books are read.
	r.fleet.Sync()

	rep = &Report{
		Scenario:   s.Name,
		Homes:      r.fleet.Size(),
		Shards:     r.fleet.Shards(),
		Steps:      r.fleet.Steps(),
		SimSeconds: float64(steps) * s.StepSec,
		Wall:       time.Since(start),
		Churned:    r.churned,
		Totals:     r.fleet.Totals(),
		TopHomes:   topHomes(r.fleet.DB(), 5),
	}
	return rep, nil
}

// SetupHome populates one home per the scenario — upstream zones plus
// HostsPerHome hosts. It is the worker-side population hook: a remote
// hwfleetd worker passes it as engine.Config.OnAssign, so a home comes up
// identically whether the coordinator holds its handle or only its ID.
func (s Scenario) SetupHome(h *Home) error {
	_, err := s.setup(h)
	return err
}

// setup is SetupHome returning the hosts it joined.
func (s Scenario) setup(h *Home) ([]*netsim.Host, error) {
	registerZones(h)
	hosts := make([]*netsim.Host, 0, s.HostsPerHome)
	for i := 0; i < s.HostsPerHome; i++ {
		host, err := s.join(h)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, host)
	}
	return hosts, nil
}

// join attaches one host to the home, drawing its link (wired or WiFi),
// its position and its app from the mix, in that order, from the home's
// own deterministic RNG.
func (s Scenario) join(h *Home) (*netsim.Host, error) {
	rng := h.Rand()
	wireless := rng.Float64() < s.WirelessFrac
	pos := netsim.Pos{X: 1 + rng.Float64()*9, Y: rng.Float64() * 6}
	host, err := h.Join("", wireless, pos)
	if err != nil {
		return nil, err
	}
	if m, ok := drawMix(s.AppMix, rng.Float64()); ok {
		kind, _ := appKind(m.App)
		host.AddApp(netsim.NewApp(kind, zoneFor(m.App), m.RateBps))
	}
	return host, nil
}

// churn replaces one random host in the home: the device leaves (lease
// released, port detached) and a brand-new one joins and starts traffic.
func (r *Runner) churn(h *Home) error {
	hosts := r.hosts[h.ID]
	if len(hosts) == 0 {
		return nil
	}
	i := h.Rand().Intn(len(hosts))
	victim := hosts[i]
	hosts[i] = hosts[len(hosts)-1]
	r.hosts[h.ID] = hosts[:len(hosts)-1]
	if err := h.Leave(victim); err != nil {
		return err
	}
	r.churned++
	host, err := r.Scenario.join(h)
	if err != nil {
		return err
	}
	r.hosts[h.ID] = append(r.hosts[h.ID], host)
	return nil
}

// drawMix picks a mix entry by weight from a uniform draw in [0,1).
func drawMix(mix []AppMix, u float64) (AppMix, bool) {
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	if total <= 0 {
		return AppMix{}, false
	}
	target := u * total
	for _, m := range mix {
		target -= m.Weight
		if target < 0 {
			return m, true
		}
	}
	return mix[len(mix)-1], true
}

// zoneFor names the upstream service a profile talks to.
func zoneFor(app string) string { return "svc-" + app + ".example" }

// registerZones gives every app profile a resolvable upstream name in
// this home, so scenario traffic exercises the DNS proxy path.
func registerZones(h *Home) {
	for i, app := range []string{"web", "video", "voip", "p2p", "iot", "dns"} {
		h.Router.Upstream.AddZone(zoneFor(app), packet.IP4{203, 0, 113, byte(10 + i)})
	}
}

// topHomes queries the fleet view for the busiest homes by folded bytes.
func topHomes(db *hwdb.DB, n int) []HomeStats {
	res, err := db.Query("SELECT home, sum(bytes), sum(flows) FROM FleetStats GROUP BY home")
	if err != nil {
		return nil
	}
	out := make([]HomeStats, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, HomeStats{
			Home:  uint64(row[0].Int),
			Bytes: uint64(row[1].AsFloat()),
			Flows: int(row[2].AsFloat()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// byteCount renders a byte total human-readably.
func byteCount(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
