package telemetry

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
)

// ViewTable is the fleet-wide stats view the folder maintains: one row
// per home per commit (only homes with activity insert), in an hwdb of
// its own so the same CQL the per-home interfaces speak works across the
// whole fleet. Each row is the home's delta since the previous commit
// plus its windowed byte rate at commit time.
const ViewTable = "FleetStats"

// DefaultViewRing sizes the FleetStats ring: at one commit a second it
// holds over four minutes of history for a 256-home fleet.
const DefaultViewRing = 65536

// DefaultRateWindow is the sliding window for byte/packet rates — the
// fleet-scale analogue of the paper's 5-second bandwidth display window.
const DefaultRateWindow = 10 * time.Second

// rateBuckets subdivides a rate window.
const rateBuckets = 10

// Rate is a windowed throughput estimate.
type Rate struct {
	BytesPerSec   float64
	PacketsPerSec float64
}

// DeviceRate is one device's windowed rate within a home.
type DeviceRate struct {
	MAC packet.MAC
	Rate
}

// HomeTotals is one home's cumulative counters plus its current rate.
type HomeTotals struct {
	Home     uint64
	Hosts    int
	Flows    uint64
	Links    uint64
	Leases   uint64
	Packets  uint64
	Bytes    uint64
	Lost     uint64
	TxPkts   uint64 // FlowPerf: packets devices transmitted
	LostPkts uint64 // FlowPerf: packets attributed as lost on the ingress hop
	Rate     Rate
}

// Totals is the continuously-maintained fleet-wide state: reading it is a
// mutex acquisition and a struct copy, never a fold pass over home rings.
type Totals struct {
	Homes   int // homes currently tracked
	Hosts   int // hosts across those homes right now
	Flows   uint64
	Links   uint64
	Leases  uint64
	Packets uint64
	Bytes   uint64
	Lost    uint64 // ring-wrapped rows the hub could not read
	Rows    uint64 // hwdb rows consumed from the hub
	Commits uint64

	// FlowPerf aggregates: per-flow performance rows from the measurement
	// planes' controller-vantage monitoring.
	PerfRows     uint64 // FlowPerf rows folded
	TxPkts       uint64 // packets devices transmitted (rx + attributed loss)
	LostPkts     uint64 // packets attributed as lost on the ingress hop
	Installs     uint64 // flows with a measured rule-install latency
	InstallUSSum uint64 // sum of those latencies (µs) — mean = sum/installs
}

// FolderConfig parameterizes a folder.
type FolderConfig struct {
	// Clock stamps view rows and evaluates rate windows (pass the fleet
	// clock; nil means wall clock).
	Clock clock.Clock
	// RateWindow is the sliding rate window (default DefaultRateWindow).
	RateWindow time.Duration
}

// Folder consumes hub deltas and maintains the fleet-wide view: live
// cumulative totals, per-home and per-device windowed rates, and the
// FleetStats hwdb view (one delta row per active home per Commit). It
// registers itself as a synchronous hub handler, so after Hub.Flush its
// reads reflect every row inserted before the flush.
type Folder struct {
	clk    clock.Clock
	view   *hwdb.DB
	window time.Duration

	// Standard-schema column indexes, resolved once.
	fMAC, fPkts, fBytes    int
	lRSSI                  int
	pTx, pLost, pInstallUS int

	mu    sync.Mutex
	homes map[uint64]*homeAcc
	// ids is the keys of homes in ascending order, kept beside the map so
	// that a commit walks the homes in order without sorting them.
	ids        []uint64
	fleet      Totals // Homes/Hosts filled in at read time
	hostsTotal int    // cached sum of hostsNow, refreshed each Commit
	rate       *rateRing
}

// homeAcc is one home's accumulated telemetry.
type homeAcc struct {
	id       uint64
	hosts    func() int
	hostsNow int // cached hosts(), refreshed at AddHome and each Commit

	// cumulative
	flows, links, leases uint64
	packets, bytes, lost uint64
	txPkts, lostPkts     uint64 // FlowPerf tx/loss

	com periodAcc // since the last Commit (view-row period)

	rate *rateRing
	dev  map[int64]*rateRing
}

// periodAcc is a resettable delta accumulator.
type periodAcc struct {
	flows, links   int
	packets, bytes uint64
	lost           uint64
	rssiSum        float64
	devices        map[int64]struct{}
}

func (p *periodAcc) device(mac int64) {
	if p.devices == nil {
		p.devices = make(map[int64]struct{})
	}
	p.devices[mac] = struct{}{}
}

// reset starts the next period. The device set is emptied, not dropped: a
// home sees the same few devices period after period.
func (p *periodAcc) reset() {
	clear(p.devices)
	*p = periodAcc{devices: p.devices}
}

// NewFolder builds a folder over hub and registers it as a synchronous
// consumer. The folder owns the FleetStats view database. A nil hub
// builds a detached folder — a Federation attaches it to every shard hub
// instead, so one folder can fold N hubs into one global view.
func NewFolder(hub *Hub, cfg FolderConfig) *Folder {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = DefaultRateWindow
	}
	view := hwdb.New(cfg.Clock)
	_, err := view.CreateTable(ViewTable, hwdb.NewSchema(
		hwdb.Column{Name: "home", Type: hwdb.TInt},
		hwdb.Column{Name: "hosts", Type: hwdb.TInt},
		hwdb.Column{Name: "devices", Type: hwdb.TInt},
		hwdb.Column{Name: "flows", Type: hwdb.TInt},
		hwdb.Column{Name: "packets", Type: hwdb.TInt},
		hwdb.Column{Name: "bytes", Type: hwdb.TInt},
		hwdb.Column{Name: "links", Type: hwdb.TInt},
		hwdb.Column{Name: "rssi", Type: hwdb.TReal},
		hwdb.Column{Name: "bps", Type: hwdb.TReal},
		hwdb.Column{Name: "lost", Type: hwdb.TInt},
	), DefaultViewRing)
	if err != nil {
		panic(err) // fresh DB, fixed name: cannot collide
	}
	f := &Folder{
		clk:    cfg.Clock,
		view:   view,
		window: cfg.RateWindow,
		homes:  make(map[uint64]*homeAcc),
		rate:   newRateRing(cfg.RateWindow),
	}
	// The standard Homework schemas are fixed; resolve the column
	// indexes the fold needs once, from a throwaway prototype DB.
	proto := hwdb.NewHomework(cfg.Clock, 1)
	ft, _ := proto.Table(hwdb.TableFlows)
	f.fMAC, _ = ft.Schema().Index("mac")
	f.fPkts, _ = ft.Schema().Index("packets")
	f.fBytes, _ = ft.Schema().Index("bytes")
	lt, _ := proto.Table(hwdb.TableLinks)
	f.lRSSI, _ = lt.Schema().Index("rssi")
	pt, _ := proto.Table(hwdb.TableFlowPerf)
	f.pTx, _ = pt.Schema().Index("tx_pkts")
	f.pLost, _ = pt.Schema().Index("lost_pkts")
	f.pInstallUS, _ = pt.Schema().Index("install_us")
	if hub != nil {
		hub.SubscribeFunc(f.consume)
	}
	return f
}

// View returns the fleet-wide hwdb holding the FleetStats view; query it
// with the same CQL the per-home interfaces use.
func (f *Folder) View() *hwdb.DB { return f.view }

// AddHome starts tracking a home. hosts (may be nil) reports the home's
// current host count when snapshots are taken. If deltas for the home
// already arrived (consume tracks unknown homes implicitly so accounting
// stays exact under churn), the existing accumulator is kept and only
// gains the hosts callback.
func (f *Folder) AddHome(id uint64, hosts func() int) {
	f.mu.Lock()
	h, ok := f.homes[id]
	if !ok {
		h = f.addHomeLocked(id)
	}
	if hosts != nil && h.hosts == nil {
		h.hosts = hosts
		f.hostsTotal -= h.hostsNow
		h.hostsNow = hosts()
		f.hostsTotal += h.hostsNow
	}
	f.mu.Unlock()
}

// RemoveHome drops a home's per-home state. Its contribution to the fleet
// cumulative totals and its already-committed view rows remain.
func (f *Folder) RemoveHome(id uint64) {
	f.mu.Lock()
	if h, ok := f.homes[id]; ok {
		f.hostsTotal -= h.hostsNow
		delete(f.homes, id)
		i, _ := slices.BinarySearch(f.ids, id)
		f.ids = slices.Delete(f.ids, i, i+1)
	}
	f.mu.Unlock()
}

// addHomeLocked starts an accumulator for a home that has none (caller
// holds f.mu).
func (f *Folder) addHomeLocked(id uint64) *homeAcc {
	h := &homeAcc{id: id, rate: newRateRing(f.window)}
	f.homes[id] = h
	i, _ := slices.BinarySearch(f.ids, id)
	f.ids = slices.Insert(f.ids, i, id)
	return h
}

// consume folds one hub delta. It runs synchronously inside the hub's
// drain pass, so commits and reads that follow a Flush see it applied.
func (f *Folder) consume(d Delta) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.homes[d.Source.Home]
	if h == nil {
		// Deltas for a never-added (or already-removed) home still count
		// fleet-wide so accounting stays exact under churn.
		h = f.addHomeLocked(d.Source.Home)
	}
	f.fleet.Rows += uint64(len(d.Rows))
	f.fleet.Lost += d.Lost
	h.lost += d.Lost
	h.com.lost += d.Lost
	switch d.Source.Table {
	case hwdb.TableFlows:
		for i := range d.Rows {
			row := d.Rows[i]
			pk := uint64(row.Int(f.fPkts))
			by := uint64(row.Int(f.fBytes))
			mac := row.Int(f.fMAC)
			h.flows++
			h.packets += pk
			h.bytes += by
			h.com.flows++
			h.com.packets += pk
			h.com.bytes += by
			h.com.device(mac)
			ts := row.Time()
			h.rate.add(ts, by, pk)
			f.rate.add(ts, by, pk)
			dr := h.dev[mac]
			if dr == nil {
				if h.dev == nil {
					h.dev = make(map[int64]*rateRing)
				}
				dr = newRateRing(f.window)
				h.dev[mac] = dr
			}
			dr.add(ts, by, pk)
			f.fleet.Flows++
			f.fleet.Packets += pk
			f.fleet.Bytes += by
		}
	case hwdb.TableLinks:
		for i := range d.Rows {
			rssi := d.Rows[i].Real(f.lRSSI)
			h.links++
			h.com.links++
			h.com.rssiSum += rssi
			f.fleet.Links++
		}
	case hwdb.TableLeases:
		h.leases += uint64(len(d.Rows))
		f.fleet.Leases += uint64(len(d.Rows))
	case hwdb.TableFlowPerf:
		for i := range d.Rows {
			row := d.Rows[i]
			tx := uint64(row.Int(f.pTx))
			lost := uint64(row.Int(f.pLost))
			h.txPkts += tx
			h.lostPkts += lost
			f.fleet.PerfRows++
			f.fleet.TxPkts += tx
			f.fleet.LostPkts += lost
			if us := row.Int(f.pInstallUS); us > 0 {
				f.fleet.Installs++
				f.fleet.InstallUSSum += uint64(us)
			}
		}
	}
}

// Commit appends one FleetStats view row per home with activity since the
// previous Commit (home order, so runs are reproducible) and returns how
// many rows it wrote. The fleet layer calls it after every step barrier.
func (f *Folder) Commit() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fleet.Commits++
	now := f.clk.Now()
	rows := 0
	for _, id := range f.ids {
		h := f.homes[id]
		// Refresh the cached host count once per commit, so Totals stays
		// an O(1) read between commits.
		if h.hosts != nil {
			f.hostsTotal -= h.hostsNow
			h.hostsNow = h.hosts()
			f.hostsTotal += h.hostsNow
		}
		c := &h.com
		// Rows lost to ring wrap count as activity: the view must show
		// the gap, not hide it.
		if c.flows == 0 && c.links == 0 && c.lost == 0 {
			continue
		}
		mean := 0.0
		if c.links > 0 {
			mean = c.rssiSum / float64(c.links)
		}
		_ = f.view.Insert(ViewTable,
			hwdb.Int64(int64(id)),
			hwdb.Int64(int64(h.hostsNow)),
			hwdb.Int64(int64(len(c.devices))),
			hwdb.Int64(int64(c.flows)),
			hwdb.Int64(int64(c.packets)),
			hwdb.Int64(int64(c.bytes)),
			hwdb.Int64(int64(c.links)),
			hwdb.Float(mean),
			hwdb.Float(h.rate.rate(now).BytesPerSec),
			hwdb.Int64(int64(c.lost)))
		c.reset()
		rows++
	}
	return rows
}

// Totals returns the live fleet-wide counters: an O(1) read — one mutex
// acquisition and a struct copy — independent of home count and of how
// much history the homes hold. Hosts is as of the latest Commit (or
// AddHome for homes that have not seen a commit yet).
func (f *Folder) Totals() Totals {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.fleet
	t.Homes = len(f.homes)
	t.Hosts = f.hostsTotal
	return t
}

// HomeTotals returns every tracked home's cumulative counters and current
// rate, ascending by home ID.
func (f *Folder) HomeTotals() []HomeTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clk.Now()
	out := make([]HomeTotals, 0, len(f.homes))
	for _, id := range f.ids {
		h := f.homes[id]
		out = append(out, HomeTotals{
			Home: id, Hosts: h.hostsNow,
			Flows: h.flows, Links: h.links, Leases: h.leases,
			Packets: h.packets, Bytes: h.bytes, Lost: h.lost,
			TxPkts: h.txPkts, LostPkts: h.lostPkts,
			Rate: h.rate.rate(now),
		})
	}
	return out
}

// FleetRate returns the fleet-wide windowed throughput.
func (f *Folder) FleetRate() Rate {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rate.rate(f.clk.Now())
}

// HomeRate returns one home's windowed throughput.
func (f *Folder) HomeRate(id uint64) Rate {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.homes[id]
	if h == nil {
		return Rate{}
	}
	return h.rate.rate(f.clk.Now())
}

// DeviceRates returns the windowed per-device rates within a home,
// ascending by MAC — the paper's bandwidth display, one home of N.
func (f *Folder) DeviceRates(id uint64) []DeviceRate {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.homes[id]
	if h == nil {
		return nil
	}
	now := f.clk.Now()
	macs := make([]int64, 0, len(h.dev))
	for m := range h.dev {
		macs = append(macs, m)
	}
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
	out := make([]DeviceRate, 0, len(macs))
	for _, m := range macs {
		out = append(out, DeviceRate{
			MAC:  hwdb.Value{Type: hwdb.TMAC, Int: m}.MAC(),
			Rate: h.dev[m].rate(now),
		})
	}
	return out
}

// rateRing is a fixed set of time-aligned buckets implementing a sliding
// byte/packet rate window. Rows are bucketed by their own hwdb timestamp,
// so the estimate is deterministic under a simulated clock and unaffected
// by when the hub happened to drain them.
type rateRing struct {
	bucket time.Duration
	idx    []int64 // which absolute bucket index occupies each slot
	bytes  []uint64
	pkts   []uint64
}

func newRateRing(window time.Duration) *rateRing {
	return &rateRing{
		bucket: window / rateBuckets,
		idx:    make([]int64, rateBuckets),
		bytes:  make([]uint64, rateBuckets),
		pkts:   make([]uint64, rateBuckets),
	}
}

func (r *rateRing) add(ts time.Time, bytes, pkts uint64) {
	bi := ts.UnixNano() / int64(r.bucket)
	slot := int(bi % int64(len(r.idx)))
	if slot < 0 {
		slot += len(r.idx)
	}
	if r.idx[slot] != bi {
		r.idx[slot] = bi
		r.bytes[slot] = 0
		r.pkts[slot] = 0
	}
	r.bytes[slot] += bytes
	r.pkts[slot] += pkts
}

func (r *rateRing) rate(now time.Time) Rate {
	nowBi := now.UnixNano() / int64(r.bucket)
	min := nowBi - int64(len(r.idx)) + 1
	var b, p uint64
	for slot := range r.idx {
		if r.idx[slot] >= min && r.idx[slot] <= nowBi {
			b += r.bytes[slot]
			p += r.pkts[slot]
		}
	}
	w := float64(len(r.idx)) * r.bucket.Seconds()
	return Rate{BytesPerSec: float64(b) / w, PacketsPerSec: float64(p) / w}
}
