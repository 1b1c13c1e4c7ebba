// Package ui implements the four novel management interfaces the paper
// demonstrates, as display models fed from the platform's measurement and
// control APIs: the per-device per-protocol bandwidth view (Figure 1), the
// physical network artifact with its three LED modes (Figure 2), the
// situated DHCP control interface (Figure 3) and the USB-mediated cartoon
// policy interface (Figure 4). Each model renders to text so examples,
// tests and the figures harness can show exactly what the paper's screens
// showed.
//
// Concurrency: display models hold no locks of their own — each Render
// runs on its caller's goroutine over hwdb query results and module
// snapshots that are internally consistent. Share a model across
// goroutines only if the callers serialize.
package ui

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/hwdb"
	"repro/internal/packet"
)

// BandwidthRow is one line of the Figure-1 display.
type BandwidthRow struct {
	Device   string // hostname if known, else MAC
	MAC      packet.MAC
	Service  string // protocol label ("http", "dns", ...)
	Bytes    uint64
	BytesPer float64 // bytes/second over the window
}

// BandwidthView computes the per-device per-protocol bandwidth consumption
// the iPhone interface displays, from the hwdb Flows and Leases tables.
type BandwidthView struct {
	DB *hwdb.DB
	// Window is the temporal window shown (default 10 seconds).
	Window time.Duration

	flows    *hwdb.SelectStmt // the Figure-1 read, parsed for flowsFor
	flowsFor time.Duration

	// A refresh's working maps, cleared and refilled by each: bytes per
	// device and service, and bytes per device.
	agg    map[serviceKey]uint64
	totals map[packet.MAC]uint64
	// Hostnames, as selected from leases when its insert count was
	// leasesAt; refilled only when either has moved.
	names    map[packet.MAC]string
	leases   *hwdb.Table
	leasesAt uint64
}

// serviceKey is one line of the display: a device and a service.
type serviceKey struct {
	mac     packet.MAC
	service string
}

// mustSelect parses one of the displays' own statements, once, so that a
// refresh is a DB.SelectFunc and not a parse.
func mustSelect(cql string) *hwdb.SelectStmt {
	sel, err := hwdb.ParseSelect(cql)
	if err != nil {
		panic(err)
	}
	return sel
}

var leaseNames = mustSelect("SELECT mac, hostname, action FROM Leases")

// NewBandwidthView builds a view over db, with the Figure-1 read for the
// default window parsed.
func NewBandwidthView(db *hwdb.DB) *BandwidthView {
	v := &BandwidthView{DB: db, Window: 10 * time.Second}
	if err := v.parseFlows(v.Window); err != nil {
		panic(err)
	}
	return v
}

// parseFlows parses the Figure-1 read for a window of the given length.
func (v *BandwidthView) parseFlows(window time.Duration) error {
	sel, err := hwdb.ParseSelect(fmt.Sprintf(
		"SELECT mac, proto, dport, sport, sum(bytes) AS bytes FROM Flows [RANGE %g SECONDS] GROUP BY mac, proto, dport, sport",
		window.Seconds()))
	if err != nil {
		return err
	}
	v.flows, v.flowsFor = sel, window
	return nil
}

// hostnames keeps v.names as MAC -> latest hostname from the Leases table.
// The select reads the whole ring, which only an insert changes, so while
// the table and its insert count are those of the last select the map
// already holds what the select would give, and it is not run.
func (v *BandwidthView) hostnames() {
	t, ok := v.DB.Table(hwdb.TableLeases)
	var ins uint64
	if ok {
		ins, _ = t.Stats()
		if t == v.leases && ins == v.leasesAt {
			return
		}
	}
	clear(v.names)
	if err := v.DB.SelectFunc(leaseNames, func(row []hwdb.Value) {
		if row[2].Str == "add" && row[1].Str != "" {
			v.names[row[0].MAC()] = row[1].Str
		}
	}); err != nil {
		return
	}
	v.leases, v.leasesAt = t, ins
}

// Rows computes the current display rows, most-consuming device first (the
// left-hand side of Figure 5's screenshot), each device's services sorted
// by volume (its right-hand side), services of equal volume by name. Both
// selects are read in place with DB.SelectFunc, and Leases is selected
// only when a lease has been written since the last refresh: a refresh
// allocates the rows it returns and the names of devices without a
// hostname.
func (v *BandwidthView) Rows() ([]BandwidthRow, error) {
	window := v.Window
	if window <= 0 {
		window = 10 * time.Second
	}
	secs := window.Seconds()
	if v.flows == nil || v.flowsFor != window {
		if err := v.parseFlows(window); err != nil {
			return nil, err
		}
	}
	if v.agg == nil {
		v.agg, v.totals, v.names = map[serviceKey]uint64{}, map[packet.MAC]uint64{}, map[packet.MAC]string{}
	}
	clear(v.agg)
	clear(v.totals)
	if err := v.DB.SelectFunc(v.flows, func(row []hwdb.Value) {
		mac := row[0].MAC()
		proto := packet.IPProto(row[1].Int)
		dport := uint16(row[2].Int)
		sport := uint16(row[3].Int)
		// The service is identified by whichever side is well-known (the
		// paper's "imperfect application-protocol mapping").
		svc := packet.WellKnownService(proto, dport)
		if svc == "other" {
			svc = packet.WellKnownService(proto, sport)
		}
		v.agg[serviceKey{mac, svc}] += uint64(row[4].AsFloat())
	}); err != nil {
		return nil, err
	}
	v.hostnames()

	rows := make([]BandwidthRow, 0, len(v.agg))
	for k, n := range v.agg {
		name := v.names[k.mac]
		if name == "" {
			name = k.mac.String()
		}
		rows = append(rows, BandwidthRow{
			Device: name, MAC: k.mac, Service: k.service,
			Bytes: n, BytesPer: float64(n) / secs,
		})
		v.totals[k.mac] += n
	}
	// Order: devices by total desc, then services by bytes desc, then by
	// name — rows come out of a map, so every tie must be broken.
	slices.SortFunc(rows, func(a, b BandwidthRow) int {
		if c := cmp.Compare(v.totals[b.MAC], v.totals[a.MAC]); c != 0 {
			return c
		}
		if c := bytes.Compare(a.MAC[:], b.MAC[:]); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		return strings.Compare(a.Service, b.Service)
	})
	return rows, nil
}

// Render draws the display as text: one block per device with its protocol
// breakdown, mirroring Figure 1.
func (v *BandwidthView) Render() (string, error) {
	rows, err := v.Rows()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-device bandwidth (last %s)\n", v.Window)
	sb.WriteString(strings.Repeat("-", 46))
	sb.WriteByte('\n')
	if len(rows) == 0 {
		sb.WriteString("(no traffic)\n")
		return sb.String(), nil
	}
	current := ""
	var devTotal uint64
	flush := func() {
		if current != "" {
			fmt.Fprintf(&sb, "  %-34s %9s\n", "total", humanRate(float64(devTotal)/v.Window.Seconds()))
		}
	}
	for _, r := range rows {
		if r.Device != current {
			flush()
			current = r.Device
			devTotal = 0
			fmt.Fprintf(&sb, "%s\n", r.Device)
		}
		devTotal += r.Bytes
		fmt.Fprintf(&sb, "  %-34s %9s\n", r.Service, humanRate(r.BytesPer))
	}
	flush()
	return sb.String(), nil
}

// humanRate formats bytes/second.
func humanRate(bps float64) string {
	switch {
	case bps >= 1e6:
		return fmt.Sprintf("%.1fMB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1fkB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", bps)
	}
}
