package fleet

import (
	"time"

	"repro/internal/telemetry"
)

// TableFleetStats is the fleet-wide stats view: one row per active home
// per commit (a commit follows every fleet step), in an hwdb of its own
// so the same CQL the per-home interfaces speak works across the whole
// fleet. The view is maintained continuously by the telemetry folder;
// nothing folds on demand.
const TableFleetStats = telemetry.ViewTable

// HomeStats is one home's delta since the previous Aggregate call.
type HomeStats struct {
	Home     uint64
	Hosts    int    // hosts attached to the home network at snapshot time
	Devices  int    // distinct device MACs with new flow observations
	Flows    int    // new flow observations
	Packets  uint64 // packets in those observations
	Bytes    uint64 // bytes in those observations
	Links    int    // new link-layer observations
	MeanRSSI float64
	Lost     uint64 // ring-wrapped rows the hub could not read
}

// FleetSnapshot is the fleet-wide delta one Aggregate call observed.
type FleetSnapshot struct {
	When  time.Time
	Homes []HomeStats // ascending home ID
	FleetTotals
}

// FleetTotals are cumulative fleet-wide counters, maintained live by the
// telemetry folder: reading them never scans a home's rings.
type FleetTotals struct {
	Folds   uint64
	Homes   int // live homes
	Hosts   int // hosts across the fleet
	Flows   uint64
	Packets uint64
	Bytes   uint64
	Links   uint64
	Lost    uint64
}

// snapshotFromPeriod builds an Aggregate result from the folder's period
// deltas. As in the PR-1 fold, the embedded Flows/Packets/Bytes/Links/
// Lost are this period's delta while Folds/Homes/Hosts are current.
func snapshotFromPeriod(when time.Time, ps []telemetry.PeriodStats, folds uint64) FleetSnapshot {
	snap := FleetSnapshot{When: when}
	snap.FleetTotals.Folds = folds
	for _, p := range ps {
		snap.Homes = append(snap.Homes, HomeStats{
			Home: p.Home, Hosts: p.Hosts, Devices: p.Devices,
			Flows: p.Flows, Packets: p.Packets, Bytes: p.Bytes,
			Links: p.Links, MeanRSSI: p.MeanRSSI, Lost: p.Lost,
		})
		snap.FleetTotals.Hosts += p.Hosts
		snap.Flows += uint64(p.Flows)
		snap.Packets += p.Packets
		snap.Bytes += p.Bytes
		snap.Links += uint64(p.Links)
		snap.Lost += p.Lost
	}
	snap.FleetTotals.Homes = len(ps)
	return snap
}
