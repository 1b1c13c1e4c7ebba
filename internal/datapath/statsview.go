package datapath

import "repro/internal/openflow"

// StatsView reads a datapath's flow and port counters in place, for a
// reader in the same process: what a flow-stats request for every entry and
// a port-stats request for every port return, without the request, the
// reply or a copy of the table. It only reads. The zero StatsView reads as
// a datapath with no entries and no ports.
type StatsView struct{ dp *Datapath }

// StatsView returns the datapath's counter view.
func (dp *Datapath) StatsView() StatsView { return StatsView{dp} }

// Flows walks the flow table once, under its read lock, and calls fn with
// the match and cumulative counters of every entry last used at or after
// since (UnixNano on the datapath's clock). An entry whose LastUsed reads
// strictly before since is skipped with one atomic load; since <= 0 visits
// every entry.
//
// A skip only delays a count. Counters are cumulative, so what a skipped
// entry gained is in the totals of the next walk that visits it, or in its
// flow-removed. Equality is visited because a frame charged at the clock
// reading since may have been charged after the walk that read the clock
// at since had passed its entry.
//
// fn runs under the table's read lock. An entry's removal (expiry or
// delete, under the write lock) therefore happens after every visit of it
// has returned, and the flow-removed carrying its final counters is sent
// later still. fn must not call back into the datapath.
func (v StatsView) Flows(since int64, fn func(m openflow.Match, packets, bytes uint64)) {
	if v.dp == nil {
		return
	}
	t := v.dp.table
	t.mu.RLock()
	defer t.mu.RUnlock()
	// lastUsed is stored after the counters are added (charge), so an entry
	// that reads as used since also reads with that use counted.
	for _, e := range t.exact {
		if e.lastUsed.Load() >= since {
			fn(e.Match, e.packets.Load(), e.bytes.Load())
		}
	}
	for _, e := range t.wild {
		if e.lastUsed.Load() >= since {
			fn(e.Match, e.packets.Load(), e.bytes.Load())
		}
	}
}

// Ports calls fn with the counters of every port, in ascending port
// number.
func (v StatsView) Ports(fn func(s openflow.PortStats)) {
	if v.dp == nil {
		return
	}
	for _, p := range v.dp.sortedPorts() {
		fn(p.Stats())
	}
}
