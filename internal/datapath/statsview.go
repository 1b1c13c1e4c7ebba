package datapath

import "repro/internal/openflow"

// StatsView reads a datapath's flow and port counters in place, for the
// one reader in the same process that measures them: what moved on each
// flow entry since that reader last took its counters, which the entry
// records, and what a port-stats request for every port returns, without a
// request or a copy of the table. The zero StatsView reads as a datapath
// with no entries and no ports.
type StatsView struct{ dp *Datapath }

// StatsView returns the datapath's counter view.
func (dp *Datapath) StatsView() StatsView { return StatsView{dp} }

// Flows walks the flow table once, under its read lock, and calls fn with
// the match of every entry last used at or after since (UnixNano on the
// datapath's clock) and what its counters gained since the previous walk,
// which the walk records in the entry: it is the single reader's walk, as
// two readers would each see part of what moved. An entry last used
// strictly before since is skipped with one atomic load (since <= 0 visits
// every entry); what it gained is handed over by the next walk that visits
// it, or by its removal report (OnRemoved). Equality is visited because a
// frame charged at the clock reading since may have been charged after the
// walk that read the clock at since had passed its entry.
//
// fn runs under the table's read lock. An entry's removal (expiry or
// delete, under the write lock) therefore happens after every visit of it
// has returned, and its removal report comes later still. fn must not call
// back into the datapath.
func (v StatsView) Flows(since int64, fn func(m openflow.Match, packets, bytes uint64)) {
	if v.dp == nil {
		return
	}
	t := v.dp.table
	t.mu.RLock()
	defer t.mu.RUnlock()
	// lastUsed is stored after the counters are added (charge), so an entry
	// that reads as used since also reads with that use counted.
	t.each(nil, 0, false, openflow.PortNone, func(e *FlowEntry) {
		if e.lastUsed.Load() >= since {
			packets, bytes := e.take()
			fn(e.Match, packets, bytes)
		}
	})
}

// OnRemoved registers the reader's fn, called for every entry an expiry
// sweep or a delete removes with what its counters gained since the last
// walk took them. Removals are reported in removalOrder, under no lock of
// the datapath's, each just before the entry's flow-removed would be sent.
// Register it before traffic flows; a later call replaces fn.
func (v StatsView) OnRemoved(fn func(m *openflow.Match, packets, bytes uint64)) {
	v.dp.onRemoved = fn
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
