package telemetry

// Federation folds N per-shard hubs into one coherent fleet: a single
// global Folder registered (as a synchronous consumer) on every member
// hub, plus consumer and accounting surfaces that span the members. It
// is the seam the hub was built for — shard engines keep their own hubs
// and know nothing of each other, while telemetry.Server, hwctl and the
// soak gate read one fleet regardless of shard count. A member is a
// shard engine's own hub in process, or, for a remote shard, a hub the
// shardrpc client feeds with Ingest; the global folder is the only fold
// either's deltas reach. The member set is fixed when the federation is
// built, before any member drains.
//
// Invariants (see docs/ARCHITECTURE.md "Fleet control plane"):
//
//   - Exact accounting composes: Stats sums the members, so
//     Delivered+Lost still equals total inserts across every table any
//     member hub ever watched — including drained and migrated homes,
//     whose final drain retires into their shard hub's books.
//   - Home IDs are fleet-unique (the coordinator allocates them), so
//     folding per-shard streams never merges two homes' rows.
//   - Fan-out is deterministic when the members are flushed in a fixed
//     order (the coordinator syncs engines in shard order): within one
//     hub's flush, sources drain in (Home, Table) order.
type Federation struct {
	folder  *Folder
	members []*Hub
}

// NewFederation builds a federation over members with a global folder
// registered on each: every delta a member fans out from here on —
// drained or ingested — is folded into the global view. Build it before
// any member's first flush or ingest, or earlier rows will be visible
// only in that member's own accounting.
func NewFederation(cfg FolderConfig, members ...*Hub) *Federation {
	fd := &Federation{folder: NewFolder(nil, cfg), members: members}
	for _, h := range members {
		h.SubscribeFunc(fd.folder.consume)
	}
	return fd
}

// Folder returns the global folder: fleet-wide totals, per-home and
// per-device rates, and the federated FleetStats view.
func (fd *Federation) Folder() *Folder { return fd.folder }

// Stats sums the members' cumulative accounting (including retired
// sources). Delivered+Lost equals the total inserts across every table
// any member has finished draining.
func (fd *Federation) Stats() HubStats {
	var st HubStats
	for _, h := range fd.members {
		hs := h.Stats()
		st.Sources += hs.Sources
		st.Delivered += hs.Delivered
		st.Lost += hs.Lost
	}
	return st
}

// SubscribeFunc registers a synchronous handler on every member hub. It
// runs inside each member's drain pass. Source home IDs are fleet-unique
// so the handler needs no shard disambiguation.
func (fd *Federation) SubscribeFunc(fn func(Delta)) {
	for _, h := range fd.members {
		h.SubscribeFunc(fn)
	}
}
