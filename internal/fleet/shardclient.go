package fleet

import (
	"repro/internal/fleet/engine"
	"repro/internal/trace"
)

// ShardClient is the coordinator's view of one shard engine — the
// written contract between the placement layer and the shard-local
// engines, and the seam the later network hop slots into: replacing the
// in-process *engine.Engine with an RPC client is a transport swap, not
// a refactor.
//
// Contract (see docs/ARCHITECTURE.md "Fleet control plane"):
//
//   - Assign(id) builds and starts a home under a fleet-unique ID the
//     coordinator allocated; the engine watches its hwdb tables into the
//     shard hub before Assign returns. Assigning a live ID is an error.
//   - Drain(id) is the one teardown primitive: stop the router, final
//     telemetry flush (every row the home's tables still held is
//     delivered), retire the home's sources into the shard hub's
//     cumulative accounting, drop per-home state. Remove, restart,
//     replace and migrate are all Drain plus zero or one Assign.
//   - Step(dt) is a pure barrier over the engine's homes: deterministic
//     per-home order, no shared-clock advance, no telemetry flush. The
//     coordinator advances time and syncs, once per fleet tick.
//   - Sync flushes the shard hub; the coordinator calls it in shard
//     order so federated fan-out is deterministic.
//   - Stats must reconcile: summed over shards, Hub.Delivered+Hub.Lost
//     equals every row any home incarnation ever inserted. The
//     federation's global books are sums of these, never a third count.
//   - Close tears the engine down; a closed engine steps no homes.
type ShardClient interface {
	Assign(id uint64) error
	Drain(id uint64) bool
	Cordon(id uint64) bool
	Uncordon(id uint64) bool
	Step(dt float64) error
	Sync()
	Stats() engine.Stats
	TraceSnapshot() trace.Snapshot
	Close()
}

// The in-process engine is the reference ShardClient implementation.
var _ ShardClient = (*engine.Engine)(nil)
