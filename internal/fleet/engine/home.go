package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// watchedTables are the per-home hwdb tables every home streams into the
// engine's telemetry hub (and unwatches on drain — keep the two in
// lockstep).
var watchedTables = []string{
	hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases, hwdb.TableFlowPerf,
}

// WatchedTables returns (a copy of) the per-home table names an engine
// streams into its telemetry hub. External accounting — the chaos soak
// balances delivered+lost against total inserts across every router
// incarnation — iterates exactly this set.
func WatchedTables() []string { return append([]string(nil), watchedTables...) }

// Home is one managed Homework deployment within a shard engine.
type Home struct {
	ID     uint64
	Name   string
	Router *core.Router

	mu      sync.Mutex
	rng     *rand.Rand
	steps   uint64
	hostSeq uint32

	// cordoned takes the home out of rotation: Step skips it entirely (no
	// traffic, no settle, no measurement poll) while its router and
	// telemetry sources stay live and inspectable. Set by the health
	// remediation loop via the coordinator's Cordon.
	cordoned atomic.Bool
	// settleErrs counts Settle failures (quiesce deadline or barrier
	// error) across the home's steps — a health-evaluator vital.
	settleErrs atomic.Uint64
}

// step advances one home by dt simulated seconds: traffic in, then a
// blocking event-driven wait for the home's control path to drain (no
// sleeps — Settle returns the moment the controller catches up and a
// clean barrier crosses), then the measurement poll.
func (h *Home) step(dt float64) error {
	h.mu.Lock()
	h.steps++
	h.mu.Unlock()

	h.Router.Net.Step(dt)
	if err := h.Router.Settle(); err != nil {
		h.settleErrs.Add(1)
		return err
	}
	h.Router.PollMeasure()
	return nil
}

// Cordoned reports whether the home is currently out of rotation.
func (h *Home) Cordoned() bool { return h.cordoned.Load() }

// SettleErrs returns how many of the home's steps failed to settle (the
// control path missed its quiescence deadline or a barrier failed) over
// this router incarnation — a health-evaluator vital.
func (h *Home) SettleErrs() uint64 { return h.settleErrs.Load() }

// PuntLag returns the home's current punt-credit backlog: packet-ins the
// datapath has punted that the controller has not yet dispatched. A
// healthy idle home reads 0; a wedged controller grows it without bound.
func (h *Home) PuntLag() uint64 {
	punted, processed := h.Router.Datapath.Quiesce().Counts()
	if processed > punted {
		return 0
	}
	return punted - processed
}

// Steps returns how many fleet ticks have stepped this home.
func (h *Home) Steps() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.steps
}

// Rand returns the home's deterministic randomness source (churn and
// workload decisions draw from it so runs replay from the fleet seed).
// Not safe for concurrent use across goroutines; the scenario runner
// only touches it from the home's own shard.
func (h *Home) Rand() *rand.Rand { return h.rng }

// NextMAC allocates a fleet-unique MAC for the home's next host:
// 02:HH:HH:HH:SS:SS from the home ID and a per-home sequence number.
func (h *Home) NextMAC() packet.MAC {
	h.mu.Lock()
	h.hostSeq++
	seq := h.hostSeq
	h.mu.Unlock()
	return packet.MAC{
		0x02, byte(h.ID >> 16), byte(h.ID >> 8), byte(h.ID),
		byte(seq >> 8), byte(seq),
	}
}

// Join adds a host to the home's network and runs it through DHCP.
func (h *Home) Join(name string, wireless bool, pos netsim.Pos) (*netsim.Host, error) {
	mac := h.NextMAC()
	if name == "" {
		name = fmt.Sprintf("%s-dev-%s", h.Name, mac)
	}
	host, err := h.Router.Net.AddHost(name, mac, wireless, pos)
	if err != nil {
		return nil, err
	}
	if err := h.Router.JoinHost(host); err != nil {
		return nil, err
	}
	if !host.Bound() {
		return nil, fmt.Errorf("fleet: %s: host %s did not bind", h.Name, mac)
	}
	return host, nil
}

// Leave releases a host's lease and detaches it from the home network.
func (h *Home) Leave(host *netsim.Host) error {
	host.Release()
	if err := h.Router.Settle(); err != nil {
		return err
	}
	return h.Router.Net.RemoveHost(host.MAC)
}
