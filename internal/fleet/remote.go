package fleet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fleet/shardrpc"
	"repro/internal/telemetry"
)

// The remote client implements the same contract as the in-process
// engine, and the worker-side Backend interface mirrors ShardClient —
// these assertions live here because shardrpc cannot import fleet
// without a cycle.
var (
	_ ShardClient      = (*shardrpc.Client)(nil)
	_ shardrpc.Backend = ShardClient(nil)
)

// ErrStepTimeout is returned by Coordinator.Step when one shard's Step
// did not complete within Config.StepTimeout. The wedged shard's call is
// abandoned, not cancelled: its goroutine finishes (or its RPC deadline
// fires) in the background, and the caller decides whether to retry,
// cordon or replace the shard's worker.
var ErrStepTimeout = errors.New("fleet: shard step timed out")

// newRemoteShards builds one shardrpc client per worker address, feeding
// a hub of its own that is attached to the federation, mirroring what
// New does with in-process engines and their hubs.
func newRemoteShards(cfg Config, fed *telemetry.Federation) []ShardClient {
	shards := make([]ShardClient, 0, len(cfg.WorkerAddrs))
	for _, addr := range cfg.WorkerAddrs {
		relay := telemetry.NewHub(telemetry.HubConfig{})
		fed.Attach(relay)
		shards = append(shards, shardrpc.Dial(shardrpc.ClientConfig{
			Addr:        addr,
			Relay:       relay,
			Clock:       cfg.Clock,
			StepTimeout: cfg.StepTimeout,
		}))
	}
	return shards
}

// stepShard runs one shard's Step under the fleet step deadline. With no
// deadline configured it is a plain call; with one, a shard that does
// not return in time yields ErrStepTimeout while the stuck call drains
// in the background — a wedged worker costs a leaked goroutine until its
// own transport deadline fires, not a hung fleet tick.
func (c *Coordinator) stepShard(sc ShardClient, dt float64) error {
	if c.cfg.StepTimeout <= 0 {
		return sc.Step(dt)
	}
	done := make(chan error, 1)
	go func() { done <- sc.Step(dt) }()
	select {
	case err := <-done:
		return err
	case <-time.After(c.cfg.StepTimeout):
		return fmt.Errorf("%w after %v", ErrStepTimeout, c.cfg.StepTimeout)
	}
}
