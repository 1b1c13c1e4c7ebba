package fleet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/trace"
)

// stalledShard is a shardrpc.Backend whose Step blocks until release closes —
// a wedged remote worker from the coordinator's point of view.
type stalledShard struct {
	release chan struct{}
	stepped chan struct{} // closed when Step was entered
}

func newStalledShard() *stalledShard {
	return &stalledShard{release: make(chan struct{}), stepped: make(chan struct{})}
}

func (s *stalledShard) Assign(uint64) error { return nil }
func (s *stalledShard) Drain(uint64) bool   { return true }
func (s *stalledShard) Cordon(uint64) bool  { return true }
func (s *stalledShard) Uncordon(uint64) bool {
	return true
}
func (s *stalledShard) Step(float64) error {
	close(s.stepped)
	<-s.release
	return nil
}
func (s *stalledShard) Sync()                         {}
func (s *stalledShard) Stats() engine.Stats           { return engine.Stats{} }
func (s *stalledShard) TraceSnapshot() trace.Snapshot { return trace.Snapshot{} }
func (s *stalledShard) Close()                        {}

// TestStepTimeoutWedgedShard proves the coordinator's step barrier has a
// deadline: a shard whose Step never returns fails the tick with
// ErrStepTimeout promptly instead of hanging the whole fleet forever.
func TestStepTimeoutWedgedShard(t *testing.T) {
	f := New(Config{Shards: 1, Clock: clock.NewSimulated(), StepTimeout: 100 * time.Millisecond})
	t.Cleanup(f.Stop)
	stall := newStalledShard()
	f.shards[0] = stall
	defer close(stall.release)

	start := time.Now()
	err := f.Step(0.25)
	if !errors.Is(err, ErrStepTimeout) {
		t.Fatalf("step against a wedged shard: err = %v, want ErrStepTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("step took %v to fail; the deadline did not bite", elapsed)
	}
	select {
	case <-stall.stepped:
	default:
		t.Fatal("shard never entered Step")
	}
}

// TestStepTimeoutOneOfMany: only the wedged shard times out; healthy
// shards in the same barrier still step, and the joined error carries
// the timeout.
func TestStepTimeoutOneOfMany(t *testing.T) {
	f := New(Config{Shards: 2, Clock: clock.NewSimulated(), Seed: 7, StepTimeout: 100 * time.Millisecond})
	t.Cleanup(f.Stop)
	healthy := f.shards[0]
	stall := newStalledShard()
	f.shards[1] = stall
	defer close(stall.release)

	if err := f.Step(0.25); !errors.Is(err, ErrStepTimeout) {
		t.Fatalf("err = %v, want ErrStepTimeout", err)
	}
	if st := healthy.Stats(); st.Steps != 1 {
		t.Fatalf("healthy shard stepped %d times, want 1", st.Steps)
	}
}

// TestStepNoTimeoutConfigured: without a StepTimeout the coordinator
// waits indefinitely (the in-process default), so a merely slow shard is
// not spuriously failed.
func TestStepNoTimeoutConfigured(t *testing.T) {
	f := New(Config{Shards: 1, Clock: clock.NewSimulated()})
	t.Cleanup(f.Stop)
	slow := newStalledShard()
	f.shards[0] = slow
	go func() {
		<-slow.stepped
		time.Sleep(20 * time.Millisecond)
		close(slow.release)
	}()
	if err := f.Step(0.25); err != nil {
		t.Fatalf("slow (not wedged) shard failed the tick: %v", err)
	}
}
