// Package quiesce provides the event-driven quiescence primitive the
// control plane settles on: a monotonic punt/processed epoch shared by a
// datapath (the punt producer) and its NOX controller (the punt
// consumer). The producer counts each packet-in it emits with Punt; the
// consumer credits completed dispatches with Done; Wait blocks — no
// polling, no timer cadence — until the consumer has caught up, waking
// the moment the control path drains. The deadline passed to Wait is an
// error backstop for a wedged consumer, never a sleep interval.
//
// Concurrency contract: every method is safe for concurrent use from any
// number of goroutines. Punt and Done are cheap (one short mutex section,
// no allocation); the catch-up channel is allocated, and the backstop timer
// taken from a process-wide pool, only when a waiter actually has to
// block, so the punt hot path stays allocation-free. Wakeups cannot be
// lost: a waiter registers for the catch-up broadcast under the same mutex
// that Done uses to detect catch-up, so Done either sees the waiter's
// channel and closes it, or the waiter's registration happens after
// catch-up and its pre-block re-check observes the drained state.
package quiesce

import (
	"errors"
	"sync"
	"time"
)

// ErrDeadline is returned by Wait when the consumer has not caught up to
// the producer before the deadline — the control path is wedged (or the
// datapath is punting with no controller attached). Callers distinguish
// it with errors.Is from transport failures surfaced elsewhere.
var ErrDeadline = errors.New("quiesce: control path did not catch up before the deadline")

// Epoch is one shared punt/processed counter pair. Both counters are
// monotonic; the epoch is quiescent whenever processed has caught up with
// punted. The zero value is not ready to use — call New.
type Epoch struct {
	mu        sync.Mutex
	punted    uint64
	processed uint64
	// caughtUp is non-nil exactly while at least one waiter is blocked
	// behind an outstanding backlog; Done closes it (waking every waiter)
	// when processed catches punted, and the next blocked waiter makes a
	// fresh one. Lazily allocated so Punt/Done never allocate.
	caughtUp chan struct{}
}

// New returns a quiescent epoch (0 punted, 0 processed).
func New() *Epoch { return &Epoch{} }

// Punt records one more packet-in handed to the control path. Call it
// before the message is actually sent, so a waiter that starts between
// the count and the send still waits for that punt's dispatch.
func (e *Epoch) Punt() {
	e.mu.Lock()
	e.punted++
	e.mu.Unlock()
}

// Done credits n completed packet-in dispatches and, if the consumer has
// caught up, wakes every blocked waiter. Batched dispatch loops call it
// once per drained batch so a burst of punts costs one broadcast.
func (e *Epoch) Done(n int) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	e.processed += uint64(n)
	if e.processed >= e.punted && e.caughtUp != nil {
		close(e.caughtUp)
		e.caughtUp = nil
	}
	e.mu.Unlock()
}

// Punted returns how many packet-ins the producer has emitted.
func (e *Epoch) Punted() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.punted
}

// Processed returns how many packet-ins the consumer has dispatched.
func (e *Epoch) Processed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.processed
}

// Counts returns both counters in one consistent snapshot.
func (e *Epoch) Counts() (punted, processed uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.punted, e.processed
}

// Settled reports whether the consumer has caught up with the producer.
func (e *Epoch) Settled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.processed >= e.punted
}

// Wait blocks until the epoch is quiescent (processed >= punted) and
// returns nil the moment it is — including immediately, without touching
// a timer, when there is no backlog. If the backlog has not drained
// within timeout, Wait returns ErrDeadline; a timeout <= 0 makes Wait a
// non-blocking check. New punts arriving while a waiter is blocked raise
// the catch-up target: Wait re-checks after every broadcast, so it never
// returns while the producer is ahead.
func (e *Epoch) Wait(timeout time.Duration) error {
	var timer *time.Timer
	for {
		e.mu.Lock()
		if e.processed >= e.punted {
			e.mu.Unlock()
			if timer != nil {
				// Only a timer that did not fire is reused: stopped, it
				// delivers nothing late (go 1.23 on). An expired one is
				// left to the collector.
				timer.Stop()
				timers.Put(timer)
			}
			return nil
		}
		if timeout <= 0 {
			e.mu.Unlock()
			return ErrDeadline
		}
		if e.caughtUp == nil {
			e.caughtUp = make(chan struct{})
		}
		ch := e.caughtUp
		e.mu.Unlock()
		if timer == nil {
			timer = timers.Get().(*time.Timer)
			timer.Reset(timeout)
		}
		select {
		case <-ch:
		case <-timer.C:
			return ErrDeadline
		}
	}
}

// timers recycles Wait's backstop timers across every epoch of the
// process; a pooled timer is stopped and its channel empty.
var timers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}
