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
// no allocation), and so is a Wait that has to block: it takes a wait slot
// — a one-token channel and the backstop timer — from a process-wide pool,
// registers it on the epoch, and hands it back once caught up, so neither
// the punt hot path nor a settle that laps Wait allocates in steady state.
// Wakeups cannot be lost, for any number of concurrent waiters: a waiter
// checks the counters and registers its slot in one section of the mutex
// under which Done detects catch-up, so either Done finds the slot
// registered and puts a token in it (each slot is registered at most once
// and its channel is empty when it is, so the send never blocks), or the
// registration comes after catch-up and the check that precedes it saw the
// drained state and returned. Done unregisters every slot it wakes; a woken
// waiter re-checks and, if new punts have raised the target, registers
// again.
package quiesce

import (
	"errors"
	"slices"
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
	// waiting holds the slot of every waiter blocked behind an
	// outstanding backlog. Done wakes and unregisters them all when
	// processed catches punted; the backing array is kept, so registering
	// does not allocate once it has grown to the number of waiters.
	waiting []*waitSlot
}

// waitSlot is what one blocked Wait sleeps on: the channel Done puts a
// token in and the timer that bounds the wait. Slots are recycled across
// every epoch of the process; a pooled slot is registered nowhere, its
// channel is empty and its timer stopped.
type waitSlot struct {
	woken chan struct{} // capacity 1
	timer *time.Timer
}

var slots = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waitSlot{woken: make(chan struct{}, 1), timer: t}
}}

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
// caught up, wakes every blocked waiter.
func (e *Epoch) Done(n int) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	e.processed += uint64(n)
	if e.processed >= e.punted {
		for i, s := range e.waiting {
			s.woken <- struct{}{}
			e.waiting[i] = nil
		}
		e.waiting = e.waiting[:0]
	}
	e.mu.Unlock()
}

// Punted returns how many packet-ins the producer has emitted.
func (e *Epoch) Punted() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.punted
}

// Counts returns both counters in one consistent snapshot.
func (e *Epoch) Counts() (punted, processed uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.punted, e.processed
}

// Wait blocks until the epoch is quiescent (processed >= punted) and
// returns nil the moment it is — including immediately, without touching
// a timer, when there is no backlog. If the backlog has not drained
// within timeout, Wait returns ErrDeadline; a timeout <= 0 makes Wait a
// non-blocking check. New punts arriving while a waiter is blocked raise
// the catch-up target: Wait re-checks after every broadcast, so it never
// returns while the producer is ahead.
func (e *Epoch) Wait(timeout time.Duration) error {
	var s *waitSlot
	for {
		e.mu.Lock()
		if e.processed >= e.punted {
			e.mu.Unlock()
			if s != nil {
				// Only a slot Done woke is reused: Done unregistered it,
				// its token has been taken, and its timer did not fire, so
				// stopped it delivers nothing late (go 1.23 on).
				s.timer.Stop()
				slots.Put(s)
			}
			return nil
		}
		if timeout <= 0 {
			e.mu.Unlock()
			return ErrDeadline
		}
		if s == nil {
			s = slots.Get().(*waitSlot)
			s.timer.Reset(timeout)
		}
		e.waiting = append(e.waiting, s)
		e.mu.Unlock()
		select {
		case <-s.woken:
		case <-s.timer.C:
			// Done may have woken the slot as the timer fired, leaving a
			// token in it: an expired slot is unregistered and left to the
			// collector, never pooled.
			e.mu.Lock()
			if i := slices.Index(e.waiting, s); i >= 0 {
				e.waiting = slices.Delete(e.waiting, i, i+1)
			}
			e.mu.Unlock()
			return ErrDeadline
		}
	}
}
