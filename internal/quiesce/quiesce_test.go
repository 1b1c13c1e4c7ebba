package quiesce

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

func TestZeroBacklogReturnsImmediately(t *testing.T) {
	e := New()
	if err := e.Wait(0); err != nil {
		t.Fatalf("Wait on quiescent epoch: %v", err)
	}
	e.Punt()
	e.Done(1)
	if err := e.Wait(0); err != nil {
		t.Fatalf("Wait after catch-up: %v", err)
	}
	if p, d := e.Counts(); p != 1 || d != 1 {
		t.Fatalf("counts = (%d, %d), want (1, 1)", p, d)
	}
}

func TestWaitBlocksUntilDone(t *testing.T) {
	e := New()
	e.Punt()
	returned := make(chan error, 1)
	go func() { returned <- e.Wait(5 * time.Second) }()

	// The waiter must not return while punted > processed. A short grace
	// window catches an early return without turning the test flaky.
	select {
	case err := <-returned:
		t.Fatalf("Wait returned early (err=%v) with backlog outstanding", err)
	case <-time.After(20 * time.Millisecond):
	}

	e.Done(1)
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("Wait after Done: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait missed the catch-up wakeup")
	}
}

func TestWaitDeadline(t *testing.T) {
	e := New()
	e.Punt() // never processed: a wedged consumer
	start := time.Now()
	err := e.Wait(30 * time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Wait = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("Wait returned after %v, before the deadline", elapsed)
	}
	if err := e.Wait(0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("non-blocking Wait with backlog = %v, want ErrDeadline", err)
	}
}

func TestNewPuntsRaiseTheTarget(t *testing.T) {
	e := New()
	e.Punt()
	returned := make(chan error, 1)
	go func() { returned <- e.Wait(5 * time.Second) }()

	// Catch up, but punt again immediately: the waiter may wake for the
	// first broadcast but must re-check and keep waiting for the second
	// punt before returning.
	e.Punt()
	e.Done(1)
	select {
	case <-returned:
		t.Fatal("Wait returned with the second punt outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	e.Done(1)
	if err := <-returned; err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestConcurrentPuntsAndWaiters hammers the epoch from concurrent
// producers, a consumer and many Settle-like waiters under -race: every
// wakeup must arrive (no Wait may hit its generous deadline) and no Wait
// may return early (each return must observe processed >= the punts
// outstanding when it entered).
func TestConcurrentPuntsAndWaiters(t *testing.T) {
	const (
		producers = 4
		puntsEach = 2000
		waiters   = 8
	)
	e := New()
	var produced atomic.Uint64
	var wg sync.WaitGroup

	// Consumer: drain whatever the producers have emitted, in batches,
	// like the controller's batched dispatch loop.
	consumerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var credited uint64
		for credited < producers*puntsEach {
			p := e.Punted()
			if p > credited {
				e.Done(int(p - credited))
				credited = p
			}
		}
		close(consumerDone)
	}()

	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < puntsEach; j++ {
				e.Punt()
				produced.Add(1)
			}
		}()
	}

	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				target := produced.Load()
				if err := e.Wait(10 * time.Second); err != nil {
					errs <- err
					return
				}
				// No early return: Wait's contract is processed >= punted
				// at some instant after entry, so everything produced
				// before entry must have been credited.
				if _, processed := e.Counts(); processed < target {
					errs <- errors.New("Wait returned before catching the pre-entry backlog")
					return
				}
				select {
				case <-consumerDone:
					return
				default:
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p, d := e.Counts(); p != producers*puntsEach || d < p {
		t.Fatalf("counts = (%d, %d), want (%d, >=punted)", p, d, producers*puntsEach)
	}
	if err := e.Wait(0); err != nil {
		t.Fatalf("final Wait: %v", err)
	}
}

// blocked reports how many waiters are registered behind the backlog.
func (e *Epoch) blocked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.waiting)
}

// A Wait that has to block — the lap Router.Settle takes every time it
// catches a punt in flight — allocates nothing once the pool holds a slot
// and the epoch's slice has grown to its waiters: no channel per wait, no
// timer. The consumer credits the punt only when it sees the waiter
// registered, so every measured Wait takes the blocking path.
func TestBlockedWaitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the slot pool
	e := New()
	kick, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-kick:
			case <-stop:
				return
			}
			for e.blocked() == 0 {
				runtime.Gosched()
			}
			e.Done(1)
		}
	}()
	lap := func() {
		e.Punt()
		kick <- struct{}{}
		if err := e.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	lap()
	if allocs := testing.AllocsPerRun(200, lap); allocs != 0 {
		t.Errorf("a blocked Wait released by Done allocates %g times, want 0", allocs)
	}
	if n := e.blocked(); n != 0 {
		t.Errorf("%d slots still registered after every waiter returned", n)
	}
}

// One Done wakes every blocked waiter, however many there are, and a waiter
// whose deadline passes takes its slot off the epoch: nothing stays
// registered, and a later Done has nobody stale to wake.
func TestDoneWakesEveryWaiterAndDeadlineUnregisters(t *testing.T) {
	const waiters = 16
	e := New()
	e.Punt()
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters; i++ {
		go func() { errs <- e.Wait(10 * time.Second) }()
	}
	go func() { errs <- e.Wait(30 * time.Millisecond) }()
	// The short waiter gives up; the others stay registered.
	if err := <-errs; !errors.Is(err, ErrDeadline) {
		t.Fatalf("first Wait to return = %v, want the short one's ErrDeadline", err)
	}
	for e.blocked() != waiters {
		runtime.Gosched()
	}
	e.Done(1)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Wait after Done: %v", err)
		}
	}
	if n := e.blocked(); n != 0 {
		t.Fatalf("%d slots registered after Done woke everyone", n)
	}
	// A fresh backlog, waited for and drained again, on the same epoch.
	e.Punt()
	go func() { errs <- e.Wait(10 * time.Second) }()
	for e.blocked() != 1 {
		runtime.Gosched()
	}
	e.Done(1)
	if err := <-errs; err != nil {
		t.Fatalf("Wait on the second backlog: %v", err)
	}
}
