package clock

import (
	"fmt"
	"testing"
	"time"
)

func TestSimulatedNowAdvances(t *testing.T) {
	c := NewSimulated()
	start := c.Now()
	c.Advance(90 * time.Second)
	if got := c.Now().Sub(start); got != 90*time.Second {
		t.Errorf("advanced %v", got)
	}
}

func TestSimulatedTimerFires(t *testing.T) {
	c := NewSimulated()
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired at 9s")
	default:
	}
	c.Advance(2 * time.Second)
	select {
	case at := <-ch:
		if got := at.Sub(c.Now()); got > 0 {
			t.Errorf("fired in the future: %v", got)
		}
	default:
		t.Fatal("timer did not fire")
	}
}

func TestSimulatedTimersFireInOrder(t *testing.T) {
	c := NewSimulated()
	late := c.After(20 * time.Second)
	early := c.After(5 * time.Second)
	c.Advance(30 * time.Second)
	earlyAt := <-early
	lateAt := <-late
	if !earlyAt.Before(lateAt) {
		t.Errorf("early %v, late %v", earlyAt, lateAt)
	}
}

func TestSimulatedZeroDelayFiresImmediately(t *testing.T) {
	c := NewSimulated()
	select {
	case <-c.After(0):
	default:
		t.Fatal("zero-delay timer did not fire")
	}
}

func TestRealClock(t *testing.T) {
	var c Real
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Error("Real.Now far in the past")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Error("Real.After never fired")
	}
}

// TestSimulatedWokenReadsTarget: a goroutine woken by a timer that Advance
// fires reads, from Now, the time that Advance moves to, never the time
// before it or a timer's own.
func TestSimulatedWokenReadsTarget(t *testing.T) {
	c := NewSimulated()
	for round := 0; round < 200; round++ {
		const timers = 8
		got := make(chan time.Time, timers)
		for i := 1; i <= timers; i++ {
			ch := c.After(time.Duration(i) * time.Millisecond)
			go func() {
				<-ch
				got <- c.Now()
			}()
		}
		target := c.Now().Add(time.Second)
		c.Advance(time.Second)
		for i := 0; i < timers; i++ {
			if now := <-got; !now.Equal(target) {
				t.Fatalf("round %d: a woken goroutine read %v, want the Advance's target %v", round, now, target)
			}
		}
	}
}

// TestSimulatedNowAllocatesNothing pins Now at one atomic load: no
// allocation, however often it is read.
func TestSimulatedNowAllocatesNothing(t *testing.T) {
	c := NewSimulated()
	c.Advance(time.Second)
	if n := testing.AllocsPerRun(100, func() { _ = c.Now() }); n != 0 {
		t.Errorf("Now allocates %v times a call", n)
	}
}

// TestSimulatedConcurrentNowAdvance reads the clock from several
// goroutines while it advances and fires timers: under -race the lock-free
// read must be race-free, and every reader sees time go forward, never
// back, and end where the last Advance landed.
func TestSimulatedConcurrentNowAdvance(t *testing.T) {
	c := NewSimulated()
	start := c.Now()
	const steps = 500
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			last := start
			for {
				now := c.Now()
				if now.Before(last) {
					errs <- fmt.Errorf("Now went back from %v to %v", last, now)
					return
				}
				last = now
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < steps; i++ {
		c.After(time.Millisecond)
		c.Advance(time.Second)
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Now().Sub(start); got != steps*time.Second {
		t.Errorf("advanced %v, want %v", got, steps*time.Second)
	}
}
