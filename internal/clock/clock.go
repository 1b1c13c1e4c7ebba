// Package clock abstracts time so the simulator, the Homework Database and
// the DHCP/policy modules can run against either the wall clock or a
// deterministic simulated clock driven by tests and benchmarks.
//
// Both implementations are safe for concurrent use from any goroutine:
// Real delegates to the runtime. Simulated keeps its time in one atomic
// word that Now reads without a lock, and a mutex serializes Advance and
// After over its timers: timers created by After fire synchronously
// inside the Advance that reaches them, and a Now that overlaps an Advance
// firing timers waits for it and reads where it lands.
package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time and timer channels.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now returns time.Now.
func (Real) Now() time.Time { return time.Now() }

// After defers to time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// epoch is where every simulated clock starts.
var epoch = time.Date(2011, time.August, 15, 9, 0, 0, 0, time.UTC)

// Simulated is a manually advanced clock. The zero value is not ready; use
// NewSimulated.
type Simulated struct {
	// at is the clock's distance from epoch in nanoseconds, shifted left
	// one bit (which bounds a simulated run to 146 years); the low bit is
	// set while an Advance fires timers. Advance and After write it under
	// mu, Now reads it without.
	at atomic.Int64

	mu     sync.Mutex
	timers timerHeap
}

// busy is at's low bit: an Advance is firing timers and has not landed.
const busy = 1

// NewSimulated returns a simulated clock starting at a fixed epoch.
func NewSimulated() *Simulated { return &Simulated{} }

// Now returns the simulated current time: one atomic load, and no lock
// unless an Advance is firing timers, whose end Now waits for. So a
// goroutine woken by a timer that an Advance fires reads the time that
// Advance moves to, as every Now after the Advance returns does.
func (c *Simulated) Now() time.Time {
	at := c.at.Load()
	if at&busy != 0 {
		c.mu.Lock()
		at = c.at.Load()
		c.mu.Unlock()
	}
	return epoch.Add(time.Duration(at >> 1))
}

// After returns a channel that fires when the clock is advanced past d.
func (c *Simulated) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := epoch.Add(time.Duration(c.at.Load() >> 1))
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- now
		return ch
	}
	heap.Push(&c.timers, &timer{at: now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward, firing any timers that come due in order.
func (c *Simulated) Advance(d time.Duration) {
	c.mu.Lock()
	from := c.at.Load() >> 1
	to := from + int64(d)
	target := epoch.Add(time.Duration(to))
	for len(c.timers) > 0 && !c.timers[0].at.After(target) {
		c.at.Store(from<<1 | busy) // a woken goroutine's Now waits for the landing
		t := heap.Pop(&c.timers).(*timer)
		select {
		case t.ch <- t.at:
		default:
		}
	}
	c.at.Store(to << 1)
	c.mu.Unlock()
}

type timer struct {
	at time.Time
	ch chan time.Time
}

type timerHeap []*timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}
