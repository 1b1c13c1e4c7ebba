package oftransport

import (
	"sync"

	"repro/internal/openflow"
)

// DefaultDepth is the initial per-direction queue capacity Pair uses when
// the caller passes depth <= 0: big enough that a home's steady-state
// control chatter (one punt per new flow per step plus stats and barrier
// traffic) never reallocates.
const DefaultDepth = 256

// msgQueue is one direction of an in-process channel: an unbounded FIFO
// of decoded messages. Unbounded is load-bearing, not laziness: the
// controller's dispatch loop and the datapath's secure-channel loop each
// send to the other synchronously (a packet-out can trigger a new punt
// inside the datapath loop, a packet-in triggers flow-mods inside the
// controller loop), so a bounded pair can deadlock with each loop blocked
// on the other's full queue. TCP masks the same cycle with its large
// socket buffers; here the queue grows instead, and flow control comes
// from the platform's settle-per-step cadence.
type msgQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []openflow.Message
	head   int
	closed bool
}

func newMsgQueue(capacity int) *msgQueue {
	q := &msgQueue{buf: make([]openflow.Message, 0, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *msgQueue) push(msg openflow.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.buf = append(q.buf, msg)
	q.cond.Signal()
	return nil
}

// pop blocks until a message is queued or the queue is closed. A closed
// queue drains its backlog before reporting ErrClosed, so an orderly
// shutdown does not lose messages already handed to the transport.
func (q *msgQueue) pop() (openflow.Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.buf) && !q.closed {
		q.cond.Wait()
	}
	if q.head < len(q.buf) {
		msg := q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return msg, nil
	}
	return nil, ErrClosed
}

func (q *msgQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// chanEnd is one endpoint of an in-process channel pair. Send enqueues the
// message pointer itself — no serialization, no copy — which is what makes
// this transport skip the loopback-TCP framing cost the fleet pays per
// home.
type chanEnd struct {
	once *sync.Once
	out  *msgQueue
	in   *msgQueue
}

// Pair returns the two connected endpoints of an in-process channel, each
// direction starting with the given queue capacity (DefaultDepth when
// depth <= 0). Messages sent on one endpoint arrive, in order and by
// reference, at the other's Recv. The queues are unbounded (see msgQueue
// for why), so Send never blocks; closing either endpoint closes both
// directions for both ends.
func Pair(depth int) (Transport, Transport) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	once := &sync.Once{}
	ab := newMsgQueue(depth)
	ba := newMsgQueue(depth)
	a := &chanEnd{once: once, out: ab, in: ba}
	b := &chanEnd{once: once, out: ba, in: ab}
	return a, b
}

func (t *chanEnd) Send(msg openflow.Message) error { return t.out.push(msg) }

func (t *chanEnd) Recv() (openflow.Message, error) { return t.in.pop() }

func (t *chanEnd) Close() error {
	t.once.Do(func() {
		t.out.close()
		t.in.close()
	})
	return nil
}
