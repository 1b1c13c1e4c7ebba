package datapath

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// maxDrainRounds bounds one drain: a round handles every message the inbox
// held when it began, and what those messages make the controller send
// lands in the next. A flow setup takes a few rounds (the SYN's flow-mod
// releases it, the reply punts, its flow-mod releases the reply); a
// controller and datapath that keep answering each other forever are a bug,
// and the drain panics rather than spin. Frame queue rounds, of sinks
// answering each other's frames, have the same bound.
const maxDrainRounds = 1 << 16

// inbox is what the datapath has been handed and has not handled yet — the
// controller's messages, and frames handed in while a call was in the
// datapath — and how many calls into the datapath are in progress.
//
// One call executes frames at a time: the Receive or ReceiveBatch that
// found the datapath idle (enterIdle), or the drain, which runs only while
// its call is the only one in progress. A frame handed in while a call is in
// progress, by a sink answering or from another goroutine, is copied into
// the frame queue, and the executing call takes it at its next frame
// boundary: after each span of a batch, after each frame releaseAll
// releases, and before and after each message of a drain round. So no sink
// re-enters the datapath, and what the executing call owns needs no lock.
//
// The outermost call drains the messages as it returns, so a message is
// handled between two calls into the datapath, never inside one: never
// between the frames of a batch, and never under the table or sweep locks.
// Every transport fills it: a direct channel's Send, or the secure
// channel's read loop.
type inbox struct {
	// calls holds two counters in one word, so that one load reads both: the
	// calls into the datapath in progress, on any goroutine (the low 32
	// bits), and the calls ever begun (the high 32 bits, wrapping). Entering
	// and leaving are one atomic add each, on every frame path.
	calls   atomic.Uint64
	queued  atomic.Int32 // len(msgs), for a look without mu
	waiting atomic.Bool  // the frame queue holds a batch not yet taken
	// direct is set when the datapath is attached over a direct channel,
	// where a dispatch's answers are in the inbox by the time it is
	// credited, so a drain that empties the inbox has handled them all.
	direct atomic.Bool

	mu    sync.Mutex
	msgs  []openflow.Message // waiting, in the order the controller sent them
	spare []openflow.Message // the drained round's slice, for the next round
	// frames and batches are the frame queue: a copy of each batch handed in,
	// in arrival order. The executing call reads it in place from
	// batches[next] while answers append behind, and empties it once it has
	// taken the last.
	frames  packet.FrameBatch
	batches []queuedBatch
	next    int
}

// queuedBatch is a batch in the frame queue, and what it counts for the
// in-port's receive counters.
type queuedBatch struct {
	inPort                    uint16
	start, end, frames, bytes int
}

// queue copies a batch arriving on inPort into the frame queue: fb's
// frames, or frame alone when fb is nil.
func (in *inbox) queue(inPort uint16, fb *packet.FrameBatch, frame []byte) {
	in.mu.Lock()
	q := queuedBatch{inPort: inPort, start: in.frames.Spans(), frames: 1, bytes: len(frame)}
	if fb == nil {
		in.frames.Append(frame)
	} else {
		in.frames.AppendBatch(fb)
		q.frames, q.bytes = fb.Len(), fb.TotalBytes()
	}
	q.end = in.frames.Spans()
	in.batches = append(in.batches, q)
	in.waiting.Store(true)
	in.mu.Unlock()
}

// take makes the caller the executing call if none is in the datapath.
func (dp *Datapath) take() {
	if dp.enterIdle() {
		dp.leave()
	}
}

// takeQueued executes the frame queue on run until it is empty; what sinks
// answer meanwhile joins it behind. A round is what the queue held when the
// round began.
func (dp *Datapath) takeQueued(run *batchRun) {
	in := &dp.in
	if !in.waiting.Load() {
		return
	}
	var d packet.Decoded
	rounds, roundEnd := 0, 0
	for {
		in.mu.Lock()
		if in.next == len(in.batches) {
			in.frames.Reset()
			in.batches, in.next = in.batches[:0], 0
			in.waiting.Store(false)
			in.mu.Unlock()
			return
		}
		if in.next == roundEnd {
			if rounds == maxDrainRounds {
				in.mu.Unlock()
				panic(fmt.Sprintf("datapath: the frame queue still holds %d batches after %d rounds; sinks answer each other without end", len(in.batches)-in.next, rounds))
			}
			rounds, roundEnd = rounds+1, len(in.batches)
		}
		// Appends write behind the batch's spans and bytes, and only this
		// call empties the queue, so a copy of the queue reads them unlocked.
		q, frames := in.batches[in.next], in.frames
		in.next++
		in.mu.Unlock()
		p := dp.receiving(q.inPort, q.frames, q.bytes)
		now := dp.clk.Now()
		for i := q.start; i < q.end && p != nil; i++ {
			frame, copies := frames.Span(i)
			dp.receiveSpan(p, frame, copies, now, &d, run)
		}
	}
}

// takeAll takes the frame queue on a run of its own, for the drain.
func (dp *Datapath) takeAll() {
	if dp.in.waiting.Load() {
		var run batchRun
		dp.takeQueued(&run)
		run.done(dp)
	}
}

// oneCall is what entering adds to inbox.calls: one call in progress, one
// more begun.
const oneCall = 1<<32 | 1

// inProgress is the calls in progress that a calls word counts.
func inProgress(calls uint64) uint32 { return uint32(calls) }

// enter begins a call into the datapath that executes no frames of its own:
// SweepExpired, a port change or a drain. Pair it with leave.
func (dp *Datapath) enter() { dp.in.calls.Add(oneCall) }

// enterIdle begins a call into the datapath if none is in progress.
func (dp *Datapath) enterIdle() bool {
	for {
		c := dp.in.calls.Load()
		if inProgress(c) != 0 {
			return false
		}
		if dp.in.calls.CompareAndSwap(c, c+oneCall) {
			return true
		}
	}
}

// leave ends a call into the datapath. The last call in drains the inbox,
// round after round, until it is empty, keeping its count while it does so
// that no other call finds the datapath idle meanwhile: a frame handed in
// during the drain (a handled packet-out running the flow table, a host
// answering a release) waits in the frame queue for it. A message or frame
// that arrives as the last call leaves, with no call left to take it, is
// taken back and drained here. On a direct channel a drain that handled anything stamps the
// tracer's barrier stage: every dispatch credited before it has its answers
// live. Over a queued or wire channel a credited dispatch's answers may
// still be on their way, and only the controller's barrier stamps.
func (dp *Datapath) leave() {
	in := &dp.in
	rounds := 0
	for {
		for inProgress(in.calls.Load()) == 1 && in.pending() {
			if dp.takeAll(); in.queued.Load() == 0 {
				continue
			}
			if rounds == maxDrainRounds {
				panic(fmt.Sprintf("datapath: the inbox still holds %d messages after %d drain rounds; the controller and datapath answer each other without end", in.queued.Load(), rounds))
			}
			rounds++
			in.mu.Lock()
			batch := in.msgs
			in.msgs, in.spare = in.spare[:0], nil
			in.queued.Store(0)
			in.mu.Unlock()
			for i, msg := range batch {
				batch[i] = nil
				dp.handle(msg)
				openflow.Release(msg) // the datapath handles a flow-mod last
				dp.takeAll()
			}
			in.mu.Lock()
			in.spare = batch[:0]
			in.mu.Unlock()
		}
		// Adding ^0 takes one call away, from the low word only: this call's.
		if inProgress(in.calls.Add(^uint64(0))) != 0 || !in.pending() || !dp.enterIdle() {
			break
		}
	}
	if rounds > 0 && in.direct.Load() {
		dp.tracer.BarrierReply()
	}
}

func (in *inbox) pending() bool { return in.queued.Load() > 0 || in.waiting.Load() }

// deliver is how the datapath takes in a message: on a direct channel the
// controller's Send of msg runs it, otherwise the secure channel's read
// loop does. msg joins the inbox; if no call is in the datapath, this one
// becomes the call and drains it before it returns.
func (dp *Datapath) deliver(msg openflow.Message) {
	dp.in.mu.Lock()
	dp.in.msgs = append(dp.in.msgs, msg)
	dp.in.queued.Store(int32(len(dp.in.msgs)))
	dp.in.mu.Unlock()
	dp.take()
}

// Drain handles what the controller has sent, as the outermost call into the
// datapath does when it returns, and then reads the control path's books:
// first dispatched, the controller's count of punts it has dispatched
// (nox.Controller.Processed), then punted, the punts counted here. A punt is
// counted before it is sent and dispatched after, so dispatched ≥ punted
// read in this order means every punt counted by the second read had been
// dispatched by the first. busy reports that another call is in the
// datapath, or began while the books were read; that call drains what is
// left when it returns, and its punts may still be on their way. When busy
// is false on a direct channel, no call was in the datapath while the books
// were read, so every punt not yet dispatched is one the controller was
// never handed: a wrapper kept it (a wedge).
func (dp *Datapath) Drain(processed func() uint64) (punted, dispatched uint64, busy bool) {
	dp.enter()
	dp.leave()
	c := dp.in.calls.Load()
	dispatched = processed()
	punted = dp.punted.Load()
	busy = inProgress(c) != 0 || dp.in.calls.Load() != c
	return punted, dispatched, busy
}

// AttachDirect attaches the datapath to a controller over one end of an
// oftransport.Direct channel: what the controller sends there waits in the
// datapath's inbox for the outermost call to drain it, and the datapath
// sends on tr — end itself, or a wrapper of it. No goroutine is started and
// no handshake is sent; the controller's end (nox.Controller.AttachDirect)
// asks for the features. Stop, or closing either end, detaches it. Calls
// from several goroutines at once are safe, but one call executes the
// frames of all of them, and the answers wait until none is in the
// datapath, so punts held that long can outnumber the packet-in buffers: a
// directly attached datapath is meant to be stepped by one goroutine at a
// time, as a home is.
func (dp *Datapath) AttachDirect(end *oftransport.DirectEnd, tr oftransport.Transport) {
	dp.connMu.Lock()
	dp.tr = tr
	dp.connMu.Unlock()
	dp.in.direct.Store(true)
	end.Bind(dp.deliver, func() {
		dp.connMu.Lock()
		if dp.tr == tr {
			dp.tr = nil
		}
		dp.connMu.Unlock()
	})
}
