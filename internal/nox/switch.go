package nox

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Switch is the controller's handle on one connected datapath, reached
// through whichever oftransport.Transport the datapath attached with.
type Switch struct {
	ctl  *Controller
	tr   oftransport.Transport
	dpid uint64

	xid atomic.Uint32

	// unanswered is the buffer id of the packet-in being dispatched until
	// a flow-mod or packet-out that references it is sent, NoBuffer
	// otherwise. Send may run on any goroutine, hence the atomic.
	unanswered atomic.Uint32

	pendingMu sync.Mutex
	pending   map[uint32]chan openflow.Message

	closeOnce sync.Once
	joined    atomic.Bool // the join handlers have run; leaveSwitch runs once

	// The decode state and the packet-in and flow-removed events handle
	// reuses: a switch handles one message at a time (deliver), and a
	// handler owns them only for the dispatch.
	d   packet.Decoded
	ev  PacketInEvent
	rem FlowRemovedEvent

	// What deliver keeps: whether a call is handling a message, and the
	// messages queued behind it, inbox[next:] (inMu guards the slice;
	// queued counts it, for a look without the lock).
	handling atomic.Bool
	queued   atomic.Int32
	inMu     sync.Mutex
	inbox    []openflow.Message
	next     int
}

func (sw *Switch) nextXID() uint32 { return sw.xid.Add(1) }

func (sw *Switch) close() { sw.closeOnce.Do(func() { _ = sw.tr.Close() }) }

// Send writes one message to the datapath. Transports serialize
// concurrent sends internally.
func (sw *Switch) Send(msg openflow.Message) error {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		sw.unanswered.CompareAndSwap(m.BufferID, openflow.NoBuffer)
	case *openflow.PacketOut:
		sw.unanswered.CompareAndSwap(m.BufferID, openflow.NoBuffer)
	}
	return sw.tr.Send(msg)
}

// readLoop services a queued or wire transport: it hands each message it
// receives to deliver, as a direct channel's Send does.
func (sw *Switch) readLoop() error {
	for {
		msg, err := sw.tr.Recv()
		if err != nil {
			sw.close()
			sw.failPending(err)
			if errors.Is(err, oftransport.ErrClosed) {
				return nil
			}
			return err
		}
		sw.deliver(msg)
	}
}

// deliver is how the switch takes in a message: on a direct channel the
// datapath's Send of msg runs it, on the datapath's goroutine; otherwise
// readLoop does. A switch handles one message at a time, to completion, as
// NOX's event loop does. A message that arrives while a call is handling
// another — from another goroutine, or from this one when a handler's
// answer reaches an idle datapath that punts again — is queued, and the
// call that is handling takes it next. Each packet-in is credited as soon
// as it is dispatched.
func (sw *Switch) deliver(msg openflow.Message) {
	tracer := sw.ctl.tracer.Load()
	if sw.queued.Load() == 0 && sw.handling.CompareAndSwap(false, true) {
		sw.dispatch(msg, tracer)
	} else {
		sw.inMu.Lock()
		sw.inbox = append(sw.inbox, msg)
		sw.queued.Add(1)
		sw.inMu.Unlock()
		if !sw.handling.CompareAndSwap(false, true) {
			return // the call that is handling takes it
		}
	}
	// This call is handling: it takes what is queued, lets go, and takes
	// back what arrived as it let go if no other call has.
	for {
		for sw.queued.Load() > 0 {
			sw.dispatch(sw.pop(), tracer)
		}
		sw.handling.Store(false)
		if sw.queued.Load() == 0 || !sw.handling.CompareAndSwap(false, true) {
			return
		}
	}
}

// dispatch handles one message and credits a packet-in.
func (sw *Switch) dispatch(msg openflow.Message, tracer *trace.Tracer) {
	if sw.handle(msg, tracer) {
		sw.ctl.noteProcessed()
	}
}

// pop takes the oldest queued message; only the call that is handling does.
func (sw *Switch) pop() openflow.Message {
	sw.inMu.Lock()
	defer sw.inMu.Unlock()
	msg := sw.inbox[sw.next]
	sw.inbox[sw.next] = nil
	if sw.next++; sw.next == len(sw.inbox) {
		sw.inbox, sw.next = sw.inbox[:0], 0
	}
	sw.queued.Add(-1)
	return msg
}

// handle routes one switch-to-controller message: a reply to its pending
// request, everything else to the event handlers. It reports whether msg was
// a packet-in, which the caller credits.
func (sw *Switch) handle(msg openflow.Message, tracer *trace.Tracer) (punt bool) {
	switch msg.(type) {
	case *openflow.PacketIn, *openflow.FlowRemoved, *openflow.PortStatus:
		// Asynchronous: never the reply to a request.
	default:
		if ch := sw.takePending(msg.Hdr().XID); ch != nil {
			ch <- msg
			return false
		}
	}
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		rep := &openflow.EchoReply{Data: m.Data}
		rep.Header.XID = m.Header.XID
		_ = sw.Send(rep)
	case *openflow.PacketIn:
		tracer.BeginDispatch()
		_ = sw.d.Decode(m.Data) // partial decode is fine; handlers check Has*
		sw.ev = PacketInEvent{Switch: sw, Msg: m, Decoded: &sw.d}
		sw.unanswered.Store(m.BufferID)
		sw.ctl.dispatchPacketIn(&sw.ev)
		// Every buffered packet-in is answered exactly once: what no
		// handler referenced is discarded with an action-less packet-out,
		// so the datapath frees the slot and sends the frames it holds
		// behind the punt back to be punted.
		if id := sw.unanswered.Load(); id != openflow.NoBuffer {
			_ = sw.ReleaseBuffer(id, m.InPort)
		}
		tracer.EndDispatch()
		// The switch is the packet-in's last reader: no handler keeps it.
		sw.ev.Msg = nil
		openflow.Release(m)
		return true
	case *openflow.FlowRemoved:
		sw.rem = FlowRemovedEvent{Switch: sw, Msg: m}
		sw.ctl.dispatchFlowRemoved(&sw.rem)
		sw.rem.Msg = nil
		openflow.Release(m)
	case *openflow.ErrorMsg:
		// Errors not tied to a pending request are logged by dropping;
		// a production controller would surface these.
	default:
		// Port status, which no module handles, and unsolicited replies
		// (stats for timed-out requests etc.).
	}
	return false
}

// waiter is what one synchronous request blocks on: the channel handle
// delivers the reply on and the timer that bounds the wait. Waiters are
// recycled across every switch of the process; the timer of a pooled one is
// stopped and its channel empty.
type waiter struct {
	ch    chan openflow.Message
	timer *time.Timer
	// barrier is the request Barrier sends, kept here so that a settle
	// lapping Barrier does not allocate one per lap. It is reused
	// with the waiter, that is only once answered: the datapath reads a
	// request's xid before it sends the reply and not after, and the wire
	// transport encodes a message before Send returns.
	barrier openflow.BarrierRequest
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan openflow.Message, 1), timer: t}
}}

func (sw *Switch) addPending(xid uint32, ch chan openflow.Message) {
	sw.pendingMu.Lock()
	sw.pending[xid] = ch
	sw.pendingMu.Unlock()
}

func (sw *Switch) takePending(xid uint32) chan openflow.Message {
	sw.pendingMu.Lock()
	defer sw.pendingMu.Unlock()
	ch, ok := sw.pending[xid]
	if ok {
		delete(sw.pending, xid)
	}
	return ch
}

func (sw *Switch) failPending(err error) {
	sw.pendingMu.Lock()
	for xid, ch := range sw.pending {
		close(ch)
		delete(sw.pending, xid)
	}
	sw.pendingMu.Unlock()
}

// request sends msg and waits for the reply with the same xid.
func (sw *Switch) request(msg openflow.Message, timeout time.Duration) (openflow.Message, error) {
	return sw.roundTrip(waiters.Get().(*waiter), msg, timeout)
}

// roundTrip is request on a waiter the caller took from the pool.
func (sw *Switch) roundTrip(w *waiter, msg openflow.Message, timeout time.Duration) (openflow.Message, error) {
	xid := sw.nextXID()
	msg.Hdr().XID = xid
	sw.addPending(xid, w.ch)
	if err := sw.Send(msg); err != nil {
		sw.takePending(xid)
		return nil, err
	}
	w.timer.Reset(timeout)
	select {
	case rep, ok := <-w.ch:
		if !ok {
			return nil, errors.New("nox: connection closed")
		}
		// Only an answered waiter is reused: its channel has left the
		// pending map and been drained, and a stopped timer (go 1.23 on)
		// delivers nothing late. After a timeout or a close, handle may
		// still hold the channel, so that waiter is left to the collector.
		w.timer.Stop()
		waiters.Put(w)
		if em, isErr := rep.(*openflow.ErrorMsg); isErr {
			return nil, em
		}
		return rep, nil
	case <-w.timer.C:
		sw.takePending(xid)
		return nil, errors.New("nox: request timed out")
	}
}

// InstallFlow adds a flow entry.
func (sw *Switch) InstallFlow(match openflow.Match, priority uint16, idle, hard uint16, actions []openflow.Action, opts ...FlowOpt) error {
	// The datapath, or the transport that encodes it, releases it.
	fm := openflow.NewFlowMod(openflow.FlowMod{
		Match: match, Command: openflow.FlowModAdd,
		IdleTimeout: idle, HardTimeout: hard, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: actions,
	})
	for _, o := range opts {
		o(fm)
	}
	fm.Header.XID = sw.nextXID()
	return sw.Send(fm)
}

// FlowOpt customizes an InstallFlow flow-mod.
type FlowOpt func(*openflow.FlowMod)

// WithBuffer applies the flow-mod to a buffered packet.
func WithBuffer(id uint32) FlowOpt {
	return func(fm *openflow.FlowMod) { fm.BufferID = id }
}

// withCookie tags the entry.
func withCookie(c uint64) FlowOpt {
	return func(fm *openflow.FlowMod) { fm.Cookie = c }
}

// WithFlowRemoved requests a flow-removed notification.
func WithFlowRemoved() FlowOpt {
	return func(fm *openflow.FlowMod) { fm.Flags |= openflow.FlowModFlagSendFlowRem }
}

// SendPacket transmits a frame through an action list (packet-out).
func (sw *Switch) SendPacket(frame []byte, inPort uint16, actions ...openflow.Action) error {
	po := &openflow.PacketOut{
		BufferID: openflow.NoBuffer, InPort: inPort,
		Actions: actions, Data: frame,
	}
	po.Header.XID = sw.nextXID()
	return sw.Send(po)
}

// ReleaseBuffer tells the datapath to forward buffered packet id through
// actions (packet-out referencing the buffer).
func (sw *Switch) ReleaseBuffer(id uint32, inPort uint16, actions ...openflow.Action) error {
	po := &openflow.PacketOut{BufferID: id, InPort: inPort, Actions: actions}
	po.Header.XID = sw.nextXID()
	return sw.Send(po)
}

// FlowStats queries flow statistics.
func (sw *Switch) FlowStats(match openflow.Match) ([]openflow.FlowStats, error) {
	req := &openflow.StatsRequest{
		StatsType: openflow.StatsFlow,
		Flow:      openflow.FlowStatsRequest{Match: match, TableID: 0xff, OutPort: openflow.PortNone},
	}
	rep, err := sw.request(req, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sr, ok := rep.(*openflow.StatsReply)
	if !ok {
		return nil, errors.New("nox: unexpected reply type")
	}
	return sr.Flows, nil
}

// PortStats queries port counters (PortNone = all ports).
func (sw *Switch) PortStats(portNo uint16) ([]openflow.PortStats, error) {
	req := &openflow.StatsRequest{StatsType: openflow.StatsPort, Port: openflow.PortStatsRequest{PortNo: portNo}}
	rep, err := sw.request(req, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sr, ok := rep.(*openflow.StatsReply)
	if !ok {
		return nil, errors.New("nox: unexpected reply type")
	}
	return sr.Ports, nil
}

// TableStats queries table counters.
func (sw *Switch) TableStats() ([]openflow.TableStats, error) {
	req := &openflow.StatsRequest{StatsType: openflow.StatsTable}
	rep, err := sw.request(req, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sr, ok := rep.(*openflow.StatsReply)
	if !ok {
		return nil, errors.New("nox: unexpected reply type")
	}
	return sr.Tables, nil
}

// Barrier round-trips a barrier request. A successful reply proves every
// credited dispatch's emissions are live in the datapath, so it also
// closes those punt-lifecycle spans (their barrier stage is stamped).
func (sw *Switch) Barrier() error {
	w := waiters.Get().(*waiter)
	w.barrier = openflow.BarrierRequest{}
	_, err := sw.roundTrip(w, &w.barrier, 5*time.Second)
	if err == nil {
		sw.ctl.tracer.Load().BarrierReply()
	}
	return err
}
