package nox

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// Switch is the controller's handle on one connected datapath, reached
// through whichever oftransport.Transport the datapath attached with.
type Switch struct {
	ctl      *Controller
	tr       oftransport.Transport
	dpid     uint64
	features *openflow.FeaturesReply

	xid atomic.Uint32

	// unanswered is the buffer id of the packet-in being dispatched until
	// a flow-mod or packet-out that references it is sent, NoBuffer
	// otherwise. Send may run on any goroutine, hence the atomic.
	unanswered atomic.Uint32

	pendingMu sync.Mutex
	pending   map[uint32]chan openflow.Message

	closeOnce sync.Once
}

// DPID returns the datapath identifier.
func (sw *Switch) DPID() uint64 { return sw.dpid }

// Features returns the features reply captured at handshake.
func (sw *Switch) Features() *openflow.FeaturesReply { return sw.features }

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

// readLoop services switch-to-controller messages, routing replies to
// pending synchronous requests and everything else to event handlers.
//
// The loop is batched: when the transport supports it (the in-process
// channel), every message already queued is drained into a reused slice
// per wakeup, so a burst of punts from one ReceiveBatch tick costs one
// wakeup and one quiescence broadcast instead of N. The decode state and
// the packet-in and flow-removed events are also reused across batches —
// handlers own them only for the duration of the dispatch (see the package
// comment).
func (sw *Switch) readLoop() error {
	var (
		batch []openflow.Message
		d     packet.Decoded
		ev    PacketInEvent
		rem   FlowRemovedEvent
	)
	for {
		var err error
		batch, err = oftransport.RecvInto(sw.tr, batch)
		if err != nil {
			sw.close()
			sw.failPending(err)
			if errors.Is(err, oftransport.ErrClosed) {
				return nil
			}
			return err
		}
		// The tracer pointer is loaded once per batch; its stamp methods
		// are nil-safe.
		tracer := sw.ctl.tracer.Load()
		punts := 0
		for i, msg := range batch {
			batch[i] = nil
			xid := msg.Hdr().XID
			if ch := sw.takePending(xid); ch != nil {
				ch <- msg
				continue
			}
			switch m := msg.(type) {
			case *openflow.EchoRequest:
				rep := &openflow.EchoReply{Data: m.Data}
				rep.Header.XID = m.Header.XID
				_ = sw.Send(rep)
			case *openflow.PacketIn:
				tracer.BeginDispatch()
				_ = d.Decode(m.Data) // partial decode is fine; handlers check Has*
				ev = PacketInEvent{Switch: sw, Msg: m, Decoded: &d}
				sw.unanswered.Store(m.BufferID)
				sw.ctl.dispatchPacketIn(&ev)
				// Every buffered packet-in is answered exactly once: what
				// no handler referenced is discarded with an action-less
				// packet-out, so the datapath frees the slot and sends
				// the frames it holds behind the punt back to be punted.
				if id := sw.unanswered.Load(); id != openflow.NoBuffer {
					_ = sw.ReleaseBuffer(id, m.InPort)
				}
				tracer.EndDispatch()
				punts++
			case *openflow.FlowRemoved:
				rem = FlowRemovedEvent{Switch: sw, Msg: m}
				sw.ctl.dispatchFlowRemoved(&rem)
			case *openflow.PortStatus:
				sw.ctl.dispatchPortStatus(&PortStatusEvent{Switch: sw, Msg: m})
			case *openflow.ErrorMsg:
				// Errors not tied to a pending request are logged by dropping;
				// a production controller would surface these.
			default:
				// Unsolicited replies (stats for timed-out requests etc.).
			}
		}
		if punts > 0 {
			sw.ctl.noteProcessed(punts)
		}
	}
}

// waiter is what one synchronous request blocks on: the channel readLoop
// delivers the reply on and the timer that bounds the wait. Waiters are
// recycled across every switch of the process; the timer of a pooled one is
// stopped and its channel empty.
type waiter struct {
	ch    chan openflow.Message
	timer *time.Timer
	// barrier is the request Barrier sends, kept here so that a settle
	// lapping Wait and Barrier does not allocate one per lap. It is reused
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
		// delivers nothing late. After a timeout or a close, readLoop may
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
	fm := &openflow.FlowMod{
		Match: match, Command: openflow.FlowModAdd,
		IdleTimeout: idle, HardTimeout: hard, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: actions,
	}
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

// WithCookie tags the entry.
func WithCookie(c uint64) FlowOpt {
	return func(fm *openflow.FlowMod) { fm.Cookie = c }
}

// WithFlowRemoved requests a flow-removed notification.
func WithFlowRemoved() FlowOpt {
	return func(fm *openflow.FlowMod) { fm.Flags |= openflow.FlowModFlagSendFlowRem }
}

// DeleteFlows removes all entries subsumed by match.
func (sw *Switch) DeleteFlows(match openflow.Match) error {
	fm := &openflow.FlowMod{
		Match: match, Command: openflow.FlowModDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	}
	fm.Header.XID = sw.nextXID()
	return sw.Send(fm)
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

// AggregateStats queries aggregate flow counters for match.
func (sw *Switch) AggregateStats(match openflow.Match) (openflow.AggregateStats, error) {
	req := &openflow.StatsRequest{
		StatsType: openflow.StatsAggregate,
		Flow:      openflow.FlowStatsRequest{Match: match, TableID: 0xff, OutPort: openflow.PortNone},
	}
	rep, err := sw.request(req, 5*time.Second)
	if err != nil {
		return openflow.AggregateStats{}, err
	}
	sr, ok := rep.(*openflow.StatsReply)
	if !ok {
		return openflow.AggregateStats{}, errors.New("nox: unexpected reply type")
	}
	return sr.Aggregate, nil
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

// Echo round-trips an echo request (liveness probe).
func (sw *Switch) Echo(data []byte) error {
	rep, err := sw.request(&openflow.EchoRequest{Data: data}, 5*time.Second)
	if err != nil {
		return err
	}
	if _, ok := rep.(*openflow.EchoReply); !ok {
		return errors.New("nox: unexpected echo reply type")
	}
	return nil
}
