package oftransport

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/openflow"
)

// errDirectRecv is what Recv returns on a direct end: nothing is ever
// queued for it, because what the peer sends is delivered by the Send.
var errDirectRecv = errors.New("oftransport: a direct end has no Recv; what the peer sends goes to the end's Bind")

// DirectEnd is one end of a Direct channel. It is a Transport, so a wrapper
// (core.Config.WrapTransport) can interpose on its Send as on any other, but
// it has no queue and no read loop: Send hands the message to whatever the
// owner of the other end bound there, on the sending goroutine, and returns
// when that has taken it.
type DirectEnd struct {
	peer *DirectEnd
	// deliver and closed are what the owner of this end bound: deliver takes
	// what the peer sends, closed is told once when the channel closes.
	deliver func(openflow.Message)
	closed  func()

	shut *directShut // shared by both ends
}

// directShut is the close state the two ends of one channel share.
type directShut struct {
	closed atomic.Bool
	once   sync.Once
}

// Direct returns the two ends of an in-process channel between a controller
// and a datapath that share an address space: the datapath end's Send runs
// the controller's handling of the message (bind the controller's dispatch to
// the controller end), and the controller end's Send hands the message to the
// datapath (bind its inbox to the datapath end). Neither end starts a
// goroutine. Ordering is the sender's: each Send is delivered before it
// returns. The receivers say how concurrent deliveries are serialized.
func Direct() (ctl, dp *DirectEnd) {
	shut := &directShut{}
	ctl, dp = &DirectEnd{shut: shut}, &DirectEnd{shut: shut}
	ctl.peer, dp.peer = dp, ctl
	return ctl, dp
}

// Bind attaches the owner of this end: deliver takes every message the peer
// end sends, on the goroutine that sends it, and closed (which may be nil) is
// called once, when either end is closed. Bind before the peer sends: a
// message sent to an end nobody has bound is refused with ErrClosed.
func (e *DirectEnd) Bind(deliver func(openflow.Message), closed func()) {
	e.deliver, e.closed = deliver, closed
}

// Send delivers msg to the owner of the peer end before it returns. It
// returns ErrClosed once the channel is closed.
func (e *DirectEnd) Send(msg openflow.Message) error {
	deliver := e.peer.deliver
	if deliver == nil || e.shut.closed.Load() {
		return ErrClosed
	}
	deliver(msg)
	return nil
}

// Recv is not how a direct end receives: see Bind.
func (e *DirectEnd) Recv() (openflow.Message, error) { return nil, errDirectRecv }

// Close closes both ends and tells both owners, once.
func (e *DirectEnd) Close() error {
	e.shut.once.Do(func() {
		e.shut.closed.Store(true)
		for _, end := range []*DirectEnd{e, e.peer} {
			if end.closed != nil {
				end.closed()
			}
		}
	})
	return nil
}
