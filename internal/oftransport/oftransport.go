// Package oftransport makes the OpenFlow control channel a pluggable
// abstraction boundary rather than a mandatory wire protocol. The paper's
// deployment co-locates the NOX controller and the switch datapath on one
// home router, so nothing forces every control message through
// serialize → TCP → deserialize; this package lets the two ends exchange
// already-decoded messages directly when they share a process, while
// keeping the byte-exact TCP path for cross-process deployments.
//
// # The Transport contract
//
// A Transport is one endpoint of a bidirectional, message-oriented control
// channel. Implementations must provide:
//
//   - Ordering: messages arrive at the peer's Recv in the order they were
//     passed to Send from any single goroutine. There is no ordering
//     guarantee between concurrent senders beyond "each Send is atomic":
//     messages are never interleaved, duplicated or torn.
//   - Concurrency: Send is safe for concurrent use by multiple goroutines.
//     Recv must be called from a single goroutine at a time (both the NOX
//     switch handle and the datapath secure channel run one read loop).
//   - Backpressure: Send may block while the peer's receive path is
//     congested (the TCP transport blocks on a full socket buffer; the
//     in-process transport's queue is unbounded and never blocks — see
//     Pair for why bounded queues would deadlock co-resident control
//     loops). Send never drops messages while the transport is open.
//   - Close semantics: Close is idempotent and aborts both directions for
//     both endpoints. After Close, Send returns ErrClosed. Recv drains
//     messages that were already queued locally, then returns ErrClosed.
//     Messages buffered but not yet delivered to the closing end's peer
//     may be lost, exactly as with an aborted TCP connection.
//   - Message ownership: Send transfers ownership of the message to the
//     receiver. The in-process transports pass the same pointer the
//     sender built (that is the whole point — no copy, no re-encode), so
//     a sender must not read or mutate a message after Send returns. The
//     TCP transport copies by serializing, but callers must honour the
//     stricter in-process rule so the transports stay interchangeable.
//     A message's last owner releases it (openflow.Release): the receiver
//     once it has handled it, or the TCP transport once it has encoded it
//     (the peer reads its own decoded copy). Release returns a packet-in,
//     flow-mod or flow-removed that openflow's constructors made to their
//     pool, zeroed, and leaves any other message alone; a message nobody
//     releases, such as one a failed Send did not deliver, is left to the
//     collector.
//
// Three implementations: Direct for a controller and datapath in one
// address space (no queue and no goroutine: a Send delivers before it
// returns; every in-process home uses it), Pair for an in-process channel
// with a read loop at each end (two unbounded queues), and NewTCP/DialTCP
// for the wire path. A direct end meets the contract above with its
// receiving side bound (DirectEnd.Bind) rather than read with Recv. The
// controller and the datapath take a message in one way on all three: the
// function a direct end is bound to is what their read loops over Pair and
// TCP hand each message Recv returns.
package oftransport

import (
	"errors"

	"repro/internal/openflow"
)

// ErrClosed is returned by Send and Recv once a transport endpoint has
// been closed, locally or by its peer. Callers use it (via errors.Is) to
// tell an orderly channel shutdown from a protocol failure.
var ErrClosed = errors.New("oftransport: transport closed")

// Transport is one endpoint of an OpenFlow control channel. See the
// package comment for the full contract (ordering, backpressure, Close
// semantics and message ownership).
type Transport interface {
	// Send delivers one message toward the peer, blocking for
	// backpressure. It returns ErrClosed once the transport is closed.
	Send(msg openflow.Message) error
	// Recv blocks for the next message from the peer. It returns
	// ErrClosed after Close (draining already-queued messages first) and
	// a decode error if the peer violated the protocol.
	Recv() (openflow.Message, error)
	// Close aborts both directions of the channel for both endpoints.
	// It is idempotent.
	Close() error
}
