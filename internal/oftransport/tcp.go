package oftransport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/openflow"
)

// tcpTransport frames messages over a stream connection with the OpenFlow
// 1.0 codec: the cross-process transport, and the byte-exact reference the
// in-process transport is benchmarked against.
type tcpTransport struct {
	conn    net.Conn
	writeMu sync.Mutex
	closed  atomic.Bool
}

// NewTCP wraps a stream connection (a TCP conn or a net.Pipe end) as a
// Transport. The codec writes are serialized internally, so Send honours
// the concurrent-use contract.
func NewTCP(conn net.Conn) Transport {
	return &tcpTransport{conn: conn}
}

// DialTCP connects to an OpenFlow controller or datapath listening on addr
// and returns the wire transport.
func DialTCP(addr string) (Transport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCP(conn), nil
}

func (t *tcpTransport) Send(msg openflow.Message) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.writeMu.Lock()
	err := openflow.WriteMessage(t.conn, msg)
	t.writeMu.Unlock()
	openflow.Release(msg) // encoded: the peer reads its own decoded copy
	if err != nil {
		// On the write path every failure means the channel is gone —
		// TCP cannot tell a peer's orderly FIN from its crash here (both
		// surface as EPIPE/ECONNRESET a write or two later), and the
		// in-process transport reports ErrClosed for either, so this
		// keeps the two implementations interchangeable.
		if t.closed.Load() || isWriteClosed(err) {
			return ErrClosed
		}
		return err
	}
	return nil
}

func (t *tcpTransport) Recv() (openflow.Message, error) {
	msg, err := openflow.ReadMessage(t.conn)
	if err != nil {
		// Only a local Close, a peer FIN, or a torn-down pipe count as
		// the orderly-shutdown case. An abortive failure — peer crash
		// (ECONNRESET), truncated frame — is returned raw so callers can
		// tell it apart from a clean close.
		if t.closed.Load() || isReadClosed(err) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return msg, nil
}

func (t *tcpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.conn.Close()
}

// isReadClosed reports whether a read error is how a stream connection
// signals an orderly shutdown (as opposed to a crash or codec error).
func isReadClosed(err error) bool {
	return err == io.EOF ||
		err == io.ErrClosedPipe ||
		errors.Is(err, net.ErrClosed)
}

// isWriteClosed reports whether a write error means the channel is gone.
// Any syscall-level failure on an established conn (EPIPE, ECONNRESET,
// wrapped in *net.OpError) qualifies; see Send for why the write path is
// broader than the read path.
func isWriteClosed(err error) bool {
	if err == io.ErrClosedPipe || errors.Is(err, net.ErrClosed) {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}
