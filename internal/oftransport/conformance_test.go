package oftransport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/openflow"
)

// factory builds a connected transport pair; conformance tests run the
// same assertions against every implementation so the two stay
// interchangeable behind core.Config.Transport.
type factory func(t *testing.T) (a, b Transport)

func transports() map[string]factory {
	return map[string]factory{
		// A tiny initial capacity so tests exercise queue growth.
		"inprocess": func(t *testing.T) (Transport, Transport) {
			a, b := Pair(2)
			t.Cleanup(func() { _ = a.Close() })
			return a, b
		},
		// The ends of Direct with a queue bound to each, so that the
		// suite's Recv reads what the peer's Send delivered.
		"direct": func(t *testing.T) (Transport, Transport) {
			a, b := Direct()
			t.Cleanup(func() { _ = a.Close() })
			return queueBound(a), queueBound(b)
		},
		"tcp": func(t *testing.T) (Transport, Transport) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				accepted <- c
			}()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			server := <-accepted
			_ = ln.Close()
			a, b := NewTCP(client), NewTCP(server)
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return a, b
		},
	}
}

// queuedEnd is a DirectEnd whose owner queues what is delivered to it, for
// Recv to read: the conformance suite's view of a direct channel.
type queuedEnd struct {
	*DirectEnd
	q *msgQueue
}

func queueBound(e *DirectEnd) Transport {
	q := newMsgQueue(2)
	e.Bind(func(msg openflow.Message) { _ = q.push(msg) }, q.close)
	return &queuedEnd{DirectEnd: e, q: q}
}

func (e *queuedEnd) Recv() (openflow.Message, error) { return e.q.pop() }

func conformance(t *testing.T, run func(t *testing.T, a, b Transport)) {
	t.Helper()
	for name, mk := range transports() {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			run(t, a, b)
		})
	}
}

// TestConformanceHello exchanges HELLOs both ways: the opening move of the
// OpenFlow handshake on either end.
func TestConformanceHello(t *testing.T) {
	conformance(t, func(t *testing.T, a, b Transport) {
		if err := a.Send(&openflow.Hello{}); err != nil {
			t.Fatal(err)
		}
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*openflow.Hello); !ok {
			t.Fatalf("b received %T, want *Hello", msg)
		}
		if err := b.Send(&openflow.Hello{}); err != nil {
			t.Fatal(err)
		}
		msg, err = a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*openflow.Hello); !ok {
			t.Fatalf("a received %T, want *Hello", msg)
		}
	})
}

// TestConformanceEcho round-trips an echo request/reply with payload and
// XID intact.
func TestConformanceEcho(t *testing.T) {
	conformance(t, func(t *testing.T, a, b Transport) {
		req := &openflow.EchoRequest{Data: []byte("liveness")}
		req.Header.XID = 42
		if err := a.Send(req); err != nil {
			t.Fatal(err)
		}
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := msg.(*openflow.EchoRequest)
		if !ok || string(got.Data) != "liveness" || got.Header.XID != 42 {
			t.Fatalf("b received %#v", msg)
		}
		rep := &openflow.EchoReply{Data: got.Data}
		rep.Header.XID = got.Header.XID
		if err := b.Send(rep); err != nil {
			t.Fatal(err)
		}
		back, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		er, ok := back.(*openflow.EchoReply)
		if !ok || string(er.Data) != "liveness" || er.Header.XID != 42 {
			t.Fatalf("a received %#v", back)
		}
	})
}

// TestConformanceHalfClose verifies the Close contract: messages already
// sent are still drained by the peer, then both ends observe ErrClosed in
// both directions.
func TestConformanceHalfClose(t *testing.T) {
	conformance(t, func(t *testing.T, a, b Transport) {
		for i := 0; i < 3; i++ {
			req := &openflow.EchoRequest{}
			req.Header.XID = uint32(i + 1)
			if err := a.Send(req); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		// The three queued messages arrive, then the shutdown.
		for i := 0; i < 3; i++ {
			msg, err := b.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if xid := msg.Hdr().XID; xid != uint32(i+1) {
				t.Fatalf("recv %d: xid = %d", i, xid)
			}
		}
		if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("b.Recv after close = %v, want ErrClosed", err)
		}
		if err := a.Send(&openflow.Hello{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("a.Send after close = %v, want ErrClosed", err)
		}
		if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("a.Recv after close = %v, want ErrClosed", err)
		}
		// The surviving end's sends fail too — immediately in process, and
		// within a handful of writes on TCP (the RST has to come back).
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := b.Send(&openflow.Hello{})
			if errors.Is(err, ErrClosed) {
				break
			}
			if err != nil {
				t.Fatalf("b.Send after peer close = %v, want ErrClosed", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("b.Send never observed the peer close")
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestConformanceConcurrentSend hammers Send from several goroutines and
// checks that every message arrives exactly once, untorn, and in per-
// sender order.
func TestConformanceConcurrentSend(t *testing.T) {
	conformance(t, func(t *testing.T, a, b Transport) {
		const senders, perSender = 8, 200
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					req := &openflow.EchoRequest{Data: []byte(fmt.Sprintf("s%d-m%d", g, i))}
					req.Header.XID = uint32(g*perSender + i)
					if err := a.Send(req); err != nil {
						t.Errorf("sender %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		seen := make(map[uint32]bool, senders*perSender)
		lastPerSender := make([]int, senders)
		for i := range lastPerSender {
			lastPerSender[i] = -1
		}
		for n := 0; n < senders*perSender; n++ {
			msg, err := b.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", n, err)
			}
			req, ok := msg.(*openflow.EchoRequest)
			if !ok {
				t.Fatalf("recv %d: %T", n, msg)
			}
			xid := req.Header.XID
			if seen[xid] {
				t.Fatalf("duplicate xid %d", xid)
			}
			seen[xid] = true
			g, i := int(xid)/perSender, int(xid)%perSender
			if want := fmt.Sprintf("s%d-m%d", g, i); string(req.Data) != want {
				t.Fatalf("torn message: xid %d carries %q, want %q", xid, req.Data, want)
			}
			if i <= lastPerSender[g] {
				t.Fatalf("sender %d reordered: message %d after %d", g, i, lastPerSender[g])
			}
			lastPerSender[g] = i
		}
		wg.Wait()
	})
}
