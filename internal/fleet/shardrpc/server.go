package shardrpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Backend is the one shard contract: the coordinator's view of a shard
// engine, and the surface a worker's Server drives. Two implementations
// satisfy it — the in-process *engine.Engine and the remote *Client,
// which carries each call to a Server over TCP — plus stubs in the
// protocol tests (a deliberately wedged Step, a counting fake). The
// conformance suite runs one table of clauses against both
// implementations (TestShardClientConformance).
//
// Contract (see docs/ARCHITECTURE.md "Fleet control plane"):
//
//   - Assign(id) builds and starts a home under a fleet-unique ID the
//     coordinator allocated; the engine watches its hwdb tables into the
//     shard hub before Assign returns (TestRemoveReAddSameIDNoWatchLeak).
//     Assigning a live ID is an error (TestShardClientConformance).
//   - Drain(id) is the one teardown primitive: stop the router, final
//     telemetry flush (every row the home's tables still held is
//     delivered), retire the home's sources into the shard hub's
//     cumulative accounting, drop per-home state
//     (TestEngineLifecycle, TestRemoveReAddSameIDNoWatchLeak). Remove,
//     restart, replace and migrate are all Drain plus zero or one Assign
//     (TestMigrateHomeAcrossShards, TestPlacementDeterminism).
//   - Cordon(id) and Uncordon(id) take a live home out of and back into
//     the step plan, and report false for an absent one
//     (TestEngineCordonSkipsStepping, TestShardClientConformance).
//   - Step(dt) is a pure barrier over the engine's homes: deterministic
//     per-home order (TestDeterministicStepping), no shared-clock
//     advance, no telemetry flush (TestShardClientConformance). The
//     coordinator advances time and syncs, once per fleet tick.
//   - Sync flushes the shard hub; the coordinator calls it in shard
//     order so federated fan-out is deterministic
//     (TestLiveStatsReflectEveryStep).
//   - Stats must reconcile: summed over shards, Hub.Delivered+Hub.Lost
//     equals every row any home incarnation ever inserted
//     (TestShardClientConformance, TestRemoteFleetConcurrency32Homes).
//     The federation's global books are sums of these, never a third
//     count. Both implementations report the same Stats and deltas for
//     the same script (TestConformanceCrossImplementation).
//   - Close tears the engine down: a closed engine refuses Step and
//     Assign (TestEngineLifecycle), and a second Close is a no-op
//     (TestShardClientConformance).
type Backend interface {
	Assign(id uint64) error
	Drain(id uint64) bool
	Cordon(id uint64) bool
	Uncordon(id uint64) bool
	Step(dt float64) error
	Sync()
	Stats() engine.Stats
	TraceSnapshot() trace.Snapshot
	Close()
}

var (
	_ Backend = (*engine.Engine)(nil)
	_ Backend = (*Client)(nil)
)

// Config parameterizes a worker-side server.
type Config struct {
	// Backend handles the decoded calls; required.
	Backend Backend
	// Hub, when set, is the backend engine's telemetry hub: every delta
	// it fans out is buffered and piggybacked on the next SYNC or DRAIN
	// response. Without it the server answers calls but relays no
	// telemetry.
	Hub *telemetry.Hub
	// Clock, when set to a *clock.Simulated, is advanced to the
	// coordinator's SYNC timestamp before each flush, keeping remote
	// timestamps identical to the in-process ordering.
	Clock clock.Clock
}

// writeTimeout bounds one response write so a dead peer cannot wedge the
// conn goroutine.
const writeTimeout = 30 * time.Second

// Server serves the Backend contract for one engine over TCP. It
// accepts any number of sequential or concurrent connections (a
// coordinator reconnecting after a network fault just dials again), but
// the telemetry commit books are server-global, so batches stay exactly
// accounted across connection incarnations.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	accepted int
	closed   bool

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup

	// batchMu guards the pending buffer and the committed books, and
	// serializes every batch-bearing response's snapshot → write → commit
	// sequence: a batch is committed only after its response bytes were
	// written, and rolled back (left pending) when the write fails. The
	// pending deltas' rows are copies in rows, which a commit resets.
	batchMu sync.Mutex
	pending []telemetry.Delta
	rows    hwdb.RowBuilder
	books   Books
	batch   Batch // what a response carries the pending deltas in
}

// NewServer wires a server to its backend; call Serve to listen. If
// cfg.Hub is set the server subscribes to it immediately, so rows fanned
// out before the first connection are buffered, not lost.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Hub != nil {
		cfg.Hub.SubscribeFunc(s.enqueue)
	}
	return s
}

// enqueue buffers one hub delta for the next batch-bearing response. It
// runs synchronously inside the hub's drain pass, which lends the delta's
// rows for the call only, so it keeps a copy of them.
func (s *Server) enqueue(d telemetry.Delta) {
	s.batchMu.Lock()
	d.Rows = s.rows.Copy(d.Rows)
	s.pending = append(s.pending, d)
	s.batchMu.Unlock()
}

// Serve starts listening on addr ("host:port"; ":0" picks a free port —
// read it back with Addr) and accepts connections until Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("shardrpc: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Accepted returns how many connections the server has ever accepted —
// the soak asserts a mid-run kill really forced a reconnect.
func (s *Server) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

// Done is closed when a client's CLOSE verb has been served; a worker
// process exits on it.
func (s *Server) Done() <-chan struct{} { return s.done }

// DropConns severs every live connection without touching the listener —
// the fault-injection hook the remote soak and churn gates use to force
// a reconnect mid-run.
func (s *Server) DropConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close stops the listener and severs every connection. It does not
// close the backend: the owner decides whether the engine outlives its
// network surface.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.DropConns()
	s.wg.Wait()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.accepted++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var (
		in, out []byte  // this connection's frames, reused request to request
		req     Request // what each request decodes into
	)
	for {
		var err error
		if in, err = readFrame(br, in); err != nil {
			return
		}
		if err := req.decode(in); err != nil {
			// A malformed frame leaves the stream position untrustworthy:
			// answer with seq 0 (the client never uses it) and drop the
			// conn rather than guess at resynchronization.
			resp := &Response{Seq: 0, Err: err.Error()}
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			writeFrame(conn, appendResponse(beginFrame(out), resp))
			return
		}
		if out, err = s.handle(conn, &req, out); err != nil {
			return
		}
	}
}

// handle executes one request and writes its response, encoded into out,
// which it returns for the next response. A returned error means the
// connection is no longer usable.
func (s *Server) handle(conn net.Conn, req *Request, out []byte) ([]byte, error) {
	resp := &Response{Seq: req.Seq, Verb: req.Verb}
	withBatch := false
	switch req.Verb {
	case VerbAssign:
		if err := s.cfg.Backend.Assign(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case VerbDrain:
		// The drain's final flush fans the home's remaining rows into the
		// pending buffer; the batch on this response carries them out.
		resp.OK = s.cfg.Backend.Drain(req.ID)
		withBatch = true
	case VerbCordon:
		resp.OK = s.cfg.Backend.Cordon(req.ID)
	case VerbUncordon:
		resp.OK = s.cfg.Backend.Uncordon(req.ID)
	case VerbStep:
		if err := s.cfg.Backend.Step(req.DT); err != nil {
			resp.Err = err.Error()
		}
	case VerbSync:
		// Advance the worker clock to the coordinator's instant first:
		// the in-process order is step barrier, clock advance, flush, and
		// the flush stamps view rows with the clock.
		if sim, ok := s.cfg.Clock.(*clock.Simulated); ok && req.Now != 0 {
			if d := time.Unix(0, req.Now).Sub(sim.Now()); d > 0 {
				sim.Advance(d)
			}
		}
		s.cfg.Backend.Sync()
		withBatch = true
	case VerbStats:
		st := s.cfg.Backend.Stats()
		resp.Stats = &st
	case VerbTrace:
		snap := s.cfg.Backend.TraceSnapshot()
		resp.Snap = &snap
	case VerbResync:
		s.batchMu.Lock()
		books := s.books
		s.batchMu.Unlock()
		resp.Committed = &books
	case VerbClose:
		s.cfg.Backend.Close()
		defer s.doneOnce.Do(func() { close(s.done) })
	case VerbPing:
		// Header-only liveness probe.
	default:
		resp.Err = fmt.Sprintf("unhandled verb %q", req.Verb)
	}
	if withBatch && resp.Err == "" {
		return s.writeWithBatch(conn, resp, out)
	}
	out = appendResponse(beginFrame(out), resp)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return out, writeFrame(conn, out)
}

// writeWithBatch snapshots the pending deltas onto resp, writes the
// response and commits the batch only if the write succeeded. On a write
// failure the deltas stay pending and the books unchanged, so the next
// batch-bearing response (likely on a fresh connection, after the client
// RESYNCs) re-carries them: a row is committed exactly once, and a row
// the wire swallowed after commit is what RESYNC accounts as lost.
func (s *Server) writeWithBatch(conn net.Conn, resp *Response, out []byte) ([]byte, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	var rows, lost uint64
	for _, d := range s.pending {
		rows += uint64(len(d.Rows))
		lost += d.Lost
	}
	seq := s.books.Seq
	if len(s.pending) > 0 {
		seq++
	}
	s.batch = Batch{
		Seq:      seq,
		SentRows: s.books.SentRows + rows,
		SentLost: s.books.SentLost + lost,
		Deltas:   s.pending,
	}
	resp.Batch = &s.batch
	out = appendResponse(beginFrame(out), resp)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(conn, out); err != nil {
		return out, err
	}
	if len(s.pending) > 0 {
		s.books = Books{Seq: seq, SentRows: s.books.SentRows + rows, SentLost: s.books.SentLost + lost}
		// The committed deltas are encoded and gone; batchMu kept any
		// other from arriving behind them.
		clear(s.pending)
		s.pending = s.pending[:0]
		s.rows.Reset()
	}
	return out, nil
}
