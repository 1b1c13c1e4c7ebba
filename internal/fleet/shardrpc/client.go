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
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrClosed is returned by calls on a client after Close.
var ErrClosed = errors.New("shardrpc: client closed")

// callTimeout bounds one round trip other than Step.
const callTimeout = 10 * time.Second

// ClientConfig parameterizes a coordinator-side remote shard client.
type ClientConfig struct {
	// Addr is the worker's listen address; required.
	Addr string
	// Relay is the hub the client ingests every telemetry batch the
	// worker piggybacks on its responses into; attach it to the
	// coordinator's Federation. A nil Relay gets a private hub (reachable
	// via Client.Relay) so accounting is never silently dropped.
	Relay *telemetry.Hub
	// Clock, when set, stamps SYNC requests with the coordinator's
	// current time so the worker can advance its own simulated clock in
	// lockstep.
	Clock clock.Clock
	// StepTimeout bounds Step round trips — a wedged worker must fail the
	// fleet tick, not hang it (default 10s, as every other round trip).
	StepTimeout time.Duration
	// DialTimeout bounds one dial attempt (default 3s).
	DialTimeout time.Duration
	// DialAttempts is how many times a (re)dial is tried before the call
	// fails (default 5).
	DialAttempts int
	// RedialBackoff separates dial attempts (default 50ms).
	RedialBackoff time.Duration
}

// Client is the remote implementation of the fleet ShardClient contract:
// each method is one framed round trip to a worker's Server. It dials
// lazily, redials (with RESYNC book reconciliation) after any transport
// error, and serializes calls — the fleet coordinator drives each shard
// from one goroutine at a time, matching the in-process engine's
// contract.
//
// Failure semantics per verb: Assign and Step surface transport errors
// to the caller (the coordinator aborts the spawn / fails the tick);
// Drain, Cordon and Uncordon report false; Sync is best-effort (the
// missed batch is recovered by the next successful one or accounted lost
// at reconnect); Stats and TraceSnapshot return zero values. Close sends
// a best-effort CLOSE and releases the connection.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	seq    uint64
	closed bool
	// out and in are the frames the client sends and receives, reused
	// call to call (see beginFrame).
	out, in []byte

	// Receiving-side telemetry books: the last batch sequence ingested
	// and the cumulative rows/lost accounted into the relay hub. Compared
	// against the worker's committed books (piggybacked on every batch,
	// returned by RESYNC) to account wire-swallowed rows as lost.
	gotSeq  uint64
	gotRows uint64
	gotLost uint64
}

// Dial builds a client for one worker address. It does not connect: the
// first call dials, and any call after a transport fault redials, so a
// worker that restarts behind the same address heals without
// coordinator-level surgery.
func Dial(cfg ClientConfig) *Client {
	if cfg.StepTimeout <= 0 {
		cfg.StepTimeout = callTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 5
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 50 * time.Millisecond
	}
	if cfg.Relay == nil {
		cfg.Relay = telemetry.NewHub(telemetry.HubConfig{})
	}
	return &Client{cfg: cfg}
}

// Relay returns the hub remote batches are ingested into.
func (c *Client) Relay() *telemetry.Hub { return c.cfg.Relay }

// ensureConn dials if no connection is live, then reconciles books over
// the fresh connection with RESYNC. Callers hold c.mu.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.RedialBackoff)
		}
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		br := bufio.NewReader(conn)
		resp, err := c.roundTrip(conn, br, &Request{Verb: VerbResync}, callTimeout)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		if resp.Committed == nil {
			conn.Close()
			lastErr = frameErr("RESYNC response without books")
			continue
		}
		c.reconcile(*resp.Committed)
		c.conn, c.br = conn, br
		return nil
	}
	return fmt.Errorf("shardrpc: dial %s: %w", c.cfg.Addr, lastErr)
}

// reconcile aligns the client books with the worker's committed ledger:
// anything the worker committed that never arrived here was swallowed by
// a dead connection and is accounted as lost — the rows are gone (the
// worker does not retransmit committed batches) but never uncounted.
// Callers hold c.mu.
func (c *Client) reconcile(books Books) {
	if books.SentRows > c.gotRows {
		c.cfg.Relay.AccountLost(books.SentRows - c.gotRows)
		c.gotRows = books.SentRows
	}
	if books.SentLost > c.gotLost {
		c.cfg.Relay.AccountLost(books.SentLost - c.gotLost)
		c.gotLost = books.SentLost
	}
	if books.Seq > c.gotSeq {
		c.gotSeq = books.Seq
	}
}

// ingest feeds one piggybacked batch into the relay hub, deduplicating
// by batch sequence. Callers hold c.mu.
func (c *Client) ingest(b *Batch) {
	if b == nil || b.Seq <= c.gotSeq && len(b.Deltas) > 0 {
		// A replayed batch (the worker rolled back a write we actually
		// read) must not double-count; sequence comparison is the guard.
		return
	}
	for _, d := range b.Deltas {
		c.cfg.Relay.Ingest(d)
		c.gotRows += uint64(len(d.Rows))
		c.gotLost += d.Lost
	}
	if b.Seq > c.gotSeq {
		c.gotSeq = b.Seq
	}
	// The batch carries the worker's cumulative books; any gap means a
	// prior batch was committed but lost on the wire before this
	// connection was cut over — account it now rather than waiting for
	// the next reconnect.
	c.reconcile(Books{Seq: b.Seq, SentRows: b.SentRows, SentLost: b.SentLost})
}

// roundTrip performs one framed request/response exchange on conn with a
// fresh sequence number, enforcing deadline as an absolute bound on the
// exchange. Callers hold c.mu.
func (c *Client) roundTrip(conn net.Conn, br *bufio.Reader, req *Request, timeout time.Duration) (*Response, error) {
	c.seq++
	req.Seq = c.seq
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	c.out = appendRequest(beginFrame(c.out), req)
	if err := writeFrame(conn, c.out); err != nil {
		return nil, err
	}
	var err error
	if c.in, err = readFrame(br, c.in); err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(c.in)
	if err != nil {
		return nil, err
	}
	if resp.Seq != req.Seq {
		return nil, frameErr("response seq %d for request %d", resp.Seq, req.Seq)
	}
	if resp.Err == "" && resp.Verb != req.Verb {
		return nil, frameErr("response verb %q for request %q", resp.Verb, req.Verb)
	}
	return resp, nil
}

// call runs one RPC under the client mutex: ensure a connection, round
// trip, ingest any piggybacked batch. Transport and protocol errors
// drop the connection (the next call redials and RESYNCs); an ERR
// response leaves the connection healthy and surfaces as an error.
func (c *Client) call(req *Request, timeout time.Duration) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	reused := c.conn != nil
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(c.conn, c.br, req, timeout)
	if err != nil && reused {
		// A reused connection can die while idle (worker restart, server
		// drop): redial once and replay. The dead socket rejects the
		// request before the worker sees it, so the replay is not a
		// double-execution in that case; the residual ambiguity (response
		// lost after execution) is accepted for this control plane and
		// self-reports — a replayed ASSIGN errs "already live", a replayed
		// batch is deduplicated by sequence.
		c.dropConnLocked()
		if derr := c.ensureConn(); derr == nil {
			resp, err = c.roundTrip(c.conn, c.br, req, timeout)
		}
	}
	if err != nil {
		c.dropConnLocked()
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("shardrpc: %s: %s", req.Verb, resp.Err)
	}
	c.ingest(resp.Batch)
	return resp, nil
}

// dropConnLocked closes the live connection so the next call redials.
// Callers hold c.mu.
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// Assign places a home on the remote shard. Transport errors and remote
// Assign failures both surface: the coordinator aborts the reservation
// either way.
func (c *Client) Assign(id uint64) error {
	_, err := c.call(&Request{Verb: VerbAssign, ID: id}, callTimeout)
	return err
}

// Drain tears a remote home down and ingests its final telemetry flush.
// A transport failure reports false — the coordinator treats the drain
// as not having happened; if the worker actually drained, the home is
// gone remotely while still placed here, a divergence the next Assign of
// that ID surfaces. See ARCHITECTURE.md "Fleet control plane" for why
// this is the least-bad option without two-phase placement.
func (c *Client) Drain(id uint64) bool {
	resp, err := c.call(&Request{Verb: VerbDrain, ID: id}, callTimeout)
	if err != nil {
		return false
	}
	return resp.OK
}

// Cordon takes a remote home out of rotation; false on transport error.
func (c *Client) Cordon(id uint64) bool {
	resp, err := c.call(&Request{Verb: VerbCordon, ID: id}, callTimeout)
	if err != nil {
		return false
	}
	return resp.OK
}

// Uncordon returns a remote home to rotation; false on transport error.
func (c *Client) Uncordon(id uint64) bool {
	resp, err := c.call(&Request{Verb: VerbUncordon, ID: id}, callTimeout)
	if err != nil {
		return false
	}
	return resp.OK
}

// Step advances the remote shard by dt simulated seconds, bounded by
// StepTimeout: a wedged worker fails the fleet tick instead of hanging
// it.
func (c *Client) Step(dt float64) error {
	_, err := c.call(&Request{Verb: VerbStep, DT: dt}, c.cfg.StepTimeout)
	return err
}

// Sync flushes the remote hub and ingests the piggybacked delta batch.
// Best-effort: on failure the batch stays pending worker-side and rides
// the next successful Sync, or is accounted lost at reconnect.
func (c *Client) Sync() {
	req := &Request{Verb: VerbSync}
	if c.cfg.Clock != nil {
		req.Now = c.cfg.Clock.Now().UnixNano()
	}
	c.call(req, callTimeout) //nolint:errcheck // best-effort by contract
}

// Stats fetches the remote engine's self-reported state; zero value on
// transport error.
func (c *Client) Stats() engine.Stats {
	resp, err := c.call(&Request{Verb: VerbStats}, callTimeout)
	if err != nil || resp.Stats == nil {
		return engine.Stats{}
	}
	return *resp.Stats
}

// TraceSnapshot fetches the remote engine's merged punt-lifecycle
// histograms; zero value on transport error.
func (c *Client) TraceSnapshot() trace.Snapshot {
	resp, err := c.call(&Request{Verb: VerbTrace}, callTimeout)
	if err != nil || resp.Snap == nil {
		return trace.Snapshot{}
	}
	return *resp.Snap
}

// Ping round-trips a header-only frame — a cheap liveness probe used by
// tests and the coordinator CLI.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Verb: VerbPing}, callTimeout)
	return err
}

// Resync forces a book reconciliation round trip without waiting for a
// reconnect; the soak uses it to settle accounting before its final
// assertions.
func (c *Client) Resync() error {
	resp, err := c.call(&Request{Verb: VerbResync}, callTimeout)
	if err != nil {
		return err
	}
	if resp.Committed == nil {
		return frameErr("RESYNC response without books")
	}
	c.mu.Lock()
	c.reconcile(*resp.Committed)
	c.mu.Unlock()
	return nil
}

// Close sends a best-effort CLOSE (telling the worker to tear its engine
// down) if a connection is up — it does not dial one — and releases the
// client. Idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.conn != nil {
		c.roundTrip(c.conn, c.br, &Request{Verb: VerbClose}, callTimeout) //nolint:errcheck // best-effort
		c.dropConnLocked()
	}
}
