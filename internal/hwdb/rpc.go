package hwdb

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The UDP RPC protocol. Requests and responses are single datagrams:
//
//	request:  "HWDB/1 <seq> <VERB>\n<body>"
//	response: "HWDB/1 <seq> OK [arg]\n<body>"  or  "HWDB/1 <seq> ERR <msg>\n"
//
// Verbs: EXEC (body = one CQL statement; SELECT returns a tabular body),
// SUBSCRIBE (body = SUBSCRIBE <select> EVERY <n> <unit>; OK arg is the
// subscription id), UNSUBSCRIBE (body = id) and PING.
//
// Subscription pushes are unsolicited datagrams to the subscriber's address:
//
//	"HWDB/1 0 PUSH <id>\n<tabular body>"
//
// Responses are capped at MaxDatagram; oversize result sets are truncated
// and flagged with a "TRUNCATED" trailer line so clients can tighten their
// window or add LIMIT.
const (
	rpcMagic = "HWDB/1"
	// MaxDatagram is the largest datagram the server will send.
	MaxDatagram = 60000
	// maxStatus caps a reply's status line (an error can quote the
	// request), so the header always leaves room for the body.
	maxStatus = 1024
)

// Server serves HWDB/1 over UDP: one socket loop answering each request
// from a verb table, and one registry of subscriptions pushing on the
// database's clock. NewServer fills the table with the per-home verbs
// above; Handle and HandleSubscribe add or replace verbs, which is how the
// fleet telemetry endpoint serves its own verb set on the same server.
//
// Subscription lifecycle: SUBSCRIBE registers the subscription and
// accounts its push goroutine under one lock, and is refused with ERR once
// Close has begun; UNSUBSCRIBE or Close cancels it. A push that fails to
// send ends its goroutine. Close is idempotent, safe on a server that was
// never served, and returns once the socket loop and every push goroutine
// have exited.
type Server struct {
	db    *DB
	conn  *net.UDPConn
	verbs map[string]handler

	mu      sync.Mutex
	subs    map[uint64]chan struct{} // subscription id -> cancel
	nextID  uint64
	closing bool
	wg      sync.WaitGroup
}

// handler answers one request body from addr with a reply status and body.
type handler func(addr *net.UDPAddr, body string) (status, resp string)

// NewServer creates a server for db. Call Serve to start it.
func NewServer(db *DB) *Server {
	s := &Server{db: db, subs: make(map[uint64]chan struct{})}
	s.verbs = map[string]handler{
		"PING":        func(*net.UDPAddr, string) (string, string) { return "OK pong", "" },
		"SUBSCRIBE":   s.subscribeSelect,
		"UNSUBSCRIBE": s.unsubscribe,
	}
	s.Handle("EXEC", func(body string) (*Result, error) { return db.Exec(strings.TrimSpace(body)) })
	return s
}

// Handle adds or replaces a tabular verb. fn's result is answered
// "OK <rows>" with the result's text as the body ("OK 0" and no body for
// a nil result), its error "ERR <msg>". Call before Serve.
func (s *Server) Handle(verb string, fn func(body string) (*Result, error)) {
	s.verbs[strings.ToUpper(verb)] = func(_ *net.UDPAddr, body string) (string, string) {
		res, err := fn(body)
		switch {
		case err != nil:
			return "ERR " + err.Error(), ""
		case res == nil:
			return "OK 0", ""
		}
		return "OK " + strconv.Itoa(len(res.Rows)), res.Text()
	}
}

// HandleSubscribe replaces SUBSCRIBE with a named push source: the body
// must then be "[SUBSCRIBE] <name> EVERY <n> <unit>". newTick is called
// once per subscription with the bytes a push body may take; every period
// the tick it returns gives the body to push, or nothing to send nothing.
// The body is the tick's until its next call, and the push only reads it.
// A longer body is truncated like a reply. Call before Serve.
func (s *Server) HandleSubscribe(name string, newTick func(budget int) func() []byte) {
	s.verbs["SUBSCRIBE"] = func(addr *net.UDPAddr, body string) (string, string) {
		every, err := parseEvery(name, body)
		if err != nil {
			return "ERR " + err.Error(), ""
		}
		return s.subscribe(addr, every, newTick)
	}
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves until Close.
func (s *Server) Serve(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return err
	}
	s.conn = conn
	s.wg.Add(1)
	go s.loop()
	return nil
}

// Addr returns the bound address once Serve has been called.
func (s *Server) Addr() string {
	if s.conn == nil {
		return ""
	}
	return s.conn.LocalAddr().String()
}

// Close stops the server and cancels all subscriptions. Safe to defer
// before checking Serve's error (a never-served server closes to a no-op).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	for id, cancel := range s.subs {
		close(cancel)
		delete(s.subs, id)
	}
	s.mu.Unlock()
	var err error
	if s.conn != nil {
		err = s.conn.Close()
	}
	s.wg.Wait()
	return err
}

// Subscriptions returns the number of active subscriptions.
func (s *Server) Subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

func (s *Server) loop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		_, _ = s.conn.WriteToUDP(s.answer(addr, string(buf[:n])), addr)
	}
}

// answer dispatches one request datagram and frames its one reply, at
// most MaxDatagram bytes.
func (s *Server) answer(addr *net.UDPAddr, req string) []byte {
	seq, verb, body, err := parseRequest(req)
	var status, resp string
	if err != nil {
		status = "ERR " + err.Error()
	} else if h, ok := s.verbs[verb]; ok {
		status, resp = h(addr, body)
	} else {
		status = "ERR unknown verb " + verb
	}
	if len(status) > maxStatus {
		status = status[:maxStatus]
	}
	return appendBody(fmt.Appendf(nil, "%s %d %s\n", rpcMagic, seq, status), resp)
}

// parseRequest splits one request datagram into its sequence number,
// upper-cased verb and body.
func parseRequest(s string) (seq uint64, verb, body string, err error) {
	nl := strings.IndexByte(s, '\n')
	header := s
	if nl >= 0 {
		header, body = s[:nl], s[nl+1:]
	}
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != rpcMagic {
		return 0, "", "", fmt.Errorf("bad request header")
	}
	seq, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, "", "", fmt.Errorf("bad sequence number")
	}
	return seq, strings.ToUpper(fields[2]), body, nil
}

// truncated is the trailer line that flags a body cut to fit a datagram.
const truncated = "TRUNCATED\n"

// appendBody appends body to a datagram that holds its header, cutting the
// body if header and body would not fit in one MaxDatagram-sized datagram:
// at the last line boundary that leaves room for the "TRUNCATED" trailer,
// which flags the cut.
func appendBody[B string | []byte](dgram []byte, body B) []byte {
	room := MaxDatagram - len(dgram)
	if len(body) <= room {
		return append(dgram, body...)
	}
	keep := body[:room-len(truncated)]
	for i := len(keep); i > 0; i-- {
		if keep[i-1] == '\n' {
			keep = keep[:i]
			break
		}
	}
	return append(append(dgram, keep...), truncated...)
}

// parseEvery parses a named source's subscription body, "[SUBSCRIBE]
// <name> EVERY <n> <unit>", in any case; the units are the CQL ones.
func parseEvery(name, body string) (time.Duration, error) {
	f := strings.Fields(strings.ToUpper(body))
	if len(f) > 0 && f[0] == "SUBSCRIBE" {
		f = f[1:]
	}
	if len(f) != 4 || f[0] != strings.ToUpper(name) || f[1] != "EVERY" {
		return 0, fmt.Errorf("body must be [SUBSCRIBE] %s EVERY <n> <unit>", name)
	}
	v, err := strconv.ParseFloat(f[2], 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad period %q", f[2])
	}
	unit, err := parseUnit(f[3])
	if err != nil {
		return 0, fmt.Errorf("bad unit %q", f[3])
	}
	return time.Duration(v * float64(unit)), nil
}

// subscribeSelect is the per-home SUBSCRIBE: the body is a CQL SUBSCRIBE
// statement and each push is its SELECT's result.
func (s *Server) subscribeSelect(addr *net.UDPAddr, body string) (string, string) {
	st, err := Parse(strings.TrimSpace(body))
	if err != nil {
		return "ERR " + err.Error(), ""
	}
	sub, ok := st.(*SubscribeStmt)
	if !ok {
		return "ERR body must be a SUBSCRIBE statement", ""
	}
	return s.subscribe(addr, sub.Every, func(int) func() []byte { return s.selectTick(sub.Query) })
}

// subscribe registers a subscription pushing to addr every period and
// starts its goroutine. It is refused once Close has begun, so Close never
// waits on a subscription it did not cancel.
func (s *Server) subscribe(addr *net.UDPAddr, every time.Duration, newTick func(budget int) func() []byte) (string, string) {
	if every <= 0 {
		return "ERR bad period", "" // would push without pause
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return "ERR server closing", ""
	}
	s.nextID++
	id := s.nextID
	cancel := make(chan struct{})
	s.subs[id] = cancel
	s.wg.Add(1)
	s.mu.Unlock()

	header := fmt.Sprintf("%s 0 PUSH %d\n", rpcMagic, id)
	go s.push(addr, header, every, newTick(MaxDatagram-len(header)), cancel)
	return "OK " + strconv.FormatUint(id, 10), ""
}

func (s *Server) unsubscribe(_ *net.UDPAddr, body string) (string, string) {
	id, err := strconv.ParseUint(strings.TrimSpace(body), 10, 64)
	if err != nil {
		return "ERR bad subscription id", ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cancel, ok := s.subs[id]
	if !ok {
		return "ERR no such subscription", ""
	}
	close(cancel)
	delete(s.subs, id)
	return "OK", ""
}

// push drives one subscription until it is cancelled or a send fails. It
// writes each datagram, header and body, into one buffer it keeps.
func (s *Server) push(addr *net.UDPAddr, header string, every time.Duration, tick func() []byte, cancel <-chan struct{}) {
	defer s.wg.Done()
	var dgram []byte
	for {
		select {
		case <-cancel:
			return
		case <-s.db.clk.After(every):
		}
		body := tick()
		if len(body) == 0 {
			continue
		}
		dgram = appendBody(append(dgram[:0], header...), body)
		if _, err := s.conn.WriteToUDP(dgram, addr); err != nil {
			return
		}
	}
}

// selectTick is a CQL subscription's tick. Idle subscriptions are free: a
// period where the result cannot have changed skips the SELECT entirely
// (no inserts since the last evaluation, and either the window is
// insert-driven — ROWS/ALL/NOW — or the last result was already empty,
// which only inserts can change), and a re-evaluated result identical to
// the last push is not re-sent. A subscription over an idle table
// therefore generates no datagrams at all until data first appears. A
// tick renders its result's text into bytes it keeps, visiting the rows in
// place, and hands back the bytes it pushes: a tick allocates only when a
// result outgrows the last.
func (s *Server) selectTick(q *SelectStmt) func() []byte {
	var (
		body, last []byte   // this evaluation's text; the last push's
		cols       []string // the result's column names, rebuilt in place
		havePush   bool     // at least one push sent
		evaled     bool     // lastIns/lastRows are valid
		lastIns    uint64   // table insert count at the last evaluation
		lastRows   int      // data rows in the last evaluation
	)
	return func() []byte {
		t, ok := s.db.Table(q.Table)
		if !ok {
			return nil // the SELECT would fail
		}
		ins, _ := t.Stats()
		if evaled && ins == lastIns && (q.Win.Kind != WindowRange || lastRows == 0) {
			return nil // nothing can have changed: skip the SELECT too
		}
		cols = appendCols(cols[:0], t.Schema(), q)
		body = appendHeaderText(body[:0], cols)
		rows := 0
		err := s.db.SelectFunc(q, func(row []Value) {
			body = AppendRowText(body, row)
			rows++
		})
		if err != nil {
			return nil
		}
		evaled, lastIns, lastRows = true, ins, rows
		if havePush && bytes.Equal(body, last) {
			return nil // unchanged result: no datagram
		}
		if !havePush && rows == 0 {
			return nil // idle from the start: nothing to report yet
		}
		body, last, havePush = last, body, true
		return last
	}
}

// Client is a UDP RPC client. It is safe for sequential use; concurrent
// callers should use one Client each.
type Client struct {
	conn    *net.UDPConn
	seq     uint64
	timeout time.Duration
	pushCh  chan Push // pushes read off the socket, waiting for WaitPush
	buf     []byte    // the one datagram read buffer; each read is copied out
}

// Push is one subscription push received by a client.
type Push struct {
	SubID  uint64
	Result *Result
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, timeout: 2 * time.Second, pushCh: make(chan Push, 64),
		buf: make([]byte, 65536)}, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// call sends a request and waits for its matching response, queuing any
// pushes that arrive in between.
func (c *Client) call(verb, body string) (status string, respBody string, err error) {
	c.seq++
	seq := c.seq
	req := fmt.Sprintf("%s %d %s\n%s", rpcMagic, seq, verb, body)
	if _, err := c.conn.Write([]byte(req)); err != nil {
		return "", "", err
	}
	deadline := time.Now().Add(c.timeout)
	for {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return "", "", err
		}
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return "", "", err
		}
		gotSeq, rest, pushed, perr := c.parseResponse(string(c.buf[:n]))
		if perr != nil {
			continue // ignore garbage
		}
		if pushed {
			continue
		}
		if gotSeq != seq {
			continue // stale response
		}
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return rest, "", nil
		}
		return rest[:nl], rest[nl+1:], nil
	}
}

// parseResponse handles both replies and pushes; pushes are routed to the
// push channel and pushed=true is returned.
func (c *Client) parseResponse(s string) (seq uint64, rest string, pushed bool, err error) {
	if !strings.HasPrefix(s, rpcMagic+" ") {
		return 0, "", false, fmt.Errorf("bad magic")
	}
	s = s[len(rpcMagic)+1:]
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return 0, "", false, fmt.Errorf("bad header")
	}
	seq, err = strconv.ParseUint(s[:sp], 10, 64)
	if err != nil {
		return 0, "", false, err
	}
	rest = s[sp+1:]
	if strings.HasPrefix(rest, "PUSH ") {
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return 0, "", false, fmt.Errorf("bad push")
		}
		id, err := strconv.ParseUint(strings.TrimSpace(rest[5:nl]), 10, 64)
		if err != nil {
			return 0, "", false, err
		}
		res, err := ParseText(rest[nl+1:])
		if err != nil {
			return 0, "", false, err
		}
		select {
		case c.pushCh <- Push{SubID: id, Result: res}:
		default:
		}
		return 0, "", true, nil
	}
	return seq, rest, false, nil
}

// request is call with an ERR reply returned as an error.
func (c *Client) request(verb, body string) (status, respBody string, err error) {
	status, respBody, err = c.call(verb, body)
	if err == nil && strings.HasPrefix(status, "ERR") {
		err = fmt.Errorf("hwdb: server: %s", strings.TrimPrefix(status, "ERR "))
	}
	return status, respBody, err
}

// Exec runs one CQL statement; for SELECT the result is non-nil.
func (c *Client) Exec(cql string) (*Result, error) {
	_, body, err := c.request("EXEC", cql)
	if err != nil || body == "" {
		return nil, err
	}
	return ParseText(body)
}

// Subscribe registers a periodic subscription; returns its id.
func (c *Client) Subscribe(cql string) (uint64, error) {
	status, _, err := c.request("SUBSCRIBE", cql)
	if err != nil {
		return 0, err
	}
	id, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(status, "OK")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("hwdb: bad subscribe response %q", status)
	}
	return id, nil
}

// Unsubscribe cancels a subscription.
func (c *Client) Unsubscribe(id uint64) error {
	_, _, err := c.request("UNSUBSCRIBE", strconv.FormatUint(id, 10))
	return err
}

// WaitPush blocks until a push arrives on the socket or the timeout
// elapses. Use after Subscribe when no other calls are in flight.
func (c *Client) WaitPush(timeout time.Duration) (Push, error) {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case p := <-c.pushCh:
			return p, nil
		default:
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return Push{}, err
		}
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return Push{}, err
		}
		_, _, pushed, perr := c.parseResponse(string(c.buf[:n]))
		if perr == nil && pushed {
			return <-c.pushCh, nil
		}
	}
}

// ParseText parses the tab-separated wire form back into a Result with
// string-typed cells (clients treat results as display data).
func ParseText(s string) (*Result, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	res := &Result{}
	first := true
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line == "TRUNCATED" {
			continue
		}
		fields := strings.Split(line, "\t")
		if first {
			res.Cols = fields
			first = false
			continue
		}
		row := make([]Value, len(fields))
		for i, f := range fields {
			row[i] = Str(f)
		}
		res.Rows = append(res.Rows, row)
	}
	if first {
		return nil, fmt.Errorf("hwdb: empty result body")
	}
	return res, sc.Err()
}
