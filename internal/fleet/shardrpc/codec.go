package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// errFrame wraps every decode failure so callers can distinguish a
// malformed peer from a transport error.
var errFrame = errors.New("shardrpc: bad frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
}

// ------------------------------------------------------------- framing

// A connection encodes every frame it sends into one buffer and reads
// every frame it receives into another, both reused frame to frame: the
// encoders append a payload behind the length prefix beginFrame reserves,
// and the decoders copy out whatever they keep (strings, row cells), so a
// payload read is garbage as soon as it is decoded.

// beginFrame empties a connection's outgoing buffer but for the 4-byte
// length prefix writeFrame fills in.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// writeFrame writes one frame that beginFrame began and an encoder
// completed, in a single Write call, so a frame is either fully queued to
// the kernel or the connection is dead — the commit protocol relies on
// that atomicity at this layer.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("shardrpc: frame %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame's payload into buf, growing it
// if it must, and returns it; the payload is valid until the next read into
// the same buffer. An oversized declaration is rejected before anything is
// allocated for it.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return buf, frameErr("declared payload %d exceeds MaxFrame", n)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	return buf, nil
}

// ------------------------------------------------------ binary primitives

// coder runs a body's layout — its fields in wire order — one of two ways.
// Encoding, each field appends its value to b. Decoding, each field reads
// its value from b at off with strict bounds checking: every length read
// is validated against the bytes actually remaining, so a corrupt frame
// can neither over-read nor bait a huge allocation. The first bad read
// sets err, and every later field leaves its value alone.
type coder struct {
	b    []byte
	off  int
	dec  bool
	err  error
	kept *batchBuf // what a batch decodes into; nil for a fresh one
}

func (c *coder) remaining() int { return len(c.b) - c.off }

// fail records the first decode error.
func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = frameErr(format, args...)
	}
}

// take consumes the n bytes a decode reads next, or fails it with a
// truncated what: n is not positive when a varint runs off the end.
func (c *coder) take(n int, what string) []byte {
	if c.err == nil && (n <= 0 || n > c.remaining()) {
		c.fail("truncated %s at %d", what, c.off)
	}
	if c.err != nil {
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func (c *coder) uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
	} else if x, n := binary.Uvarint(c.b[c.off:]); c.take(n, "uvarint") != nil {
		*v = x
	}
}

func (c *coder) varint(v *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *v)
	} else if x, n := binary.Varint(c.b[c.off:]); c.take(n, "varint") != nil {
		*v = x
	}
}

// int runs an int as a zigzag varint.
func (c *coder) int(v *int) {
	x := int64(*v)
	c.varint(&x)
	*v = int(x)
}

func (c *coder) float(v *float64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if p := c.take(8, "float"); p != nil {
		*v = math.Float64frombits(binary.BigEndian.Uint64(p))
	}
}

// bool runs a bool as one byte, 0 or 1; any other byte is an error.
func (c *coder) bool(v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
	} else if p := c.take(1, "byte"); p != nil {
		if p[0] > 1 {
			c.fail("bad bool byte %d", p[0])
		}
		*v = p[0] == 1
	}
}

// count runs a collection length, bounded when decoding by the cheapest
// possible per-element cost, so a corrupt length cannot allocate past the
// frame.
func (c *coder) count(n *int, minBytesPer int) {
	v := uint64(*n)
	c.uvarint(&v)
	if c.dec && c.err == nil && v > uint64(c.remaining()/max(minBytesPer, 1)) {
		c.fail("count %d exceeds remaining %d bytes", v, c.remaining())
	}
	*n = int(v)
}

// fixed runs a dimension the decoder knows: a length that must be n, or
// the decode fails with format over the length read and n.
func (c *coder) fixed(n int, format string) {
	v := uint64(n)
	c.uvarint(&v)
	if c.dec && c.err == nil && v != uint64(n) {
		c.fail(format, v, n)
	}
}

// finish ends a decode: its first error, or an error for trailing bytes.
func (c *coder) finish() error {
	if c.err == nil && c.remaining() != 0 {
		c.fail("%d trailing bytes", c.remaining())
	}
	return c.err
}

// body returns the value a layout runs for the body *p points at:
// encoding, *p, or an empty body if it is nil; decoding, a new body *p is
// set to.
func body[T any](c *coder, p **T) *T {
	if c.dec {
		*p = new(T)
	} else if *p == nil {
		return new(T)
	}
	return *p
}

// ------------------------------------------------------------- header

// magic opens every header line.
const magic = "HWSH/2 "

func appendHeader(b []byte, seq uint64, fields ...string) []byte {
	b = append(b, magic...)
	b = strconv.AppendUint(b, seq, 10)
	for _, f := range fields {
		b = append(b, ' ')
		b = append(b, f...)
	}
	return append(b, '\n')
}

// splitHeader peels the header line off a payload and parses its fixed
// front, "HWSH/2 <seq> ", in place: it returns the sequence number and the
// rest of the line, a view of the payload. The line is bounded (a verb
// header is tiny; ERR messages are clamped server-side), so a payload with
// no newline in the first 512 bytes is malformed.
func splitHeader(payload []byte) (seq uint64, rest, body []byte, err error) {
	end := bytes.IndexByte(payload[:min(len(payload), 512)], '\n')
	if end < 0 {
		return 0, nil, nil, frameErr("no header line")
	}
	line, body := payload[:end], payload[end+1:]
	rest, ok := bytes.CutPrefix(line, []byte(magic))
	if !ok {
		return 0, nil, nil, frameErr("bad header %q", line)
	}
	digits, rest, _ := bytes.Cut(rest, []byte{' '})
	if seq, ok = parseSeq(digits); !ok {
		return 0, nil, nil, frameErr("bad header %q", line)
	}
	return seq, rest, body, nil
}

// parseSeq parses a decimal sequence number without allocating.
func parseSeq(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseVerb returns the protocol verb b spells, as its constant, so a
// decoded verb is never a fresh string.
func parseVerb(b []byte) (string, bool) {
	for _, v := range verbs {
		if string(b) == v {
			return v, true
		}
	}
	return "", false
}

// ------------------------------------------------------------- request

// encodeRequest serializes one request payload (header + body, no length
// prefix).
func encodeRequest(req *Request) []byte { return appendRequest(nil, req) }

// appendRequest is encodeRequest appending to b.
func appendRequest(b []byte, req *Request) []byte {
	c := coder{b: appendHeader(b, req.Seq, req.Verb)}
	c.request(req)
	return c.b
}

// decode parses one request payload into req, overwriting all of it: a
// server connection decodes every request into one it keeps. It is strict:
// unknown verbs, truncated bodies and trailing bytes are all errors.
func (req *Request) decode(payload []byte) error {
	seq, rest, body, err := splitHeader(payload)
	if err != nil {
		return err
	}
	verb, ok := parseVerb(rest)
	if !ok {
		return frameErr("unknown verb %q", rest)
	}
	*req = Request{Seq: seq, Verb: verb}
	c := coder{b: body, dec: true}
	c.request(req)
	return c.finish()
}

// request runs a request's body, which its verb selects.
func (c *coder) request(req *Request) {
	switch req.Verb {
	case VerbAssign, VerbDrain, VerbCordon, VerbUncordon:
		c.uvarint(&req.ID)
	case VerbStep:
		c.float(&req.DT)
	case VerbSync:
		c.varint(&req.Now)
	}
}

// ------------------------------------------------------------- response

// maxErrLen clamps ERR header messages so a response header always fits
// the splitHeader bound.
const maxErrLen = 400

// EncodeResponse serializes one response payload. ERR responses carry
// only the header; OK responses echo the verb and append the verb's
// body.
func EncodeResponse(resp *Response) []byte { return appendResponse(nil, resp) }

// appendResponse is EncodeResponse appending to b.
func appendResponse(b []byte, resp *Response) []byte {
	if resp.Err != "" {
		// Sanitize byte-wise (no rune decoding): the message must never
		// contain a newline, and byte-level clamping keeps re-encoding a
		// decoded message byte-identical — the codec's canonical-form
		// property, which the fuzzer checks.
		msg := resp.Err
		if len(msg) > maxErrLen {
			msg = msg[:maxErrLen]
		}
		b = appendHeader(b, resp.Seq, "ERR", msg)
		raw := b[len(b)-1-len(msg) : len(b)-1]
		for i, c := range raw {
			if c == '\n' || c == '\r' {
				raw[i] = ' '
			}
		}
		return b
	}
	c := coder{b: appendHeader(b, resp.Seq, "OK", resp.Verb)}
	c.response(resp)
	return c.b
}

// DecodeResponse parses one response payload, as strict as
// Request.decode. A batch it carries is decoded into rows of its own.
func DecodeResponse(payload []byte) (*Response, error) { return decodeResponse(payload, nil) }

// decodeResponse is DecodeResponse decoding into kept, when it is set: a
// batch, and a STEP or SYNC response itself, are then kept's, valid until
// the next decode into it. The other verbs' responses are new: their
// callers read them after the client lets go of kept.
func decodeResponse(payload []byte, kept *batchBuf) (*Response, error) {
	seq, rest, body, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	status, rest, _ := bytes.Cut(rest, []byte{' '})
	switch string(status) {
	case "ERR":
		msg := "unspecified error"
		if len(rest) > 0 {
			msg = string(rest)
		}
		if len(body) != 0 {
			return nil, frameErr("ERR response with %d body bytes", len(body))
		}
		return &Response{Seq: seq, Err: msg}, nil
	case "OK":
	default:
		return nil, frameErr("bad response status %q", status)
	}
	verb, ok := parseVerb(rest)
	if !ok {
		return nil, frameErr("unknown verb %q", rest)
	}
	var resp *Response
	if kept != nil && (verb == VerbStep || verb == VerbSync) {
		resp = &kept.resp
		*resp = Response{Seq: seq, Verb: verb}
	} else {
		resp = &Response{Seq: seq, Verb: verb}
	}
	c := coder{b: body, dec: true, kept: kept}
	c.response(resp)
	if err := c.finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// response runs an OK response's body, which its verb selects. A nil body
// encodes as an empty one.
func (c *coder) response(resp *Response) {
	switch resp.Verb {
	case VerbDrain:
		c.bool(&resp.OK)
		c.batch(c.batchBody(&resp.Batch))
	case VerbCordon, VerbUncordon:
		c.bool(&resp.OK)
	case VerbSync:
		c.batch(c.batchBody(&resp.Batch))
	case VerbStats:
		c.stats(body(c, &resp.Stats))
	case VerbTrace:
		c.snapshot(body(c, &resp.Snap))
	case VerbResync:
		c.books(body(c, &resp.Committed))
	}
}

// batchBody is body for a response's batch, which decodes into the kept
// batchBuf's when there is one.
func (c *coder) batchBody(p **Batch) *Batch {
	if c.dec && c.kept != nil {
		c.kept.batch = Batch{}
		*p = &c.kept.batch
		return *p
	}
	return body(c, p)
}

func (c *coder) books(b *Books) {
	c.uvarint(&b.Seq)
	c.uvarint(&b.SentRows)
	c.uvarint(&b.SentLost)
}

// ------------------------------------------------------------- batches

// A batch is its books (seq, sent rows, sent lost), its delta count, the
// room all its deltas' rows take (rows, cells, strings, runs: the totals
// hwdb.RoomFor counts) and then each delta: home, table name, lost and its
// rows in the hwdb.AppendRows layout — every row's cells as eight-byte
// words, each delta's shape once. The decoder reads the whole batch into
// one hwdb.RowBuilder sized by the totals, so a batch costs a fixed number
// of allocations however many deltas it carries, and none for its rows or
// deltas when it decodes into a batchBuf whose arrays have room.

// batchBuf is what a client decodes every batch into, reused batch to
// batch: a batch's deltas and rows are lent to the client for the one
// call that reads them. A STEP or SYNC response decodes into resp, and
// every batch into batch, the same way.
type batchBuf struct {
	rows   hwdb.RowBuilder
	deltas []telemetry.Delta
	resp   Response
	batch  Batch
}

func (c *coder) batch(b *Batch) {
	c.uvarint(&b.Seq)
	c.uvarint(&b.SentRows)
	c.uvarint(&b.SentLost)
	n := len(b.Deltas)
	c.count(&n, 4) // home, table name length, lost, run count: a byte each at least
	var room hwdb.Room
	for _, d := range b.Deltas {
		room = room.Add(hwdb.RoomFor(d.Rows))
	}
	c.room(&room)
	var fresh hwdb.RowBuilder
	rows := &fresh
	if c.dec && c.err == nil {
		if k := c.kept; k != nil {
			rows = &k.rows
			rows.Reset()
			clear(k.deltas)
			k.deltas = slices.Grow(k.deltas[:0], n)[:n]
			b.Deltas = k.deltas
		} else if n > 0 {
			b.Deltas = make([]telemetry.Delta, n)
		}
		rows.Reserve(room)
	}
	for i := range b.Deltas {
		d := &b.Deltas[i]
		c.uvarint(&d.Source.Home)
		c.str(&d.Source.Table)
		c.uvarint(&d.Lost)
		c.rows(rows, i, d)
	}
	if left := rows.Left(); c.dec && c.err == nil && left != (hwdb.Room{}) {
		c.fail("batch totals exceed its deltas' rows by %+v", left)
	}
}

// room runs a batch's row totals. Decoding, each is bounded by the bytes
// left in the frame before anything is allocated for it: a row is at
// least one eight-byte cell, a string at least its length byte, and every
// run holds a row.
func (c *coder) room(r *hwdb.Room) {
	v := [4]uint64{uint64(r.Rows), uint64(r.Cells), uint64(r.Strs), uint64(r.Runs)}
	for i := range v {
		c.uvarint(&v[i])
	}
	if !c.dec || c.err != nil {
		return
	}
	rows, cells, strs, runs := v[0], v[1], v[2], v[3]
	if rem := uint64(c.remaining()); cells > rem/8 || strs > rem-8*cells || rows > cells || runs > rows {
		c.fail("batch totals %d rows, %d cells, %d strings, %d runs in %d bytes", rows, cells, strs, runs, rem)
		return
	}
	*r = hwdb.Room{Rows: int(rows), Cells: int(cells), Strs: int(strs), Runs: int(runs)}
}

// str runs a length-prefixed string: a delta's table name. Decoding, one
// of the hwdb.Table* constants costs nothing, and any other name is
// copied out.
func (c *coder) str(s *string) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if !c.dec {
		c.b = append(c.b, *s...)
		return
	}
	if c.err == nil && n > uint64(c.remaining()) {
		c.fail("string of %d bytes with %d remaining", n, c.remaining())
	}
	if c.err != nil {
		return
	}
	raw := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	for _, t := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases, hwdb.TableFlowPerf} {
		if string(raw) == t {
			*s = t
			return
		}
	}
	*s = string(raw)
}

// rows runs delta i's rows in the hwdb.AppendRows layout, decoding them
// into the batch's one builder, packed as the Homework table the delta
// names packs them (hwdb.HomeworkSchema).
func (c *coder) rows(b *hwdb.RowBuilder, i int, d *telemetry.Delta) {
	if !c.dec {
		c.b = hwdb.AppendRows(c.b, d.Rows)
		return
	}
	if c.err != nil {
		return
	}
	var k int
	var err error
	if d.Rows, k, err = b.ReadRows(c.b[c.off:], hwdb.HomeworkSchema(d.Source.Table)); err != nil {
		c.fail("delta %d: %v", i, err)
		return
	}
	c.off += k
}

// ------------------------------------------------------------- stats

func (c *coder) stats(st *engine.Stats) {
	c.int(&st.Shard)
	c.int(&st.Homes)
	c.uvarint(&st.Steps)
	c.int(&st.Hub.Sources)
	c.uvarint(&st.Hub.Delivered)
	c.uvarint(&st.Hub.Lost)
}

// ------------------------------------------------------------- traces

// snapshot runs a trace snapshot; its histogram and bucket counts are
// fixed, and a decode rejects any other.
func (c *coder) snapshot(s *trace.Snapshot) {
	c.fixed(len(s.Hists), "snapshot has %d histograms, want %d")
	for i := range s.Hists {
		h := &s.Hists[i]
		c.uvarint(&h.Count)
		c.uvarint(&h.SumNS)
		c.varint(&h.MaxNS)
		c.fixed(len(h.Buckets), "histogram has %d buckets, want %d")
		for j := range h.Buckets {
			c.uvarint(&h.Buckets[j])
		}
	}
	c.uvarint(&s.Overwritten)
}
