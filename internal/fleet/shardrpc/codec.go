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

// enc appends binary body primitives.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) float(v float64)  { e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}
func (e *enc) byte(v byte) { e.b = append(e.b, v) }

// dec consumes binary body primitives with strict bounds checking: every
// length read is validated against the bytes actually remaining, so a
// corrupt frame can neither over-read nor bait a huge allocation.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, frameErr("truncated uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, frameErr("truncated varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, frameErr("truncated float at %d", d.off)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

func (d *dec) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, frameErr("bad bool byte %d", b)
}

func (d *dec) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, frameErr("truncated byte at %d", d.off)
	}
	b := d.b[d.off]
	d.off++
	return b, nil
}

// count reads a collection length and bounds it by the cheapest possible
// per-element cost, so a corrupt length cannot allocate past the frame.
func (d *dec) count(minBytesPer int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if n > uint64(d.remaining()/minBytesPer) {
		return 0, frameErr("count %d exceeds remaining %d bytes", n, d.remaining())
	}
	return int(n), nil
}

func (d *dec) finish() error {
	if d.remaining() != 0 {
		return frameErr("%d trailing bytes", d.remaining())
	}
	return nil
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
	e := enc{b: appendHeader(b, req.Seq, req.Verb)}
	switch req.Verb {
	case VerbAssign, VerbDrain, VerbCordon, VerbUncordon:
		e.uvarint(req.ID)
	case VerbStep:
		e.float(req.DT)
	case VerbSync:
		e.varint(req.Now)
	}
	return e.b
}

// decodeRequest parses one request payload. It is strict: unknown verbs,
// truncated bodies and trailing bytes are all errors.
func decodeRequest(payload []byte) (*Request, error) {
	seq, rest, body, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	verb, ok := parseVerb(rest)
	if !ok {
		return nil, frameErr("unknown verb %q", rest)
	}
	req := &Request{Seq: seq, Verb: verb}
	d := &dec{b: body}
	switch verb {
	case VerbAssign, VerbDrain, VerbCordon, VerbUncordon:
		if req.ID, err = d.uvarint(); err != nil {
			return nil, err
		}
	case VerbStep:
		if req.DT, err = d.float(); err != nil {
			return nil, err
		}
	case VerbSync:
		if req.Now, err = d.varint(); err != nil {
			return nil, err
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return req, nil
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
	e := enc{b: appendHeader(b, resp.Seq, "OK", resp.Verb)}
	switch resp.Verb {
	case VerbDrain:
		e.bool(resp.OK)
		encodeBatch(&e, resp.Batch)
	case VerbCordon, VerbUncordon:
		e.bool(resp.OK)
	case VerbSync:
		encodeBatch(&e, resp.Batch)
	case VerbStats:
		encodeStats(&e, resp.Stats)
	case VerbTrace:
		encodeSnapshot(&e, resp.Snap)
	case VerbResync:
		var books Books
		if resp.Committed != nil {
			books = *resp.Committed
		}
		e.uvarint(books.Seq)
		e.uvarint(books.SentRows)
		e.uvarint(books.SentLost)
	}
	return e.b
}

// DecodeResponse parses one response payload, as strict as
// decodeRequest.
func DecodeResponse(payload []byte) (*Response, error) {
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
	resp := &Response{Seq: seq, Verb: verb}
	d := &dec{b: body}
	switch verb {
	case VerbDrain:
		if resp.OK, err = d.bool(); err != nil {
			return nil, err
		}
		if resp.Batch, err = decodeBatch(d); err != nil {
			return nil, err
		}
	case VerbCordon, VerbUncordon:
		if resp.OK, err = d.bool(); err != nil {
			return nil, err
		}
	case VerbSync:
		if resp.Batch, err = decodeBatch(d); err != nil {
			return nil, err
		}
	case VerbStats:
		if resp.Stats, err = decodeStats(d); err != nil {
			return nil, err
		}
	case VerbTrace:
		if resp.Snap, err = decodeSnapshot(d); err != nil {
			return nil, err
		}
	case VerbResync:
		b := &Books{}
		if b.Seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		if b.SentRows, err = d.uvarint(); err != nil {
			return nil, err
		}
		if b.SentLost, err = d.uvarint(); err != nil {
			return nil, err
		}
		resp.Committed = b
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// ------------------------------------------------------------- batches

// A batch is its books (seq, sent rows, sent lost), its delta count, the
// room all its deltas' rows take (rows, cells, strings, runs: the totals
// hwdb.RoomFor counts) and then each delta: home, table name, lost and its
// rows in the hwdb.AppendRows layout — every row's cells as the ring holds
// them, each delta's shape once. The decoder reads the whole batch into
// one hwdb.RowBuilder sized by the totals, so a batch costs a fixed number
// of allocations however many deltas it carries.

func encodeBatch(e *enc, b *Batch) {
	if b == nil {
		b = &Batch{}
	}
	e.uvarint(b.Seq)
	e.uvarint(b.SentRows)
	e.uvarint(b.SentLost)
	e.uvarint(uint64(len(b.Deltas)))
	var room hwdb.Room
	for _, d := range b.Deltas {
		room = room.Add(hwdb.RoomFor(d.Rows))
	}
	for _, v := range []int{room.Rows, room.Cells, room.Strs, room.Runs} {
		e.uvarint(uint64(v))
	}
	for _, d := range b.Deltas {
		e.uvarint(d.Source.Home)
		e.str(d.Source.Table)
		e.uvarint(d.Lost)
		e.b = hwdb.AppendRows(e.b, d.Rows)
	}
}

func decodeBatch(d *dec) (*Batch, error) {
	b := &Batch{}
	var err error
	if b.Seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	if b.SentRows, err = d.uvarint(); err != nil {
		return nil, err
	}
	if b.SentLost, err = d.uvarint(); err != nil {
		return nil, err
	}
	n, err := d.count(4) // home, table name length, lost, run count: a byte each at least
	if err != nil {
		return nil, err
	}
	room, err := d.room()
	if err != nil {
		return nil, err
	}
	var rows hwdb.RowBuilder
	rows.Reserve(room)
	if n > 0 {
		b.Deltas = make([]telemetry.Delta, n)
	}
	for i := range b.Deltas {
		delta := &b.Deltas[i]
		if delta.Source.Home, err = d.uvarint(); err != nil {
			return nil, err
		}
		if delta.Source.Table, err = d.table(); err != nil {
			return nil, err
		}
		if delta.Lost, err = d.uvarint(); err != nil {
			return nil, err
		}
		var k int
		if delta.Rows, k, err = rows.ReadRows(d.b[d.off:]); err != nil {
			return nil, frameErr("delta %d: %v", i, err)
		}
		d.off += k
	}
	if left := rows.Left(); left != (hwdb.Room{}) {
		return nil, frameErr("batch totals exceed its deltas' rows by %+v", left)
	}
	return b, nil
}

// room reads a batch's row totals, each bounded by the bytes left in the
// frame before anything is allocated for it: a row is at least one
// eight-byte cell, a string at least its length byte, and every run holds
// a row.
func (d *dec) room() (hwdb.Room, error) {
	var v [4]uint64
	for i := range v {
		var err error
		if v[i], err = d.uvarint(); err != nil {
			return hwdb.Room{}, err
		}
	}
	rows, cells, strs, runs := v[0], v[1], v[2], v[3]
	if rem := uint64(d.remaining()); cells > rem/8 || strs > rem-8*cells || rows > cells || runs > rows {
		return hwdb.Room{}, frameErr("batch totals %d rows, %d cells, %d strings, %d runs in %d bytes", rows, cells, strs, runs, rem)
	}
	return hwdb.Room{Rows: int(rows), Cells: int(cells), Strs: int(strs), Runs: int(runs)}, nil
}

// table reads a delta's table name: one of the hwdb.Table* constants
// costs nothing, any other name is copied out.
func (d *dec) table() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", frameErr("string of %d bytes with %d remaining", n, d.remaining())
	}
	name := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	for _, t := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases, hwdb.TableFlowPerf} {
		if string(name) == t {
			return t, nil
		}
	}
	return string(name), nil
}

// ------------------------------------------------------------- stats

func encodeStats(e *enc, st *engine.Stats) {
	if st == nil {
		st = &engine.Stats{}
	}
	e.varint(int64(st.Shard))
	e.varint(int64(st.Homes))
	e.uvarint(st.Steps)
	e.varint(int64(st.Hub.Sources))
	e.uvarint(st.Hub.Delivered)
	e.uvarint(st.Hub.Lost)
}

func decodeStats(d *dec) (*engine.Stats, error) {
	st := &engine.Stats{}
	var err error
	var i int64
	if i, err = d.varint(); err != nil {
		return nil, err
	}
	st.Shard = int(i)
	if i, err = d.varint(); err != nil {
		return nil, err
	}
	st.Homes = int(i)
	if st.Steps, err = d.uvarint(); err != nil {
		return nil, err
	}
	if i, err = d.varint(); err != nil {
		return nil, err
	}
	st.Hub.Sources = int(i)
	if st.Hub.Delivered, err = d.uvarint(); err != nil {
		return nil, err
	}
	if st.Hub.Lost, err = d.uvarint(); err != nil {
		return nil, err
	}
	return st, nil
}

// ------------------------------------------------------------- traces

func encodeSnapshot(e *enc, s *trace.Snapshot) {
	if s == nil {
		s = &trace.Snapshot{}
	}
	e.uvarint(uint64(len(s.Hists)))
	for _, h := range s.Hists {
		e.uvarint(h.Count)
		e.uvarint(h.SumNS)
		e.varint(h.MaxNS)
		e.uvarint(uint64(len(h.Buckets)))
		for _, b := range h.Buckets {
			e.uvarint(b)
		}
	}
	e.uvarint(s.Overwritten)
}

func decodeSnapshot(d *dec) (*trace.Snapshot, error) {
	s := &trace.Snapshot{}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(len(s.Hists)) {
		return nil, frameErr("snapshot has %d histograms, want %d", n, len(s.Hists))
	}
	for i := range s.Hists {
		h := &s.Hists[i]
		if h.Count, err = d.uvarint(); err != nil {
			return nil, err
		}
		if h.SumNS, err = d.uvarint(); err != nil {
			return nil, err
		}
		if h.MaxNS, err = d.varint(); err != nil {
			return nil, err
		}
		nb, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nb != uint64(len(h.Buckets)) {
			return nil, frameErr("histogram has %d buckets, want %d", nb, len(h.Buckets))
		}
		for j := range h.Buckets {
			if h.Buckets[j], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
	}
	if s.Overwritten, err = d.uvarint(); err != nil {
		return nil, err
	}
	return s, nil
}
