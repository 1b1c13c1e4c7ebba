package shardrpc

// The reference decoders: each HWSH/2 body read field by field with a
// decoder of its own, as the codec did before one layout drove both
// directions. TestDecodersMatchModel and FuzzShardRPCRoundTrip hold
// decodeRequest and DecodeResponse to them: both accept the same payloads,
// decode them to the same values, and reject the rest as errFrame.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// refDec consumes binary body primitives with strict bounds checking: every
// length read is validated against the bytes actually remaining, so a
// corrupt frame can neither over-read nor bait a huge allocation.
type refDec struct {
	b   []byte
	off int
}

func (d *refDec) remaining() int { return len(d.b) - d.off }

func (d *refDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, frameErr("truncated uvarint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *refDec) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, frameErr("truncated varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *refDec) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, frameErr("truncated float at %d", d.off)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

func (d *refDec) bool() (bool, error) {
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

func (d *refDec) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, frameErr("truncated byte at %d", d.off)
	}
	b := d.b[d.off]
	d.off++
	return b, nil
}

// count reads a collection length and bounds it by the cheapest possible
// per-element cost, so a corrupt length cannot allocate past the frame.
func (d *refDec) count(minBytesPer int) (int, error) {
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

func (d *refDec) finish() error {
	if d.remaining() != 0 {
		return frameErr("%d trailing bytes", d.remaining())
	}
	return nil
}

// decodeRequestRef parses one request payload. It is strict: unknown verbs,
// truncated bodies and trailing bytes are all errors.
func decodeRequestRef(payload []byte) (*Request, error) {
	seq, rest, body, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	verb, ok := parseVerb(rest)
	if !ok {
		return nil, frameErr("unknown verb %q", rest)
	}
	req := &Request{Seq: seq, Verb: verb}
	d := &refDec{b: body}
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

// decodeResponseRef parses one response payload, as strict as
// decodeRequestRef.
func decodeResponseRef(payload []byte) (*Response, error) {
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
	d := &refDec{b: body}
	switch verb {
	case VerbDrain:
		if resp.OK, err = d.bool(); err != nil {
			return nil, err
		}
		if resp.Batch, err = decodeBatchRef(d); err != nil {
			return nil, err
		}
	case VerbCordon, VerbUncordon:
		if resp.OK, err = d.bool(); err != nil {
			return nil, err
		}
	case VerbSync:
		if resp.Batch, err = decodeBatchRef(d); err != nil {
			return nil, err
		}
	case VerbStats:
		if resp.Stats, err = decodeStatsRef(d); err != nil {
			return nil, err
		}
	case VerbTrace:
		if resp.Snap, err = decodeSnapshotRef(d); err != nil {
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

func decodeBatchRef(d *refDec) (*Batch, error) {
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
		if delta.Rows, k, err = rows.ReadRows(d.b[d.off:], hwdb.HomeworkSchema(delta.Source.Table)); err != nil {
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
func (d *refDec) room() (hwdb.Room, error) {
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
func (d *refDec) table() (string, error) {
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

func decodeStatsRef(d *refDec) (*engine.Stats, error) {
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

func decodeSnapshotRef(d *refDec) (*trace.Snapshot, error) {
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

// decodeRequest parses one request payload into a new Request, as the
// server's connections decode into the one they keep (Request.decode).
func decodeRequest(payload []byte) (*Request, error) {
	req := new(Request)
	if err := req.decode(payload); err != nil {
		return nil, err
	}
	return req, nil
}

// checkDecoders holds decodeRequest and DecodeResponse to the reference on
// one payload.
func checkDecoders(t *testing.T, payload []byte) {
	t.Helper()
	req, err := decodeRequest(payload)
	wantReq, wantErr := decodeRequestRef(payload)
	if (err == nil) != (wantErr == nil) || err != nil && !errors.Is(err, errFrame) {
		t.Fatalf("%q: decodeRequest says %v, the reference %v", payload, err, wantErr)
	}
	if err == nil && !sameRequestBits(req, wantReq) {
		t.Fatalf("%q: decodeRequest decodes %+v, the reference %+v", payload, req, wantReq)
	}
	resp, err := DecodeResponse(payload)
	wantResp, wantErr := decodeResponseRef(payload)
	if (err == nil) != (wantErr == nil) || err != nil && !errors.Is(err, errFrame) {
		t.Fatalf("%q: DecodeResponse says %v, the reference %v", payload, err, wantErr)
	}
	if err == nil && !sameResponseBits(resp, wantResp) {
		t.Fatalf("%q: DecodeResponse decodes %+v, the reference %+v", payload, resp, wantResp)
	}
}

// sameRequestBits is reflect.DeepEqual with DT compared bit for bit, so
// that a NaN equals itself.
func sameRequestBits(got, want *Request) bool {
	g, w := *got, *want
	g.DT, w.DT = 0, 0
	return math.Float64bits(got.DT) == math.Float64bits(want.DT) && reflect.DeepEqual(g, w)
}

// sameResponseBits is sameResponse with each row's cells compared bit for
// bit, so that a NaN equals itself.
func sameResponseBits(got, want *Response) bool {
	g, gr := flatten(got)
	w, wr := flatten(want)
	if !reflect.DeepEqual(g, w) || len(gr) != len(wr) {
		return false
	}
	for i := range gr {
		if len(gr[i]) != len(wr[i]) {
			return false
		}
		for j, row := range gr[i] {
			other := wr[i][j]
			if row.ns != other.ns || len(row.vals) != len(other.vals) {
				return false
			}
			for c, v := range row.vals {
				o := other.vals[c]
				if v != o {
					return false
				}
			}
		}
	}
	return true
}

// mutatePayload returns a copy of a payload cut short, with a few bytes of
// its body changed, or both. The bytes changed are as often set to a
// varint's edges (0, 1, 0x7f, 0x80, 0xff) as to anything.
func mutatePayload(rng *rand.Rand, payload []byte) []byte {
	out := append([]byte(nil), payload...)
	if rng.Intn(3) == 0 && len(out) > 0 {
		out = out[:rng.Intn(len(out))]
	}
	body := bytes.IndexByte(out, '\n') + 1
	for n := rng.Intn(4); n > 0 && len(out) > body; n-- {
		i := body + rng.Intn(len(out)-body)
		switch rng.Intn(3) {
		case 0:
			out[i] = byte(rng.Intn(256))
		case 1:
			out[i] ^= 1 << rng.Intn(8)
		default:
			out[i] = []byte{0, 1, 2, 0x7f, 0x80, 0xff}[rng.Intn(6)]
		}
	}
	if rng.Intn(8) == 0 {
		out = append(out, byte(rng.Intn(256)))
	}
	return out
}

// TestDecodersMatchModel holds decodeRequest and DecodeResponse to the
// reference decoders on 2^18 payloads (a sixty-fourth of them under the
// race detector) made from the FuzzShardRPCRoundTrip seeds by cutting them
// short and changing their bytes.
func TestDecodersMatchModel(t *testing.T) {
	seeds := fuzzSeedPayloads(t)
	cases := 1 << 18
	if raceEnabled {
		cases >>= 6
	}
	rng := rand.New(rand.NewSource(49))
	accepted := 0
	for i := 0; i < cases; i++ {
		payload := mutatePayload(rng, seeds[rng.Intn(len(seeds))])
		checkDecoders(t, payload)
		_, reqErr := decodeRequestRef(payload)
		_, respErr := decodeResponseRef(payload)
		if reqErr == nil || respErr == nil {
			accepted++
		}
	}
	// Both ways must be well travelled for the agreement to mean much.
	if accepted < cases/10 || accepted > cases*9/10 {
		t.Errorf("%d of %d mutated payloads decode cleanly", accepted, cases)
	}
}
