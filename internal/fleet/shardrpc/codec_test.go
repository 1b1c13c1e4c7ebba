package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// raceEnabled is set by race_test.go in a build with the race detector.
var raceEnabled bool

// sampleRequests covers every request verb, including varint edge values.
func sampleRequests() []*Request {
	return []*Request{
		{Seq: 1, Verb: VerbAssign, ID: 0},
		{Seq: 2, Verb: VerbAssign, ID: math.MaxUint64},
		{Seq: 3, Verb: VerbDrain, ID: 42},
		{Seq: 4, Verb: VerbCordon, ID: 7},
		{Seq: 5, Verb: VerbUncordon, ID: 7},
		{Seq: 6, Verb: VerbStep, DT: 0.25},
		{Seq: 7, Verb: VerbStep, DT: -1.5},
		{Seq: 8, Verb: VerbSync, Now: time.Date(2011, 8, 15, 9, 0, 0, 0, time.UTC).UnixNano()},
		{Seq: 9, Verb: VerbSync, Now: -1},
		{Seq: 10, Verb: VerbStats},
		{Seq: 11, Verb: VerbTrace},
		{Seq: 12, Verb: VerbResync},
		{Seq: 13, Verb: VerbClose},
		{Seq: math.MaxUint64, Verb: VerbPing},
	}
}

func sampleSnapshot() *trace.Snapshot {
	s := &trace.Snapshot{Overwritten: 3}
	for i := range s.Hists {
		s.Hists[i].Count = uint64(i * 10)
		s.Hists[i].SumNS = uint64(i * 1000)
		s.Hists[i].MaxNS = int64(i * 100)
		for j := range s.Hists[i].Buckets {
			s.Hists[i].Buckets[j] = uint64(i + j)
		}
	}
	return s
}

func sampleStats() *engine.Stats {
	return &engine.Stats{
		Shard: 3, Homes: 17, Steps: 1 << 40,
		Hub: telemetry.HubStats{Sources: 68, Delivered: 123456, Lost: 7},
	}
}

func sampleBatch() *Batch {
	ts := time.Date(2011, 8, 15, 9, 0, 1, 500, time.UTC)
	return &Batch{
		Seq: 9, SentRows: 100, SentLost: 2,
		Deltas: []telemetry.Delta{
			{
				Source: telemetry.SourceID{Home: 4, Table: hwdb.TableFlows},
				Lost:   1,
				Rows: []hwdb.Row{
					hwdb.NewRow(ts,
						hwdb.Int64(-9), hwdb.Float(3.5), hwdb.Str("aa:bb"),
						hwdb.Bool(true), hwdb.Value{Type: hwdb.TTime, Int: ts.UnixNano()},
						hwdb.Value{Type: hwdb.TMAC, Int: 0x0000_02aa_bbcc_ddee},
						hwdb.Value{Type: hwdb.TIP, Int: 0x0a00_0001},
					),
					hwdb.NewRow(ts.Add(time.Second), hwdb.Int64(math.MaxInt64)),
				},
			},
			{Source: telemetry.SourceID{Home: 5, Table: hwdb.TableLeases}, Lost: 0, Rows: nil},
		},
	}
}

// oddBatch carries the rows a fixed-stride layout could get wrong.
func oddBatch() *Batch {
	ts := time.Unix(1313398801, 0)
	return &Batch{Seq: 1, SentRows: 7, Deltas: []telemetry.Delta{
		// What a Links-shaped table holds once an integer rate went into
		// its real column, beside the integer a sender predating the
		// widening would have put on the wire.
		{Source: telemetry.SourceID{Home: 1, Table: hwdb.TableLinks}, Rows: []hwdb.Row{
			hwdb.NewRow(ts, hwdb.MACVal(packet.MAC{2, 1}), hwdb.Int64(-50), hwdb.Int64(0), hwdb.Float(54)),
			hwdb.NewRow(ts, hwdb.MACVal(packet.MAC{2, 1}), hwdb.Int64(-50), hwdb.Int64(0), hwdb.Int64(54)),
		}},
		// Rows that disagree on how many columns the table has.
		{Source: telemetry.SourceID{Home: 2, Table: "T"}, Rows: []hwdb.Row{
			hwdb.NewRow(ts, hwdb.Int64(1), hwdb.Str("one")),
			hwdb.NewRow(ts, hwdb.Int64(2)),
			hwdb.NewRow(ts),
			hwdb.NewRow(ts, hwdb.Int64(4), hwdb.Str("four")),
		}},
		// A table with no name.
		{Source: telemetry.SourceID{Home: 3}, Rows: []hwdb.Row{hwdb.NewRow(ts, hwdb.Int64(5))}},
	}}
}

// sampleResponses covers every response shape, including ERR.
func sampleResponses() []*Response {
	return []*Response{
		{Seq: 1, Verb: VerbAssign},
		{Seq: 2, Err: "fleet: home 3 already live"},
		{Seq: 3, Verb: VerbDrain, OK: true, Batch: sampleBatch()},
		{Seq: 4, Verb: VerbDrain, OK: false, Batch: &Batch{}},
		{Seq: 5, Verb: VerbCordon, OK: true},
		{Seq: 6, Verb: VerbUncordon, OK: false},
		{Seq: 7, Verb: VerbStep},
		{Seq: 8, Verb: VerbSync, Batch: sampleBatch()},
		{Seq: 9, Verb: VerbSync, Batch: &Batch{Seq: 4, SentRows: 10, SentLost: 1}},
		{Seq: 10, Verb: VerbStats, Stats: sampleStats()},
		{Seq: 11, Verb: VerbTrace, Snap: sampleSnapshot()},
		{Seq: 12, Verb: VerbTrace, Snap: &trace.Snapshot{}},
		{Seq: 13, Verb: VerbResync, Committed: &Books{Seq: 3, SentRows: 55, SentLost: 2}},
		{Seq: 14, Verb: VerbClose},
		{Seq: 15, Verb: VerbPing},
		{Seq: 16, Verb: VerbSync, Batch: oddBatch()},
	}
}

// plainRow is what a row says, apart from how its block is laid out.
type plainRow struct {
	ns   int64
	vals []hwdb.Value
}

// flatten returns resp with every delta's rows taken out, and the rows as
// plain cells, so reflect.DeepEqual compares responses by content: rows
// that agree cell for cell are equal whichever blocks they view.
func flatten(resp *Response) (*Response, [][]plainRow) {
	if resp.Batch == nil {
		return resp, nil
	}
	r, b := *resp, *resp.Batch
	r.Batch, b.Deltas = &b, append([]telemetry.Delta(nil), b.Deltas...)
	var rows [][]plainRow
	for i, d := range b.Deltas {
		var plain []plainRow
		for _, row := range d.Rows {
			p := plainRow{ns: row.Time().UnixNano()}
			for c := 0; c < row.NumCols(); c++ {
				p.vals = append(p.vals, row.Value(c))
			}
			plain = append(plain, p)
		}
		rows = append(rows, plain)
		b.Deltas[i].Rows = nil
	}
	return &r, rows
}

// sameResponse is reflect.DeepEqual over flattened responses.
func sameResponse(got, want *Response) bool {
	g, gr := flatten(got)
	w, wr := flatten(want)
	return reflect.DeepEqual(g, w) && reflect.DeepEqual(gr, wr)
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := encodeRequest(req)
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", req.Verb, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", req.Verb, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("case %d (%s): decode: %v", i, resp.Verb, err)
		}
		// Decoders canonicalize: an OK response with no batch decodes to
		// the empty batch the encoder wrote for it.
		want := resp
		if (resp.Verb == VerbSync || resp.Verb == VerbDrain) && resp.Err == "" && resp.Batch == nil {
			w := *resp
			w.Batch = &Batch{}
			want = &w
		}
		if !sameResponse(got, want) {
			t.Errorf("case %d (%s): round trip mismatch:\n got %+v\nwant %+v", i, resp.Verb, got, want)
		}
	}
}

// TestDecodeTruncated feeds every strict prefix of every valid payload to
// the decoders: all must error (no field is optional and no padding is
// tolerated), none may panic or over-read.
func TestDecodeTruncated(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := encodeRequest(req)
		for i := 0; i < len(payload); i++ {
			if _, err := decodeRequest(payload[:i]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded cleanly", req.Verb, i, len(payload))
			}
		}
	}
	for _, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		for i := 0; i < len(payload); i++ {
			if _, err := DecodeResponse(payload[:i]); err == nil {
				t.Fatalf("%s/%q: truncation to %d/%d bytes decoded cleanly", resp.Verb, resp.Err, i, len(payload))
			}
		}
	}
}

// TestDecodeCorrupt flips each byte of each valid payload through a few
// values: decoders may reject or may produce a different message, but
// must never panic (the harness converts panics to failures) and must
// stay within the payload.
func TestDecodeCorrupt(t *testing.T) {
	flip := []byte{0x00, 0xff, 0x80, 0x01}
	for _, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		for i := range payload {
			for _, b := range flip {
				mut := append([]byte(nil), payload...)
				mut[i] ^= b
				DecodeResponse(mut) //nolint:errcheck // looking for panics, not errors
				decodeRequest(mut)  //nolint:errcheck
			}
		}
	}
}

// rawBody appends body fields by value, to build frames no Response
// encodes to.
type rawBody struct{ b []byte }

func (e *rawBody) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *rawBody) float(v float64)  { e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *rawBody) byte(v byte)      { e.b = append(e.b, v) }
func (e *rawBody) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// syncFrame begins a SYNC response whose batch declares the given row
// totals (rows, cells, strings, runs) and one delta of table "T", and
// stops where the delta's rows begin.
func syncFrame(totals ...uint64) *rawBody {
	e := &rawBody{b: appendHeader(nil, 1, "OK", VerbSync)}
	e.uvarint(1) // batch seq
	e.uvarint(2) // sent rows
	e.uvarint(0) // sent lost
	e.uvarint(1) // one delta
	for _, v := range totals {
		e.uvarint(v)
	}
	e.uvarint(1) // home
	e.str("T")
	e.uvarint(0) // lost
	return e
}

// intRun appends a delta's rows as one run of rows of one integer column,
// with the given number of cells behind it (two a row, when the run is
// whole).
func intRun(e *rawBody, rows, cells int) {
	e.uvarint(1) // one run
	e.uvarint(1) // one column
	e.byte(byte(hwdb.TInt))
	e.uvarint(uint64(rows))
	for i := range cells {
		e.b = binary.LittleEndian.AppendUint64(e.b, uint64(i))
	}
}

// hostileFrame is a frame a decoder must reject, and must reject without
// allocating what it declares; why is what DecodeResponse's error says.
type hostileFrame struct {
	name    string
	payload []byte
	why     string
}

// hostileFrames are the HWSH/2 frames TestDecodeRejects pins and
// FuzzShardRPCRoundTrip starts from.
func hostileFrames() []hostileFrame {
	frame := func(build func(e *rawBody), totals ...uint64) []byte {
		e := syncFrame(totals...)
		build(e)
		return e.b
	}
	return []hostileFrame{
		{"empty", nil, "no header line"},
		{"no newline", []byte("HWSH/2 1 PING"), "no header line"},
		{"bad magic", []byte("HWDB/1 1 PING\n"), "bad header"},
		{"old protocol", []byte("HWSH/1 1 PING\n"), "bad header"},
		{"bad status", []byte("HWSH/2 1 EXPLODE\n"), "bad response status"},
		{"bad verb", []byte("HWSH/2 1 OK EXPLODE\n"), "unknown verb"},
		{"bad seq", []byte("HWSH/2 x PING\n"), "bad header"},
		{"seq overflow", []byte("HWSH/2 18446744073709551616 PING\n"), "bad header"},
		{"trailing bytes", append([]byte("HWSH/2 1 OK PING\n"), 0x01), "trailing bytes"},
		// SYNC response declaring 2^60 deltas in a tiny frame: the count
		// guard must reject it without allocating.
		{"giant delta count", append([]byte("HWSH/2 1 OK SYNC\n"), []byte{
			0, 0, 0, // seq, rows, lost
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, // count
		}...), "exceeds remaining"},
		// String length far past the frame end.
		{"giant table name", append([]byte("HWSH/2 1 OK SYNC\n"), []byte{
			0, 0, 0, 1, // one delta
			0, 0, 0, 0, // no rows
			1,          // home
			0xe8, 0x07, // table name length 1000
		}...), "string of 1000 bytes"},
		{"cell totals past the frame", frame(func(e *rawBody) { intRun(e, 1, 2) }, 1, 1000, 0, 1), "batch totals"},
		{"string totals past the frame", frame(func(e *rawBody) { intRun(e, 1, 2) }, 1, 2, 1000, 1), "batch totals"},
		{"more rows than cells", frame(func(e *rawBody) { intRun(e, 1, 2) }, 3, 2, 0, 1), "batch totals"},
		{"shape disagrees with its row count", frame(func(e *rawBody) { intRun(e, 2, 3) }, 2, 4, 0, 1), "2 rows of 2 cells"},
		{"deltas short of the totals", frame(func(e *rawBody) { intRun(e, 1, 2) }, 2, 3, 0, 1), "exceed its deltas' rows"},
		{"deltas past the totals", frame(func(e *rawBody) { intRun(e, 2, 4) }, 1, 2, 0, 1), "past the builder's reservation"},
		{"unknown column type", frame(func(e *rawBody) {
			e.uvarint(1) // one run
			e.uvarint(1) // one column
			e.byte(99)   // bogus ColType
			e.uvarint(1) // one row
			e.float(0)   // ts
			e.float(5)   // value
		}, 1, 2, 0, 1), "bad column type 99"},
		{"two runs of one shape", frame(func(e *rawBody) {
			e.uvarint(2)
			for range 2 {
				e.uvarint(1)
				e.byte(byte(hwdb.TInt))
				e.uvarint(1)
				e.float(0)
				e.float(0)
			}
		}, 2, 4, 0, 2), "two consecutive runs"},
		{"empty run", frame(func(e *rawBody) { intRun(e, 0, 2) }, 1, 2, 0, 1), "0 rows of"},
	}
}

// TestDecodeRejects pins deliberately hostile frames, each rejected for
// its own reason: giant declared lengths and totals must fail before
// allocating; bad tags, totals the deltas disagree with and dimension
// mismatches must be errors.
func TestDecodeRejects(t *testing.T) {
	for _, tc := range hostileFrames() {
		if _, err := DecodeResponse(tc.payload); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: DecodeResponse says %v, want an error saying %q", tc.name, err, tc.why)
		}
		if _, err := decodeRequest(tc.payload); err == nil {
			t.Errorf("%s: decodeRequest accepted", tc.name)
		}
	}

	// A trace snapshot with the wrong histogram count.
	e := &rawBody{b: appendHeader(nil, 1, "OK", VerbTrace)}
	e.uvarint(2) // wrong: engine snapshots always carry numTransitions
	if _, err := DecodeResponse(e.b); err == nil {
		t.Error("wrong histogram count accepted")
	}
}

// TestFrameIO pins the framing layer: length prefix honored, MaxFrame
// enforced on both sides, short reads surface as errors, and a connection's
// buffers are reused frame to frame.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payload := encodeRequest(&Request{Seq: 5, Verb: VerbPing})
	out := appendRequest(beginFrame(nil), &Request{Seq: 5, Verb: VerbPing})
	if err := writeFrame(&buf, out); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip mismatch: %q != %q", got, payload)
	}

	// A second, longer frame on the same buffers: the outgoing one is
	// re-begun and the incoming one regrown, each in place.
	resp := sampleResponses()[2] // a DRAIN with a batch
	out = appendResponse(beginFrame(out), resp)
	buf.Reset()
	if err := writeFrame(&buf, out); err != nil {
		t.Fatal(err)
	}
	if got, err = readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, EncodeResponse(resp)) {
		t.Fatalf("second frame mismatch: %q != %q", got, EncodeResponse(resp))
	}
	r := bufio.NewReader(bytes.NewReader(bytes.Repeat(buf.Bytes(), 3)))
	if n := testing.AllocsPerRun(2, func() {
		if got, err = readFrame(r, got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading into a buffer that has room allocates %g times", n)
	}

	// Declared length beyond MaxFrame must be rejected before reading.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge)), nil); err == nil {
		t.Error("oversized frame declaration accepted")
	}
	// Truncated frames error at every cut point.
	whole := buf.Bytes()
	for i := 0; i < len(whole); i++ {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(whole[:i])), nil); err == nil {
			t.Errorf("truncated frame (%d/%d bytes) read cleanly", i, len(whole))
		}
	}
	if err := writeFrame(&buf, make([]byte, 4+MaxFrame+1)); err == nil {
		t.Error("oversized frame write accepted")
	}
}

// TestErrMessageClamped pins that a pathological error message cannot
// break the header line discipline.
func TestErrMessageClamped(t *testing.T) {
	long := ""
	for i := 0; i < 100; i++ {
		long += "error with\nnewlines and length "
	}
	payload := EncodeResponse(&Response{Seq: 1, Err: long})
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("clamped ERR did not decode: %v", err)
	}
	if got.Err == "" || len(got.Err) > maxErrLen {
		t.Errorf("clamped ERR message len %d", len(got.Err))
	}
}

// tableResponse is a SYNC response carrying what two of a home's tables
// hand a hub: rows out of Flows and Leases rings, the second with string
// columns, one of them empty.
func tableResponse(t testing.TB) *Response {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 8)
	for i := 0; i < 3; i++ {
		clk.Advance(250 * time.Millisecond)
		mac := packet.MAC{2, 0xaa, 0xbb, 0xcc, 0xdd, byte(0xe0 + i)}
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(10 + i)}, Dst: packet.IP4{93, 184, 216, 34},
			Proto: packet.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: 443}
		if err := db.InsertFlow(mac, ft, uint64(10+i), uint64(15000*(i+1))); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := db.InsertLease([]string{"add", "upd"}[i], mac, ft.Src, []string{"laptop", ""}[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	flows, _ := db.Table(hwdb.TableFlows)
	leases, _ := db.Table(hwdb.TableLeases)
	return &Response{Seq: 21, Verb: VerbSync, Batch: &Batch{Seq: 5, SentRows: 5, SentLost: 1, Deltas: []telemetry.Delta{
		{Source: telemetry.SourceID{Home: 3, Table: hwdb.TableFlows}, Lost: 1, Rows: flows.Snapshot()},
		{Source: telemetry.SourceID{Home: 3, Table: hwdb.TableLeases}, Rows: leases.Snapshot()},
	}}}
}

// tableResponseHex is EncodeResponse(tableResponse()) in HWSH/2: each
// delta's shape once, then its rows' cells as the ring holds them. It
// replaces the HWSH/1 bytes, which tagged every cell and varint-coded it,
// deliberately: the protocol changed, and this pins the change.
const tableResponseHex = "485753482f32203231204f4b2053594e430a05050102052504020305466c6f77730101080506060101010101038052530940213a12e0ddccbbaa0200000a01a8c00000000022d8b85d000000000600000000000000409c000000000000bb010000000000000a00000000000000983a00000000000000053a1840213a12e1ddccbbaa0200000b01a8c00000000022d8b85d000000000600000000000000419c000000000000bb010000000000000b00000000000000307500000000000080b7202740213a12e2ddccbbaa0200000c01a8c00000000022d8b85d000000000600000000000000429c000000000000bb010000000000000c00000000000000c8af00000000000003064c656173657300010403050603028052530940213a120000000000000000e0ddccbbaa0200000a01a8c000000000000000000000000000053a1840213a120000000000000000e1ddccbbaa0200000b01a8c000000000000000000000000003616464066c6170746f700375706400"

// TestDeltaWireBytesHWSH2: table rows encode to the pinned HWSH/2 bytes,
// and those bytes decode to rows that say the same.
func TestDeltaWireBytesHWSH2(t *testing.T) {
	resp := tableResponse(t)
	got := EncodeResponse(resp)
	if hex.EncodeToString(got) != tableResponseHex {
		t.Fatalf("encoding changed:\n got %x\nwant %s", got, tableResponseHex)
	}
	golden, _ := hex.DecodeString(tableResponseHex)
	dec, err := DecodeResponse(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResponse(dec, resp) {
		t.Errorf("decoded rows differ:\n got %+v\nwant %+v", dec.Batch, resp.Batch)
	}
	if hostname := dec.Batch.Deltas[1].Rows[0].Str(3); hostname != "laptop" {
		t.Errorf("decoded lease hostname %q, want laptop", hostname)
	}
}

// watchedResponse is a SYNC response carrying a delta of each of the four
// tables a hub watches, rows as their rings hold them: Flows and FlowPerf
// integers, Links reals (an integer rate among them, widened by the
// insert), Leases strings, one of them empty.
func watchedResponse(t testing.TB) *Response {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 64)
	for i := 0; i < 5; i++ {
		clk.Advance(250 * time.Millisecond)
		mac := packet.MAC{2, 0, 0, 0, 0, byte(i)}
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(10 + i)}, Dst: packet.IP4{93, 184, 216, 34},
			Proto: packet.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: 443}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(db.InsertFlow(mac, ft, uint64(i), uint64(1500*i)))
		must(db.InsertFlowPerf(mac, ft, 10, 15000, 9, 13500, 1, 1e6/float64(i+1), int64(100*i)))
		must(db.InsertLink(mac, -40-i, i, []float64{54, 1.5, -0.25, math.MaxFloat64, 0}[i]))
		must(db.Insert(hwdb.TableLinks, hwdb.MACVal(mac), hwdb.Int64(-70), hwdb.Int64(0), hwdb.Int64(int64(i))))
		must(db.InsertLease([]string{"add", "upd", "del", "add", "upd"}[i], mac, ft.Src, []string{"laptop", "", "tv\x00", "ünïcode", "phone"}[i]))
	}
	b := &Batch{Seq: 2, SentRows: 25}
	for _, name := range []string{hwdb.TableFlows, hwdb.TableFlowPerf, hwdb.TableLinks, hwdb.TableLeases} {
		tbl, _ := db.Table(name)
		b.Deltas = append(b.Deltas, telemetry.Delta{Source: telemetry.SourceID{Home: 6, Table: name}, Rows: tbl.Snapshot()})
	}
	return &Response{Seq: 22, Verb: VerbSync, Batch: b}
}

// TestWatchedTablesRoundTrip: a delta of each watched table decodes to the
// rows it was encoded from, cell for cell and string for string, into one
// shape per table.
func TestWatchedTablesRoundTrip(t *testing.T) {
	resp := watchedResponse(t)
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResponse(got, resp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Batch, resp.Batch)
	}
	for i, d := range got.Batch.Deltas {
		want := resp.Batch.Deltas[i].Rows
		if len(d.Rows) != len(want) || len(d.Rows) == 0 {
			t.Fatalf("%s: %d rows, want %d", d.Source.Table, len(d.Rows), len(want))
		}
		if d.Source.Table != resp.Batch.Deltas[i].Source.Table {
			t.Fatalf("delta %d is of %s, want %s", i, d.Source.Table, resp.Batch.Deltas[i].Source.Table)
		}
		for r := range d.Rows {
			for c := 0; c < want[r].NumCols(); c++ {
				g, w := d.Rows[r].Value(c), want[r].Value(c)
				if g.Type != w.Type || g.Int != w.Int || math.Float64bits(g.Real) != math.Float64bits(w.Real) || g.Str != w.Str {
					t.Fatalf("%s row %d column %d: got %+v, want %+v", d.Source.Table, r, c, g, w)
				}
			}
		}
	}
}

// flowsResponse is a SYNC response of n Flows deltas of 250 rows each.
func flowsResponse(t testing.TB, n int) *Response {
	db := hwdb.NewHomework(clock.NewSimulated(), 250*n)
	for i := 0; i < 250*n; i++ {
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, 10}, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: uint16(i), DstPort: 443}
		if err := db.InsertFlow(packet.MAC{2, 0, 0, 0, 0, 1}, ft, uint64(i), 1500*uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	flows, _ := db.Table(hwdb.TableFlows)
	rows := flows.Snapshot()
	resp := &Response{Seq: 1, Verb: VerbSync, Batch: &Batch{Seq: 1, SentRows: uint64(len(rows))}}
	for i := 0; i < n; i++ {
		resp.Batch.Deltas = append(resp.Batch.Deltas, telemetry.Delta{
			Source: telemetry.SourceID{Home: uint64(i), Table: hwdb.TableFlows}, Rows: rows[i*250 : (i+1)*250]})
	}
	return resp
}

// TestDecodeAllocatesPerBatch: a batch decodes into one row builder, so
// it costs the same few allocations however many deltas it carries — 4
// or 32 deltas of 250 Flows rows alike. The HWSH/1 decoder paid six more
// for every delta.
func TestDecodeAllocatesPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("a builder's arrays allocate twice under the race detector")
	}
	const want = 6 // response, batch, deltas; the builder's cells, row views and run headers
	var got []float64
	for _, n := range []int{4, 32} {
		resp := flowsResponse(t, n)
		payload := EncodeResponse(resp)
		if dec, err := DecodeResponse(payload); err != nil || !sameResponse(dec, resp) {
			t.Fatalf("%d deltas: round trip: %v", n, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeResponse(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Errorf("decoding %d deltas of 250 rows allocates %.0f times, want at most %d", n, allocs, want)
		}
		got = append(got, allocs)
	}
	if got[0] != got[1] {
		t.Errorf("decoding 4 deltas allocates %.0f times, 32 deltas %.0f: the cost grows with the deltas", got[0], got[1])
	}
}

// fuzzSeedPayloads are FuzzShardRPCRoundTrip's seeds: every sample
// request and response, rows of string columns out of a ring and of each
// watched table, an ERR, a byte that is no header, and the hostile frames.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, req := range sampleRequests() {
		seeds = append(seeds, encodeRequest(req))
	}
	for _, resp := range sampleResponses() {
		seeds = append(seeds, EncodeResponse(resp))
	}
	seeds = append(seeds,
		EncodeResponse(tableResponse(tb)), // string columns, out of a ring
		[]byte("HWSH/2 1 ERR boom\n"),
		[]byte{0x00},
	)
	for _, tc := range hostileFrames() {
		seeds = append(seeds, tc.payload)
	}
	return append(seeds, EncodeResponse(watchedResponse(tb)))
}

// FuzzShardRPCRoundTrip: the decoders agree with the reference decoders in
// codec_model_test.go on any payload, and what they accept re-encodes
// canonically. Seeds: fuzzSeedPayloads.
func FuzzShardRPCRoundTrip(f *testing.F) {
	for _, payload := range fuzzSeedPayloads(f) {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data)
		// Decoders must never panic or over-read; when they accept a
		// payload, re-encoding must be canonical: encode(decode(data))
		// decodes to the same value and re-encodes to the same bytes.
		if req, err := decodeRequest(data); err == nil {
			enc1 := encodeRequest(req)
			req2, err := decodeRequest(enc1)
			if err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v\nreq=%+v", err, req)
			}
			if enc2 := encodeRequest(req2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("request encoding not canonical:\n%q\n%q", enc1, enc2)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			enc1 := EncodeResponse(resp)
			resp2, err := DecodeResponse(enc1)
			if err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v\nresp=%+v", err, resp)
			}
			if enc2 := EncodeResponse(resp2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("response encoding not canonical:\n%q\n%q", enc1, enc2)
			}
		}
	})
}
