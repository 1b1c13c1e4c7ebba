package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

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
		Totals: telemetry.Totals{
			Homes: 17, Hosts: 51, Flows: 900, Links: 80, Leases: 60,
			Packets: 1 << 33, Bytes: 1 << 44, Lost: 7, Rows: 1040, Commits: 12,
			PerfRows: 500, TxPkts: 9000, LostPkts: 3, Installs: 88, InstallUSSum: 123,
		},
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
	return &Batch{Seq: 1, SentRows: 6, Deltas: []telemetry.Delta{
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
		payload := EncodeRequest(req)
		got, err := DecodeRequest(payload)
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
		payload := EncodeRequest(req)
		for i := 0; i < len(payload); i++ {
			if _, err := DecodeRequest(payload[:i]); err == nil {
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
				DecodeRequest(mut)  //nolint:errcheck
			}
		}
	}
}

// TestDecodeRejects pins a few deliberately hostile frames: giant
// declared lengths must fail before allocating, bad tags and dimension
// mismatches must be errors.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"no newline", []byte("HWSH/1 1 PING")},
		{"bad magic", []byte("HWDB/1 1 PING\n")},
		{"bad verb", []byte("HWSH/1 1 EXPLODE\n")},
		{"bad seq", []byte("HWSH/1 x PING\n")},
		{"trailing bytes", append([]byte("HWSH/1 1 PING\n"), 0x01)},
		// SYNC response declaring 2^60 deltas in a tiny frame: the count
		// guard must reject it without allocating.
		{"giant delta count", append([]byte("HWSH/1 1 OK SYNC\n"), []byte{
			0, 0, 0, // seq, rows, lost
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, // count
		}...)},
		// String length far past the frame end.
		{"giant string", append([]byte("HWSH/1 1 OK SYNC\n"), []byte{
			0, 0, 0, 1, // one delta
			1,          // home
			0xe8, 0x07, // table name length 1000
		}...)},
	}
	for _, tc := range cases {
		if _, err := DecodeResponse(tc.payload); err == nil {
			t.Errorf("%s: DecodeResponse accepted", tc.name)
		}
		if _, err := DecodeRequest(tc.payload); err == nil {
			t.Errorf("%s: DecodeRequest accepted", tc.name)
		}
	}

	// A column value with an unknown type tag.
	e := &enc{b: appendHeader(nil, 1, "OK", VerbSync)}
	e.uvarint(1) // batch seq
	e.uvarint(1) // sent rows
	e.uvarint(0) // sent lost
	e.uvarint(1) // one delta
	e.uvarint(1) // home
	e.str("Flows")
	e.uvarint(0) // lost
	e.uvarint(1) // one row
	e.varint(0)  // ts
	e.uvarint(1) // one val
	e.byte(99)   // bogus ColType
	e.varint(5)
	if _, err := DecodeResponse(e.b); err == nil {
		t.Error("bogus column type tag accepted")
	}

	// A trace snapshot with the wrong histogram count.
	e = &enc{b: appendHeader(nil, 1, "OK", VerbTrace)}
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
	payload := EncodeRequest(&Request{Seq: 5, Verb: VerbPing})
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

// tableResponseHex is EncodeResponse(tableResponse()) as the codec wrote it
// when a row was a time.Time and a []Value (commit 7ad2a34): the row
// layout is no business of the wire.
const tableResponseHex = "485753482f31203231204f4b2053594e430a050501020305466c6f7773010380ca9a9581d090ba240805c0f7e6bcd7aa01069484c08a1806c4e0c6db0b010c0180f10401f606011401b0ea018094d08383d090ba240805c2f7e6bcd7aa01069684c08a1806c4e0c6db0b010c0182f10401f606011601e0d40380de85f284d090ba240805c4f7e6bcd7aa01069884c08a1806c4e0c6db0b010c0184f10401f60601180190bf0503064c6561736573000280ca9a9581d090ba2404030361646405c0f7e6bcd7aa01069484c08a1803066c6170746f708094d08383d090ba2404030375706405c2f7e6bcd7aa01069684c08a180300"

// TestDeltaWireBytesUnchanged: table rows encode to the bytes they always
// did, and those bytes decode to rows that say the same.
func TestDeltaWireBytesUnchanged(t *testing.T) {
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

// TestDecodeAllocatesPerDelta: a response of four 250-row Flows deltas
// decodes in a handful of allocations per delta — the rows of a delta
// land in one block — where it used to make one per row.
func TestDecodeAllocatesPerDelta(t *testing.T) {
	db := hwdb.NewHomework(clock.NewSimulated(), 1024)
	for i := 0; i < 1000; i++ {
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, 10}, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: uint16(i), DstPort: 443}
		if err := db.InsertFlow(packet.MAC{2, 0, 0, 0, 0, 1}, ft, uint64(i), 1500*uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	flows, _ := db.Table(hwdb.TableFlows)
	rows := flows.Snapshot()
	resp := &Response{Seq: 1, Verb: VerbSync, Batch: &Batch{Seq: 1, SentRows: 1000}}
	for i := 0; i < 4; i++ {
		resp.Batch.Deltas = append(resp.Batch.Deltas, telemetry.Delta{
			Source: telemetry.SourceID{Home: uint64(i), Table: hwdb.TableFlows}, Rows: rows[i*250 : (i+1)*250]})
	}
	payload := EncodeResponse(resp)
	got, err := DecodeResponse(payload)
	if err != nil || !sameResponse(got, resp) {
		t.Fatalf("round trip: %v", err)
	}
	const perDelta, fixed = 8, 8 // table name, shape, block, cells, row views; response, batch, deltas, scratch
	if n := testing.AllocsPerRun(50, func() {
		if _, err := DecodeResponse(payload); err != nil {
			t.Fatal(err)
		}
	}); n > 4*perDelta+fixed {
		t.Errorf("decoding 4 deltas of 250 rows allocates %.0f times, want at most %d", n, 4*perDelta+fixed)
	}
}

func FuzzShardRPCRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(EncodeRequest(req))
	}
	for _, resp := range sampleResponses() {
		f.Add(EncodeResponse(resp))
	}
	f.Add(EncodeResponse(tableResponse(f))) // string columns, out of a ring
	f.Add([]byte("HWSH/1 1 ERR boom\n"))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoders must never panic or over-read; when they accept a
		// payload, re-encoding must be canonical: encode(decode(data))
		// decodes to the same value and re-encodes to the same bytes.
		if req, err := DecodeRequest(data); err == nil {
			enc1 := EncodeRequest(req)
			req2, err := DecodeRequest(enc1)
			if err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v\nreq=%+v", err, req)
			}
			if enc2 := EncodeRequest(req2); !bytes.Equal(enc1, enc2) {
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
