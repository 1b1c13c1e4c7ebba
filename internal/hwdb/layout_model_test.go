package hwdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// modelBlock is the layout the rings kept before rows were packed, kept as
// the reference the packed layout is held to: stride eight-byte cells per
// row — cell 0 the insert time in Unix nanoseconds, cell 1+c column c in
// the encoding its type fixes (the Int of an integer, bool, MAC, IP or
// timestamp value; math.Float64bits of a real; unused for a string) — and
// nstr strings per row beside them.
type modelBlock struct {
	types []ColType
	cells []uint64
	strs  []string
}

func (m *modelBlock) stride() int { return 1 + len(m.types) }

func (m *modelBlock) nstr() int {
	n := 0
	for _, t := range m.types {
		if t == TString {
			n++
		}
	}
	return n
}

func (m *modelBlock) rows() int { return len(m.cells) / m.stride() }

// put appends one tuple as a row.
func (m *modelBlock) put(ts time.Time, vals []Value) {
	m.cells = append(m.cells, uint64(ts.UnixNano()))
	for c, v := range vals {
		switch m.types[c] {
		case TString:
			m.cells = append(m.cells, 0)
			m.strs = append(m.strs, v.Str)
		case TReal:
			m.cells = append(m.cells, math.Float64bits(v.AsFloat()))
		default:
			m.cells = append(m.cells, uint64(v.Int))
		}
	}
}

// dropOldest forgets the first row, as a full ring does on an insert.
func (m *modelBlock) dropOldest() {
	m.cells, m.strs = m.cells[m.stride():], m.strs[m.nstr():]
}

func (m *modelBlock) cell(i, c int) uint64 { return m.cells[i*m.stride()+1+c] }

func (m *modelBlock) time(i int) time.Time { return time.Unix(0, int64(m.cells[i*m.stride()])) }

func (m *modelBlock) str(i, c int) string {
	if m.types[c] != TString {
		return ""
	}
	k := 0
	for _, t := range m.types[:c] {
		if t == TString {
			k++
		}
	}
	return m.strs[i*m.nstr()+k]
}

func (m *modelBlock) real(i, c int) float64 {
	if m.types[c] == TReal {
		return math.Float64frombits(m.cell(i, c))
	}
	return float64(int64(m.cell(i, c)))
}

func (m *modelBlock) value(i, c int) Value {
	switch t := m.types[c]; t {
	case TString:
		return Value{Type: TString, Str: m.str(i, c)}
	case TReal:
		return Float(m.real(i, c))
	default:
		return Value{Type: t, Int: int64(m.cell(i, c))}
	}
}

// appendRows is AppendRows over the model's rows, as one run: the cells go
// on the wire as the model holds them.
func (m *modelBlock) appendRows(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(m.types)))
	for _, t := range m.types {
		dst = append(dst, byte(t))
	}
	dst = binary.AppendUvarint(dst, uint64(m.rows()))
	for _, c := range m.cells {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	for _, s := range m.strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// sameAsModel fails unless rows read as the model's rows, column by column
// and through every accessor.
func sameAsModel(t *testing.T, what string, rows []Row, m *modelBlock) {
	t.Helper()
	if len(rows) != m.rows() {
		t.Fatalf("%s: %d rows, model %d", what, len(rows), m.rows())
	}
	for i, r := range rows {
		if r.Time() != m.time(i) || r.NumCols() != len(m.types) {
			t.Fatalf("%s row %d: time %v, %d columns; model %v, %d", what, i, r.Time(), r.NumCols(), m.time(i), len(m.types))
		}
		for c := range m.types {
			if got, want := r.Int(c), int64(m.cell(i, c)); got != want {
				t.Fatalf("%s row %d col %d (%s): Int %d, model %d", what, i, c, m.types[c], got, want)
			}
			if got, want := r.Real(c), m.real(i, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s row %d col %d (%s): Real %v, model %v", what, i, c, m.types[c], got, want)
			}
			if got, want := r.Str(c), m.str(i, c); got != want {
				t.Fatalf("%s row %d col %d: Str %q, model %q", what, i, c, got, want)
			}
			if got, want := r.Value(c), m.value(i, c); got != want {
				t.Fatalf("%s row %d col %d: Value %+v, model %+v", what, i, c, got, want)
			}
		}
	}
}

// layoutInput draws a fuzz case from bytes, reading zeros past their end.
type layoutInput struct {
	data []byte
	off  int
}

func (in *layoutInput) byte() byte {
	if in.off >= len(in.data) {
		return 0
	}
	in.off++
	return in.data[in.off-1]
}

func (in *layoutInput) word() uint64 {
	var x uint64
	for k := range 8 {
		x |= uint64(in.byte()) << (8 * k)
	}
	return x
}

// FuzzRowLayout holds the packed layout to the model: a table of a drawn
// shape — every column type, integer columns narrowed to 1 to 7 bytes —
// refuses each drawn row holding a value wider than its cell and keeps the
// rest, wrapping its small ring, whose rows read as the model's rows
// through every accessor, go on
// the wire as the model's bytes, and read back off the wire as the same
// rows. A wire cell with a byte set past its column's width is refused.
func FuzzRowLayout(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 5, 0, 6, 0, 6, 0, 1, 1, 1, 2, 1, 2, 1, 0, 1, 0})                         // a Flows-like shape
	f.Add([]byte{4, 3, 0, 5, 0, 6, 0, 3, 0, 3, 1, 7, 2, 3, 'a', 'b', 'c', 0xff, 0xff, 0xff}) // Leases-like, strings
	f.Add([]byte{3, 4, 0, 1, 3, 2, 0, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80})
	// A two-byte port as a row's last cell, on a ring of two that wraps: a
	// write past its width lands on the time of the live row after it.
	port := []byte{0, 0, 2, 1, 4}
	for i := range byte(5) {
		port = append(port, 0x34+i, 0x12, 0, 0, 0, 0, 0, 0, 1, 1+i, 0, 0, 0, 0, 0, 0, 0)
	}
	f.Add(port)
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		b := make([]byte, 64+rng.Intn(192))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &layoutInput{data: data}
		ncols := 1 + int(in.byte()%8)
		cols, narrow := make([]Column, ncols), make([]int, ncols)
		types := make([]ColType, ncols)
		for c := range cols {
			types[c] = TInt + ColType(in.byte()%7)
			cols[c] = Column{Name: string(rune('a' + c)), Type: types[c]}
			if w := in.byte() % 8; types[c] == TInt {
				narrow[c] = int(w)
			}
		}
		schema := newSchema(cols, narrow)
		width := func(c int) int {
			if narrow[c] > 0 {
				return narrow[c]
			}
			return cellWidths[types[c]]
		}
		capacity := 1 + int(in.byte()%8) // small enough to wrap: a row is written beside live ones
		tbl := NewTable("T", schema, capacity)
		m := &modelBlock{types: types}
		nrows := 1 + int(in.byte()%12)
		for i := range nrows {
			vals, fits := make([]Value, ncols), true
			for c := range vals {
				x := in.word()
				if w := width(c); w < 8 && in.byte()%4 != 0 { // mostly in range
					x &= 1<<(8*w) - 1
				}
				switch types[c] {
				case TString:
					vals[c] = Str(string(data[:min(len(data), int(x%8))]))
				case TReal:
					vals[c] = Float(math.Float64frombits(x))
					if x%3 == 0 { // an integer widened into the real column
						vals[c] = Int64(int64(x))
					}
				default:
					vals[c] = Value{Type: types[c], Int: int64(x)}
					fits = fits && (width(c) == 8 || x>>(8*width(c)) == 0)
				}
			}
			ts := time.Unix(0, int64(in.word()))
			err := tbl.Insert(ts, vals)
			if (err == nil) != fits {
				t.Fatalf("row %d %v: Insert says %v, want fits=%v", i, vals, err, fits)
			}
			if fits {
				if m.put(ts, vals); m.rows() > capacity {
					m.dropOldest()
				}
			}
		}
		rows := tbl.Snapshot()
		sameAsModel(t, "ring", rows, m)
		if len(rows) == 0 {
			return
		}
		enc := AppendRows(nil, rows)
		if want := m.appendRows(nil); !bytes.Equal(enc, want) {
			t.Fatalf("AppendRows wrote\n%x\nthe model\n%x", enc, want)
		}
		var b RowBuilder
		b.Reserve(RoomFor(rows))
		back, n, err := b.ReadRows(enc)
		if err != nil || n != len(enc) || b.Left() != (Room{}) {
			t.Fatalf("ReadRows: %v after %d of %d bytes, %+v left", err, n, len(enc), b.Left())
		}
		sameAsModel(t, "wire", back, m)
		if again := AppendRows(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("rows read off the wire re-encode as\n%x\nnot\n%x", again, enc)
		}
		// A byte past a wire cell's width: the cell's type fixes the width
		// on the wire, whatever a table narrowed.
		head := len(enc) - len(m.cells)*8
		for _, s := range m.strs {
			head -= len(s) + len(binary.AppendUvarint(nil, uint64(len(s))))
		}
		for c, typ := range types {
			if w := cellWidths[typ]; w < 8 {
				bad := bytes.Clone(enc)
				bad[head+(1+c)*8+w] = 1
				var b RowBuilder
				b.Reserve(RoomFor(rows))
				if _, _, err := b.ReadRows(bad); err == nil {
					t.Fatalf("ReadRows took byte %d of a %d-byte %s cell", w, w, typ)
				}
			}
		}
	})
}

// TestCopyAndAppendMixLayouts: a Flows table's rows, with their narrowed
// protocol and ports, and the same rows read off the wire, where each is a
// word, are one shape and two layouts. One AppendRows of them mixed writes
// one run, byte for byte the table rows' encoding twice over, while one
// Copy keeps a run per layout, exactly within what it reserved, and the
// copies read as the rows did.
func TestCopyAndAppendMixLayouts(t *testing.T) {
	db := NewHomework(clock.NewSimulated(), 8)
	for i := range 4 {
		ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(i)}, Dst: packet.IP4{93, 184, 216, 34},
			Proto: packet.ProtoTCP, SrcPort: 40000 + uint16(i), DstPort: 443}
		if err := db.InsertFlow(packet.MAC{2, 0, 0, 0, 0, byte(i)}, ft, uint64(i), 1500*uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	flows, _ := db.Table(TableFlows)
	table := flows.Snapshot()
	var wire RowBuilder
	wire.Reserve(RoomFor(table))
	read, _, err := wire.ReadRows(AppendRows(nil, table))
	if err != nil {
		t.Fatal(err)
	}
	if sameLayout(table[0].b.shape, read[0].b.shape) || !sameShape(table[0].b.shape, read[0].b.shape) {
		t.Fatal("a Flows table's rows and the same rows off the wire should share a shape and not a layout")
	}
	mixed := append(append(append([]Row(nil), table[:2]...), read...), table[2:]...)
	want := AppendRows(nil, append(append(append([]Row(nil), table[:2]...), table...), table[2:]...))
	if got := AppendRows(nil, mixed); !bytes.Equal(got, want) {
		t.Fatalf("mixed layouts encode as\n%x\nnot as the table's rows\n%x", got, want)
	}
	if room := RoomFor(mixed); room.Runs != 1 {
		t.Fatalf("RoomFor counts %d runs on the wire, want 1", room.Runs)
	}
	var kept RowBuilder
	copies := kept.Copy(mixed)
	if kept.Left() != (Room{}) || kept.bytes != 0 {
		t.Fatalf("Copy left %+v and %d bytes of its reservation", kept.Left(), kept.bytes)
	}
	runs := map[*rowBlock]bool{}
	for i, r := range copies {
		runs[r.b] = true
		if got, want := rowText(r), rowText(mixed[i]); got != want {
			t.Fatalf("copy %d reads %s, want %s", i, got, want)
		}
		if !sameLayout(r.b.shape, mixed[i].b.shape) {
			t.Fatalf("copy %d changed layout", i)
		}
	}
	if len(runs) != 3 {
		t.Fatalf("Copy made %d runs of table, wire and table rows, want 3", len(runs))
	}
	if got := AppendRows(nil, copies); !bytes.Equal(got, want) {
		t.Fatal("the copies encode differently from the rows they copy")
	}
}
