// Package hwdb implements the Homework Database: an active ephemeral stream
// database that stores events into fixed-capacity in-memory ring buffers, links
// them into tables, and supports queries via a CQL variant able to express
// temporal and relational operations. Applications subscribe to query
// results over a simple UDP-based RPC (see rpc.go) and persist output as
// they see fit — the database itself deliberately forgets.
//
// The standard Homework tables are Flows (periodically observed active
// five-tuples), Links (link-layer information such as MAC address, RSSI and
// retry counts) and Leases (Ethernet-to-IP address mappings).
//
// Concurrency: tables synchronize internally with read-write locks, so
// inserts, cursor reads (Tail) and queries may run concurrently from any
// goroutine; OnInsert and Notify hooks fire synchronously on the inserting
// goroutine, outside the table's lock, and must not block. A select over a
// live table is evaluated under that table's read lock. Every Row a table
// hands out views a copy made under the lock, so rows are immutable and
// safe to retain. The HWDB/1 server (rpc.go) answers requests on one
// socket goroutine from a verb table, whose handlers therefore run one at
// a time, and pushes each subscription from a goroutine of its own; Close
// returns only once all of them have exited.
package hwdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/packet"
)

// ColType is the type of a column.
type ColType uint8

// Column types supported by the CQL variant.
const (
	TInt ColType = iota + 1
	TReal
	TString
	TBool
	TMAC
	TIP
	TTime // nanoseconds since Unix epoch
)

// String names the type as written in CREATE TABLE.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "integer"
	case TReal:
		return "real"
	case TString:
		return "varchar"
	case TBool:
		return "boolean"
	case TMAC:
		return "mac"
	case TIP:
		return "ip"
	case TTime:
		return "timestamp"
	}
	return "?"
}

// parseColType parses a type name.
func parseColType(s string) (ColType, error) {
	switch strings.ToLower(s) {
	case "integer", "int":
		return TInt, nil
	case "real", "double", "float":
		return TReal, nil
	case "varchar", "string", "text":
		return TString, nil
	case "boolean", "bool":
		return TBool, nil
	case "mac":
		return TMAC, nil
	case "ip", "ipaddr":
		return TIP, nil
	case "timestamp", "time":
		return TTime, nil
	}
	return 0, fmt.Errorf("hwdb: unknown column type %q", s)
}

// Value is a single typed cell. Numeric kinds (including MAC, IP, time and
// bool) live in Int/Real so rows stay compact and comparable.
type Value struct {
	Type ColType
	Int  int64
	Real float64
	Str  string
}

// Int64 builds an integer value.
func Int64(v int64) Value { return Value{Type: TInt, Int: v} }

// Float builds a real value.
func Float(v float64) Value { return Value{Type: TReal, Real: v} }

// String builds a string value.
func Str(v string) Value { return Value{Type: TString, Str: v} }

// Bool builds a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Type: TBool, Int: i}
}

// MACVal builds a MAC value.
func MACVal(m packet.MAC) Value {
	var i int64
	for _, b := range m {
		i = i<<8 | int64(b)
	}
	return Value{Type: TMAC, Int: i}
}

// MAC returns the value as a hardware address.
func (v Value) MAC() packet.MAC {
	var m packet.MAC
	x := v.Int
	for i := 5; i >= 0; i-- {
		m[i] = byte(x)
		x >>= 8
	}
	return m
}

// IPVal builds an IP value.
func IPVal(ip packet.IP4) Value { return Value{Type: TIP, Int: int64(ip.Uint32())} }

// IP returns the value as an IPv4 address.
func (v Value) IP() packet.IP4 { return packet.IP4FromUint32(uint32(v.Int)) }

// TimeVal builds a timestamp value.
func TimeVal(t time.Time) Value { return Value{Type: TTime, Int: t.UnixNano()} }

// Time returns the value as a time.
func (v Value) Time() time.Time { return time.Unix(0, v.Int) }

// AsFloat returns a numeric view of the value for aggregation.
func (v Value) AsFloat() float64 {
	if v.Type == TReal {
		return v.Real
	}
	return float64(v.Int)
}

// equal compares two values; numeric kinds compare across Int/Real.
func (v Value) equal(o Value) bool {
	if v.Type == TString || o.Type == TString {
		return v.Type == o.Type && v.Str == o.Str
	}
	if v.Type == TReal || o.Type == TReal {
		return v.AsFloat() == o.AsFloat()
	}
	return v.Int == o.Int
}

// less orders two values of compatible type.
func (v Value) less(o Value) bool {
	if v.Type == TString && o.Type == TString {
		return v.Str < o.Str
	}
	if v.Type == TReal || o.Type == TReal {
		return v.AsFloat() < o.AsFloat()
	}
	return v.Int < o.Int
}

// String renders the value in CQL literal syntax.
func (v Value) String() string {
	if v.Type == TString {
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
	return v.Text()
}

// Text renders the value without string quoting, for tabular output.
func (v Value) Text() string {
	if v.Type == TString {
		return v.Str
	}
	var buf [32]byte
	return string(v.appendText(buf[:0]))
}

// appendText appends the value as Text renders it.
func (v Value) appendText(b []byte) []byte {
	switch v.Type {
	case TInt:
		return strconv.AppendInt(b, v.Int, 10)
	case TReal:
		return strconv.AppendFloat(b, v.Real, 'g', -1, 64)
	case TString:
		return append(b, v.Str...)
	case TBool:
		return strconv.AppendBool(b, v.Int != 0)
	case TMAC:
		const hex = "0123456789abcdef"
		for i, x := range v.MAC() {
			if i > 0 {
				b = append(b, ':')
			}
			b = append(b, hex[x>>4], hex[x&15])
		}
		return b
	case TIP:
		for i, x := range v.IP() {
			if i > 0 {
				b = append(b, '.')
			}
			b = strconv.AppendUint(b, uint64(x), 10)
		}
		return b
	case TTime:
		return strconv.AppendInt(append(b, '@'), v.Int, 10)
	}
	return append(b, "null"...)
}

// Column is one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered set of columns.
type Schema struct {
	Cols  []Column
	idx   map[string]int
	shape *rowShape
	// star is what * selects: "timestamp", then every column name. Every
	// SELECT * result over the schema shares it as its Cols, so its
	// capacity is its length.
	star []string
}

// NewSchema builds a schema from columns, indexing names case-insensitively.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, idx: make(map[string]int, len(cols))}
	s.shape = newRowShape(len(cols), func(i int) ColType { return cols[i].Type })
	s.star = make([]string, 1, 1+len(cols))
	s.star[0] = "timestamp"
	for i, c := range cols {
		s.idx[strings.ToLower(c.Name)] = i
		s.star = append(s.star, c.Name)
	}
	return s
}

// Index returns the position of a named column.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.idx[strings.ToLower(name)]
	return i, ok
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Row is a read-only view of one tuple plus the insertion timestamp the
// table assigned: row i of a rowBlock. Rows handed out by a table (Tail,
// Snapshot, rowsBetween, OnInsert hooks) view a private copy and are safe
// to retain; rows built outside a table come from NewRow or a RowBuilder
// (builder.go).
// Columns are numbered from 0 in schema order; an index out of range
// panics, as it would on a slice.
type Row struct {
	b *rowBlock
	i int
}

// rowBlock is a run of rows in the flat layout the rings store: stride
// eight-byte cells per row — cell 0 the insert time in Unix nanoseconds,
// cell 1+c column c in the encoding its type fixes (the Int of an integer,
// bool, MAC, IP or timestamp value; math.Float64bits of a real; unused for
// a string) — and, for shapes with string columns, nstr strings per row
// beside them. Pointer-free unless the shape has strings.
type rowBlock struct {
	shape *rowShape
	cells []uint64
	strs  []string
}

// rowShape is what a block knows of its columns.
type rowShape struct {
	cols   []shapeCol
	stride int // cells per row: 1 + len(cols)
	nstr   int // string columns per row
}

type shapeCol struct {
	typ ColType
	str int32 // a string column's position among the row's strings
}

// newRowShape lays out rows of n columns whose types typ(i) names.
func newRowShape(n int, typ func(i int) ColType) *rowShape {
	sh := &rowShape{cols: make([]shapeCol, n), stride: 1 + n}
	for i := range sh.cols {
		sh.cols[i].typ = typ(i)
		if sh.cols[i].typ == TString {
			sh.cols[i].str = int32(sh.nstr)
			sh.nstr++
		}
	}
	return sh
}

// newRowBlock allocates an all-zero block of n rows.
func newRowBlock(sh *rowShape, n int) rowBlock {
	b := rowBlock{shape: sh, cells: make([]uint64, n*sh.stride)}
	if sh.nstr > 0 {
		b.strs = make([]string, n*sh.nstr)
	}
	return b
}

// put encodes one tuple into row i. vals must already agree with the
// shape (Schema.Validate); an integer in a real column is widened here, so
// everything stored in a real column is a real.
func (b *rowBlock) put(i int, ts time.Time, vals []Value) {
	sh := b.shape
	cells := b.cells[i*sh.stride : (i+1)*sh.stride]
	cells[0] = uint64(ts.UnixNano())
	for c, v := range vals {
		switch col := sh.cols[c]; col.typ {
		case TString:
			cells[1+c] = 0
			b.strs[i*sh.nstr+int(col.str)] = v.Str
		case TReal:
			cells[1+c] = math.Float64bits(v.AsFloat())
		default:
			cells[1+c] = uint64(v.Int)
		}
	}
}

// copyFrom copies n rows of src, starting at its row from, into b at row
// at. The two blocks share a shape.
func (b *rowBlock) copyFrom(at int, src *rowBlock, from, n int) {
	sh := b.shape
	copy(b.cells[at*sh.stride:], src.cells[from*sh.stride:(from+n)*sh.stride])
	if sh.nstr > 0 {
		copy(b.strs[at*sh.nstr:], src.strs[from*sh.nstr:(from+n)*sh.nstr])
	}
}

// rows returns views of the block's first n rows.
func (b *rowBlock) rows(n int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = Row{b, i}
	}
	return out
}

// Time returns the insertion timestamp (zero for the zero Row).
func (r Row) Time() time.Time {
	if r.b == nil {
		return time.Time{}
	}
	return time.Unix(0, int64(r.b.cells[r.i*r.b.shape.stride]))
}

// NumCols returns how many columns the row has.
func (r Row) NumCols() int {
	if r.b == nil {
		return 0
	}
	return len(r.b.shape.cols)
}

func (r Row) cell(c int) uint64 { return r.b.cells[r.i*r.b.shape.stride+1+c] }

// Int returns column c of an integer, bool, MAC, IP or timestamp column as
// Value.Int holds it. It is undefined for real and string columns.
func (r Row) Int(c int) int64 { return int64(r.cell(c)) }

// Real returns a numeric view of column c, as Value.AsFloat does: the
// value of a real column, the integer of any other converted.
func (r Row) Real(c int) float64 {
	if r.b.shape.cols[c].typ == TReal {
		return math.Float64frombits(r.cell(c))
	}
	return float64(int64(r.cell(c)))
}

// Str returns column c of a string column, and "" for any other.
func (r Row) Str(c int) string {
	sh := r.b.shape
	if col := sh.cols[c]; col.typ == TString {
		return r.b.strs[r.i*sh.nstr+int(col.str)]
	}
	return ""
}

// Value returns column c as a typed cell.
func (r Row) Value(c int) Value {
	switch typ := r.b.shape.cols[c].typ; typ {
	case TString:
		return Value{Type: TString, Str: r.Str(c)}
	case TReal:
		return Value{Type: TReal, Real: math.Float64frombits(r.cell(c))}
	default:
		return Value{Type: typ, Int: int64(r.cell(c))}
	}
}

// NewRow builds a standalone row from typed values, the column types
// being the values' own: the constructor for rows that never lived in a
// table (tests). Rows by the batch go through a RowBuilder.
func NewRow(ts time.Time, vals ...Value) Row {
	tags := make([]byte, len(vals))
	for i, v := range vals {
		tags[i] = byte(v.Type)
	}
	sh := internShape(tags)
	var b RowBuilder
	b.Reserve(runRoom(sh, 1))
	run, rows, _ := b.take(sh, 1)
	run.put(0, ts, vals)
	return rows[0]
}

// Validate checks vals against the schema.
func (s *Schema) Validate(vals []Value) error {
	if len(vals) != len(s.Cols) {
		return fmt.Errorf("hwdb: %d values for %d columns", len(vals), len(s.Cols))
	}
	for i, v := range vals {
		want := s.Cols[i].Type
		if v.Type == want {
			continue
		}
		// Ints widen to reals; everything else must match exactly.
		if want == TReal && v.Type == TInt {
			continue
		}
		return fmt.Errorf("hwdb: column %s wants %s, got %s", s.Cols[i].Name, want, v.Type)
	}
	return nil
}
