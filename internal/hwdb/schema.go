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
	"encoding/binary"
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

// Value is a single typed cell: a type tag, one word and a string. Every
// kind but a string lives in Int — a real as its math.Float64bits, so read
// a real with AsFloat, never Int. == on two Values compares reals bit for
// bit (0.0 and -0.0 differ, a NaN equals its own bits); a query compares
// them as numbers.
type Value struct {
	Type ColType
	Int  int64
	Str  string
}

// Int64 builds an integer value.
func Int64(v int64) Value { return Value{Type: TInt, Int: v} }

// Float builds a real value.
func Float(v float64) Value { return Value{Type: TReal, Int: int64(math.Float64bits(v))} }

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
		return math.Float64frombits(uint64(v.Int))
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
		return strconv.AppendFloat(b, v.AsFloat(), 'g', -1, 64)
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
func NewSchema(cols ...Column) *Schema { return newSchema(cols, nil) }

// newSchema is NewSchema with column i's cell narrowed to narrow[i] bytes
// where that is nonzero (see newRowShape).
func newSchema(cols []Column, narrow []int) *Schema {
	s := &Schema{Cols: cols, idx: make(map[string]int, len(cols))}
	s.shape = newRowShape(len(cols), func(i int) ColType { return cols[i].Type }, narrow)
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

// rowBlock is a run of rows packed as the rings store them: stride bytes
// per row — the insert time in Unix nanoseconds, then each column's cell at
// its shape's offset and width, little-endian, in the encoding its type
// fixes (the Int of an integer, bool, MAC, IP or timestamp value;
// math.Float64bits of a real; nothing for a string) — then the shape's
// slack, and, for shapes with string columns, nstr strings per row beside
// them. Pointer-free unless the shape has strings.
type rowBlock struct {
	shape *rowShape
	cells []byte
	strs  []string
}

// rowShape is what a block knows of its columns.
type rowShape struct {
	cols   []shapeCol
	stride int // bytes per row: 8 for the insert time and every cell's width
	slack  int // bytes past a block's last row that a cell's load reaches
	nstr   int // string columns per row
}

type shapeCol struct {
	typ   ColType
	width uint8  // bytes of the cell
	off   int32  // the cell's offset in its row
	str   int32  // a string column's position among the row's strings
	mask  uint64 // the cell's width as a mask of a word's low bytes
}

// cellWidths is how many bytes a cell of each type takes. A string's value
// is kept beside the cells.
var cellWidths = [256]int{TInt: 8, TReal: 8, TTime: 8, TMAC: 6, TIP: 4, TBool: 1}

// newRowShape packs rows of n columns of the types typ(i) names, in order,
// each cell at its type's width or, where nonzero, narrow[i]: a narrowed
// integer column holds only the unsigned values of its width (Validate).
func newRowShape(n int, typ func(i int) ColType, narrow []int) *rowShape {
	sh := &rowShape{cols: make([]shapeCol, n), stride: 8}
	reach := 8 // the furthest a cell's eight-byte load reads
	for i := range sh.cols {
		c, w := &sh.cols[i], cellWidths[typ(i)]
		if i < len(narrow) && narrow[i] > 0 {
			w = narrow[i]
		}
		c.typ, c.width, c.mask = typ(i), uint8(w), 1<<(8*w)-1
		if w > 0 { // an empty cell loads the row's first word, masked to nothing
			c.off = int32(sh.stride)
			reach = max(reach, sh.stride+8)
		}
		if c.typ == TString {
			c.str = int32(sh.nstr)
			sh.nstr++
		}
		sh.stride += w
	}
	sh.slack = reach - sh.stride
	return sh
}

// words is how many eight-byte words a row takes on the wire.
func (sh *rowShape) words() int { return 1 + len(sh.cols) }

// newRowBlock allocates an all-zero block of n rows.
func newRowBlock(sh *rowShape, n int) rowBlock {
	b := rowBlock{shape: sh, cells: make([]byte, n*sh.stride+sh.slack)[:n*sh.stride]}
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
	row := b.cells[i*sh.stride : (i+1)*sh.stride]
	binary.LittleEndian.PutUint64(row, uint64(ts.UnixNano()))
	for c := range vals {
		v, col, x := &vals[c], &sh.cols[c], uint64(vals[c].Int)
		switch col.typ {
		case TString:
			b.strs[i*sh.nstr+int(col.str)] = v.Str
			continue
		case TReal:
			x = math.Float64bits(v.AsFloat())
		}
		putCell(row[col.off:], col.width, x)
	}
}

// putCell writes the w low bytes of x to the front of b, and nothing past
// them.
func putCell(b []byte, w uint8, x uint64) {
	switch w {
	case 8:
		binary.LittleEndian.PutUint64(b, x)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(x))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(x))
	default:
		for k := range b[:w] {
			b[k] = byte(x >> (8 * k))
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
	return time.Unix(0, int64(r.nanos()))
}

func (r Row) nanos() uint64 { return binary.LittleEndian.Uint64(r.b.cells[r.i*r.b.shape.stride:]) }

// NumCols returns how many columns the row has.
func (r Row) NumCols() int {
	if r.b == nil {
		return 0
	}
	return len(r.b.shape.cols)
}

// cell returns column c's cell as a word: one eight-byte load, masked to the
// cell's width. Every narrower cell holds an unsigned value.
func (r Row) cell(c int) uint64 {
	sh := r.b.shape
	col := &sh.cols[c]
	off := r.i*sh.stride + int(col.off)
	return binary.LittleEndian.Uint64(r.b.cells[off:off+8]) & col.mask
}

// Int returns column c as Value.Int holds it: the integer of an integer,
// bool, MAC, IP or timestamp column, the bits of a real. It is undefined
// for string columns.
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
	for i := range vals {
		if !sh.cols[i].holds(&vals[i]) {
			panic(fmt.Sprintf("hwdb: NewRow: %v does not fit its cell", vals[i]))
		}
	}
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
	for i := range vals {
		v, col := &vals[i], &s.shape.cols[i]
		// Ints widen to reals; everything else must match exactly.
		if v.Type != col.typ && (col.typ != TReal || v.Type != TInt) {
			return fmt.Errorf("hwdb: column %s wants %s, got %s", s.Cols[i].Name, col.typ, v.Type)
		}
		if !col.holds(v) {
			return fmt.Errorf("hwdb: column %s holds %d bytes: %d does not fit", s.Cols[i].Name, col.width, v.Int)
		}
	}
	return nil
}

// holds reports whether the cell stores v whole, as it must: one narrower
// than a word holds only the unsigned values of its width.
func (c *shapeCol) holds(v *Value) bool { return c.typ == TString || uint64(v.Int)&^c.mask == 0 }
