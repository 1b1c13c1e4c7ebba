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
// goroutine; OnInsert hooks fire synchronously on the inserting
// goroutine and must not block. The UDP RPC server runs its own
// goroutines and serves each subscription independently.
package hwdb

import (
	"fmt"
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

// ParseColType parses a type name.
func ParseColType(s string) (ColType, error) {
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

// Equal compares two values; numeric kinds compare across Int/Real.
func (v Value) Equal(o Value) bool {
	if v.Type == TString || o.Type == TString {
		return v.Type == o.Type && v.Str == o.Str
	}
	if v.Type == TReal || o.Type == TReal {
		return v.AsFloat() == o.AsFloat()
	}
	return v.Int == o.Int
}

// Less orders two values of compatible type.
func (v Value) Less(o Value) bool {
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
	switch v.Type {
	case TInt:
		return strconv.FormatInt(v.Int, 10)
	case TReal:
		return strconv.FormatFloat(v.Real, 'g', -1, 64)
	case TString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case TBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case TMAC:
		return v.MAC().String()
	case TIP:
		return v.IP().String()
	case TTime:
		return "@" + strconv.FormatInt(v.Int, 10)
	}
	return "null"
}

// Text renders the value without string quoting, for tabular output.
func (v Value) Text() string {
	if v.Type == TString {
		return v.Str
	}
	return v.String()
}

// Column is one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered set of columns.
type Schema struct {
	Cols []Column
	idx  map[string]int
}

// NewSchema builds a schema from columns, indexing names case-insensitively.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, idx: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.idx[strings.ToLower(c.Name)] = i
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

// Row is one tuple plus the insertion timestamp assigned by the table.
type Row struct {
	TS   time.Time
	Vals []Value
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
