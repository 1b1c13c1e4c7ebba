package hwdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Result is a query result: a header row plus data rows, oldest-first
// unless ORDER BY reordered them.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Text renders the result as tab-separated lines, header first; the wire
// format of the UDP RPC and the input to the visualization interfaces.
func (r *Result) Text() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Cols, "\t"))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.Text())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ParseSelect parses one SELECT statement: what a caller that runs the
// same query again and again holds on to, and hands to DB.Select.
func ParseSelect(cql string) (*SelectStmt, error) {
	st, err := Parse(cql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hwdb: not a SELECT: %s", cql)
	}
	return sel, nil
}

// Query parses and executes a SELECT statement.
func (db *DB) Query(cql string) (*Result, error) {
	sel, err := ParseSelect(cql)
	if err != nil {
		return nil, err
	}
	return db.Select(sel)
}

// Exec parses and executes any statement, returning a result for SELECT and
// nil for others.
func (db *DB) Exec(cql string) (*Result, error) {
	st, err := Parse(cql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		return db.Select(s)
	case *InsertStmt:
		return nil, db.Insert(s.Table, s.Vals...)
	case *CreateStmt:
		_, err := db.CreateTable(s.Table, s.Schema, s.RingSize)
		return nil, err
	case *SubscribeStmt:
		return nil, fmt.Errorf("hwdb: SUBSCRIBE only valid over the RPC interface")
	}
	return nil, fmt.Errorf("hwdb: unhandled statement")
}

// rowSink is the back half of a SELECT: it is fed the rows that passed
// the window and WHERE, one at a time, and keeps only what the result
// needs of each, so the rows themselves can be views that die with the
// call.
type rowSink interface {
	add(Row)
	result() *Result
}

// Select executes a parsed SELECT. Over a live table nothing is copied:
// WHERE, GROUP BY and the projection are evaluated on the ring's own rows
// under the table's read lock, so an insert into that table waits for the
// window to be walked — microseconds for the windowed reads the displays
// make, the whole ring for a window-less SELECT *.
func (db *DB) Select(sel *SelectStmt) (*Result, error) {
	t, ok := db.Table(sel.Table)
	if !ok {
		return nil, fmt.Errorf("hwdb: no such table %s", sel.Table)
	}
	schema := t.Schema()
	if err := validateExpr(schema, sel.Where); err != nil {
		return nil, err
	}
	var sink rowSink
	var err error
	if sel.aggregates() {
		sink, err = newAggregation(schema, sel)
	} else {
		sink, err = newProjection(schema, sel)
	}
	if err != nil {
		return nil, err
	}
	feed := func(r Row) error {
		if sel.Where != nil {
			ok, err := sel.Where.Eval(schema, r)
			if err != nil || !ok {
				return err
			}
		}
		sink.add(r)
		return nil
	}
	// Source the rows: the window's slice of the live ring for ordinary
	// queries, retained history for time travel. AS OF also re-anchors
	// window evaluation at the requested instant, so `[RANGE n] AS OF @t`
	// reads relative to t.
	var rows []Row
	switch {
	case sel.HasAsOf:
		rows = applyWindow(db.historyRows(t, time.Time{}, sel.AsOf), sel.Win, sel.AsOf)
	case sel.HasHist:
		rows = applyWindow(db.historyRows(t, sel.HistFrom, sel.HistTo), sel.Win, sel.HistTo)
	default:
		err = t.scan(sel.Win, db.clk.Now(), feed)
	}
	for i := 0; i < len(rows) && err == nil; i++ {
		err = feed(rows[i])
	}
	if err != nil {
		return nil, err
	}

	res := sink.result()
	if len(sel.Order) > 0 {
		if err := orderRows(res, sel.Order); err != nil {
			return nil, err
		}
	}
	if sel.Limit > 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	return res, nil
}

// aggregates reports whether the statement groups or folds rows rather
// than projecting them.
func (sel *SelectStmt) aggregates() bool {
	for _, it := range sel.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return len(sel.GroupBy) > 0
}

// History is the programmatic form of `SELECT * FROM table HISTORY @from
// @to`: the table's retained rows (HistorySource-widened when one is
// attached) in the inclusive range, projected with the timestamp column.
// Zero bounds are open.
func (db *DB) History(table string, from, to time.Time) (*Result, error) {
	t, ok := db.Table(table)
	if !ok {
		return nil, fmt.Errorf("hwdb: no such table %s", table)
	}
	p, err := newProjection(t.Schema(), &SelectStmt{Items: []SelectItem{{Col: "*"}}})
	if err != nil {
		return nil, err
	}
	for _, row := range db.historyRows(t, from, to) {
		p.add(row)
	}
	return p.result(), nil
}

// validateExpr checks that every column referenced by a WHERE expression
// exists, so bad queries fail even when the window is empty.
func validateExpr(schema *Schema, e Expr) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *AndExpr:
		if err := validateExpr(schema, x.L); err != nil {
			return err
		}
		return validateExpr(schema, x.R)
	case *OrExpr:
		if err := validateExpr(schema, x.L); err != nil {
			return err
		}
		return validateExpr(schema, x.R)
	case *NotExpr:
		return validateExpr(schema, x.E)
	case *CmpExpr:
		if _, ok := schema.Index(x.Col); !ok && !strings.EqualFold(x.Col, "timestamp") {
			return fmt.Errorf("hwdb: unknown column %q", x.Col)
		}
	}
	return nil
}

// rowSlab is where a select's result rows live: rows of width cells handed
// out of chunks that double in size and never move. Chunk k holds
// 1<<(shift+k) rows, so n rows cost about log2(n) chunk allocations, and
// nothing is copied when the next chunk arrives — a grown slice would copy
// every 40-byte cell it already held at each doubling.
type rowSlab struct {
	width  int
	shift  uint // chunk 0 holds 1<<shift rows
	n      int  // rows handed out
	chunks [][]Value
	inline [6][]Value // backs chunks until a seventh is needed
}

// slabShift makes chunk 0 four rows for a result that may hold many: that
// is what a one-row result pays for, and four doublings later a chunk
// holds 64.
const slabShift = 2

// locate finds row i: its chunk and its position among that chunk's rows.
func (s *rowSlab) locate(i int) (k, at int) {
	k = bits.Len(uint(i>>s.shift+1)) - 1
	return k, i - (1<<k-1)<<s.shift
}

// row returns row i, its capacity cut to its own cells so that an append
// to it reallocates rather than running into row i+1.
func (s *rowSlab) row(i int) []Value {
	k, at := s.locate(i)
	return s.chunks[k][at*s.width : (at+1)*s.width : (at+1)*s.width]
}

// take hands out the next row, every cell zero.
func (s *rowSlab) take() []Value {
	if k, _ := s.locate(s.n); k == len(s.chunks) {
		if s.chunks == nil {
			s.chunks = s.inline[:0]
		}
		s.chunks = append(s.chunks, make([]Value, s.width<<(s.shift+uint(k))))
	}
	s.n++
	return s.row(s.n - 1)
}

// rows cuts the slab into the rows handed out, in order.
func (s *rowSlab) rows() [][]Value {
	out := make([][]Value, s.n)
	for i := range out {
		out[i] = s.row(i)
	}
	return out
}

// projection is the rowSink of a plain SELECT col,... (or *) without
// aggregation.
type projection struct {
	refs []int // column per output cell; -1 = the timestamp pseudo-column
	cols []string
	out  rowSlab
}

func newProjection(schema *Schema, sel *SelectStmt) (*projection, error) {
	n := len(sel.Items)
	for _, it := range sel.Items {
		if it.Col == "*" {
			n += len(schema.Cols)
		}
	}
	p := &projection{refs: make([]int, 0, n), cols: make([]string, 0, n)}
	ref := func(idx int, name string) {
		p.refs = append(p.refs, idx)
		p.cols = append(p.cols, name)
	}
	for _, it := range sel.Items {
		if it.Col == "*" {
			ref(-1, "timestamp")
			for i, c := range schema.Cols {
				ref(i, c.Name)
			}
			continue
		}
		if strings.EqualFold(it.Col, "timestamp") {
			ref(-1, it.Name)
			continue
		}
		i, ok := schema.Index(it.Col)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
		}
		ref(i, it.Name)
	}
	p.out = rowSlab{width: n, shift: slabShift}
	return p, nil
}

func (p *projection) add(row Row) {
	out := p.out.take()
	for i, idx := range p.refs {
		if idx < 0 {
			out[i] = TimeVal(row.Time())
		} else {
			out[i] = row.Value(idx)
		}
	}
}

func (p *projection) result() *Result { return &Result{Cols: p.cols, Rows: p.out.rows()} }

// groupIndex numbers the distinct GROUP BY keys of a select in the order
// they first appear. Keys are the bytes appendGroupKey builds; every key
// seen is kept once, back to back, in one arena, and an open-addressed
// table of ordinals finds it again. Two keys are the same group exactly
// when their bytes are equal — the hash only says where to look — so
// ordinals, and with them the order of the result, do not depend on the
// seed. Table and arena double together: growth costs two allocations per
// doubling of the groups, and what is copied is four bytes a group and
// the key bytes.
type groupIndex struct {
	seed     maphash.Seed
	hashMask uint64   // all ones; a test narrows it to force collisions
	slots    []uint32 // ordinal+1 of the group hashed there, 0 = free; a power of two long
	ends     []uint32 // group o's key is keys[ends[o-1]:ends[o]]; shares slots' allocation
	keys     []byte   // the arena
}

func (x *groupIndex) key(o int) []byte {
	lo := uint32(0)
	if o > 0 {
		lo = x.ends[o-1]
	}
	return x.keys[lo:x.ends[o]]
}

// slot returns where key's ordinal is, or the free slot where it belongs.
func (x *groupIndex) slot(key []byte) int {
	mask := len(x.slots) - 1
	p := int(maphash.Bytes(x.seed, key)&x.hashMask) & mask
	for x.slots[p] != 0 && !bytes.Equal(x.key(int(x.slots[p]-1)), key) {
		p = (p + 1) & mask
	}
	return p
}

// grow doubles the table, keeping it at most half full: n slots and the
// n/2 key ends that many slots admit, in one allocation, and an arena with
// room for as many key bytes again as it holds, which is exact when no
// GROUP BY column is a string. Every key moves to its new slot.
func (x *groupIndex) grow() {
	n := max(8, 2*len(x.slots))
	table := make([]uint32, n+n/2)
	x.slots, x.ends = table[:n:n], append(table[n:n], x.ends...)
	if room := 2 * len(x.keys); cap(x.keys) < room {
		x.keys = append(make([]byte, 0, room), x.keys...)
	}
	for o := range x.ends {
		x.slots[x.slot(x.key(o))] = uint32(o + 1)
	}
}

// ordinal returns key's group number, the next unused one if key is new.
func (x *groupIndex) ordinal(key []byte) int {
	if 2*(len(x.ends)+1) > len(x.slots) {
		x.grow()
	}
	p := x.slot(key)
	if x.slots[p] == 0 {
		x.keys = append(x.keys, key...)
		x.ends = append(x.ends, uint32(len(x.keys)))
		x.slots[p] = uint32(len(x.ends))
	}
	return int(x.slots[p] - 1)
}

// aggregation is the rowSink of GROUP BY and aggregate select items. A
// group is its result row and nothing else: GROUP BY cells are written
// into the row when the group is first seen, and an aggregate accumulates
// in its own cell — count in Int, sum in Real, avg in both, min and max as
// the value so far — which result() then stamps with its type.
type aggregation struct {
	sel      *SelectStmt
	groupIdx []int // GROUP BY columns
	src      []int // per select item: the column it reads (unused for count(*))
	idx      groupIndex
	keyBuf   []byte // reused for every row
	out      rowSlab
}

func newAggregation(schema *Schema, sel *SelectStmt) (*aggregation, error) {
	cols := make([]int, len(sel.GroupBy)+len(sel.Items))
	a := &aggregation{sel: sel, groupIdx: cols[:len(sel.GroupBy)], src: cols[len(sel.GroupBy):]}
	for j, g := range sel.GroupBy {
		i, ok := schema.Index(g)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown GROUP BY column %q", g)
		}
		a.groupIdx[j] = i
	}
	// Resolve each item's column once, not once per row or per group.
	for i, it := range sel.Items {
		switch {
		case it.Agg == AggNone:
			// Non-aggregate items must appear in GROUP BY.
			j := sel.groupCol(it.Col)
			if j < 0 {
				return nil, fmt.Errorf("hwdb: column %q must appear in GROUP BY", it.Col)
			}
			a.src[i] = a.groupIdx[j]
		case it.Col != "*":
			ci, ok := schema.Index(it.Col)
			if !ok {
				return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
			}
			a.src[i] = ci
		}
	}
	a.out = rowSlab{width: len(sel.Items)} // chunk 0 one row: without GROUP BY there is one group
	if len(sel.GroupBy) > 0 {
		a.out.shift = slabShift
		a.idx = groupIndex{seed: maphash.MakeSeed(), hashMask: ^uint64(0)}
		a.keyBuf = make([]byte, 0, 8*len(sel.GroupBy))
	}
	return a, nil
}

// groupCol returns the position of col in the GROUP BY list, or -1.
func (sel *SelectStmt) groupCol(col string) int {
	for j, g := range sel.GroupBy {
		if strings.EqualFold(g, col) {
			return j
		}
	}
	return -1
}

func (a *aggregation) add(row Row) {
	o := 0
	if len(a.groupIdx) > 0 {
		a.keyBuf = a.keyBuf[:0]
		for _, gi := range a.groupIdx {
			a.keyBuf = appendGroupKey(a.keyBuf, row, gi)
		}
		o = a.idx.ordinal(a.keyBuf)
	}
	fresh := o == a.out.n // the row opens its group
	var out []Value
	if fresh {
		out = a.out.take()
	} else {
		out = a.out.row(o)
	}
	for i, it := range a.sel.Items {
		cell := &out[i]
		switch it.Agg {
		case AggNone:
			if fresh {
				*cell = row.Value(a.src[i])
			}
		case AggCount:
			cell.Int++
		case AggSum:
			cell.Real += row.Real(a.src[i])
		case AggAvg:
			cell.Int++
			cell.Real += row.Real(a.src[i])
		case AggMin:
			if v := row.Value(a.src[i]); fresh || v.Less(*cell) {
				*cell = v
			}
		case AggMax:
			if v := row.Value(a.src[i]); fresh || cell.Less(v) {
				*cell = v
			}
		}
	}
}

func (a *aggregation) result() *Result {
	sel := a.sel
	if a.out.n == 0 && len(sel.GroupBy) == 0 {
		// A bare aggregate over zero rows still yields one row: count and
		// sum 0, min and max null.
		a.out.take()
	}
	res := &Result{Cols: make([]string, len(sel.Items)), Rows: a.out.rows()}
	for i, it := range sel.Items {
		res.Cols[i] = it.Name
	}
	for _, out := range res.Rows {
		for i, it := range sel.Items {
			switch cell := &out[i]; it.Agg {
			case AggCount:
				*cell = Int64(cell.Int)
			case AggSum:
				*cell = Float(cell.Real)
			case AggAvg:
				if cell.Int == 0 {
					*cell = Float(0)
				} else {
					*cell = Float(cell.Real / float64(cell.Int))
				}
			}
		}
	}
	return res
}

// appendGroupKey appends column c of row to a group key: the eight bytes
// of its cell, or length-prefixed bytes for a string, so two keys are equal
// bytes exactly when the cells are equal. Everything a table stores in a
// real column is a real (Insert widens integers), so equal numbers there
// have equal bits; 0.0 and -0.0 stay apart, as they did when the key was
// the cells' rendering.
func appendGroupKey(key []byte, row Row, c int) []byte {
	if row.b.shape.cols[c].typ == TString {
		s := row.Str(c)
		key = binary.LittleEndian.AppendUint64(key, uint64(len(s)))
		return append(key, s...)
	}
	return binary.LittleEndian.AppendUint64(key, row.cell(c))
}

func orderRows(res *Result, order []OrderBy) error {
	idx := make([]int, len(order))
	for i, ob := range order {
		found := -1
		for j, c := range res.Cols {
			if strings.EqualFold(c, ob.Col) {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("hwdb: ORDER BY column %q not in result", ob.Col)
		}
		idx[i] = found
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, ob := range order {
			va, vb := res.Rows[a][idx[i]], res.Rows[b][idx[i]]
			if va.Equal(vb) {
				continue
			}
			if ob.Desc {
				return vb.Less(va)
			}
			return va.Less(vb)
		}
		return false
	})
	return nil
}
