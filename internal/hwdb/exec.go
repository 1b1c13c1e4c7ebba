package hwdb

import (
	"encoding/binary"
	"fmt"
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

// projection is the rowSink of a plain SELECT col,... (or *) without
// aggregation.
type projection struct {
	refs []int // column per output cell; -1 = the timestamp pseudo-column
	res  *Result
}

func newProjection(schema *Schema, sel *SelectStmt) (*projection, error) {
	p := &projection{res: &Result{}}
	ref := func(idx int, name string) {
		p.refs = append(p.refs, idx)
		p.res.Cols = append(p.res.Cols, name)
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
	return p, nil
}

func (p *projection) add(row Row) {
	out := make([]Value, len(p.refs))
	for i, idx := range p.refs {
		if idx < 0 {
			out[i] = TimeVal(row.Time())
		} else {
			out[i] = row.Value(idx)
		}
	}
	p.res.Rows = append(p.res.Rows, out)
}

func (p *projection) result() *Result { return p.res }

type aggState struct {
	count int64
	sum   float64
	min   Value
	max   Value
	seen  bool
}

type aggGroup struct {
	key  []Value
	aggs []aggState
}

// aggregation is the rowSink of GROUP BY and aggregate select items.
type aggregation struct {
	sel      *SelectStmt
	groupIdx []int // GROUP BY columns
	aggIdx   []int // per select item: the aggregate's input column
	groups   map[string]*aggGroup
	order    []*aggGroup // first-seen
	keyBuf   []byte      // reused for every row: only a new group allocates
}

func newAggregation(schema *Schema, sel *SelectStmt) (*aggregation, error) {
	a := &aggregation{sel: sel, groups: map[string]*aggGroup{}, groupIdx: make([]int, 0, len(sel.GroupBy))}
	// Validate: non-aggregate items must appear in GROUP BY.
	for _, g := range sel.GroupBy {
		i, ok := schema.Index(g)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown GROUP BY column %q", g)
		}
		a.groupIdx = append(a.groupIdx, i)
	}
	// Resolve each aggregate's input column once, not once per row.
	a.aggIdx = make([]int, len(sel.Items))
	for i, it := range sel.Items {
		switch {
		case it.Agg == AggNone:
			if sel.groupCol(it.Col) < 0 {
				return nil, fmt.Errorf("hwdb: column %q must appear in GROUP BY", it.Col)
			}
		case it.Col != "*":
			ci, ok := schema.Index(it.Col)
			if !ok {
				return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
			}
			a.aggIdx[i] = ci
		}
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
	a.keyBuf = a.keyBuf[:0]
	for _, gi := range a.groupIdx {
		a.keyBuf = appendGroupKey(a.keyBuf, row, gi)
	}
	g := a.groups[string(a.keyBuf)]
	if g == nil {
		g = &aggGroup{key: make([]Value, len(a.groupIdx)), aggs: make([]aggState, len(a.sel.Items))}
		for i, gi := range a.groupIdx {
			g.key[i] = row.Value(gi)
		}
		a.groups[string(a.keyBuf)] = g
		a.order = append(a.order, g)
	}
	for i, it := range a.sel.Items {
		if it.Agg == AggNone {
			continue
		}
		st := &g.aggs[i]
		st.count++
		if it.Col == "*" {
			continue
		}
		v := row.Value(a.aggIdx[i])
		st.sum += v.AsFloat()
		if !st.seen || v.Less(st.min) {
			st.min = v
		}
		if !st.seen || st.max.Less(v) {
			st.max = v
		}
		st.seen = true
	}
}

func (a *aggregation) result() *Result {
	sel := a.sel
	res := &Result{Cols: make([]string, 0, len(sel.Items)), Rows: make([][]Value, 0, max(len(a.order), 1))}
	for _, it := range sel.Items {
		res.Cols = append(res.Cols, it.Name)
	}
	for _, g := range a.order {
		out := make([]Value, len(sel.Items))
		for i, it := range sel.Items {
			switch it.Agg {
			case AggNone:
				out[i] = g.key[sel.groupCol(it.Col)]
			case AggCount:
				out[i] = Int64(g.aggs[i].count)
			case AggSum:
				out[i] = Float(g.aggs[i].sum)
			case AggAvg:
				if g.aggs[i].count == 0 {
					out[i] = Float(0)
				} else {
					out[i] = Float(g.aggs[i].sum / float64(g.aggs[i].count))
				}
			case AggMin:
				out[i] = g.aggs[i].min
			case AggMax:
				out[i] = g.aggs[i].max
			}
		}
		res.Rows = append(res.Rows, out)
	}

	// A bare aggregate over zero rows still yields one row (count = 0).
	if len(res.Rows) == 0 && len(sel.GroupBy) == 0 {
		out := make([]Value, len(sel.Items))
		for i, it := range sel.Items {
			switch it.Agg {
			case AggCount:
				out[i] = Int64(0)
			case AggSum, AggAvg:
				out[i] = Float(0)
			default:
				out[i] = Value{}
			}
		}
		res.Rows = append(res.Rows, out)
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
