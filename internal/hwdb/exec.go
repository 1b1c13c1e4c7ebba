package hwdb

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Query parses and executes a SELECT statement.
func (db *DB) Query(cql string) (*Result, error) {
	st, err := Parse(cql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hwdb: not a SELECT: %s", cql)
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

// Select executes a parsed SELECT.
func (db *DB) Select(sel *SelectStmt) (*Result, error) {
	t, ok := db.Table(sel.Table)
	if !ok {
		return nil, fmt.Errorf("hwdb: no such table %s", sel.Table)
	}
	schema := t.Schema()
	if err := validateExpr(schema, sel.Where); err != nil {
		return nil, err
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
		rows = t.window(sel.Win, db.clk.Now())
	}

	// Filter.
	if sel.Where != nil {
		kept := rows[:0:0]
		for _, r := range rows {
			ok, err := sel.Where.Eval(schema, r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != AggNone {
			hasAgg = true
			break
		}
	}

	var res *Result
	var err error
	switch {
	case hasAgg || len(sel.GroupBy) > 0:
		res, err = aggregate(schema, sel, rows)
	default:
		res, err = project(schema, sel, rows)
	}
	if err != nil {
		return nil, err
	}

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

// History is the programmatic form of `SELECT * FROM table HISTORY @from
// @to`: the table's retained rows (HistorySource-widened when one is
// attached) in the inclusive range, projected with the timestamp column.
// Zero bounds are open.
func (db *DB) History(table string, from, to time.Time) (*Result, error) {
	t, ok := db.Table(table)
	if !ok {
		return nil, fmt.Errorf("hwdb: no such table %s", table)
	}
	sel := &SelectStmt{
		Items:    []SelectItem{{Col: "*"}},
		Table:    table,
		HistFrom: from, HistTo: to, HasHist: true,
	}
	rows := db.historyRows(t, from, to)
	return project(t.Schema(), sel, rows)
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

// project handles plain SELECT col,... (or *) without aggregation.
func project(schema *Schema, sel *SelectStmt, rows []Row) (*Result, error) {
	type colRef struct {
		idx  int // -1 = timestamp pseudo-column
		name string
	}
	var refs []colRef
	for _, it := range sel.Items {
		if it.Col == "*" {
			refs = append(refs, colRef{-1, "timestamp"})
			for i, c := range schema.Cols {
				refs = append(refs, colRef{i, c.Name})
			}
			continue
		}
		if strings.EqualFold(it.Col, "timestamp") {
			refs = append(refs, colRef{-1, it.Name})
			continue
		}
		i, ok := schema.Index(it.Col)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
		}
		refs = append(refs, colRef{i, it.Name})
	}
	res := &Result{}
	for _, r := range refs {
		res.Cols = append(res.Cols, r.name)
	}
	for _, row := range rows {
		out := make([]Value, len(refs))
		for i, r := range refs {
			if r.idx < 0 {
				out[i] = TimeVal(row.TS)
			} else {
				out[i] = row.Vals[r.idx]
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

type aggState struct {
	count int64
	sum   float64
	min   Value
	max   Value
	seen  bool
}

// aggregate handles GROUP BY and aggregate select items.
func aggregate(schema *Schema, sel *SelectStmt, rows []Row) (*Result, error) {
	// Validate: non-aggregate items must appear in GROUP BY.
	groupIdx := make([]int, 0, len(sel.GroupBy))
	groupSet := map[string]bool{}
	for _, g := range sel.GroupBy {
		i, ok := schema.Index(g)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown GROUP BY column %q", g)
		}
		groupIdx = append(groupIdx, i)
		groupSet[strings.ToLower(g)] = true
	}
	for _, it := range sel.Items {
		if it.Agg == AggNone && !groupSet[strings.ToLower(it.Col)] {
			return nil, fmt.Errorf("hwdb: column %q must appear in GROUP BY", it.Col)
		}
	}

	// Resolve each aggregate's input column once, not once per row.
	aggIdx := make([]int, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == AggNone || it.Col == "*" {
			continue
		}
		ci, ok := schema.Index(it.Col)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
		}
		aggIdx[i] = ci
	}

	type group struct {
		key  []Value
		aggs []aggState
	}
	groups := map[string]*group{}
	var order []*group // first-seen
	var keyBuf []byte  // reused for every row: only a new group allocates

	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, gi := range groupIdx {
			keyBuf = appendGroupKey(keyBuf, schema.Cols[gi].Type, row.Vals[gi])
		}
		g := groups[string(keyBuf)]
		if g == nil {
			g = &group{key: make([]Value, len(groupIdx)), aggs: make([]aggState, len(sel.Items))}
			for i, gi := range groupIdx {
				g.key[i] = row.Vals[gi]
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for i, it := range sel.Items {
			if it.Agg == AggNone {
				continue
			}
			st := &g.aggs[i]
			st.count++
			if it.Col == "*" {
				continue
			}
			v := row.Vals[aggIdx[i]]
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

	res := &Result{}
	for _, it := range sel.Items {
		res.Cols = append(res.Cols, it.Name)
	}
	for _, g := range order {
		out := make([]Value, len(sel.Items))
		for i, it := range sel.Items {
			switch it.Agg {
			case AggNone:
				for j, gcol := range sel.GroupBy {
					if strings.EqualFold(gcol, it.Col) {
						out[i] = g.key[j]
						break
					}
				}
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
	return res, nil
}

// appendGroupKey appends one GROUP BY cell to a group key. The cells of a
// column share its type (Schema.Validate), so the column picks the
// encoding: eight bytes per fixed-width cell, length-prefixed bytes per
// string, and two keys are equal bytes exactly when the cells are equal. A
// real column keys on the bits of AsFloat, so an integer stored in it
// (Validate widens ints to reals) groups with the equal real; 0.0 and -0.0
// stay apart, as they did when the key was the cells' rendering.
func appendGroupKey(key []byte, col ColType, v Value) []byte {
	switch col {
	case TString:
		key = binary.LittleEndian.AppendUint64(key, uint64(len(v.Str)))
		return append(key, v.Str...)
	case TReal:
		return binary.LittleEndian.AppendUint64(key, math.Float64bits(v.AsFloat()))
	}
	return binary.LittleEndian.AppendUint64(key, uint64(v.Int))
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
