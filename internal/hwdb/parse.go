package hwdb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/packet"
)

// WindowKind selects the temporal operator applied to a table.
type WindowKind uint8

// Window kinds: the CQL variant's temporal operators.
const (
	WindowAll   WindowKind = iota // entire retained ring
	WindowRows                    // [ROWS n] — last n tuples
	WindowRange                   // [RANGE n UNIT] — tuples within a duration
	WindowNow                     // [NOW] — the most recent tuple
)

// Window is a parsed window specification.
type Window struct {
	Kind WindowKind
	N    int
	Dur  time.Duration
}

// String renders the window in CQL syntax.
func (w Window) String() string {
	switch w.Kind {
	case WindowRows:
		return fmt.Sprintf("[ROWS %d]", w.N)
	case WindowRange:
		return fmt.Sprintf("[RANGE %v]", w.Dur)
	case WindowNow:
		return "[NOW]"
	}
	return ""
}

// AggKind is an aggregate function.
type AggKind uint8

// Aggregates supported in select lists.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[string]AggKind{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

// SelectItem is one output column: either a plain column reference or an
// aggregate over a column ("*" only for count).
type SelectItem struct {
	Agg  AggKind
	Col  string // "*" or column name
	Name string // output label
}

// CompareOp is a WHERE comparison operator.
type CompareOp uint8

// Comparison operators.
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// Expr is a boolean expression tree over row values.
type Expr interface {
	Eval(s *Schema, r Row) (bool, error)
}

// AndExpr is conjunction.
type AndExpr struct{ L, R Expr }

// Eval implements Expr.
func (e *AndExpr) Eval(s *Schema, r Row) (bool, error) {
	l, err := e.L.Eval(s, r)
	if err != nil || !l {
		return false, err
	}
	return e.R.Eval(s, r)
}

// OrExpr is disjunction.
type OrExpr struct{ L, R Expr }

// Eval implements Expr.
func (e *OrExpr) Eval(s *Schema, r Row) (bool, error) {
	l, err := e.L.Eval(s, r)
	if err != nil || l {
		return l, err
	}
	return e.R.Eval(s, r)
}

// NotExpr is negation.
type NotExpr struct{ E Expr }

// Eval implements Expr.
func (e *NotExpr) Eval(s *Schema, r Row) (bool, error) {
	v, err := e.E.Eval(s, r)
	return !v, err
}

// CmpExpr compares a column with a literal.
type CmpExpr struct {
	Col string
	Op  CompareOp
	Lit Value
}

// Eval implements Expr.
func (e *CmpExpr) Eval(s *Schema, r Row) (bool, error) {
	i, ok := s.Index(e.Col)
	if !ok {
		// "timestamp" pseudo-column compares against the row timestamp.
		if strings.EqualFold(e.Col, "timestamp") {
			return cmp(TimeVal(r.Time()), e.Op, e.Lit), nil
		}
		return false, fmt.Errorf("hwdb: unknown column %q", e.Col)
	}
	return cmp(r.Value(i), e.Op, e.Lit), nil
}

func cmp(v Value, op CompareOp, lit Value) bool {
	switch op {
	case OpEQ:
		return v.equal(lit)
	case OpNE:
		return !v.equal(lit)
	case OpLT:
		return v.less(lit)
	case OpLE:
		return v.less(lit) || v.equal(lit)
	case OpGT:
		return lit.less(v)
	case OpGE:
		return lit.less(v) || v.equal(lit)
	}
	return false
}

// OrderBy is an ORDER BY term.
type OrderBy struct {
	Col  string
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Items   []SelectItem
	Table   string
	Win     Window
	Where   Expr
	GroupBy []string
	Order   []OrderBy
	Limit   int // 0 = unlimited

	// Time travel (AS OF @<unix-nanos> | HISTORY @<from> @<to>): when
	// HasAsOf is set the statement evaluates against the table's state at
	// AsOf — rows with TS <= AsOf, with RANGE/NOW windows anchored at AsOf
	// instead of the clock — and when HasHist is set it evaluates over the
	// retained rows with HistFrom <= TS <= HistTo. Both draw from the
	// database's HistorySource when one is attached (the flight recorder's
	// compacted windows) and fall back to the live ring otherwise.
	AsOf     time.Time
	HasAsOf  bool
	HistFrom time.Time
	HistTo   time.Time
	HasHist  bool

	// cols is the result's column names when the items fix them whatever
	// the schema — no item is a * the select spells out — as the parser
	// finds them; nil otherwise, and in a statement built by hand. Every
	// result of the statement shares it as its Cols, so its capacity is
	// its length.
	cols []string
}

// InsertStmt is a parsed INSERT INTO t VALUES (...).
type InsertStmt struct {
	Table string
	Vals  []Value
}

// CreateStmt is a parsed CREATE TABLE.
type CreateStmt struct {
	Table    string
	Schema   *Schema
	RingSize int
}

// SubscribeStmt is a parsed SUBSCRIBE <select> EVERY <duration>.
type SubscribeStmt struct {
	Query *SelectStmt
	Every time.Duration
}

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

func (*SelectStmt) stmt()    {}
func (*InsertStmt) stmt()    {}
func (*CreateStmt) stmt()    {}
func (*SubscribeStmt) stmt() {}

// Parse parses one CQL statement.
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("hwdb: trailing input at %s", p.peek())
	}
	return st, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token has the given kind and, when text is
// non-empty, matches it case-insensitively.
func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || strings.EqualFold(t.text, text))
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, fmt.Errorf("hwdb: expected %s, found %s", want, p.peek())
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(tokIdent, "select"):
		return p.parseSelect()
	case p.at(tokIdent, "insert"):
		return p.parseInsert()
	case p.at(tokIdent, "create"):
		return p.parseCreate()
	case p.at(tokIdent, "subscribe"):
		return p.parseSubscribe()
	}
	return nil, fmt.Errorf("hwdb: expected SELECT, INSERT, CREATE or SUBSCRIBE, found %s", p.peek())
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	st := &SelectStmt{Items: make([]SelectItem, 0, p.listCap())}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokIdent, "from"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	st.Table = tbl.text

	if p.accept(tokSymbol, "[") {
		w, err := p.parseWindow()
		if err != nil {
			return nil, err
		}
		st.Win = w
	}
	switch {
	case p.accept(tokIdent, "as"):
		if _, err := p.expect(tokIdent, "of"); err != nil {
			return nil, err
		}
		ts, err := p.parseTimestamp()
		if err != nil {
			return nil, err
		}
		st.AsOf, st.HasAsOf = ts, true
	case p.accept(tokIdent, "history"):
		from, err := p.parseTimestamp()
		if err != nil {
			return nil, err
		}
		to, err := p.parseTimestamp()
		if err != nil {
			return nil, err
		}
		if to.Before(from) {
			return nil, fmt.Errorf("hwdb: HISTORY range ends (@%d) before it starts (@%d)", to.UnixNano(), from.UnixNano())
		}
		st.HistFrom, st.HistTo, st.HasHist = from, to, true
	}
	if p.accept(tokIdent, "where") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.accept(tokIdent, "group") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		st.GroupBy = make([]string, 0, p.listCap())
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "order") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			ob := OrderBy{Col: c.text}
			if p.accept(tokIdent, "desc") {
				ob.Desc = true
			} else {
				p.accept(tokIdent, "asc")
			}
			st.Order = append(st.Order, ob)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "limit") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 0 {
			return nil, fmt.Errorf("hwdb: bad LIMIT %q", n.text)
		}
		st.Limit = lim
	}
	st.cols = fixedCols(st)
	return st, nil
}

// fixedCols is the names of sel's result columns if they do not depend on
// the schema, nil if a * spells out the schema's.
func fixedCols(sel *SelectStmt) []string {
	if !sel.aggregates() && slices.ContainsFunc(sel.Items, func(it SelectItem) bool { return it.Col == "*" }) {
		return nil
	}
	return appendCols(make([]string, 0, len(sel.Items)), nil, sel)
}

// listCap is how many entries the comma-separated list at the current
// token can have at most: one more than the commas before the clause
// keyword that ends it. It sizes the list once; nothing depends on it
// being exact.
func (p *parser) listCap() int {
	n := 1
	for _, t := range p.toks[p.pos:] {
		switch t.kind {
		case tokSymbol:
			if t.text == "," {
				n++
			}
		case tokIdent:
			if strings.EqualFold(t.text, "from") || strings.EqualFold(t.text, "order") || strings.EqualFold(t.text, "limit") {
				return n
			}
		}
	}
	return n
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return SelectItem{}, err
	}
	name := strings.ToLower(t.text)
	if agg, ok := aggNames[name]; ok && p.at(tokSymbol, "(") {
		p.next()
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		if col.text == "*" && agg != AggCount {
			return SelectItem{}, fmt.Errorf("hwdb: %s(*) is not valid", name)
		}
		if p.accept(tokIdent, "as") {
			l, err := p.expect(tokIdent, "")
			if err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg, Col: col.text, Name: l.text}, nil
		}
		return SelectItem{Agg: agg, Col: col.text, Name: name + "(" + col.text + ")"}, nil
	}
	label := t.text
	if p.accept(tokIdent, "as") {
		l, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		label = l.text
	}
	return SelectItem{Col: t.text, Name: label}, nil
}

func (p *parser) parseWindow() (Window, error) {
	var w Window
	switch {
	case p.accept(tokIdent, "rows"):
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return w, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v <= 0 {
			return w, fmt.Errorf("hwdb: bad ROWS count %q", n.text)
		}
		w = Window{Kind: WindowRows, N: v}
	case p.accept(tokIdent, "range"):
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return w, err
		}
		v, err := strconv.ParseFloat(n.text, 64)
		if err != nil || v <= 0 {
			return w, fmt.Errorf("hwdb: bad RANGE %q", n.text)
		}
		unit, err := p.expect(tokIdent, "")
		if err != nil {
			return w, err
		}
		d, err := parseUnit(unit.text)
		if err != nil {
			return w, err
		}
		w = Window{Kind: WindowRange, Dur: time.Duration(v * float64(d))}
	case p.accept(tokIdent, "now"):
		w = Window{Kind: WindowNow}
	default:
		return w, fmt.Errorf("hwdb: expected ROWS, RANGE or NOW, found %s", p.peek())
	}
	if _, err := p.expect(tokSymbol, "]"); err != nil {
		return w, err
	}
	return w, nil
}

// parseTimestamp reads an @<unix-nanos> timestamp argument (the same
// literal form WHERE accepts for the timestamp pseudo-column).
func (p *parser) parseTimestamp() (time.Time, error) {
	if _, err := p.expect(tokSymbol, "@"); err != nil {
		return time.Time{}, err
	}
	n, err := p.expect(tokNumber, "")
	if err != nil {
		return time.Time{}, err
	}
	i, err := strconv.ParseInt(n.text, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("hwdb: bad timestamp %q", n.text)
	}
	return time.Unix(0, i), nil
}

// parseUnit reads a RANGE or EVERY time unit: a unit name in either
// number, or one of the abbreviations ms, s, m (minutes), sec, min, hr,
// in any case. It lowers ASCII letters into a buffer on the stack, so a
// statement in capitals costs no allocation for its unit.
func parseUnit(s string) (time.Duration, error) {
	var buf [len("milliseconds")]byte
	if len(s) <= len(buf) {
		u := buf[:len(s)]
		for i := range len(s) {
			c := s[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			u[i] = c
		}
		switch string(u) {
		case "ms", "mss", "millisecond", "milliseconds":
			return time.Millisecond, nil
		case "s", "sec", "secs", "second", "seconds":
			return time.Second, nil
		case "m", "min", "mins", "minute", "minutes":
			return time.Minute, nil
		case "hr", "hrs", "hour", "hours":
			return time.Hour, nil
		case "day", "days":
			return 24 * time.Hour, nil
		}
	}
	return 0, fmt.Errorf("hwdb: unknown time unit %q", s)
}

// parseOr handles OR with lower precedence than AND.
func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokIdent, "not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	if p.accept(tokSymbol, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseCmp()
}

var opNames = map[string]CompareOp{
	"=": OpEQ, "!=": OpNE, "<>": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
}

func (p *parser) parseCmp() (Expr, error) {
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokSymbol, "")
	if err != nil {
		return nil, err
	}
	op, ok := opNames[opTok.text]
	if !ok {
		return nil, fmt.Errorf("hwdb: unknown operator %q", opTok.text)
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Col: col.text, Op: op, Lit: lit}, nil
}

func (p *parser) parseLiteral() (Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Value{}, fmt.Errorf("hwdb: bad number %q", t.text)
			}
			return Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("hwdb: bad number %q", t.text)
		}
		return Int64(i), nil
	case tokString:
		return Str(t.text), nil
	case tokMAC:
		m, err := packet.ParseMAC(t.text)
		if err != nil {
			return Value{}, err
		}
		return MACVal(m), nil
	case tokIP:
		ip, err := packet.ParseIP4(t.text)
		if err != nil {
			return Value{}, err
		}
		return IPVal(ip), nil
	case tokSymbol:
		switch t.text {
		case "-":
			v, err := p.parseLiteral()
			if err != nil {
				return Value{}, err
			}
			switch v.Type {
			case TInt:
				v.Int = -v.Int
			case TReal:
				v = Float(-v.AsFloat())
			default:
				return Value{}, fmt.Errorf("hwdb: cannot negate %s", v.Type)
			}
			return v, nil
		case "@": // @<unix-nanos> timestamp literal
			n, err := p.expect(tokNumber, "")
			if err != nil {
				return Value{}, err
			}
			i, err := strconv.ParseInt(n.text, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("hwdb: bad timestamp %q", n.text)
			}
			return Value{Type: TTime, Int: i}, nil
		}
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
	}
	return Value{}, fmt.Errorf("hwdb: expected literal, found %s", t)
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.next() // INSERT
	if _, err := p.expect(tokIdent, "into"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "values"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: tbl.text}
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		st.Vals = append(st.Vals, v)
		if p.accept(tokSymbol, ")") {
			break
		}
		if _, err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseCreate() (*CreateStmt, error) {
	p.next() // CREATE
	if _, err := p.expect(tokIdent, "table"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ct, err := parseColType(typ.text)
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: name.text, Type: ct})
		if p.accept(tokSymbol, ")") {
			break
		}
		if _, err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
	}
	st := &CreateStmt{Table: tbl.text, Schema: NewSchema(cols...)}
	if p.accept(tokIdent, "ring") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		size, err := strconv.Atoi(n.text)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("hwdb: bad RING size %q", n.text)
		}
		st.RingSize = size
	}
	return st, nil
}

func (p *parser) parseSubscribe() (*SubscribeStmt, error) {
	p.next() // SUBSCRIBE
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "every"); err != nil {
		return nil, err
	}
	n, err := p.expect(tokNumber, "")
	if err != nil {
		return nil, err
	}
	v, err := strconv.ParseFloat(n.text, 64)
	if err != nil || v <= 0 {
		return nil, fmt.Errorf("hwdb: bad EVERY interval %q", n.text)
	}
	unit, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	d, err := parseUnit(unit.text)
	if err != nil {
		return nil, err
	}
	return &SubscribeStmt{Query: sel, Every: time.Duration(v * float64(d))}, nil
}
