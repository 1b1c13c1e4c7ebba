package hwdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// Result is a query result: a header row plus data rows, oldest-first
// unless ORDER BY reordered them. Cols is read-only: a result of a parsed
// statement, or of a SELECT * over a schema, shares it with every other
// result of the statement or schema. Its capacity is its length, so an
// append copies it.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Text renders the result as tab-separated lines, header first; the wire
// format of the UDP RPC and the input to the visualization interfaces.
func (r *Result) Text() string {
	b := appendHeaderText(nil, r.Cols)
	for _, row := range r.Rows {
		b = AppendRowText(b, row)
	}
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is not written again
}

// appendHeaderText appends the text format's header line: the column
// names, tab-separated.
func appendHeaderText(b []byte, cols []string) []byte {
	for i, c := range cols {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, c...)
	}
	return append(b, '\n')
}

// AppendRowText appends one data line of the text format: each cell as
// Value.Text renders it, tab-separated. Result.Text, a subscription's tick
// and the fleet endpoint's FLEET tick all render rows through it.
func AppendRowText(b []byte, row []Value) []byte {
	for i, v := range row {
		if i > 0 {
			b = append(b, '\t')
		}
		b = v.appendText(b)
	}
	return append(b, '\n')
}

// ParseSelect parses one SELECT statement: what a caller that runs the
// same query again and again holds on to, and hands to DB.Select.
func ParseSelect(cql string) (*SelectStmt, error) {
	st, err := Parse(cql)
	return onlySelect(cql, st, err)
}

// onlySelect is ParseSelect's answer for cql, given what cql parsed to.
func onlySelect(cql string, st Stmt, err error) (*SelectStmt, error) {
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hwdb: not a SELECT: %s", cql)
	}
	return sel, nil
}

// The text path's parse cache. A display sends the same statement text on
// every refresh, so Query and Exec parse a SELECT once per distinct text
// and look it up after that; a warm lookup allocates nothing. The cache is
// process-wide, like the select working-set pool: a statement does not
// depend on the database it runs against. It holds SELECTs of at most
// maxCachedText bytes, never a parse error, and is emptied when it holds
// maxCachedSelects and another joins. A cached statement is shared by
// every goroutine that sends its text, which is safe because Select never
// writes its statement, and it never leaves this package.
const (
	maxCachedSelects = 64
	maxCachedText    = 1 << 10
)

var parsed struct {
	sync.Mutex
	selects map[string]*SelectStmt
}

// parseCached is Parse through the cache.
func parseCached(cql string) (Stmt, error) {
	parsed.Lock()
	sel, ok := parsed.selects[cql]
	parsed.Unlock()
	if ok {
		return sel, nil
	}
	st, err := Parse(cql)
	if sel, ok := st.(*SelectStmt); ok && err == nil && len(cql) <= maxCachedText {
		parsed.Lock()
		if len(parsed.selects) >= maxCachedSelects {
			clear(parsed.selects)
		}
		if parsed.selects == nil {
			parsed.selects = make(map[string]*SelectStmt, maxCachedSelects)
		}
		// A copy of the key: cql may be a slice of a request datagram.
		parsed.selects[strings.Clone(cql)] = sel
		parsed.Unlock()
	}
	return st, err
}

// Query parses and executes a SELECT statement. A text parsed before is
// not parsed again while it stays in the parse cache.
func (db *DB) Query(cql string) (*Result, error) {
	st, err := parseCached(cql)
	sel, err := onlySelect(cql, st, err)
	if err != nil {
		return nil, err
	}
	return db.Select(sel)
}

// Exec parses and executes any statement, returning a result for SELECT and
// nil for others. A SELECT's text is parsed once, as Query's is.
func (db *DB) Exec(cql string) (*Result, error) {
	st, err := parseCached(cql)
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
// call. finish is called once, after the last row.
type rowSink interface {
	add(Row)
	finish()
}

// Select executes a parsed SELECT and returns its result, copied out of
// the working set it was built in. Over a live table nothing is copied on
// the way in: WHERE, GROUP BY and the projection are evaluated on the
// ring's own rows under the table's read lock, so an insert into that
// table waits for the window to be walked — microseconds for the windowed
// reads the displays make, the whole ring for a window-less SELECT *.
//
// Select never writes its statement, so one statement may run on any
// number of goroutines at once: the parse cache's statements and the
// displays' package-level ones are shared on this rule.
func (db *DB) Select(sel *SelectStmt) (*Result, error) {
	s, schema, rows, err := db.run(sel)
	if err != nil {
		return nil, err
	}
	return s.result(rows, schema, sel), nil
}

// SelectFunc executes a parsed SELECT as Select does and hands fn each
// result row in result order, read in place from the working set: a warm
// SelectFunc allocates nothing. fn runs after the scan, with no lock held,
// so it may query or insert. The row slice is valid only until fn returns;
// its values, strings included, may be kept. On an error fn is not called.
func (db *DB) SelectFunc(sel *SelectStmt, fn func(row []Value)) error {
	s, _, rows, err := db.run(sel)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fn(row)
	}
	s.put()
	return nil
}

// run is the executor behind Select and SelectFunc: sel's window, WHERE
// and sink over a working set from the pool, then its ORDER BY and LIMIT.
// It returns the set with the result rows, views into the set's
// accumulator, for the caller to read before it puts the set back; on an
// error the set is back already.
func (db *DB) run(sel *SelectStmt) (*selectSet, *Schema, [][]Value, error) {
	t, ok := db.Table(sel.Table)
	if !ok {
		return nil, nil, nil, fmt.Errorf("hwdb: no such table %s", sel.Table)
	}
	schema := t.Schema()
	if err := validateExpr(schema, sel.Where); err != nil {
		return nil, nil, nil, err
	}
	s := getSelectSet()
	sink, err := s.sink(schema, sel)
	if err != nil {
		s.put()
		return nil, nil, nil, err
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
	var out [][]Value
	if err == nil {
		out, err = s.finish(sink, schema, sel)
	}
	if err != nil {
		s.put()
		return nil, nil, nil, err
	}
	return s, schema, out, nil
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
	return db.Select(&SelectStmt{Items: []SelectItem{{Col: "*"}}, Table: table, HistFrom: from, HistTo: to, HasHist: true})
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

// selectSet is a select's working set — everything DB.Select builds its
// result with and then has no use for: the sink with its resolved columns,
// the group index and key buffer, the accumulator the rows are built in,
// and the row headers ORDER BY sorts. Sets are kept across calls in a
// process-wide pool, so a warm select allocates only the result it hands
// back, and a warm SelectFunc nothing.
type selectSet struct {
	proj  projection
	agg   aggregation
	acc   rowSlab
	heads [][]Value // the accumulator's rows in result order
	cols  []string  // the result's column names spelled out, for ORDER BY
	order []int     // ORDER BY columns, resolved
}

// maxPooledSet is the footprint, in bytes, above which a set is dropped
// instead of pooled — as fmt drops a printer whose buffer grew past 64 KB,
// so that one window-less SELECT * does not leave its chunks in the pool
// for good. The Figure-1 select's set at 60 groups is about 16 KB.
const maxPooledSet = 64 << 10

var selectSets = sync.Pool{New: func() any {
	return &selectSet{agg: aggregation{idx: groupIndex{hashMask: ^uint64(0)}}}
}}

// getSelectSet takes a set from the pool and seeds its index afresh: a
// select's groups come out in first-seen order whatever the seed, and
// running a select twice shows it.
func getSelectSet() *selectSet {
	s := selectSets.Get().(*selectSet)
	s.agg.idx.seed = maphash.MakeSeed()
	return s
}

// put hands s back to the pool, or drops it if it has grown past
// maxPooledSet; nothing a caller holds may point into s. Every cell the
// select wrote is zeroed first: take hands out zero cells, and a string
// left in a pooled cell would keep the ring strings it came from (a
// lease's hostname) alive.
func (s *selectSet) put() {
	if s.footprint() > maxPooledSet {
		return
	}
	s.acc.reset()
	clear(s.heads)
	s.heads = s.heads[:0]
	clear(s.cols)
	s.cols = s.cols[:0]
	s.agg.sel = nil
	s.agg.idx.reset()
	selectSets.Put(s)
}

// footprint is what s holds on to that grows with a select's rows and
// groups, in bytes.
func (s *selectSet) footprint() int {
	x := &s.agg.idx
	n := cap(s.heads)*int(unsafe.Sizeof([]Value(nil))) + cap(s.agg.keyBuf) + cap(x.keys) + 4*(cap(x.slots)+cap(x.ends))
	for _, c := range s.acc.chunks[:cap(s.acc.chunks)] {
		n += cap(c) * int(unsafe.Sizeof(Value{}))
	}
	return n
}

// sink readies s for sel: its projection or its aggregation.
func (s *selectSet) sink(schema *Schema, sel *SelectStmt) (rowSink, error) {
	if sel.aggregates() {
		return s.aggregate(schema, sel)
	}
	return s.project(schema, sel)
}

// resultCols is the names of sel's result columns over schema when they
// are fixed already: the list the parser made for sel, or the schema's *
// for a projection of * alone. Results share it, so it is read-only. It is
// nil for a statement mixing * with other items, or built by hand with
// other items than a bare *; appendCols spells those out.
func resultCols(schema *Schema, sel *SelectStmt) []string {
	if sel.cols != nil {
		return sel.cols
	}
	if len(sel.Items) == 1 && sel.Items[0].Col == "*" && !sel.aggregates() {
		return schema.star
	}
	return nil
}

// appendCols appends the names of sel's result columns over schema to
// cols: a projection's items with * spelled out as the timestamp and every
// column, an aggregate's items.
func appendCols(cols []string, schema *Schema, sel *SelectStmt) []string {
	stars := !sel.aggregates()
	for _, it := range sel.Items {
		if stars && it.Col == "*" {
			cols = append(cols, "timestamp")
			for _, c := range schema.Cols {
				cols = append(cols, c.Name)
			}
			continue
		}
		cols = append(cols, it.Name)
	}
	return cols
}

// finish finishes the sink and returns its rows, views into the
// accumulator, in the order sel's ORDER BY asks, at most its LIMIT of
// them.
func (s *selectSet) finish(sink rowSink, schema *Schema, sel *SelectStmt) ([][]Value, error) {
	sink.finish()
	s.heads = s.acc.appendRows(s.heads[:0])
	heads := s.heads
	if len(sel.Order) > 0 {
		if err := s.orderRows(heads, schema, sel); err != nil {
			return nil, err
		}
	}
	if sel.Limit > 0 && len(heads) > sel.Limit {
		heads = heads[:sel.Limit]
	}
	return heads, nil
}

// result is Select's way out of a finished set: heads with the column
// names. A set that stays under maxPooledSet goes back to the pool, so the
// rows are first copied into one block of exactly their cells: the result
// costs Result, the block and its row headers, and Cols only when
// resultCols has no list to share. A larger set is not pooled, and nothing
// is copied: the rows are cut from the accumulator's chunks as they stand,
// and the set goes with the result.
func (s *selectSet) result(heads [][]Value, schema *Schema, sel *SelectStmt) *Result {
	w := s.acc.width
	cols := resultCols(schema, sel)
	if cols == nil {
		cols = appendCols(make([]string, 0, w), schema, sel)
	}
	if s.footprint() > maxPooledSet {
		return &Result{Cols: cols, Rows: heads}
	}
	block := make([]Value, len(heads)*w)
	rows := make([][]Value, len(heads))
	for i, h := range heads {
		rows[i] = block[i*w : (i+1)*w : (i+1)*w]
		copy(rows[i], h)
	}
	s.put()
	return &Result{Cols: cols, Rows: rows}
}

// orderRows sorts heads, stably, by sel's ORDER BY columns of the result.
func (s *selectSet) orderRows(heads [][]Value, schema *Schema, sel *SelectStmt) error {
	order := sel.Order
	cols := resultCols(schema, sel)
	if cols == nil {
		s.cols = appendCols(s.cols[:0], schema, sel)
		cols = s.cols
	}
	s.order = s.order[:0]
	for _, ob := range order {
		found := -1
		for j, c := range cols {
			if strings.EqualFold(c, ob.Col) {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("hwdb: ORDER BY column %q not in result", ob.Col)
		}
		s.order = append(s.order, found)
	}
	idx := s.order
	slices.SortStableFunc(heads, func(a, b []Value) int {
		for i, ob := range order {
			va, vb := a[idx[i]], b[idx[i]]
			if va.equal(vb) {
				continue
			}
			if ob.Desc {
				va, vb = vb, va
			}
			switch {
			case va.less(vb):
				return -1
			case vb.less(va):
				return 1
			}
			return 0
		}
		return 0
	})
	return nil
}

// rowSlab is the accumulator a select's rows are built in: rows of width
// cells handed out of chunks that double in size and never move. Chunk k
// holds 1<<(shift+k) rows, so n rows cost about log2(n) chunk allocations,
// and nothing is copied when the next chunk arrives — a grown slice would
// copy every 40-byte cell it already held at each doubling. A pooled slab
// keeps its chunks, every cell zero, for the next select: chunk k is
// reused whenever it has room for that select's chunk k.
type rowSlab struct {
	width  int
	shift  uint       // chunk 0 holds 1<<shift rows
	n      int        // rows handed out
	chunks [][]Value  // in use; chunks[len:cap] are kept from earlier selects
	inline [6][]Value // backs chunks until a seventh is needed
}

// slabShift makes chunk 0 four rows for a result that may hold many: that
// is what a one-row result pays for, and four doublings later a chunk
// holds 64.
const slabShift = 2

// start readies an empty slab for rows of width cells.
func (s *rowSlab) start(width int, shift uint) { s.width, s.shift = width, shift }

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
		if size := s.width << (s.shift + uint(k)); k < cap(s.chunks) && cap(s.chunks[:k+1][k]) >= size {
			s.chunks = s.chunks[:k+1]
		} else {
			s.chunks = append(s.chunks, make([]Value, size))
			if k == len(s.inline) {
				s.inline = [len(s.inline)][]Value{} // chunks has moved off it
			}
		}
	}
	s.n++
	return s.row(s.n - 1)
}

// appendRows appends the rows handed out, in order, to heads.
func (s *rowSlab) appendRows(heads [][]Value) [][]Value {
	heads = slices.Grow(heads, s.n)
	for i := 0; i < s.n; i++ {
		heads = append(heads, s.row(i))
	}
	return heads
}

// reset zeroes every row handed out and empties the slab, keeping its
// chunks.
func (s *rowSlab) reset() {
	for k, c := range s.chunks {
		first := (1<<k - 1) << s.shift
		clear(c[:min(s.n-first, 1<<(s.shift+uint(k)))*s.width])
	}
	s.n, s.chunks = 0, s.chunks[:0]
}

// projection is the rowSink of a plain SELECT col,... (or *) without
// aggregation.
type projection struct {
	refs []int // column per output cell; -1 = the timestamp pseudo-column
	out  *rowSlab
}

// project readies s's projection for sel.
func (s *selectSet) project(schema *Schema, sel *SelectStmt) (*projection, error) {
	n := len(sel.Items)
	for _, it := range sel.Items {
		if it.Col == "*" {
			n += len(schema.Cols)
		}
	}
	p := &s.proj
	p.refs = slices.Grow(p.refs[:0], n)
	for _, it := range sel.Items {
		if it.Col == "*" {
			p.refs = append(p.refs, -1)
			for i := range schema.Cols {
				p.refs = append(p.refs, i)
			}
			continue
		}
		if strings.EqualFold(it.Col, "timestamp") {
			p.refs = append(p.refs, -1)
			continue
		}
		i, ok := schema.Index(it.Col)
		if !ok {
			return nil, fmt.Errorf("hwdb: unknown column %q", it.Col)
		}
		p.refs = append(p.refs, i)
	}
	s.acc.start(n, slabShift)
	p.out = &s.acc
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

func (p *projection) finish() {}

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

// reset empties the index, keeping its table and arena, and undoes any
// narrowing of the hash.
func (x *groupIndex) reset() {
	clear(x.slots)
	x.ends, x.keys = x.ends[:0], x.keys[:0]
	x.hashMask = ^uint64(0)
}

// aggregation is the rowSink of GROUP BY and aggregate select items. A
// group is its result row and nothing else: GROUP BY cells are written
// into the row when the group is first seen, and an aggregate accumulates
// in its own cell — count in Int, sum in Real, avg in both, min and max as
// the value so far — which finish then stamps with its type.
type aggregation struct {
	sel      *SelectStmt
	resolved []int // backs groupIdx and src
	groupIdx []int // GROUP BY columns
	src      []int // per select item: the column it reads (unused for count(*))
	idx      groupIndex
	keyBuf   []byte // reused for every row
	out      *rowSlab
}

// aggregate readies s's aggregation for sel.
func (s *selectSet) aggregate(schema *Schema, sel *SelectStmt) (*aggregation, error) {
	a := &s.agg
	ng := len(sel.GroupBy)
	a.resolved = slices.Grow(a.resolved[:0], ng+len(sel.Items))[:ng+len(sel.Items)]
	a.sel, a.groupIdx, a.src = sel, a.resolved[:ng], a.resolved[ng:]
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
	shift := uint(0) // chunk 0 one row: without GROUP BY there is one group
	if ng > 0 {
		shift = slabShift
		a.keyBuf = slices.Grow(a.keyBuf[:0], 8*ng)
	}
	s.acc.start(len(sel.Items), shift)
	a.out = &s.acc
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
			if v := row.Value(a.src[i]); fresh || v.less(*cell) {
				*cell = v
			}
		case AggMax:
			if v := row.Value(a.src[i]); fresh || cell.less(v) {
				*cell = v
			}
		}
	}
}

func (a *aggregation) finish() {
	sel := a.sel
	if a.out.n == 0 && len(sel.GroupBy) == 0 {
		// A bare aggregate over zero rows still yields one row: count and
		// sum 0, min and max null.
		a.out.take()
	}
	for r := 0; r < a.out.n; r++ {
		out := a.out.row(r)
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
