package hwdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/packet"
)

// DefaultRingSize is the per-table ring capacity when none is given. The
// database is ephemeral by design: when the ring wraps, the oldest events
// are forgotten.
const DefaultRingSize = 65536

// pageRows is how many rows a ring page holds: a ring grows one page at a
// time. The last page of a ring whose capacity is not a multiple of it is
// short, so a ring never holds more slots than its capacity.
const (
	pageShift = 8
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// Table is one ephemeral event stream: a schema plus a ring buffer of
// timestamped rows. The capacity is fixed at construction; the memory
// behind it is not: the ring holds min(rows inserted, capacity) slots
// rounded up to a page (never more than the capacity), so an idle table
// costs nothing but its header and "fixed-memory" is the ceiling, not the
// floor.
//
// The ring is a list of pages, each a flat rowBlock of pageRows slots: a
// slot is 1 + len(schema.Cols) eight-byte cells and nothing else, so a
// table without string columns holds no pointers for the collector to
// follow, an insert allocates nothing but the page it opens, and growing
// appends a page and never copies a row. Ring position s is row s&pageMask
// of page s>>pageShift.
//
// Rows are assumed to arrive in non-decreasing timestamp order (every
// insert is stamped from one clock): RANGE windows and rowsBetween binary
// search the ring on that order.
type Table struct {
	name     string
	schema   *Schema
	capacity int

	mu sync.RWMutex
	// pages hold slots <= capacity rows. Until the ring has grown to
	// capacity it never wraps: position i holds the i-th oldest row and
	// head == count.
	pages   []rowBlock
	slots   int
	head    int // position of next insert
	count   int // rows currently held (<= slots)
	inserts uint64
	dropped uint64

	onInsert []func(Row)
	notify   []func()
}

// NewTable creates a table with the given ring capacity. The ring holds
// no page until the first insert.
func NewTable(name string, schema *Schema, ringSize int) *Table {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Table{name: name, schema: schema, capacity: ringSize}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Cap returns the ring capacity: the most rows the table retains.
func (t *Table) Cap() int { return t.capacity }

// Len returns the number of rows currently retained.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Stats returns total inserts and rows dropped by ring wrap.
func (t *Table) Stats() (inserts, dropped uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inserts, t.dropped
}

// Insert appends a row with timestamp ts, overwriting the oldest row when
// the ring is full, then fires the table's subscriptions outside the lock.
// The values are encoded straight into the slot and vals is not retained.
func (t *Table) Insert(ts time.Time, vals []Value) error {
	if err := t.schema.Validate(vals); err != nil {
		return err
	}
	t.mu.Lock()
	if t.count == t.slots && t.slots < t.capacity {
		t.grow()
	}
	if t.count == t.slots {
		t.dropped++
	} else {
		t.count++
	}
	t.pages[t.head>>pageShift].put(t.head&pageMask, ts, vals)
	t.head = (t.head + 1) % t.slots
	t.inserts++
	subs, notify := t.onInsert, t.notify
	var row Row
	if len(subs) > 0 {
		// The slot is the next insert's to overwrite once the lock drops
		// (at capacity 1, the very next one): hooks get a copy.
		row = Row{t.copyRange(t.count-1, t.count), 0}
	}
	t.mu.Unlock()
	for _, fn := range subs {
		fn(row)
	}
	for _, fn := range notify {
		fn()
	}
	return nil
}

// grow appends a page to a full ring that is still below capacity: the
// rows already held stay where they are, and the next insert goes into the
// new page. The page is sized so the ring lands exactly on the capacity and
// never past it. The caller holds the write lock.
func (t *Table) grow() {
	n := min(pageRows, t.capacity-t.slots)
	t.pages = append(t.pages, newRowBlock(t.schema.shape, n))
	t.slots += n
	t.head = t.count // not yet wrapped: the insert that filled the ring moved head to 0
}

// OnInsert registers fn to run for every inserted row, with a copy of the
// row that is fn's to keep. Used by the in-process subscription path (the
// artifact's DHCP-flash mode, for example). The copy is an allocation or
// three per insert: a subscriber that only wants to know uses Notify.
func (t *Table) OnInsert(fn func(Row)) {
	t.mu.Lock()
	t.onInsert = append(t.onInsert, fn)
	t.mu.Unlock()
}

// Notify registers fn to run after every insert, without the row: the
// doorbell a cursor reader (Tail) rings itself with. It costs the inserter
// the call and nothing else.
func (t *Table) Notify(fn func()) {
	t.mu.Lock()
	t.notify = append(t.notify, fn)
	t.mu.Unlock()
}

// slot returns the ring position of the i-th oldest retained row. The
// caller holds the lock.
func (t *Table) slot(i int) int {
	i += t.head - t.count
	if i < 0 {
		i += t.slots
	}
	return i
}

// row returns a view of the i-th oldest retained row, on its page. The
// caller holds the lock, and the view is good only while it does.
func (t *Table) row(i int) Row {
	s := t.slot(i)
	return Row{&t.pages[s>>pageShift], s & pageMask}
}

// copyRange returns a fresh block holding the lo-th to (hi-1)-th oldest
// rows: the one place a read pays for rows, and it pays for hi-lo of them
// in one piece, whatever their number. Nothing in the block is shared
// with the ring, so its rows stay what they were when the ring moves on.
// The caller holds the lock.
func (t *Table) copyRange(lo, hi int) *rowBlock {
	b := newRowBlock(t.schema.shape, hi-lo)
	t.copyInto(&b, lo, hi)
	return &b
}

// copyInto copies the lo-th to (hi-1)-th oldest rows into b, a block of
// hi-lo rows of the table's shape, one page's stretch at a time. The
// caller holds the lock.
func (t *Table) copyInto(b *rowBlock, lo, hi int) {
	for at := 0; lo < hi; {
		s := t.slot(lo)
		off := s & pageMask
		n := min(hi-lo, pageRows-off, t.slots-s) // a page ends at pageRows or where the ring wraps
		b.copyFrom(at, &t.pages[s>>pageShift], off, n)
		at, lo = at+n, lo+n
	}
}

// copyRows is copyRange as the row views callers get.
func (t *Table) copyRows(lo, hi int) []Row { return t.copyRange(lo, hi).rows(hi - lo) }

// firstAt returns how many retained rows fail ok, given that ok is false
// for a prefix of the rows (oldest-first) and true for the rest — which,
// for a bound on the timestamp, is the monotone-timestamp assumption.
// O(log count), on the ring itself. The caller holds the lock.
func (t *Table) firstAt(ok func(ts time.Time) bool) int {
	return sort.Search(t.count, func(i int) bool { return ok(t.row(i).Time()) })
}

// Snapshot returns the retained rows oldest-first, copied out of the ring.
// It copies the whole ring: reads that want a window use a windowed
// select.
func (t *Table) Snapshot() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.copyRows(0, t.count)
}

// Tail returns, oldest-first, the rows inserted after the first `after`
// inserts, plus the table's current total insert count. It is the batched
// cursor read aggregators use: read Tail(cursor), process the rows, set
// cursor to the returned count. Rows that wrapped out of the ring before
// being read are lost (reported via lost); the next cursor still advances
// past them. One lock acquisition and one copy per call, regardless of row
// count; the rows are the caller's to keep.
func (t *Table) Tail(after uint64) (rows []Row, inserts uint64, lost uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo, hi, lost := t.tailRange(after, t.inserts)
	if lo == hi {
		return nil, t.inserts, lost
	}
	return t.copyRows(lo, hi), t.inserts, lost
}

// tailRange locates the rows inserted after the first `after` inserts and
// no later than the upto-th (upto <= t.inserts): they are the lo-th to
// (hi-1)-th oldest retained rows, and lost more of them wrapped out of the
// ring. The caller holds the lock.
func (t *Table) tailRange(after, upto uint64) (lo, hi int, lost uint64) {
	if after >= upto {
		return 0, 0, 0
	}
	missed := upto - after        // rows in the range
	newer := t.inserts - upto     // rows inserted since, all of them retained ahead of the range
	if newer >= uint64(t.count) { // the whole range wrapped out
		return 0, 0, missed
	}
	hi = t.count - int(newer)
	if missed > uint64(hi) { // the cursor fell off the ring
		return 0, hi, missed - uint64(hi)
	}
	return hi - int(missed), hi, 0
}

// rowsBetween returns the retained rows with from <= timestamp <= to,
// oldest-first. A zero bound is open: rowsBetween(time.Time{}, to) is
// "everything up to to", the ring-local evaluation of AS OF. History
// older than the ring is gone here — a HistorySource widens the horizon.
func (t *Table) rowsBetween(from, to time.Time) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo, hi := 0, t.count
	if !from.IsZero() {
		lo = t.firstAt(func(ts time.Time) bool { return !ts.Before(from) })
	}
	if !to.IsZero() {
		hi = max(lo, t.firstAt(func(ts time.Time) bool { return ts.After(to) }))
	}
	return t.copyRows(lo, hi)
}

// scan calls fn with each retained row a window specification selects,
// oldest-first, with now anchoring RANGE windows: applyWindow(Snapshot(),
// w, now), except that the window is resolved to an index range on the
// ring and nothing is copied. fn runs under the read lock (inserters wait
// for it) and is handed views of the ring itself: a view is good until fn
// returns and must not be kept. scan stops at fn's first error.
func (t *Table) scan(w Window, now time.Time, fn func(Row) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo := 0
	switch w.Kind {
	case WindowRows:
		lo = max(0, t.count-w.N)
	case WindowRange:
		cutoff := now.Add(-w.Dur)
		lo = t.firstAt(func(ts time.Time) bool { return !ts.Before(cutoff) })
	case WindowNow:
		lo = max(0, t.count-1)
	}
	for i := lo; i < t.count; i++ {
		if err := fn(t.row(i)); err != nil {
			return err
		}
	}
	return nil
}

// applyWindow selects rows by a window specification, oldest-first. now
// anchors RANGE windows — the clock for live queries, the AS OF instant
// for time travel, so `[RANGE 5 seconds] AS OF @t` means "the five
// seconds leading up to t".
func applyWindow(rows []Row, w Window, now time.Time) []Row {
	switch w.Kind {
	case WindowAll:
		return rows
	case WindowRows:
		if w.N < len(rows) {
			rows = rows[len(rows)-w.N:]
		}
		return rows
	case WindowRange:
		cutoff := now.Add(-w.Dur)
		i := sort.Search(len(rows), func(i int) bool { return !rows[i].Time().Before(cutoff) })
		return rows[i:]
	case WindowNow:
		if len(rows) == 0 {
			return nil
		}
		return rows[len(rows)-1:]
	}
	return rows
}

// HistorySource serves retained history beyond (or instead of) a table's
// live ring: the flight recorder's compacted retention windows implement
// it. HistoryRows returns the rows for table with from <= TS <= to (zero
// bounds are open), oldest-first in insertion order, and whether the
// source covers the table at all — false falls the query back to the
// ring, so a database with a partial source still answers for every
// table.
type HistorySource interface {
	HistoryRows(table string, from, to time.Time) ([]Row, bool)
}

// DB is a named collection of tables with a clock for window evaluation.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table // by lower-cased name
	exact   map[string]*Table // by the name as created: Table's no-fold path
	clk     clock.Clock
	history HistorySource
}

// New creates an empty database using clk for RANGE windows and insertion
// timestamps (pass clock.Real{} outside tests).
func New(clk clock.Clock) *DB {
	if clk == nil {
		clk = clock.Real{}
	}
	return &DB{tables: make(map[string]*Table), exact: make(map[string]*Table), clk: clk}
}

// Clock returns the database clock.
func (db *DB) Clock() clock.Clock { return db.clk }

// SetHistory attaches the source AS OF / HISTORY queries draw retained
// rows from (nil detaches; queries then evaluate over the live rings).
func (db *DB) SetHistory(h HistorySource) {
	db.mu.Lock()
	db.history = h
	db.mu.Unlock()
}

// historyRows sources the rows for a time-travel query: the attached
// HistorySource when it covers the table, the live ring otherwise.
func (db *DB) historyRows(t *Table, from, to time.Time) []Row {
	db.mu.RLock()
	h := db.history
	db.mu.RUnlock()
	if h != nil {
		if rows, ok := h.HistoryRows(t.Name(), from, to); ok {
			return rows
		}
	}
	return t.rowsBetween(from, to)
}

// CreateTable adds a table; the name must be unused.
func (db *DB) CreateTable(name string, schema *Schema, ringSize int) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("hwdb: table %s already exists", name)
	}
	t := NewTable(name, schema, ringSize)
	db.tables[key], db.exact[name] = t, t
	return t, nil
}

// Table looks up a table by name (case-insensitive). A name spelled as it
// was created — every insert's — is found without folding it, which
// allocates.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.exact[name]; ok {
		return t, true
	}
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns the sorted table names.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// Insert validates and appends a row stamped with the database clock.
func (db *DB) Insert(table string, vals ...Value) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("hwdb: no such table %s", table)
	}
	return t.Insert(db.clk.Now(), vals)
}

// Standard Homework table names.
const (
	TableFlows    = "Flows"
	TableLinks    = "Links"
	TableLeases   = "Leases"
	TableFlowPerf = "FlowPerf"
)

// NewHomework creates a database with the four standard Homework tables,
// each laid out by HomeworkSchema.
func NewHomework(clk clock.Clock, ringSize int) *DB {
	db := New(clk)
	for _, name := range []string{TableFlows, TableLinks, TableLeases, TableFlowPerf} {
		if _, err := db.CreateTable(name, HomeworkSchema(name), ringSize); err != nil {
			panic(err)
		}
	}
	return db
}

// HomeworkSchema returns the schema of one of the four standard Homework
// tables, matching the name case-insensitively as DB.Table does, or nil for
// any other name. Each is built once per process and shared by every
// home's table: a Schema is read-only once NewSchema returns it.
//
//	Flows:    periodically observed active five-tuples with byte/packet counts
//	Links:    link-layer info per station: RSSI, retries, rates
//	Leases:   Ethernet-to-IP mappings with lease state
//	FlowPerf: per-flow interval performance from the controller's vantage —
//	          tx vs rx packet/byte deltas across the device's ingress hop,
//	          attributed loss, windowed throughput (bits/s over the actual
//	          clock-measured poll window) and rule-install latency (µs)
func HomeworkSchema(table string) *Schema {
	switch {
	case strings.EqualFold(table, TableFlows):
		return flowsSchema
	case strings.EqualFold(table, TableLinks):
		return linksSchema
	case strings.EqualFold(table, TableLeases):
		return leasesSchema
	case strings.EqualFold(table, TableFlowPerf):
		return flowPerfSchema
	}
	return nil
}

var (
	flowsSchema = flowSchema(
		Column{"packets", TInt},
		Column{"bytes", TInt},
	)
	linksSchema = NewSchema(
		Column{"mac", TMAC},
		Column{"rssi", TInt},
		Column{"retries", TInt},
		Column{"rate", TReal},
	)
	leasesSchema = NewSchema(
		Column{"action", TString}, // add | del | upd
		Column{"mac", TMAC},
		Column{"ip", TIP},
		Column{"hostname", TString},
	)
	flowPerfSchema = flowSchema(
		Column{"tx_pkts", TInt},
		Column{"tx_bytes", TInt},
		Column{"rx_pkts", TInt},
		Column{"rx_bytes", TInt},
		Column{"lost_pkts", TInt},
		Column{"bps", TReal},
		Column{"install_us", TInt},
	)
)

// flowSchema lays out a Flows or FlowPerf table: a row leads with the
// device and its five-tuple.
func flowSchema(cols ...Column) *Schema {
	return NewSchema(append([]Column{
		{"mac", TMAC}, {"saddr", TIP}, {"daddr", TIP},
		{"proto", TInt}, {"sport", TInt}, {"dport", TInt},
	}, cols...)...)
}

// InsertFlow records one observation of an active five-tuple attributed to
// the device with hardware address mac.
func (db *DB) InsertFlow(mac packet.MAC, ft packet.FiveTuple, packets, bytes uint64) error {
	return db.Insert(TableFlows,
		MACVal(mac), IPVal(ft.Src), IPVal(ft.Dst), Int64(int64(ft.Proto)),
		Int64(int64(ft.SrcPort)), Int64(int64(ft.DstPort)),
		Int64(int64(packets)), Int64(int64(bytes)))
}

// InsertLink records a link-layer observation for a station.
func (db *DB) InsertLink(mac packet.MAC, rssi, retries int, rate float64) error {
	return db.Insert(TableLinks, MACVal(mac), Int64(int64(rssi)), Int64(int64(retries)), Float(rate))
}

// InsertFlowPerf records one interval of a flow's performance seen from
// the controller: what the device transmitted (tx), what survived the
// ingress hop (rx), the attributed loss, the interval throughput in
// bits/s, and — on the row that first observes the flow — the punt-to-
// flow-mod rule-install latency in microseconds (0 = not measured).
func (db *DB) InsertFlowPerf(mac packet.MAC, ft packet.FiveTuple, txPkts, txBytes, rxPkts, rxBytes, lostPkts uint64, bps float64, installUS int64) error {
	return db.Insert(TableFlowPerf,
		MACVal(mac), IPVal(ft.Src), IPVal(ft.Dst), Int64(int64(ft.Proto)),
		Int64(int64(ft.SrcPort)), Int64(int64(ft.DstPort)),
		Int64(int64(txPkts)), Int64(int64(txBytes)),
		Int64(int64(rxPkts)), Int64(int64(rxBytes)),
		Int64(int64(lostPkts)), Float(bps), Int64(installUS))
}

// InsertLease records a DHCP lease event ("add", "del" or "upd").
func (db *DB) InsertLease(action string, mac packet.MAC, ip packet.IP4, hostname string) error {
	return db.Insert(TableLeases, Str(action), MACVal(mac), IPVal(ip), Str(hostname))
}
