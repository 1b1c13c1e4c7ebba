// Package flight is the fleet flight recorder: a retention store attached
// at the telemetry hub/federation subscriber seam that keeps time-bucketed
// windows of every watched table's rows, serves hwdb time-travel queries
// (AS OF / HISTORY) against them, and snapshots incident bundles on health
// verdicts and remediation actions.
//
// The recorder consumes Deltas inside the hub's synchronous drain pass —
// the same seam the telemetry folder and the health monitor use — so the
// insert hot path is untouched: inserters still pay one atomic load, a CAS
// and a non-blocking send, and the recorder's locks are only ever taken on
// the drain goroutine (or the Folder.Commit goroutine for the view table).
// The pass lends a delta's rows for the call, so the recorder copies what
// it keeps into arrays each window owns.
//
// Accounting composes with the hub's delivered+lost books: every row the
// hub delivers (plus every directly watched view row) is either still
// stored in a window or has been compacted away, exactly — Delivered +
// ViewRows == Stored + Compacted always holds, and Lost mirrors the
// hub's loss count for the same streams.
package flight

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hwdb"
	"repro/internal/telemetry"
)

// ViewHome is the reserved pseudo-home ID under which federation-level
// view tables (FleetStats) are recorded. Real home IDs are small fleet
// indexes, so the top of the ID space is safe.
const ViewHome = ^uint64(0)

// DefaultWindow is the bucket width when RecorderConfig.Window is zero.
const DefaultWindow = time.Second

// DefaultRetention is how far back windows are kept when
// RecorderConfig.Retention is zero.
const DefaultRetention = 10 * time.Minute

// RecorderConfig parameterizes a Recorder.
type RecorderConfig struct {
	// Window is the time-bucket width; rows whose timestamps fall in the
	// same Window-sized bucket share one window buffer. Default 1s.
	Window time.Duration
	// Retention is how far behind a stream's newest row windows are
	// kept; older windows are compacted away (their rows counted, then
	// dropped). Default 10m; negative keeps everything.
	Retention time.Duration
	// Schema resolves a table name to its schema for Replay projection.
	// Unset, the standard Homework layout plus any schema learned from
	// AttachView is used.
	Schema func(table string) *hwdb.Schema
}

// RecorderStats is the recorder's book: totals across all streams.
// Delivered + ViewRows == Stored + Compacted is an invariant, and
// Delivered reconciles exactly against the source hub's own delivered
// count when the recorder was attached before the first drain.
type RecorderStats struct {
	Streams   int    // distinct (home, table) streams seen
	Windows   int    // live window buffers across all streams
	Delivered uint64 // rows consumed from hub deltas
	ViewRows  uint64 // rows recorded via AttachView hooks
	Stored    uint64 // rows currently held in windows
	Compacted uint64 // rows evicted by retention
	Lost      uint64 // loss reported in-band by consumed deltas
}

// windowBuf is one time bucket of a stream: rows in insertion order whose
// timestamps all fall in [bucket*window, (bucket+1)*window).
type windowBuf struct {
	bucket int64
	rows   []hwdb.Row
}

// stream is the retained history of one (home, table) source.
type stream struct {
	windows []*windowBuf
	newest  time.Time // largest row TS seen, drives retention eviction
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use; consume/ingest run on hub drain goroutines, queries on any.
type Recorder struct {
	cfg RecorderConfig

	mu      sync.Mutex
	streams map[telemetry.SourceID]*stream
	schemas map[string]*hwdb.Schema // learned via AttachView

	delivered, viewRows, stored, compacted, lost uint64
}

// NewRecorder builds a recorder. Attach it to a hub or federation with
// Attach, and to a folder's view database with AttachView.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Retention == 0 {
		cfg.Retention = DefaultRetention
	}
	return &Recorder{
		cfg:     cfg,
		streams: make(map[telemetry.SourceID]*stream),
		schemas: make(map[string]*hwdb.Schema),
	}
}

// Attach registers the recorder's delta consumer on src — a shard's
// *telemetry.Hub or the coordinator's *telemetry.Federation. Call before
// the source's first drain (for manual-mode fleets: before the first
// Sync) so the recorder's books start from row zero and reconcile exactly
// against the hub's delivered count.
func (r *Recorder) Attach(src telemetry.Source) {
	src.SubscribeFunc(r.consume)
}

// AttachView wires the recorder into a view database: watches the named
// table and installs the recorder as the database's HistorySource so AS
// OF / HISTORY queries against the view reach retained windows instead of
// only the live ring.
//
// The view's inserts happen on the Commit goroutine, not the pinned insert
// hot path, so the recorder hooks the table directly and records every
// future insert under (ViewHome, table).
func (r *Recorder) AttachView(db *hwdb.DB, table string) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("flight: no such view table %s", table)
	}
	id := telemetry.SourceID{Home: ViewHome, Table: t.Name()}
	r.mu.Lock()
	if _, ok := r.streams[id]; !ok {
		r.streams[id] = &stream{}
	}
	r.schemas[t.Name()] = t.Schema()
	r.mu.Unlock()
	t.OnInsert(func(row hwdb.Row) { r.ingest(id, row) })
	db.SetHistory(historyFor{r: r, home: ViewHome})
	return nil
}

// consume is the hub subscriber: one delta, oldest-first rows. The hub
// lends the rows for the call, so each run of them that falls in one
// window is copied into arrays of that window's own: a window evicted
// frees its rows, and keeps no other window's alive.
func (r *Recorder) consume(d telemetry.Delta) {
	r.mu.Lock()
	s := r.streams[d.Source]
	if s == nil {
		s = &stream{}
		r.streams[d.Source] = s
	}
	for i := 0; i < len(d.Rows); {
		b := r.bucket(d.Rows[i])
		j := i + 1
		for j < len(d.Rows) && r.bucket(d.Rows[j]) == b {
			j++
		}
		var own hwdb.RowBuilder
		r.append(s, b, own.Copy(d.Rows[i:j]))
		i = j
	}
	r.delivered += uint64(len(d.Rows))
	r.stored += uint64(len(d.Rows))
	r.lost += d.Lost
	r.compact(s)
	r.mu.Unlock()
}

// ingest records one direct table insert (AttachView path): a hook row,
// which is the recorder's to keep.
func (r *Recorder) ingest(id telemetry.SourceID, row hwdb.Row) {
	r.mu.Lock()
	s := r.streams[id]
	if s == nil {
		s = &stream{}
		r.streams[id] = s
	}
	r.append(s, r.bucket(row), []hwdb.Row{row})
	r.viewRows++
	r.stored++
	r.compact(s)
	r.mu.Unlock()
}

// bucket returns the window a row's timestamp falls in.
func (r *Recorder) bucket(row hwdb.Row) int64 {
	return row.Time().UnixNano() / int64(r.cfg.Window)
}

// append places rows, which all fall in window b, into it. Rows arrive
// oldest-first per stream, so the target bucket is always the last window
// or a new one.
func (r *Recorder) append(s *stream, b int64, rows []hwdb.Row) {
	n := len(s.windows)
	if n == 0 || s.windows[n-1].bucket != b {
		s.windows = append(s.windows, &windowBuf{bucket: b, rows: rows})
	} else {
		w := s.windows[n-1]
		w.rows = append(w.rows, rows...)
	}
	for _, row := range rows {
		if ts := row.Time(); ts.After(s.newest) {
			s.newest = ts
		}
	}
}

// compact evicts windows past retention (relative to the stream's newest
// row, so idle fleets on stopped clocks never decay), with exact
// accounting. Caller holds r.mu.
func (r *Recorder) compact(s *stream) {
	evict := 0
	if r.cfg.Retention > 0 {
		cut := s.newest.Add(-r.cfg.Retention).UnixNano() / int64(r.cfg.Window)
		for evict < len(s.windows)-1 && s.windows[evict].bucket < cut {
			evict++
		}
	}
	for _, w := range s.windows[:evict] {
		r.stored -= uint64(len(w.rows))
		r.compacted += uint64(len(w.rows))
	}
	if evict > 0 {
		s.windows = append(s.windows[:0], s.windows[evict:]...)
	}
}

// Rows returns copies of the retained rows for (home, table) with
// from <= TS <= to, oldest-first. Zero bounds are open.
func (r *Recorder) Rows(home uint64, table string, from, to time.Time) []hwdb.Row {
	rows, _ := r.rows(home, table, from, to)
	return rows
}

func (r *Recorder) rows(home uint64, table string, from, to time.Time) ([]hwdb.Row, bool) {
	id := telemetry.SourceID{Home: home, Table: table}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.streams[id]
	if !ok {
		return nil, false
	}
	var out []hwdb.Row
	for _, w := range s.windows {
		for _, row := range w.rows {
			ts := row.Time()
			if !from.IsZero() && ts.Before(from) {
				continue
			}
			if !to.IsZero() && ts.After(to) {
				continue
			}
			out = append(out, row)
		}
	}
	return out, true
}

// historyFor adapts one home's streams to hwdb.HistorySource so a view
// database's AS OF / HISTORY queries read retained windows.
type historyFor struct {
	r    *Recorder
	home uint64
}

// HistoryRows implements hwdb.HistorySource: ok is false for tables the
// recorder has never seen, letting the database fall back to its ring.
func (h historyFor) HistoryRows(table string, from, to time.Time) ([]hwdb.Row, bool) {
	return h.r.rows(h.home, table, from, to)
}

// Schema resolves a table's schema for Replay: the configured resolver,
// then schemas learned from AttachView, then the standard
// Homework layout.
func (r *Recorder) Schema(table string) *hwdb.Schema {
	if r.cfg.Schema != nil {
		if s := r.cfg.Schema(table); s != nil {
			return s
		}
	}
	r.mu.Lock()
	s := r.schemas[table]
	r.mu.Unlock()
	if s != nil {
		return s
	}
	return hwdb.HomeworkSchema(table)
}

// Replay projects the retained rows for (home, table) in [from, to] as a
// query result: a timestamp column followed by the table's columns. It is
// the engine behind the REPLAY RPC verb and `hwctl replay`.
func (r *Recorder) Replay(home uint64, table string, from, to time.Time) (*hwdb.Result, error) {
	schema := r.Schema(table)
	if schema == nil {
		return nil, fmt.Errorf("flight: unknown table %s", table)
	}
	rows, ok := r.rows(home, table, from, to)
	if !ok {
		return nil, fmt.Errorf("flight: no recorded stream for home %d table %s", home, table)
	}
	res := &hwdb.Result{Cols: append([]string{"timestamp"}, schema.Names()...)}
	for _, row := range rows {
		out := make([]hwdb.Value, 0, row.NumCols()+1)
		out = append(out, hwdb.TimeVal(row.Time()))
		for i := 0; i < row.NumCols(); i++ {
			out = append(out, row.Value(i))
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// Homes lists the distinct home IDs with at least one recorded stream,
// ascending; ViewHome is included when the view is watched.
func (r *Recorder) Homes() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []uint64
	for id := range r.streams {
		if !seen[id.Home] {
			seen[id.Home] = true
			out = append(out, id.Home)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats returns the recorder's book. Delivered + ViewRows == Stored +
// Compacted is an invariant; callers reconcile Delivered against the
// hub's own delivered count and Lost against the hub's loss book.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RecorderStats{
		Streams:   len(r.streams),
		Delivered: r.delivered,
		ViewRows:  r.viewRows,
		Stored:    r.stored,
		Compacted: r.compacted,
		Lost:      r.lost,
	}
	for _, s := range r.streams {
		st.Windows += len(s.windows)
	}
	return st
}
