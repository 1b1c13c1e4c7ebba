package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/hwdb"
	"repro/internal/trace"
)

// Server is the streaming fleet endpoint: an hwdb.Server over the
// folder's FleetStats view (so hwdb.Client drives it unchanged) with the
// fleet verb set registered on it:
//
//	EXEC        body = one CQL SELECT against the FleetStats view
//	            (including AS OF @<nanos> / HISTORY @<from> @<to> time
//	            travel when a flight recorder is attached to the view)
//	STATS       one-row tabular fleet totals + windowed rates
//	TRACE       per-stage punt-lifecycle latency summary (fleet-merged)
//	REPLAY      body = <home> <table> [@<from> [@<to>]]; scrubs the flight
//	            recorder's retained rows for one home's table
//	            (ERR when no replay source is installed)
//	SUBSCRIBE   body = [SUBSCRIBE] FLEET EVERY <n> <unit>; OK arg is the id
//	UNSUBSCRIBE body = id
//	PING
//
// Subscription pushes are per-home DELTAS: each push carries one row per
// home whose counters advanced since the previous push to that
// subscriber, with its current windowed rate. Ticks where nothing changed
// send no datagram at all — an idle fleet costs an idle subscriber
// nothing — and a client re-syncs by summing deltas, never by re-query.
type Server struct {
	*hwdb.Server
	folder *Folder
	// traceFn supplies fleet-merged punt-lifecycle stage summaries for
	// the TRACE verb (atomic: SetTraceSource may race in-flight requests).
	traceFn atomic.Pointer[func() []trace.StageStats]
	// replayFn serves the REPLAY verb from the flight recorder's
	// retained windows (same atomic discipline as traceFn).
	replayFn atomic.Pointer[func(home uint64, table string, from, to time.Time) (*hwdb.Result, error)]
}

// NewServer creates a server over folder. Call Serve to start it.
func NewServer(folder *Folder) *Server {
	view := folder.View() // runs on the folder's clock, so pushes do too
	s := &Server{Server: hwdb.NewServer(view), folder: folder}
	s.Handle("EXEC", func(body string) (*hwdb.Result, error) { return view.Query(strings.TrimSpace(body)) })
	s.Handle("STATS", s.stats)
	s.Handle("TRACE", s.stages)
	s.Handle("REPLAY", s.replay)
	s.HandleSubscribe("FLEET", s.fleetTick)
	return s
}

// SetTraceSource installs the function the TRACE verb calls for fleet-
// merged punt-lifecycle stage summaries (fleet.TraceStats, typically).
// Safe to call at any time, including while serving; a server without
// one answers TRACE with an empty table.
func (s *Server) SetTraceSource(fn func() []trace.StageStats) { s.traceFn.Store(&fn) }

// SetReplaySource installs the function the REPLAY verb calls to scrub a
// home's recorded table history (flight.Recorder.Replay, typically). Safe
// to call at any time; a server without one answers REPLAY with an error.
func (s *Server) SetReplaySource(fn func(home uint64, table string, from, to time.Time) (*hwdb.Result, error)) {
	s.replayFn.Store(&fn)
}

// homeMark is the cumulative state last pushed to a subscriber for one
// home; the next push carries the delta past it.
type homeMark struct {
	flows, links         uint64
	packets, bytes, lost uint64
}

var pushCols = []string{"home", "hosts", "flows", "packets", "bytes", "links", "lost", "bytes_s", "pkts_s"}

// fleetTick is one FLEET subscription's tick: diff the folder's per-home
// cumulative counters against what this subscriber has seen and push only
// the homes that moved. Nothing moved -> no datagram. The push is built
// against the datagram budget row by row: a home's mark advances only
// when its row actually fits, so deltas that overflow one datagram are
// carried — never silently dropped — and each tick resumes round-robin
// from where the previous push stopped, so a fleet too busy for one
// datagram cannot starve its high-ID homes. A tick reads the totals and
// renders the body into buffers it keeps.
func (s *Server) fleetTick(budget int) func() []byte {
	seen := make(map[uint64]homeMark)
	head := []byte(strings.Join(pushCols, "\t") + "\n")
	var (
		hts    []HomeTotals
		body   []byte
		resume uint64 // first home ID to consider this tick
	)
	return func() []byte {
		hts = s.folder.appendHomeTotals(hts[:0])
		if len(hts) == 0 {
			return nil
		}
		// Rotate the ascending-ID list so iteration starts at the resume
		// cursor and wraps, visiting every home once.
		start := 0
		for i, ht := range hts {
			if ht.Home >= resume {
				start = i
				break
			}
		}
		body = append(body[:0], head...)
		rows, full := 0, false
		for k := 0; k < len(hts); k++ {
			ht := hts[(start+k)%len(hts)]
			m := seen[ht.Home]
			if ht.Flows == m.flows && ht.Links == m.links && ht.Lost == m.lost {
				continue
			}
			n := len(body)
			if body = appendDeltaLine(body, ht, m); len(body) > budget {
				// The rest ride the next push; resume with this home.
				body, resume, full = body[:n], ht.Home, true
				break
			}
			rows++
			seen[ht.Home] = homeMark{
				flows: ht.Flows, links: ht.Links,
				packets: ht.Packets, bytes: ht.Bytes, lost: ht.Lost,
			}
		}
		if !full {
			resume = 0
		}
		if rows == 0 {
			return nil // idle tick: no datagram
		}
		return body
	}
}

// appendDeltaLine appends one home's delta-past-mark as a tabular body
// line, rendered by hwdb's own row renderer (so ParseText reads it).
func appendDeltaLine(b []byte, ht HomeTotals, m homeMark) []byte {
	return hwdb.AppendRowText(b, []hwdb.Value{
		hwdb.Int64(int64(ht.Home)),
		hwdb.Int64(int64(ht.Hosts)),
		hwdb.Int64(int64(ht.Flows - m.flows)),
		hwdb.Int64(int64(ht.Packets - m.packets)),
		hwdb.Int64(int64(ht.Bytes - m.bytes)),
		hwdb.Int64(int64(ht.Links - m.links)),
		hwdb.Int64(int64(ht.Lost - m.lost)),
		hwdb.Float(ht.Rate.BytesPerSec),
		hwdb.Float(ht.Rate.PacketsPerSec),
	})
}

// replay parses "<home> <table> [@<from> [@<to>]]" (timestamps in unix
// nanoseconds, the leading @ optional) and scrubs the installed replay
// source.
func (s *Server) replay(body string) (*hwdb.Result, error) {
	fn := s.replayFn.Load()
	if fn == nil {
		return nil, fmt.Errorf("no replay source (flight recorder not attached)")
	}
	fields := strings.Fields(strings.TrimSpace(body))
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("body must be <home> <table> [<from> [<to>]]")
	}
	home, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad home id %q", fields[0])
	}
	parseTS := func(s string) (time.Time, error) {
		n, err := strconv.ParseInt(strings.TrimPrefix(s, "@"), 10, 64)
		if err != nil {
			return time.Time{}, fmt.Errorf("bad timestamp %q", s)
		}
		return time.Unix(0, n), nil
	}
	var from, to time.Time
	if len(fields) >= 3 {
		if from, err = parseTS(fields[2]); err != nil {
			return nil, err
		}
	}
	if len(fields) == 4 {
		if to, err = parseTS(fields[3]); err != nil {
			return nil, err
		}
	}
	return (*fn)(home, fields[1], from, to)
}

// stats renders the live totals and fleet rate as one tabular row.
func (s *Server) stats(string) (*hwdb.Result, error) {
	t := s.folder.Totals()
	r := s.folder.FleetRate()
	return &hwdb.Result{
		Cols: []string{"homes", "hosts", "flows", "links", "leases", "packets", "bytes", "lost", "bytes_s", "pkts_s"},
		Rows: [][]hwdb.Value{{
			hwdb.Int64(int64(t.Homes)),
			hwdb.Int64(int64(t.Hosts)),
			hwdb.Int64(int64(t.Flows)),
			hwdb.Int64(int64(t.Links)),
			hwdb.Int64(int64(t.Leases)),
			hwdb.Int64(int64(t.Packets)),
			hwdb.Int64(int64(t.Bytes)),
			hwdb.Int64(int64(t.Lost)),
			hwdb.Float(r.BytesPerSec),
			hwdb.Float(r.PacketsPerSec),
		}},
	}, nil
}

// stages renders the punt-lifecycle stage summaries as a tabular result:
// one row per contract transition, latencies in microseconds.
func (s *Server) stages(string) (*hwdb.Result, error) {
	res := &hwdb.Result{
		Cols: []string{"stage", "count", "p50_us", "p99_us", "max_us", "mean_us"},
	}
	fn := s.traceFn.Load()
	if fn == nil {
		return res, nil
	}
	for _, st := range (*fn)() {
		res.Rows = append(res.Rows, []hwdb.Value{
			hwdb.Str(st.Stage),
			hwdb.Int64(int64(st.Count)),
			hwdb.Float(st.P50NS / 1e3),
			hwdb.Float(st.P99NS / 1e3),
			hwdb.Float(float64(st.MaxNS) / 1e3),
			hwdb.Float(st.MeanNS / 1e3),
		})
	}
	return res, nil
}
