// Package shardrpc defines the fleet's one shard contract, Backend, and
// carries it across a process boundary: length-prefixed frames over TCP,
// HWDB/1-style text verb headers with compact binary bodies, plus a
// telemetry batch relay that streams a remote engine's hub deltas back
// into a coordinator-side hub under the exact-accounting invariant
// (delivered+lost == inserts across every incarnation, now across
// processes). Neither side folds the deltas: the coordinator's
// federation does, once.
//
// # Wire format
//
// Every message is one frame: a 4-byte big-endian payload length
// followed by the payload, capped at MaxFrame. The payload opens with a
// single text header line and continues with a binary body whose shape
// the verb determines:
//
//	request:  "HWSH/2 <seq> <VERB>\n"       + body
//	response: "HWSH/2 <seq> OK <VERB>\n"    + body
//	response: "HWSH/2 <seq> ERR <message>\n"  (no body)
//
// Body integers are varints (unsigned, or zigzag where negative values
// are legal), floats are 8-byte IEEE-754 bits, strings and byte counts
// are length-prefixed with allocation guarded by the bytes actually
// remaining in the frame. A telemetry batch states the rows, cells,
// strings and runs of all its deltas up front and carries each delta's
// rows as hwdb lays them out: its shape once, then its cells as the ring
// holds them (hwdb.AppendRows), so the decoder reads the whole batch into
// one hwdb.RowBuilder. Each body — request, response, batch, books, stats,
// trace — is written once, as its fields in wire order, and one coder runs
// that layout both to encode and to decode it; only the text header line
// and a batch's rows have codecs of their own. Decoders are strict:
// truncated or trailing bytes, unknown verbs, bad column-type tags, totals
// the deltas disagree with and histogram dimension mismatches are errors
// — never a panic, never an over-read. Header lines are parsed in place. OK responses echo the
// verb so a response is self-describing to a decoder that never saw the
// request. HWSH/2 replaced HWSH/1, which tagged and varint-coded every
// cell; the two do not interoperate.
//
// # Telemetry and accounting
//
// The worker's server buffers every delta its engine hub fans out and
// piggybacks the buffered batch on SYNC and DRAIN responses — the two
// verbs whose handling flushes the hub — committing the batch only after
// the response bytes are written. Each batch carries a sequence number
// and the worker's cumulative sent-row/sent-lost books; the client feeds
// batches into a telemetry.Hub with Hub.Ingest and tracks what it has
// accounted. On (re)connect the client issues RESYNC, reads the worker's
// committed books and accounts any gap as lost via Hub.AccountLost:
// rows a dying connection swallowed are never retransmitted, but they
// are never uncounted either, so federated delivered+lost still equals
// every row any incarnation ever inserted.
//
// # Clocks
//
// SYNC carries the coordinator's current time. A worker driving a
// simulated clock advances it to that instant before flushing, so the
// remote order matches the in-process one (step barrier, clock advance,
// sync) and timestamps are identical run to run.
package shardrpc

import (
	"repro/internal/fleet/engine"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MaxFrame bounds one frame's payload. A SYNC batch for a busy shard is
// the largest message; 16 MiB is ~two orders of magnitude above what a
// 64-home shard produces per tick.
const MaxFrame = 16 << 20

// Protocol verbs. Requests carry the verb; OK responses echo it.
const (
	VerbAssign   = "ASSIGN"
	VerbDrain    = "DRAIN"
	VerbCordon   = "CORDON"
	VerbUncordon = "UNCORDON"
	VerbStep     = "STEP"
	VerbSync     = "SYNC"
	VerbStats    = "STATS"
	VerbTrace    = "TRACE"
	VerbResync   = "RESYNC"
	VerbClose    = "CLOSE"
	VerbPing     = "PING"
)

// verbs are the protocol verbs; decoders reject anything else.
var verbs = []string{VerbAssign, VerbDrain, VerbCordon, VerbUncordon, VerbStep,
	VerbSync, VerbStats, VerbTrace, VerbResync, VerbClose, VerbPing}

// Request is one decoded request frame. Which fields are meaningful
// depends on Verb: ID for ASSIGN/DRAIN/CORDON/UNCORDON, DT for STEP, Now
// for SYNC; the remaining verbs have empty bodies.
type Request struct {
	Seq  uint64
	Verb string
	ID   uint64
	DT   float64
	// Now is the coordinator clock at SYNC time, in nanoseconds since
	// the Unix epoch; zero means "do not advance the worker clock".
	Now int64
}

// Books is the worker's committed telemetry ledger: the sequence number
// of the last batch whose response write succeeded and the cumulative
// rows and in-band lost counts those batches carried. RESYNC returns it
// so a reconnecting client can account the gap.
type Books struct {
	Seq      uint64
	SentRows uint64
	SentLost uint64
}

// Batch is the telemetry payload piggybacked on SYNC and DRAIN
// responses: the deltas the worker's hub fanned out since the last
// committed batch. Seq increments only when Deltas is non-empty;
// SentRows/SentLost are the worker's cumulative books including this
// batch, letting the client verify alignment on every delivery rather
// than only at reconnect.
type Batch struct {
	Seq      uint64
	SentRows uint64
	SentLost uint64
	Deltas   []telemetry.Delta
}

// Response is one decoded response frame. Err is the whole story for ERR
// responses; for OK responses the verb selects which payload field is
// set: OK for DRAIN/CORDON/UNCORDON, Batch for SYNC/DRAIN, Stats for
// STATS, Snap for TRACE, Committed for RESYNC.
type Response struct {
	Seq  uint64
	Verb string
	Err  string
	// OK is the boolean result of DRAIN/CORDON/UNCORDON.
	OK        bool
	Batch     *Batch
	Stats     *engine.Stats
	Snap      *trace.Snapshot
	Committed *Books
}
