package datapath

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Port is one switch port. Out delivers frames to whatever the port is
// attached to (a simulated link, a test harness, the upstream "ISP"). A
// frame is the sink's for the call only: its bytes sit in a scratch buffer
// or a hold-queue chunk the next frame, of any home, overwrites, so a sink
// that keeps a frame copies it. A sink never writes the frame: the same
// bytes go out again as the next copy of a repeated frame (batchRun). A
// sink's answers to Receive or ReceiveBatch wait in the inbox (inbox.go).
type Port struct {
	No     uint16
	Name   string
	HWAddr packet.MAC
	Config uint32 // openflow.PortConfig* bits
	Out    func(frame []byte)

	mu    sync.Mutex
	stats openflow.PortStats
}

// Stats returns a copy of the port counters.
func (p *Port) Stats() openflow.PortStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.PortNo = p.No
	return s
}

// countRxN charges a whole batch of received frames in one lock
// acquisition.
func (p *Port) countRxN(frames, bytes int) {
	p.mu.Lock()
	p.stats.RxPackets += uint64(frames)
	p.stats.RxBytes += uint64(bytes)
	p.mu.Unlock()
}

// countTxN charges the frames a run sent out of the port, in one lock
// acquisition.
func (p *Port) countTxN(frames, bytes uint64) {
	p.mu.Lock()
	p.stats.TxPackets += frames
	p.stats.TxBytes += bytes
	p.mu.Unlock()
}

// sink returns the port's delivery function, for a run that resolves the
// port.
func (p *Port) sink() func(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Out
}

// SetOut atomically replaces the port's delivery function (tests and
// rewiring). A run reads the sink once, when it resolves the port
// (batchRun), so the new function applies from the next call into the
// datapath, not to the rest of a call in progress: set it before traffic.
func (p *Port) SetOut(fn func(frame []byte)) {
	p.mu.Lock()
	p.Out = fn
	p.mu.Unlock()
}

// forwards reports whether the port transmits: it is neither down nor
// configured not to forward.
func (p *Port) forwards() bool {
	return p.Config&(openflow.PortConfigDown|openflow.PortConfigNoFwd) == 0
}

// CountRxDrop records a receive-side drop (e.g. wireless loss).
func (p *Port) CountRxDrop() {
	p.mu.Lock()
	p.stats.RxDropped++
	p.mu.Unlock()
}

// Config values for NewDatapath.
type Config struct {
	ID          uint64
	Clock       clock.Clock
	NBuffers    int    // packet-in buffer slots (default 256)
	MissSendLen uint16 // default 128
	Description string
	// Tracer, when set, opens a punt-lifecycle span for every packet-in
	// (trace.Tracer is nil-safe, so leaving it unset disables tracing with
	// no branch beyond the nil-receiver check). Hand the same tracer to
	// the co-resident controller (nox.Controller.SetTracer).
	Tracer *trace.Tracer
}

// Datapath is the software switch.
type Datapath struct {
	id  uint64
	clk clock.Clock

	mu    sync.RWMutex
	ports map[uint16]*Port
	// portList is every port in ascending port number: what a flood, a
	// features reply and the port counters walk. It is copy-on-write under
	// mu — a change stores a new slice and never writes a stored one — so a
	// walker reads it under the lock and ranges over it outside.
	portList []*Port
	table    *FlowTable
	// portGen counts the changes made to ports (under mu), for batchRun.
	portGen atomic.Uint64

	connMu sync.Mutex
	tr     oftransport.Transport
	in     inbox // what the datapath has been handed and not handled yet

	// The fields from here to spare are the executing call's alone (inbox.go:
	// one call executes frames at a time), so they need no lock.
	//
	// buffers holds every punt the controller has not referenced yet, by
	// buffer id; byKey finds the latest table-miss punt of a flow, so that
	// further misses of the flow at the same clock reading queue behind it
	// instead of punting again (docs/CONTROL_PLANE.md, P2). Ids are handed
	// out in sequence and oldest trails the lowest id still buffered: a full
	// buffer reclaims its slots oldest-first. heldFrames counts the frames
	// queued behind all punts, bounded by nBuffers like the slots
	// themselves.
	buffers    map[uint32]*puntBuffer
	byKey      map[openflow.Match]uint32
	nextBuf    uint32
	oldest     uint32
	heldFrames int
	nBuffers   int
	freePunts  []*puntBuffer // taken buffers for the next punts (free)
	// scratch is what a SET_DL_SRC/SET_DL_DST rewrite copies the frame into
	// before it patches the MACs in place (batchRun.scratch).
	scratch []byte
	// spare is the second entry of the pair newEntry last allocated, until
	// a flow-mod installs it.
	spare *FlowEntry

	missSendLen atomic.Uint32
	configFlags atomic.Uint32
	desc        string
	started     time.Time

	// sweepMu guards swept, the removals scratch a sweep refills and holds
	// while it sends their flow-removeds, in removal order; a sweep that
	// finds it taken (another goroutine's, still sending) uses a new one.
	sweepMu sync.Mutex
	swept   []expiry

	// punted counts every packet-in sent to the controller, before the
	// send (docs/CONTROL_PLANE.md, P1). Router.Settle compares it with the
	// controller's dispatch count (nox.Controller.Processed).
	punted atomic.Uint64

	// tracer opens a span per punt, stamped alongside the punt count
	// (nil when tracing is disabled; every trace method is nil-safe).
	tracer *trace.Tracer

	onRemoved func(m *openflow.Match, packets, bytes uint64) // the stats reader's (StatsView.OnRemoved)
}

// New creates a datapath with no ports attached.
func New(cfg Config) *Datapath {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.NBuffers <= 0 {
		cfg.NBuffers = 256
	}
	if cfg.MissSendLen == 0 {
		cfg.MissSendLen = 128
	}
	if cfg.Description == "" {
		cfg.Description = "Homework soft datapath"
	}
	dp := &Datapath{
		id:       cfg.ID,
		clk:      cfg.Clock,
		ports:    make(map[uint16]*Port),
		table:    NewFlowTable(),
		buffers:  make(map[uint32]*puntBuffer),
		byKey:    make(map[openflow.Match]uint32),
		nBuffers: cfg.NBuffers,
		desc:     cfg.Description,
		started:  cfg.Clock.Now(),
		tracer:   cfg.Tracer,
	}
	dp.missSendLen.Store(uint32(cfg.MissSendLen))
	return dp
}

// ID returns the datapath identifier.
func (dp *Datapath) ID() uint64 { return dp.id }

// Table exposes the flow table (used by tests and the figures harness).
func (dp *Datapath) Table() *FlowTable { return dp.table }

// AddPort attaches a port. Port numbers must be unique and below PortMax.
func (dp *Datapath) AddPort(p *Port) error {
	if p.No == 0 || p.No >= openflow.PortMax {
		return fmt.Errorf("datapath: invalid port number %d", p.No)
	}
	dp.enter()
	defer dp.leave()
	dp.mu.Lock()
	if _, dup := dp.ports[p.No]; dup {
		dp.mu.Unlock()
		return fmt.Errorf("datapath: port %d already exists", p.No)
	}
	dp.ports[p.No] = p
	dp.portsChangedLocked()
	dp.mu.Unlock()
	dp.notifyPortStatus(openflow.PortStatusAdd, p)
	return nil
}

// RemovePort detaches a port.
func (dp *Datapath) RemovePort(no uint16) {
	dp.enter()
	defer dp.leave()
	dp.mu.Lock()
	p, ok := dp.ports[no]
	if ok {
		delete(dp.ports, no)
		dp.portsChangedLocked()
	}
	dp.mu.Unlock()
	if ok {
		dp.notifyPortStatus(openflow.PortStatusDelete, p)
	}
}

// portsChangedLocked publishes a change of the port map: a new portList,
// in port order, and a new portGen. The caller holds mu for writing.
func (dp *Datapath) portsChangedLocked() {
	list := make([]*Port, 0, len(dp.ports))
	for _, p := range dp.ports {
		list = append(list, p)
	}
	slices.SortFunc(list, func(a, b *Port) int { return cmp.Compare(a.No, b.No) })
	dp.portList = list
	dp.portGen.Add(1)
}

// Port returns a port by number.
func (dp *Datapath) Port(no uint16) (*Port, bool) {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	p, ok := dp.ports[no]
	return p, ok
}

// Ports returns a snapshot of all ports, in ascending port number.
func (dp *Datapath) Ports() []*Port {
	return slices.Clone(dp.sortedPorts())
}

// sortedPorts returns the current port list, which nobody may modify.
func (dp *Datapath) sortedPorts() []*Port {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	return dp.portList
}

// Receive processes one frame arriving on a port: the datapath's data-plane
// entry point. Matching entries forward; a miss punts the frame to the
// controller as a packet-in (the paper's mechanism for making every new
// flow visible). The frame is copied into the inbox and taken from there,
// at once when no call is in the datapath (inbox.go).
func (dp *Datapath) Receive(inPort uint16, frame []byte) {
	dp.in.queue(inPort, nil, frame)
	dp.take()
}

// ReceiveBatch processes a whole batch of frames arriving on one port in
// a single call: the port lookup, receive accounting, clock read and the
// frame-decode state are amortized across the batch instead of paid per
// packet, and a run of frames of one flow shares its table lookup and its
// output port (batchRun). A span of one frame repeated
// (packet.FrameBatch.Repeat) is decoded once and, while the table and the
// ports stay as they were, matched and executed once: its further copies are
// charged and sent as the first left. Frames in the batch may alias the
// caller's reused buffers; the datapath copies anything it retains. The
// controller's answers to the batch's punts are handled after its last
// frame, never between two: a flow's later frames in the batch wait behind
// its punt, and leave with it. A batch handed in while a call is in the
// datapath, by a sink or from another goroutine, is copied into the inbox
// for that call to take.
func (dp *Datapath) ReceiveBatch(inPort uint16, fb *packet.FrameBatch) {
	if fb.Len() == 0 {
		return
	}
	if !dp.enterIdle() {
		dp.in.queue(inPort, fb, nil)
		dp.take()
		return
	}
	defer dp.leave()
	var (
		d          packet.Decoded
		run, taken batchRun // the batch's, and the frames taken after its spans'
	)
	if p := dp.receiving(inPort, fb.Len(), fb.TotalBytes()); p != nil {
		now := dp.clk.Now()
		for i := 0; i < fb.Spans(); i++ {
			frame, copies := fb.Span(i)
			dp.receiveSpan(p, frame, copies, now, &d, &run)
			dp.takeQueued(&taken)
		}
	}
	run.done(dp)
	taken.done(dp)
}

// receiving returns the port frames arrive on, charged with them, or nil if
// it does not receive.
func (dp *Datapath) receiving(inPort uint16, frames, bytes int) *Port {
	p, ok := dp.Port(inPort)
	if !ok || p.Config&openflow.PortConfigDown != 0 || p.Config&openflow.PortConfigNoRecv != 0 {
		return nil
	}
	p.countRxN(frames, bytes)
	return p
}

// receiveSpan handles a frame and its further copies, which share its
// decode and key and are dropped with it if it does not decode.
func (dp *Datapath) receiveSpan(p *Port, frame []byte, copies int, now time.Time, d *packet.Decoded, run *batchRun) {
	if d.Decode(frame) != nil {
		return
	}
	key := openflow.MatchFromFrame(d, p.No)
	dp.receiveDecoded(p, p.No, frame, &key, now, run)
	for ; copies > 1; copies-- {
		dp.receiveCopy(p, p.No, frame, &key, now, run)
	}
}

// batchRun is what one caller carries from a frame to the next so that
// consecutive frames of one flow pay once for what they share. Each part
// is a shortcut past a lookup, never past the accounting: every frame is
// still counted as a lookup and a match, charged to its entry and to its
// output port, and handed to the sink on its own. A frame's charges are
// added up in the run and committed once: to the entry and the table
// before the run looks up a frame of another key or table generation, to
// the port before it resolves another port, and all of them in done, which
// every caller runs before it returns. So a flow's or a port's counters are
// exact whenever no call into the datapath is in progress, which is when a
// flow-removed, a stats reply or a StatsView walk is built.
//
//   - The entry: a frame whose exact-match key equals the previous frame's
//     matches what that one matched, provided the table has not changed.
//     tableGen is read before the lookup it vouches for, so a change that
//     lands during or after the lookup reads as a change.
//   - The scratch buffer MAC rewrites copy the frame into, the datapath's
//     one (dp.scratch). A sink has a frame for the call only (Port), so the
//     next frame may overwrite it.
//   - The port the previous frame left by, and its sink, while no port has
//     been added or removed.
//   - What the previous frame's action list did, when it was the common
//     shape: rewrites, then one output, which sent the frame out of a
//     physical port (left). A further copy of that frame (receiveCopy) is
//     the same bytes matched to the same entry, so while neither the table
//     nor the ports have changed it would meet the same list and leave as
//     the frame did: it is charged to the entry and the port and handed to
//     the sink as left, without a lookup, an execute or a dispatch. This
//     needs sinks to leave frames as they found them (Port).
//
// A run belongs to the executing call, which takes the frame queue on a run
// of its own: answers go to other ports than what caused them. The zero
// value is ready.
type batchRun struct {
	key      openflow.Match
	entry    *FlowEntry // nil: the previous frame missed, or there was none
	tableGen uint64
	// hits and hitBytes are the frames matched to entry without a lookup and
	// not yet charged, the latest at clock reading hitAt (UnixNano): the
	// latest, not the last, as frames taken from the inbox read the clock
	// after the call did.
	hits, hitBytes uint64
	hitAt          int64

	// left is the bytes the previous frame's one output sent out of out,
	// when its list was rewrites then that output; nil otherwise.
	left []byte

	out     *Port
	sink    func(frame []byte) // out's, read as the run resolved it
	portGen uint64
	// sent and sentBytes are the frames sent out of out and not yet charged.
	sent, sentBytes uint64
}

// port is dp.Port for the transmit path of a run, with the port's sink.
func (run *batchRun) port(dp *Datapath, no uint16) (*Port, func(frame []byte), bool) {
	gen := dp.portGen.Load()
	if run.out != nil && run.out.No == no && run.portGen == gen {
		return run.out, run.sink, true
	}
	run.chargePort()
	p, ok := dp.Port(no)
	if !ok {
		return nil, nil, false
	}
	run.out, run.sink, run.portGen = p, p.sink(), gen
	return p, run.sink, true
}

// chargeEntry commits the frames the run matched to its entry without a
// lookup.
func (run *batchRun) chargeEntry(t *FlowTable) {
	if run.hits > 0 {
		t.charge(run.entry, run.hits, run.hitBytes, run.hitAt)
		run.hits, run.hitBytes, run.hitAt = 0, 0, 0
	}
}

// chargePort commits the frames the run sent out of its port.
func (run *batchRun) chargePort() {
	if run.sent > 0 {
		run.out.countTxN(run.sent, run.sentBytes)
		run.sent, run.sentBytes = 0, 0
	}
}

// scratch returns the datapath's scratch buffer holding a copy of frame.
func (run *batchRun) scratch(dp *Datapath, frame []byte) []byte {
	dp.scratch = append(dp.scratch[:0], frame...)
	return dp.scratch
}

// done commits what the run owes.
func (run *batchRun) done(dp *Datapath) {
	run.chargeEntry(dp.table)
	run.chargePort()
}

// receiveDecoded looks a decoded frame up in the flow table by its
// exact-match key, the only part of the decode the table reads, and
// executes it, or takes it down the miss path; receive accounting has
// already been charged.
func (dp *Datapath) receiveDecoded(p *Port, inPort uint16, frame []byte, key *openflow.Match, now time.Time, run *batchRun) {
	run.left = nil
	nanos := now.UnixNano()
	gen := dp.table.gen.Load()
	entry := run.entry
	if entry != nil && run.tableGen == gen && run.key == *key {
		run.hits++
		run.hitBytes += uint64(len(frame))
		run.hitAt = max(run.hitAt, nanos)
	} else {
		run.chargeEntry(dp.table)
		entry = dp.table.lookup(key, len(frame), nanos)
		run.key, run.entry, run.tableGen = *key, entry, gen
	}
	if entry == nil {
		dp.miss(p, frame, key, nanos)
		return
	}
	dp.execute(inPort, frame, entry.Actions, run)
}

// receiveCopy handles a further copy of the frame the run handled last.
// When that frame matched run.entry and left as run.left, and neither the
// table nor the ports have changed since, the copy matches and leaves the
// same way: it is charged and handed to the sink. Otherwise — a miss, a list
// of another shape, a change made while the previous copy was in a sink —
// it goes through receiveDecoded like any frame, with the span's key.
func (dp *Datapath) receiveCopy(p *Port, inPort uint16, frame []byte, key *openflow.Match, now time.Time, run *batchRun) {
	if run.left == nil || run.entry == nil || dp.table.gen.Load() != run.tableGen ||
		dp.portGen.Load() != run.portGen || !run.out.forwards() {
		dp.receiveDecoded(p, inPort, frame, key, now, run)
		return
	}
	run.hits++
	run.hitBytes += uint64(len(frame))
	run.hitAt = max(run.hitAt, now.UnixNano())
	run.sent++
	run.sentBytes += uint64(len(run.left))
	if run.sink != nil {
		run.sink(run.left)
	}
}

// execute runs an action list on a frame in the context of inPort: MAC
// rewrites, outputs and enqueues, in list order, each output handed the
// frame as the rewrites before it left it. The first rewrite copies the frame
// once into the run's scratch buffer and the MACs are patched at their fixed
// offsets; nothing is decoded or re-serialized, and nothing allocated in
// steady state. A list of rewrites then one output that sent the frame out of
// a port records the bytes that left in run.left, for the frame's copies
// (receiveCopy). The input frame is never written. A list holding any other
// action never gets here: the datapath refuses it (handleFlowMod,
// handlePacketOut).
func (dp *Datapath) execute(inPort uint16, frame []byte, actions []openflow.Action, run *batchRun) {
	out := frame
	copied, outputs, rewroteAfterOutput := false, 0, false
	left := false // the latest output went out of the run's port
	for _, a := range actions {
		switch act := a.(type) {
		case *openflow.ActionSetDLSrc:
			if !copied {
				out, copied = run.scratch(dp, frame), true
			}
			if len(out) >= packet.EthernetHeaderLen {
				copy(out[6:12], act.Addr[:])
			}
			rewroteAfterOutput = rewroteAfterOutput || outputs > 0
		case *openflow.ActionSetDLDst:
			if !copied {
				out, copied = run.scratch(dp, frame), true
			}
			if len(out) >= packet.EthernetHeaderLen {
				copy(out[0:6], act.Addr[:])
			}
			rewroteAfterOutput = rewroteAfterOutput || outputs > 0
		case *openflow.ActionOutput:
			left = dp.dispatch(inPort, out, act.Port, act.MaxLen, run)
			outputs++
		case *openflow.ActionEnqueue:
			left = dp.dispatch(inPort, out, act.Port, 0, run)
			outputs++
		}
	}
	if left && outputs == 1 && !rewroteAfterOutput {
		run.left = out
	}
}

// dispatch delivers an already-rewritten frame to one action-list output,
// an output to the controller with that output's max_len. It reports whether
// the frame went out of a port through the run (transmit).
func (dp *Datapath) dispatch(inPort uint16, frame []byte, pn, maxLen uint16, run *batchRun) bool {
	switch pn {
	case openflow.PortController:
		dp.punt(inPort, frame, maxLen)
	case openflow.PortFlood, openflow.PortAll:
		dp.flood(inPort, frame, pn == openflow.PortAll, run)
	case openflow.PortInPort:
		return dp.transmit(inPort, frame, run)
	case openflow.PortTable, openflow.PortNone:
		// PortTable is only meaningful for packet-out; ignore here.
	case openflow.PortNormal:
		// NORMAL would be the legacy L2 pipeline; the Homework router
		// never uses it (all forwarding is explicit), so flood instead.
		dp.flood(inPort, frame, false, run)
	case openflow.PortLocal:
		// The local stack is modelled as port LOCAL being absent.
	default:
		return dp.transmit(pn, frame, run)
	}
	return false
}

// transmit sends a frame out of a port. The run remembers the port for the
// next frame and charges the frame to it, and transmit reports whether the
// frame left.
func (dp *Datapath) transmit(portNo uint16, frame []byte, run *batchRun) bool {
	p, out, ok := run.port(dp, portNo)
	if !ok || !p.forwards() {
		return false
	}
	run.sent++
	run.sentBytes += uint64(len(frame))
	if out != nil {
		out(frame)
	}
	return true
}

// flood transmits a frame out of every port but inPort, in port order.
func (dp *Datapath) flood(inPort uint16, frame []byte, includeNoFlood bool, run *batchRun) {
	for _, p := range dp.sortedPorts() {
		if p.No == inPort {
			continue
		}
		if !includeNoFlood && p.Config&openflow.PortConfigNoFlood != 0 {
			continue
		}
		dp.transmit(p.No, frame, run)
	}
}

// puntBuffer is one buffered punt: the punted frame and, for a table-miss
// punt, the later frames of its flow held behind it. The packet-in sent for
// it is not part of it: that carries its own copy of the bytes it reports
// and belongs to the controller once sent, so it may outlive the buffer's
// slot (a full buffer reclaims it; the chaos layer delays its delivery). A
// buffer belongs to the datapath alone, and once taken — answered by
// releaseAll, by releaseHead after the head's execute, or reclaimed by
// bufferLocked — it goes back on the datapath's free list for the next
// punt. A frame of up to inlineHead bytes — a SYN, a SYN-ACK, a bare ACK —
// is copied into the buffer itself; a larger one (a DHCP or DNS message)
// into big, which the buffer keeps for its next use.
type puntBuffer struct {
	key    openflow.Match // the flow, for a table-miss punt; zero for an action punt
	at     int64          // clock reading of the punt (UnixNano)
	inPort uint16
	head   []byte // the punted frame: small[:n], or big[:n]
	big    []byte
	held   holdQueue
	small  [inlineHead]byte
}

// inlineHead is the largest punted frame a puntBuffer holds inline: the
// 54-byte TCP segments that open and answer a connection, with room for
// options and a VLAN tag.
const inlineHead = 64

// Bounds on what the free list of punt buffers keeps: a home has a punt or
// two in flight per step, a DHCP storm some more, and a buffer that held a
// jumbo frame keeps no more than a full Ethernet frame's worth of big.
const (
	maxFreePunts   = 16
	maxKeptBigHead = 2 << 10
)

// newPunt buffers a copy of frame under the next buffer id, in a buffer
// off the free list, and returns the buffer and the packet-in to send for
// it: a pooled one carrying its own copy of up to maxLen bytes of the frame.
func (dp *Datapath) newPunt(frame []byte, inPort uint16, reason uint8, maxLen int) (*puntBuffer, *openflow.PacketIn) {
	var b *puntBuffer
	if n := len(dp.freePunts); n > 0 {
		b = dp.freePunts[n-1]
		dp.freePunts[n-1] = nil
		dp.freePunts = dp.freePunts[:n-1]
	} else {
		b = new(puntBuffer)
	}
	b.inPort = inPort
	if n := len(frame); n <= inlineHead {
		b.head = b.small[:n:n]
		copy(b.head, frame)
	} else {
		b.big = append(b.big[:0], frame...)
		b.head = b.big
	}
	pi := openflow.NewPacketIn(openflow.PacketIn{
		BufferID: dp.buffer(b),
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   reason,
		Data:     frame[:min(maxLen, len(frame))],
	})
	return b, pi
}

// free puts a taken punt buffer back on the free list, handing its hold
// queue's chunks back. Nothing may read its head any more.
func (dp *Datapath) free(b *puntBuffer) {
	b.held.drop()
	if len(dp.freePunts) == maxFreePunts {
		return
	}
	if cap(b.big) > maxKeptBigHead {
		b.big = nil
	}
	// What puntLocked does not set: an action punt's key stays zero.
	b.key, b.at, b.head = openflow.Match{}, 0, nil
	dp.freePunts = append(dp.freePunts, b)
}

// holdQueue is the frames held behind one punt, in arrival order: a list
// of chunks, each frame stored as a 4-byte length and its bytes in the
// newest chunk, or in a new one when that is full. It grows with the flow's
// burst without copying what it already holds. Chunks come from holdChunks
// and go back to it once drained, so a popped frame is valid only until the
// next pop or drop: for the one execute it is passed to. The zero holdQueue
// is empty.
type holdQueue struct {
	head, tail *holdNode
	n          int
}

// holdChunk is the bytes a hold-queue chunk stores: ten full-size Ethernet
// frames. With its link and marks a holdNode is one allocation of 16 KB
// exactly, a size class of the allocator.
const holdChunk = 16<<10 - 48

// holdNode is one chunk of a hold queue: data[r:w] is what it still holds.
// A frame that no chunk has room for (more than holdChunk-4 bytes) gets a
// node to itself and a plain allocation, big, which is never reused.
type holdNode struct {
	next *holdNode
	big  []byte
	r, w int
	data [holdChunk]byte
}

// holdChunks recycles hold-queue chunks across every datapath of the
// process. A queue's chunks are garbage the moment its punt is answered and
// the next flow wants as many, in this home or the next one its shard
// steps: shared, the standing stock is what one flow setup has in flight
// (seven chunks for a web page's request and reply, nine measured with
// what a Pool strands per P), where a list per datapath would keep that
// much in every home. A chunk is handed back only once nothing can read
// what it holds: a popped frame lives for the one execute it is passed to,
// and a held frame that becomes a head is copied out of its chunk first
// (releaseHead). Punt buffers are the datapath's own free list, and
// packet-ins openflow's pool.
var holdChunks = sync.Pool{New: func() any { return new(holdNode) }}

func (q *holdQueue) push(frame []byte) {
	need := 4 + len(frame)
	c := q.tail
	if c == nil || c.big != nil || len(c.data)-c.w < need {
		c = holdChunks.Get().(*holdNode)
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
	}
	q.n++
	if need > len(c.data) {
		c.big = append([]byte(nil), frame...)
		return
	}
	binary.BigEndian.PutUint32(c.data[c.w:], uint32(len(frame)))
	copy(c.data[c.w+4:], frame)
	c.w += need
}

// pop removes and returns the oldest held frame, handing back the chunks
// drained before it. The frame lives in its chunk: see holdQueue.
func (q *holdQueue) pop() []byte {
	c := q.head
	for c.big == nil && c.r == c.w {
		q.head = c.next
		c.recycle()
		c = q.head
	}
	q.n--
	if c.big != nil {
		frame := c.big
		c.big = nil
		return frame
	}
	end := c.r + 4 + int(binary.BigEndian.Uint32(c.data[c.r:]))
	frame := c.data[c.r+4 : end : end]
	c.r = end
	return frame
}

// drop empties the queue and hands its chunks back. Nothing may still read
// a frame pop returned.
func (q *holdQueue) drop() {
	for c := q.head; c != nil; {
		next := c.next
		c.recycle()
		c = next
	}
	*q = holdQueue{}
}

func (c *holdNode) recycle() {
	c.next, c.big, c.r, c.w = nil, nil, 0, 0
	holdChunks.Put(c)
}

// miss handles a frame no entry matched. The first miss of a flow is
// punted: buffered, counted and sent to the controller as a packet-in.
// Later misses of the flow at the same clock reading, while that punt is
// unanswered, are copied into its hold queue and leave when the
// controller's answer references the buffer. A frame that arrives after
// the clock has moved punts afresh, which is what heals a lost answer.
// Rules land only between frames of the executing call, so none can land
// between the caller's lookup and here.
func (dp *Datapath) miss(p *Port, frame []byte, key *openflow.Match, nanos int64) {
	if p.Config&openflow.PortConfigNoPacketIn != 0 {
		return
	}
	if id, ok := dp.byKey[*key]; ok && dp.heldFrames < dp.nBuffers {
		if b := dp.buffers[id]; b.at == nanos {
			b.held.push(frame)
			dp.heldFrames++
			return
		}
	}
	b, pi := dp.newPunt(frame, key.InPort, openflow.PacketInReasonNoMatch, int(dp.missSendLen.Load()))
	b.key, b.at = *key, nanos
	dp.byKey[*key] = pi.BufferID
	dp.sendPacketIn(pi)
}

// punt sends the controller a frame that matched an OUTPUT:CONTROLLER
// action, buffering it whole; the packet-in carries maxLen bytes of it, the
// configured miss_send_len when maxLen is 0. Action punts are never held
// behind one another: each is a message for a controller module (DHCP,
// DNS), not a flow waiting for its rule.
func (dp *Datapath) punt(inPort uint16, frame []byte, maxLen uint16) {
	if p, ok := dp.Port(inPort); ok && p.Config&openflow.PortConfigNoPacketIn != 0 {
		return
	}
	n := int(maxLen)
	if n == 0 {
		n = int(dp.missSendLen.Load())
	}
	_, pi := dp.newPunt(frame, inPort, openflow.PacketInReasonAction, n)
	dp.sendPacketIn(pi)
}

// sendPacketIn counts a buffered punt and sends its packet-in, which is the
// controller's from then on.
func (dp *Datapath) sendPacketIn(pi *openflow.PacketIn) {
	dp.punted.Add(1)
	dp.tracer.Punt()
	dp.send(pi)
}

// PuntCount returns how many packet-ins have been sent to the controller.
func (dp *Datapath) PuntCount() uint64 { return dp.punted.Load() }

// buffer stores a punt under the next buffer id and returns the id. A
// full buffer gives up its oldest punts first, to the free list, so a
// controller that never references some ids (or whose answers are lost)
// cannot exhaust it; a late answer to a reclaimed id simply misses in
// takePunt.
func (dp *Datapath) buffer(b *puntBuffer) uint32 {
	for len(dp.buffers) >= dp.nBuffers {
		dp.oldest++
		if old, ok := dp.takePunt(dp.oldest); ok {
			dp.free(old)
		}
	}
	dp.nextBuf++
	dp.buffers[dp.nextBuf] = b
	return dp.nextBuf
}

// takePunt removes a punt from the buffer, with the frames held behind it.
func (dp *Datapath) takePunt(id uint32) (*puntBuffer, bool) {
	b, ok := dp.buffers[id]
	if !ok {
		return nil, false
	}
	delete(dp.buffers, id)
	dp.heldFrames -= b.held.n
	// The zero key of an action punt is never in byKey, and a flow's key
	// may have moved on to a later punt.
	if cur, ok := dp.byKey[b.key]; ok && cur == id {
		delete(dp.byKey, b.key)
	}
	return b, true
}

// releaseAll answers a buffered punt with an action list (a flow-mod that
// references the buffer): the punted frame, then every frame held behind
// it, in arrival order. Like the punted frame itself, the held frames were
// misses when they arrived, so they are not charged to the new entry. What
// sinks answer to a released frame is taken before the next one leaves.
func (dp *Datapath) releaseAll(id uint32, actions []openflow.Action) {
	b, ok := dp.takePunt(id)
	if !ok {
		return
	}
	var run, taken batchRun
	dp.execute(b.inPort, b.head, actions, &run)
	dp.takeQueued(&taken)
	for b.held.n > 0 {
		dp.execute(b.inPort, b.held.pop(), actions, &run)
		dp.takeQueued(&taken)
	}
	run.done(dp)
	taken.done(dp)
	dp.free(b)
}

// releaseHead answers a buffered punt for its own frame only (a packet-out
// that references the buffer) and returns the punt, whose head is that
// frame: the caller executes it and then frees the buffer. A packet-out
// decides nothing about the flow's later frames, so they go back down the
// miss path: the oldest is punted under a new buffer id with the rest still
// held behind it, so a frame of the flow arriving later queues behind them
// and not ahead.
//
// The re-homed punt is another buffer, never the one it replaces, whose
// head is still to be executed, and the new head is copied out of its
// chunk, which the next pop may hand to another flow.
func (dp *Datapath) releaseHead(id uint32) *puntBuffer {
	b, ok := dp.takePunt(id)
	if !ok {
		return nil
	}
	if b.held.n > 0 {
		next, pi := dp.newPunt(b.held.pop(), b.inPort, openflow.PacketInReasonNoMatch, int(dp.missSendLen.Load()))
		next.key, next.at = b.key, dp.clk.Now().UnixNano()
		next.held, b.held = b.held, holdQueue{}
		dp.byKey[next.key] = pi.BufferID
		dp.heldFrames += next.held.n
		if next.held.n == 0 {
			next.held.drop()
		}
		dp.sendPacketIn(pi)
	}
	return b
}

// send writes a message up the secure channel if connected. The transport
// serializes concurrent sends itself, so the channel lock only guards the
// endpoint pointer, not the (possibly blocking) delivery.
func (dp *Datapath) send(msg openflow.Message) {
	dp.connMu.Lock()
	tr := dp.tr
	dp.connMu.Unlock()
	if tr != nil {
		_ = tr.Send(msg)
	} else {
		openflow.Release(msg) // sent nowhere: the datapath is its last owner
	}
}

func (dp *Datapath) notifyPortStatus(reason uint8, p *Port) {
	dp.send(&openflow.PortStatus{Reason: reason, Desc: phyPort(p)})
}

func phyPort(p *Port) openflow.PhyPort {
	return openflow.PhyPort{
		PortNo: p.No,
		HWAddr: p.HWAddr,
		Name:   p.Name,
		Config: p.Config,
	}
}
