package datapath

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/oftransport"
	"repro/internal/openflow"
)

// ErrChannelClosed is returned by the Connect family when the secure
// channel shuts down in an orderly way — Stop was called or the controller
// closed its end. Callers distinguish it (via errors.Is) from a protocol
// failure, which surfaces as a *ChannelError wrapping the underlying
// cause.
var ErrChannelClosed = errors.New("datapath: secure channel closed")

// ChannelError is a secure-channel failure: dialing, the HELLO handshake,
// or reading from the transport failed for a reason other than an orderly
// shutdown. Op says which phase failed; Err is the underlying cause.
type ChannelError struct {
	Op  string // "dial", "handshake" or "read"
	Err error
}

func (e *ChannelError) Error() string {
	return fmt.Sprintf("datapath: secure channel %s: %v", e.Op, e.Err)
}

func (e *ChannelError) Unwrap() error { return e.Err }

// channelErr classifies a transport error: orderly shutdown becomes
// ErrChannelClosed, anything else a *ChannelError for op.
func channelErr(op string, err error) error {
	if errors.Is(err, oftransport.ErrClosed) {
		return ErrChannelClosed
	}
	return &ChannelError{Op: op, Err: err}
}

// ConnectTransport attaches the datapath to a controller over one
// transport endpoint and services the secure channel until it closes or
// Stop is called. It performs the OpenFlow handshake (HELLO exchange) and
// then answers controller requests, each handled as on a direct channel:
// between two calls into the datapath, never inside one. It returns
// ErrChannelClosed on an orderly shutdown and a *ChannelError on a
// handshake or protocol failure.
func (dp *Datapath) ConnectTransport(tr oftransport.Transport) error {
	dp.connMu.Lock()
	dp.tr = tr
	dp.connMu.Unlock()

	if err := tr.Send(&openflow.Hello{}); err != nil {
		return channelErr("handshake", err)
	}
	msg, err := tr.Recv()
	if err != nil {
		return channelErr("handshake", err)
	}
	if _, ok := msg.(*openflow.Hello); !ok {
		return &ChannelError{Op: "handshake", Err: fmt.Errorf("expected HELLO, got %T", msg)}
	}

	// Each message goes to deliver, as on a direct channel: it waits in the
	// inbox for the outermost call into the datapath, or is handled here
	// when none is in progress.
	for {
		msg, err := tr.Recv()
		if err != nil {
			dp.connMu.Lock()
			dp.tr = nil
			dp.connMu.Unlock()
			return channelErr("read", err)
		}
		dp.deliver(msg)
	}
}

// ConnectTCP dials the controller and runs the secure channel over the
// wire transport.
func (dp *Datapath) ConnectTCP(addr string) error {
	tr, err := oftransport.DialTCP(addr)
	if err != nil {
		return &ChannelError{Op: "dial", Err: err}
	}
	return dp.ConnectTransport(tr)
}

// Stop closes the secure channel.
func (dp *Datapath) Stop() {
	dp.connMu.Lock()
	tr := dp.tr
	dp.tr = nil
	dp.connMu.Unlock()
	if tr != nil {
		_ = tr.Close()
	}
}

// SweepExpired removes timed-out flows now and emits flow-removed messages
// for entries that requested them, in the table's removal order. The
// datapath runs no timer of its own: netsim.Network.Step calls this at the
// start of every step, so expiry is a function of the tick sequence. Before
// the table's earliest deadline it returns at once, and otherwise, like
// Receive, it drains the inbox when it returns.
func (dp *Datapath) SweepExpired() int {
	now := dp.clk.Now()
	if now.UnixNano() < dp.table.due.Load() {
		return 0
	}
	dp.enter()
	defer dp.leave()
	// The sweep takes the removals scratch while it sends, so that the
	// flow-removeds, whose handlers run inside the sends on a direct
	// channel, go out under no lock of the datapath's.
	dp.sweepMu.Lock()
	swept := dp.table.expire(dp.swept[:0], now)
	dp.swept = nil
	dp.sweepMu.Unlock()
	for _, x := range swept {
		e := x.e
		if !e.SendFlowRem {
			continue
		}
		dp.send(flowRemoved(e, x.reason, now))
	}
	n := len(swept)
	clear(swept) // the removed entries are garbage; the scratch must not keep them
	dp.sweepMu.Lock()
	dp.swept = swept[:0]
	dp.sweepMu.Unlock()
	return n
}

// flowRemoved is the flow-removed of entry e, removed at now for reason:
// what an expiry and a delete send alike.
func flowRemoved(e *FlowEntry, reason uint8, now time.Time) *openflow.FlowRemoved {
	dur := now.Sub(e.Installed)
	return openflow.NewFlowRemoved(openflow.FlowRemoved{
		Match: e.Match, Cookie: e.Cookie, Priority: e.Priority,
		Reason:      reason,
		DurationSec: uint32(dur / time.Second), DurationNsec: uint32(dur % time.Second),
		IdleTimeout: e.IdleTimeout,
		PacketCount: e.PacketCount(), ByteCount: e.ByteCount(),
	})
}

// handle dispatches one controller-to-switch message.
func (dp *Datapath) handle(msg openflow.Message) {
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		rep := &openflow.EchoReply{Data: m.Data}
		rep.Header.XID = m.Header.XID
		dp.send(rep)
	case *openflow.EchoReply, *openflow.Hello:
		// Nothing to do.
	case *openflow.FeaturesRequest:
		dp.sendFeatures(m.Header.XID)
	case *openflow.GetConfigRequest:
		rep := &openflow.GetConfigReply{Flags: uint16(dp.configFlags.Load()), MissSendLen: uint16(dp.missSendLen.Load())}
		rep.Header.XID = m.Header.XID
		dp.send(rep)
	case *openflow.SetConfig:
		dp.configFlags.Store(uint32(m.Flags))
		if m.MissSendLen > 0 {
			dp.missSendLen.Store(uint32(m.MissSendLen))
		}
	case *openflow.FlowMod:
		dp.handleFlowMod(m)
	case *openflow.PacketOut:
		dp.handlePacketOut(m)
	case *openflow.StatsRequest:
		dp.handleStats(m)
	case *openflow.BarrierRequest:
		// The datapath processes messages synchronously, so every prior
		// message is already complete.
		rep := &openflow.BarrierReply{}
		rep.Header.XID = m.Header.XID
		dp.send(rep)
	default:
		dp.sendError(msg, openflow.ErrTypeBadRequest, openflow.BadRequestBadType)
	}
}

func (dp *Datapath) sendFeatures(xid uint32) {
	rep := &openflow.FeaturesReply{
		DatapathID:   dp.id,
		NBuffers:     uint32(dp.nBuffers),
		NTables:      1,
		Capabilities: openflow.CapFlowStats | openflow.CapTableStats | openflow.CapPortStats,
		Actions:      executedActions,
	}
	rep.Header.XID = xid
	for _, p := range dp.sortedPorts() {
		rep.Ports = append(rep.Ports, phyPort(p))
	}
	dp.send(rep)
}

func (dp *Datapath) sendError(orig openflow.Message, typ, code uint16) {
	data := openflow.Encode(orig)
	if len(data) > 64 {
		data = data[:64]
	}
	e := &openflow.ErrorMsg{ErrType: typ, Code: code, Data: data}
	e.Header.XID = orig.Hdr().XID
	dp.send(e)
}

// executedActions is the features reply's actions bitmap: the four actions
// execute runs. The router forwards every flow by rewriting its MAC
// addresses and outputting it, and sends nothing else.
const executedActions = 1<<openflow.ActTypeOutput | 1<<openflow.ActTypeSetDLSrc |
	1<<openflow.ActTypeSetDLDst | 1<<openflow.ActTypeEnqueue

// refused reports whether an action list holds an action execute does not
// run, and if so answers msg, which carried it, with OFPET_BAD_ACTION /
// OFPBAC_BAD_TYPE. A refused message installs and runs nothing.
func (dp *Datapath) refused(msg openflow.Message, actions []openflow.Action) bool {
	for _, a := range actions {
		if _, ok := a.(*openflow.ActionUnsupported); ok {
			dp.sendError(msg, openflow.ErrTypeBadAction, openflow.BadActionBadType)
			return true
		}
	}
	return false
}

// newEntry is the flow entry an ADD, or a MODIFY that matched nothing,
// installs. Entries are allocated two at a time: a connection's two
// directions are installed back to back and expire together, so one
// allocation serves both and is freed with them. An entry is never
// reused; the collector frees a pair once neither of its entries is
// referenced.
func (dp *Datapath) newEntry(m *openflow.FlowMod) *FlowEntry {
	e := dp.spare
	if e == nil {
		pair := new([2]FlowEntry)
		e, dp.spare = &pair[0], &pair[1]
	} else {
		dp.spare = nil
	}
	*e = FlowEntry{
		Match: m.Match, Priority: m.Priority, Cookie: m.Cookie,
		IdleTimeout: m.IdleTimeout, HardTimeout: m.HardTimeout,
		Actions:     m.Actions,
		SendFlowRem: m.Flags&openflow.FlowModFlagSendFlowRem != 0,
		Installed:   dp.clk.Now(),
	}
	return e
}

func (dp *Datapath) handleFlowMod(m *openflow.FlowMod) {
	switch m.Command {
	case openflow.FlowModAdd:
		if dp.refused(m, m.Actions) {
			return
		}
		if err := dp.table.Add(dp.newEntry(m), m.Flags&openflow.FlowModFlagCheckOverlap != 0); err != nil {
			dp.sendError(m, openflow.ErrTypeFlowModFailed, openflow.FlowModOverlap)
			return
		}
		// If the flow-mod references a buffered packet, run it and the
		// frames held behind it through the new rule immediately.
		if m.BufferID != openflow.NoBuffer {
			dp.releaseAll(m.BufferID, m.Actions)
		}
	case openflow.FlowModModify, openflow.FlowModModifyStrict:
		if dp.refused(m, m.Actions) {
			return
		}
		strict := m.Command == openflow.FlowModModifyStrict
		if n := dp.table.modify(&m.Match, m.Priority, strict, m.Actions); n == 0 {
			// Per spec, MODIFY with no matching entry behaves like ADD.
			_ = dp.table.Add(dp.newEntry(m), false)
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		strict := m.Command == openflow.FlowModDeleteStrict
		removed := dp.table.delete(&m.Match, m.Priority, strict, m.OutPort)
		now := dp.clk.Now()
		for _, e := range removed {
			if !e.SendFlowRem {
				continue
			}
			dp.send(flowRemoved(e, openflow.FlowRemovedDelete, now))
		}
	default:
		dp.sendError(m, openflow.ErrTypeFlowModFailed, openflow.FlowModBadCommand)
	}
}

func (dp *Datapath) handlePacketOut(m *openflow.PacketOut) {
	if dp.refused(m, m.Actions) {
		return
	}
	frame, inPort := m.Data, m.InPort
	if m.BufferID != openflow.NoBuffer {
		if b := dp.releaseHead(m.BufferID); b != nil {
			frame = b.head
			if inPort == openflow.PortNone {
				inPort = b.inPort
			}
			defer dp.free(b) // after the head's execute
		}
	}
	if len(frame) == 0 {
		return
	}
	// PortTable in the action list means "run the flow table".
	for _, a := range m.Actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == openflow.PortTable {
			dp.Receive(inPort, frame)
			return
		}
	}
	var run batchRun
	dp.execute(inPort, frame, m.Actions, &run)
	run.done(dp)
}

func (dp *Datapath) handleStats(m *openflow.StatsRequest) {
	rep := &openflow.StatsReply{StatsType: m.StatsType}
	rep.Header.XID = m.Header.XID
	now := dp.clk.Now()
	switch m.StatsType {
	case openflow.StatsDesc:
		rep.Desc = openflow.DescStats{
			MfrDesc:   "Homework Project",
			HWDesc:    "software datapath",
			SWDesc:    "repro/internal/datapath",
			SerialNum: "1",
			DPDesc:    dp.desc,
		}
	case openflow.StatsFlow:
		rep.Flows = dp.table.flowStats(&m.Flow.Match, m.Flow.OutPort, now)
	case openflow.StatsAggregate:
		var agg openflow.AggregateStats
		for _, e := range dp.table.Entries(&m.Flow.Match, m.Flow.OutPort) {
			agg.PacketCount += e.PacketCount()
			agg.ByteCount += e.ByteCount()
			agg.FlowCount++
		}
		rep.Aggregate = agg
	case openflow.StatsTable:
		lookups, matched := dp.table.Counters()
		rep.Tables = []openflow.TableStats{{
			TableID: 0, Name: "classifier", Wildcards: openflow.FWAll,
			MaxEntries:  1 << 20,
			ActiveCount: uint32(dp.table.Len()),
			LookupCount: lookups, MatchedCount: matched,
		}}
	case openflow.StatsPort:
		for _, p := range dp.sortedPorts() {
			if m.Port.PortNo != openflow.PortNone && m.Port.PortNo != p.No {
				continue
			}
			rep.Ports = append(rep.Ports, p.Stats())
		}
	default:
		dp.sendError(m, openflow.ErrTypeBadRequest, openflow.BadRequestBadStat)
		return
	}
	dp.send(rep)
}
