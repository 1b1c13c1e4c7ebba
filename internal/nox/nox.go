// Package nox implements an event-driven OpenFlow controller framework
// modelled on NOX, the controller the Homework router runs. Components
// (the DHCP server, DNS proxy and control API in this repository) register
// handlers for datapath events; handlers run in registration order and may
// consume an event to stop the chain, exactly as NOX components do.
//
// The controller is transport-agnostic: a datapath attaches over any
// oftransport.Transport. ListenAndServe keeps the classic TCP secure
// channel for cross-process deployments, ServeTransport serves any
// endpoint with a read loop (oftransport.Pair among them), and
// AttachDirect attaches a datapath in the same process over an
// oftransport.Direct channel, as on the paper's home router and in every
// fleet home: no goroutine, and each punt dispatched inside the datapath
// call that makes it, as NOX runs an event through its handlers to
// completion.
//
// Concurrency contract: each attached datapath's events are dispatched
// synchronously and in order, one at a time, through one entry
// (Switch.deliver) — on the goroutine that sent them on a direct switch,
// on the read loop's otherwise, with an event that arrives mid-dispatch
// queued for the dispatching call to take next — so handlers for one
// datapath never run concurrently with each other, but handlers for
// different datapaths do. An event, its message and its Decoded view are
// valid only for the duration of the dispatch call; a handler that wants
// to keep anything must copy it out (the switch reuses the decode state
// and the events, and releases a packet-in or flow-removed to openflow's
// pool once its whole dispatch is over). A handler answers a buffered
// packet-in within the dispatch, with a flow-mod or packet-out that
// references the buffer; one that no handler referenced is discarded when
// the chain returns, so every buffered packet-in is answered exactly once
// and the datapath never keeps frames waiting behind a punt the controller
// has finished with. Handler registration (On*) and Register are safe at
// any time from any goroutine. The controller counts each packet-in's
// dispatch after it completes, on every transport (Processed); Router.Settle
// compares that count with the datapath's punts (see docs/CONTROL_PLANE.md).
package nox

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Disposition is a handler's verdict on an event.
type Disposition int

// Handler dispositions, as in NOX: Continue passes the event to the next
// handler, Stop consumes it.
const (
	Continue Disposition = iota
	Stop
)

// PacketInEvent is delivered for each packet punted to the controller.
type PacketInEvent struct {
	Switch  *Switch
	Msg     *openflow.PacketIn
	Decoded *packet.Decoded // parsed view of Msg.Data
}

// JoinEvent is delivered when a datapath completes the handshake.
type JoinEvent struct {
	Switch   *Switch
	Features *openflow.FeaturesReply
}

// FlowRemovedEvent is delivered when a flow entry expires or is deleted.
// The switch reuses the event, and Msg is valid only for the dispatch: the
// switch releases it when the handlers return (openflow.Release), so no
// handler keeps it, and one that wants a field copies it out.
type FlowRemovedEvent struct {
	Switch *Switch
	Msg    *openflow.FlowRemoved
}

// Component is a controller module. Configure is called once before the
// controller starts accepting datapaths; the component registers its event
// handlers there.
type Component interface {
	Name() string
	Configure(ctl *Controller) error
}

// Controller accepts datapath connections and dispatches events to
// registered components.
type Controller struct {
	mu         sync.RWMutex
	components []Component
	switches   map[uint64]*Switch
	serving    map[oftransport.Transport]struct{}

	packetIn chain[func(*PacketInEvent) Disposition]
	join     chain[func(*JoinEvent)]
	flowRem  chain[func(*FlowRemovedEvent)]

	ln        net.Listener
	wg        sync.WaitGroup
	closed    atomic.Bool
	echoEvery time.Duration

	// MissSendLen is pushed to each datapath at join (default 128).
	MissSendLen uint16

	processed atomic.Uint64
	tracer    atomic.Pointer[trace.Tracer]
}

// Processed returns how many packet-in events have completed dispatch, the
// consumer half of the settle protocol: every flow-mod and packet-out a
// dispatch produced was sent before it was counted. Router.Settle compares
// it with the co-resident datapath's PuntCount (docs/CONTROL_PLANE.md, C3).
func (c *Controller) Processed() uint64 { return c.processed.Load() }

// SetTracer attaches the punt-lifecycle tracer the controller stamps as
// it dispatches: dispatch/emit and credit per packet-in, barrier on every
// Barrier round trip. It assumes the co-resident single-datapath
// deployment (spans correlate by FIFO order with the datapath's Punt
// stamps); attach it before serving a transport.
func (c *Controller) SetTracer(t *trace.Tracer) { c.tracer.Store(t) }

// noteProcessed counts one completed packet-in dispatch. The tracer is
// credited first: a Settle that sees the count catch up may barrier at
// once, and BarrierReply only stamps spans the credit watermark has passed.
func (c *Controller) noteProcessed() {
	c.tracer.Load().Credit(1)
	c.processed.Add(1)
}

// NewController creates an empty controller.
func NewController() *Controller {
	return &Controller{
		switches:    make(map[uint64]*Switch),
		serving:     make(map[oftransport.Transport]struct{}),
		MissSendLen: 128,
		echoEvery:   15 * time.Second,
	}
}

// Register adds a component and runs its Configure hook.
func (c *Controller) Register(comp Component) error {
	c.mu.Lock()
	c.components = append(c.components, comp)
	c.mu.Unlock()
	if err := comp.Configure(c); err != nil {
		return fmt.Errorf("nox: configuring %s: %w", comp.Name(), err)
	}
	return nil
}

// Components returns registered component names in order.
func (c *Controller) Components() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, len(c.components))
	for i, comp := range c.components {
		names[i] = comp.Name()
	}
	return names
}

// chain is a handler list published copy-on-write: registering a handler
// stores a new slice, and a stored slice is never written again, so a
// dispatch ranges over the one it loaded without copying it. A handler
// registered during a dispatch runs from the next one on.
type chain[F any] struct{ fns atomic.Pointer[[]F] }

func (c *chain[F]) add(fn F) {
	for {
		old := c.fns.Load()
		var fns []F
		if old != nil {
			fns = *old
		}
		fns = append(fns[:len(fns):len(fns)], fn)
		if c.fns.CompareAndSwap(old, &fns) {
			return
		}
	}
}

// load returns the handlers registered so far, in registration order. The
// caller must not modify the slice.
func (c *chain[F]) load() []F {
	if fns := c.fns.Load(); fns != nil {
		return *fns
	}
	return nil
}

// OnPacketIn registers a packet-in handler; handlers run in registration
// order until one returns Stop.
func (c *Controller) OnPacketIn(fn func(*PacketInEvent) Disposition) { c.packetIn.add(fn) }

// OnJoin registers a datapath-join handler.
func (c *Controller) OnJoin(fn func(*JoinEvent)) { c.join.add(fn) }

// OnFlowRemoved registers a flow-removed handler.
func (c *Controller) OnFlowRemoved(fn func(*FlowRemovedEvent)) { c.flowRem.add(fn) }

// ListenAndServe accepts datapath connections on a TCP address until Close.
func (c *Controller) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				_ = c.ServeTransport(oftransport.NewTCP(conn))
			}()
		}
	}()
	return nil
}

// Addr returns the listen address once ListenAndServe has been called.
func (c *Controller) Addr() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops the listener, disconnects all datapaths (including any
// still in handshake) and waits until every connection handler has
// finished dispatching.
func (c *Controller) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	ln := c.ln
	trs := make([]oftransport.Transport, 0, len(c.serving))
	for tr := range c.serving {
		trs = append(trs, tr)
	}
	c.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, tr := range trs {
		_ = tr.Close()
	}
	c.wg.Wait()
	return nil
}

// Switch returns a connected datapath by id.
func (c *Controller) Switch(dpid uint64) (*Switch, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sw, ok := c.switches[dpid]
	return sw, ok
}

// Switches returns all connected datapaths.
func (c *Controller) Switches() []*Switch {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Switch, 0, len(c.switches))
	for _, sw := range c.switches {
		out = append(out, sw)
	}
	return out
}

// ServeTransport performs the controller side of the OpenFlow handshake on
// one transport endpoint and services it until it closes: ListenAndServe
// runs it on each accepted connection; pass it one end of an
// oftransport.Pair to attach an in-process datapath with no framing cost.
// Close waits for every ServeTransport (however it was started) to finish
// dispatching, exactly as it does for accepted TCP connections.
func (c *Controller) ServeTransport(tr oftransport.Transport) error {
	// Registration, the closed check and wg.Add share the mutex so a
	// concurrent Close either sees tr in the registry (and closes it) or
	// happened first (and this serve refuses to start).
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		_ = tr.Close()
		return errors.New("nox: controller closed")
	}
	c.serving[tr] = struct{}{}
	c.wg.Add(1)
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.serving, tr)
		c.mu.Unlock()
		c.wg.Done()
	}()

	sw := c.newSwitch(tr)

	if err := tr.Send(&openflow.Hello{}); err != nil {
		tr.Close()
		return err
	}
	msg, err := tr.Recv()
	if err != nil {
		tr.Close()
		return err
	}
	if _, ok := msg.(*openflow.Hello); !ok {
		tr.Close()
		return errors.New("nox: handshake: expected HELLO")
	}

	// Features exchange. The read loop is not running yet, so read inline.
	freq := &openflow.FeaturesRequest{}
	freq.Header.XID = sw.nextXID()
	if err := tr.Send(freq); err != nil {
		tr.Close()
		return err
	}
	var features *openflow.FeaturesReply
	for features == nil {
		msg, err := tr.Recv()
		if err != nil {
			tr.Close()
			return err
		}
		if fr, ok := msg.(*openflow.FeaturesReply); ok {
			features = fr
		}
	}
	if err := c.joinSwitch(sw, features); err != nil {
		tr.Close()
		return err
	}
	err = sw.readLoop()
	c.leaveSwitch(sw)
	return err
}

// AttachDirect attaches a datapath over one end of an oftransport.Direct
// channel and returns its switch once the handshake is done. Nothing runs
// on a goroutine of its own: the handshake runs on the caller's, and from
// then on each message the datapath sends is handled inside the Send that
// carries it (Switch.deliver). tr is what the switch sends on — end itself,
// or a wrapper of it such as core.Config.WrapTransport returns. Close and
// the leave event work as for ServeTransport: closing either end of the
// channel, or the controller, detaches the switch.
func (c *Controller) AttachDirect(end *oftransport.DirectEnd, tr oftransport.Transport) (*Switch, error) {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		_ = tr.Close()
		return nil, errors.New("nox: controller closed")
	}
	c.serving[tr] = struct{}{}
	c.mu.Unlock()
	sw := c.newSwitch(tr)
	end.Bind(sw.deliver, func() {
		sw.failPending(oftransport.ErrClosed)
		c.mu.Lock()
		delete(c.serving, tr)
		c.mu.Unlock()
		c.leaveSwitch(sw)
	})
	// The datapath is idle, so the request is answered before Send returns.
	rep, err := sw.request(&openflow.FeaturesRequest{}, 5*time.Second)
	features, ok := rep.(*openflow.FeaturesReply)
	if err == nil && !ok {
		err = fmt.Errorf("nox: handshake: expected FEATURES_REPLY, got %T", rep)
	}
	if err == nil {
		err = c.joinSwitch(sw, features)
	}
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	return sw, nil
}

func (c *Controller) newSwitch(tr oftransport.Transport) *Switch {
	return &Switch{tr: tr, ctl: c, pending: make(map[uint32]chan openflow.Message)}
}

// joinSwitch completes a handshake: it pushes the switch config, registers the
// switch and runs the join handlers.
func (c *Controller) joinSwitch(sw *Switch, features *openflow.FeaturesReply) error {
	sw.dpid = features.DatapathID

	cfg := &openflow.SetConfig{Flags: openflow.ConfigFragNormal, MissSendLen: c.MissSendLen}
	cfg.Header.XID = sw.nextXID()
	if err := sw.tr.Send(cfg); err != nil {
		return err
	}

	c.mu.Lock()
	c.switches[sw.dpid] = sw
	c.mu.Unlock()
	sw.joined.Store(true)
	for _, fn := range c.join.load() {
		fn(&JoinEvent{Switch: sw, Features: features})
	}
	return nil
}

// leaveSwitch unregisters a joined switch, once.
func (c *Controller) leaveSwitch(sw *Switch) {
	if !sw.joined.CompareAndSwap(true, false) {
		return
	}
	c.mu.Lock()
	if c.switches[sw.dpid] == sw {
		delete(c.switches, sw.dpid)
	}
	c.mu.Unlock()
}

// dispatchPacketIn runs the packet-in handler chain for one punt; the
// switch counts the dispatch via noteProcessed when it returns.
func (c *Controller) dispatchPacketIn(ev *PacketInEvent) {
	for _, fn := range c.packetIn.load() {
		if fn(ev) == Stop {
			return
		}
	}
}

func (c *Controller) dispatchFlowRemoved(ev *FlowRemovedEvent) {
	for _, fn := range c.flowRem.load() {
		fn(ev)
	}
}
