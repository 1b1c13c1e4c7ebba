package chaos

import (
	"sync"

	"repro/internal/oftransport"
	"repro/internal/openflow"
)

// Faults is one home's control-channel fault switchboard. Installed via
// core.Config.WrapTransport, it interposes on the Send side of both
// in-process transport ends:
//
//   - wedgeController holds every packet-in the datapath punts (the
//     controller simply stops hearing about new flows, exactly as a
//     wedged or GC-stalled controller would look). Punt/dispatch
//     accounting makes the wedge visible: the datapath counts the punt
//     before Send, the controller can only count what arrives, so its
//     dispatches lag the punts and the next Settle returns an error
//     matching core.ErrWedged at once — every other message still passes.
//   - dropFlowMods / delayFlowMods discard or hold the controller's
//     flow-mods (a lossy or congested southbound channel): punted
//     packets keep being dispatched and credited, but the rules they
//     produced never (or only later) reach the flow table.
//
// Lifting a wedge or delay releases the held messages, in order, into
// the real transport, on the lifting goroutine and outside the
// switchboard's lock: on a direct channel a released punt is dispatched,
// and the flow-mods that answer it are handled, inside that Send, and may
// come back through the switchboard. What the channel sends while a
// release is under way queues behind the messages still held, so the
// order stays the one they were sent in. Re-wrapping (the remediation
// loop restarting the home's router) rebinds the switchboard to the new
// channel ends and discards messages held for the dead incarnation, while
// active fault flags persist, so an episode outlives the restart it
// provoked. The switchboard owns the messages it holds, as their receiver
// would, and releases those it drops (openflow.Release): a dropped
// flow-mod, and whatever a re-wrap discards.
//
// All methods are safe for concurrent use; the pass-through preserves
// the full oftransport.Transport contract.
type Faults struct {
	mu        sync.Mutex
	wedged    bool
	dropMods  bool
	delayMods bool
	heldPunts []openflow.Message
	heldMods  []openflow.Message
	// releasingPunts/releasingMods are set while a lift is passing the held
	// messages on; what arrives meanwhile is held behind them.
	releasingPunts bool
	releasingMods  bool
	ctlInner       oftransport.Transport // controller end: Send carries flow-mods
	dpInner        oftransport.Transport // datapath end: Send carries punts
	stats          FaultStats
}

// FaultStats counts what the switchboard has done to the channel.
type FaultStats struct {
	HeldPunts     uint64 // punts currently held by an active wedge
	ReleasedPunts uint64 // punts released by lifted wedges
	LostPunts     uint64 // punts discarded by a restart while held
	DroppedMods   uint64 // flow-mods discarded by dropFlowMods
	HeldMods      uint64 // flow-mods currently held by delayFlowMods
	ReleasedMods  uint64 // flow-mods released by lifted delays
	LostMods      uint64 // flow-mods discarded by a restart while held
}

// wrap interposes the switchboard on a router's in-process control
// channel; install it as core.Config.WrapTransport (method value:
// cfg.WrapTransport = f.wrap). Safe to call again for a restarted
// router: held messages for the old incarnation are discarded (and
// accounted), fault flags carry over.
func (f *Faults) wrap(ctl, dp oftransport.Transport) (oftransport.Transport, oftransport.Transport) {
	f.mu.Lock()
	f.ctlInner, f.dpInner = ctl, dp
	f.stats.LostPunts += uint64(len(f.heldPunts))
	f.stats.LostMods += uint64(len(f.heldMods))
	f.stats.HeldPunts, f.stats.HeldMods = 0, 0
	lost := append(f.heldPunts, f.heldMods...)
	f.heldPunts, f.heldMods = nil, nil
	f.mu.Unlock()
	for _, msg := range lost {
		openflow.Release(msg)
	}
	return &faultEnd{f: f, inner: ctl, ctl: true}, &faultEnd{f: f, inner: dp}
}

// wedgeController starts (on=true) or lifts (on=false) a controller
// wedge. Lifting releases the held punts, oldest first.
func (f *Faults) wedgeController(on bool) {
	f.mu.Lock()
	f.wedged = on
	f.mu.Unlock()
	if !on {
		f.release(&f.heldPunts, &f.releasingPunts, &f.dpInner, &f.stats.HeldPunts, &f.stats.ReleasedPunts)
	}
}

// release passes a held queue on to the inner end, oldest first, until it
// is empty. What the channel sends while the release runs queues behind the
// held messages and goes out after them; it passes through the fault's
// books as it would have with the fault lifted, uncounted. A concurrent
// lift of the same fault leaves the queue to the release already running.
func (f *Faults) release(held *[]openflow.Message, releasing *bool, inner *oftransport.Transport, heldN, releasedN *uint64) {
	f.mu.Lock()
	if *releasing {
		f.mu.Unlock()
		return
	}
	*releasing = true
	*releasedN += *heldN
	*heldN = 0
	for len(*held) > 0 {
		batch, to := *held, *inner
		*held = nil
		f.mu.Unlock()
		for _, msg := range batch {
			if to != nil {
				_ = to.Send(msg)
			} else {
				openflow.Release(msg)
			}
		}
		f.mu.Lock()
	}
	*releasing = false
	f.mu.Unlock()
}

// dropFlowMods makes the controller's flow-mods vanish on the wire while
// on; everything else (packet-outs, barriers, stats) still flows.
func (f *Faults) dropFlowMods(on bool) {
	f.mu.Lock()
	f.dropMods = on
	f.mu.Unlock()
}

// delayFlowMods holds the controller's flow-mods while on; turning it
// off releases them, oldest first — rules arrive late, not never.
func (f *Faults) delayFlowMods(on bool) {
	f.mu.Lock()
	f.delayMods = on
	f.mu.Unlock()
	if !on {
		f.release(&f.heldMods, &f.releasingMods, &f.ctlInner, &f.stats.HeldMods, &f.stats.ReleasedMods)
	}
}

// Stats snapshots the switchboard counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// interceptPunt holds a datapath→controller punt while a wedge is active
// on the current channel incarnation. Reports true when held.
func (f *Faults) interceptPunt(msg openflow.Message, inner oftransport.Transport) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.wedged && !f.releasingPunts || inner != f.dpInner {
		return false
	}
	f.heldPunts = append(f.heldPunts, msg)
	if f.wedged {
		f.stats.HeldPunts++
	}
	return true
}

// interceptMod drops or holds a controller→datapath flow-mod per the
// active faults. Reports true when the message must not be forwarded.
func (f *Faults) interceptMod(msg openflow.Message, inner oftransport.Transport) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if inner != f.ctlInner {
		return false
	}
	if f.dropMods {
		f.stats.DroppedMods++
		openflow.Release(msg)
		return true
	}
	if f.delayMods || f.releasingMods {
		f.heldMods = append(f.heldMods, msg)
		if f.delayMods {
			f.stats.HeldMods++
		}
		return true
	}
	return false
}

// faultEnd wraps one transport end, filtering its Send direction through
// the switchboard and passing everything else straight through.
type faultEnd struct {
	f     *Faults
	inner oftransport.Transport
	ctl   bool // controller end: Sends carry flow-mods toward the datapath
}

var _ oftransport.Transport = (*faultEnd)(nil)

func (e *faultEnd) Send(msg openflow.Message) error {
	if e.ctl {
		if _, isMod := msg.(*openflow.FlowMod); isMod && e.f.interceptMod(msg, e.inner) {
			return nil
		}
	} else {
		if _, isPunt := msg.(*openflow.PacketIn); isPunt && e.f.interceptPunt(msg, e.inner) {
			return nil
		}
	}
	return e.inner.Send(msg)
}

func (e *faultEnd) Recv() (openflow.Message, error) { return e.inner.Recv() }

func (e *faultEnd) Close() error { return e.inner.Close() }
