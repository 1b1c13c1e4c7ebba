package chaos

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// newChaosFleet builds a fleet whose every home routes its in-process
// control channel through the engine's fault switchboard.
func newChaosFleet(t *testing.T, homes int, seed int64) (*fleet.Coordinator, *Engine) {
	t.Helper()
	eng := newEngine()
	fl := fleet.New(fleet.Config{
		Clock: clock.NewSimulated(),
		Seed:  seed,
		HomeConfig: func(id uint64, c *core.Config) {
			c.WrapTransport = eng.faultsFor(id).wrap
		},
	})
	t.Cleanup(fl.Stop)
	eng.Bind(fl)
	if _, err := fl.AddHomes(homes); err != nil {
		t.Fatal(err)
	}
	return fl, eng
}

// TestWedgeSettleDeadlineAndRecovery injects a controller wedge and
// checks the settle contract under it: the held punts are never
// dispatched, so Settle (and the fleet step driving it) returns
// core.ErrWedged at once instead of hanging; lifting the wedge replays the
// punts and the control path settles and binds the device that was stuck
// joining.
func TestWedgeSettleDeadlineAndRecovery(t *testing.T) {
	fl, eng := newChaosFleet(t, 1, 42)
	h := fl.Homes()[0]

	// Clean baseline: a device joins and binds with no fault active.
	host1, err := h.Join("", false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !host1.Bound() {
		t.Fatal("baseline device did not bind")
	}
	if err := fl.Step(1); err != nil {
		t.Fatal(err)
	}

	f := eng.faultsFor(h.ID)
	f.wedgeController(true)
	host2, err := h.Router.Net.AddHost("dev-wedged", packet.MustMAC("02:ee:00:00:00:01"), false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = h.Router.JoinHost(host2)
	if !errors.Is(err, core.ErrWedged) {
		t.Fatalf("JoinHost under wedge: err = %v, want core.ErrWedged", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("settle under wedge took %v; the wedge was not reported at once", wall)
	}
	if host2.Bound() {
		t.Fatal("device bound through a wedged controller")
	}
	if st := f.Stats(); st.HeldPunts == 0 {
		t.Fatalf("wedge held no punts: %+v", st)
	}

	// A fleet step over the wedged home surfaces the same error and
	// counts a settle failure on the home (the health evaluator's vital).
	if err := fl.Step(1); !errors.Is(err, core.ErrWedged) {
		t.Fatalf("fleet.Step over wedged home: err = %v, want core.ErrWedged", err)
	}
	if h.SettleErrs() == 0 {
		t.Error("settle failure not counted on the home")
	}

	// Lift the wedge: the held punts replay in order, their dispatches
	// catch up, and the join completes.
	f.wedgeController(false)
	if err := h.Router.Settle(); err != nil {
		t.Fatalf("settle after lift: %v", err)
	}
	if !host2.Bound() {
		if err := h.Router.JoinHost(host2); err != nil {
			t.Fatal(err)
		}
	}
	if !host2.Bound() {
		t.Fatal("device did not bind after the wedge lifted")
	}
	st := f.Stats()
	if st.HeldPunts != 0 || st.ReleasedPunts == 0 {
		t.Fatalf("release accounting after lift: %+v", st)
	}
	if err := fl.Step(1); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
}

// TestDropAndDelayFlowMods checks the southbound fault pair: dropFlowMods
// makes rules vanish (punts keep flowing and settling, so the control
// path stays live), delayFlowMods holds rules and replays them on lift.
func TestDropAndDelayFlowMods(t *testing.T) {
	fl, eng := newChaosFleet(t, 1, 43)
	h := fl.Homes()[0]
	host, err := h.Join("", false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 60_000))
	f := eng.faultsFor(h.ID)

	f.dropFlowMods(true)
	// Traffic punts, the punts dispatch and credit (Settle succeeds), but
	// every resulting flow-mod is eaten.
	for i := 0; i < 3; i++ {
		if err := fl.Step(0.5); err != nil {
			t.Fatalf("step under drop-mods: %v", err)
		}
	}
	if st := f.Stats(); st.DroppedMods == 0 {
		t.Fatalf("no flow-mods dropped: %+v", st)
	}
	f.dropFlowMods(false)

	f.delayFlowMods(true)
	if err := fl.Step(0.5); err != nil {
		t.Fatalf("step under delay-mods: %v", err)
	}
	held := f.Stats().HeldMods
	if held == 0 {
		t.Fatalf("no flow-mods held: %+v", f.Stats())
	}
	f.delayFlowMods(false)
	st := f.Stats()
	if st.HeldMods != 0 || st.ReleasedMods != held {
		t.Fatalf("delay release accounting: held %d, stats %+v", held, st)
	}
	if err := fl.Step(0.5); err != nil {
		t.Fatalf("step after faults lifted: %v", err)
	}
}

// A policy flush during delay-mods deletes the rules the fault still
// holds: its deletes are flow-mods, so they queue behind the held adds and
// remove them once they land, and no rule decided under the old policy
// outlives the flush. (Releasing a held add forwards the frame it buffered,
// whose answer may punt and be ruled on afresh, after the flush.)
func TestPolicyFlushCoversHeldRules(t *testing.T) {
	fl, eng := newChaosFleet(t, 1, 44)
	h := fl.Homes()[0]
	host, err := h.Join("", false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	host.AddApp(netsim.NewApp(netsim.AppWeb, "203.0.113.10", 60_000))
	f := eng.faultsFor(h.ID)
	f.delayFlowMods(true)
	for i := 0; i < 10 && f.Stats().HeldMods == 0; i++ {
		if err := fl.Step(0.5); err != nil {
			t.Fatalf("step under delay-mods: %v", err)
		}
	}
	var held []openflow.Match
	for _, msg := range f.heldMods {
		if fm := msg.(*openflow.FlowMod); fm.Command == openflow.FlowModAdd {
			held = append(held, fm.Match)
		}
	}
	if len(held) == 0 {
		t.Fatalf("no rule held: %+v", f.Stats())
	}
	h.Router.Policy.InsertKey("flush")
	f.delayFlowMods(false)
	for _, e := range h.Router.Datapath.Table().Entries(nil, openflow.PortNone) {
		if slices.Contains(held, e.Match) {
			t.Errorf("rule %v, held when the policy changed, outlived the flush", &e.Match)
		}
	}
}

// TestWrapAcrossRestartKeepsFaults restarts a home while its controller
// is wedged: the fresh incarnation's channel rebinds through the same
// switchboard, messages held for the dead incarnation are discarded and
// accounted, and the wedge itself persists until lifted.
func TestWrapAcrossRestartKeepsFaults(t *testing.T) {
	fl, eng := newChaosFleet(t, 1, 44)
	h := fl.Homes()[0]
	id := h.ID
	f := eng.faultsFor(id)

	f.wedgeController(true)
	// Provoke held punts: a join's DISCOVER goes into the wedge.
	host, err := h.Router.Net.AddHost("dev", packet.MustMAC("02:ee:00:00:00:01"), false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Router.JoinHost(host); !errors.Is(err, core.ErrWedged) {
		t.Fatalf("join under wedge: %v", err)
	}
	heldBefore := f.Stats().HeldPunts
	if heldBefore == 0 {
		t.Fatal("no punts held before restart")
	}

	h2, err := fl.RestartHome(id)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.HeldPunts != 0 || st.LostPunts != heldBefore {
		t.Fatalf("restart did not retire held punts: %+v", st)
	}

	// The wedge survives the restart: the new incarnation's joins are
	// still starved until the fault lifts.
	host2, err := h2.Router.Net.AddHost("dev2", packet.MustMAC("02:ee:00:00:00:02"), false, netsim.Pos{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Router.JoinHost(host2); !errors.Is(err, core.ErrWedged) {
		t.Fatalf("join after restart under persisting wedge: %v", err)
	}
	f.wedgeController(false)
	if err := h2.Router.Settle(); err != nil {
		t.Fatalf("settle after lift: %v", err)
	}
	if !host2.Bound() {
		if err := h2.Router.JoinHost(host2); err != nil || !host2.Bound() {
			t.Fatalf("device did not bind after lift (err %v, bound %v)", err, host2.Bound())
		}
	}
}

// A packet-in the switchboard holds carries its own copy of the punted
// frame, so it outlives the punt's slot: with two buffers, four flows punt
// under a wedge, the first two slots are reclaimed and their buffers taken
// by the later punts, and when the wedge lifts every packet-in still
// carries the frame it was punted for.
func TestHeldPacketInOutlivesItsSlot(t *testing.T) {
	ctl := nox.NewController()
	t.Cleanup(func() { _ = ctl.Close() })
	var got [][]byte
	ctl.OnPacketIn(func(ev *nox.PacketInEvent) nox.Disposition {
		got = append(got, append([]byte(nil), ev.Msg.Data...))
		return nox.Continue
	})
	dp := datapath.New(datapath.Config{ID: 1, Clock: clock.NewSimulated(), NBuffers: 2})
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(&datapath.Port{No: 2})
	faults := &Faults{}
	ctlEnd, dpEnd := oftransport.Direct()
	ctlTr, dpTr := faults.wrap(ctlEnd, dpEnd)
	dp.AttachDirect(dpEnd, dpTr)
	if _, err := ctl.AttachDirect(ctlEnd, ctlTr); err != nil {
		t.Fatal(err)
	}

	faults.wedgeController(true)
	var frames [][]byte
	for i := 0; i < 4; i++ {
		f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, uint16(40000+i), 80, packet.TCPSyn, uint32(i), 0, nil)
		frames = append(frames, f)
		dp.Receive(1, f)
	}
	if st := faults.Stats(); st.HeldPunts != 4 || len(got) != 0 {
		t.Fatalf("under the wedge: %d punts held, %d dispatched; want 4 and none", st.HeldPunts, len(got))
	}
	faults.wedgeController(false)
	if len(got) != len(frames) {
		t.Fatalf("%d packet-ins dispatched after the lift, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("packet-in %d carries %x, want the frame it was punted for, %x", i, got[i], frames[i])
		}
	}
}
