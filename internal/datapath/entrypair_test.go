package datapath

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// entryState is everything of a flow entry a flow-mod, a match or an
// expiry could move.
type entryState struct {
	match                openflow.Match
	priority             uint16
	cookie               uint64
	idle, hard           uint16
	actions              string
	sendFlowRem          bool
	installed            time.Time
	packets, bytes       uint64
	lastUsed, deadlineAt int64
}

func stateOf(e *FlowEntry) entryState {
	last := e.lastUsed.Load()
	return entryState{
		match: e.Match, priority: e.Priority, cookie: e.Cookie,
		idle: e.IdleTimeout, hard: e.HardTimeout,
		actions:     fmt.Sprint(e.Actions),
		sendFlowRem: e.SendFlowRem, installed: e.Installed,
		packets: e.PacketCount(), bytes: e.ByteCount(),
		lastUsed: last, deadlineAt: e.deadline(max(last, e.Installed.UnixNano())),
	}
}

// installed returns the table's exact entry for m, or nil.
func installed(dp *Datapath, m openflow.Match) *FlowEntry {
	dp.table.mu.RLock()
	defer dp.table.mu.RUnlock()
	return dp.table.exact[m]
}

// wantPair fails t unless a and b are the two entries of one allocation.
func wantPair(t *testing.T, a, b *FlowEntry) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("entries %p and %p, want both installed", a, b)
	}
	if uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != unsafe.Sizeof(FlowEntry{}) {
		t.Fatalf("entries at %p and %p, want one pair: a connection's two directions share an allocation", a, b)
	}
}

func newPairRig() (*Datapath, *clock.Simulated) {
	clk := clock.NewSimulated()
	dp := New(Config{Clock: clk}) // not connected: what it sends goes nowhere
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Out: func([]byte) {}})
	_ = dp.AddPort(&Port{No: 3, Out: func([]byte) {}})
	return dp, clk
}

// Two entries carved from one allocation are two entries: charging,
// modifying, deleting or expiring either leaves the other's counters,
// deadline, actions and every other field as they were.
func TestPairedEntriesStayIndependent(t *testing.T) {
	for _, end := range []string{"delete", "expire"} {
		for target := 0; target < 2; target++ {
			t.Run(fmt.Sprintf("%s entry %d of the pair", end, target), func(t *testing.T) {
				dp, clk := newPairRig()
				frames := [2][]byte{tcpFrame(1, 2, 80), tcpFrame(2, 1, 80)}
				var ms [2]openflow.Match
				for i, f := range frames {
					ms[i] = exactMatchFor(t, f, 1)
					fm := addFlow(ms[i], openflow.NoBuffer, output(uint16(2+i)))
					fm.Cookie = uint64(i + 1)
					fm.Flags = openflow.FlowModFlagSendFlowRem
					if i == target {
						if end == "expire" {
							fm.HardTimeout = 30
						}
					} else {
						fm.IdleTimeout = 60 // a deadline a wrong charge would move
					}
					dp.deliver(fm)
					clk.Advance(time.Second)
				}
				es := [2]*FlowEntry{installed(dp, ms[0]), installed(dp, ms[1])}
				wantPair(t, es[0], es[1])
				e, other := es[target], es[1-target]
				before := stateOf(other)
				unmoved := func(op string) {
					t.Helper()
					if got := stateOf(other); got != before {
						t.Fatalf("after %s of its partner, entry %d reads\n%+v\nwant\n%+v", op, 1-target, got, before)
					}
				}

				for range 3 {
					clk.Advance(time.Second)
					dp.Receive(1, frames[target])
				}
				if e.PacketCount() != 3 || e.ByteCount() != 3*uint64(len(frames[target])) {
					t.Fatalf("charged entry reads %d packets, %d bytes, want 3 frames", e.PacketCount(), e.ByteCount())
				}
				unmoved("a charge")

				dp.deliver(&openflow.FlowMod{
					Match: ms[target], Command: openflow.FlowModModifyStrict, Priority: 10,
					BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
					Actions: []openflow.Action{output(uint16(3 - target))},
				})
				if got, want := fmt.Sprint(e.Actions), fmt.Sprint([]openflow.Action{output(uint16(3 - target))}); got != want {
					t.Fatalf("modified entry's actions %s, want %s", got, want)
				}
				unmoved("a modify")

				switch end {
				case "delete":
					dp.deliver(&openflow.FlowMod{
						Match: ms[target], Command: openflow.FlowModDeleteStrict, Priority: 10,
						BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
					})
				case "expire":
					clk.Advance(30 * time.Second)
					if n := dp.SweepExpired(); n != 1 {
						t.Fatalf("sweep removed %d entries, want the one past its hard timeout", n)
					}
				}
				if installed(dp, ms[target]) != nil || installed(dp, ms[1-target]) != other {
					t.Fatalf("after the %s the table holds %d entries, want only the partner", end, dp.table.Len())
				}
				unmoved("a " + end)
			})
		}
	}
}

// A counter commit on one entry of a pair races the removal of its
// partner, by expiry sweep or by DELETE flow-mod, on another goroutine.
// The two share an allocation and nothing else: run with -race -count=20.
func TestPairedEntryChargeRacesPartnerRemoval(t *testing.T) {
	dp, clk := newPairRig()
	const rounds, batches, perBatch = 40, 50, 4
	work, done := make(chan []byte), make(chan struct{})
	go func() {
		for f := range work {
			var fb packet.FrameBatch
			fb.Append(f)
			for range perBatch - 1 {
				fb.Repeat()
			}
			for range batches {
				dp.ReceiveBatch(1, &fb)
			}
			done <- struct{}{}
		}
	}()
	defer close(work)
	for r := range rounds {
		charged, removed := tcpFrame(1, 2, uint16(1000+r)), tcpFrame(2, 1, uint16(1000+r))
		mc, mr := exactMatchFor(t, charged, 1), exactMatchFor(t, removed, 1)
		dp.deliver(addFlow(mc, openflow.NoBuffer, output(2)))
		fm := addFlow(mr, openflow.NoBuffer, output(3))
		fm.HardTimeout = 1
		fm.Flags = openflow.FlowModFlagSendFlowRem
		dp.deliver(fm)
		e := installed(dp, mc)
		wantPair(t, e, installed(dp, mr))
		clk.Advance(2 * time.Second)

		work <- charged
		if r%2 == 0 {
			dp.SweepExpired()
		} else {
			dp.deliver(&openflow.FlowMod{
				Match: mr, Command: openflow.FlowModDeleteStrict, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			})
		}
		<-done

		if got := e.PacketCount(); got != batches*perBatch {
			t.Fatalf("round %d: the charged entry counted %d packets, want %d", r, got, batches*perBatch)
		}
		if installed(dp, mr) != nil || installed(dp, mc) != e {
			t.Fatalf("round %d: the table holds %d entries, want only the charged one", r, dp.table.Len())
		}
		dp.deliver(&openflow.FlowMod{
			Match: mc, Command: openflow.FlowModDeleteStrict, Priority: 10,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		})
	}
}
