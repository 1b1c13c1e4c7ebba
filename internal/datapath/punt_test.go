package datapath

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/clock"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// A head of inlineHead bytes lives in its puntBuffer and one byte more gets
// a copy of its own; either way every frame of the flow leaves — through
// releaseAll, through a re-homing packet-out, through a drop — as the
// punt-every-miss model sends it, byte for byte.
func TestInlineHeadBoundary(t *testing.T) {
	for _, size := range []int{inlineHead - 1, inlineHead, inlineHead + 1} {
		t.Run(fmt.Sprint("head=", size), func(t *testing.T) {
			r := newHoldRig(t, 0)
			ref := &puntEveryMiss{rules: map[openflow.Match][]openflow.Action{}, out: map[byte][]sentFrame{}}
			script := map[byte]verdict{}
			var frames [][]byte
			for v := verdict(0); v < verdicts; v++ {
				flow := byte(1 + v)
				script[flow] = v
				for seq := 0; seq < 4; seq++ {
					// Every frame of the flow is the size under test, so a
					// head a packet-out re-homes is too.
					frames = append(frames, paddedFlowFrame(flow, seq, size-packet.EthernetHeaderLen-40))
				}
			}
			if len(frames[0]) != size {
				t.Fatalf("frames are %d bytes, want %d", len(frames[0]), size)
			}
			ref.batch(t, frames, script)
			r.receive(frames...)

			holding(r.dp, func() {
				for id, b := range r.dp.buffers {
					if inline := &b.head[0] == &b.small[0]; inline != (size <= inlineHead) {
						t.Errorf("buffer %d: a %d-byte head inline = %v", id, size, inline)
					}
				}
			})

			got := map[byte][]sentFrame{}
			for pis := r.sync(); len(pis) > 0; pis = r.sync() {
				for _, pi := range pis {
					if len(pi.Data) != size || int(pi.TotalLen) != size {
						t.Errorf("packet-in carries %d of %d bytes, want %d", len(pi.Data), pi.TotalLen, size)
					}
					m := exactMatchFor(t, pi.Data, pi.InPort)
					for _, msg := range script[flowOf(pi.Data)].answer(m, pi.BufferID) {
						r.send(msg)
					}
				}
			}
			for _, s := range r.sent() {
				got[flowOf(s.frame)] = append(got[flowOf(s.frame)], s)
			}
			ref.wantSame(t, script, got)
			if punts, held := r.buffered(); punts != 0 || held != 0 {
				t.Errorf("buffered %d punts, %d held after every answer", punts, held)
			}
		})
	}
}

// A handler may read its packet-in — data, in_port, buffer id — after it
// has answered, as nox's read loop does, and a packet-out that re-homes the
// frames held behind the punt must not touch it: the re-homed punt is a
// packet-in of its own, sent while the first is still being read. Run with
// -race -count=20: a re-homed punt that reused its predecessor's buffer is
// a data race with the reader as well as a packet-in that changes.
func TestRehomedPacketInOutlivesItsAnswer(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 4)
	r.receive(a...)
	pis := r.sync()
	if len(pis) != 1 {
		t.Fatalf("%d packet-ins, want 1", len(pis))
	}
	for i := 0; i < len(a)-1; i++ {
		pi, id := pis[0], pis[0].BufferID
		stop, done := make(chan struct{}), make(chan error)
		go func() {
			var err error
			for {
				select {
				case <-stop:
					done <- err
					return
				default:
				}
				if err == nil && (!bytes.Equal(pi.Data, a[i]) || pi.InPort != 1 || pi.BufferID != id) {
					err = fmt.Errorf("packet-in %d changed under its reader: in_port %d, buffer %d, data %x",
						i, pi.InPort, pi.BufferID, pi.Data)
				}
			}
		}()
		r.send(packetOut(id, output(2)))
		pis = r.sync()
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(pis) != 1 || pis[0] == pi || pis[0].BufferID == id || !bytes.Equal(pis[0].Data, a[i+1]) {
			t.Fatalf("after packet-out %d: packet-ins %+v, want a new one carrying frame %d", i, pis, i+1)
		}
	}
	r.send(addFlow(exactMatchFor(t, a[0], 1), pis[0].BufferID, output(2)))
	r.sync()
	wantSent(t, r.sent(), 2, a)
}

// A warm new flow costs the datapath what outlives the dispatch and nothing
// else. Its miss allocates nothing, for a head inline or not: the punt
// buffer comes off the free list and the packet-in out of openflow's pool,
// and the packet-in, sent nowhere, goes back. The flow-mods that answer
// them allocate the flow entries, two to an allocation, and hand the
// buffers back: n answers allocate n/2 times.
func TestWarmNewFlowAllocatesOnlyItsEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools

	for _, size := range []int{inlineHead, inlineHead + 1} {
		dp := New(Config{Clock: clock.NewSimulated()}) // not connected: a packet-in goes nowhere
		_ = dp.AddPort(&Port{No: 1})
		_ = dp.AddPort(&Port{No: 2, Out: func([]byte) {}})
		const n = 200
		var (
			frames [][]byte
			mods   []*openflow.FlowMod
		)
		for i := 0; i < 2*n; i++ {
			f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 1, 1},
				packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 1, 1}, uint16(1024+i), 80, packet.TCPAck, 1, 0,
				make([]byte, size-packet.EthernetHeaderLen-40))
			frames = append(frames, f)
			mods = append(mods, addFlow(exactMatchFor(t, f, 1), uint32(i+1), output(2)))
		}
		punted, answered := 0, 0
		punt := func() { dp.Receive(1, frames[punted]); punted++ }
		answer := func() { dp.handle(mods[answered]); answered++ }
		for punted < n { // warm: the maps grow to a round's size, the free list fills
			punt()
		}
		for answered < n {
			answer()
		}
		all := openflow.MatchAll()
		dp.table.delete(&all, 0, false, openflow.PortNone)

		// Each miss is answered before the next, as a churning home's are,
		// and the two are counted apart; like testing.AllocsPerRun, the
		// average rounds down what another goroutine allocates meanwhile.
		// The warm-up answered an even number, so the pairs line up.
		var missAllocs, answerAllocs uint64
		for range n {
			missAllocs += mallocs(punt)
			answerAllocs += mallocs(answer)
		}
		if got := missAllocs / n; got != 0 {
			t.Errorf("%d-byte head: a warm miss allocates %d times, want 0", size, got)
		}
		if got := answerAllocs / (n / 2); got != 1 {
			t.Errorf("%d-byte head: %d flow-mods answering them allocate %d times, want %d (an entry pair each two)", size, n, answerAllocs, n/2)
		}
		if p2, _ := dp.Port(2); p2.Stats().TxPackets != uint64(answered) || answered != punted {
			t.Errorf("%d-byte head: %d frames released of %d punted, want every one", size, p2.Stats().TxPackets, punted)
		}
	}
}

// mallocs is how many heap allocations the process makes during a call of
// f.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// A flow-mod from openflow's pool is the datapath's to release once it has
// handled it, and not before: the entry it installs carries its match,
// priority and actions, the frames buffered behind its punt leave through
// those actions, and only then does the message read zeros.
func TestPooledFlowModInstallsBeforeItIsReleased(t *testing.T) {
	r := newHoldRig(t, 0)
	a := flowFrames(1, 0, 3)
	r.receive(a...)
	pis := r.sync()
	if len(pis) != 1 {
		t.Fatalf("%d packet-ins, want 1", len(pis))
	}
	m := exactMatchFor(t, a[0], 1)
	fm := openflow.NewFlowMod(*addFlow(m, pis[0].BufferID, output(2)))
	fm.Cookie = 7
	r.send(fm)
	r.sync()

	wantSent(t, r.sent(), 2, a)
	entries := r.dp.Table().Entries(&m, openflow.PortNone)
	if len(entries) != 1 || entries[0].Priority != 10 || entries[0].Cookie != 7 || len(entries[0].Actions) != 1 {
		t.Fatalf("the flow-mod installed %+v", entries)
	}
	if fm.Match != (openflow.Match{}) || fm.BufferID != 0 || fm.Actions != nil {
		t.Errorf("the handled flow-mod still reads match %v, buffer %d, %d actions: it was not released",
			fm.Match, fm.BufferID, len(fm.Actions))
	}
}
