package datapath

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// slowReceive is what the datapath does to one received frame with every
// shortcut taken out: no batch, no state carried from the frame before, and
// the action list run by the reference model, applyActions — decode, rewrite
// the Ethernet header, re-serialize it over the payload as it came — with
// the frame as it stands at each output handed to dispatch. It is the
// reference ReceiveBatch and execute are held to. It shares the flow table,
// the miss path and dispatch with them, which are not what they shortcut.
func slowReceive(dp *Datapath, inPort uint16, frame []byte) {
	p, ok := dp.Port(inPort)
	if !ok {
		return
	}
	p.countRxN(1, len(frame))
	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		return
	}
	key := openflow.MatchFromFrame(&d, inPort)
	nanos := dp.clk.Now().UnixNano()
	entry := dp.table.lookup(&key, len(frame), nanos)
	if entry == nil {
		dp.miss(p, frame, &key, nanos)
		return
	}
	var run batchRun // this frame's only
	applyActions(frame, entry.Actions, func(pn, maxLen uint16, out []byte) {
		dp.dispatch(inPort, out, pn, maxLen, &run)
	})
	run.done(dp)
}

// eachFrame calls fn for every frame of fb in order, each copy of a
// repeated frame on its own.
func eachFrame(fb *packet.FrameBatch, fn func(frame []byte)) {
	for i := 0; i < fb.Spans(); i++ {
		frame, n := fb.Span(i)
		for ; n > 0; n-- {
			fn(frame)
		}
	}
}

// pathRig is one datapath with four recording ports and no controller:
// punts are buffered and counted, their packet-ins go nowhere.
type pathRig struct {
	dp      *Datapath
	clk     *clock.Simulated
	ports   []*Port     // ports 1 to 4, kept even if removed
	sent    []sentFrame // every transmission, in order
	entries []*FlowEntry
}

func newPathRig(t *testing.T) *pathRig {
	r := &pathRig{clk: clock.NewSimulated()}
	r.dp = New(Config{ID: 7, Clock: r.clk, NBuffers: 1 << 16})
	for no := uint16(1); no <= 4; no++ {
		p := &Port{No: no, Out: readOnly(t, func(f []byte) {
			r.sent = append(r.sent, sentFrame{no, append([]byte(nil), f...)})
		})}
		_ = r.dp.AddPort(p)
		r.ports = append(r.ports, p)
	}
	return r
}

// readOnly wraps a sink in the check that it leaves the frame as it found
// it: a frame's bytes may be the ones its neighbours in the batch are
// handed, so a sink that wrote one would change frames it never saw.
func readOnly(t *testing.T, sink func([]byte)) func([]byte) {
	return func(f []byte) {
		before := crc32.ChecksumIEEE(f)
		sink(f)
		if crc32.ChecksumIEEE(f) != before {
			t.Errorf("a sink wrote the %d-byte frame it was handed", len(f))
		}
	}
}

func (r *pathRig) add(m openflow.Match, priority uint16, actions []openflow.Action) {
	e := &FlowEntry{Match: m, Priority: priority, Actions: actions, Installed: r.clk.Now()}
	if err := r.dp.table.Add(e, false); err != nil {
		panic(err)
	}
	r.entries = append(r.entries, e)
}

// randomActions draws an action list of the actions execute runs: MAC
// rewrites, outputs and enqueues, in any order — an output before a rewrite
// gets the frame as it stood there, on both paths. The forwarder emits
// rewrites first, the other orders are OpenFlow's all the same.
func randomActions(rng *rand.Rand) []openflow.Action {
	var as []openflow.Action
	for n := rng.Intn(7); n > 0; n-- {
		switch rng.Intn(9) {
		case 0:
			as = append(as, &openflow.ActionOutput{Port: openflow.PortInPort})
		case 1:
			as = append(as, &openflow.ActionOutput{Port: openflow.PortFlood})
		case 2:
			as = append(as, &openflow.ActionOutput{Port: openflow.PortController, MaxLen: uint16(rng.Intn(3) * 700)})
		case 3:
			as = append(as, &openflow.ActionEnqueue{Port: uint16(2 + rng.Intn(3)), QueueID: rng.Uint32()})
		case 4, 5:
			var mac packet.MAC
			rng.Read(mac[:])
			as = append(as, &openflow.ActionSetDLSrc{Addr: mac})
		case 6, 7:
			var mac packet.MAC
			rng.Read(mac[:])
			as = append(as, &openflow.ActionSetDLDst{Addr: mac})
		default:
			as = append(as, &openflow.ActionOutput{Port: uint16(2 + rng.Intn(3))})
		}
	}
	return as
}

// randomFlowFrame builds a well-formed frame of flow: the flow number fixes
// every field of the exact-match key, the rest is drawn afresh. Well-formed
// matters: the slow path recomputes the checksums the fast path leaves
// alone, so the two agree on frames whose checksums were right.
func randomFlowFrame(rng *rand.Rand, flow int) []byte {
	src, dst := packet.MAC{2, 0, 0, 0, 0, byte(flow)}, packet.MAC{2, 0, 0, 0, 1, 1}
	sip, dip := packet.IP4{10, 0, 0, byte(flow)}, packet.IP4{10, 0, 1, byte(flow % 3)}
	payload := make([]byte, rng.Intn(1401))
	rng.Read(payload)
	switch flow % 4 {
	case 0:
		return packet.AppendUDPFrame(nil, src, dst, sip, dip, 5000+uint16(flow), 53, payload)
	case 1:
		return packet.AppendICMPEchoFrame(nil, src, dst, sip, dip, packet.ICMPEchoRequest, uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), payload)
	default:
		return packet.AppendTCPFrame(nil, src, dst, sip, dip, 40000+uint16(flow), 443,
			packet.TCPAck|packet.TCPPsh, rng.Uint32(), rng.Uint32(), payload)
	}
}

// The fast path — ReceiveBatch carrying state from frame to frame,
// execute patching MACs in a scratch copy — must be indistinguishable
// from slowReceive: the same bytes out of the same ports in the same order,
// the same port counters, the same entry counters and last-used stamps, the
// same lookups and matches, the same punts with the same buffered heads and
// the same packet-in data, each as long as its output's max_len asked.
// Each case runs again with repeats: frames also committed again by
// FrameBatch.Repeat, whose copies share their span's decode and key and,
// after a first frame that left by rewrites then one output, leave as it
// did without an execute.
func TestFastPathMatchesSlowPath(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		// keyEvery: a new flow every frame, every k frames, never.
		for _, keyEvery := range []int{1, 2, 3, 7, 1 << 30} {
			t.Run(fmt.Sprintf("seed=%d/keyEvery=%d", seed, keyEvery), func(t *testing.T) {
				fastPathMatchesSlowPath(t, seed, keyEvery, false)
				t.Run("repeats", func(t *testing.T) {
					fastPathMatchesSlowPath(t, seed, keyEvery, true)
				})
			})
		}
	}
}

func fastPathMatchesSlowPath(t *testing.T, seed int64, keyEvery int, repeats bool) {
	const flows = 12 // flows 9..11 have no entry and miss
	rng := rand.New(rand.NewSource(seed))
	// The repeats draw from a source of their own, so the frames and
	// entries are the same with and without them.
	reps := rand.New(rand.NewSource(-seed))
	fast, slow := newPathRig(t), newPathRig(t)
	for flow := 0; flow < 9; flow++ {
		var d packet.Decoded
		if err := d.Decode(randomFlowFrame(rng, flow)); err != nil {
			t.Fatal(err)
		}
		m := openflow.MatchFromFrame(&d, 1)
		prio := uint16(10)
		if flow >= 6 {
			// Three flows ride wildcard entries: in_port and the
			// transport ports ignored.
			m.Wildcards |= openflow.FWInPort | openflow.FWTPSrc | openflow.FWTPDst
			prio = uint16(flow)
		}
		as := randomActions(rng)
		fast.add(m, prio, as)
		slow.add(m, prio, as)
	}
	for batch := 0; batch < 6; batch++ {
		var fb packet.FrameBatch
		flow := rng.Intn(flows)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			if i > 0 && i%keyEvery == 0 {
				flow = rng.Intn(flows)
			}
			fb.Append(randomFlowFrame(rng, flow))
			for repeats && reps.Intn(3) == 0 {
				fb.Repeat()
			}
		}
		if batch == 3 {
			fb.Append([]byte{1, 2, 3}) // undecodable: counted on the port, then dropped
			if repeats {
				fb.Repeat() // dropped with the frame it repeats
			}
		}
		fast.dp.ReceiveBatch(1, &fb)
		eachFrame(&fb, func(f []byte) { slowReceive(slow.dp, 1, f) })
		fast.clk.Advance(250 * time.Millisecond)
		slow.clk.Advance(250 * time.Millisecond)
	}
	comparePaths(t, fast, slow)
}

func comparePaths(t *testing.T, fast, slow *pathRig) {
	t.Helper()
	// Every transmission in order, floods included: a flood walks the ports
	// in ascending number on both paths.
	if len(fast.sent) != len(slow.sent) {
		t.Fatalf("fast path transmitted %d frames, slow path %d", len(fast.sent), len(slow.sent))
	}
	for i, want := range slow.sent {
		got := fast.sent[i]
		if got.port != want.port || !bytes.Equal(got.frame, want.frame) {
			at := 0
			for at < len(got.frame) && at < len(want.frame) && got.frame[at] == want.frame[at] {
				at++
			}
			t.Fatalf("transmission %d: fast path port %d, %d bytes; slow path port %d, %d bytes; differing from byte %d",
				i, got.port, len(got.frame), want.port, len(want.frame), at)
		}
	}
	for i, sp := range slow.ports {
		if fp := fast.ports[i]; fp.Stats() != sp.Stats() {
			t.Errorf("port %d stats: fast %+v, slow %+v", sp.No, fp.Stats(), sp.Stats())
		}
	}
	for i, se := range slow.entries {
		fe := fast.entries[i]
		fl, _ := lastUsed(fe)
		sl, _ := lastUsed(se)
		if fe.PacketCount() != se.PacketCount() || fe.ByteCount() != se.ByteCount() || !fl.Equal(sl) {
			t.Errorf("entry %d: fast %d packets %d bytes last used %v, slow %d/%d/%v",
				i, fe.PacketCount(), fe.ByteCount(), fl, se.PacketCount(), se.ByteCount(), sl)
		}
	}
	fl, fm := fast.dp.table.Counters()
	sl, sm := slow.dp.table.Counters()
	if fl != sl || fm != sm {
		t.Errorf("table counters: fast %d lookups %d matched, slow %d/%d", fl, fm, sl, sm)
	}
	if fast.dp.PuntCount() != slow.dp.PuntCount() || len(fast.dp.buffers) != len(slow.dp.buffers) {
		t.Fatalf("punts: fast %d (%d buffered), slow %d (%d buffered)",
			fast.dp.PuntCount(), len(fast.dp.buffers), slow.dp.PuntCount(), len(slow.dp.buffers))
	}
	for id, sb := range slow.dp.buffers {
		fb := fast.dp.buffers[id]
		if fb == nil || !bytes.Equal(fb.head, sb.head) || fb.inPort != sb.inPort || fb.held.n != sb.held.n {
			t.Fatalf("punt buffer %d differs between the paths", id)
		}
	}
}

// A delete of a flow's entry while a batch of the flow is going through
// takes effect at the next frame: nothing the batch carries from one frame
// to the next may outlive a change of the table. The controller's flow-mods
// wait for the batch (P2), so the delete goes to the table itself, on
// another goroutine, from inside the transmission of frame k: exactly k
// frames are forwarded and charged; the rest miss.
func TestFastPathSeesDeleteMidBatch(t *testing.T) {
	const n, k = 30, 11
	r := newHoldRig(t, 256)
	frames := flowFrames(5, 0, n)
	m := exactMatchFor(t, frames[0], 1)
	r.send(addFlow(m, openflow.NoBuffer, &openflow.ActionSetDLDst{Addr: packet.MAC{2, 9, 9, 9, 9, 9}}, output(2)))
	r.sync()

	deleted := make(chan struct{})
	forwarded := 0
	p2, _ := r.dp.Port(2)
	p2.SetOut(func([]byte) {
		if forwarded++; forwarded == k {
			go func() {
				r.dp.Table().delete(&m, 10, true, openflow.PortNone)
				close(deleted)
			}()
			<-deleted
		}
	})
	entry := r.dp.Table().Entries(&m, openflow.PortNone)[0]
	r.receive(frames...)

	if forwarded != k || entry.PacketCount() != k {
		t.Errorf("forwarded %d frames and charged %d, want %d: the entry was deleted during frame %d", forwarded, entry.PacketCount(), k, k)
	}
	if lookups, matched := r.lookups(); lookups != n || matched != k {
		t.Errorf("lookups %d matched %d, want %d and %d", lookups, matched, n, k)
	}
	if punts, held := r.buffered(); punts != 1 || held != n-k-1 {
		t.Errorf("%d punts holding %d frames, want the first miss punted and the other %d held", punts, held, n-k-1)
	}
}

// A run of repeats (FrameBatch.Repeat) must leave what the same frames
// appended as copies leave: the same transmissions in the same order, the
// same lookups and matches, the same entry and port counters and the same
// punts. A span's copies skip the decode and the key, and, after a first
// frame that left by rewrites then one output, the lookup and the execute
// too; nothing skips the charge. The cases cover a list of that shape, one
// of another, one that rewrites the scratch after its one output, an output
// with no rewrite, an output port configured not to forward, and a sink that
// removes its own port from another goroutine mid-span, after which no copy
// may leave by it. Flow 4 has no entry: its first span punts, and its second
// span's first frame is held behind that punt.
func TestRepeatsMatchCopies(t *testing.T) {
	src, dst := packet.MAC{2, 0xaa, 0, 0, 0, 1}, packet.MAC{2, 0xbb, 0, 0, 0, 2}
	for _, tc := range []struct {
		name    string
		actions []openflow.Action
		setup   func(r *pathRig) // readies each rig's ports; nil for none
		// odd, when set, is the list of flows 1 and 3 instead of actions.
		odd []openflow.Action
	}{
		{name: "rewrite+rewrite+output", actions: []openflow.Action{
			&openflow.ActionSetDLSrc{Addr: src}, &openflow.ActionSetDLDst{Addr: dst}, output(2),
		}},
		{name: "rewrite after output", actions: []openflow.Action{
			&openflow.ActionSetDLDst{Addr: dst}, output(2), &openflow.ActionSetDLSrc{Addr: src}, output(3),
			&openflow.ActionOutput{Port: openflow.PortFlood},
		}},
		{name: "rewrite after the one output", actions: []openflow.Action{
			&openflow.ActionSetDLSrc{Addr: src}, output(2), &openflow.ActionSetDLDst{Addr: dst},
		}},
		{name: "one output no rewrite", actions: []openflow.Action{output(2)}},
		{
			name:    "out of a NoFwd port",
			actions: []openflow.Action{&openflow.ActionSetDLDst{Addr: dst}, output(3)},
			odd:     []openflow.Action{&openflow.ActionSetDLDst{Addr: dst}, output(2)},
			setup:   func(r *pathRig) { r.ports[2].Config |= openflow.PortConfigNoFwd },
		},
		{
			name:    "sink removes its port",
			actions: []openflow.Action{&openflow.ActionSetDLDst{Addr: dst}, output(2)},
			setup: func(r *pathRig) {
				// The 40th transmission is the second of flow 0's
				// three-frame span in the first batch.
				p2 := r.ports[1]
				sink := p2.Out
				p2.SetOut(func(f []byte) {
					sink(f)
					if len(r.sent) == 40 {
						removed := make(chan struct{})
						go func() {
							r.dp.RemovePort(2)
							close(removed)
						}()
						<-removed
					}
				})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var frames [][]byte
			for flow := 0; flow < 5; flow++ {
				frames = append(frames, randomFlowFrame(rng, flow))
			}
			frames = append(frames, []byte{1, 2, 3}) // undecodable
			repeated, copies := newPathRig(t), newPathRig(t)
			for flow := 0; flow < 4; flow++ { // flow 4 misses
				// Every flow shares the one list (odd flows aside), as
				// the forwarder's entries toward one device do.
				m := exactMatchFor(t, frames[flow], 1)
				as := tc.actions
				if tc.odd != nil && flow%2 == 1 {
					as = tc.odd
				}
				repeated.add(m, 10, as)
				copies.add(m, 10, as)
			}
			if tc.setup != nil {
				tc.setup(repeated)
				tc.setup(copies)
			}
			// Runs of one frame: each a flow (or the undecodable frame)
			// and how many times it goes in a row.
			runs := [][2]int{{0, 32}, {1, 1}, {1, 5}, {0, 3}, {4, 6}, {2, 1}, {5, 4}, {4, 3}, {3, 32}, {2, 2}, {0, 1}}
			for batch := 0; batch < 3; batch++ {
				var rb, cb packet.FrameBatch
				for _, run := range runs {
					f := frames[run[0]]
					rb.Append(f)
					for i := 1; i < run[1]; i++ {
						rb.Repeat()
					}
					for i := 0; i < run[1]; i++ {
						cb.Append(f)
					}
				}
				repeated.dp.ReceiveBatch(1, &rb)
				copies.dp.ReceiveBatch(1, &cb)
				repeated.clk.Advance(250 * time.Millisecond)
				copies.clk.Advance(250 * time.Millisecond)
			}
			comparePaths(t, repeated, copies)
			if len(copies.sent) == 0 {
				t.Fatal("nothing was transmitted")
			}
		})
	}
}

// TestFastPathSeesDeleteMidBatch over one frame repeated: the entry a
// repeat reuses is vouched for by the table generation like any other, so
// the delete during frame k still takes effect at frame k+1, exactly as
// when the batch holds n copies of the frame.
func TestRepeatedRunSeesDeleteMidBatch(t *testing.T) {
	const n, k = 30, 11
	type outcome struct {
		forwarded        int
		charged          uint64
		lookups, matched uint64
		punts, held      int
		sent             []sentFrame
	}
	run := func(repeat bool) outcome {
		r := newHoldRig(t, 256)
		frame := flowFrame(5, 0)
		m := exactMatchFor(t, frame, 1)
		r.send(addFlow(m, openflow.NoBuffer, &openflow.ActionSetDLDst{Addr: packet.MAC{2, 9, 9, 9, 9, 9}}, output(2)))
		r.sync()

		var o outcome
		deleted := make(chan struct{})
		p2, _ := r.dp.Port(2)
		p2.SetOut(readOnly(t, func(f []byte) {
			o.sent = append(o.sent, sentFrame{2, append([]byte(nil), f...)})
			if o.forwarded++; o.forwarded == k {
				go func() {
					r.dp.Table().delete(&m, 10, true, openflow.PortNone)
					close(deleted)
				}()
				<-deleted
			}
		}))
		entry := r.dp.Table().Entries(&m, openflow.PortNone)[0]
		var fb packet.FrameBatch
		fb.Append(frame)
		for i := 1; i < n; i++ {
			if repeat {
				fb.Repeat()
			} else {
				fb.Append(frame)
			}
		}
		r.dp.ReceiveBatch(1, &fb)
		o.charged = entry.PacketCount()
		o.lookups, o.matched = r.lookups()
		o.punts, o.held = r.buffered()
		return o
	}
	rep, cp := run(true), run(false)
	if rep.forwarded != k || rep.charged != k || rep.lookups != n || rep.matched != k || rep.punts != 1 || rep.held != n-k-1 {
		t.Errorf("repeated run: forwarded %d, charged %d, lookups %d, matched %d, %d punts holding %d; want %d, %d, %d, %d, 1, %d",
			rep.forwarded, rep.charged, rep.lookups, rep.matched, rep.punts, rep.held, k, k, n, k, n-k-1)
	}
	if rep.forwarded != cp.forwarded || rep.charged != cp.charged || rep.lookups != cp.lookups ||
		rep.matched != cp.matched || rep.punts != cp.punts || rep.held != cp.held {
		t.Errorf("repeated run: forwarded %d, charged %d, lookups %d, matched %d, %d punts holding %d; copies: %d, %d, %d, %d, %d, %d",
			rep.forwarded, rep.charged, rep.lookups, rep.matched, rep.punts, rep.held,
			cp.forwarded, cp.charged, cp.lookups, cp.matched, cp.punts, cp.held)
	}
	if len(rep.sent) != len(cp.sent) {
		t.Fatalf("the repeated run transmitted %d frames, the copies %d", len(rep.sent), len(cp.sent))
	}
	for i := range rep.sent {
		if !bytes.Equal(rep.sent[i].frame, cp.sent[i].frame) {
			t.Fatalf("transmission %d differs between the repeated run and the copies", i)
		}
	}
}

// A span's copies leave as its first frame left only while the table reads
// as it did. Here a sink deletes the entry a span's first frame matched, so
// that its copies fall to a wildcard entry with another list, and must be
// rewritten anew:
//   - the first frame was rewritten by the deleted entry's list, which is
//     not the wildcard's;
//   - the first frame's list rewrote nothing and wrote no scratch, which
//     still holds an earlier frame as the wildcard's list rewrote it.
func TestRepeatAfterTableChangeIsRewritten(t *testing.T) {
	x, y := packet.MAC{2, 0xee, 0, 0, 0, 1}, packet.MAC{2, 0xee, 0, 0, 0, 2}
	rng := rand.New(rand.NewSource(5))
	f0, f1 := randomFlowFrame(rng, 0), randomFlowFrame(rng, 2)
	toX := []openflow.Action{&openflow.ActionSetDLDst{Addr: x}, output(2)}
	for _, tc := range []struct {
		name   string
		f1acts []openflow.Action // the entry of f1 the sink deletes
		batch  [][]byte          // f1 runs last, as 4 frames
	}{
		{"another list", []openflow.Action{&openflow.ActionSetDLDst{Addr: y}, output(2)}, nil},
		{"no rewrite", []openflow.Action{output(2)}, [][]byte{f0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := func() *pathRig {
				r := newPathRig(t)
				r.add(exactMatchFor(t, f0, 1), 10, toX)
				m1 := exactMatchFor(t, f1, 1)
				r.add(m1, 20, tc.f1acts)
				r.add(openflow.MatchAll(), 5, toX)
				p2, _ := r.dp.Port(2)
				sink := p2.Out
				p2.SetOut(func(f []byte) {
					sink(f)
					if len(r.sent) == len(tc.batch)+1 { // f1's first frame
						r.dp.table.delete(&m1, 20, true, openflow.PortNone)
					}
				})
				return r
			}
			repeated, copies := rig(), rig()
			var rb, cb packet.FrameBatch
			for _, f := range tc.batch {
				rb.Append(f)
				cb.Append(f)
			}
			rb.Append(f1)
			for i := 0; i < 4; i++ {
				cb.Append(f1)
				if i > 0 {
					rb.Repeat()
				}
			}
			repeated.dp.ReceiveBatch(1, &rb)
			copies.dp.ReceiveBatch(1, &cb)
			comparePaths(t, repeated, copies)
			last := copies.sent[len(copies.sent)-1].frame
			if want := append(append([]byte(nil), x[:]...), f1[6:]...); !bytes.Equal(last, want) {
				t.Fatalf("the last repeat left as %x, want f1 rewritten to %s", last, x)
			}
		})
	}
}
