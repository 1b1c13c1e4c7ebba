package datapath

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// slowReceive is what the datapath does to one received frame with every
// shortcut taken out: no batch, no state carried from the frame before, and
// the action list run by openflow.ApplyActions — decode, rewrite the layer
// structs, re-serialize every layer, checksums included — with the frame as
// it stands at each output handed to dispatch. It is the reference
// ReceiveBatch and executeFast are held to. It shares the flow table, the
// miss path and dispatch with them, which are not what they shortcut.
func slowReceive(dp *Datapath, inPort uint16, frame []byte) {
	p, ok := dp.Port(inPort)
	if !ok {
		return
	}
	p.countRx(len(frame))
	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		return
	}
	key := openflow.MatchFromFrame(&d, inPort)
	nanos := dp.clk.Now().UnixNano()
	entry := dp.table.lookup(&key, &d, len(frame), nanos)
	if entry == nil {
		if entry = dp.miss(p, frame, &d, &key, nanos); entry == nil {
			return
		}
	}
	maxLen := int(dp.missSendLen.Load())
	for _, a := range entry.Actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == openflow.PortController && out.MaxLen > 0 {
			maxLen = int(out.MaxLen)
		}
	}
	openflow.ApplyActions(frame, entry.Actions, func(pn uint16, out []byte) {
		dp.dispatch(inPort, out, pn, maxLen, nil)
	})
}

// pathRig is one datapath with four recording ports and no controller:
// punts are buffered and counted, their packet-ins go nowhere.
type pathRig struct {
	dp      *Datapath
	clk     *clock.Simulated
	sent    []sentFrame // every transmission, in order
	entries []*FlowEntry
}

func newPathRig() *pathRig {
	r := &pathRig{clk: clock.NewSimulated()}
	r.dp = New(Config{ID: 7, Clock: r.clk, NBuffers: 1 << 16})
	for no := uint16(1); no <= 4; no++ {
		_ = r.dp.AddPort(&Port{No: no, Out: func(f []byte) {
			r.sent = append(r.sent, sentFrame{no, append([]byte(nil), f...)})
		}})
	}
	return r
}

func (r *pathRig) add(m openflow.Match, priority uint16, actions []openflow.Action) {
	e := &FlowEntry{Match: m, Priority: priority, Actions: actions, Installed: r.clk.Now()}
	if err := r.dp.table.Add(e, false); err != nil {
		panic(err)
	}
	r.entries = append(r.entries, e)
}

// randomActions draws an action list of the shape executeFast accepts: MAC
// rewrites and outputs, in any order — an output before a rewrite gets the
// frame as it stood there, on both paths. The forwarder emits rewrites
// first, the other orders are OpenFlow's all the same.
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
// executeFast patching MACs in a scratch copy — must be indistinguishable
// from slowReceive: the same bytes out of the same ports in the same order,
// the same port counters, the same entry counters and last-used stamps, the
// same lookups and matches, the same punts with the same buffered heads.
func TestFastPathMatchesSlowPath(t *testing.T) {
	const flows = 12 // flows 9..11 have no entry and miss
	for seed := int64(1); seed <= 5; seed++ {
		// keyEvery: a new flow every frame, every k frames, never.
		for _, keyEvery := range []int{1, 2, 3, 7, 1 << 30} {
			t.Run(fmt.Sprintf("seed=%d/keyEvery=%d", seed, keyEvery), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				fast, slow := newPathRig(), newPathRig()
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
					}
					if batch == 3 {
						fb.Append([]byte{1, 2, 3}) // undecodable: counted on the port, then dropped
					}
					fast.dp.ReceiveBatch(1, &fb)
					for i := 0; i < fb.Len(); i++ {
						slowReceive(slow.dp, 1, fb.Frame(i))
					}
					fast.clk.Advance(250 * time.Millisecond)
					slow.clk.Advance(250 * time.Millisecond)
				}
				comparePaths(t, fast, slow)
			})
		}
	}
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
	for no := uint16(1); no <= 4; no++ {
		fp, _ := fast.dp.Port(no)
		sp, _ := slow.dp.Port(no)
		if fp.Stats() != sp.Stats() {
			t.Errorf("port %d stats: fast %+v, slow %+v", no, fp.Stats(), sp.Stats())
		}
	}
	for i, se := range slow.entries {
		fe := fast.entries[i]
		fl, _ := fe.LastUsed()
		sl, _ := se.LastUsed()
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
		if fb == nil || !bytes.Equal(fb.head, sb.head) || fb.held.n != sb.held.n {
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
				r.dp.Table().Delete(&m, 10, true, openflow.PortNone)
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
