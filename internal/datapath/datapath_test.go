package datapath

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/openflow"
	"repro/internal/packet"
)

func tcpFrame(srcLast, dstLast byte, dstPort uint16) []byte {
	return packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 0, 0, srcLast}, packet.MAC{2, 0, 0, 0, 0, dstLast},
		packet.IP4{10, 0, 0, srcLast}, packet.IP4{10, 0, 0, dstLast},
		40000, dstPort, packet.TCPSyn, 1, 0, nil)
}

func exactMatchFor(t *testing.T, frame []byte, inPort uint16) openflow.Match {
	t.Helper()
	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	return openflow.MatchFromFrame(&d, inPort)
}

func TestFlowTableExactLookup(t *testing.T) {
	tbl := NewFlowTable()
	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	e := &FlowEntry{Match: m, Priority: 10, Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	if err := tbl.Add(e, false); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}

	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	got := tbl.Lookup(&d, 1, len(frame), time.Now())
	if got != e {
		t.Fatal("exact lookup failed")
	}
	if got.PacketCount() != 1 || got.ByteCount() != uint64(len(frame)) {
		t.Errorf("counters = %d/%d", got.PacketCount(), got.ByteCount())
	}
	if tbl.Lookup(&d, 9, len(frame), time.Now()) != nil {
		t.Error("lookup matched wrong in_port")
	}
}

func TestFlowTablePriorityOrder(t *testing.T) {
	tbl := NewFlowTable()
	low := openflow.MatchAll()
	lowE := &FlowEntry{Match: low, Priority: 1, Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}}}
	_ = tbl.Add(lowE, false)

	dns := openflow.MatchAll()
	dns.Wildcards &^= openflow.FWDLType | openflow.FWNWProto | openflow.FWTPDst
	dns.DLType = packet.EtherTypeIPv4
	dns.NWProto = uint8(packet.ProtoUDP)
	dns.TPDst = 53
	dnsE := &FlowEntry{Match: dns, Priority: 100, Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController}}}
	_ = tbl.Add(dnsE, false)

	dnsFrame := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{8, 8, 8, 8}, 5000, 53, nil)
	var d packet.Decoded
	_ = d.Decode(dnsFrame)
	if got := tbl.Lookup(&d, 1, len(dnsFrame), time.Now()); got != dnsE {
		t.Error("high-priority DNS rule not preferred")
	}

	web := tcpFrame(1, 2, 80)
	_ = d.Decode(web)
	if got := tbl.Lookup(&d, 1, len(web), time.Now()); got != lowE {
		t.Error("fallback rule not used")
	}
}

func TestFlowTableAddReplacesAndResets(t *testing.T) {
	tbl := NewFlowTable()
	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	e1 := &FlowEntry{Match: m, Priority: 5, Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}
	_ = tbl.Add(e1, false)
	var d packet.Decoded
	_ = d.Decode(frame)
	tbl.Lookup(&d, 1, len(frame), time.Now())

	e2 := &FlowEntry{Match: m, Priority: 5, Actions: []openflow.Action{&openflow.ActionOutput{Port: 3}}}
	_ = tbl.Add(e2, false)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after replace", tbl.Len())
	}
	got := tbl.Lookup(&d, 1, len(frame), time.Now())
	if got != e2 || got.PacketCount() != 1 {
		t.Error("replacement did not reset counters")
	}
}

func TestFlowTableOverlapCheck(t *testing.T) {
	tbl := NewFlowTable()
	a := openflow.MatchAll()
	a.Wildcards &^= openflow.FWTPDst
	a.TPDst = 80
	_ = tbl.Add(&FlowEntry{Match: a, Priority: 5}, false)

	b := openflow.MatchAll()
	b.Wildcards &^= openflow.FWNWProto
	b.NWProto = 6
	if err := tbl.Add(&FlowEntry{Match: b, Priority: 5}, true); err == nil {
		t.Error("overlapping add with CHECK_OVERLAP accepted")
	}
	if err := tbl.Add(&FlowEntry{Match: b, Priority: 6}, true); err != nil {
		t.Errorf("different priority should not conflict: %v", err)
	}
}

func TestFlowTableDeleteNonStrict(t *testing.T) {
	tbl := NewFlowTable()
	for i := byte(1); i <= 3; i++ {
		frame := tcpFrame(i, 10, 80)
		m := exactMatchFor(t, frame, uint16(i))
		_ = tbl.Add(&FlowEntry{Match: m, Priority: 1, Actions: []openflow.Action{&openflow.ActionOutput{Port: 9}}}, false)
	}
	all := openflow.MatchAll()
	removed := tbl.delete(&all, 0, false, openflow.PortNone)
	if len(removed) != 3 || tbl.Len() != 0 {
		t.Errorf("removed %d, len %d", len(removed), tbl.Len())
	}
}

func TestFlowTableDeleteByOutPort(t *testing.T) {
	tbl := NewFlowTable()
	f1 := tcpFrame(1, 2, 80)
	f2 := tcpFrame(3, 4, 80)
	_ = tbl.Add(&FlowEntry{Match: exactMatchFor(t, f1, 1), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 7}}}, false)
	_ = tbl.Add(&FlowEntry{Match: exactMatchFor(t, f2, 1), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 8}}}, false)
	all := openflow.MatchAll()
	removed := tbl.delete(&all, 0, false, 7)
	if len(removed) != 1 || tbl.Len() != 1 {
		t.Errorf("removed %d, len %d", len(removed), tbl.Len())
	}
}

func TestFlowTableExpire(t *testing.T) {
	tbl := NewFlowTable()
	base := time.Unix(1000, 0)
	frame := tcpFrame(1, 2, 80)
	idle := &FlowEntry{Match: exactMatchFor(t, frame, 1), Priority: 1, IdleTimeout: 10, Installed: base}
	hard := &FlowEntry{Match: openflow.MatchAll(), Priority: 1, HardTimeout: 60, Installed: base}
	forever := &FlowEntry{Match: exactMatchFor(t, tcpFrame(5, 6, 22), 2), Priority: 1, Installed: base}
	_ = tbl.Add(idle, false)
	_ = tbl.Add(hard, false)
	_ = tbl.Add(forever, false)

	removed, reasons := expireAt(tbl, base.Add(5*time.Second))
	if len(removed) != 0 {
		t.Fatalf("early expiry: %d", len(removed))
	}

	// Touch the idle entry at t+8s: it should survive until t+18s.
	var d packet.Decoded
	_ = d.Decode(frame)
	tbl.Lookup(&d, 1, len(frame), base.Add(8*time.Second))

	removed, reasons = expireAt(tbl, base.Add(17*time.Second))
	if len(removed) != 0 {
		t.Fatalf("idle entry expired despite traffic")
	}
	removed, reasons = expireAt(tbl, base.Add(19*time.Second))
	if len(removed) != 1 || reasons[0] != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("idle expiry: %d removed", len(removed))
	}
	removed, reasons = expireAt(tbl, base.Add(61*time.Second))
	if len(removed) != 1 || reasons[0] != openflow.FlowRemovedHardTimeout {
		t.Fatalf("hard expiry: %d removed, reasons %v", len(removed), reasons)
	}
	if tbl.Len() != 1 {
		t.Errorf("permanent entry evicted")
	}
}

// Many entries expiring in one sweep leave in one order whatever order the
// table was filled in and however its map iterates: install time first,
// then five-tuple and in_port. The flow-removed messages, and the Flows rows
// measurement writes from them, inherit it.
func TestExpireOrderIsDeterministic(t *testing.T) {
	base := time.Unix(1000, 0)
	type entry struct {
		m         openflow.Match
		installed time.Time
	}
	var entries []entry
	for i := 0; i < 90; i++ {
		f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 1, 1},
			packet.IP4{10, 0, 0, byte(1 + i%3)}, packet.IP4{10, 0, 1, 1}, uint16(2000-i), 80, packet.TCPAck, 1, 0, nil)
		entries = append(entries, entry{exactMatchFor(t, f, uint16(1+i%2)), base.Add(time.Duration(i%4) * time.Second)})
	}
	expire := func(seed int64) []openflow.Match {
		tbl := NewFlowTable()
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(entries)) {
			_ = tbl.Add(&FlowEntry{Match: entries[i].m, Priority: 10, IdleTimeout: 5, Installed: entries[i].installed}, false)
		}
		removed, _ := expireAt(tbl, base.Add(time.Minute))
		var ms []openflow.Match
		for i, e := range removed {
			if i > 0 {
				p := removed[i-1]
				if e.Installed.Before(p.Installed) ||
					e.Installed.Equal(p.Installed) && bytes.Compare(e.Match.NWSrc[:], p.Match.NWSrc[:]) < 0 {
					t.Fatalf("removal %d installed %v from %v follows one installed %v from %v",
						i, e.Installed, e.Match.NWSrc, p.Installed, p.Match.NWSrc)
				}
			}
			ms = append(ms, e.Match)
		}
		return ms
	}
	first := expire(1)
	if len(first) != len(entries) {
		t.Fatalf("%d of %d entries expired", len(first), len(entries))
	}
	for seed := int64(2); seed <= 10; seed++ {
		if got := expire(seed); !slices.Equal(got, first) {
			t.Fatalf("filled in another order (seed %d), the table expires in another order", seed)
		}
	}
}

// A non-strict delete removes its entries in removalOrder too, so their
// flow-removed messages leave in one order however the table was filled
// and its map iterates, the order an expiry sweep gives the same entries.
func TestDeleteOrderIsDeterministic(t *testing.T) {
	const flows = 40
	deleted := func(seed int64) []uint16 {
		r := newHoldRig(t, 0)
		for _, i := range rand.New(rand.NewSource(seed)).Perm(flows) {
			f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 1, 1},
				packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 1, 1}, uint16(3000+i), 80, packet.TCPAck, 1, 0, nil)
			fm := addFlow(exactMatchFor(t, f, 1), openflow.NoBuffer, output(2))
			fm.Flags = openflow.FlowModFlagSendFlowRem
			r.send(fm)
		}
		r.send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModDelete,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone})
		r.send(&openflow.BarrierRequest{})
		var sports []uint16
		for {
			msg, err := r.ctl.Recv()
			if err != nil {
				t.Fatal(err)
			}
			switch m := msg.(type) {
			case *openflow.FlowRemoved:
				if m.Reason != openflow.FlowRemovedDelete {
					t.Fatalf("flow-removed reason %d, want delete", m.Reason)
				}
				sports = append(sports, m.Match.TPSrc)
			case *openflow.BarrierReply:
				return sports
			}
		}
	}
	first := deleted(1)
	if len(first) != flows {
		t.Fatalf("the delete sent %d flow-removed messages, want %d", len(first), flows)
	}
	if !slices.IsSorted(first) { // one install time: five-tuple order
		t.Fatalf("flow-removed messages left in source-port order %v", first)
	}
	for seed := int64(2); seed <= 50; seed++ {
		if got := deleted(seed); !slices.Equal(got, first) {
			t.Fatalf("filled in another order (seed %d), the delete reported %v, first %v", seed, got, first)
		}
	}
}

// Sweeps share one removals scratch: SweepExpired is exported, and two
// goroutines calling it must not both be in it. Run with -race.
func TestConcurrentSweepsShareNothing(t *testing.T) {
	clk := clock.NewSimulated()
	dp := New(Config{Clock: clk})
	const n = 400
	for i := 0; i < n; i++ {
		f := packet.AppendTCPFrame(nil, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 1, 1},
			packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 1, 1}, uint16(1024+i), 80, packet.TCPAck, 1, 0, nil)
		_ = dp.Table().Add(&FlowEntry{Match: exactMatchFor(t, f, 1), Priority: 10,
			IdleTimeout: uint16(1 + i%20), Installed: clk.Now()}, false)
	}
	var wg sync.WaitGroup
	var removed [2]int
	for g := range removed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				removed[g] += dp.SweepExpired()
			}
		}()
	}
	for i := 0; i < 25; i++ {
		clk.Advance(time.Second)
	}
	wg.Wait()
	last := dp.SweepExpired()
	if got := removed[0] + removed[1] + last; got != n || dp.Table().Len() != 0 {
		t.Errorf("sweeps removed %d of %d entries, %d left", got, n, dp.Table().Len())
	}
}

// A flood reaches the ports in ascending number every time, and a features
// reply lists them so: both walk the port list, not the port map.
func TestPortsWalkInOrder(t *testing.T) {
	r := newHoldRig(t, 0) // ports 1, 2 and 3
	var order []uint16
	for _, no := range []uint16{9, 5, 12, 4, 7} {
		_ = r.dp.AddPort(&Port{No: no, Out: func([]byte) { order = append(order, no) }})
	}
	for _, no := range []uint16{2, 3} {
		p, _ := r.dp.Port(no)
		p.SetOut(func([]byte) { order = append(order, no) })
	}
	r.send(addFlow(openflow.MatchAll(), openflow.NoBuffer, output(openflow.PortFlood)))
	r.sync()
	for i := 0; i < 20; i++ {
		order = nil
		r.receive(flowFrame(1, i))
		if want := []uint16{2, 3, 4, 5, 7, 9, 12}; !slices.Equal(order, want) {
			t.Fatalf("flood %d reached ports %v, want %v", i, order, want)
		}
	}

	var nos []uint16
	for _, p := range r.dp.Ports() {
		nos = append(nos, p.No)
	}
	if want := []uint16{1, 2, 3, 4, 5, 7, 9, 12}; !slices.Equal(nos, want) {
		t.Errorf("Ports() = %v, want %v", nos, want)
	}

	features := func() []byte {
		r.send(&openflow.FeaturesRequest{})
		for {
			msg, err := r.ctl.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if rep, ok := msg.(*openflow.FeaturesReply); ok {
				return openflow.Encode(rep)
			}
		}
	}
	first := features()
	for i := 0; i < 10; i++ {
		if again := features(); !bytes.Equal(again, first) {
			t.Fatalf("features reply %d encodes as %x, the first as %x", i, again, first)
		}
	}
}

func TestDatapathForwardAndCounters(t *testing.T) {
	clk := clock.NewSimulated()
	dp := New(Config{ID: 1, Clock: clk})
	var got [][]byte
	_ = dp.AddPort(&Port{No: 1, Name: "wlan0"})
	_ = dp.AddPort(&Port{No: 2, Name: "eth0", Out: func(f []byte) { got = append(got, append([]byte(nil), f...)) }})

	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	_ = dp.Table().Add(&FlowEntry{Match: m, Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)

	dp.Receive(1, frame)
	if len(got) != 1 {
		t.Fatalf("forwarded %d frames", len(got))
	}
	p1, _ := dp.Port(1)
	p2, _ := dp.Port(2)
	if p1.Stats().RxPackets != 1 || p2.Stats().TxPackets != 1 {
		t.Errorf("port counters: rx=%d tx=%d", p1.Stats().RxPackets, p2.Stats().TxPackets)
	}
}

func TestDatapathDropOnEmptyActions(t *testing.T) {
	dp := New(Config{ID: 1})
	delivered := 0
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Out: func([]byte) { delivered++ }})
	frame := tcpFrame(1, 2, 80)
	// Empty action list = drop.
	_ = dp.Table().Add(&FlowEntry{Match: exactMatchFor(t, frame, 1), Priority: 1}, false)
	dp.Receive(1, frame)
	if delivered != 0 {
		t.Error("dropped packet was forwarded")
	}
}

func TestDatapathFlood(t *testing.T) {
	dp := New(Config{ID: 1})
	counts := map[uint16]int{}
	for no := uint16(1); no <= 4; no++ {
		n := no
		_ = dp.AddPort(&Port{No: n, Out: func([]byte) { counts[n]++ }})
	}
	// NoFlood on port 4.
	p4, _ := dp.Port(4)
	p4.Config |= openflow.PortConfigNoFlood

	frame := tcpFrame(1, 2, 80)
	_ = dp.Table().Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}}}, false)
	dp.Receive(1, frame)
	if counts[1] != 0 || counts[2] != 1 || counts[3] != 1 || counts[4] != 0 {
		t.Errorf("flood counts = %v", counts)
	}

	// ALL includes NoFlood ports but still excludes the ingress port.
	_ = dp.Table().Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 2,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortAll}}}, false)
	counts = map[uint16]int{}
	dp.Receive(1, frame)
	if counts[1] != 0 || counts[4] != 1 {
		t.Errorf("ALL counts = %v", counts)
	}
}

func TestDatapathPortDown(t *testing.T) {
	dp := New(Config{ID: 1})
	delivered := 0
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Config: openflow.PortConfigDown, Out: func([]byte) { delivered++ }})
	frame := tcpFrame(1, 2, 80)
	_ = dp.Table().Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	dp.Receive(1, frame)
	if delivered != 0 {
		t.Error("down port transmitted")
	}
}

func TestDatapathRejectsBadPorts(t *testing.T) {
	dp := New(Config{ID: 1})
	if err := dp.AddPort(&Port{No: 0}); err == nil {
		t.Error("port 0 accepted")
	}
	if err := dp.AddPort(&Port{No: openflow.PortController}); err == nil {
		t.Error("reserved port number accepted")
	}
	_ = dp.AddPort(&Port{No: 1})
	if err := dp.AddPort(&Port{No: 1}); err == nil {
		t.Error("duplicate port accepted")
	}
}

// Exact-match lookups must not allocate: the per-packet path charges
// counters through atomics under the read lock, with no table copies.
func TestLookupExactZeroAllocs(t *testing.T) {
	tbl := NewFlowTable()
	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	_ = tbl.Add(&FlowEntry{Match: m, Priority: 10,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	var d packet.Decoded
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if allocs := testing.AllocsPerRun(200, func() {
		if tbl.Lookup(&d, 1, len(frame), now) == nil {
			panic("probe missed")
		}
	}); allocs != 0 {
		t.Errorf("Lookup allocs/op = %g, want 0", allocs)
	}
}

// Lookup must charge the entry under the read lock without racing: many
// goroutines bumping one entry's counters must not lose packets.
func TestLookupConcurrentCounters(t *testing.T) {
	tbl := NewFlowTable()
	frame := tcpFrame(1, 2, 80)
	m := exactMatchFor(t, frame, 1)
	e := &FlowEntry{Match: m, Priority: 10}
	_ = tbl.Add(e, false)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	now := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d packet.Decoded
			if err := d.Decode(frame); err != nil {
				panic(err)
			}
			for i := 0; i < per; i++ {
				tbl.Lookup(&d, 1, len(frame), now)
			}
		}()
	}
	wg.Wait()
	if e.PacketCount() != goroutines*per {
		t.Errorf("packets = %d, want %d", e.PacketCount(), goroutines*per)
	}
	if e.ByteCount() != uint64(goroutines*per*len(frame)) {
		t.Errorf("bytes = %d", e.ByteCount())
	}
	lookups, matched := tbl.Counters()
	if lookups != goroutines*per || matched != goroutines*per {
		t.Errorf("table counters = %d/%d", lookups, matched)
	}
}

func TestReceiveBatch(t *testing.T) {
	dp := New(Config{ID: 1})
	var got [][]byte
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Out: func(f []byte) { got = append(got, append([]byte(nil), f...)) }})

	f1 := tcpFrame(1, 2, 80)
	f2 := tcpFrame(3, 2, 80)
	_ = dp.Table().Add(&FlowEntry{Match: exactMatchFor(t, f1, 1), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	_ = dp.Table().Add(&FlowEntry{Match: exactMatchFor(t, f2, 1), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, false)
	miss := tcpFrame(5, 6, 443)

	var fb packet.FrameBatch
	for _, f := range [][]byte{f1, f2, miss} {
		fb.Append(f)
	}
	dp.ReceiveBatch(1, &fb)

	if len(got) != 2 {
		t.Fatalf("forwarded %d frames, want 2", len(got))
	}
	if dp.PuntCount() != 1 {
		t.Errorf("punts = %d, want 1", dp.PuntCount())
	}
	p1, _ := dp.Port(1)
	stats := p1.Stats()
	if stats.RxPackets != 3 || stats.RxBytes != uint64(len(f1)+len(f2)+len(miss)) {
		t.Errorf("batched rx accounting = %d pkts / %d bytes", stats.RxPackets, stats.RxBytes)
	}
}

// The MAC-rewrite fast path must rewrite only the Ethernet addresses,
// leave the rest of the frame intact, and never mutate the input buffer
// (which may belong to a sender's reused batch).
func TestExecuteFastPathRewrite(t *testing.T) {
	dp := New(Config{ID: 1})
	var got []byte
	_ = dp.AddPort(&Port{No: 1})
	_ = dp.AddPort(&Port{No: 2, Out: func(f []byte) { got = append([]byte(nil), f...) }})

	frame := tcpFrame(1, 2, 80)
	orig := append([]byte(nil), frame...)
	newSrc := packet.MustMAC("02:01:00:00:00:01")
	newDst := packet.MustMAC("02:ee:00:00:00:01")
	_ = dp.Table().Add(&FlowEntry{Match: exactMatchFor(t, frame, 1), Priority: 1,
		Actions: []openflow.Action{
			&openflow.ActionSetDLSrc{Addr: newSrc},
			&openflow.ActionSetDLDst{Addr: newDst},
			&openflow.ActionOutput{Port: 2},
		}}, false)
	dp.Receive(1, frame)

	if got == nil {
		t.Fatal("frame not forwarded")
	}
	var d packet.Decoded
	if err := d.Decode(got); err != nil {
		t.Fatal(err)
	}
	if d.Eth.Src != newSrc || d.Eth.Dst != newDst {
		t.Errorf("MACs = %s -> %s", d.Eth.Src, d.Eth.Dst)
	}
	if !bytes.Equal(got[12:], orig[12:]) {
		t.Error("rewrite touched bytes beyond the Ethernet addresses")
	}
	if !bytes.Equal(frame, orig) {
		t.Error("input frame mutated by the fast path")
	}
}

func BenchmarkLookupExact1kFlows(b *testing.B) {
	tbl := NewFlowTable()
	for i := 0; i < 1000; i++ {
		f := packet.AppendTCPFrame(nil,
			packet.MAC{2, 0, 0, byte(i >> 8), byte(i), 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP4{10, 0, byte(i >> 8), byte(i)}, packet.IP4{10, 0, 0, 2},
			uint16(1024+i), 80, packet.TCPAck, 0, 0, nil)
		var d packet.Decoded
		_ = d.Decode(f)
		_ = tbl.Add(&FlowEntry{Match: openflow.MatchFromFrame(&d, 1), Priority: 1}, false)
	}
	frame := packet.AppendTCPFrame(nil,
		packet.MAC{2, 0, 0, 1, 200, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP4{10, 0, 1, 200}, packet.IP4{10, 0, 0, 2},
		uint16(1024+456), 80, packet.TCPAck, 0, 0, nil)
	var d packet.Decoded
	_ = d.Decode(frame)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(&d, 1, len(frame), now)
	}
}

// Entries sizes its snapshot by what matched, not by the table: one entry
// matched in a table of 250 is a snapshot of capacity 1, in one
// allocation, and the whole table is a snapshot of exactly its entries.
func TestEntriesSnapshotHoldsWhatMatched(t *testing.T) {
	tbl := NewFlowTable()
	var ms []openflow.Match
	for i := range 250 {
		m := exactMatchFor(t, tcpFrame(byte(1+i%200), byte(201+i/200), uint16(1000+i)), 1)
		if err := tbl.Add(&FlowEntry{Match: m, Priority: 10, Actions: []openflow.Action{output(2)}}, false); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	one := tbl.Entries(&ms[17], openflow.PortNone)
	if len(one) != 1 || cap(one) != 1 || one[0].Match != ms[17] {
		t.Fatalf("a one-entry match returns %d entries in room for %d, want the one entry in room for 1", len(one), cap(one))
	}
	if all := tbl.Entries(nil, openflow.PortNone); len(all) != 250 || cap(all) != 250 {
		t.Fatalf("the whole table returns %d entries in room for %d, want 250 in 250", len(all), cap(all))
	}
	if none := tbl.Entries(&ms[0], 3); len(none) != 0 {
		t.Fatalf("filtered by a port no action outputs to, %d entries match, want 0", len(none))
	}
	if allocs := testing.AllocsPerRun(100, func() { tbl.Entries(&ms[17], openflow.PortNone) }); allocs != 1 {
		t.Fatalf("a one-entry snapshot allocates %.0f times, want 1", allocs)
	}
}
