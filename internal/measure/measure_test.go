package measure

import (
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/hwdb"
	"repro/internal/openflow"
	"repro/internal/packet"
)

type fakeLinks struct{ samples []LinkSample }

func (f fakeLinks) AppendLinkSamples(dst []LinkSample) []LinkSample {
	return append(dst, f.samples...)
}

type fakeResolver map[packet.IP4]packet.MAC

func (f fakeResolver) MACForIP(ip packet.IP4) (packet.MAC, bool) {
	m, ok := f[ip]
	return m, ok
}

func TestPollLinksFillsTable(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	p := New(Config{
		DB: db, Clock: clk,
		Links: fakeLinks{samples: []LinkSample{{MAC: mac, RSSI: -55, Retries: 2, Rate: 48}}},
	})
	p.PollOnce() // no datapath view: only links are polled
	if p.Polls() != 1 {
		t.Errorf("polls = %d", p.Polls())
	}
	res, err := db.Query("SELECT mac, rssi, retries, rate FROM Links")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int != -55 || res.Rows[0][3].AsFloat() != 48 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAttributePrefersResolver(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	homeIP := packet.MustIP4("192.168.1.10")
	p := New(Config{
		DB: db, Clock: clk,
		Resolver:   fakeResolver{homeIP: mac},
		HomePrefix: packet.MustIP4("192.168.1.0"), HomePrefixLen: 24,
	})
	// Home side as source.
	got, ok := p.attribute(packet.FiveTuple{Src: homeIP, Dst: packet.MustIP4("8.8.8.8")})
	if !ok || got != mac {
		t.Errorf("attribute(src) = %v, %v", got, ok)
	}
	// Home side as destination (return traffic).
	got, ok = p.attribute(packet.FiveTuple{Src: packet.MustIP4("8.8.8.8"), Dst: homeIP})
	if !ok || got != mac {
		t.Errorf("attribute(dst) = %v, %v", got, ok)
	}
	// Unknown home address falls back to the prefix (anonymous MAC).
	other := packet.MustIP4("192.168.1.99")
	if _, ok := p.attribute(packet.FiveTuple{Src: other, Dst: packet.MustIP4("8.8.8.8")}); !ok {
		t.Error("prefix fallback failed")
	}
	// Fully foreign flows are not attributed.
	if _, ok := p.attribute(packet.FiveTuple{Src: packet.MustIP4("8.8.8.8"), Dst: packet.MustIP4("9.9.9.9")}); ok {
		t.Error("foreign flow attributed")
	}
}

func TestRecordFlowRemoved(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	homeIP := packet.MustIP4("192.168.1.10")
	p := New(Config{DB: db, Clock: clk, Resolver: fakeResolver{homeIP: mac}})

	// Build the exact match a forwarding rule would carry.
	f := packet.AppendTCPFrame(nil, mac, packet.MustMAC("02:01:00:00:00:01"),
		homeIP, packet.MustIP4("93.184.216.34"), 50000, 80, packet.TCPAck, 0, 0, nil)
	var d packet.Decoded
	if err := d.Decode(f); err != nil {
		t.Fatal(err)
	}
	m := openflow.MatchFromFrame(&d, 1)

	// Never polled: the full final counters are recorded.
	p.RecordFlowRemoved(&m, 10, 15000)
	res, err := db.Query("SELECT sum(bytes) FROM Flows")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 15000 {
		t.Errorf("bytes = %v", res.Rows[0][0])
	}

	// Wildcard (non-flow) matches are ignored.
	all := openflow.MatchAll()
	p.RecordFlowRemoved(&all, 5, 500)
	res, _ = db.Query("SELECT count(*) FROM Flows")
	if res.Rows[0][0].Int != 1 {
		t.Errorf("wildcard removal recorded: %v", res.Rows)
	}
}

// home is a plane over a datapath whose flow table holds one exact entry
// per client port, with frames to charge to them.
type home struct {
	t      *testing.T
	clk    *clock.Simulated
	db     *hwdb.DB
	dp     *datapath.Datapath
	p      *Plane
	frames map[uint16][]byte // by client port
	dec    packet.Decoded
}

var (
	homeMAC = packet.MustMAC("02:aa:00:00:00:01")
	homeIP  = packet.MustIP4("192.168.1.10")
	webIP   = packet.MustIP4("203.0.113.10")
)

func newHome(t *testing.T, clientPorts ...uint16) *home {
	h := &home{t: t, clk: clock.NewSimulated(), frames: make(map[uint16][]byte)}
	h.db = hwdb.NewHomework(h.clk, 4096)
	h.dp = datapath.New(datapath.Config{ID: 1, Clock: h.clk})
	if err := h.dp.AddPort(&datapath.Port{No: 1}); err != nil {
		t.Fatal(err)
	}
	h.p = New(Config{DB: h.db, Clock: h.clk, Stats: h.dp.StatsView(), Resolver: fakeResolver{homeIP: homeMAC}})
	h.dp.StatsView().OnRemoved(h.p.RecordFlowRemoved)
	for _, port := range clientPorts {
		f := packet.AppendTCPFrame(nil, homeMAC, packet.MustMAC("02:01:00:00:00:01"), homeIP, webIP, port, 80, packet.TCPAck, 0, 0, make([]byte, 100))
		if err := h.dec.Decode(f); err != nil {
			t.Fatal(err)
		}
		h.frames[port] = f
		if err := h.dp.Table().Add(&datapath.FlowEntry{Match: openflow.MatchFromFrame(&h.dec, 1), Priority: 10, SendFlowRem: true}, false); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// send charges n frames of the flow from clientPort to its entry, now.
func (h *home) send(clientPort uint16, n int) {
	f := h.frames[clientPort]
	if err := h.dec.Decode(f); err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if h.dp.Table().Lookup(&h.dec, 1, len(f), h.clk.Now()) == nil {
			h.t.Fatalf("flow from port %d has no entry", clientPort)
		}
	}
}

// match returns the entry match of the flow from clientPort.
func (h *home) match(clientPort uint16) openflow.Match {
	if err := h.dec.Decode(h.frames[clientPort]); err != nil {
		h.t.Fatal(err)
	}
	return openflow.MatchFromFrame(&h.dec, 1)
}

// packets returns Σ packets of the Flows rows of the flow from clientPort.
func (h *home) packets(clientPort uint16) int64 {
	var sum int64
	res, err := h.db.Query("SELECT sport, packets FROM Flows")
	if err != nil {
		h.t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].Int == int64(clientPort) {
			sum += row[1].Int
		}
	}
	return sum
}

// A poll's rows go in five-tuple order, whatever order the table's map
// walks its entries in.
func TestPollRowsInFiveTupleOrder(t *testing.T) {
	ports := []uint16{50007, 49152, 61000, 50000, 49999, 55555, 49153, 60001}
	h := newHome(t, ports...)
	for _, port := range ports {
		h.send(port, 1)
	}
	h.p.PollOnce()
	for _, table := range []string{hwdb.TableFlows, hwdb.TableFlowPerf} {
		res, err := h.db.Query("SELECT sport FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint16
		for _, row := range res.Rows {
			got = append(got, uint16(row[0].Int))
		}
		want := slices.Sorted(slices.Values(ports))
		if !slices.Equal(got, want) {
			t.Errorf("%s rows by sport %v, want %v", table, got, want)
		}
	}
}

// A poll visits the entries used at or after the previous poll's clock
// reading and counts what each gained since its last visit. An entry used
// at exactly that reading, after the walk, is counted by the next poll, not
// lost; an idle one writes nothing.
func TestPollCountsWhatMovedSinceTheLastVisit(t *testing.T) {
	h := newHome(t, 50000, 50001, 50002)
	h.send(50000, 3)
	h.send(50001, 2)
	h.p.PollOnce()
	h.send(50001, 4) // same clock reading as the poll, after its walk
	h.clk.Advance(time.Second)
	h.send(50002, 1)
	h.p.PollOnce()
	h.clk.Advance(time.Second)
	h.p.PollOnce() // nothing moved

	for port, want := range map[uint16]int64{50000: 3, 50001: 6, 50002: 1} {
		if got := h.packets(port); got != want {
			t.Errorf("flow from %d: %d packets in Flows, want %d", port, got, want)
		}
	}
	if res, _ := h.db.Query("SELECT count(*) FROM Flows"); res.Rows[0][0].Int != 4 {
		t.Errorf("%d Flows rows, want 4 (two, then two, then none)", res.Rows[0][0].Int)
	}
	if res, _ := h.db.Query("SELECT count(*) FROM FlowPerf"); res.Rows[0][0].Int != 4 {
		t.Errorf("%d FlowPerf rows, want 4", res.Rows[0][0].Int)
	}
}

// A removed entry reports what no walk took of it, whether a poll ran
// since its last frames or not: the rows add up to the final counters, and
// nothing is counted twice when a later poll no longer finds the entry.
func TestFlowRemovedSettlesAgainstTheLastVisit(t *testing.T) {
	h := newHome(t, 50000, 50001)
	// The flow from 50000 gets an entry that expires in a second.
	m := h.match(50000)
	e := &datapath.FlowEntry{Match: m, Priority: 10, SendFlowRem: true, HardTimeout: 1, Installed: h.clk.Now()}
	if err := h.dp.Table().Add(e, false); err != nil {
		t.Fatal(err)
	}
	h.send(50000, 5)
	h.send(50001, 1)
	h.p.PollOnce()
	h.send(50000, 2) // after the poll: only the removal report can carry these

	h.clk.Advance(time.Second)
	if n := h.dp.SweepExpired(); n != 1 {
		t.Fatalf("expired %d entries", n)
	}
	h.p.PollOnce() // the entry is gone
	h.p.PollOnce()

	if got := h.packets(50000); got != 7 {
		t.Errorf("removed flow: %d packets in Flows, want its final 7", got)
	}
	if res, _ := h.db.Query("SELECT count(*) FROM Flows WHERE sport = 50000"); res.Rows[0][0].Int != 2 {
		t.Errorf("removed flow: %d Flows rows, want 2 (the poll's and the removal's)", res.Rows[0][0].Int)
	}
}

// A pending install latency is reported on its flow's first active row,
// once, and a removal drops it: a new entry of the same flow does not
// inherit the latency of the one that left.
func TestInstallLatencyRidesTheFirstActiveRow(t *testing.T) {
	h := newHome(t, 50000)
	m := h.match(50000)
	h.p.RecordInstall(&m, 1500)
	h.p.PollOnce() // idle: the latency waits
	h.send(50000, 1)
	h.clk.Advance(time.Second)
	h.p.PollOnce()
	h.send(50000, 1)
	h.clk.Advance(time.Second)
	h.p.PollOnce()

	h.p.RecordInstall(&m, 7000)
	h.dp.Table().Add(&datapath.FlowEntry{Match: m, Priority: 10, HardTimeout: 1, Installed: h.clk.Now()}, false)
	h.clk.Advance(time.Second)
	h.dp.SweepExpired() // removes the flow's entry: its latency goes with it
	h.dp.Table().Add(&datapath.FlowEntry{Match: m, Priority: 10}, false)
	h.send(50000, 1)
	h.clk.Advance(time.Second)
	h.p.PollOnce()

	res, err := h.db.Query("SELECT install_us FROM FlowPerf")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range res.Rows {
		got = append(got, row[0].Int)
	}
	if want := []int64{2, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("install_us by row %v, want %v", got, want)
	}
}

// A warm poll of a web_churn-sized table where a few flows move allocates
// nothing: the walk hands over counters in place, and the round, the port
// maps and the rows are reused or written in place.
func TestWarmPollAllocatesNothing(t *testing.T) {
	const entries = 252
	ports := make([]uint16, entries)
	for i := range ports {
		ports[i] = uint16(49152 + i)
	}
	h := newHome(t, ports...)
	h.p.cfg.Links = fakeLinks{samples: []LinkSample{{MAC: homeMAC, RSSI: -50, Rate: 54}}}
	step := 0
	poll := func() {
		for i := 0; i < 4; i++ {
			h.send(ports[(4*step+i)%entries], 3)
		}
		step++
		h.p.PollOnce()
		h.clk.Advance(250 * time.Millisecond)
	}
	for i := 0; i < 2*entries; i++ {
		poll()
	}
	if allocs := testing.AllocsPerRun(100, poll); allocs != 0 {
		t.Errorf("a warm poll allocates %g times, want 0", allocs)
	}
}

// The idle skip never hides a count: under random traffic and polls, every
// flow's Flows rows add up to its counters once a last poll has run.
func TestSkipOnlyDelaysCounts(t *testing.T) {
	ports := []uint16{50000, 50001, 50002, 50003, 50004}
	h := newHome(t, ports...)
	state := uint64(7)
	next := func(n int) int { // xorshift, seeded
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := 0; i < 500; i++ {
		switch next(4) {
		case 0:
			h.p.PollOnce()
		case 1:
			h.clk.Advance(time.Duration(next(3)) * 100 * time.Millisecond)
		default:
			h.send(ports[next(len(ports))], 1+next(3))
		}
	}
	h.clk.Advance(time.Millisecond)
	h.p.PollOnce()
	for _, e := range h.dp.Table().Entries(nil, openflow.PortNone) {
		port := e.Match.TPSrc
		if got := h.packets(port); got != int64(e.PacketCount()) {
			t.Errorf("flow from %d: %d packets in Flows, %d on the entry", port, got, e.PacketCount())
		}
	}
}

// Install latencies wait without a bound: a home that installs more flows
// between two polls than any fixed list would hold still reports every one
// on its flow's first active row.
func TestInstallLatenciesWaitWithoutBound(t *testing.T) {
	const flows = 200
	ports := make([]uint16, flows)
	for i := range ports {
		ports[i] = uint16(40000 + i)
	}
	h := newHome(t, ports...)
	for _, port := range ports {
		m := h.match(port)
		h.p.RecordInstall(&m, 1500)
	}
	h.p.PollOnce() // idle: every latency waits
	for _, port := range ports {
		h.send(port, 1)
	}
	h.clk.Advance(time.Second)
	h.p.PollOnce()
	res, err := h.db.Query("SELECT install_us FROM FlowPerf")
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	for _, row := range res.Rows {
		if row[0].Int > 0 {
			reported++
		}
	}
	if len(res.Rows) != flows || reported != flows {
		t.Errorf("%d FlowPerf rows, %d with an install latency; want %d and %d", len(res.Rows), reported, flows, flows)
	}
}
