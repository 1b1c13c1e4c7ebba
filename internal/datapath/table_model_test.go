package datapath

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
)

// modelEntry is one row of refTable: the entry the table was handed, what
// the model expects of its actions and counters, and when it was added,
// which breaks priority ties between wildcarded entries.
type modelEntry struct {
	e        *FlowEntry
	actions  []openflow.Action
	packets  uint64
	bytes    uint64
	lastUsed time.Time // zero = never matched
	seq      int
}

// expireAt runs an expiry sweep at now and returns what it removed, in
// removal order, with the reason for each.
func expireAt(t *FlowTable, now time.Time) (removed []*FlowEntry, reasons []uint8) {
	for _, x := range t.expire(nil, now) {
		removed = append(removed, x.e)
		reasons = append(reasons, x.reason)
	}
	return removed, reasons
}

// lastUsed reads when e last matched a packet; ok is false if it never has.
func lastUsed(e *FlowEntry) (t time.Time, ok bool) {
	n := e.lastUsed.Load()
	return time.Unix(0, n), n != 0
}

// refTable is FlowTable's reference: a slice scanned in full by every
// operation, with OpenFlow 1.0's rules written out one at a time.
type refTable struct {
	rows             []*modelEntry
	seq              int
	lookups, matched uint64
}

// selectsRef reports whether a modify or delete with (m, priority, strict)
// applies to o, and with outPort restricts a delete to o's outputs.
func selectsRef(o *modelEntry, m *openflow.Match, priority uint16, strict bool, outPort uint16) bool {
	e := o.e
	if strict {
		if e.Match != *m || e.Priority != priority {
			return false
		}
	} else if !m.Subsumes(&e.Match) {
		return false
	}
	if outPort == openflow.PortNone {
		return true
	}
	for _, a := range o.actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == outPort {
			return true
		}
	}
	return false
}

// overlapRef is the model's OFPFF_CHECK_OVERLAP rule, written apart from
// overlaps: a packet can match both a and b unless a field both fix holds
// different values, or the two address prefixes differ in a bit both fix,
// compared one bit at a time from the top.
func overlapRef(a, b *openflow.Match) bool {
	both := func(bit uint32) bool { return a.Wildcards&bit == 0 && b.Wildcards&bit == 0 }
	if both(openflow.FWInPort) && a.InPort != b.InPort ||
		both(openflow.FWDLSrc) && a.DLSrc != b.DLSrc ||
		both(openflow.FWDLDst) && a.DLDst != b.DLDst ||
		both(openflow.FWDLVLAN) && a.DLVLAN != b.DLVLAN ||
		both(openflow.FWDLVLANPCP) && a.DLVLANPCP != b.DLVLANPCP ||
		both(openflow.FWDLType) && a.DLType != b.DLType ||
		both(openflow.FWNWProto) && a.NWProto != b.NWProto ||
		both(openflow.FWNWTOS) && a.NWTOS != b.NWTOS ||
		both(openflow.FWTPSrc) && a.TPSrc != b.TPSrc ||
		both(openflow.FWTPDst) && a.TPDst != b.TPDst {
		return false
	}
	return prefixesAgree(a.NWSrc, b.NWSrc, ignored(a, openflow.FWNWSrcMask), ignored(b, openflow.FWNWSrcMask)) &&
		prefixesAgree(a.NWDst, b.NWDst, ignored(a, openflow.FWNWDstMask), ignored(b, openflow.FWNWDstMask))
}

// ignored returns how many low bits of an address m ignores, read from the
// wildcard field under mask: at most 32, whatever the six bits hold.
func ignored(m *openflow.Match, mask uint32) uint32 {
	return min(m.Wildcards&mask>>bits.TrailingZeros32(mask), 32)
}

// prefixesAgree reports whether x and y, each with its count of ignored low
// bits, agree on every bit that both fix.
func prefixesAgree(x, y packet.IP4, xIgnored, yIgnored uint32) bool {
	for i := 0; i < 32-int(max(xIgnored, yIgnored)); i++ {
		if x[i/8]>>(7-i%8)&1 != y[i/8]>>(7-i%8)&1 {
			return false
		}
	}
	return true
}

func (r *refTable) add(e *FlowEntry, checkOverlap bool) bool {
	if checkOverlap {
		for _, o := range r.rows {
			if o.e.Priority == e.Priority && o.e.Match != e.Match && overlapRef(&o.e.Match, &e.Match) {
				return false
			}
		}
	}
	// An ADD replaces the entry of identical match and priority; an exact
	// match is one entry whatever its priority.
	r.rows = slices.DeleteFunc(r.rows, func(o *modelEntry) bool {
		return o.e.Match == e.Match && (o.e.Priority == e.Priority || e.Match.IsExact())
	})
	r.seq++
	r.rows = append(r.rows, &modelEntry{e: e, actions: e.Actions, seq: r.seq})
	return true
}

func (r *refTable) modify(m *openflow.Match, priority uint16, strict bool, actions []openflow.Action) int {
	n := 0
	for _, o := range r.rows {
		if selectsRef(o, m, priority, strict, openflow.PortNone) {
			o.actions = actions
			n++
		}
	}
	return n
}

func (r *refTable) remove(drop func(*modelEntry) bool) []*FlowEntry {
	var removed []*FlowEntry
	r.rows = slices.DeleteFunc(r.rows, func(o *modelEntry) bool {
		if drop(o) {
			removed = append(removed, o.e)
			return true
		}
		return false
	})
	return removed
}

func (r *refTable) delete(m *openflow.Match, priority uint16, strict bool, outPort uint16) []*FlowEntry {
	return r.remove(func(o *modelEntry) bool { return selectsRef(o, m, priority, strict, outPort) })
}

// expire removes what has timed out and says why, hard timeout first.
func (r *refTable) expire(now time.Time) map[*FlowEntry]uint8 {
	reasons := map[*FlowEntry]uint8{}
	r.remove(func(o *modelEntry) bool {
		e := o.e
		if e.HardTimeout > 0 && now.Sub(e.Installed) >= time.Duration(e.HardTimeout)*time.Second {
			reasons[e] = openflow.FlowRemovedHardTimeout
			return true
		}
		last := e.Installed
		if !o.lastUsed.IsZero() {
			last = o.lastUsed
		}
		if e.IdleTimeout > 0 && now.Sub(last) >= time.Duration(e.IdleTimeout)*time.Second {
			reasons[e] = openflow.FlowRemovedIdleTimeout
			return true
		}
		return false
	})
	return reasons
}

// earliest is the earliest deadline of any row (UnixNano), math.MaxInt64
// with none: what FlowTable's bound may not exceed, and what a sweep that
// walks the table sets it to.
func (r *refTable) earliest() int64 {
	d := int64(math.MaxInt64)
	for _, o := range r.rows {
		e := o.e
		if e.HardTimeout > 0 {
			d = min(d, e.Installed.Add(time.Duration(e.HardTimeout)*time.Second).UnixNano())
		}
		last := e.Installed
		if !o.lastUsed.IsZero() {
			last = o.lastUsed
		}
		if e.IdleTimeout > 0 {
			d = min(d, last.Add(time.Duration(e.IdleTimeout)*time.Second).UnixNano())
		}
	}
	return d
}

// lookup finds a frame's entry: an exact entry equal to the frame's key
// first, else the wildcarded entry of highest priority, the earliest added
// among equals.
func (r *refTable) lookup(d *packet.Decoded, inPort uint16, frameLen int, now time.Time) *FlowEntry {
	r.lookups++
	key := openflow.MatchFromFrame(d, inPort)
	var best *modelEntry
	for _, o := range r.rows {
		if o.e.Match.IsExact() {
			if o.e.Match == key {
				best = o
				break
			}
			continue
		}
		if o.e.Match.Matches(&key) && (best == nil || o.e.Priority > best.e.Priority ||
			o.e.Priority == best.e.Priority && o.seq < best.seq) {
			best = o
		}
	}
	if best == nil {
		return nil
	}
	r.matched++
	best.packets++
	best.bytes += uint64(frameLen)
	best.lastUsed = now
	return best.e
}

// tableGen is a seeded generator of the operations the model checks: a
// small universe of frames and matches, so that entries collide, subsume
// and overlap often.
type tableGen struct {
	rng    *rand.Rand
	frames [][]byte
}

func newTableGen(seed int64) *tableGen {
	g := &tableGen{rng: rand.New(rand.NewSource(seed))}
	for src := byte(1); src <= 3; src++ {
		for _, dport := range []uint16{80, 443} {
			for _, sport := range []uint16{40000, 40001} {
				g.frames = append(g.frames, packet.AppendTCPFrame(nil,
					packet.MAC{2, 0, 0, 0, 0, src}, packet.MAC{2, 0, 0, 0, 1, 1},
					packet.IP4{10, 0, 0, src}, packet.IP4{10, 0, 1, 1}, sport, dport, packet.TCPAck, 1, 0, nil))
			}
		}
	}
	return g
}

func (g *tableGen) frame() ([]byte, *packet.Decoded, uint16) {
	f := g.frames[g.rng.Intn(len(g.frames))]
	d := new(packet.Decoded)
	if err := d.Decode(f); err != nil {
		panic(err)
	}
	return f, d, uint16(1 + g.rng.Intn(2))
}

// other is a value for every field overlaps compares that no frame of the
// generator carries: the second value a wildcarded match may fix a field to.
var other = openflow.Match{
	InPort: 3, DLSrc: packet.MAC{2, 0, 0, 0, 0, 9}, DLDst: packet.MAC{2, 0, 0, 0, 1, 9},
	DLVLAN: 7, DLVLANPCP: 3, DLType: packet.EtherTypeARP, NWProto: uint8(packet.ProtoUDP), NWTOS: 8,
	TPSrc: 1234, TPDst: 22, NWSrc: packet.IP4{10, 0, 9, 1}, NWDst: packet.IP4{10, 0, 1, 7},
}

// matchFields are the fields overlaps compares by value, each with how to
// copy it from one match to another.
var matchFields = []struct {
	bit  uint32
	copy func(dst, src *openflow.Match)
}{
	{openflow.FWInPort, func(d, s *openflow.Match) { d.InPort = s.InPort }},
	{openflow.FWDLSrc, func(d, s *openflow.Match) { d.DLSrc = s.DLSrc }},
	{openflow.FWDLDst, func(d, s *openflow.Match) { d.DLDst = s.DLDst }},
	{openflow.FWDLVLAN, func(d, s *openflow.Match) { d.DLVLAN = s.DLVLAN }},
	{openflow.FWDLVLANPCP, func(d, s *openflow.Match) { d.DLVLANPCP = s.DLVLANPCP }},
	{openflow.FWDLType, func(d, s *openflow.Match) { d.DLType = s.DLType }},
	{openflow.FWNWProto, func(d, s *openflow.Match) { d.NWProto = s.NWProto }},
	{openflow.FWNWTOS, func(d, s *openflow.Match) { d.NWTOS = s.NWTOS }},
	{openflow.FWTPSrc, func(d, s *openflow.Match) { d.TPSrc = s.TPSrc }},
	{openflow.FWTPDst, func(d, s *openflow.Match) { d.TPDst = s.TPDst }},
}

// match draws an exact match of one of the frames, or a wildcarded one
// fixing a random few of the fields overlaps compares, and nw_src and
// nw_dst to a /8, /24 or /32 prefix, each to the frame's value or, a third
// of the time, to other's.
func (g *tableGen) match() openflow.Match {
	_, d, inPort := g.frame()
	exact := openflow.MatchFromFrame(d, inPort)
	if g.rng.Intn(2) == 0 {
		return exact
	}
	from := func() *openflow.Match {
		if g.rng.Intn(3) == 0 {
			return &other
		}
		return &exact
	}
	m := openflow.MatchAll()
	for _, f := range matchFields {
		if g.rng.Intn(4) == 0 {
			m.Wildcards &^= f.bit
			f.copy(&m, from())
		}
	}
	prefix := func(mask uint32) uint32 {
		return uint32(32-[]int{8, 24, 32}[g.rng.Intn(3)]) << bits.TrailingZeros32(mask)
	}
	if g.rng.Intn(3) == 0 {
		m.Wildcards = m.Wildcards&^openflow.FWNWSrcMask | prefix(openflow.FWNWSrcMask)
		m.NWSrc = from().NWSrc
	}
	if g.rng.Intn(3) == 0 {
		m.Wildcards = m.Wildcards&^openflow.FWNWDstMask | prefix(openflow.FWNWDstMask)
		m.NWDst = from().NWDst
	}
	return m
}

func (g *tableGen) priority() uint16 { return []uint16{1, 5, 10}[g.rng.Intn(3)] }

func (g *tableGen) actions() []openflow.Action {
	as := []openflow.Action{&openflow.ActionOutput{Port: uint16(1 + g.rng.Intn(3))}}
	if g.rng.Intn(3) == 0 {
		as = append(as, &openflow.ActionOutput{Port: uint16(1 + g.rng.Intn(3))})
	}
	return as
}

func (g *tableGen) outPort() uint16 {
	if g.rng.Intn(2) == 0 {
		return openflow.PortNone
	}
	return uint16(1 + g.rng.Intn(3))
}

// FlowTable is checked against refTable over seeded random sequences of
// adds, modifies and deletes (strict or not, deletes with and without an
// output port), lookups and expiry sweeps on a simulated clock: after every
// operation the two hold the same entries with the same actions and
// counters, removals agree as sets and with their reasons and leave in
// removalOrder, and gen rises on every add, modify and delete, on a sweep
// that removes something and on nothing else. The sweep's earliest-deadline
// bound is never later than the model's earliest deadline, and a sweep at
// or past the bound walks the table and sets it to exactly that.
func TestFlowTableMatchesModel(t *testing.T) {
	const seeds, ops = 60, 400
	for seed := int64(1); seed <= seeds; seed++ {
		g := newTableGen(seed)
		tbl, ref := NewFlowTable(), &refTable{}
		now := time.Unix(1000, 0)
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, op %d: "+format, append([]any{seed, op}, args...)...)
		}
		for op := 0; op < ops; op++ {
			gen, due := tbl.gen.Load(), tbl.due.Load()
			changes := true
			var what string
			switch k := g.rng.Intn(20); {
			case k < 6:
				what = "add"
				e := &FlowEntry{Match: g.match(), Priority: g.priority(), Actions: g.actions(), Installed: now}
				if g.rng.Intn(3) == 0 {
					e.IdleTimeout = uint16(1 + g.rng.Intn(5))
				}
				if g.rng.Intn(4) == 0 {
					e.HardTimeout = uint16(1 + g.rng.Intn(8))
				}
				check := g.rng.Intn(4) == 0
				if err, ok := tbl.Add(e, check), ref.add(e, check); (err == nil) != ok {
					fail(op, "Add(checkOverlap %v) = %v, the model admits it: %v", check, err, ok)
				}
			case k < 8:
				what = "modify"
				m, prio, strict, as := g.match(), g.priority(), g.rng.Intn(2) == 0, g.actions()
				want := ref.modify(&m, prio, strict, as)
				if got := tbl.modify(&m, prio, strict, as); got != want {
					fail(op, "modify(strict %v) changed %d entries, the model %d", strict, got, want)
				}
			case k < 11:
				what = "delete"
				m, prio, strict, out := g.match(), g.priority(), g.rng.Intn(2) == 0, g.outPort()
				if g.rng.Intn(4) == 0 {
					m = openflow.MatchAll()
				}
				want := ref.delete(&m, prio, strict, out)
				got := tbl.delete(&m, prio, strict, out)
				if !sameEntries(got, want) {
					fail(op, "delete(strict %v, out_port %d) removed %d entries, the model %d, or others", strict, out, len(got), len(want))
				}
				if !slices.IsSortedFunc(got, removalOrder) {
					fail(op, "delete's removals are not in removal order")
				}
			case k < 13:
				what = "expire"
				now = now.Add(time.Duration(g.rng.Intn(3000)) * time.Millisecond)
				want := ref.expire(now)
				got, reasons := expireAt(tbl, now)
				if len(got) != len(want) {
					fail(op, "expire removed %d entries, the model %d", len(got), len(want))
				}
				for i, e := range got {
					if r, ok := want[e]; !ok || r != reasons[i] {
						fail(op, "expire removed an entry for reason %d, the model %d (removes it: %v)", reasons[i], r, ok)
					}
				}
				if !slices.IsSortedFunc(got, removalOrder) {
					fail(op, "Expire's removals are not in removal order")
				}
				changes = len(got) > 0
				if now.UnixNano() >= due && tbl.due.Load() != ref.earliest() {
					fail(op, "a sweep at %d past the bound %d left it at %d, the model's earliest deadline is %d",
						now.UnixNano(), due, tbl.due.Load(), ref.earliest())
				}
			default:
				what, changes = "lookup", false
				f, d, inPort := g.frame()
				now = now.Add(time.Duration(g.rng.Intn(400)) * time.Millisecond)
				if got, want := tbl.Lookup(d, inPort, len(f), now), ref.lookup(d, inPort, len(f), now); got != want {
					fail(op, "Lookup on port %d found %p, the model %p", inPort, got, want)
				}
			}
			if after := tbl.gen.Load(); changes && after <= gen || !changes && after != gen {
				fail(op, "%s: gen %d → %d", what, gen, after)
			}
			if b, d := tbl.due.Load(), ref.earliest(); b > d {
				fail(op, "%s: the sweep bound %d is later than the earliest deadline %d", what, b, d)
			}
			compareModel(t, tbl, ref, func(format string, args ...any) { fail(op, what+": "+format, args...) })
		}
	}
}

// sameEntries reports whether a and b hold the same entries, in any order.
func sameEntries(a, b []*FlowEntry) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[*FlowEntry]bool, len(a))
	for _, e := range a {
		set[e] = true
	}
	for _, e := range b {
		if !set[e] {
			return false
		}
	}
	return true
}

// compareModel checks that tbl and ref hold the same entries, with the
// same actions and counters.
func compareModel(t *testing.T, tbl *FlowTable, ref *refTable, fail func(string, ...any)) {
	t.Helper()
	entries := tbl.Entries(nil, openflow.PortNone)
	if tbl.Len() != len(ref.rows) || len(entries) != len(ref.rows) {
		fail("Len %d, Entries %d, the model holds %d", tbl.Len(), len(entries), len(ref.rows))
	}
	want := make([]*FlowEntry, len(ref.rows))
	for i, o := range ref.rows {
		want[i] = o.e
		if !slices.Equal(o.e.Actions, o.actions) {
			fail("entry %v has actions %v, the model %v", &o.e.Match, o.e.Actions, o.actions)
		}
		lu, ok := lastUsed(o.e)
		if o.e.PacketCount() != o.packets || o.e.ByteCount() != o.bytes || ok != !o.lastUsed.IsZero() || ok && !lu.Equal(o.lastUsed) {
			fail("entry %v counts %d packets, %d bytes, last used %v; the model %d, %d, %v",
				&o.e.Match, o.e.PacketCount(), o.e.ByteCount(), lu, o.packets, o.bytes, o.lastUsed)
		}
	}
	if !sameEntries(entries, want) {
		fail("the table holds other entries than the model")
	}
	if lookups, matched := tbl.Counters(); lookups != ref.lookups || matched != ref.matched {
		fail("counters %d lookups, %d matched; the model %d, %d", lookups, matched, ref.lookups, ref.matched)
	}
}
