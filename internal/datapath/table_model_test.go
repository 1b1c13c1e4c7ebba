package datapath

import (
	"math"
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

// refTable is FlowTable's reference: a slice scanned in full by every
// operation, with OpenFlow 1.0's rules written out one at a time.
type refTable struct {
	rows             []*modelEntry
	seq              int
	lookups, matched uint64
}

// selects reports whether a modify or delete with (m, priority, strict)
// applies to o, and with outPort restricts a delete to o's outputs.
func selects(o *modelEntry, m *openflow.Match, priority uint16, strict bool, outPort uint16) bool {
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

func (r *refTable) add(e *FlowEntry, checkOverlap bool) bool {
	if checkOverlap {
		for _, o := range r.rows {
			if o.e.Priority == e.Priority && o.e.Match != e.Match && overlaps(&o.e.Match, &e.Match) {
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
		if selects(o, m, priority, strict, openflow.PortNone) {
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
	return r.remove(func(o *modelEntry) bool { return selects(o, m, priority, strict, outPort) })
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
		if o.e.Match.Matches(d, inPort) && (best == nil || o.e.Priority > best.e.Priority ||
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

// match draws an exact match of one of the frames, or a wildcarded one
// fixing a random few fields.
func (g *tableGen) match() openflow.Match {
	_, d, inPort := g.frame()
	if g.rng.Intn(2) == 0 {
		return openflow.MatchFromFrame(d, inPort)
	}
	m := openflow.MatchAll()
	if g.rng.Intn(3) == 0 {
		m.Wildcards &^= openflow.FWInPort
		m.InPort = inPort
	}
	if g.rng.Intn(2) == 0 {
		m.Wildcards &^= openflow.FWDLType | openflow.FWNWProto
		m.DLType, m.NWProto = packet.EtherTypeIPv4, uint8(packet.ProtoTCP)
	}
	if g.rng.Intn(3) == 0 {
		m.Wildcards &^= openflow.FWTPDst
		m.TPDst = d.TCP.DstPort
	}
	if g.rng.Intn(3) == 0 {
		m.SetNWSrcPrefix([]int{24, 32}[g.rng.Intn(2)])
		m.NWSrc = d.IP.Src
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
				if got := tbl.Modify(&m, prio, strict, as); got != want {
					fail(op, "Modify(strict %v) changed %d entries, the model %d", strict, got, want)
				}
			case k < 11:
				what = "delete"
				m, prio, strict, out := g.match(), g.priority(), g.rng.Intn(2) == 0, g.outPort()
				if g.rng.Intn(4) == 0 {
					m = openflow.MatchAll()
				}
				want := ref.delete(&m, prio, strict, out)
				got := tbl.Delete(&m, prio, strict, out)
				if !sameEntries(got, want) {
					fail(op, "Delete(strict %v, out_port %d) removed %d entries, the model %d, or others", strict, out, len(got), len(want))
				}
				if !slices.IsSortedFunc(got, removalOrder) {
					fail(op, "Delete's removals are not in removal order")
				}
			case k < 13:
				what = "expire"
				now = now.Add(time.Duration(g.rng.Intn(3000)) * time.Millisecond)
				want := ref.expire(now)
				got, reasons := tbl.Expire(now)
				if len(got) != len(want) {
					fail(op, "Expire removed %d entries, the model %d", len(got), len(want))
				}
				for i, e := range got {
					if r, ok := want[e]; !ok || r != reasons[i] {
						fail(op, "Expire removed an entry for reason %d, the model %d (removes it: %v)", reasons[i], r, ok)
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
		lu, ok := o.e.LastUsed()
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
