package openflow

// Stats types (ofp_stats_types).
const (
	StatsDesc      uint16 = 0
	StatsFlow      uint16 = 1
	StatsAggregate uint16 = 2
	StatsTable     uint16 = 3
	StatsPort      uint16 = 4
	StatsQueue     uint16 = 5
	StatsVendor    uint16 = 0xffff
)

// StatsReplyFlagMore marks a multipart reply with more parts following.
const StatsReplyFlagMore uint16 = 1 << 0

// StatsRequest asks the datapath for statistics. Exactly one of the typed
// request bodies is used, selected by StatsType.
type StatsRequest struct {
	base
	StatsType uint16
	Flags     uint16
	Flow      FlowStatsRequest // StatsFlow and StatsAggregate
	Port      PortStatsRequest // StatsPort
}

// FlowStatsRequest selects the flows covered by a flow/aggregate request.
type FlowStatsRequest struct {
	Match   Match
	TableID uint8
	OutPort uint16
}

// PortStatsRequest selects the port covered by a port stats request
// (PortNone means all ports).
type PortStatsRequest struct {
	PortNo uint16
}

// layout runs the stats type and flags, then the request body of that type.
func (m *StatsRequest) layout(w wire) wire {
	w.u16(&m.StatsType)
	w.u16(&m.Flags)
	switch m.StatsType {
	case StatsFlow, StatsAggregate:
		m.Flow.Match.layout(&w)
		w.u8(&m.Flow.TableID)
		w.pad(1)
		w.u16(&m.Flow.OutPort)
	case StatsPort:
		w.u16(&m.Port.PortNo)
		w.pad(6)
	}
	return w
}

// FlowStats is one ofp_flow_stats entry.
type FlowStats struct {
	TableID      uint8
	Match        Match
	DurationSec  uint32
	DurationNsec uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Actions      []Action
}

// flowStatsLen is the length of an ofp_flow_stats with no actions.
const flowStatsLen = 48 + MatchLen

// layout runs one entry: its length, which bounds it and which decoding
// needs 4 bytes to read, its fields and its action list.
func (f *FlowStats) layout(w *wire) {
	start := len(w.b)
	var n uint16
	w.u16(&n)
	w.u8(&f.TableID)
	w.pad(1)
	w.need(n >= flowStatsLen, ErrBadLength)
	rest := w.sub(int(n)-4, ErrBadLength)
	f.Match.layout(w)
	w.u32(&f.DurationSec)
	w.u32(&f.DurationNsec)
	w.u16(&f.Priority)
	w.u16(&f.IdleTimeout)
	w.u16(&f.HardTimeout)
	w.pad(6)
	w.u64(&f.Cookie)
	w.u64(&f.PacketCount)
	w.u64(&f.ByteCount)
	w.actions(&f.Actions)
	w.end(rest)
	w.putLen(start, start)
}

// AggregateStats is the body of an aggregate stats reply.
type AggregateStats struct {
	PacketCount uint64
	ByteCount   uint64
	FlowCount   uint32
}

// TableStats is one ofp_table_stats entry.
type TableStats struct {
	TableID      uint8
	Name         string
	Wildcards    uint32
	MaxEntries   uint32
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

const tableStatsLen = 64

func (t *TableStats) layout(w *wire) {
	w.u8(&t.TableID)
	w.pad(3)
	w.str(&t.Name, 32)
	w.u32(&t.Wildcards)
	w.u32(&t.MaxEntries)
	w.u32(&t.ActiveCount)
	w.u64(&t.LookupCount)
	w.u64(&t.MatchedCount)
}

// PortStats is one ofp_port_stats entry. The Homework measurement plane
// polls these to populate the hwdb Links table.
type PortStats struct {
	PortNo     uint16
	RxPackets  uint64
	TxPackets  uint64
	RxBytes    uint64
	TxBytes    uint64
	RxDropped  uint64
	TxDropped  uint64
	RxErrors   uint64
	TxErrors   uint64
	RxFrameErr uint64
	RxOverErr  uint64
	RxCRCErr   uint64
	Collisions uint64
}

const portStatsLen = 104

func (p *PortStats) layout(w *wire) {
	w.u16(&p.PortNo)
	w.pad(6)
	for _, v := range [...]*uint64{
		&p.RxPackets, &p.TxPackets, &p.RxBytes, &p.TxBytes,
		&p.RxDropped, &p.TxDropped, &p.RxErrors, &p.TxErrors,
		&p.RxFrameErr, &p.RxOverErr, &p.RxCRCErr, &p.Collisions,
	} {
		w.u64(v)
	}
}

// DescStats is the ofp_desc_stats reply body.
type DescStats struct {
	MfrDesc   string
	HWDesc    string
	SWDesc    string
	SerialNum string
	DPDesc    string
}

// StatsReply answers a StatsRequest; the populated body field corresponds to
// StatsType.
type StatsReply struct {
	base
	StatsType uint16
	Flags     uint16

	Desc      DescStats
	Flows     []FlowStats
	Aggregate AggregateStats
	Tables    []TableStats
	Ports     []PortStats
}

// layout runs the stats type and flags, then the reply body of that type:
// a list of entries runs to the end of the message, and a decode skips
// bytes short of a whole table or port entry.
func (m *StatsReply) layout(w wire) wire {
	w.u16(&m.StatsType)
	w.u16(&m.Flags)
	switch m.StatsType {
	case StatsDesc:
		w.str(&m.Desc.MfrDesc, 256)
		w.str(&m.Desc.HWDesc, 256)
		w.str(&m.Desc.SWDesc, 256)
		w.str(&m.Desc.SerialNum, 32)
		w.str(&m.Desc.DPDesc, 256)
	case StatsFlow:
		for i := 0; more(&w, &m.Flows, i, 1); i++ {
			m.Flows[i].layout(&w)
		}
	case StatsAggregate:
		w.u64(&m.Aggregate.PacketCount)
		w.u64(&m.Aggregate.ByteCount)
		w.u32(&m.Aggregate.FlowCount)
		if !w.dec {
			w.pad(4) // a reader needs only the 20 bytes before it
		}
	case StatsTable:
		for i := 0; more(&w, &m.Tables, i, tableStatsLen); i++ {
			m.Tables[i].layout(&w)
		}
	case StatsPort:
		for i := 0; more(&w, &m.Ports, i, portStatsLen); i++ {
			m.Ports[i].layout(&w)
		}
	}
	return w
}
