package openflow

import (
	"bytes"
	"encoding/binary"
)

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

func (m *StatsRequest) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	switch m.StatsType {
	case StatsFlow, StatsAggregate:
		b = m.Flow.Match.encode(b)
		b = append(b, m.Flow.TableID, 0)
		b = binary.BigEndian.AppendUint16(b, m.Flow.OutPort)
	case StatsPort:
		b = binary.BigEndian.AppendUint16(b, m.Port.PortNo)
		b = append(b, make([]byte, 6)...)
	}
	return b
}

func (m *StatsRequest) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.StatsType = binary.BigEndian.Uint16(b[0:2])
	m.Flags = binary.BigEndian.Uint16(b[2:4])
	body := b[4:]
	switch m.StatsType {
	case StatsFlow, StatsAggregate:
		if len(body) < MatchLen+4 {
			return ErrTruncated
		}
		if err := m.Flow.Match.decode(body); err != nil {
			return err
		}
		m.Flow.TableID = body[MatchLen]
		m.Flow.OutPort = binary.BigEndian.Uint16(body[MatchLen+2 : MatchLen+4])
	case StatsPort:
		if len(body) < 8 {
			return ErrTruncated
		}
		m.Port.PortNo = binary.BigEndian.Uint16(body[0:2])
	}
	return nil
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

func (f *FlowStats) encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0, 0) // length placeholder
	b = append(b, f.TableID, 0)
	b = f.Match.encode(b)
	b = binary.BigEndian.AppendUint32(b, f.DurationSec)
	b = binary.BigEndian.AppendUint32(b, f.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, f.Priority)
	b = binary.BigEndian.AppendUint16(b, f.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, f.HardTimeout)
	b = append(b, make([]byte, 6)...)
	b = binary.BigEndian.AppendUint64(b, f.Cookie)
	b = binary.BigEndian.AppendUint64(b, f.PacketCount)
	b = binary.BigEndian.AppendUint64(b, f.ByteCount)
	b = encodeActions(b, f.Actions)
	binary.BigEndian.PutUint16(b[start:start+2], uint16(len(b)-start))
	return b
}

func (f *FlowStats) decode(b []byte) (rest []byte, err error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	length := int(binary.BigEndian.Uint16(b[0:2]))
	if length < 88 || length > len(b) {
		return nil, ErrBadLength
	}
	f.TableID = b[2]
	if err := f.Match.decode(b[4:]); err != nil {
		return nil, err
	}
	p := b[4+MatchLen:]
	f.DurationSec = binary.BigEndian.Uint32(p[0:4])
	f.DurationNsec = binary.BigEndian.Uint32(p[4:8])
	f.Priority = binary.BigEndian.Uint16(p[8:10])
	f.IdleTimeout = binary.BigEndian.Uint16(p[10:12])
	f.HardTimeout = binary.BigEndian.Uint16(p[12:14])
	f.Cookie = binary.BigEndian.Uint64(p[20:28])
	f.PacketCount = binary.BigEndian.Uint64(p[28:36])
	f.ByteCount = binary.BigEndian.Uint64(p[36:44])
	actions, err := decodeActions(b[48+MatchLen : length])
	if err != nil {
		return nil, err
	}
	f.Actions = actions
	return b[length:], nil
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

func (t *TableStats) encode(b []byte) []byte {
	b = append(b, t.TableID, 0, 0, 0)
	b = appendPadded(b, t.Name, 32)
	b = binary.BigEndian.AppendUint32(b, t.Wildcards)
	b = binary.BigEndian.AppendUint32(b, t.MaxEntries)
	b = binary.BigEndian.AppendUint32(b, t.ActiveCount)
	b = binary.BigEndian.AppendUint64(b, t.LookupCount)
	b = binary.BigEndian.AppendUint64(b, t.MatchedCount)
	return b
}

func (t *TableStats) decode(b []byte) error {
	if len(b) < tableStatsLen {
		return ErrTruncated
	}
	t.TableID = b[0]
	t.Name = paddedString(b[4:36])
	t.Wildcards = binary.BigEndian.Uint32(b[36:40])
	t.MaxEntries = binary.BigEndian.Uint32(b[40:44])
	t.ActiveCount = binary.BigEndian.Uint32(b[44:48])
	t.LookupCount = binary.BigEndian.Uint64(b[48:56])
	t.MatchedCount = binary.BigEndian.Uint64(b[56:64])
	return nil
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

func (p *PortStats) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.PortNo)
	b = append(b, make([]byte, 6)...)
	for _, v := range []uint64{
		p.RxPackets, p.TxPackets, p.RxBytes, p.TxBytes,
		p.RxDropped, p.TxDropped, p.RxErrors, p.TxErrors,
		p.RxFrameErr, p.RxOverErr, p.RxCRCErr, p.Collisions,
	} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func (p *PortStats) decode(b []byte) error {
	if len(b) < portStatsLen {
		return ErrTruncated
	}
	p.PortNo = binary.BigEndian.Uint16(b[0:2])
	vals := []*uint64{
		&p.RxPackets, &p.TxPackets, &p.RxBytes, &p.TxBytes,
		&p.RxDropped, &p.TxDropped, &p.RxErrors, &p.TxErrors,
		&p.RxFrameErr, &p.RxOverErr, &p.RxCRCErr, &p.Collisions,
	}
	off := 8
	for _, v := range vals {
		*v = binary.BigEndian.Uint64(b[off : off+8])
		off += 8
	}
	return nil
}

// DescStats is the ofp_desc_stats reply body.
type DescStats struct {
	MfrDesc   string
	HWDesc    string
	SWDesc    string
	SerialNum string
	DPDesc    string
}

// appendPadded appends s as an n-byte NUL-padded field, cut to n-1 bytes so
// that the field always ends in a NUL.
func appendPadded(b []byte, s string, n int) []byte {
	if len(s) >= n {
		s = s[:n-1]
	}
	b = append(b, s...)
	return append(b, make([]byte, n-len(s))...)
}

// paddedString reads a field appendPadded wrote: up to its first NUL, and
// never its last byte, so what decodes encodes to the same string.
func paddedString(b []byte) string {
	b = b[:len(b)-1]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
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

func (m *StatsReply) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	switch m.StatsType {
	case StatsDesc:
		b = appendPadded(b, m.Desc.MfrDesc, 256)
		b = appendPadded(b, m.Desc.HWDesc, 256)
		b = appendPadded(b, m.Desc.SWDesc, 256)
		b = appendPadded(b, m.Desc.SerialNum, 32)
		b = appendPadded(b, m.Desc.DPDesc, 256)
	case StatsFlow:
		for i := range m.Flows {
			b = m.Flows[i].encode(b)
		}
	case StatsAggregate:
		b = binary.BigEndian.AppendUint64(b, m.Aggregate.PacketCount)
		b = binary.BigEndian.AppendUint64(b, m.Aggregate.ByteCount)
		b = binary.BigEndian.AppendUint32(b, m.Aggregate.FlowCount)
		b = append(b, 0, 0, 0, 0)
	case StatsTable:
		for i := range m.Tables {
			b = m.Tables[i].encode(b)
		}
	case StatsPort:
		for i := range m.Ports {
			b = m.Ports[i].encode(b)
		}
	}
	return b
}

func (m *StatsReply) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.StatsType = binary.BigEndian.Uint16(b[0:2])
	m.Flags = binary.BigEndian.Uint16(b[2:4])
	body := b[4:]
	switch m.StatsType {
	case StatsDesc:
		if len(body) < 256*4+32 {
			return ErrTruncated
		}
		m.Desc.MfrDesc = paddedString(body[0:256])
		m.Desc.HWDesc = paddedString(body[256:512])
		m.Desc.SWDesc = paddedString(body[512:768])
		m.Desc.SerialNum = paddedString(body[768:800])
		m.Desc.DPDesc = paddedString(body[800:1056])
	case StatsFlow:
		m.Flows = nil
		for len(body) > 0 {
			var f FlowStats
			rest, err := f.decode(body)
			if err != nil {
				return err
			}
			m.Flows = append(m.Flows, f)
			body = rest
		}
	case StatsAggregate:
		if len(body) < 20 {
			return ErrTruncated
		}
		m.Aggregate.PacketCount = binary.BigEndian.Uint64(body[0:8])
		m.Aggregate.ByteCount = binary.BigEndian.Uint64(body[8:16])
		m.Aggregate.FlowCount = binary.BigEndian.Uint32(body[16:20])
	case StatsTable:
		m.Tables = nil
		for len(body) >= tableStatsLen {
			var t TableStats
			if err := t.decode(body); err != nil {
				return err
			}
			m.Tables = append(m.Tables, t)
			body = body[tableStatsLen:]
		}
	case StatsPort:
		m.Ports = nil
		for len(body) >= portStatsLen {
			var p PortStats
			if err := p.decode(body); err != nil {
				return err
			}
			m.Ports = append(m.Ports, p)
			body = body[portStatsLen:]
		}
	}
	return nil
}
