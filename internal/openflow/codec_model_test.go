package openflow

// The reference decoders: each structure read at hand-computed offsets
// behind hand-computed length checks, as the codec did before one layout
// drove both directions. TestReadMessageMatchesModel and FuzzReadMessage
// hold ReadMessage to readMessageRef: both accept the same frames, read
// them as the same messages, and reject the rest with the same sentinel.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/packet"
)

// refDecoder is a message or an action the reference can read.
type refDecoder interface{ decodeRef(b []byte) error }

func (h *Header) decodeRef(b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	h.Version = b[0]
	h.Type = MsgType(b[1])
	h.Length = binary.BigEndian.Uint16(b[2:4])
	h.XID = binary.BigEndian.Uint32(b[4:8])
	if h.Version != Version {
		return ErrBadVersion
	}
	if int(h.Length) < HeaderLen {
		return ErrBadLength
	}
	return nil
}

func readMessageRef(r io.Reader) (Message, error) {
	var hb [HeaderLen]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, err
	}
	var h Header
	if err := h.decodeRef(hb[:]); err != nil {
		return nil, err
	}
	body := make([]byte, int(h.Length)-HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeMessageRef(h, body)
}

func decodeMessageRef(h Header, body []byte) (Message, error) {
	msg := newMessageRef(h.Type)
	if msg == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, h.Type)
	}
	*msg.Hdr() = h
	if err := msg.(refDecoder).decodeRef(body); err != nil {
		return nil, fmt.Errorf("openflow: decoding %s: %w", h.Type, err)
	}
	return msg, nil
}

func newMessageRef(t MsgType) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeError:
		return &ErrorMsg{}
	case TypeEchoRequest:
		return &EchoRequest{}
	case TypeEchoReply:
		return &EchoReply{}
	case TypeVendor:
		return &Vendor{}
	case TypeFeaturesRequest:
		return &FeaturesRequest{}
	case TypeFeaturesReply:
		return &FeaturesReply{}
	case TypeGetConfigRequest:
		return &GetConfigRequest{}
	case TypeGetConfigReply:
		return &GetConfigReply{}
	case TypeSetConfig:
		return &SetConfig{}
	case TypePacketIn:
		return &PacketIn{}
	case TypeFlowRemoved:
		return &FlowRemoved{}
	case TypePortStatus:
		return &PortStatus{}
	case TypePacketOut:
		return &PacketOut{}
	case TypeFlowMod:
		return &FlowMod{}
	case TypeStatsRequest:
		return &StatsRequest{}
	case TypeStatsReply:
		return &StatsReply{}
	case TypeBarrierRequest:
		return &BarrierRequest{}
	case TypeBarrierReply:
		return &BarrierReply{}
	}
	return nil
}

func (m *Hello) decodeRef([]byte) error { return nil }

func (m *EchoRequest) decodeRef(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

func (m *EchoReply) decodeRef(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

func (m *ErrorMsg) decodeRef(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.ErrType = binary.BigEndian.Uint16(b[0:2])
	m.Code = binary.BigEndian.Uint16(b[2:4])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

func (m *Vendor) decodeRef(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.VendorID = binary.BigEndian.Uint32(b[0:4])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

func (m *GetConfigRequest) decodeRef([]byte) error { return nil }

func (m *GetConfigReply) decodeRef(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.Flags = binary.BigEndian.Uint16(b[0:2])
	m.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

func (m *SetConfig) decodeRef(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.Flags = binary.BigEndian.Uint16(b[0:2])
	m.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

func (m *BarrierRequest) decodeRef([]byte) error { return nil }

func (m *BarrierReply) decodeRef([]byte) error { return nil }

func (p *PhyPort) decodeRef(b []byte) error {
	if len(b) < PhyPortLen {
		return ErrTruncated
	}
	p.PortNo = binary.BigEndian.Uint16(b[0:2])
	copy(p.HWAddr[:], b[2:8])
	p.Name = paddedStringRef(b[8:24])
	p.Config = binary.BigEndian.Uint32(b[24:28])
	p.State = binary.BigEndian.Uint32(b[28:32])
	p.Curr = binary.BigEndian.Uint32(b[32:36])
	p.Advertised = binary.BigEndian.Uint32(b[36:40])
	p.Supported = binary.BigEndian.Uint32(b[40:44])
	p.Peer = binary.BigEndian.Uint32(b[44:48])
	return nil
}

func (m *FeaturesRequest) decodeRef([]byte) error { return nil }

func (m *FeaturesReply) decodeRef(b []byte) error {
	if len(b) < 24 {
		return ErrTruncated
	}
	m.DatapathID = binary.BigEndian.Uint64(b[0:8])
	m.NBuffers = binary.BigEndian.Uint32(b[8:12])
	m.NTables = b[12]
	m.Capabilities = binary.BigEndian.Uint32(b[16:20])
	m.Actions = binary.BigEndian.Uint32(b[20:24])
	m.Ports = nil
	for rest := b[24:]; len(rest) >= PhyPortLen; rest = rest[PhyPortLen:] {
		var p PhyPort
		if err := p.decodeRef(rest); err != nil {
			return err
		}
		m.Ports = append(m.Ports, p)
	}
	return nil
}

func (m *PacketIn) decodeRef(b []byte) error {
	if len(b) < 10 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(b[0:4])
	m.TotalLen = binary.BigEndian.Uint16(b[4:6])
	m.InPort = binary.BigEndian.Uint16(b[6:8])
	m.Reason = b[8]
	m.Data = append([]byte(nil), b[10:]...)
	return nil
}

func (m *PacketOut) decodeRef(b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	alen := int(binary.BigEndian.Uint16(b[6:8]))
	if 8+alen > len(b) {
		return ErrTruncated
	}
	actions, err := decodeActionsRef(b[8 : 8+alen])
	if err != nil {
		return err
	}
	m.Actions = actions
	m.Data = append([]byte(nil), b[8+alen:]...)
	return nil
}

func (m *FlowMod) decodeRef(b []byte) error {
	if len(b) < MatchLen+24 {
		return ErrTruncated
	}
	if err := m.Match.decodeRef(b); err != nil {
		return err
	}
	b = b[MatchLen:]
	m.Cookie = binary.BigEndian.Uint64(b[0:8])
	m.Command = binary.BigEndian.Uint16(b[8:10])
	m.IdleTimeout = binary.BigEndian.Uint16(b[10:12])
	m.HardTimeout = binary.BigEndian.Uint16(b[12:14])
	m.Priority = binary.BigEndian.Uint16(b[14:16])
	m.BufferID = binary.BigEndian.Uint32(b[16:20])
	m.OutPort = binary.BigEndian.Uint16(b[20:22])
	m.Flags = binary.BigEndian.Uint16(b[22:24])
	actions, err := decodeActionsRef(b[24:])
	if err != nil {
		return err
	}
	m.Actions = actions
	return nil
}

func (m *FlowRemoved) decodeRef(b []byte) error {
	if len(b) < MatchLen+40 {
		return ErrTruncated
	}
	if err := m.Match.decodeRef(b); err != nil {
		return err
	}
	b = b[MatchLen:]
	m.Cookie = binary.BigEndian.Uint64(b[0:8])
	m.Priority = binary.BigEndian.Uint16(b[8:10])
	m.Reason = b[10]
	m.DurationSec = binary.BigEndian.Uint32(b[12:16])
	m.DurationNsec = binary.BigEndian.Uint32(b[16:20])
	m.IdleTimeout = binary.BigEndian.Uint16(b[20:22])
	m.PacketCount = binary.BigEndian.Uint64(b[24:32])
	m.ByteCount = binary.BigEndian.Uint64(b[32:40])
	return nil
}

func (m *PortStatus) decodeRef(b []byte) error {
	if len(b) < 8+PhyPortLen {
		return ErrTruncated
	}
	m.Reason = b[0]
	return m.Desc.decodeRef(b[8:])
}

func (a *ActionOutput) decodeRef(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	a.MaxLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

func (a *ActionSetDLSrc) decodeRef(b []byte) error {
	if len(b) < 6 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:6])
	return nil
}

func (a *ActionSetDLDst) decodeRef(b []byte) error {
	if len(b) < 6 {
		return ErrTruncated
	}
	copy(a.Addr[:], b[:6])
	return nil
}

func (a *ActionEnqueue) decodeRef(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	a.Port = binary.BigEndian.Uint16(b[0:2])
	a.QueueID = binary.BigEndian.Uint32(b[8:12])
	return nil
}

func (a *ActionUnsupported) decodeRef(b []byte) error {
	a.Body = append([]byte(nil), b...)
	return nil
}

func decodeActionsRef(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrTruncated
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, ErrBadLength
		}
		var a Action
		switch typ {
		case ActTypeOutput:
			a = &ActionOutput{}
		case ActTypeSetDLSrc:
			a = &ActionSetDLSrc{}
		case ActTypeSetDLDst:
			a = &ActionSetDLDst{}
		case ActTypeEnqueue:
			a = &ActionEnqueue{}
		default:
			a = &ActionUnsupported{Type: typ}
		}
		if err := a.(refDecoder).decodeRef(b[4:alen]); err != nil {
			return nil, err
		}
		actions = append(actions, a)
		b = b[alen:]
	}
	return actions, nil
}

func (m *StatsRequest) decodeRef(b []byte) error {
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
		if err := m.Flow.Match.decodeRef(body); err != nil {
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

func (f *FlowStats) decodeRef(b []byte) (rest []byte, err error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	length := int(binary.BigEndian.Uint16(b[0:2]))
	if length < 88 || length > len(b) {
		return nil, ErrBadLength
	}
	f.TableID = b[2]
	if err := f.Match.decodeRef(b[4:]); err != nil {
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
	actions, err := decodeActionsRef(b[48+MatchLen : length])
	if err != nil {
		return nil, err
	}
	f.Actions = actions
	return b[length:], nil
}

func (t *TableStats) decodeRef(b []byte) error {
	if len(b) < tableStatsLen {
		return ErrTruncated
	}
	t.TableID = b[0]
	t.Name = paddedStringRef(b[4:36])
	t.Wildcards = binary.BigEndian.Uint32(b[36:40])
	t.MaxEntries = binary.BigEndian.Uint32(b[40:44])
	t.ActiveCount = binary.BigEndian.Uint32(b[44:48])
	t.LookupCount = binary.BigEndian.Uint64(b[48:56])
	t.MatchedCount = binary.BigEndian.Uint64(b[56:64])
	return nil
}

func (p *PortStats) decodeRef(b []byte) error {
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

func paddedStringRef(b []byte) string {
	b = b[:len(b)-1]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

func (m *StatsReply) decodeRef(b []byte) error {
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
		m.Desc.MfrDesc = paddedStringRef(body[0:256])
		m.Desc.HWDesc = paddedStringRef(body[256:512])
		m.Desc.SWDesc = paddedStringRef(body[512:768])
		m.Desc.SerialNum = paddedStringRef(body[768:800])
		m.Desc.DPDesc = paddedStringRef(body[800:1056])
	case StatsFlow:
		m.Flows = nil
		for len(body) > 0 {
			var f FlowStats
			rest, err := f.decodeRef(body)
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
			if err := t.decodeRef(body); err != nil {
				return err
			}
			m.Tables = append(m.Tables, t)
			body = body[tableStatsLen:]
		}
	case StatsPort:
		m.Ports = nil
		for len(body) >= portStatsLen {
			var p PortStats
			if err := p.decodeRef(body); err != nil {
				return err
			}
			m.Ports = append(m.Ports, p)
			body = body[portStatsLen:]
		}
	}
	return nil
}

func (m *Match) decodeRef(b []byte) error {
	if len(b) < MatchLen {
		return ErrTruncated
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	m.DLType = packet.EtherType(binary.BigEndian.Uint16(b[22:24]))
	m.NWTOS = b[24]
	m.NWProto = b[25]
	copy(m.NWSrc[:], b[28:32])
	copy(m.NWDst[:], b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return nil
}

// checkReadMessage holds ReadMessage to readMessageRef on one frame.
func checkReadMessage(t *testing.T, frame []byte) {
	t.Helper()
	got, err := ReadMessage(bytes.NewReader(frame))
	want, wantErr := readMessageRef(bytes.NewReader(frame))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("% x: ReadMessage says %v, the reference %v", frame, err, wantErr)
	}
	if err != nil {
		for _, sentinel := range []error{ErrTruncated, ErrBadLength, ErrBadVersion, ErrUnknownType, io.EOF, io.ErrUnexpectedEOF} {
			if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
				t.Fatalf("% x: ReadMessage says %v, the reference %v", frame, err, wantErr)
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("% x: ReadMessage reads\n%+v\nthe reference\n%+v", frame, got, want)
	}
}

// mutateFrame returns a copy of frame cut short, with a few bytes changed,
// or both. A frame cut short says so in its header half the time, so that
// its body reaches the decoders; the bytes changed are as often a length
// field's high or low byte set to something small or large as random.
func mutateFrame(rng *rand.Rand, frame []byte) []byte {
	out := append([]byte(nil), frame...)
	if rng.Intn(3) == 0 && len(out) > 0 {
		out = out[:rng.Intn(len(out))]
		if len(out) >= HeaderLen && rng.Intn(2) == 0 {
			binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
		}
	}
	for n := rng.Intn(4); n > 0 && len(out) > HeaderLen; n-- {
		i := HeaderLen + rng.Intn(len(out)-HeaderLen)
		switch rng.Intn(4) {
		case 0:
			out[i] = byte(rng.Intn(256))
		case 1:
			out[i] ^= 1 << rng.Intn(8)
		default:
			out[i] = []byte{0, 1, 2, 3, 4, 7, 8, 12, 16, 0x54, 0x58, 0x60, 0x7f, 0x80, 0xff}[rng.Intn(15)]
		}
	}
	if rng.Intn(16) == 0 && len(out) >= HeaderLen {
		out[rng.Intn(HeaderLen)] = byte(rng.Intn(256))
	}
	return out
}

// TestReadMessageMatchesModel holds ReadMessage to the reference decoders on
// 2^18 frames (a sixty-fourth of them under the race detector) made from the
// FuzzReadMessage seeds by cutting them short and changing their bytes.
func TestReadMessageMatchesModel(t *testing.T) {
	seeds := fuzzSeedFrames(t)
	cases := 1 << 18
	if raceEnabled {
		cases >>= 6
	}
	rng := rand.New(rand.NewSource(49))
	accepted := 0
	for i := 0; i < cases; i++ {
		frame := mutateFrame(rng, seeds[rng.Intn(len(seeds))])
		checkReadMessage(t, frame)
		if _, err := readMessageRef(bytes.NewReader(frame)); err == nil {
			accepted++
		}
	}
	// Both ways must be well travelled for the agreement to mean much.
	if accepted < cases/10 || accepted > cases*9/10 {
		t.Errorf("%d of %d mutated frames read cleanly", accepted, cases)
	}
}

// TestFlowStatsStrayBytesAreTruncated: a flow stats reply that ends in one
// to three bytes after its last entry is ErrTruncated, as the reference
// has it: an entry's length field is read as part of its first 4 bytes,
// not checked before them.
func TestFlowStatsStrayBytesAreTruncated(t *testing.T) {
	raw := Encode(&StatsReply{StatsType: StatsFlow, Flows: []FlowStats{{Match: MatchAll(), Priority: 1}}})
	for stray := 1; stray <= 3; stray++ {
		frame := append(append([]byte(nil), raw...), make([]byte, stray)...)
		binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
		checkReadMessage(t, frame)
		if _, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, ErrTruncated) {
			t.Errorf("%d stray bytes: %v, want ErrTruncated", stray, err)
		}
	}
}
