// Package openflow implements the OpenFlow 1.0 wire protocol: the switching
// standard the Homework router uses between its Open vSwitch-style datapath
// and the NOX-style controller.
//
// The package provides byte-compatible encoding and decoding of the OpenFlow
// 1.0 message set (hello, echo, error, features, config, packet-in/out,
// flow-mod, flow-removed, port-status, stats, barrier and vendor messages)
// plus the ofp_match structure and the full basic action set. Messages are
// framed over any io.Reader/io.Writer, normally a TCP connection — though
// the wire codec is optional: co-resident endpoints can exchange the
// decoded Message values directly through oftransport's in-process
// transport and skip serialization entirely.
//
// Concurrency: Encode and Decode are pure functions of their inputs and
// safe to call from any goroutine. Message values carry no
// synchronization — build one, hand it to a transport, and do not
// mutate it afterwards (the in-process transport passes the same
// pointer to the receiver).
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the OpenFlow protocol version implemented by this package.
const Version uint8 = 0x01

// HeaderLen is the length of the common ofp_header.
const HeaderLen = 8

// MaxMessageLen bounds accepted message sizes to keep a malformed peer from
// forcing huge allocations.
const MaxMessageLen = 1 << 16

// MsgType is the ofp_type message discriminator.
type MsgType uint8

// OpenFlow 1.0 message types.
const (
	TypeHello MsgType = iota
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeVendor
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeGetConfigRequest
	TypeGetConfigReply
	TypeSetConfig
	TypePacketIn
	TypeFlowRemoved
	TypePortStatus
	TypePacketOut
	TypeFlowMod
	TypePortMod
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
	TypeQueueGetConfigRequest
	TypeQueueGetConfigReply
)

var msgTypeNames = map[MsgType]string{
	TypeHello: "HELLO", TypeError: "ERROR",
	TypeEchoRequest: "ECHO_REQUEST", TypeEchoReply: "ECHO_REPLY",
	TypeVendor:          "VENDOR",
	TypeFeaturesRequest: "FEATURES_REQUEST", TypeFeaturesReply: "FEATURES_REPLY",
	TypeGetConfigRequest: "GET_CONFIG_REQUEST", TypeGetConfigReply: "GET_CONFIG_REPLY",
	TypeSetConfig: "SET_CONFIG",
	TypePacketIn:  "PACKET_IN", TypeFlowRemoved: "FLOW_REMOVED",
	TypePortStatus: "PORT_STATUS", TypePacketOut: "PACKET_OUT",
	TypeFlowMod: "FLOW_MOD", TypePortMod: "PORT_MOD",
	TypeStatsRequest: "STATS_REQUEST", TypeStatsReply: "STATS_REPLY",
	TypeBarrierRequest: "BARRIER_REQUEST", TypeBarrierReply: "BARRIER_REPLY",
}

// String names the message type as in the OpenFlow specification.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("OFPT(%d)", uint8(t))
}

// Errors returned by the codec.
var (
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrBadVersion  = errors.New("openflow: unsupported version")
	ErrBadLength   = errors.New("openflow: bad length field")
	ErrUnknownType = errors.New("openflow: unknown message type")
)

// Header is the common ofp_header carried by every message.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16
	XID     uint32
}

func (h *Header) decode(b []byte) error {
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

// Message is any OpenFlow message. Hdr returns the embedded header (the
// Length field is recomputed on encode); body encoding excludes the header.
type Message interface {
	Hdr() *Header
	encodeBody(b []byte) []byte
	decodeBody(b []byte) error
}

// base provides the Header plumbing shared by all message types.
type base struct{ Header Header }

// Hdr returns the message header.
func (m *base) Hdr() *Header { return &m.Header }

// Encode serializes msg with a correct header, assigning typ.
func Encode(msg Message) []byte {
	h := msg.Hdr()
	h.Version = Version
	h.Type = typeOf(msg)
	body := msg.encodeBody(make([]byte, 0, 64))
	h.Length = uint16(HeaderLen + len(body))
	out := make([]byte, 0, h.Length)
	out = append(out, h.Version, byte(h.Type))
	out = binary.BigEndian.AppendUint16(out, h.Length)
	out = binary.BigEndian.AppendUint32(out, h.XID)
	return append(out, body...)
}

// WriteMessage encodes and writes one message to w.
func WriteMessage(w io.Writer, msg Message) error {
	_, err := w.Write(Encode(msg))
	return err
}

// ReadMessage reads exactly one message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hb [HeaderLen]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, err
	}
	var h Header
	if err := h.decode(hb[:]); err != nil {
		return nil, err
	}
	if int(h.Length) > MaxMessageLen {
		return nil, ErrBadLength
	}
	body := make([]byte, int(h.Length)-HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeMessage(h, body)
}

// decodeMessage builds a typed message from a header and body.
func decodeMessage(h Header, body []byte) (Message, error) {
	msg := newMessage(h.Type)
	if msg == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, h.Type)
	}
	*msg.Hdr() = h
	if err := msg.decodeBody(body); err != nil {
		return nil, fmt.Errorf("openflow: decoding %s: %w", h.Type, err)
	}
	return msg, nil
}

func newMessage(t MsgType) Message {
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

func typeOf(msg Message) MsgType {
	switch msg.(type) {
	case *Hello:
		return TypeHello
	case *ErrorMsg:
		return TypeError
	case *EchoRequest:
		return TypeEchoRequest
	case *EchoReply:
		return TypeEchoReply
	case *Vendor:
		return TypeVendor
	case *FeaturesRequest:
		return TypeFeaturesRequest
	case *FeaturesReply:
		return TypeFeaturesReply
	case *GetConfigRequest:
		return TypeGetConfigRequest
	case *GetConfigReply:
		return TypeGetConfigReply
	case *SetConfig:
		return TypeSetConfig
	case *PacketIn:
		return TypePacketIn
	case *FlowRemoved:
		return TypeFlowRemoved
	case *PortStatus:
		return TypePortStatus
	case *PacketOut:
		return TypePacketOut
	case *FlowMod:
		return TypeFlowMod
	case *StatsRequest:
		return TypeStatsRequest
	case *StatsReply:
		return TypeStatsReply
	case *BarrierRequest:
		return TypeBarrierRequest
	case *BarrierReply:
		return TypeBarrierReply
	}
	panic(fmt.Sprintf("openflow: unregistered message %T", msg))
}

// Hello opens version negotiation.
type Hello struct{ base }

func (m *Hello) encodeBody(b []byte) []byte { return b }
func (m *Hello) decodeBody([]byte) error    { return nil }

// EchoRequest is a liveness probe; Data is echoed back.
type EchoRequest struct {
	base
	Data []byte
}

func (m *EchoRequest) encodeBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoRequest) decodeBody(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

// EchoReply answers an EchoRequest with the same data.
type EchoReply struct {
	base
	Data []byte
}

func (m *EchoReply) encodeBody(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoReply) decodeBody(b []byte) error {
	m.Data = append([]byte(nil), b...)
	return nil
}

// Error type codes (ofp_error_type).
const (
	ErrTypeHelloFailed uint16 = iota
	ErrTypeBadRequest
	ErrTypeBadAction
	ErrTypeFlowModFailed
	ErrTypePortModFailed
	ErrTypeQueueOpFailed
)

// Selected error codes.
const (
	BadRequestBadType    uint16 = 1
	BadRequestBadStat    uint16 = 2
	BadActionBadType     uint16 = 0
	FlowModAllTablesFull uint16 = 0
	FlowModOverlap       uint16 = 1
	FlowModBadCommand    uint16 = 3
)

// ErrorMsg reports a protocol error; Data carries at least 64 bytes of the
// offending message.
type ErrorMsg struct {
	base
	ErrType uint16
	Code    uint16
	Data    []byte
}

func (m *ErrorMsg) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.ErrType)
	b = binary.BigEndian.AppendUint16(b, m.Code)
	return append(b, m.Data...)
}

func (m *ErrorMsg) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.ErrType = binary.BigEndian.Uint16(b[0:2])
	m.Code = binary.BigEndian.Uint16(b[2:4])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

// Error implements the error interface so controller code can return it.
func (m *ErrorMsg) Error() string {
	return fmt.Sprintf("openflow error type=%d code=%d", m.ErrType, m.Code)
}

// Vendor is the extension escape hatch (unused by the Homework modules but
// decoded so foreign controllers don't wedge the connection).
type Vendor struct {
	base
	VendorID uint32
	Data     []byte
}

func (m *Vendor) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.VendorID)
	return append(b, m.Data...)
}

func (m *Vendor) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.VendorID = binary.BigEndian.Uint32(b[0:4])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

// GetConfigRequest asks for the switch config.
type GetConfigRequest struct{ base }

func (m *GetConfigRequest) encodeBody(b []byte) []byte { return b }
func (m *GetConfigRequest) decodeBody([]byte) error    { return nil }

// Config flags.
const (
	ConfigFragNormal uint16 = 0
	ConfigFragDrop   uint16 = 1
	ConfigFragReasm  uint16 = 2
)

// GetConfigReply carries the switch configuration.
type GetConfigReply struct {
	base
	Flags       uint16
	MissSendLen uint16
}

func (m *GetConfigReply) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return binary.BigEndian.AppendUint16(b, m.MissSendLen)
}

func (m *GetConfigReply) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.Flags = binary.BigEndian.Uint16(b[0:2])
	m.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

// SetConfig sets the switch configuration.
type SetConfig struct {
	base
	Flags       uint16
	MissSendLen uint16
}

func (m *SetConfig) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	return binary.BigEndian.AppendUint16(b, m.MissSendLen)
}

func (m *SetConfig) decodeBody(b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	m.Flags = binary.BigEndian.Uint16(b[0:2])
	m.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

// BarrierRequest asks the switch to finish processing prior messages.
type BarrierRequest struct{ base }

func (m *BarrierRequest) encodeBody(b []byte) []byte { return b }
func (m *BarrierRequest) decodeBody([]byte) error    { return nil }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ base }

func (m *BarrierReply) encodeBody(b []byte) []byte { return b }
func (m *BarrierReply) decodeBody([]byte) error    { return nil }
