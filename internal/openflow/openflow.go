// Package openflow implements the OpenFlow 1.0 wire protocol: the switching
// standard the Homework router uses between its Open vSwitch-style datapath
// and the NOX-style controller.
//
// The package provides byte-compatible encoding and decoding of the OpenFlow
// 1.0 message set (hello, echo, error, features, config, packet-in/out,
// flow-mod, flow-removed, port-status, stats, barrier and vendor messages),
// the ofp_match structure, and the four actions the router sends (output,
// enqueue and the two Ethernet address rewrites); any other action reads
// as an ActionUnsupported. Each structure's wire layout is written once, as
// its fields in wire order, and one layout both encodes and decodes it.
// Messages are framed over any io.Reader/io.Writer, normally a TCP
// connection — though the wire codec is optional: co-resident endpoints can
// exchange the decoded Message values directly through oftransport's
// in-process transport and skip serialization entirely.
//
// Concurrency: Encode and ReadMessage are safe to call from any goroutine
// on distinct messages and readers. Message values carry no
// synchronization — build one, hand it to a transport, and do not
// read or mutate it afterwards (the in-process transport passes the same
// pointer to the receiver). A new flow's messages — packet-in, flow-mod,
// flow-removed — come from pools (NewPacketIn, NewFlowMod,
// NewFlowRemoved), and their last owner hands them back with Release.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// Version is the OpenFlow protocol version implemented by this package.
const Version uint8 = 0x01

// HeaderLen is the length of the common ofp_header.
const HeaderLen = 8

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

// msgTypes is every message type this package reads and writes, with its
// name in the specification and a constructor for a message of it. PORT_MOD
// has a name but no message: it reads as ErrUnknownType.
var msgTypes = [...]struct {
	name string
	new  func() Message
}{
	TypeHello:            {"HELLO", func() Message { return new(Hello) }},
	TypeError:            {"ERROR", func() Message { return new(ErrorMsg) }},
	TypeEchoRequest:      {"ECHO_REQUEST", func() Message { return new(EchoRequest) }},
	TypeEchoReply:        {"ECHO_REPLY", func() Message { return new(EchoReply) }},
	TypeVendor:           {"VENDOR", func() Message { return new(Vendor) }},
	TypeFeaturesRequest:  {"FEATURES_REQUEST", func() Message { return new(FeaturesRequest) }},
	TypeFeaturesReply:    {"FEATURES_REPLY", func() Message { return new(FeaturesReply) }},
	TypeGetConfigRequest: {"GET_CONFIG_REQUEST", func() Message { return new(GetConfigRequest) }},
	TypeGetConfigReply:   {"GET_CONFIG_REPLY", func() Message { return new(GetConfigReply) }},
	TypeSetConfig:        {"SET_CONFIG", func() Message { return new(SetConfig) }},
	TypePacketIn:         {"PACKET_IN", func() Message { return new(PacketIn) }},
	TypeFlowRemoved:      {"FLOW_REMOVED", func() Message { return new(FlowRemoved) }},
	TypePortStatus:       {"PORT_STATUS", func() Message { return new(PortStatus) }},
	TypePacketOut:        {"PACKET_OUT", func() Message { return new(PacketOut) }},
	TypeFlowMod:          {"FLOW_MOD", func() Message { return new(FlowMod) }},
	TypePortMod:          {"PORT_MOD", nil},
	TypeStatsRequest:     {"STATS_REQUEST", func() Message { return new(StatsRequest) }},
	TypeStatsReply:       {"STATS_REPLY", func() Message { return new(StatsReply) }},
	TypeBarrierRequest:   {"BARRIER_REQUEST", func() Message { return new(BarrierRequest) }},
	TypeBarrierReply:     {"BARRIER_REPLY", func() Message { return new(BarrierReply) }},
}

// typeOf is msgTypes read backwards: each message's Go type to its MsgType.
var typeOf = func() map[reflect.Type]MsgType {
	m := make(map[reflect.Type]MsgType)
	for t, e := range msgTypes {
		if e.new != nil {
			m[reflect.TypeOf(e.new())] = MsgType(t)
		}
	}
	return m
}()

// String names the message type as in the OpenFlow specification.
func (t MsgType) String() string {
	if int(t) < len(msgTypes) && msgTypes[t].name != "" {
		return msgTypes[t].name
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

// layout runs the header's fields.
func (h *Header) layout(w *wire) {
	w.u8(&h.Version)
	w.u8((*uint8)(&h.Type))
	w.u16(&h.Length)
	w.u32(&h.XID)
}

// Message is any OpenFlow message. Hdr returns the embedded header (the
// Length field is recomputed on encode); layout runs the body's fields
// after the header, and returns w for the caller to read its bytes or its
// error.
type Message interface {
	Hdr() *Header
	layout(w wire) wire
}

// base provides the Header plumbing shared by all message types, and the
// layout of a message with no body.
type base struct{ Header Header }

// Hdr returns the message header.
func (m *base) Hdr() *Header { return &m.Header }

func (m *base) layout(w wire) wire { return w }

// Encode serializes msg with a correct header, assigning its type and
// length.
func Encode(msg Message) []byte {
	h := msg.Hdr()
	h.Version = Version
	h.Type = typeOf[reflect.TypeOf(msg)]
	w := wire{b: make([]byte, 0, 64)}
	h.layout(&w)
	w = msg.layout(w)
	h.Length = uint16(len(w.b))
	binary.BigEndian.PutUint16(w.b[2:4], h.Length)
	return w.b
}

// WriteMessage encodes and writes one message to w.
func WriteMessage(w io.Writer, msg Message) error {
	_, err := w.Write(Encode(msg))
	return err
}

// ReadMessage reads exactly one message from r. The 16-bit length field
// bounds what a peer can make it allocate.
func ReadMessage(r io.Reader) (Message, error) {
	var hb [HeaderLen]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, err
	}
	var h Header
	h.layout(&wire{b: hb[:], dec: true})
	if h.Version != Version {
		return nil, ErrBadVersion
	}
	if h.Length < HeaderLen {
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
	if int(h.Type) >= len(msgTypes) || msgTypes[h.Type].new == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, h.Type)
	}
	msg := msgTypes[h.Type].new()
	*msg.Hdr() = h
	if w := msg.layout(wire{b: body, dec: true}); w.err != nil {
		return nil, fmt.Errorf("openflow: decoding %s: %w", h.Type, w.err)
	}
	return msg, nil
}

// Hello opens version negotiation.
type Hello struct{ base }

// EchoRequest is a liveness probe; Data is echoed back.
type EchoRequest struct {
	base
	Data []byte
}

func (m *EchoRequest) layout(w wire) wire {
	w.rest(&m.Data)
	return w
}

// EchoReply answers an EchoRequest with the same data.
type EchoReply struct {
	base
	Data []byte
}

func (m *EchoReply) layout(w wire) wire {
	w.rest(&m.Data)
	return w
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

func (m *ErrorMsg) layout(w wire) wire {
	w.u16(&m.ErrType)
	w.u16(&m.Code)
	w.rest(&m.Data)
	return w
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

func (m *Vendor) layout(w wire) wire {
	w.u32(&m.VendorID)
	w.rest(&m.Data)
	return w
}

// GetConfigRequest asks for the switch config.
type GetConfigRequest struct{ base }

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

func (m *GetConfigReply) layout(w wire) wire {
	w.u16(&m.Flags)
	w.u16(&m.MissSendLen)
	return w
}

// SetConfig sets the switch configuration.
type SetConfig struct {
	base
	Flags       uint16
	MissSendLen uint16
}

func (m *SetConfig) layout(w wire) wire {
	w.u16(&m.Flags)
	w.u16(&m.MissSendLen)
	return w
}

// BarrierRequest asks the switch to finish processing prior messages.
type BarrierRequest struct{ base }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ base }
