package openflow

import "sync"

// A new flow's messages are dead once the other end has handled them: the
// punt's packet-in, the flow-mod that answers it and the flow-removed its
// entry ends with. Their constructors take them from pools, and whoever
// handles one last hands it back with Release: the receiver of a message
// sent over an in-process transport, or a transport that serialised it.
// Nobody reads a message after Release, which zeroes it.
//
// A message of these types built any other way — a literal, new, or
// ReadMessage — is never pooled, and Release leaves it as it is: a sender
// may build one message and send it again and again.

// poolState says where a message of the three pooled types came from.
type poolState uint8

const (
	notPooled poolState = iota // a literal, new or ReadMessage: Release leaves it be
	pooledOut                  // from a constructor, in use
	pooledIn                   // released, in its pool
)

// maxPooledData is the largest data buffer a pooled packet-in keeps across
// uses: a full Ethernet frame, and so any punt under the default
// miss_send_len. A packet-in that held more gives its buffer to the
// collector.
const maxPooledData = 2 << 10

var (
	packetIns    = sync.Pool{New: func() any { return new(PacketIn) }}
	flowMods     = sync.Pool{New: func() any { return new(FlowMod) }}
	flowRemoveds = sync.Pool{New: func() any { return new(FlowRemoved) }}
)

// NewPacketIn returns a packet-in from the pool holding the fields of m and
// its own copy of m.Data.
func NewPacketIn(m PacketIn) *PacketIn {
	p := packetIns.Get().(*PacketIn)
	buf := p.buf
	*p = m
	p.Data = append(buf[:0], m.Data...)
	p.buf, p.pool = p.Data, pooledOut
	return p
}

// NewFlowMod returns a flow-mod from the pool holding the fields of m.
func NewFlowMod(m FlowMod) *FlowMod {
	p := flowMods.Get().(*FlowMod)
	*p = m
	p.pool = pooledOut
	return p
}

// NewFlowRemoved returns a flow-removed from the pool holding the fields
// of m.
func NewFlowRemoved(m FlowRemoved) *FlowRemoved {
	p := flowRemoveds.Get().(*FlowRemoved)
	*p = m
	p.pool = pooledOut
	return p
}

// Release hands a message its last owner has finished with back to its
// pool, zeroed: a packet-in's data bytes too, so a reader that kept them
// reads zeros. A flow-mod's action list is dropped, never pooled: it is the
// flow entry's now, and shared with every entry built from the same list.
// Release leaves a message no constructor made as it is, and panics on a
// message released twice.
func Release(msg Message) {
	switch m := msg.(type) {
	case *PacketIn:
		if m.pool.released() {
			buf := m.buf
			clear(buf[:cap(buf)])
			if cap(buf) > maxPooledData {
				buf = nil
			}
			*m = PacketIn{buf: buf[:0], pool: pooledIn}
			packetIns.Put(m)
		}
	case *FlowMod:
		if m.pool.released() {
			*m = FlowMod{pool: pooledIn}
			flowMods.Put(m)
		}
	case *FlowRemoved:
		if m.pool.released() {
			*m = FlowRemoved{pool: pooledIn}
			flowRemoveds.Put(m)
		}
	}
}

// released reports whether Release should pool the message that carries s.
func (s poolState) released() bool {
	if s == pooledIn {
		panic("openflow: a message was released twice")
	}
	return s == pooledOut
}
