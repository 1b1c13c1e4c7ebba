package packet

import "encoding/binary"

// EthernetHeaderLen is the length of an untagged Ethernet header.
const EthernetHeaderLen = 14

// Ethernet is an Ethernet II frame header plus payload. VLAN-tagged frames
// are decoded transparently: the tag is exposed via VLANID/VLANPriority and
// Tagged.
type Ethernet struct {
	Dst          MAC
	Src          MAC
	Type         EtherType
	Tagged       bool
	VLANID       uint16
	VLANPriority uint8
	Payload      []byte
}

// DecodeFromBytes parses an Ethernet frame. The Payload field aliases data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.Tagged = false
	e.VLANID = 0
	e.VLANPriority = 0
	rest := data[14:]
	if e.Type == EtherTypeVLAN {
		if len(rest) < 4 {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(rest[0:2])
		e.Tagged = true
		e.VLANPriority = uint8(tci >> 13)
		e.VLANID = tci & 0x0fff
		e.Type = EtherType(binary.BigEndian.Uint16(rest[2:4]))
		rest = rest[4:]
	}
	e.Payload = rest
	return nil
}

// Bytes returns the encoded frame, header (with its VLAN tag, if any) and
// payload, as a fresh slice.
func (e *Ethernet) Bytes() []byte {
	b := make([]byte, 0, EthernetHeaderLen+4+len(e.Payload))
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	if e.Tagged {
		b = binary.BigEndian.AppendUint16(b, uint16(EtherTypeVLAN))
		tci := uint16(e.VLANPriority)<<13 | e.VLANID&0x0fff
		b = binary.BigEndian.AppendUint16(b, tci)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(e.Type))
	return append(b, e.Payload...)
}
