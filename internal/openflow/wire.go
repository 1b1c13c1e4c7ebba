package openflow

import (
	"bytes"
	"encoding/binary"
)

// wire runs a structure's layout — its fields in wire order — one of two
// ways. Encoding, each field appends its value to b. Decoding, each field
// reads its value from b at off; the first read past the end of b sets
// err to ErrTruncated, and a failed decode cuts b at off so that every
// later field leaves its value alone, so a layout needs no length checks
// of its own. Trailing bytes a layout does not read are not an error.
type wire struct {
	b   []byte
	off int
	dec bool
	err error
}

// left is the number of bytes a decode has yet to read.
func (w *wire) left() int { return len(w.b) - w.off }

// take consumes the next n bytes of a decode, or fails.
func (w *wire) take(n int) []byte {
	if len(w.b)-w.off < n {
		w.fail(ErrTruncated)
		return nil
	}
	w.off += n
	return w.b[w.off-n : w.off]
}

// fail ends a decode with its first error.
func (w *wire) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.b = w.b[:w.off]
}

func (w *wire) u8(v *uint8) {
	if !w.dec {
		w.b = append(w.b, *v)
	} else if p := w.take(1); p != nil {
		*v = p[0]
	}
}

func (w *wire) u16(v *uint16) {
	if !w.dec {
		w.b = binary.BigEndian.AppendUint16(w.b, *v)
	} else if p := w.take(2); p != nil {
		*v = binary.BigEndian.Uint16(p)
	}
}

func (w *wire) u32(v *uint32) {
	if !w.dec {
		w.b = binary.BigEndian.AppendUint32(w.b, *v)
	} else if p := w.take(4); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

func (w *wire) u64(v *uint64) {
	if !w.dec {
		w.b = binary.BigEndian.AppendUint64(w.b, *v)
	} else if p := w.take(8); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

// bytes runs a fixed-size field: an address.
func (w *wire) bytes(v []byte) {
	if !w.dec {
		w.b = append(w.b, v...)
	} else if p := w.take(len(v)); p != nil {
		copy(v, p)
	}
}

// pad runs n bytes of padding: zeros written, anything read.
func (w *wire) pad(n int) {
	if !w.dec {
		w.b = append(w.b, make([]byte, n)...)
	} else {
		w.take(n)
	}
}

// str runs an n-byte NUL-padded string field. A longer string is cut to
// n-1 bytes so that the field always ends in a NUL, and a read stops at
// the first NUL and never takes the last byte, so what decodes encodes to
// the same string.
func (w *wire) str(s *string, n int) {
	if !w.dec {
		v := *s
		if len(v) >= n {
			v = v[:n-1]
		}
		w.b = append(w.b, v...)
		w.pad(n - len(v))
	} else if p := w.take(n); p != nil {
		p = p[:n-1]
		if i := bytes.IndexByte(p, 0); i >= 0 {
			p = p[:i]
		}
		*s = string(p)
	}
}

// rest runs a field that takes the rest of the structure: a copy of every
// byte left, or nil if none is.
func (w *wire) rest(v *[]byte) {
	if !w.dec {
		w.b = append(w.b, *v...)
	} else if p := w.take(w.left()); p != nil {
		*v = append([]byte(nil), p...)
	}
}

// need fails a decode with err unless ok: a length field out of bounds.
func (w *wire) need(ok bool, err error) {
	if w.dec && w.err == nil && !ok {
		w.fail(err)
	}
}

// sub narrows a decode to the next n bytes, the part of a structure a
// length field bounds, and returns where the structure ends, for end to
// restore; a part longer than what is left fails with err. Encoding, it
// does nothing.
func (w *wire) sub(n int, err error) (rest int) {
	w.need(n >= 0 && n <= w.left(), err)
	rest = len(w.b)
	if w.dec && w.err == nil {
		w.b = w.b[:w.off+n]
	}
	return rest
}

// end resumes a decode after a part sub began, skipping whatever of the
// part its layout did not read.
func (w *wire) end(rest int) {
	if w.dec && w.err == nil {
		w.off, w.b = len(w.b), w.b[:rest]
	}
}

// putLen fills in, when encoding, the u16 length field at offset at with
// the number of bytes written since offset from.
func (w *wire) putLen(at, from int) {
	if !w.dec {
		binary.BigEndian.PutUint16(w.b[at:], uint16(len(w.b)-from))
	}
}

// more reports whether a list has an entry i for a layout to run: encoding,
// whether the list holds one; decoding, whether at least size bytes are
// left, in which case it appends a zero entry for the layout to fill.
func more[T any](w *wire, list *[]T, i, size int) bool {
	if !w.dec {
		return i < len(*list)
	}
	if w.left() < size {
		return false
	}
	var zero T
	*list = append(*list, zero)
	return true
}
