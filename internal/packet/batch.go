package packet

// FrameBatch accumulates serialized frames in one contiguous buffer that
// is reused across ticks, so a tick's worth of traffic is built with zero
// steady-state allocations and handed to the datapath in a single call.
//
// The intended build sequence is
//
//	fb.Commit(AppendUDPFrame(fb.Buf(), ...))
//
// Buf returns the committed region of the backing buffer; the builder
// appends one frame to it and Commit records the new boundary. Bytes
// appended to Buf() but never committed are simply overwritten by the
// next build (useful when routing decides a built frame cannot be sent
// yet).
//
// Frames returned by Frame alias the backing buffer: they are valid only
// until Reset, and a FrameBatch is not safe for concurrent use. Frame
// boundaries are stored as offsets, so frames committed before the buffer
// grows remain addressable afterwards.
type FrameBatch struct {
	buf  []byte
	ends []int
}

// Len returns the number of committed frames.
func (fb *FrameBatch) Len() int { return len(fb.ends) }

// TotalBytes returns the byte count summed over all committed frames.
func (fb *FrameBatch) TotalBytes() int { return len(fb.buf) }

// Frame returns the i-th committed frame, aliasing the backing buffer.
func (fb *FrameBatch) Frame(i int) []byte {
	start := 0
	if i > 0 {
		start = fb.ends[i-1]
	}
	return fb.buf[start:fb.ends[i]:fb.ends[i]]
}

// Buf returns the committed region of the backing buffer as the append
// target for the next frame build.
func (fb *FrameBatch) Buf() []byte { return fb.buf }

// Commit records b — which must be the result of appending exactly one
// frame to Buf() — as the batch's new backing buffer, adding the appended
// bytes as one frame.
func (fb *FrameBatch) Commit(b []byte) {
	fb.buf = b
	fb.ends = append(fb.ends, len(b))
}

// Append copies an already-serialized frame into the batch.
func (fb *FrameBatch) Append(frame []byte) {
	fb.Commit(append(fb.buf, frame...))
}

// Repeat commits one more copy of the last committed frame — the batch must
// hold one. The copy is taken from the batch's own bytes: should the append
// regrow the backing buffer, Go copies the source out of the old array,
// which the source slice keeps alive, so the copy is right either way.
func (fb *FrameBatch) Repeat() {
	fb.Append(fb.Frame(len(fb.ends) - 1))
}

// Reset forgets all frames, retaining the backing buffer for reuse.
func (fb *FrameBatch) Reset() {
	fb.buf = fb.buf[:0]
	fb.ends = fb.ends[:0]
}
