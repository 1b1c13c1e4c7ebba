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
// A repeat is recorded, not copied: Repeat commits the last frame's span
// once more, so the repeated frames share their bytes and Repeats tells a
// reader which frames it has already seen. Every reader of a batch treats
// its frames as read-only.
//
// Frames returned by Frame alias the backing buffer: they are valid only
// until Reset, and a FrameBatch is not safe for concurrent use. Frame
// boundaries are stored as offsets, so frames committed before the buffer
// grows remain addressable afterwards.
type FrameBatch struct {
	buf    []byte
	starts []int
	ends   []int
	total  int
}

// Len returns the number of committed frames.
func (fb *FrameBatch) Len() int { return len(fb.ends) }

// TotalBytes returns the byte count summed over all committed frames,
// every repeat included.
func (fb *FrameBatch) TotalBytes() int { return fb.total }

// Frame returns the i-th committed frame, aliasing the backing buffer.
func (fb *FrameBatch) Frame(i int) []byte {
	return fb.buf[fb.starts[i]:fb.ends[i]:fb.ends[i]]
}

// Repeats reports whether frame i is frame i-1's span again, as Repeat
// commits it: the same bytes, which a reader has just read.
func (fb *FrameBatch) Repeats(i int) bool {
	return i > 0 && fb.starts[i] == fb.starts[i-1] && fb.ends[i] == fb.ends[i-1]
}

// Buf returns the committed region of the backing buffer as the append
// target for the next frame build.
func (fb *FrameBatch) Buf() []byte { return fb.buf }

// Commit records b — which must be the result of appending exactly one
// frame to Buf() — as the batch's new backing buffer, adding the appended
// bytes as one frame.
func (fb *FrameBatch) Commit(b []byte) {
	fb.starts = append(fb.starts, len(fb.buf))
	fb.ends = append(fb.ends, len(b))
	fb.total += len(b) - len(fb.buf)
	fb.buf = b
}

// Append copies an already-serialized frame into the batch.
func (fb *FrameBatch) Append(frame []byte) {
	fb.Commit(append(fb.buf, frame...))
}

// Repeat commits the last committed frame once more — the batch must hold
// one — without copying it: the new frame is the last one's span again.
func (fb *FrameBatch) Repeat() {
	i := len(fb.ends) - 1
	fb.starts = append(fb.starts, fb.starts[i])
	fb.ends = append(fb.ends, fb.ends[i])
	fb.total += fb.ends[i] - fb.starts[i]
}

// Reset forgets all frames, retaining the backing buffer for reuse.
func (fb *FrameBatch) Reset() {
	fb.buf = fb.buf[:0]
	fb.starts = fb.starts[:0]
	fb.ends = fb.ends[:0]
	fb.total = 0
}
