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
// The batch is a list of spans: one frame's bytes and how many times the
// frame goes in a row. Commit opens a span of one; Repeat counts the last
// frame once more instead of copying it, so a reader handles a span's
// bytes once and knows every further copy is the same frame. Every reader
// of a batch treats its frames as read-only.
//
// Frames returned by Span alias the backing buffer: they are valid only
// until Reset, and a FrameBatch is not safe for concurrent use. A span
// stores where its frame ends, as an offset — it starts where the span
// before it ends — so frames committed before the buffer grows remain
// addressable afterwards.
type FrameBatch struct {
	buf    []byte
	spans  []span
	frames int
	total  int
}

// span is one committed frame, ending at buf[end], and the n times it goes.
type span struct{ end, n int }

// Len returns the number of committed frames, every repeat included.
func (fb *FrameBatch) Len() int { return fb.frames }

// TotalBytes returns the byte count summed over all committed frames,
// every repeat included.
func (fb *FrameBatch) TotalBytes() int { return fb.total }

// Spans returns the number of spans: the frames committed, not counting
// repeats.
func (fb *FrameBatch) Spans() int { return len(fb.spans) }

// Span returns the i-th span's frame, aliasing the backing buffer, and the
// n ≥ 1 times it goes in a row.
func (fb *FrameBatch) Span(i int) (frame []byte, n int) {
	start := 0
	if i > 0 {
		start = fb.spans[i-1].end
	}
	s := fb.spans[i]
	return fb.buf[start:s.end:s.end], s.n
}

// Buf returns the committed region of the backing buffer as the append
// target for the next frame build.
func (fb *FrameBatch) Buf() []byte { return fb.buf }

// Commit records b — which must be the result of appending exactly one
// frame to Buf() — as the batch's new backing buffer, adding the appended
// bytes as one frame.
func (fb *FrameBatch) Commit(b []byte) {
	fb.spans = append(fb.spans, span{len(b), 1})
	fb.frames++
	fb.total += len(b) - len(fb.buf)
	fb.buf = b
}

// Append copies an already-serialized frame into the batch.
func (fb *FrameBatch) Append(frame []byte) {
	fb.Commit(append(fb.buf, frame...))
}

// AppendBatch copies every frame of src into the batch, in src's spans.
func (fb *FrameBatch) AppendBatch(src *FrameBatch) {
	base := len(fb.buf)
	fb.buf = append(fb.buf, src.buf...)
	for _, s := range src.spans {
		fb.spans = append(fb.spans, span{base + s.end, s.n})
	}
	fb.frames += src.frames
	fb.total += src.total
}

// Repeat commits the last committed frame once more — the batch must hold
// one — without copying it: the last span goes one more time.
func (fb *FrameBatch) Repeat() {
	frame, _ := fb.Span(len(fb.spans) - 1)
	fb.spans[len(fb.spans)-1].n++
	fb.frames++
	fb.total += len(frame)
}

// Keep drops from the batch, in place, every frame keep reports false for.
// keep sees each frame in order, every copy of a repeated frame included,
// for the call only. Nothing is allocated.
func (fb *FrameBatch) Keep(keep func(frame []byte) bool) {
	start, w, spans := 0, 0, fb.spans[:0]
	fb.frames, fb.total = 0, 0
	for _, s := range fb.spans {
		frame := fb.buf[start:s.end:s.end]
		start = s.end
		k := 0
		for n := s.n; n > 0; n-- {
			if keep(frame) {
				k++
			}
		}
		if k > 0 { // w is at most the frame's start: the move overwrites what was read
			w += copy(fb.buf[w:], frame)
			spans = append(spans, span{w, k})
			fb.frames += k
			fb.total += k * len(frame)
		}
	}
	fb.buf, fb.spans = fb.buf[:w], spans
}

// Reset forgets all frames, retaining the backing buffer for reuse.
func (fb *FrameBatch) Reset() {
	fb.buf = fb.buf[:0]
	fb.spans = fb.spans[:0]
	fb.frames = 0
	fb.total = 0
}
