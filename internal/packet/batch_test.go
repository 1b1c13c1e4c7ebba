package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// keepRebuild is Keep's reference: a new batch built from the frames kept,
// a span's kept copies appended once and repeated.
func keepRebuild(fb *FrameBatch, keep []bool) *FrameBatch {
	var out FrameBatch
	k := 0
	for i := 0; i < fb.Spans(); i++ {
		frame, n := fb.Span(i)
		first := true
		for ; n > 0; n-- {
			if keep[k] {
				if first {
					out.Append(frame)
					first = false
				} else {
					out.Repeat()
				}
			}
			k++
		}
	}
	return &out
}

// Keep drops frames in place exactly as rebuilding the batch from the kept
// frames would: over random spans, repeats and keep decisions, the same
// spans with the same bytes and counts, the same Len and TotalBytes, keep
// called once per frame in order, and a batch that goes on taking frames.
func TestFrameBatchKeepMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		var fb FrameBatch
		var frames [][]byte // every frame in order, each copy included
		for s := rng.Intn(12); s > 0; s-- {
			frame := make([]byte, 1+rng.Intn(300))
			rng.Read(frame)
			fb.Append(frame)
			frames = append(frames, frame)
			for r := rng.Intn(4); r > 0; r-- {
				fb.Repeat()
				frames = append(frames, frame)
			}
		}
		keep := make([]bool, len(frames))
		p := rng.Float64()
		for i := range keep {
			keep[i] = rng.Float64() < p
		}
		want := keepRebuild(&fb, keep)

		i := 0
		fb.Keep(func(frame []byte) bool {
			if i >= len(frames) || !bytes.Equal(frame, frames[i]) {
				t.Fatalf("round %d: keep was handed frame %d wrong", round, i)
			}
			i++
			return keep[i-1]
		})
		if i != len(frames) {
			t.Fatalf("round %d: keep was called %d times for %d frames", round, i, len(frames))
		}
		sameBatch(t, round, &fb, want)
		extra := []byte{byte(round), 1, 2, 3}
		fb.Append(extra)
		want.Append(extra)
		fb.Repeat()
		want.Repeat()
		sameBatch(t, round, &fb, want)
	}
}

func sameBatch(t *testing.T, round int, got, want *FrameBatch) {
	t.Helper()
	if got.Len() != want.Len() || got.TotalBytes() != want.TotalBytes() || got.Spans() != want.Spans() {
		t.Fatalf("round %d: Len %d TotalBytes %d Spans %d, want %d %d %d", round,
			got.Len(), got.TotalBytes(), got.Spans(), want.Len(), want.TotalBytes(), want.Spans())
	}
	for i := 0; i < want.Spans(); i++ {
		gf, gn := got.Span(i)
		wf, wn := want.Span(i)
		if gn != wn || !bytes.Equal(gf, wf) {
			t.Fatalf("round %d: span %d is %d bytes %d times, want %d bytes %d times", round, i, len(gf), gn, len(wf), wn)
		}
	}
	if !bytes.Equal(got.Buf(), want.Buf()) {
		t.Fatalf("round %d: the backing buffers differ", round)
	}
}

// Keep allocates nothing: it moves the kept frames down the buffer it has.
func TestFrameBatchKeepAllocatesNothing(t *testing.T) {
	var fb FrameBatch
	payload := make([]byte, 256)
	n := 0
	fill := func() {
		fb.Reset()
		for i := 0; i < 16; i++ {
			fb.Commit(AppendUDPFrame(fb.Buf(), testSrcMAC, testDstMAC, testSrcIP, testDstIP, uint16(1000+i), 53, payload))
			fb.Repeat()
		}
		fb.Keep(func([]byte) bool { n++; return n%3 != 0 })
	}
	fill() // warm the backing buffer
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("Keep allocs/op = %g, want 0", allocs)
	}
}
