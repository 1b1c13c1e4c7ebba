package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/packet"
)

// onesSum is the Internet checksum's sum, two bytes at a time: what a
// receiver computes over a segment and its pseudo-header to verify it. It
// shares nothing with packet.Checksum.
func onesSum(sum uint64, data []byte) uint64 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	return sum
}

// verifies reports whether a frame's transport checksum is right: segment
// and pseudo-header, summed with the checksum in place, fold to 0xffff.
func verifies(frame []byte) bool {
	var d packet.Decoded
	if err := d.Decode(frame); err != nil || !d.HasIP {
		return false
	}
	seg := d.IP.Payload
	sum := onesSum(uint64(d.IP.Protocol)+uint64(len(seg)), d.IP.Src[:])
	sum = onesSum(onesSum(sum, d.IP.Dst[:]), seg)
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return sum == 0xffff
}

// Every reply respondData emits — the first of a response, which is built,
// the full-size ones after it, which are copies, and the short last one,
// built again — must be the frame the summing builders make of the same
// fields, one at a time, and must verify at its receiver. The batch starts empty or with a
// frame in it, and small either way, so its buffer regrows under the copies.
func TestRespondDataFramesMatchIndependentBuild(t *testing.T) {
	const port = 7777
	router := packet.MAC{2, 0xee, 0, 0, 0, 2} // whoever forwarded the request: replies go back to it
	src, dst := packet.IP4{192, 168, 1, 9}, packet.IP4{203, 0, 113, 10}
	for _, proto := range []packet.IPProto{packet.ProtoTCP, packet.ProtoUDP} {
		for _, ratio := range []float64{1, 2, 20, 40} {
			for _, reqLen := range []int{1, 1399, 1400, 1401, 3000} {
				for _, preloaded := range []bool{false, true} {
					name := fmt.Sprintf("%v/ratio=%g/req=%d/preloaded=%v", proto, ratio, reqLen, preloaded)
					u := NewUpstream()
					u.ratio[port] = ratio
					reqPayload := make([]byte, reqLen)
					for i := range reqPayload {
						reqPayload[i] = byte(i*7 + 1)
					}
					var req []byte
					if proto == packet.ProtoTCP {
						req = packet.AppendTCPFrame(nil, router, u.MAC, src, dst, 40001, port,
							packet.TCPAck|packet.TCPPsh, 1000, 77, reqPayload)
					} else {
						req = packet.AppendUDPFrame(nil, router, u.MAC, src, dst, 40001, port, reqPayload)
					}
					var d packet.Decoded
					if err := d.Decode(req); err != nil {
						t.Fatal(err)
					}

					var fb packet.FrameBatch
					first := 0
					if preloaded {
						fb.Append(req)
						first = 1
					}
					u.respondData(&d, &fb, reqLen, port, proto)

					total := int(float64(reqLen) * ratio)
					var want [][]byte
					for total > 0 && len(want) < 32 {
						sz := min(total, 1400)
						total -= sz
						filler := make([]byte, sz)
						if proto == packet.ProtoTCP {
							want = append(want, packet.AppendTCPFrame(nil, u.MAC, router, dst, src, port, 40001,
								packet.TCPAck|packet.TCPPsh, 77, 1000+uint32(reqLen), filler))
						} else {
							want = append(want, packet.AppendUDPFrame(nil, u.MAC, router, dst, src, port, 40001, filler))
						}
					}
					if fb.Len()-first != len(want) {
						t.Fatalf("%s: %d reply frames, want %d", name, fb.Len()-first, len(want))
					}
					frames := batchFrames(&fb)
					if preloaded && !bytes.Equal(frames[0], req) {
						t.Fatalf("%s: the frame already in the batch was overwritten", name)
					}
					for i, w := range want {
						got := frames[first+i]
						if !bytes.Equal(got, w) {
							t.Fatalf("%s: reply %d of %d (%d bytes) differs from the independently built frame (%d bytes)",
								name, i, len(want), len(got), len(w))
						}
						if !verifies(got) {
							t.Fatalf("%s: reply %d does not verify", name, i)
						}
					}
				}
			}
		}
	}
}

// batchFrames lists every frame of fb in order, each copy of a repeated
// frame on its own.
func batchFrames(fb *packet.FrameBatch) [][]byte {
	var frames [][]byte
	for i := 0; i < fb.Spans(); i++ {
		frame, n := fb.Span(i)
		for ; n > 0; n-- {
			frames = append(frames, frame)
		}
	}
	return frames
}
