package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

var (
	testSrcMAC = MAC{2, 0, 0, 0, 0, 1}
	testDstMAC = MAC{2, 0, 0, 0, 0, 2}
	testSrcIP  = IP4{192, 168, 1, 10}
	testDstIP  = IP4{93, 184, 216, 34}
)

// The single-pass appenders must be byte-identical to the layered model.
// So must NewTCPFrame, which the benchmark harness builds its probes with.
func TestAppendFrameBuildersMatchLayered(t *testing.T) {
	payload := []byte("hello, datapath")

	udpWant := NewUDPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload).Bytes()
	udpGot := AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload)
	if !bytes.Equal(udpGot, udpWant) {
		t.Errorf("AppendUDPFrame differs from NewUDPFrame().Bytes():\n got %x\nwant %x", udpGot, udpWant)
	}

	tcpWant := layeredTCPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 80, TCPAck|TCPPsh, 77, 0, payload).Bytes()
	tcpGot := AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 80, TCPAck|TCPPsh, 77, 0, payload)
	if !bytes.Equal(tcpGot, tcpWant) {
		t.Errorf("AppendTCPFrame differs from the layered frame:\n got %x\nwant %x", tcpGot, tcpWant)
	}
	tcpGot = NewTCPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 80, TCPAck|TCPPsh, 77, payload).Bytes()
	if !bytes.Equal(tcpGot, tcpWant) {
		t.Errorf("NewTCPFrame().Bytes() differs from the layered frame:\n got %x\nwant %x", tcpGot, tcpWant)
	}

	icmpWant := NewICMPEchoFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, ICMPEchoRequest, 3, 4, payload).Bytes()
	icmpGot := AppendICMPEchoFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, ICMPEchoRequest, 3, 4, payload)
	if !bytes.Equal(icmpGot, icmpWant) {
		t.Errorf("AppendICMPEchoFrame differs from NewICMPEchoFrame().Bytes():\n got %x\nwant %x", icmpGot, icmpWant)
	}
}

// The appenders — the summing ones, and the sum-taking ones handed the sum
// the reference loop computes — must be byte-identical to the layered
// model over random payloads of every kind of length: empty, one byte,
// odd, even, around the MTU.
func TestAppendFrameBuildersMatchLayeredRandomPayloads(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 8, 31, 32, 33, 63, 160, 1199, 1200, 1399, 1400, 1401, 2999}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			sizes = append(sizes, rng.Intn(1500))
		}
		for _, n := range sizes {
			payload := make([]byte, n)
			rng.Read(payload)
			sum := ^checksumRef(payload, 0)
			seq, ack := rng.Uint32(), rng.Uint32()

			want := layeredTCPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, TCPAck|TCPPsh, seq, ack, payload).Bytes()
			got := AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, TCPAck|TCPPsh, seq, ack, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: AppendTCPFrame differs from the layered frame", seed, n)
			}
			got = AppendTCPFrameSum(got[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, TCPAck|TCPPsh, seq, ack, payload, sum)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: AppendTCPFrameSum differs from the layered frame", seed, n)
			}

			want = NewUDPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload).Bytes()
			got = AppendUDPFrame(got[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: AppendUDPFrame differs from NewUDPFrame().Bytes()", seed, n)
			}
			got = AppendUDPFrameSum(got[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload, sum)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: AppendUDPFrameSum differs from NewUDPFrame().Bytes()", seed, n)
			}

			id, icmpSeq := uint16(rng.Uint32()), uint16(rng.Uint32())
			want = NewICMPEchoFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, ICMPEchoReply, id, icmpSeq, payload).Bytes()
			got = AppendICMPEchoFrame(got[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP, ICMPEchoReply, id, icmpSeq, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: AppendICMPEchoFrame differs from NewICMPEchoFrame().Bytes()", seed, n)
			}

			// A DHCP message carrying the payload as options of up to 255
			// bytes each, the longest an option can be.
			msg := &DHCP{Op: DHCPBootReply, XID: rng.Uint32(), YIAddr: testDstIP, CHAddr: testDstMAC}
			msg.AddMsgType(DHCPAck)
			for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 255):] {
				msg.AddOption(DHCPOptMessage, rest[:min(len(rest), 255)])
			}
			want = NewDHCPFrame(msg, testSrcMAC, testDstMAC, testSrcIP, testDstIP, DHCPServerPort, DHCPClientPort).Bytes()
			got = AppendUDPFrame(got[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP, DHCPServerPort, DHCPClientPort, msg.Serialize(nil))
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d bytes: a DHCP frame built by AppendUDPFrame differs from NewDHCPFrame().Bytes()", seed, n)
			}
		}
	}
}

// A UDP checksum that computes to zero is sent as 0xffff (zero means "no
// checksum"); the sum-taking builder must make the same substitution. A
// two-byte payload equal to the checksum of the same datagram with a zero
// payload brings the sum to 0xffff, hence the checksum to zero.
func TestAppendUDPFrameZeroChecksumSentAsOnes(t *testing.T) {
	const udpAt = EthernetHeaderLen + IPv4HeaderLen
	probe := AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, []byte{0, 0})
	payload := probe[udpAt+6 : udpAt+8 : udpAt+8]
	if cs := checksumRef(append(append([]byte(nil), probe[udpAt:udpAt+6]...), 0, 0, payload[0], payload[1]),
		pseudoHeaderSum(testSrcIP, testDstIP, ProtoUDP, UDPHeaderLen+2)); cs != 0 {
		t.Fatalf("crafted datagram's checksum computes to %#04x, want 0", cs)
	}
	want := NewUDPFrame(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload).Bytes()
	for name, got := range map[string][]byte{
		"AppendUDPFrame":    AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload),
		"AppendUDPFrameSum": AppendUDPFrameSum(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5000, 53, payload, ^checksumRef(payload, 0)),
	} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from NewUDPFrame().Bytes()", name)
		}
		if cs := binary.BigEndian.Uint16(got[udpAt+6:]); cs != 0xffff {
			t.Errorf("%s: checksum field %#04x, want 0xffff", name, cs)
		}
	}
}

// Repeat counts the last frame again instead of copying it: the buffer
// does not move, the repeats go into the last frame's span, TotalBytes
// charges each one, and Reset forgets them.
func TestFrameBatchRepeat(t *testing.T) {
	first := AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 1, 2, []byte("first"))
	last := AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 3, 4, TCPAck, 5, 6, make([]byte, 1400))
	var fb FrameBatch
	fb.Append(first)
	fb.Append(last)
	bufLen, bufCap := len(fb.Buf()), cap(fb.Buf())
	for i := 0; i < 40; i++ {
		fb.Repeat()
	}
	if len(fb.Buf()) != bufLen || cap(fb.Buf()) != bufCap {
		t.Fatalf("40 repeats moved the buffer from len %d cap %d to len %d cap %d",
			bufLen, bufCap, len(fb.Buf()), cap(fb.Buf()))
	}
	if fb.Len() != 42 || fb.Spans() != 2 {
		t.Fatalf("Len = %d, Spans = %d; want 42 frames in 2 spans", fb.Len(), fb.Spans())
	}
	if f, n := fb.Span(0); !bytes.Equal(f, first) || n != 1 {
		t.Fatalf("span 0 is %d bytes %d times, want the first frame once", len(f), n)
	}
	if f, n := fb.Span(1); !bytes.Equal(f, last) || n != 41 {
		t.Fatalf("span 1 is %d bytes %d times, want the last built frame 41 times", len(f), n)
	}
	if want := len(first) + 41*len(last); fb.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", fb.TotalBytes(), want)
	}
	// A frame built after the repeats is a span of its own.
	fb.Append(first)
	if f, n := fb.Span(fb.Spans() - 1); fb.Spans() != 3 || n != 1 || !bytes.Equal(f, first) {
		t.Fatal("a frame appended after the repeats joined their span")
	}
	fb.Reset()
	if fb.Len() != 0 || fb.Spans() != 0 || fb.TotalBytes() != 0 || len(fb.Buf()) != 0 {
		t.Fatalf("Reset left Len %d Spans %d TotalBytes %d buffer %d", fb.Len(), fb.Spans(), fb.TotalBytes(), len(fb.Buf()))
	}
	fb.Append(last)
	fb.Append(last)
	if fb.Spans() != 2 {
		t.Fatal("after Reset, an appended copy joined the span before it")
	}
}

// AppendTCPFrame's acknowledgement parameter must land in the TCP header
// (NewTCPFrame sends zero).
func TestAppendTCPFrameAck(t *testing.T) {
	f := AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP,
		80, 40000, TCPSyn|TCPAck, 0, 1234, nil)
	var d Decoded
	if err := d.Decode(f); err != nil {
		t.Fatal(err)
	}
	if !d.HasTCP || d.TCP.Ack != 1234 || d.TCP.Flags != TCPSyn|TCPAck {
		t.Errorf("decoded ack=%d flags=%x", d.TCP.Ack, d.TCP.Flags)
	}
	if d.TCP.Window != 65535 {
		t.Errorf("window = %d", d.TCP.Window)
	}
}

// The ARP appenders must match the layered model's request and reply, for
// the test addresses and for random ones.
func TestAppendARPReplyMatchesLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	senderHW, senderIP, targetHW, targetIP := testSrcMAC, testSrcIP, testDstMAC, testDstIP
	for i := 0; i < 50; i++ {
		want := NewARPRequest(senderHW, senderIP, targetIP).Bytes()
		got := AppendARPRequest(nil, senderHW, senderIP, targetIP)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendARPRequest differs:\n got %x\nwant %x", got, want)
		}
		req := ARP{Op: ARPRequest, SenderHW: senderHW, SenderIP: senderIP, TargetIP: targetIP}
		want = NewARPReply(targetHW, targetIP, &req).Bytes()
		got = AppendARPReply(got[:0], targetHW, targetIP, &req)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendARPReply differs:\n got %x\nwant %x", got, want)
		}
		rng.Read(senderHW[:])
		rng.Read(senderIP[:])
		rng.Read(targetHW[:])
		rng.Read(targetIP[:])
	}
}

// Steady-state frame building into a reused buffer must not allocate:
// this pins the hot path the hosts, apps and upstream ride every tick.
func TestAppendFrameZeroAllocs(t *testing.T) {
	payload := make([]byte, 1400)
	buf := make([]byte, 0, 2048)
	if allocs := testing.AllocsPerRun(200, func() {
		buf = AppendTCPFrame(buf[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP,
			40000, 443, TCPAck, 9, 9, payload)
	}); allocs != 0 {
		t.Errorf("AppendTCPFrame allocs/op = %g, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		buf = AppendUDPFrame(buf[:0], testSrcMAC, testDstMAC, testSrcIP, testDstIP,
			5060, 5060, payload)
	}); allocs != 0 {
		t.Errorf("AppendUDPFrame allocs/op = %g, want 0", allocs)
	}
}

// Reusing one Decoded across frames must not allocate: this pins the
// per-frame receive path in the datapath and upstream loops.
func TestDecodeReuseZeroAllocs(t *testing.T) {
	frame := AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP,
		40000, 80, TCPAck, 0, 0, make([]byte, 512))
	var d Decoded
	if allocs := testing.AllocsPerRun(200, func() {
		if err := d.Decode(frame); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("Decode allocs/op = %g, want 0", allocs)
	}
}

func TestFrameBatch(t *testing.T) {
	var fb FrameBatch
	if fb.Len() != 0 || fb.TotalBytes() != 0 {
		t.Fatal("fresh batch not empty")
	}
	// Commit three frames, forcing buffer growth along the way: earlier
	// frames must remain addressable afterwards.
	frames := [][]byte{
		AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 1, 2, []byte("a")),
		AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 3, 4, make([]byte, 4000)),
		AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5, 6, []byte("ccc")),
	}
	total := 0
	for _, f := range frames {
		fb.Commit(append(fb.Buf(), f...))
		total += len(f)
	}
	if fb.Len() != 3 || fb.TotalBytes() != total {
		t.Fatalf("Len=%d TotalBytes=%d want 3/%d", fb.Len(), fb.TotalBytes(), total)
	}
	if fb.Spans() != 3 {
		t.Fatalf("Spans=%d want 3", fb.Spans())
	}
	for i, f := range frames {
		if got, n := fb.Span(i); !bytes.Equal(got, f) || n != 1 {
			t.Errorf("span %d corrupted", i)
		}
	}
	// Uncommitted bytes must not surface as frames.
	_ = AppendUDPFrame(fb.Buf(), testSrcMAC, testDstMAC, testSrcIP, testDstIP, 7, 8, nil)
	if fb.Len() != 3 {
		t.Errorf("uncommitted build changed Len to %d", fb.Len())
	}
	fb.Reset()
	if fb.Len() != 0 || fb.Spans() != 0 || fb.TotalBytes() != 0 {
		t.Error("Reset did not empty the batch")
	}
}

// A warmed batch refilled each tick must not allocate.
func TestFrameBatchZeroAllocsSteadyState(t *testing.T) {
	var fb FrameBatch
	payload := make([]byte, 256)
	fill := func() {
		fb.Reset()
		for i := 0; i < 16; i++ {
			fb.Commit(AppendUDPFrame(fb.Buf(), testSrcMAC, testDstMAC, testSrcIP, testDstIP,
				uint16(1000+i), 53, payload))
		}
	}
	fill() // warm the backing buffer
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("steady-state batch fill allocs/op = %g, want 0", allocs)
	}
}
