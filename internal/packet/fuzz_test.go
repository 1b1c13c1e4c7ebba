package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedFrames is one frame of every kind the tree builds.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	arpReq := AppendARPRequest(nil, testSrcMAC, testSrcIP, testDstIP)
	var req ARP
	if err := req.DecodeFromBytes(arpReq[EthernetHeaderLen:]); err != nil {
		tb.Fatal(err)
	}
	discover := &DHCP{Op: DHCPBootRequest, XID: 7, Flags: 0x8000, CHAddr: testSrcMAC}
	discover.AddMsgType(DHCPDiscover)
	discover.AddOption(DHCPOptHostname, []byte("laptop"))
	query, err := NewDNSQuery(9, "www.example.com", DNSTypeA).Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	tagged := Ethernet{Dst: testDstMAC, Src: testSrcMAC, Type: EtherTypeARP, Tagged: true, VLANID: 12, VLANPriority: 3, Payload: arpReq[EthernetHeaderLen:]}
	return [][]byte{
		arpReq,
		AppendARPReply(nil, testDstMAC, testDstIP, &req),
		tagged.Bytes(),
		AppendUDPFrame(nil, testSrcMAC, Broadcast, IP4{}, IP4{255, 255, 255, 255}, DHCPClientPort, DHCPServerPort, discover.Serialize(nil)),
		AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5353, DNSPort, query),
		AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, TCPSyn, 0, 0, nil),
		AppendTCPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, TCPAck|TCPPsh, 1, 1, make([]byte, 1400)),
		AppendUDPFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, 5060, 5060, make([]byte, 160)),
		AppendICMPEchoFrame(nil, testSrcMAC, testDstMAC, testSrcIP, testDstIP, ICMPEchoRequest, 1, 2, []byte("ping")),
	}
}

// sameExcept reports whether got equals the first len(got) bytes of orig,
// looking only at the bits mask leaves set. mask[i] applies to byte i; bytes
// past the mask are compared whole.
func sameExcept(got, orig []byte, mask map[int]byte) bool {
	if len(got) > len(orig) {
		return false
	}
	for i, b := range got {
		m, masked := mask[i]
		if !masked {
			m = 0xff
		}
		if b&m != orig[i]&m {
			return false
		}
	}
	return true
}

// FuzzDecode: the frame decoder reads whatever a port is handed, so on any
// input it returns or errors, never panics, and every layer it reports
// present, re-serialized by the layered model (layered_model_test.go; the
// Ethernet layer by Ethernet.Bytes), is the bytes it was decoded from — as
// far as the layer goes (an IP packet shorter than its frame leaves padding
// behind), and except for what a layer struct does not carry: checksums,
// which serializing recomputes, a length field larger than the bytes that
// came (decoding clips it), the VLAN CFI bit and TCP's reserved and ECN
// bits.
// The DHCP and DNS decoders get every UDP payload and must not panic on it
// either. Seeds: one frame of each kind the tree builds, whole and cut at
// every header boundary.
func FuzzDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
		for _, cut := range []int{
			0, EthernetHeaderLen - 1, EthernetHeaderLen, EthernetHeaderLen + 4,
			EthernetHeaderLen + ARPLen - 1, EthernetHeaderLen + IPv4HeaderLen - 1, EthernetHeaderLen + IPv4HeaderLen,
			EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen - 1, EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen,
			EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen - 1, EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen,
		} {
			if cut < len(frame) {
				f.Add(frame[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var d Decoded
		err := d.Decode(frame)
		if err != nil && (d.HasTCP || d.HasUDP || d.HasICMP) {
			t.Fatalf("Decode failed with %v after reporting a transport layer", err)
		}
		var eth Ethernet
		if eth.DecodeFromBytes(frame) != nil {
			if err == nil || d.HasARP || d.HasIP {
				t.Fatalf("Decode = %v, ARP %v, IP %v on a frame with no Ethernet header", err, d.HasARP, d.HasIP)
			}
			return
		}
		cfi := map[int]byte{}
		if d.Eth.Tagged {
			cfi[EthernetHeaderLen] = 0xef
		}
		if !sameExcept(d.Eth.Bytes(), frame, cfi) || len(d.Eth.Bytes()) != len(frame) {
			t.Fatalf("Ethernet re-serializes to % x, decoded from % x", d.Eth.Bytes(), frame)
		}
		if d.HasARP && !sameExcept(d.ARP.Bytes(), d.Eth.Payload, nil) {
			t.Fatalf("ARP re-serializes to % x, decoded from % x", d.ARP.Bytes(), d.Eth.Payload)
		}
		if !d.HasIP {
			return
		}
		ipMask := map[int]byte{10: 0, 11: 0}
		if int(binary.BigEndian.Uint16(d.Eth.Payload[2:4])) > len(d.Eth.Payload) {
			ipMask[2], ipMask[3] = 0, 0
		}
		if !sameExcept(d.IP.Bytes(), d.Eth.Payload, ipMask) {
			t.Fatalf("IPv4 re-serializes to % x, decoded from % x", d.IP.Bytes(), d.Eth.Payload)
		}
		seg := d.IP.Payload
		switch {
		case d.HasTCP:
			if got := d.TCP.Bytes(d.IP.Src, d.IP.Dst); !sameExcept(got, seg, map[int]byte{12: 0xf0, 13: 0x3f, 16: 0, 17: 0}) || len(got) != len(seg) {
				t.Fatalf("TCP re-serializes to % x, decoded from % x", got, seg)
			}
		case d.HasUDP:
			udpMask := map[int]byte{6: 0, 7: 0}
			if int(binary.BigEndian.Uint16(seg[4:6])) > len(seg) {
				udpMask[4], udpMask[5] = 0, 0
			}
			if got := d.UDP.Bytes(d.IP.Src, d.IP.Dst); !sameExcept(got, seg, udpMask) {
				t.Fatalf("UDP re-serializes to % x, decoded from % x", got, seg)
			}
			var dhcp DHCP
			_ = dhcp.DecodeFromBytes(d.UDP.Payload)
			var dns DNS
			_ = dns.DecodeFromBytes(d.UDP.Payload)
		case d.HasICMP:
			if got := d.ICMP.Bytes(); !sameExcept(got, seg, map[int]byte{2: 0, 3: 0}) || len(got) != len(seg) {
				t.Fatalf("ICMP re-serializes to % x, decoded from % x", got, seg)
			}
		}
	})
}

// FuzzChecksum: the word-wise Checksum agrees with the byte-pair reference
// loop on any bytes, at any alignment, from any initial sum.
func FuzzChecksum(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame, uint32(0), uint8(0))
		f.Add(frame, ^uint32(0), uint8(EthernetHeaderLen))
	}
	f.Add(bytes.Repeat([]byte{0xff}, 4099), uint32(1<<31), uint8(3))
	f.Add([]byte{}, uint32(0xffff), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, initial uint32, skip uint8) {
		data = data[min(int(skip), len(data)):]
		if got, want := Checksum(data, initial), checksumRef(data, initial); got != want {
			t.Fatalf("Checksum(%d bytes, %#x) = %#04x, reference %#04x", len(data), initial, got, want)
		}
	})
}

// FuzzFrameBatch: a FrameBatch under any sequence of Commit, Append,
// Repeat, Reset and builds left uncommitted reads as the plain list of the
// frames committed since the last Reset, every repeat a copy of the frame
// before it: the same Len, the same TotalBytes, and the spans, each frame
// taken as many times as its span goes, are that list. A Repeat never
// moves the buffer. Each op is two bytes: the op, and a length that
// reaches past the buffer's growth steps.
func FuzzFrameBatch(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 2, 0, 1, 200, 2, 0, 4, 9, 0, 1})
	f.Add([]byte{1, 255, 2, 0, 2, 0, 3, 0, 2, 0, 1, 0, 2, 0, 0, 17})
	f.Add([]byte{4, 100, 0, 0, 2, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4, 3, 0, 250, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			fb    FrameBatch
			model [][]byte
		)
		for i := 0; i+1 < len(ops); i += 2 {
			frame := bytes.Repeat([]byte{byte(i)}, int(ops[i+1])*7)
			switch ops[i] % 5 {
			case 0:
				fb.Commit(append(fb.Buf(), frame...))
				model = append(model, frame)
			case 1:
				fb.Append(frame)
				model = append(model, frame)
			case 2:
				if len(model) == 0 {
					continue
				}
				buf := fb.Buf()
				fb.Repeat()
				if b := fb.Buf(); len(b) != len(buf) || cap(b) != cap(buf) {
					t.Fatalf("op %d: Repeat moved the buffer", i/2)
				}
				model = append(model, model[len(model)-1])
			case 3:
				fb.Reset()
				model = model[:0]
			case 4:
				_ = append(fb.Buf(), frame...) // built, never committed
			}
			total := 0
			for _, m := range model {
				total += len(m)
			}
			if fb.Len() != len(model) || fb.TotalBytes() != total {
				t.Fatalf("op %d: Len %d TotalBytes %d, model %d frames %d bytes", i/2, fb.Len(), fb.TotalBytes(), len(model), total)
			}
			k := 0
			for s := 0; s < fb.Spans(); s++ {
				got, n := fb.Span(s)
				if n < 1 {
					t.Fatalf("op %d: span %d goes %d times", i/2, s, n)
				}
				for ; n > 0; n-- {
					if k >= len(model) || !bytes.Equal(got, model[k]) {
						t.Fatalf("op %d: span %d does not read as frame %d of the model", i/2, s, k)
					}
					k++
				}
			}
			if k != len(model) {
				t.Fatalf("op %d: the spans hold %d frames, the model %d", i/2, k, len(model))
			}
		}
	})
}
