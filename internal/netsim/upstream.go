package netsim

import (
	"sync"

	"repro/internal/packet"
)

// zeroPayload is the shared all-zero filler for synthesized response
// traffic; frame builders copy from it, so one buffer serves every reply.
var zeroPayload [1400]byte

// fillerSum is the folded ones'-complement sum of the filler traffic
// carries (zeroPayload here, App.payload on the hosts), which the builders
// take in place of summing 1 400 zeros per frame. Zeros sum to zero at every
// length; a filler that carried bytes would have its sum taken once, where
// it is made, for each length sent.
const fillerSum = 0

// Upstream stands in for the ISP uplink and the public Internet: it
// answers ARP for every off-home address (it is the default route's next
// hop), serves an authoritative DNS zone on DNSAddr, and responds to
// transport flows addressed to any of its server addresses with a
// service-dependent volume of reply traffic. Replies to one delivered
// frame are serialized into a reused batch and handed to the datapath in
// a single call, which queues them behind the frame being executed.
type Upstream struct {
	MAC     packet.MAC
	IP      packet.IP4 // next-hop address on the WAN side
	DNSAddr packet.IP4 // the "8.8.8.8" this network forwards queries to

	net  *Network
	port uint16

	mu       sync.Mutex
	localNet packet.IP4
	localLen int
	zone     map[string]packet.IP4
	rev      map[packet.IP4]string // deterministic reverse index, see reverseLookup
	ratio    map[uint16]float64    // dst port -> response bytes per request byte
	rxBytes  uint64
	txBytes  uint64
	queries  uint64

	// d and fb are deliver's working set: the delivered frame's decode and
	// the reply batch. Only the datapath's executing call delivers, one
	// frame at a time, and its ReceiveBatch copies the replies, so one of
	// each serves every delivery.
	d  packet.Decoded
	fb packet.FrameBatch
}

// NewUpstream builds an upstream with a synthetic zone covering the sites
// the paper's policy interface names.
func NewUpstream() *Upstream {
	u := &Upstream{
		MAC:     packet.MustMAC("02:ee:00:00:00:01"),
		IP:      packet.MustIP4("100.64.0.1"),
		DNSAddr: packet.MustIP4("8.8.8.8"),
		zone: map[string]packet.IP4{
			"facebook.com":     packet.MustIP4("157.240.1.35"),
			"www.facebook.com": packet.MustIP4("157.240.1.35"),
			"youtube.com":      packet.MustIP4("142.250.180.14"),
			"www.youtube.com":  packet.MustIP4("142.250.180.14"),
			"bbc.co.uk":        packet.MustIP4("151.101.0.81"),
			"www.bbc.co.uk":    packet.MustIP4("151.101.0.81"),
			"example.com":      packet.MustIP4("93.184.216.34"),
			"www.example.com":  packet.MustIP4("93.184.216.34"),
			"iot.example.com":  packet.MustIP4("93.184.216.40"),
			"voip.example.com": packet.MustIP4("93.184.216.41"),
			"tracker.example":  packet.MustIP4("93.184.216.50"),
		},
		rev: make(map[packet.IP4]string),
		ratio: map[uint16]float64{
			80:   8,    // web: download-heavy
			443:  20,   // streaming video
			5060: 1,    // voip: symmetric
			6881: 1.5,  // p2p
			8883: 0.25, // iot telemetry acks
			53:   2,    // dns
		},
	}
	for name, ip := range u.zone {
		u.indexLocked(name, ip)
	}
	return u
}

// preferredName reports whether a should win over b as the canonical
// reverse-lookup name for an address: the shortest name wins, ties broken
// lexicographically. The rule is a pure function of the candidate set, so
// the index is identical however the zone was populated.
func preferredName(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// indexLocked folds one name into the reverse index (caller holds u.mu).
func (u *Upstream) indexLocked(name string, ip packet.IP4) {
	if cur, ok := u.rev[ip]; !ok || preferredName(name, cur) {
		u.rev[ip] = name
	}
}

// reindexLocked rebuilds the reverse entry for ip from the zone (caller
// holds u.mu); used when a name is retargeted away from ip.
func (u *Upstream) reindexLocked(ip packet.IP4) {
	delete(u.rev, ip)
	for name, a := range u.zone {
		if a == ip {
			u.indexLocked(name, a)
		}
	}
}

// SetLocalNet tells the upstream which prefix is the home network, so it
// never answers ARP for addresses inside it.
func (u *Upstream) SetLocalNet(prefix packet.IP4, length int) {
	u.mu.Lock()
	u.localNet, u.localLen = prefix, length
	u.mu.Unlock()
}

// AddZone adds or overrides a DNS name, keeping the reverse index
// consistent.
func (u *Upstream) AddZone(name string, ip packet.IP4) {
	u.mu.Lock()
	old, existed := u.zone[name]
	u.zone[name] = ip
	if existed && old != ip {
		u.reindexLocked(old)
	}
	u.indexLocked(name, ip)
	u.mu.Unlock()
}

// Lookup resolves a name in the synthetic zone.
func (u *Upstream) Lookup(name string) (packet.IP4, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	ip, ok := u.zone[name]
	return ip, ok
}

// reverseLookup finds the canonical name for an address (used by the DNS
// proxy's reverse path). Addresses with several names resolve to the same
// name on every run — the shortest, ties broken lexicographically — so
// hwdb flow→name attribution never flickers between runs.
func (u *Upstream) reverseLookup(ip packet.IP4) (string, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	name, ok := u.rev[ip]
	return name, ok
}

// Counters returns bytes received/sent and DNS queries answered.
func (u *Upstream) Counters() (rx, tx, queries uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.rxBytes, u.txBytes, u.queries
}

// deliver processes a frame forwarded out of the home, emitting any reply
// traffic as one batch.
func (u *Upstream) deliver(frame []byte) {
	u.mu.Lock()
	u.rxBytes += uint64(len(frame))
	u.mu.Unlock()

	d, fb := &u.d, &u.fb
	if err := d.Decode(frame); err != nil {
		return
	}
	switch {
	case d.HasARP && d.ARP.Op == packet.ARPRequest:
		// The upstream is the next hop for everything beyond the home —
		// but it must not claim home-subnet addresses.
		u.mu.Lock()
		local := u.localLen > 0 &&
			d.ARP.TargetIP.Mask(u.localLen) == u.localNet.Mask(u.localLen)
		u.mu.Unlock()
		if local {
			return
		}
		fb.Commit(packet.AppendARPReply(fb.Buf(), u.MAC, d.ARP.TargetIP, &d.ARP))
	case d.HasUDP && d.UDP.DstPort == packet.DNSPort && d.IP.Dst == u.DNSAddr:
		u.serveDNS(d, fb)
	case d.HasTCP:
		u.serveTCP(d, fb)
	case d.HasUDP:
		u.serveUDP(d, fb)
	}
	if fb.Len() > 0 {
		u.mu.Lock()
		u.txBytes += uint64(fb.TotalBytes())
		u.mu.Unlock()
		u.net.dp.ReceiveBatch(u.port, fb)
		fb.Reset()
	}
}

func (u *Upstream) serveDNS(d *packet.Decoded, fb *packet.FrameBatch) {
	var q packet.DNS
	if err := q.DecodeFromBytes(d.UDP.Payload); err != nil || len(q.Questions) == 0 {
		return
	}
	u.mu.Lock()
	u.queries++
	u.mu.Unlock()

	resp := &packet.DNS{
		ID: q.ID, Response: true, RD: q.RD, RA: true,
		Questions: q.Questions,
	}
	qu := q.Questions[0]
	switch qu.Type {
	case packet.DNSTypeA:
		if ip, ok := u.Lookup(qu.Name); ok {
			resp.AnswerA(ip, 300)
		} else {
			resp.Rcode = packet.DNSRcodeNXDomain
		}
	case packet.DNSTypePTR:
		if ip, ok := packet.ParseReverseName(qu.Name); ok {
			if name, found := u.reverseLookup(ip); found {
				resp.Answers = append(resp.Answers, packet.DNSRR{
					Name: qu.Name, Type: packet.DNSTypePTR, Class: packet.DNSClassIN,
					TTL: 300, Target: name,
				})
			} else {
				resp.Rcode = packet.DNSRcodeNXDomain
			}
		} else {
			resp.Rcode = packet.DNSRcodeNXDomain
		}
	default:
		resp.Rcode = packet.DNSRcodeNXDomain
	}
	raw, err := resp.Bytes()
	if err != nil {
		return
	}
	fb.Commit(packet.AppendUDPFrame(fb.Buf(), u.MAC, d.Eth.Src,
		d.IP.Dst, d.IP.Src, d.UDP.DstPort, d.UDP.SrcPort, raw))
}

// serveTCP answers SYNs with SYN-ACK and data with a service-dependent
// response volume.
func (u *Upstream) serveTCP(d *packet.Decoded, fb *packet.FrameBatch) {
	if d.TCP.Flags&packet.TCPSyn != 0 && d.TCP.Flags&packet.TCPAck == 0 {
		fb.Commit(packet.AppendTCPFrame(fb.Buf(), u.MAC, d.Eth.Src,
			d.IP.Dst, d.IP.Src, d.TCP.DstPort, d.TCP.SrcPort,
			packet.TCPSyn|packet.TCPAck, 0, d.TCP.Seq+1, nil))
		return
	}
	if len(d.TCP.Payload) == 0 {
		return
	}
	u.respondData(d, fb, len(d.TCP.Payload), d.TCP.DstPort, packet.ProtoTCP)
}

func (u *Upstream) serveUDP(d *packet.Decoded, fb *packet.FrameBatch) {
	if len(d.UDP.Payload) == 0 {
		return
	}
	u.respondData(d, fb, len(d.UDP.Payload), d.UDP.DstPort, packet.ProtoUDP)
}

// respondData emits ratio-scaled response bytes back toward the client,
// split into MTU-sized frames (capped to bound simulation cost). Every
// reply to one request carries the same addresses, ports, sequence and
// acknowledgement numbers, so a frame of the size of the one before it is
// that frame again and is copied, not rebuilt: of a response only the first
// frame and a shorter last one are built.
func (u *Upstream) respondData(d *packet.Decoded, fb *packet.FrameBatch, reqLen int, dstPort uint16, proto packet.IPProto) {
	u.mu.Lock()
	ratio, ok := u.ratio[dstPort]
	u.mu.Unlock()
	if !ok {
		ratio = 1
	}
	total := int(float64(reqLen) * ratio)
	const mtuPayload = len(zeroPayload)
	const maxFrames = 32
	prev := 0
	for frames := 0; total > 0 && frames < maxFrames; frames++ {
		sz := min(total, mtuPayload)
		total -= sz
		if sz == prev {
			fb.Repeat()
		} else {
			u.replyFiller(d, fb, sz, proto)
		}
		prev = sz
	}
}

// replyFiller serializes one transport reply of sz filler bytes toward the
// source of d, addressed at Ethernet level to whoever forwarded the frame
// (the router's WAN side), into the batch.
func (u *Upstream) replyFiller(d *packet.Decoded, fb *packet.FrameBatch, sz int, proto packet.IPProto) {
	switch proto {
	case packet.ProtoUDP:
		fb.Commit(packet.AppendUDPFrameSum(fb.Buf(), u.MAC, d.Eth.Src,
			d.IP.Dst, d.IP.Src, d.UDP.DstPort, d.UDP.SrcPort, zeroPayload[:sz], fillerSum))
	default:
		fb.Commit(packet.AppendTCPFrameSum(fb.Buf(), u.MAC, d.Eth.Src,
			d.IP.Dst, d.IP.Src, d.TCP.DstPort, d.TCP.SrcPort,
			packet.TCPAck|packet.TCPPsh, d.TCP.Ack, d.TCP.Seq+uint32(len(d.TCP.Payload)), zeroPayload[:sz], fillerSum))
	}
}
