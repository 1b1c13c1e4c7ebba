// Package netsim simulates the home network the Homework router manages:
// wired and wireless hosts with small DHCP/ARP/DNS client stacks, traffic
// applications (web, video streaming, VoIP, peer-to-peer, IoT telemetry),
// a log-distance wireless propagation model producing per-station RSSI and
// retry counts, and an upstream host standing in for the ISP and the
// public Internet.
//
// The simulator substitutes for the paper's physical testbed (a small
// form-factor PC with real Ethernet/WiFi ports): frames enter the datapath
// through switch ports, so the OpenFlow pipeline, the NOX modules and the
// measurement plane all run exactly as they would against hardware.
//
// Concurrency: drive Step from one goroutine at a time. Frames are also
// delivered on the control plane's goroutine (a packet-out handled on a wire
// channel's read loop), so per-host and network-wide state are
// mutex-guarded. A host hands its answer to a delivery (a DHCP OFFER's
// REQUEST) to the datapath before Deliver returns, which executes it before
// the next controller message: the control plane's quiescence protocol
// relies on that (docs/CONTROL_PLANE.md).
package netsim

import (
	"math"
	"math/rand"
	"sync"
)

// Pos is a position in the home, in metres; the router sits at the origin.
type Pos struct{ X, Y float64 }

// dist returns the Euclidean distance between two positions.
func (p Pos) dist(q Pos) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Wireless is a log-distance path-loss model with shadowing:
//
//	RSSI(d) = TxPower - (PL0 + 10·n·log10(d/D0)) + N(0, Shadow)
//
// mapped onto delivery probability and 802.11g rate tiers. The model keeps
// its seed and makes its generator at the first RSSI or Retries draw, so
// a home without wireless stations pays for none; the draws are those of
// a generator made at construction.
type Wireless struct {
	TxPower  float64 // dBm at the antenna
	PL0      float64 // path loss at reference distance, dB
	Exponent float64 // path-loss exponent n
	D0       float64 // reference distance, metres
	Shadow   float64 // shadowing stddev, dB

	mu           sync.Mutex
	seed         int64
	rng          *rand.Rand // nil until the first draw
	interference float64    // extra attenuation, dB (chaos episodes)
}

// DefaultWireless returns parameters typical of a 2.4 GHz home deployment,
// drawing from seed.
func DefaultWireless(seed int64) *Wireless {
	return &Wireless{
		TxPower:  20,
		PL0:      40,
		Exponent: 3.0, // indoor with walls
		D0:       1,
		Shadow:   2.0,
		seed:     seed,
	}
}

// rand returns the model's generator, making it on the first draw. The
// caller holds w.mu.
func (w *Wireless) rand() *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.seed))
	}
	return w.rng
}

// SetInterference adds db decibels of attenuation to every subsequent
// RSSI sample — a microwave oven, a neighbouring AP, a chaos episode.
// Zero restores the clean channel. Safe to call concurrently with RSSI.
func (w *Wireless) SetInterference(db float64) {
	w.mu.Lock()
	w.interference = db
	w.mu.Unlock()
}

// RSSI returns the received signal strength in dBm at distance d metres.
func (w *Wireless) RSSI(d float64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rssi(d)
}

// uplink draws one station frame's channel at distance d in one lock
// section: the RSSI, then the retries the frame needs at it, capped at max
// — the draws RSSI and then Retries would make.
func (w *Wireless) uplink(d float64, max int) (rssi, retries int, delivered bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rssi = w.rssi(d)
	retries, delivered = w.retries(rssi, max)
	return rssi, retries, delivered
}

// rssi is RSSI. The caller holds w.mu.
func (w *Wireless) rssi(d float64) int {
	if d < w.D0 {
		d = w.D0
	}
	pl := w.PL0 + 10*w.Exponent*math.Log10(d/w.D0)
	shadow := w.rand().NormFloat64()*w.Shadow - w.interference
	return int(math.Round(w.TxPower - pl + shadow))
}

// deliveryProb maps RSSI to first-attempt frame delivery probability: ~1
// above -65 dBm falling to ~0 below -90 dBm.
func (w *Wireless) deliveryProb(rssi int) float64 {
	// Logistic centred at -80 dBm with a 4 dB slope.
	return 1 / (1 + math.Exp(-(float64(rssi)+80)/4))
}

// Retries samples how many retransmissions a frame needs at the given RSSI
// before success (capped at max; the frame is lost if the cap is hit).
func (w *Wireless) Retries(rssi int, max int) (retries int, delivered bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.retries(rssi, max)
}

// retries is Retries. The caller holds w.mu.
func (w *Wireless) retries(rssi int, max int) (int, bool) {
	p := w.deliveryProb(rssi)
	rng := w.rand()
	for i := 0; i <= max; i++ {
		if rng.Float64() < p {
			return i, true
		}
	}
	return max, false
}

// Rate maps RSSI to an 802.11g PHY rate in Mbit/s.
func (w *Wireless) Rate(rssi int) float64 {
	switch {
	case rssi >= -55:
		return 54
	case rssi >= -60:
		return 48
	case rssi >= -65:
		return 36
	case rssi >= -70:
		return 24
	case rssi >= -75:
		return 18
	case rssi >= -80:
		return 12
	case rssi >= -85:
		return 9
	default:
		return 6
	}
}
