package ui

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/hwdb"
	"repro/internal/packet"
)

// ArtifactMode selects one of the physical artifact's three behaviours.
type ArtifactMode uint8

// The artifact's modes, exactly as the paper lists them.
const (
	// ModeSignal maps wireless signal strength from the artifact to the
	// hub onto the number of lit LEDs, so carrying the artifact around
	// exposes areas of high and low signal strength in the home.
	ModeSignal ArtifactMode = 1
	// ModeBandwidth maps current total bandwidth, as a proportion of the
	// peak observed in the last day, onto the speed of the LED animation.
	ModeBandwidth ArtifactMode = 2
	// ModeDHCP signals lease grants with green flashes and revocations
	// with blue, and high packet-retry proportions with red flashes.
	ModeDHCP ArtifactMode = 3
)

// LED is one RGB LED's displayed colour.
type LED byte

// LED colours used by the three modes.
const (
	LEDOff   LED = '.'
	LEDWhite LED = 'W'
	LEDGreen LED = 'G'
	LEDBlue  LED = 'B'
	LEDRed   LED = 'R'
)

// Artifact models the Arduino-based network artifact: a strip of RGB LEDs
// driven from hwdb subscriptions.
type Artifact struct {
	DB *hwdb.DB
	// MAC identifies the artifact itself on the wireless network (mode 1
	// shows the artifact's own RSSI as it is carried around).
	MAC packet.MAC
	// NumLEDs is the strip length (default 8).
	NumLEDs int
	// RetryFlashThreshold is the retries-per-sample level that triggers
	// red flashes in mode 3 (default 3).
	RetryFlashThreshold int

	mu        sync.Mutex
	mode      ArtifactMode
	phase     float64 // animation position, LEDs
	peak      float64 // peak bandwidth seen (bytes/s)
	flash     LED     // pending flash colour for mode 3
	flashLeft int     // remaining flash frames

	rssiSel *hwdb.SelectStmt // the mode-1 read, parsed for rssiFor
	rssiFor packet.MAC
}

var (
	recentBytes   = mustSelect("SELECT sum(bytes) AS b FROM Flows [RANGE 2 SECONDS]")
	recentRetries = mustSelect("SELECT avg(retries) AS r FROM Links [ROWS 20]")
)

// NewArtifact builds an artifact display, with the mode-1 read for mac
// parsed. Register its DHCP interest with WatchLeases to animate mode 3
// from lease events.
func NewArtifact(db *hwdb.DB, mac packet.MAC) *Artifact {
	return &Artifact{DB: db, MAC: mac, NumLEDs: 8, RetryFlashThreshold: 3, mode: ModeSignal,
		rssiSel: rssiSelect(mac), rssiFor: mac}
}

// rssiSelect parses the mode-1 read for the artifact with hardware address
// mac. A MAC always renders as a literal the parser takes.
func rssiSelect(mac packet.MAC) *hwdb.SelectStmt {
	return mustSelect(fmt.Sprintf("SELECT rssi FROM Links [ROWS 200] WHERE mac = %s", mac))
}

// SetMode switches the artifact's behaviour.
func (a *Artifact) SetMode(m ArtifactMode) {
	a.mu.Lock()
	a.mode = m
	a.mu.Unlock()
}

// WatchLeases subscribes to lease events so mode 3 flashes on grants and
// revocations. Call once after construction.
func (a *Artifact) WatchLeases() {
	tbl, ok := a.DB.Table(hwdb.TableLeases)
	if !ok {
		return
	}
	schema := tbl.Schema()
	actionIdx, _ := schema.Index("action")
	tbl.OnInsert(func(r hwdb.Row) {
		a.mu.Lock()
		defer a.mu.Unlock()
		switch r.Str(actionIdx) {
		case "add":
			a.flash, a.flashLeft = LEDGreen, 3
		case "del":
			a.flash, a.flashLeft = LEDBlue, 3
		}
	})
}

// rssi reads the artifact's latest signal strength from Links: its newest
// sample among the last 200, so a station that has gone quiet reads as
// absent rather than at its stale level.
func (a *Artifact) rssi() (int, bool) {
	a.mu.Lock()
	if a.rssiSel == nil || a.rssiFor != a.MAC {
		a.rssiSel, a.rssiFor = rssiSelect(a.MAC), a.MAC
	}
	sel := a.rssiSel
	a.mu.Unlock()
	// A failed select visits no row, and reads as no sample.
	rssi, ok := 0, false
	_ = a.DB.SelectFunc(sel, func(row []hwdb.Value) { rssi, ok = int(row[0].Int), true })
	return rssi, ok
}

// totalBandwidth sums Flows bytes over the last second-ish window.
func (a *Artifact) totalBandwidth() float64 {
	return firstCell(a.DB, recentBytes) / 2
}

// retryRate reads the recent average retry count per link sample.
func (a *Artifact) retryRate() float64 {
	return firstCell(a.DB, recentRetries)
}

// firstCell reads a one-cell aggregate select as a number: 0 if it fails.
func firstCell(db *hwdb.DB, sel *hwdb.SelectStmt) float64 {
	x := 0.0
	_ = db.SelectFunc(sel, func(row []hwdb.Value) { x = row[0].AsFloat() })
	return x
}

// signalLEDs maps an RSSI reading onto a number of lit LEDs: full strip at
// -40 dBm and above, none at -90 and below.
func (a *Artifact) signalLEDs(rssi int) int {
	n := a.NumLEDs
	frac := (float64(rssi) + 90) / 50 // -90..-40 -> 0..1
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return int(frac*float64(n) + 0.5)
}

// Step advances the artifact by dt and returns the LED frame.
func (a *Artifact) Step(dt time.Duration) []LED {
	a.mu.Lock()
	mode := a.mode
	a.mu.Unlock()

	leds := make([]LED, a.NumLEDs)
	for i := range leds {
		leds[i] = LEDOff
	}
	switch mode {
	case ModeSignal:
		lit := 0
		if rssi, ok := a.rssi(); ok {
			lit = a.signalLEDs(rssi)
		}
		for i := 0; i < lit && i < len(leds); i++ {
			leds[i] = LEDWhite
		}
	case ModeBandwidth:
		bw := a.totalBandwidth()
		a.mu.Lock()
		if bw > a.peak {
			a.peak = bw
		}
		frac := 0.0
		if a.peak > 0 {
			frac = bw / a.peak
		}
		// Lights move faster across the face as more bandwidth is used:
		// 0.5..8 LEDs/second.
		speed := 0.5 + 7.5*frac
		a.phase += speed * dt.Seconds()
		pos := int(a.phase) % a.NumLEDs
		a.mu.Unlock()
		leds[pos] = LEDWhite
	case ModeDHCP:
		a.mu.Lock()
		flash, left := a.flash, a.flashLeft
		if a.flashLeft > 0 {
			a.flashLeft--
		}
		a.mu.Unlock()
		if left > 0 {
			for i := range leds {
				leds[i] = flash
			}
			break
		}
		if a.retryRate() >= float64(a.RetryFlashThreshold) {
			for i := range leds {
				leds[i] = LEDRed
			}
		}
	}
	return leds
}

// AnimationSpeed reports the current LEDs-per-second speed of mode 2 (for
// the figures harness).
func (a *Artifact) AnimationSpeed() float64 {
	bw := a.totalBandwidth()
	a.mu.Lock()
	defer a.mu.Unlock()
	if bw > a.peak {
		a.peak = bw
	}
	frac := 0.0
	if a.peak > 0 {
		frac = bw / a.peak
	}
	return 0.5 + 7.5*frac
}

// RenderFrame draws one frame as text, e.g. "[WWWW....]".
func RenderFrame(leds []LED) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for _, l := range leds {
		sb.WriteByte(byte(l))
	}
	sb.WriteByte(']')
	return sb.String()
}
