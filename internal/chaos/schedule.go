package chaos

import (
	"math/rand"
	"sort"
	"time"
)

// Episode durations and gaps scale with the evaluation window (one fleet
// tick of stepSec), so a fault always spans enough consecutive windows to
// walk the health state machine, and every gap leaves room for full
// remediation (cordon + dwell + restart + probation) before the next
// fault.
const (
	// minFor and maxFor bound episode durations.
	minFor = 5 * stepSec * time.Second
	maxFor = 13 * stepSec * time.Second
	// gap is the minimum recovery window between one home's episodes.
	gap = 50 * stepSec * time.Second
)

// buildSchedule lays out a deterministic, per-home non-overlapping
// episode schedule over span for the given homes, every draw (kind, onset
// jitter, duration, magnitude) from seed, so a schedule reproduces from
// the numbers a failing soak prints. Each home's episodes are separated
// by at least gap of clean recovery time, onsets are jittered so homes do
// not fail in lockstep, and magnitudes are drawn per kind (LinkFlap drops
// 50–80% of frames, Interference attenuates 50–58 dB — partial loss by
// construction, since total loss never attributes to FlowPerf). The
// result is sorted by onset, then home.
func buildSchedule(seed int64, homes []uint64, span time.Duration) []Episode {
	if span <= 0 || len(homes) == 0 {
		return nil
	}
	kinds := allKinds()
	rng := rand.New(rand.NewSource(seed))

	var eps []Episode
	for _, home := range homes {
		// Jittered start keeps the fleet's failures unsynchronized.
		at := time.Duration(rng.Float64() * float64(gap))
		for {
			dur := minFor + time.Duration(rng.Float64()*float64(maxFor-minFor))
			if at+dur+gap > span {
				break // leave the final gap clean so recovery completes in-window
			}
			kind := kinds[rng.Intn(len(kinds))]
			ep := Episode{Kind: kind, Home: home, At: at, For: dur}
			switch kind {
			case LinkFlap:
				ep.Mag = 0.5 + 0.3*rng.Float64()
			case Interference:
				ep.Mag = 50 + 8*rng.Float64()
			case DHCPStorm:
				ep.For = time.Minute // the storm is its onset
			}
			eps = append(eps, ep)
			at += ep.For + gap + time.Duration(rng.Float64()*float64(gap)/2)
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].At != eps[j].At {
			return eps[i].At < eps[j].At
		}
		return eps[i].Home < eps[j].Home
	})
	return eps
}
