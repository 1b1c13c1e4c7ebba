package chaos

import (
	"math/rand"
	"sort"
	"time"
)

// ScheduleConfig parameterizes buildSchedule. Everything is derived from
// Seed, so a schedule is fully reproducible from the numbers a failing
// soak prints.
type ScheduleConfig struct {
	// Seed drives every draw (kind, onset jitter, duration, magnitude).
	Seed int64
	// Homes are the target home IDs (each gets its own episode sequence).
	Homes []uint64
	// Span is the simulated window the episodes are spread over.
	Span time.Duration
	// MinFor/MaxFor bound episode durations (defaults 5m/12m).
	MinFor, MaxFor time.Duration
	// Gap is the minimum recovery window between one home's episodes
	// (default 90m) — long enough for the remediation loop to converge
	// before the next fault, so per-episode recovery is assertable.
	Gap time.Duration
}

// buildSchedule lays out a deterministic, per-home non-overlapping
// episode schedule: each home's episodes are separated by at least Gap
// of clean recovery time, onsets are jittered so homes do not fail in
// lockstep, and magnitudes are drawn per kind (LinkFlap drops 50–80% of
// frames, Interference attenuates 50–58 dB — partial loss by
// construction, since total loss never attributes to FlowPerf). The
// result is sorted by onset, then home.
func buildSchedule(cfg ScheduleConfig) []Episode {
	if cfg.Span <= 0 || len(cfg.Homes) == 0 {
		return nil
	}
	if cfg.MinFor <= 0 {
		cfg.MinFor = 5 * time.Minute
	}
	if cfg.MaxFor < cfg.MinFor {
		cfg.MaxFor = 12 * time.Minute
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 90 * time.Minute
	}
	kinds := allKinds()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var eps []Episode
	for _, home := range cfg.Homes {
		// Jittered start keeps the fleet's failures unsynchronized.
		at := time.Duration(rng.Float64() * float64(cfg.Gap))
		for {
			dur := cfg.MinFor + time.Duration(rng.Float64()*float64(cfg.MaxFor-cfg.MinFor))
			if at+dur+cfg.Gap > cfg.Span {
				break // leave the final Gap clean so recovery completes in-window
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
			at += ep.For + cfg.Gap + time.Duration(rng.Float64()*float64(cfg.Gap)/2)
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
