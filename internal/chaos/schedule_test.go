package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestBuildScheduleDeterministic checks the schedule is a pure function
// of its seed and leaves every home's episodes Gap-separated inside the
// span, with magnitudes in the partial-loss bands the attribution path
// requires.
func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := ScheduleConfig{
		Seed:  9,
		Homes: []uint64{0, 1, 2, 3},
		Span:  12 * time.Hour,
	}
	a := buildSchedule(cfg)
	b := buildSchedule(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule for a 12h span")
	}
	last := map[uint64]time.Duration{}
	for _, ep := range a {
		if ep.At+ep.For+90*time.Minute > cfg.Span {
			t.Errorf("episode %+v runs past the span's recovery tail", ep)
		}
		if end, ok := last[ep.Home]; ok && ep.At < end+90*time.Minute {
			t.Errorf("home %d episodes closer than the gap: next at %v, prior ended %v", ep.Home, ep.At, end)
		}
		if cur := ep.At + ep.For; cur > last[ep.Home] {
			last[ep.Home] = cur
		}
		switch ep.Kind {
		case LinkFlap:
			if ep.Mag < 0.5 || ep.Mag > 0.8 {
				t.Errorf("link-flap magnitude %v out of the partial-loss band", ep.Mag)
			}
		case Interference:
			if ep.Mag < 50 || ep.Mag > 58 {
				t.Errorf("interference magnitude %v dB out of band", ep.Mag)
			}
		}
	}
	if buildSchedule(ScheduleConfig{Seed: 10, Homes: cfg.Homes, Span: cfg.Span})[0] == a[0] &&
		len(a) > 1 {
		// Different seeds almost surely differ somewhere; a stable first
		// episode alone is fine, identical whole schedules are not.
		c := buildSchedule(ScheduleConfig{Seed: 10, Homes: cfg.Homes, Span: cfg.Span})
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds produced identical schedules")
		}
	}
}

// TestDropRatio checks the link-fault pattern never reaches total loss
// (total loss never attributes to FlowPerf, so it would be invisible to
// the health evaluator).
func TestDropRatio(t *testing.T) {
	for _, frac := range []float64{-1, 0.01, 0.5, 0.8, 1, 2} {
		num, den := dropRatio(frac)
		if frac <= 0 {
			if num != 0 || den != 0 {
				t.Errorf("dropRatio(%v) = %d/%d, want 0/0", frac, num, den)
			}
			continue
		}
		if num < 1 || num >= den {
			t.Errorf("dropRatio(%v) = %d/%d: outside (0,1)", frac, num, den)
		}
	}
}
