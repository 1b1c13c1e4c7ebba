package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestBuildScheduleDeterministic checks the schedule is a pure function
// of its seed and leaves every home's episodes separated by the soak's
// gap inside the span, each lasting between the soak's bounds, with
// magnitudes in the partial-loss bands the attribution path requires.
func TestBuildScheduleDeterministic(t *testing.T) {
	const (
		stepDur = stepSec * time.Second
		wantGap = 50 * stepDur
		wantMin = 5 * stepDur
		wantMax = 13 * stepDur
	)
	if gap != wantGap || minFor != wantMin || maxFor != wantMax {
		t.Fatalf("schedule shape gap=%v for=[%v, %v], want gap=%v for=[%v, %v]",
			gap, minFor, maxFor, wantGap, wantMin, wantMax)
	}
	homes := []uint64{0, 1, 2, 3}
	span := 48 * time.Hour
	a := buildSchedule(9, homes, span)
	b := buildSchedule(9, homes, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule for a 48h span")
	}
	last := map[uint64]time.Duration{}
	for _, ep := range a {
		if ep.At+ep.For+wantGap > span {
			t.Errorf("episode %+v runs past the span's recovery tail", ep)
		}
		if end, ok := last[ep.Home]; ok && ep.At < end+wantGap {
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
		if ep.Kind == DHCPStorm {
			if ep.For != time.Minute {
				t.Errorf("DHCP storm %+v lasts %v, want its one-minute onset", ep, ep.For)
			}
		} else if ep.For < wantMin || ep.For > wantMax {
			t.Errorf("episode %+v lasts %v, outside [%v, %v]", ep, ep.For, wantMin, wantMax)
		}
	}
	if c := buildSchedule(10, homes, span); len(a) > 1 && reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
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
