package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is a -record file's timed runs: per workload, the tick count they
// all ran and every value of every metric, gated or not.
type runSet map[string]*workloadRuns

type workloadRuns struct {
	ticks  int
	values map[string][]float64
}

// readSet groups a -record file's timed runs by workload and metric. Runs of
// one workload with different tick counts did different work and are not a
// set.
func readSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		wr := set[rec.Workload]
		if wr == nil {
			wr = &workloadRuns{ticks: rec.Ticks, values: make(map[string][]float64)}
			set[rec.Workload] = wr
		}
		if rec.Ticks != wr.ticks {
			return nil, fmt.Errorf("%s:%d: %s ran %d ticks per repetition, earlier runs in the file %d", path, line, rec.Workload, rec.Ticks, wr.ticks)
		}
		for _, m := range []map[string]value{rec.Metrics, rec.Timings} {
			for name, v := range m {
				wr.values[name] = append(wr.values[name], v.Value)
			}
		}
	}
	return set, sc.Err()
}

// compareFiles prints, per workload and metric, the medians of the two sets
// and how much worse b's is than a's. An end-to-end metric is held against
// its bound in both directions — the larger median over the smaller — because
// the sets are the same commit and neither is the reference: the benchmark
// agrees with itself only if no gated median moved by more than its bound
// either way. Timings are shown and not gated. It fails if any gated metric
// is over, or if the two sets ran different tick counts.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-30s %5s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median a", "median b", "b worse", "differ", "bound", "")
	var over int
	for _, wl := range workloadDefs {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.ticks != rb.ticks {
			return fmt.Errorf("%s: %s ran %d ticks per repetition, %s %d: different work, not comparable", wl.Name, pathA, ra.ticks, pathB, rb.ticks)
		}
		for _, d := range append(append([]metricDef(nil), endToEndDefs...), timingDefs...) {
			xa, xb := ra.values[d.Name], rb.values[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			differ := math.Abs(mb-ma) / math.Min(math.Abs(ma), math.Abs(mb))
			bound, verdict := "-", "not gated"
			if d.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.1f%%", 100*d.Bound), "ok"
				if !(differ <= d.Bound) {
					verdict = "OVER"
					over++
				}
			}
			fmt.Fprintf(w, "%-18s %-30s %2d/%-2d %14.4f %14.4f %+7.2f%% %7.2f%% %7s  %s\n",
				wl.Name, d.Name, len(xa), len(xb), ma, mb, 100*worse, 100*differ, bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d gated metric(s) differ by more than their bound", over)
	}
	return nil
}
