package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSource pins BENCHMARK.json to the tables in
// metrics.go and to the limits of the benchmark contract.
func TestBenchmarkJSONMatchesSource(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, tick counts are sized for %d", bf.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloadDefs) || len(bf.Workloads) > 8 {
		t.Fatalf("%d workloads in the file, %d in the source (at most 8)", len(bf.Workloads), len(workloadDefs))
	}
	if len(bf.EndToEnd) != len(endToEndDefs) || len(bf.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the file, %d in the source (at most 16)", len(bf.EndToEnd), len(endToEndDefs))
	}
	if len(bf.PerLayer) != len(perLayerDefs) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the source (at most 128)", len(bf.PerLayer), len(perLayerDefs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	once := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		once(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: file has %q, source %q", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range bf.EndToEnd {
		once(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, source %+v", i, m, d)
		}
		// The issue's rule: no gate wider than a tenth. setup_s alone may
		// go to the contract's maximum, and has to carry the largest bound.
		limit := maxBound
		if m.Name == "setup_s" {
			limit = 0.25
			setup = m.Unit == "s" && m.Better == "lower"
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > limit || m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("end-to-end %s: unit %q bound %v (at most %v)", m.Name, m.Unit, m.Bound, limit)
		}
	}
	if !setup || bf.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s, in seconds, lower is better, must be the first end-to-end metric")
	}
	for i, m := range bf.PerLayer {
		once(m.Name)
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: file has %+v, source %+v", i, m, d)
		}
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func wantMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
		}
	}
}

// TestWorkloads runs every workload end to end at a few ticks: the timed
// run, the traced run with its span file, and the shortened layer
// measurements. No timing is asserted, only shape and the output checks
// the harness itself makes.
func TestWorkloads(t *testing.T) {
	for i, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			var out bytes.Buffer
			seed := int64(1 + i) // names and units must not depend on the seed
			res, err := runTimed(&out, def, seed, 5, 2)
			if err != nil {
				t.Fatalf("timed run: %v\n%s", err, out.String())
			}
			wantMetrics(t, *res, endToEndDefs)

			dir := t.TempDir()
			out.Reset()
			res, err = runTraced(&out, def, seed, 5, 5*time.Millisecond, dir)
			if err != nil {
				t.Fatalf("traced run: %v\n%s", err, out.String())
			}
			wantMetrics(t, *res, perLayerDefs)
			if !strings.Contains(out.String(), "tick budget") {
				t.Errorf("traced run printed no tick-budget table:\n%s", out.String())
			}
			checkSpanFile(t, filepath.Join(dir, "trace-"+def.Name+".json"), def.Name == "remote_web_churn")
		})
	}
}

func checkSpanFile(t *testing.T, path string, remote bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	names := make(map[string]int)
	for i, s := range file.Spans {
		names[s.Name]++
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
		if s.Parent < 0 {
			continue
		}
		p := file.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Tick != p.Tick {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
	wantSpans := []string{"fleet.tick", "netsim.step", "core.settle", "measure.poll", "core.flow_setup",
		"hwdb.fleet_select", "hwdb.flows_select", "ui.refresh", "ui.bandwidth_rows", "ui.artifact_step"}
	if remote {
		wantSpans = append(wantSpans, "backend.step", "backend.sync", "shardrpc.step_wire", "shardrpc.sync_wire")
	} else {
		wantSpans = append(wantSpans, "clock.advance", "fleet.sync")
	}
	for _, n := range wantSpans {
		if names[n] == 0 {
			t.Errorf("no %s span recorded (have %v)", n, names)
		}
	}
}

// TestSeedMovesInputs checks that the seed reaches the generated inputs:
// host positions and the probe's destination.
func TestSeedMovesInputs(t *testing.T) {
	def, _ := workloadByName("home_ui")
	var pos [2][]string
	var probe [2]string
	for i, seed := range []int64{1, 2} {
		r, err := build(def, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range r.homes[0].hosts {
			if h.Wireless {
				p := h.Pos()
				pos[i] = append(pos[i], fmt.Sprint(h.Name, p.X, p.Y))
			}
		}
		probe[i] = r.probe.String()
		r.stop()
	}
	if len(pos[0]) != 2 || reflect.DeepEqual(pos[0], pos[1]) {
		t.Errorf("wireless host positions do not follow the seed: %v vs %v", pos[0], pos[1])
	}
	if probe[0] == probe[1] {
		t.Errorf("probe destination does not follow the seed: %s", probe[0])
	}
}

// TestRunPrintsResultLine drives the flag-level entry point once and checks
// the last line's shape and the -record / -compare round trip.
func TestRunPrintsResultLine(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	var out bytes.Buffer
	// -seconds 1 scales home_ui to a twentieth of its ticks per repetition.
	if err := run(&out, options{workload: "home_ui", seed: 3, seconds: 1, recordTo: a, outDir: dir}); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	wantMetrics(t, lastLine(t, out.String()), endToEndDefs)
	for _, want := range []string{"go=", "cpu=", "nproc=", "gomaxprocs=", "gcpercent=", "commit="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("machine record lacks %q", want)
		}
	}
	if err := run(io.Discard, options{workload: "nope", seconds: 1, outDir: dir}); err == nil {
		t.Error("unknown workload accepted")
	}

	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	def, _ := workloadByName("home_ui")
	if want := def.Ticks / refSeconds; rec.Ticks != want {
		t.Errorf("recorded %d ticks per repetition, ran %d", rec.Ticks, want)
	}
	if err := run(io.Discard, options{compare: true, args: []string{a, a}}); err != nil {
		t.Errorf("a file compared with itself: %v", err)
	}
	// b is a with one change: -compare must flag a gated metric that moved
	// by half in either direction, show an ungated timing that did without
	// failing, and refuse a set that ran another tick count.
	for _, c := range []struct {
		name       string
		change     func(r *record)
		wantErr    bool
		wantOutput string
	}{
		{"gated metric half as bad again", func(r *record) { scale(r.Metrics, "allocs_per_home_step", 1.5) }, true, "OVER"},
		{"gated metric a third better", func(r *record) { scale(r.Metrics, "allocs_per_home_step", 1/1.5) }, true, "OVER"},
		{"timing half as bad again", func(r *record) { scale(r.Timings, "fleet.tick_p50_ms", 1.5) }, false, "not gated"},
		{"other tick count", func(r *record) { r.Ticks *= 2 }, true, ""},
	} {
		var changed record
		if err := json.Unmarshal(data, &changed); err != nil {
			t.Fatal(err)
		}
		c.change(&changed)
		os.Remove(b)
		if err := appendRecord(b, changed); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		err := run(&out, options{compare: true, args: []string{a, b}})
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.wantOutput) {
			t.Errorf("%s: -compare returned %v, want error %v and %q in:\n%s", c.name, err, c.wantErr, c.wantOutput, out.String())
		}
	}
}

func scale(m map[string]value, name string, by float64) {
	v := m[name]
	v.Value *= by
	m[name] = v
}
