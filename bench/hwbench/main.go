// Command hwbench is the repository's benchmark: four workloads over the
// home-router fleet, each run as five in-process repetitions of a fixed
// tick count stepped from one goroutine, every metric the median over the
// repetitions. bench/README.md defines the workloads and metrics and says
// why the run is shaped this way; BENCHMARK.json names the command.
//
//	bench/run.sh --workload web_churn --seed 1 --seconds 20 --trace 0
//	bench/run.sh --workload web_churn --seed 1 --seconds 20 --trace 1
//	bench/run.sh -layers
//	bench/run.sh -compare bench/out/a.jsonl bench/out/b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// value is one reported metric: the median over the repetitions.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output. spread, the smallest and
// largest repetition behind each median, goes to the readable lines above
// it and to the -record file only: the last line has a fixed shape.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	timings map[string]value // timed run only: timingDefs, median over the repetitions
	spread  map[string][2]float64
}

// record is one line of a -record file, the input of -compare. Ticks is the
// measured phase of one repetition: heap, ring fill and query cost grow with
// it, so -compare refuses sets whose tick counts differ.
type record struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Trace    int                   `json:"trace"`
	Ticks    int                   `json:"ticks_per_repetition"`
	Machine  machineRecord         `json:"machine"`
	Metrics  map[string]value      `json:"metrics"`
	Timings  map[string]value      `json:"timings,omitempty"`
	Spread   map[string][2]float64 `json:"_spread,omitempty"`
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	layers   bool
	compare  bool
	recordTo string
	outDir   string
	args     []string // the two files of -compare
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: web_churn, bulk_stream, remote_web_churn or home_ui")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "run length the fixed tick counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run, printing every per-layer metric; 0: the timed run, printing every end-to-end metric")
	flag.BoolVar(&o.layers, "layers", false, "run the layer micro-measurements at full length and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two -record files given as arguments; exit 1 if any gated median differs by more than its bound")
	flag.StringVar(&o.recordTo, "record", "", "append this run's metrics to the given file, one JSON line per run")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the trace file is written to")
	flag.Parse()
	o.args = flag.Args()

	// The binary fixes its own runtime settings; GOGC and GOMEMLIMIT in
	// the environment are overridden, not trusted.
	runtime.GOMAXPROCS(maxProcs)
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(math.MaxInt64)

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "hwbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two record files")
		}
		return compareFiles(w, o.args[0], o.args[1])
	case o.layers:
		m, err := runLayers(time.Second)
		if err != nil {
			return err
		}
		for _, d := range perLayerDefs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "%-40s %14.3f %s\n", d.Name, v, d.Unit)
			}
		}
		return nil
	}
	def, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.seconds > 600 {
		return fmt.Errorf("-seconds %d out of range", o.seconds)
	}
	ticks := max(5, def.Ticks*o.seconds/refSeconds)
	mach := readMachine()
	fmt.Fprintf(w, "hwbench workload=%s seed=%d seconds=%d homes=%d ticks/rep=%d warmup=%d dt=%gs\n",
		def.Name, o.seed, o.seconds, def.Homes, ticks, warmupTicks, tickDT)
	fmt.Fprintf(w, "machine go=%s cpu=%q nproc=%d gomaxprocs=%d gcpercent=%d commit=%s\n",
		mach.GoVersion, mach.CPUModel, mach.NProc, mach.GOMAXPROCS, mach.GCPercent, mach.Commit)

	var res *result
	var err error
	if o.trace == 0 {
		res, err = runTimed(w, def, o.seed, ticks, repetitions)
	} else {
		res, err = runTraced(w, def, o.seed, ticks, 200*time.Millisecond, o.outDir)
	}
	if err != nil {
		return err
	}
	if o.recordTo != "" {
		if err := appendRecord(o.recordTo, record{def.Name, o.seed, o.trace, ticks, mach, res.Metrics, res.timings, res.spread}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd derives the end-to-end metrics of one repetition.
func endToEnd(r *repResult) map[string]float64 {
	steps := float64(r.homes * len(r.ticks))
	return map[string]float64{
		"setup_s":                   r.setup.Seconds(),
		"allocs_per_home_step":      float64(r.mallocs) / steps,
		"alloc_bytes_per_home_step": float64(r.bytes) / steps,
		"heap_mb_per_home":          float64(r.heapAlloc) / 1e6 / float64(r.homes),
	}
}

// timings derives timingDefs from one repetition's samples.
func timings(r *repResult) map[string]float64 {
	steps := float64(r.homes * len(r.ticks))
	return map[string]float64{
		"fleet.home_steps_per_s":       steps / (sum(r.ticks) / 1e3),
		"fleet.tick_p50_ms":            median(r.ticks),
		"runtime.cpu_ms_per_home_step": msOf(r.cpu) / steps,
		"core.flow_setup_p50_us":       median(r.fsetup),
		"hwdb.fleet_query_p50_us":      median(r.fquery),
		"hwdb.home_query_p50_us":       median(r.hquery),
		"ui.refresh_p50_ms":            median(r.refresh),
	}
}

// sameCounters is the determinism check between two repetitions of one
// seed: the books that depend only on the inputs must be identical. The
// other books — punts, dispatches, matched lookups, hwdb rows — depend on
// which side wins a race the design leaves open (the frames of a batch that
// follow a new flow's first packet punt too until the rule lands, and a
// punted frame is counted by the controller, not by a flow entry). They
// agree to a part in a thousand on a long quiet run and by no fixed margin
// on a short or a slowed one, so they are printed, not compared.
func sameCounters(a, b counters, what string) error {
	exact := func(name string, x, y uint64) error {
		if x != y {
			return fmt.Errorf("check deterministic_counters: %s: %s is %d, was %d", what, name, y, x)
		}
		return nil
	}
	return errors.Join(
		exact("polls", a.Polls, b.Polls),
		exact("lookups", a.Lookups, b.Lookups),
		exact("flow table length", uint64(a.FlowTableLen), uint64(b.FlowTableLen)),
		exact("rows lost", a.Lost, b.Lost),
		exact("app bytes sent", a.SentBytes, b.SentBytes),
	)
}

// runTimed is the `--trace 0` run: `reps` untraced repetitions, every
// end-to-end metric and every timing the median over them.
func runTimed(w io.Writer, def workloadDef, seed int64, ticks, reps int) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]value), timings: make(map[string]value), spread: make(map[string][2]float64)}
	perRep := make(map[string][]float64)
	var first counters
	for i := 0; i < reps; i++ {
		r, err := runRep(def, seed, ticks, nil)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", def.Name, i, err)
		}
		fmt.Fprintf(w, "repetition %d: %+v\n", i, r.ctr)
		if i == 0 {
			first = r.ctr
		} else if err := sameCounters(first, r.ctr, fmt.Sprintf("repetition %d against 0", i)); err != nil {
			return nil, err
		}
		for name, v := range endToEnd(r) {
			perRep[name] = append(perRep[name], v)
		}
		for name, v := range timings(r) {
			perRep[name] = append(perRep[name], v)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	report := func(into map[string]value, defs []metricDef) {
		for _, d := range defs {
			lo, hi := minMax(perRep[d.Name])
			v := value{Value: median(perRep[d.Name]), Unit: d.Unit}
			into[d.Name], res.spread[d.Name] = v, [2]float64{lo, hi}
			fmt.Fprintf(w, "  %-30s %14.4f %-6s [%.4f .. %.4f]\n", d.Name, v.Value, d.Unit, lo, hi)
		}
	}
	fmt.Fprintf(w, "end-to-end metrics: median over %d repetitions [min .. max]\n", reps)
	report(res.Metrics, endToEndDefs)
	fmt.Fprintf(w, "timings (per-layer, not gated): median over %d repetitions [min .. max] of medians of %d samples per repetition, %d per run\n",
		reps, ticks, ticks*reps)
	report(res.timings, timingDefs)
	fmt.Fprintf(w, "operations attempted=%d failed=%d; counters agree over all %d repetitions\n", res.Attempted, res.Failed, reps)
	return res, nil
}

// runTraced is the `--trace 1` run: one untraced repetition (timings, tails,
// runtime and counters, and the untraced tick the spans are held against), one
// traced repetition, and the layer micro-measurements in short form.
func runTraced(w io.Writer, def workloadDef, seed int64, ticks int, layerBudget time.Duration, outDir string) (*result, error) {
	plain, err := runRep(def, seed, ticks, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced repetition: %w", def.Name, err)
	}
	tr := newSpanRecorder()
	traced, err := runRep(def, seed, ticks, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", def.Name, err)
	}
	if err := sameCounters(plain.ctr, traced.ctr, "traced repetition against untraced"); err != nil {
		return nil, err
	}
	path, err := tr.write(outDir, def.Name)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	micro, err := runLayers(layerBudget)
	if err != nil {
		return nil, err
	}

	homes := plain.homes
	steps := float64(homes * ticks)
	perStep := func(name string) float64 { ns, _ := tr.total(name); return float64(ns) / 1e3 / steps }
	perTick := func(name string) float64 { ns, _ := tr.total(name); return float64(ns) / 1e3 / float64(ticks) }
	perCall := func(name string) float64 {
		ns, calls := tr.total(name)
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls)
	}
	// Leaves of the tick: what the spans attribute. backend.sync and the
	// wire gaps exist on the remote workload only.
	var attributed int64
	for _, name := range []string{"netsim.step", "core.settle", "measure.poll", "clock.advance", "fleet.sync",
		"backend.sync", "shardrpc.step_wire", "shardrpc.sync_wire"} {
		ns, _ := tr.total(name)
		attributed += ns
	}
	untraced := sum(plain.ticks) * 1e6 // ns
	ctr := plain.ctr
	hit := 0.0
	if ctr.Lookups > 0 {
		hit = float64(ctr.Matched) / float64(ctr.Lookups)
	}
	m := map[string]float64{
		"netsim.step_us_per_home_step":      perStep("netsim.step"),
		"core.settle_us_per_home_step":      perStep("core.settle"),
		"measure.poll_us_per_home_step":     perStep("measure.poll"),
		"fleet.sync_us_per_tick":            perTick("fleet.sync") + perTick("backend.sync") + perTick("shardrpc.sync_wire"),
		"clock.advance_us_per_tick":         perTick("clock.advance"),
		"fleet.tick_unattributed_pct":       100 * (untraced - float64(attributed)) / untraced,
		"shardrpc.step_rtt_us":              perTick("shardrpc.step_wire"),
		"shardrpc.sync_rtt_us":              perTick("shardrpc.sync_wire"),
		"shardrpc.backend_step_us":          perTick("backend.step"),
		"ui.bandwidth_rows_ms":              perCall("ui.bandwidth_rows") / 1e6,
		"ui.artifact_step_ms":               perCall("ui.artifact_step") / 1e6,
		"hwdb.flows_select_us":              perCall("hwdb.flows_select") / 1e3,
		"datapath.punts_per_home_step":      float64(ctr.Punts) / steps,
		"nox.dispatched_per_home_step":      float64(ctr.Dispatched) / steps,
		"measure.polls_per_home_step":       float64(ctr.Polls) / steps,
		"hwdb.rows_per_home_step":           float64(ctr.Rows) / steps,
		"datapath.lookups_per_home_step":    float64(ctr.Lookups) / steps,
		"datapath.fastpath_hit_ratio":       hit,
		"datapath.flow_table_len":           float64(ctr.FlowTableLen) / float64(homes),
		"hwdb.rows_dropped":                 float64(ctr.RowsDropped),
		"telemetry.delivered_rows_per_tick": float64(ctr.DeliveredPhase) / float64(ticks),
		"telemetry.lost_rows":               float64(ctr.Lost),
		"runtime.gc_cycles_per_ktick":       1000 * float64(plain.gcCycles) / float64(ticks),
		"runtime.gc_pause_ms_total":         msOf(plain.gcPause),
		"runtime.gc_cpu_fraction":           gcCPUFraction(),
		"runtime.rss_peak_mb":               rssPeakMB(),
		"fleet.tick_p90_ms":                 quantile(plain.ticks, 0.90),
		"fleet.tick_p99_ms":                 quantile(plain.ticks, 0.99),
		"core.flow_setup_p99_us":            quantile(plain.fsetup, 0.99),
		"hwdb.home_query_p99_us":            quantile(plain.hquery, 0.99),
		"hwdb.fleet_query_p99_us":           quantile(plain.fquery, 0.99),
		"ui.refresh_p99_ms":                 quantile(plain.refresh, 0.99),
		"measure.install_us_p50":            median(plain.installUS),
		"trace.punt_barrier_mean_us":        plain.puntBarrierMeanUS,
	}
	for name, v := range timings(plain) {
		m[name] = v
	}
	for name, v := range micro {
		m[name] = v
	}

	tr.printBudget(w, homes)
	handDriven, _ := tr.total("fleet.tick")
	fmt.Fprintf(w, "untraced tick %.1f us/home-step; spans attribute %.1f%% of the hand-driven tick; spans in %s\n",
		untraced/1e3/steps, 100*float64(attributed)/float64(max(1, handDriven)), path)
	fmt.Fprintf(w, "per-layer metrics (one untraced + one traced repetition of %d ticks; micro-measurements %v each)\n", ticks, layerBudget)
	res := &result{Correct: true, Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Metrics: make(map[string]value)}
	for _, d := range perLayerDefs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d; counters agree traced and untraced: %+v\n", res.Attempted, res.Failed, ctr)
	return res, nil
}

func gcCPUFraction() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
